"""Independent reference for the complete eigenstructure of small polynomials.

Nothing here calls the library's reductions (Smith form, staircase, Bareiss
rank) or its polynomial arithmetic and gcd, which is why the minor-gcd and
convolution code of tests/oracles.py, built on them, is not reused. Ranks
are fraction-free eliminations of integer matrices. Invariant polynomials
are quotients of the gcds of all k x k minors. Partial multiplicities at
infinity are x-adic valuations of the minors of the grade reversal. Minimal
indices come from the nullities of explicit convolution matrices, and
factors from sympy. All minors are built by one memoized Laplace expansion,
so the cost grows like C(2m, m): fine for m <= 8, which covers every
polynomial the mc_generic workload draws. The normal rank and minimal
indices alone need no minors, and are cheap enough to check every draw.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

import sympy

from skewstruct.eigenstructure import CompleteEigenstructure
from skewstruct.exact import RationalPolynomial

_LAM = sympy.Symbol("lam")


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a, b, sign):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = list(a)
    for i, y in enumerate(b):
        out[i] += sign * y
    while out and not out[-1]:
        out.pop()
    return out


def _integer_grid(P, grade, reverse=False):
    """Entries as integer coefficient lists (lowest degree first), one common scale."""
    scale = lcm(*(c.denominator for row in P.entries for e in row for c in e.coeffs), 1)
    grid = []
    for row in P.entries:
        out = []
        for e in row:
            coeffs = [int(c * scale) for c in e.coeffs] + [0] * (grade + 1 - len(e.coeffs))
            if reverse:
                coeffs.reverse()
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            out.append(coeffs)
        grid.append(out)
    return grid


def _minors_by_size(grid):
    """Lists of nonzero k x k minors for k = 1, 2, ... until all vanish."""
    n_rows, n_cols = len(grid), len(grid[0])
    level = {((i,), (j,)): grid[i][j] for i in range(n_rows) for j in range(n_cols)}
    out = []
    for k in range(1, min(n_rows, n_cols) + 1):
        if k > 1:
            prev = level
            level = {}
            for rows in itertools.combinations(range(n_rows), k):
                head, rest = rows[0], rows[1:]
                for cols in itertools.combinations(range(n_cols), k):
                    total = []
                    for pos, c in enumerate(cols):
                        a = grid[head][c]
                        minor = prev[(rest, cols[:pos] + cols[pos + 1 :])]
                        if a and minor:
                            total = _add(total, _mul(a, minor), -1 if pos % 2 else 1)
                    level[(rows, cols)] = total
        nonzero = [v for v in level.values() if v]
        if not nonzero:
            break
        out.append(nonzero)
    return out


def _gcd(polys):
    as_sympy = (sympy.Poly(list(reversed(p)), _LAM, domain="ZZ") for p in polys)
    g = None
    for p in as_sympy:
        g = p if g is None else g.gcd(p)
        if g.degree() == 0:
            break
    return g.monic()


def _valuation(poly):
    return next(i for i, c in enumerate(poly) if c)


def _rank(matrix):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    rows = [list(row) for row in matrix]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        p = head[col]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            f = row[col]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, head)]
        prev = p
        rank += 1
    return rank


def _right_minimal_indices(grid, grade, total):
    """Second differences of convolution nullities, as in the definition."""
    n_rows, n_cols = len(grid), len(grid[0])
    indices, prev_dim, prev_diff, k = [], 0, 0, 0
    while len(indices) < total:
        conv = [[0] * ((k + 1) * n_cols) for _ in range((grade + k + 1) * n_rows)]
        for block in range(k + 1):
            for i in range(n_rows):
                for j in range(n_cols):
                    for deg, c in enumerate(grid[i][j]):
                        conv[(block + deg) * n_rows + i][block * n_cols + j] = c
        dim = (k + 1) * n_cols - _rank(conv)
        diff = dim - prev_dim
        indices.extend([k] * (diff - prev_diff))
        prev_dim, prev_diff = dim, diff
        k += 1
    return indices


def rank_and_minimal_indices(P, grade: int):
    """(normal rank, left minimal indices, right minimal indices), without minors.

    The normal rank is the largest rank of P(x) over grade * min(rows, cols)
    + 1 integer points x: some r x r minor is a nonzero polynomial of degree
    at most grade * r, so it vanishes at fewer points than that.
    """
    grid = _integer_grid(P, grade)
    rank = max(
        _rank([[sum(c * x**i for i, c in enumerate(e)) for e in row] for row in grid])
        for x in range(grade * min(P.rows, P.cols) + 1)
    )
    right = tuple(_right_minimal_indices(grid, grade, P.cols - rank))
    transpose = [list(col) for col in zip(*grid)]
    if transpose == [[[-c for c in e] for e in row] for row in grid]:
        # P^T = -P: a left null vector of P is a right one
        return rank, right, right
    return rank, tuple(_right_minimal_indices(transpose, grade, P.rows - rank)), right


def reference_structure(P, grade: int) -> CompleteEigenstructure:
    """Complete eigenstructure of P at the given grade, by definition."""
    grid = _integer_grid(P, grade)
    minors = _minors_by_size(grid)
    rank = len(minors)
    divisors = [_gcd(level) for level in minors]
    finite: dict = {}
    prev = sympy.Poly(1, _LAM, domain="QQ")
    for d in divisors:
        invariant = d.to_field().exquo(prev)
        prev = d.to_field()
        for factor, exponent in invariant.factor_list()[1]:
            coeffs = [Fraction(c.p, c.q) for c in reversed(factor.monic().all_coeffs())]
            finite.setdefault(RationalPolynomial(coeffs), []).append(int(exponent))

    valuations = [0] + [min(_valuation(m) for m in level)
                        for level in _minors_by_size(_integer_grid(P, grade, reverse=True))]
    infinite = [b - a for a, b in zip(valuations, valuations[1:])]

    transpose = [list(col) for col in zip(*grid)]
    return CompleteEigenstructure.build(
        rows=P.rows,
        cols=P.cols,
        grade=grade,
        rank=rank,
        finite=finite,
        infinite=infinite,
        left_minimal=_right_minimal_indices(transpose, grade, P.rows - rank),
        right_minimal=_right_minimal_indices(grid, grade, P.cols - rank),
    )
