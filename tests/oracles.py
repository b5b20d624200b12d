"""Independent brute-force oracles used across the test suite.

These deliberately avoid the library's own reduction algorithms: Smith data
comes from gcds of all k x k minors (Laplace determinants) and from the
general reduction by row and column operations, which shares only the
integer pseudo-division and the gcd/lcm pass with the library's skew
congruence reduction, whose fused sweep is checked against the same sweep
run one congruence step at a time on the full skew matrix; minimal
indices and prefix-space dimensions from explicit convolution matrices,
so the fast paths are checked against
slow, obviously-correct computations; the ranks of those matrices and of
the draws' congruences come from a dense Bareiss elimination, not the
library's sparse row reduction, nullspace vectors
from back-substitution over its rows in Fraction arithmetic, and ranks
also from Gaussian elimination in Fractions; bounded-rank draws come from
the direct Fraction product of polynomial matrices; the staircase's echelon
basis is rebuilt from dense integer rows with undivided multipliers; block
lists are compared modulo renaming of symbols by trying every renaming;
matrix polynomial arithmetic is checked against entrywise
RationalPolynomial formulas on entry grids; the closure search is checked
against the same breadth-first search without its rank bound, which applies
every rule from every state, with rule 6 enumerated by brute force over all
assignments and deduplicated by signature; the Hom witness pass is checked
against its sums over one candidate block at a time, and each block's
packed Hom int against one `dim_hom` call per candidate field; Hom dimensions
between blocks, and general orbit codimensions, come from the kernel and
the rank of the linear maps on the assembled pencils.
"""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import chain, combinations, permutations

from skewstruct.blocks import BlockList, GeneralBlock, assemble_general
from skewstruct.codimension import dim_hom
from skewstruct.degeneration import (
    ClosureResult,
    HomWitness,
    RuleApplication,
    _applications,
    _fresh_symbols,
    _partitions,
    apply_rule,
    canonical_key,
)
from skewstruct.eigenstructure import minimal_indices
from skewstruct.errors import (
    AttemptsExhausted,
    InternalInconsistency,
    MissingBlocks,
    SideConditionViolated,
)
from skewstruct.exact import (
    MatrixPolynomial,
    RationalPolynomial,
    SkewMatrixPolynomial,
    SmithForm,
    _divisibility_chain,
    _pseudo_divmod,
    _trim,
    as_skew,
    normal_rank,
    poly_gcd,
)
from skewstruct.points import INFINITY, SymbolicPoint


def determinant_poly(rows):
    """Laplace-expansion determinant of a square grid of RationalPolynomials."""
    n = len(rows)
    if n == 0:
        return RationalPolynomial.one()
    if n == 1:
        return rows[0][0]
    total = RationalPolynomial.zero()
    for j in range(n):
        head = rows[0][j]
        if head.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = head * determinant_poly(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def minor_gcds(P: MatrixPolynomial):
    """d_k = monic gcd of all k x k minors, for k = 1 .. rank (stops at zero)."""
    gcds = []
    for k in range(1, min(P.rows, P.cols) + 1):
        g = RationalPolynomial.zero()
        for rsel in combinations(range(P.rows), k):
            for csel in combinations(range(P.cols), k):
                sub = [[P.entries[i][j] for j in csel] for i in rsel]
                g = poly_gcd(g, determinant_poly(sub))
        if g.is_zero():
            break
        gcds.append(g)
    return gcds


def smith_by_minors(P: MatrixPolynomial):
    """Invariant polynomials via the minor-gcd characterization."""
    ds = minor_gcds(P)
    invariants = []
    prev = RationalPolynomial.one()
    for d in ds:
        invariants.append((d // prev).monic())
        prev = d
    return invariants


def normal_rank_by_minors(P: MatrixPolynomial) -> int:
    return len(minor_gcds(P))


def smith_by_equivalence(P: MatrixPolynomial) -> SmithForm:
    """Smith normal form of a matrix polynomial under unimodular equivalence.

    The general reduction, independent of the skew congruence one: it
    works on rows and columns separately and never embeds P in a skew
    matrix. First diagonalize: step t brings a nonzero entry of minimal
    degree to (t, t), ties going to the smallest coefficients (see
    `_full_min_degree_pivot`). One routine, `_clear_column`, sweeps column
    t and, on the transpose, row t, until both are zero off the pivot; a
    remainder left behind becomes the next, lower-degree pivot. Then each
    diagonal entry is made monic, and the library's gcd/lcm pass makes the
    diagonal a divisibility chain.

    The reduction is fraction-free: each entry is reduced by
    ``s*row_i - q*row_t`` with a positive integer ``s``, after which the
    changed row (or column) is divided by its integer content; scaling by a
    nonzero constant is unimodular over Q[x].
    """
    mats = P.numerators
    work = [[_trim([m[i][j] for m in mats]) for j in range(P.cols)] for i in range(P.rows)]
    diagonal = []
    # work is the trailing block: its (0, 0) entry is position (t, t) of P
    while (piv := _full_min_degree_pivot(work)) is not None:
        _bring_to_corner(work, piv)
        while True:
            piv_len = len(work[0][0])
            dirty = _clear_column(work)
            work = [list(col) for col in zip(*work)]
            dirty = _clear_column(work) or dirty
            work = [list(col) for col in zip(*work)]
            if not dirty:
                break
            # a dirty sweep leaves a remainder of lower degree in row or
            # column t, so the pivot degree strictly falls; anything else
            # is a reduction bug that would otherwise loop forever
            p = _full_min_degree_pivot(work)
            if len(work[p[0]][p[1]]) >= piv_len:
                raise InternalInconsistency(
                    f"Smith pivot degree did not fall at step {len(diagonal)}"
                )
            _bring_to_corner(work, p)
        diagonal.append(work[0][0])
        work = [row[1:] for row in work[1:]]
    diagonal = [RationalPolynomial._raw([Fraction(c, d[-1]) for c in d]) for d in diagonal]
    _divisibility_chain(diagonal)
    return SmithForm(rank=len(diagonal), invariant_polynomials=tuple(diagonal))


def _divide_by_content(polys):
    """Divide a list of integer polynomials, in place, by their common content."""
    g = math.gcd(*(v for p in polys for v in p))
    if g > 1:
        for p in polys:
            p[:] = [v // g for v in p]


def _full_min_degree_pivot(work):
    """A nonzero entry of least degree anywhere in work; ties go to the smallest coefficients.

    Among entries of that degree, the one whose largest coefficient has the
    fewest bits wins, then the first in row-major order.
    """
    best = None
    best_key = None
    for i, row in enumerate(work):
        for j, c in enumerate(row):
            if c and (best_key is None or len(c) <= best_key[0]):
                key = (len(c), max(map(abs, c)).bit_length())
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
                    if key == (1, 1):
                        return best
    return best


def _bring_to_corner(work, piv):
    i, j = piv
    if i:
        work[0], work[i] = work[i], work[0]
    if j:
        for row in work:
            row[0], row[j] = row[j], row[0]


def _clear_column(work) -> bool:
    """Reduce column 0 below the pivot work[0][0] by rows s*row_i - q*row_0.

    Returns whether a nonzero remainder is left in column 0. On the
    transpose, the same steps reduce row 0 by column operations.
    """
    row_0 = work[0]
    piv = row_0[0]
    dirty = False
    for row_i in work[1:]:
        head = row_i[0]
        if not head:
            continue
        s, q, r = _pseudo_divmod(head, piv)
        if q:
            row_i[0] = r
            for j in range(1, len(row_0)):
                row_i[j] = _combine(s, row_i[j], q, row_0[j])
            _divide_by_content(row_i)
        if r:
            dirty = True
    return dirty


def _combine(s, a, q, b):
    """s*a - q*b for integer coefficient lists, trimmed."""
    out = [s * v for v in a] if s != 1 else list(a)
    if b:
        need = len(q) + len(b) - 1
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        for i, qi in enumerate(q):
            for j, bj in enumerate(b):
                out[i + j] -= qi * bj
    return _trim(out)


def sequential_clear_pair(work) -> bool:
    """One sweep of the skew Smith reduction, one congruence step per index, on a full skew matrix.

    The reference for `exact._clear_pair`, which applies each row's steps
    as one congruence on the upper triangle. Here each nonzero (b, k),
    k >= 2, is pseudo-divided by the pivot entry (b, a), a = 1 - b, and
    reduced by ``index_k <- s*index_k - q*index_a`` in turn: row k is
    computed once and column k is written as its negation. Row 1 goes only
    once row 0 is zero past the pivot, and a zero remainder there just
    clears (1, k) and (k, 1). Returns whether a nonzero remainder is left.
    """
    n = len(work)
    for b, a in ((0, 1), (1, 0)):
        row_b, row_a = work[b], work[a]
        dirty = False
        for k in range(2, n):
            if not row_b[k]:
                continue
            s, q, r = _pseudo_divmod(row_b[k], row_b[a])
            if r:
                dirty = True
            elif a == 0:
                row_b[k] = []
                work[k][b] = []
                continue
            if q:
                row_k = work[k]
                row_k[:] = [_combine(s, e, q, f) for e, f in zip(row_k, row_a)]
                row_k[k] = []
                for row, e in zip(work, row_k):
                    row[k] = [-v for v in e]
        if dirty:
            return True
    return False


def integer_rows(matrix) -> list:
    """Dense integer rows: each row of ints or Fractions times the lcm of its denominators."""
    rows = []
    for row in matrix:
        row = [Fraction(v) for v in row]
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([int(v * scale) for v in row])
    return rows


def bareiss_echelon(rows) -> list:
    """Fraction-free echelon reduction in place; returns the pivot columns.

    After the call the first len(pivots) rows form an integer echelon basis
    of the row space (zeros left of each pivot), and the remaining rows are
    zero. Exact by the Bareiss two-step minor identity; rows lacking the
    pivot entry are still rescaled, which that identity requires.
    """
    if not rows or not rows[0]:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    rank, prev = 0, 1
    pivots = []
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot_row = None
        for i in range(rank, n_rows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        rp = rows[rank]
        piv, cols = rp[col], range(col, n_cols)
        for ri in rows[rank + 1 :]:
            factor = ri[col]
            if factor:
                for j in cols:
                    ri[j] = (piv * ri[j] - factor * rp[j]) // prev
            else:
                for j in cols:
                    ri[j] = piv * ri[j] // prev
        prev = piv
        pivots.append(col)
        rank += 1
    return pivots


def rank_by_bareiss(matrix) -> int:
    """Exact rank by dense fraction-free (Bareiss) elimination of integer rows."""
    return len(bareiss_echelon(integer_rows(matrix)))


def nullspace_by_fractions(matrix):
    """Right nullspace basis by Fraction back-substitution over Bareiss rows.

    One vector per free column: set that column to 1 and the other free
    columns to 0, solve the echelon rows from the bottom in Fractions, then
    scale by the lcm of the denominators, which gives the primitive integer
    vector with a positive entry in the free column.
    """
    rows = integer_rows(matrix)
    n_cols = len(rows[0])
    pivots = bareiss_echelon(rows)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            acc = sum((rows[k][j] * vec[j] for j in range(pc + 1, n_cols)), Fraction(0))
            vec[pc] = -acc / rows[k][pc]
        scale = math.lcm(*(v.denominator for v in vec))
        basis.append(tuple(int(v * scale) for v in vec))
    return basis


def extend_basis_dense(basis, vec):
    """Reduce an integer vector against an echelon basis and append what is left.

    `basis` is a list of (pivot, row), each row zero at the pivots of the
    rows before it and `pivot` its first nonzero entry. The vector is
    reduced only against the rows whose pivot it meets, which leaves it
    zero at every pivot; if it is not zero, it is divided by its content
    and appended with its own first nonzero entry as pivot. The rows stay
    linearly independent, since their pivots differ, and span the vectors
    given so far. Rows already in `basis` are not modified.
    """
    row = list(vec)
    for piv, brow in basis:
        f = row[piv]
        if f:
            b = brow[piv]
            row = [b * r - f * s for r, s in zip(row, brow)]
    piv = next((i for i, v in enumerate(row) if v), None)
    if piv is not None:
        _divide_by_content([row])
        basis.append((piv, row))


def rank_by_sparse_fractions(matrix) -> int:
    """Rank by echelon insertion of sparse {column: Fraction} rows, for large sparse maps.

    Each row is reduced against the kept row whose pivot is its least
    column, until that column is no kept row's pivot; then it is kept with
    that pivot, or dropped if nothing is left. Kept rows have distinct
    pivots, so they are independent and span the rows given.
    """
    pivots = {}
    for dense in matrix:
        row = {j: Fraction(v) for j, v in enumerate(dense) if v}
        while row:
            col = min(row)
            kept = pivots.get(col)
            if kept is None:
                pivots[col] = row
                break
            f = row[col] / kept[col]
            for j, v in kept.items():
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


def rank_by_fractions(matrix) -> int:
    """Rank by Gaussian elimination in Fraction arithmetic, no integer scaling."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sample_by_fractions(spec, max_attempts: int = 100) -> SkewMatrixPolynomial:
    """sampling.sample_bounded_rank as the direct product Q^T [[0, B], [-B^T, 0]] Q.

    Draws the same random integers in the same order (B's entries with d+1
    coefficients each, then Q row by row) and multiplies the polynomial
    matrices out in RationalPolynomial arithmetic, with the same rejection
    of singular Q and of draws whose normal rank is not 2r.
    """
    rng = random.Random(spec.seed)
    m, d, r, c = spec.m, spec.d, spec.r, spec.coeff_range
    zero = RationalPolynomial.zero()
    for _ in range(max_attempts):
        block = [
            [RationalPolynomial([rng.randint(-c, c) for _ in range(d + 1)]) for _ in range(m - r)]
            for _ in range(r)
        ]
        inner = [[zero] * m for _ in range(m)]
        for i in range(r):
            for j in range(m - r):
                inner[i][r + j] = block[i][j]
                inner[r + j][i] = -block[i][j]
        inner_poly = SkewMatrixPolynomial(inner, grade=d)
        congruence = [[Fraction(rng.randint(-c, c)) for _ in range(m)] for _ in range(m)]
        if rank_by_bareiss(congruence) < m:
            continue
        cm = MatrixPolynomial(congruence, grade=0)
        sample = as_skew((cm.transpose() @ inner_poly @ cm).with_grade(d))
        if normal_rank(sample) == 2 * r:
            return sample
    raise AttemptsExhausted(f"no rank-{2 * r} draw in {max_attempts} attempts")


# ---------------------------------------------------------------------------
# entrywise reference for MatrixPolynomial arithmetic
#
# A grid is a tuple of rows of RationalPolynomial entries, as MatrixPolynomial
# stored it before it moved to integer coefficient matrices. Each function is
# the entry-by-entry formula for one operation.
# ---------------------------------------------------------------------------


def grid_transpose(grid, cols: int):
    return tuple(tuple(row[j] for row in grid) for j in range(cols))


def grid_neg(grid):
    return tuple(tuple(-e for e in row) for row in grid)


def grid_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def grid_matmul(a, b, cols: int):
    zero = RationalPolynomial.zero()
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(row))), zero) for j in range(cols))
        for row in a
    )


def grid_scale(grid, s):
    return tuple(tuple(e * Fraction(s) for e in row) for row in grid)


def grid_rev(grid, grade: int):
    return tuple(tuple(e.reversed_at(grade) for e in row) for row in grid)


def grid_evaluate(grid, x):
    return [[e(x) for e in row] for row in grid]


def grid_frobenius_squared(a, b) -> Fraction:
    return sum(
        (c * c for ra, rb in zip(a, b) for x, y in zip(ra, rb) for c in (x - y).coeffs),
        Fraction(0),
    )


def convolution_matrix(P: MatrixPolynomial, order: int):
    """The order-k convolution matrix as a dense list-of-lists of Fractions.

    Maps stacked coefficients (x_0, ..., x_k) of a vector polynomial of
    degree <= k to the stacked coefficients of P * x, which has degree up to
    grade + k. Shape: (grade + order + 1) * rows x (order + 1) * cols.
    """
    coeffs = P.coefficient_matrices()
    n_block_rows = P.grade + order + 1
    out = [
        [Fraction(0)] * ((order + 1) * P.cols)
        for _ in range(n_block_rows * P.rows)
    ]
    for col_block in range(order + 1):
        for d, C in enumerate(coeffs):
            row_block = col_block + d
            for i in range(P.rows):
                for j in range(P.cols):
                    out[row_block * P.rows + i][col_block * P.cols + j] = C[i][j]
    return out


def kernel_dims_by_convolution(P: MatrixPolynomial, up_to: int):
    """dim ker C_k for k = 0 .. up_to, via explicit matrices and exact rank."""
    dims = []
    for k in range(up_to + 1):
        C = convolution_matrix(P, k)
        cols = (k + 1) * P.cols
        dims.append(cols - rank_by_bareiss(C))
    return dims


def prefix_dims_by_toeplitz(P: MatrixPolynomial, up_to: int):
    """dim S_k for k = 0 .. up_to, via explicit matrices and exact rank.

    S_k solves the first k+1 block rows of the order-k convolution matrix:
    the dense lower block-triangular Toeplitz matrix with (k+1) x (k+1)
    blocks whose block (i, j) is the coefficient of degree i - j.
    """
    dims = []
    for k in range(up_to + 1):
        T = convolution_matrix(P, k)[: (k + 1) * P.rows]
        dims.append((k + 1) * P.cols - rank_by_bareiss(T))
    return dims


def minimal_indices_by_convolution(P: MatrixPolynomial, total: int):
    """Right minimal indices from second differences of convolution nullities."""
    if total == 0:
        return []
    indices = []
    prev_dim = 0
    prev_count = 0
    k = 0
    while len(indices) < total:
        C = convolution_matrix(P, k)
        dim = (k + 1) * P.cols - rank_by_bareiss(C)
        count = dim - prev_dim
        indices.extend([k] * (count - prev_count))
        prev_dim, prev_count = dim, count
        k += 1
    return sorted(indices)


def left_minimal_indices(P: MatrixPolynomial) -> tuple:
    """Left minimal indices of P: the right minimal indices of its negated transpose."""
    return minimal_indices(-P.transpose())


def _symbol_names(blocklist: BlockList):
    return sorted({b.eigenvalue.name for b in blocklist.blocks if isinstance(b.eigenvalue, SymbolicPoint)})


def equal_by_renaming(a: BlockList, b: BlockList) -> bool:
    """Whether some bijection between the symbol names of a and b turns a into b.

    Tries every bijection, so it is for lists with at most 5 symbols.
    """
    names_a, names_b = _symbol_names(a), _symbol_names(b)
    if len(names_a) != len(names_b):
        return False
    if len(names_a) > 5:
        raise ValueError("the brute-force renaming search is for at most 5 symbols")
    for image in permutations(names_b):
        rename = dict(zip(names_a, image))
        renamed = [
            dataclasses.replace(blk, eigenvalue=SymbolicPoint(rename[blk.eigenvalue.name]))
            if isinstance(blk.eigenvalue, SymbolicPoint)
            else blk
            for blk in a.blocks
        ]
        if BlockList(a.flavor, tuple(renamed)) == b:
            return True
    return False


def _present_eigenvalues(counts: dict) -> list:
    """The finite eigenvalues of these blocks in list order, then INFINITY, present or not."""
    blocks = BlockList.general(counts).blocks
    return [*dict.fromkeys(b.eigenvalue for b in blocks if b.kind == "E_finite"), INFINITY]


def _singular_indices(counts: dict, kind: str) -> list:
    """The indices of the blocks of this singular kind, ascending."""
    return sorted(b.index for b in counts if b.kind == kind)


def rank_raising_by_signature(counts: dict, pool):
    """Rule 6 by brute force: every assignment, duplicates dropped by signature.

    It reads a block -> multiplicity dict, as the library's generators do.
    Each part takes an existing eigenvalue (injectively, by positions and a
    permutation) or the next fresh symbol, named unlike every existing
    symbol, in positional order; an assignment whose sorted (size,
    eigenvalue or "*" for a fresh symbol) signature was already seen is
    skipped. So the first member of each class of
    assignments that differ only by fresh symbols or by swapping parts of
    equal size is kept, in the order the loops reach it.
    """
    existing = _present_eigenvalues(counts)
    existing += [ev for ev in pool if ev not in existing]
    lefts = _singular_indices(counts, "L_T")
    for p in _singular_indices(counts, "L"):
        for q in lefts:
            total = p + q + 1
            for sizes in _partitions(total):
                t = len(sizes)
                fresh = _fresh_symbols(existing, t)
                seen = set()
                for used in range(min(t, len(existing)) + 1):
                    for positions in combinations(range(t), used):
                        for tags in permutations(existing, used):
                            chosen: list = [None] * t
                            for pos, tag in zip(positions, tags):
                                chosen[pos] = tag
                            fresh_iter = iter(fresh)
                            for i in range(t):
                                if chosen[i] is None:
                                    chosen[i] = next(fresh_iter)
                            sig = tuple(
                                sorted(
                                    (s, "*" if ev in fresh else str(ev))
                                    for s, ev in zip(sizes, chosen)
                                )
                            )
                            if sig in seen:
                                continue
                            seen.add(sig)
                            yield RuleApplication(
                                6, p=p, q=q, sizes=sizes, eigenvalues=tuple(chosen)
                            )


def closure_reachable_unpruned(target: BlockList, source: BlockList, max_steps=None, max_states=100_000):
    """closure_reachable's breadth-first search with no rank bound and no Hom test.

    Every state expands by every rule, rule 6 included, whatever its rank
    or Hom vector, so states above the target's rank, and states the
    library's search prunes, are built, counted and expanded too. Rule 6
    comes from rank_raising_by_signature, not the library's generator.
    """
    if max_steps is None:
        max_steps = max(source.total_rows, source.total_cols)
    target_key = canonical_key(target)
    source_key = canonical_key(source)
    pool = [ev for ev in _present_eigenvalues(target.counts()) if isinstance(ev, Fraction)]
    if source_key == target_key:
        return ClosureResult(status="yes", certificate=(), states_explored=1)
    visited = {source_key: (None, None)}
    frontier = [(source, source_key)]
    explored = 1
    for _ in range(max_steps):
        next_frontier = []
        for state, state_key in frontier:
            counts = state.counts()
            rank_keeping = (RuleApplication(*fields) for fields in _applications(counts, (), False))
            apps = chain(rank_keeping, rank_raising_by_signature(counts, pool))
            for app in apps:
                try:
                    nxt = apply_rule(state, app)
                except (MissingBlocks, SideConditionViolated):
                    continue
                key = canonical_key(nxt)
                if key in visited:
                    continue
                visited[key] = (state_key, app)
                explored += 1
                if key == target_key:
                    cert = []
                    k = key
                    while visited[k][1] is not None:
                        parent, used = visited[k]
                        cert.append(used)
                        k = parent
                    return ClosureResult(
                        status="yes",
                        certificate=tuple(reversed(cert)),
                        states_explored=explored,
                    )
                next_frontier.append((nxt, key))
                if explored >= max_states:
                    return ClosureResult(status="no_within_bound", states_explored=explored)
        frontier = next_frontier
        if not frontier:
            break
    return ClosureResult(status="no_within_bound", states_explored=explored)


def _hom_sum(counts, x: GeneralBlock, direction: str) -> int:
    """dim Hom(X, P) or dim Hom(P, X), by direction, for P given as (block, count) pairs."""
    if direction == "Hom(X, -)":
        return sum(count * dim_hom(x, block) for block, count in counts)
    return sum(count * dim_hom(block, x) for block, count in counts)


def hom_candidates(rows: int, cols: int) -> list:
    """The (X, direction) pairs of the Hom witness pass on rows x cols pencils, in field order.

    L_k, L^T_k and E_k(inf) for k <= max(rows, cols), each as "Hom(X, -)"
    then "Hom(-, X)", one list entry per field of the packed Hom vectors.
    """
    candidates = []
    for k in range(max(rows, cols) + 1):
        for x in [GeneralBlock.right(k), GeneralBlock.left(k)] + ([GeneralBlock.infinite(k)] if k else []):
            candidates += [(x, "Hom(X, -)"), (x, "Hom(-, X)")]
    return candidates


def block_hom_by_dim_hom(kind: str, index: int, rows: int, cols: int) -> int:
    """The packed Hom int of one block against the candidates, one `dim_hom` call per field.

    Field i, at bit i * width, is dim Hom(X, block) or dim Hom(block, X)
    for candidate i of `hom_candidates`, with the width derived from the
    shape: no candidate has more than max(rows, cols) + 1 rows or columns.
    Neighbouring fields are merged level by level down to 64, then added by
    Horner's rule, so a large shape is not quadratic in its field count.
    """
    block = GeneralBlock(kind, index, Fraction(0) if kind == "E_finite" else None)
    width = ((max(rows, cols) + 1) * (rows + cols)).bit_length() + 1
    fields = [
        dim_hom(x, block) if direction == "Hom(X, -)" else dim_hom(block, x)
        for x, direction in hom_candidates(rows, cols)
    ]
    while len(fields) > 64:
        fields = [lo | hi << width for lo, hi in zip(fields[::2], fields[1::2] + [0])]
        width *= 2
    packed = 0
    for value in reversed(fields):
        packed = packed << width | value
    return packed


def hom_witness_by_sums(target_counts: dict, source_counts: dict, size: int):
    """The first HomWitness among L_k, L^T_k and E_k(inf) for k <= size, or None.

    One candidate and one direction at a time, each a sum of `dim_hom` over
    the difference of the block counts, with Python's unbounded ints: no
    packed fields, so no field width to get wrong.
    """
    diff = dict(source_counts)
    for block, count in target_counts.items():
        diff[block] = diff.get(block, 0) - count
    diff = [(block, count) for block, count in diff.items() if count]
    for x, direction in hom_candidates(size, size):
        if _hom_sum(diff, x, direction) < 0:
            source_dim = _hom_sum(source_counts.items(), x, direction)
            target_dim = _hom_sum(target_counts.items(), x, direction)
            return HomWitness(x, direction, source_dim, target_dim)
    return None


def _pencil_map(A: BlockList, B: BlockList, sign: int):
    """(unknowns, rank) of (X, Y) -> (X A_k + sign B_k Y) for k = 0, 1 on the assembled pencils.

    X is rows(B) x rows(A) and Y is cols(B) x cols(A); each equation is one
    entry of the image, ranked by sparse Fraction elimination.
    """
    PA, PB = assemble_general(A), assemble_general(B)
    ma, na, mb, nb = PA.rows, PA.cols, PB.rows, PB.cols
    nx, ny = mb * ma, nb * na
    rows = []
    for k in (0, 1):
        Ak, Bk = PA.coefficient_matrix(k), PB.coefficient_matrix(k)
        for i in range(mb):
            for j in range(na):
                row = [0] * (nx + ny)
                for p in range(ma):
                    row[i * ma + p] += Ak[p][j]
                for q in range(nb):
                    row[nx + q * na + j] += sign * Bk[i][q]
                rows.append(row)
    return nx + ny, rank_by_sparse_fractions(rows)


def dim_hom_dense(a: GeneralBlock, b: GeneralBlock) -> int:
    """dim {(X, Y): X A_k = B_k Y, k = 0, 1}: the kernel of the map on the assembled blocks."""
    unknowns, rank = _pencil_map(BlockList.general([a]), BlockList.general([b]), -1)
    return unknowns - rank


def codim_general_by_tangent(blocklist: BlockList) -> int:
    """Strict-equivalence orbit codimension as 2mn minus the rank of the tangent map.

    The tangent map at the m x n pencil P = C_0 + x C_1 is
    (X, Y) -> (X C_k + C_k Y) for k = 0, 1, with X m x m and Y n x n; its
    image is the tangent space of the orbit in the 2mn-dimensional space
    of m x n pencils.
    """
    _, rank = _pencil_map(blocklist, blocklist, 1)
    return 2 * blocklist.total_rows * blocklist.total_cols - rank
