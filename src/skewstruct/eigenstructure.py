"""Complete eigenstructure extraction for skew-symmetric matrix polynomials.

The complete eigenstructure of a polynomial at a declared grade consists of
its rank, finite elementary divisors (as irreducible rational factors with
partial multiplicities), partial multiplicities at infinity, and left/right
minimal indices. Everything here is computed in exact rational arithmetic.

Minimal indices and local multiplicities both come from kernel dimensions of
banded block-Toeplitz systems (convolution matrices). Rather than eliminating
the full dense matrices, the generator `_staircase` walks the band one stage
at a time, carrying only the projection of the prefix space S_k onto its
trailing coefficient blocks, and yields dim S_k and the dimension of that
projection's fiber F_k. ker C_k is the fiber of stage k + deg P, so one pass
gives both the prefix and the kernel dimensions. Each stage is one
row-space computation (`exact._extend_basis`) that reads both the rank of
its system and the next window. By shift invariance each window lies
inside the next (the nesting of Wong sequences; Wong 1974, Van Dooren
1979), so one echelon basis serves every stage: the rows that carry the
constant coefficient P_0 are reduced once, and each window vector's row
once, at the stage after the vector first appears. The rows are sparse
integer vectors, reduced with gcd-reduced multipliers over their nonzero
entries only, and each is divided by its content. One
staircase serves every caller, and one reader, `_read_profile`, turns
its stages into indices: each rise of the kernel growth (a second
difference) is read as minimal indices as it comes, and
`multiplicities_from_prefix_dims`, which also reads the float backend's
local profiles, reads the partial multiplicities off the excess growth of
the prefix spaces.

The same pass proves the normal rank rho with no evaluation point, where
the prefix growth meets the kernel growth, and by then the reader has
every minimal index and every partial multiplicity at zero.
`analyze` makes one pass, over rev(P, deg P), which has the rank and the
minimal indices of P (De Teran-Dopico-Mackey 2014); its multiplicities at
zero, raised by grade - deg P, are those of P at infinity (`_at_infinity`).
`exact.normal_rank` reads the pass over P itself. One analysis, `_analyze`,
serves both backends; each reads only the finite part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalInconsistency, ZeroRank
from .exact import (
    NEG_INF,
    MatrixPolynomial,
    RationalPolynomial,
    _check_grade,
    _extend_basis,
    as_skew,
    rev,
    skew_smith,
)
from .points import eigenvalue_sort_key, format_eigenvalue, format_rational


def _finite_sort_key(factor):
    if isinstance(factor, RationalPolynomial):
        return (0,) + factor.sort_key()
    return (1,) + eigenvalue_sort_key(factor)


@dataclass(frozen=True)
class CompleteEigenstructure:
    """Rank, elementary divisors, and minimal indices at a fixed grade.

    ``finite`` maps each irreducible factor (monic RationalPolynomial over
    the rationals, or a SymbolicPoint tag) to its sorted tuple of positive
    partial multiplicities. ``infinite`` lists partial multiplicities at
    infinity including zeros, padded to length ``rank``. Minimal index lists
    are sorted ascending.
    """

    rows: int
    cols: int
    grade: int
    rank: int
    finite: tuple
    infinite: tuple
    left_minimal: tuple
    right_minimal: tuple

    @classmethod
    def build(cls, rows, cols, grade, rank, finite, infinite, left_minimal, right_minimal):
        """Canonicalize fields (sorting) and construct."""
        finite_items = tuple(
            sorted(
                ((factor, tuple(sorted(mults))) for factor, mults in dict(finite).items()),
                key=lambda item: _finite_sort_key(item[0]),
            )
        )
        return cls(
            rows=rows,
            cols=cols,
            grade=grade,
            rank=rank,
            finite=finite_items,
            infinite=tuple(sorted(infinite)),
            left_minimal=tuple(sorted(left_minimal)),
            right_minimal=tuple(sorted(right_minimal)),
        )

    @classmethod
    def skew(cls, size, grade, rank, finite, infinite, minimal):
        """Build a skew-symmetric structure, whose left and right minimal indices are `minimal`.

        Skew symmetry forces an even rank and every multiplicity list, at
        infinity and at each finite factor, in equal pairs, and the index
        sum theorem makes all degrees sum to rank * grade. A violation
        raises InternalInconsistency.
        """
        structure = cls.build(size, size, grade, rank, finite, infinite, minimal, minimal)
        if rank % 2:
            raise InternalInconsistency(f"odd rank {rank} for a skew-symmetric polynomial")
        for label, values in (("infinite", structure.infinite), *structure.finite):
            if values[::2] != values[1::2]:
                raise InternalInconsistency(f"{label} multiplicities {values} are not in pairs")
        sums = structure.index_sums()
        if sum(sums) != rank * grade:
            raise InternalInconsistency(
                "index sums {}+{}+{}+{} != rank*grade {}*{}".format(*sums, rank, grade)
            )
        return structure

    @property
    def size(self) -> int:
        if self.rows != self.cols:
            raise ValueError("size is defined for square polynomials only")
        return self.rows

    def index_sums(self) -> tuple:
        """(finite degree sum, infinite sum, left sum, right sum)."""
        finite_total = 0
        for factor, mults in self.finite:
            deg = factor.degree if isinstance(factor, RationalPolynomial) else 1
            finite_total += int(deg) * sum(mults)
        return (
            finite_total,
            sum(self.infinite),
            sum(self.left_minimal),
            sum(self.right_minimal),
        )

    def to_json_dict(self) -> dict:
        finite = []
        for factor, mults in self.finite:
            if isinstance(factor, RationalPolynomial):
                key = [format_rational(c) for c in factor.coeffs]
            else:
                key = format_eigenvalue(factor)
            finite.append({"factor": key, "multiplicities": list(mults)})
        return {
            "size": self.size,
            "grade": self.grade,
            "rank": self.rank,
            "finite": finite,
            "infinite": list(self.infinite),
            "left_minimal": list(self.left_minimal),
            "right_minimal": list(self.right_minimal),
        }


def same_orbit(first: CompleteEigenstructure, second: CompleteEigenstructure) -> bool:
    """Structural equality of complete eigenstructures (grade-aware)."""
    return first == second


# ---------------------------------------------------------------------------
# banded staircase over the convolution system
# ---------------------------------------------------------------------------


def _staircase(P: MatrixPolynomial):
    """(dim S_k, dim F_k) for the stages k = 0, 1, ... of P's convolution system.

    S_k is the space of coefficient tuples (x_0, ..., x_k) satisfying the
    first k+1 block rows of the convolution system, and the fiber F_k is its
    subspace whose last delta = deg P blocks are zero. With x_{k+1}, ...,
    x_{k+delta} zero, the first k+delta+1 block rows are those of C_k, so
    ker C_k is F_{k+delta}: kernel dimensions are the fiber dimensions from
    stage delta on. Each stage carries S_k as a basis of its projection onto
    the trailing window (x_{k-delta+1}, ..., x_k), whose fibers are the F_k.
    Constant and zero polynomials get an empty window (delta = 0): each
    block row then holds the newest block only. The stages never end: each
    reader takes what it needs.

    Block row k+1 is the system A = [P_0 | W] in the new block x = x_{k+1}
    and the window's coefficients c, with W = [P_delta ... P_1] times the
    window. Its solutions make S_{k+1} over the fiber F_k, and the next
    window is their image under M(x, c) = (c . window without its oldest
    block, x). Each unknown gets the row (its column of A | its image under
    M), and one echelon basis of these rows (`exact._extend_basis`) reads
    both: the rows pivoting inside A number rank A, and the others, zero
    on A, are an echelon basis of M(ker A), the next window.

    The windows nest, so that basis carries over from stage to stage. The
    convolution system is shift invariant: (x_0, ..., x_k) in S_k gives
    (0, x_0, ..., x_k) in S_{k+1}, with the same trailing window, so each
    window lies inside the next (the nesting of Wong sequences). A window
    vector's row is linear in the vector, so the rows of stage k span a
    subspace of those of stage k+1, and stage k's echelon basis extends to
    one of stage k+1 by the rows of only the window vectors new at stage k:
    the rows appended since stage k that pivot at or beyond m = rows(P).
    In any echelon basis, those rows span exactly the part of the row space
    that is zero on A: a combination whose least pivot p is below m is
    nonzero at p, where every other row it uses is zero. So rank A and the
    window, read from the whole basis, are those of the stage's own rows;
    the rows of x, which carry P_0, and each window vector's row are
    reduced once.

    Rows and window vectors are sparse, {position: nonzero int} dicts: a
    row's positions below m are A's rows, and m + j is entry j of the next
    window. [P_delta ... P_1] is held by columns, so a window vector's
    column of W sums over its nonzero entries only, and dropping the oldest
    block is an offset of the positions.
    """
    coeffs = P.numerators[: max(P.degree, 0) + 1]
    delta, n, m = len(coeffs) - 1, P.cols, P.rows
    # column j of [P_delta ... P_1], which applies block row k+1 to the
    # window, as its nonzero entries (i, v)
    shares = [
        [(i, v) for i, v in enumerate(row[j] for row in mat) if v]
        for mat in coeffs[:0:-1]
        for j in range(n)
    ]
    # one echelon basis for every stage: the rows of x, then each window
    # vector's row from the stage after the vector first appears
    basis = []
    for i in range(n):
        # x_i: column i of P_0, then a 1 at x_i in the next window (none if delta = 0)
        vec = {r: v for r, row in enumerate(coeffs[0]) if (v := row[i])}
        if delta:
            vec[m + (delta - 1) * n + i] = 1
        _extend_basis(basis, vec)
    # the window vectors over (x_{k-delta+1}, ..., x_k) new at stage k, the
    # window's size, and the basis rows that stage k had read
    new, width, read, fiber_dim = [], 0, 0, 0
    while True:
        for tail in new:
            # its coefficient: the window vector's column of W, then the
            # vector shifted by one block, its oldest block dropped
            column = [0] * m
            for j, t in tail.items():
                for i, v in shares[j]:
                    column[i] += v * t
            vec = {i: v for i, v in enumerate(column) if v}
            vec.update((m + j - n, t) for j, t in tail.items() if j >= n)
            _extend_basis(basis, vec)
        rank = sum(1 for piv, _ in basis if piv < m)
        prefix_dim = fiber_dim + n + width - rank
        new = [{k - m: v for k, v in row.items()} for piv, row in basis[read:] if piv >= m]
        read, width = len(basis), width + len(new)
        fiber_dim = prefix_dim - width
        yield prefix_dim, fiber_dim


# ---------------------------------------------------------------------------
# stage dimensions -> rank, indices and multiplicities
# ---------------------------------------------------------------------------


def multiplicities_from_prefix_dims(dims, eta: int, rho: int) -> tuple:
    """Partial multiplicities at zero, sorted and padded with zeros to rho.

    dim S_k - dim S_{k-1} is eta (the rational kernel dimension) plus the
    number of multiplicities exceeding k; reading stops at the first k that
    none exceeds. A negative or growing excess, or a sequence that ends
    first, cannot come from prefix spaces and raises InternalInconsistency.
    """
    if rho == 0:
        return ()
    mults = []
    prev_dim, prev_above = 0, rho
    for k, dim in enumerate(dims):
        above = dim - prev_dim - eta
        if not 0 <= above <= prev_above:
            raise InternalInconsistency(f"impossible multiplicity count {above} at order {k}")
        mults.extend([k] * (prev_above - above))
        if above == 0:
            return tuple(mults)
        prev_dim, prev_above = dim, above
    raise InternalInconsistency("multiplicity search exceeded its bound")


def _read_profile(P: MatrixPolynomial, stages) -> tuple:
    """(normal rank rho, right minimal indices, partial multiplicities at zero) of P.

    Reads P's stages (dim S_k, dim F_k) as `_staircase` yields them. With
    eta = cols - rho, the prefix growth
    dim S_k - dim S_{k-1} is eta plus the number of partial multiplicities at
    zero above k, so it falls to eta; from stage k = delta = deg P on, the
    kernel growth dim ker C_{k-delta} - dim ker C_{k-delta-1} counts the right
    minimal indices at most k - delta, so it rises to eta (Forney 1975), and
    each unit it rises by at stage k is one index k - delta. Where they
    first meet, at stage max(largest multiplicity, largest index + delta,
    delta), both are eta: that proves rho, every index has been read, and
    the prefix dimensions read so far give every multiplicity (padded with
    zeros to rho). A kernel growth that falls or exceeds the prefix growth,
    or no meeting within the stage bound, raises InternalInconsistency.
    """
    delta = max(P.degree, 0)
    # the stage bound (index sum theorem): no multiplicity at zero or minimal index exceeds rank * grade
    stages = itertools.islice(stages, P.cols * max(P.grade, 1) + delta + 1)
    prefix_dims, indices = [], []
    kernel_dim = kernel_growth = 0
    for k, (prefix_dim, fiber_dim) in enumerate(stages):
        growth = prefix_dim - (prefix_dims[-1] if prefix_dims else 0)
        prefix_dims.append(prefix_dim)
        if k < delta:
            continue
        rise = fiber_dim - kernel_dim - kernel_growth
        kernel_dim, kernel_growth = fiber_dim, fiber_dim - kernel_dim
        if kernel_growth > growth:
            raise InternalInconsistency(
                f"kernel growth {kernel_growth} exceeds prefix growth {growth} at stage {k}"
            )
        if rise < 0:
            raise InternalInconsistency(f"impossible kernel dimension {fiber_dim} at order {k - delta}")
        indices.extend([k - delta] * rise)
        if kernel_growth == growth:
            rho = P.cols - growth
            return rho, tuple(indices), multiplicities_from_prefix_dims(prefix_dims, growth, rho)
    raise InternalInconsistency("normal rank search exceeded its bound")


def _structure_at_zero(P: MatrixPolynomial) -> tuple:
    """(rho, right minimal indices, multiplicities at zero) of P from one staircase pass."""
    return _read_profile(P, _staircase(P))


def _at_infinity(P: MatrixPolynomial) -> tuple:
    """(rho, right minimal indices, multiplicities at infinity) of P at its grade.

    One staircase pass over rev(P, d), d = deg P. The reversal keeps the
    rank and the minimal indices (De Teran-Dopico-Mackey 2014), and
    rev(P, grade) = x^(grade - d) rev(P, d), so the multiplicities at
    infinity are its multiplicities at zero raised by grade - d.
    """
    d = max(P.degree, 0)
    rho, minimal, at_zero = _structure_at_zero(rev(P, d))
    return rho, minimal, tuple(k + P.grade - d for k in at_zero)


def minimal_indices(P: MatrixPolynomial) -> tuple:
    """Right minimal indices of P, sorted ascending.

    The count of indices equal to k is the second difference of the kernel
    dimensions of the convolution matrices, and there are cols - rho of them.
    Both come from one staircase pass with no evaluation point
    (`_structure_at_zero`). Left minimal indices are the right ones of the
    negated transpose (for skew-symmetric inputs that is P itself, so left
    and right coincide).
    """
    return _structure_at_zero(P)[1]


def infinite_structure(P: MatrixPolynomial) -> tuple:
    """Partial multiplicities of P at infinity for its declared grade.

    These are the multiplicities at zero of rev(P, grade), zeros included up
    to length normal_rank(P), read from one staircase pass over rev(P, deg P)
    (`_at_infinity`). For another grade, pass `P.with_grade(grade)`, which
    raises GradeTooSmall below max(deg P, 0).
    """
    return _at_infinity(P)[2]


class GradeLawReport(NamedTuple):
    """Both sides of the smallest-infinite-multiplicity law."""

    gamma1: int
    grade_minus_degree: int
    leading_is_zero: bool


def smallest_infinite_multiplicity_law(P: MatrixPolynomial) -> GradeLawReport:
    """Check gamma_1 == grade - degree and its leading-coefficient corollary.

    gamma_1 is the smallest partial multiplicity at infinity for P's
    declared grade; it vanishes exactly when the leading (grade-indexed)
    coefficient is nonzero.
    """
    infinite = infinite_structure(P)
    if not infinite:
        raise ZeroRank("law undefined for rank-zero polynomials")
    gamma1 = min(infinite)
    gap = P.grade - int(P.degree)
    leading_is_zero = gap > 0
    if gamma1 != gap or leading_is_zero != (gamma1 >= 1):
        raise InternalInconsistency(
            f"smallest infinite multiplicity {gamma1} disagrees with grade gap {gap}"
        )
    return GradeLawReport(gamma1, gap, leading_is_zero)


_ROOT_CAP = 10**6  # largest |a_0 * a_n| whose divisor pairs `_factor_rational` tries


def _factor_rational(poly: RationalPolynomial) -> list:
    """Irreducible monic factors of a rational polynomial with exponents.

    The coefficients are cleared to a primitive integer polynomial f. Its
    irreducible factors over Q are those over Z, up to constants (Gauss's
    lemma), and exact rules find most of them without sympy:
    - x, split off first, with the number of low-order zero coefficients
      as its exponent;
    - every rational root p/q of the rest, whose p divides its constant
      term a_0 and q its leading coefficient a_n (the rational root
      theorem). Each candidate is tested by `_divide_linear`, and the
      quotient by q*x - p is divided again until it leaves a remainder,
      which gives the root's multiplicity;
    - a rest of degree 2 or 3 with no rational root is irreducible: a
      factorization would have a factor of degree 1, hence a root.
    Only a rest of degree 4 or more goes to sympy's dup_factor_list,
    imported on that first call. The candidates are tried only while
    |a_0 * a_n| <= _ROOT_CAP = 10**6, where the divisors of both ends take
    at most 1,001 trial divisions. At the cap the enumeration costs about
    what the sympy call it replaces does: on quartics and octics with
    highly composite ends (a_n, a_0 = 1 and 720720, 720 and 1386, 60 and
    16632, ...) it took 0.1-1.1 ms against 0.2-2.6 ms for sympy on the
    same polynomial, both warm. Past the cap the whole of f goes to sympy.
    """
    if poly.degree is NEG_INF or poly.degree == 0:
        return []
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in poly.coeffs]
    content = math.gcd(*ints)
    ints = [v // content for v in ints]
    zeros = next(i for i, v in enumerate(ints) if v)
    rest = ints[zeros:]
    if abs(rest[0] * rest[-1]) > _ROOT_CAP:
        return _factor_by_sympy(ints)
    factors = [(RationalPolynomial.variable(), zeros)] if zeros else []
    tops = _divisors(rest[-1])
    for d in _divisors(rest[0]):
        for p, q in ((p, q) for q in tops if math.gcd(d, q) == 1 for p in (d, -d)):
            exponent = 0
            while len(rest) > 1 and (quotient := _divide_linear(rest, p, q)) is not None:
                rest, exponent = quotient, exponent + 1
            if exponent:
                factors.append((RationalPolynomial([Fraction(-p, q), 1]), exponent))
    if len(rest) > 4:
        factors += _factor_by_sympy(rest)
    elif len(rest) > 1:
        factors.append((RationalPolynomial(rest).monic(), 1))
    return factors


def _divisors(n: int) -> list:
    """The positive divisors of a nonzero integer, by trial division up to its square root."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if not n % d]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divide_linear(f: list, p: int, q: int):
    """f / (q*x - p) for an integer coefficient list f, lowest degree first; None unless exact.

    Synthetic division from the top, ``g_(i-1) = (f_i + p*g_i) / q``, is
    Horner's evaluation of q^n f(p/q) with the powers of q divided out as
    it goes. For a primitive f and coprime p, q, every step is exact and
    the remainder ``f_0 + p*g_0`` is zero exactly when f(p/q) = 0 (Gauss's
    lemma), so this is also the exact test for the root p/q.
    """
    quotient = [0] * (len(f) - 1)
    carry = 0
    for i in range(len(f) - 1, 0, -1):
        value, rem = divmod(f[i] + carry, q)
        if rem:
            return None
        quotient[i - 1] = value
        carry = p * value
    return quotient if f[0] + carry == 0 else None


def _factor_by_sympy(ints: list) -> list:
    """The irreducible monic factors with exponents of a primitive integer polynomial, by sympy."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    return [
        (RationalPolynomial([int(c) for c in reversed(factor)]).monic(), exponent)
        for factor, exponent in dup_factor_list(ints[::-1], ZZ)[1]
    ]


def _exponent(g: RationalPolynomial, factor: RationalPolynomial) -> int:
    """The exponent of `factor` in g, by repeated exact division."""
    exponent = 0
    while True:
        quotient, remainder = divmod(g, factor)
        if remainder.coeffs:
            return exponent
        g, exponent = quotient, exponent + 1


def _analyze(P: MatrixPolynomial, grade, finite_part) -> CompleteEigenstructure:
    """The analysis of both backends, all but the finite part read exactly.

    One staircase pass over rev(P, deg P) gives the rank rho, the minimal
    indices (left equal right, as -P^T = P) and infinity (`_at_infinity`).
    It reads P as declared, and another grade raises each multiplicity at
    infinity by grade - P.grade. By the index sum theorem the finite
    elementary divisors then have total degree
    deficit = rho * grade - sum(infinite) - 2 * sum(minimal), whatever the
    grade. `finite_part(skew, rho, deficit)` reads them, none at a zero
    deficit; `CompleteEigenstructure.skew` holds them to the deficit.
    """
    skew = as_skew(P)
    grade = skew.grade if grade is None else grade
    _check_grade(grade, skew.degree)

    rho, minimal, infinite = _at_infinity(skew)
    infinite = tuple(k + grade - skew.grade for k in infinite)
    deficit = rho * grade - sum(infinite) - 2 * sum(minimal)
    if deficit < 0:
        raise InternalInconsistency(f"index sums exceed rank*grade by {-deficit}")
    finite = finite_part(skew, rho, deficit)
    return CompleteEigenstructure.skew(skew.rows, grade, rho, finite, infinite, minimal)


def _smith_finite_part(skew: MatrixPolynomial, rho: int, deficit: int) -> dict:
    """The exact finite part: Smith (`skew_smith`) and one factorization, only at a positive deficit.

    The invariant polynomials g_1 | ... | g_k form a divisibility chain, so
    g_k is the one polynomial factored (`_factor_rational`), and each
    factor's exponent in g_{k-1}, g_{k-2}, ... is read by exact division
    (`_exponent`) down to the first g_i that it does not divide.
    """
    finite: dict = {}
    if not deficit:
        return finite
    paired = skew_smith(skew)
    if 2 * paired.rank != rho:
        raise InternalInconsistency(f"rank {rho} by the staircase vs {2 * paired.rank} by reduction")
    # factor g_k alone, then divide down the chain (a constant g_i stops it)
    *rest, last = paired.invariant_polynomials
    for factor, exponent in _factor_rational(last):
        mults = finite[factor] = [exponent, exponent]
        for g in reversed(rest):
            exponent = _exponent(g, factor)
            if not exponent:
                break
            mults += [exponent, exponent]
    return finite


def analyze(P: MatrixPolynomial, grade: int | None = None) -> CompleteEigenstructure:
    """Complete eigenstructure of a skew-symmetric matrix polynomial, exactly (`_analyze`)."""
    return _analyze(P, grade, _smith_finite_part)
