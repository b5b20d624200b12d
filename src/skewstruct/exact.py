"""Exact scalar, polynomial, and polynomial-matrix arithmetic over the rationals.

Everything in this module is immutable and exact; no floating point enters.
Values are `fractions.Fraction`s, but the hot loops (rank, nullspace and
Smith reduction) scale each row to integers first and run fraction-free, so
they do no gcd per operation. Polynomials store their coefficients lowest
degree first and are kept trimmed, so the zero polynomial is the empty
coefficient tuple. Its degree is the sentinel ``NEG_INF`` (never the
integer -1), which behaves correctly under ``max`` and comparisons.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    GradeTooSmall,
    InternalInconsistency,
    NotSkewSymmetric,
    ShapeMismatch,
)

NEG_INF = float("-inf")

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# raw coefficient-list helpers
#
# A "raw" polynomial is a trimmed list of Fractions, lowest degree first;
# [] is the zero polynomial. The RationalPolynomial class wraps these. The
# Smith reduction uses trimmed lists of ints in the same layout, with its
# own integer helpers next to it.
# ---------------------------------------------------------------------------


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _radd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim(out)


def _rneg(a):
    return [-v for v in a]


def _rsub(a, b):
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] -= v
    return _trim(out)


def _rmul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return _trim(out)


def _rscale(a, s):
    if not s:
        return []
    return [v * s for v in a]


def _rdivmod(a, b):
    """Polynomial division with remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(rem) < len(b):
        return [], rem
    quot = [_ZERO] * (len(rem) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(rem) - len(b), -1, -1):
        coeff = rem[k + len(b) - 1] * inv_lead
        if coeff:
            quot[k] = coeff
            for i, bi in enumerate(b):
                rem[k + i] -= coeff * bi
    return _trim(quot), _trim(rem)


def _rmonic(a):
    if not a:
        return []
    lead = a[-1]
    if lead == 1:
        return list(a)
    return [v / lead for v in a]


def _rgcd(a, b):
    """Monic gcd of two raw polynomials; gcd(0, 0) == 0."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _rdivmod(a, b)[1]
    return _rmonic(a)


class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients.

    Immutable and hashable. Coefficients are stored lowest degree first;
    the trailing coefficient is nonzero unless the polynomial is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, value) -> "RationalPolynomial":
        return cls((Fraction(value),))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "RationalPolynomial":
        return cls((0,) * degree + (Fraction(coefficient),))

    @classmethod
    def _raw(cls, coeffs: list) -> "RationalPolynomial":
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs))
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self):
        """Degree, or ``NEG_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return RationalPolynomial._raw(_radd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return RationalPolynomial._raw(_rsub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return RationalPolynomial._raw(_rneg(self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        return RationalPolynomial._raw(_rmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _coerce(other)
        q, r = _rdivmod(self.coeffs, other.coeffs)
        return RationalPolynomial._raw(q), RationalPolynomial._raw(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        result = RationalPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self) -> "RationalPolynomial":
        return RationalPolynomial._raw(_rmonic(self.coeffs))

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reversed_at(self, grade: int) -> "RationalPolynomial":
        """Coefficient reversal with respect to the given grade."""
        if grade < (self.degree if self.coeffs else 0):
            raise GradeTooSmall(f"grade {grade} < degree {self.degree}")
        out = [_ZERO] * (grade + 1)
        for i, c in enumerate(self.coeffs):
            out[grade - i] = c
        return RationalPolynomial(out)

    def valuation_at_zero(self) -> int:
        """Number of trailing zero roots, i.e. the exponent of x dividing self."""
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no valuation")
        k = 0
        while not self.coeffs[k]:
            k += 1
        return k

    # -- comparisons / misc --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def sort_key(self):
        return (len(self.coeffs),) + tuple(
            (c.numerator, c.denominator) for c in self.coeffs
        )

    def __repr__(self):
        return f"RationalPolynomial({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}x" if k == 1 else f"{mag}x^{k}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


def _coerce(value) -> RationalPolynomial:
    if isinstance(value, RationalPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalPolynomial.constant(value)
    raise TypeError(f"cannot coerce {value!r} to RationalPolynomial")


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    return RationalPolynomial._raw(_rgcd(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def _integer_rows(matrix) -> list:
    """Copy a rational matrix into integer rows (each row scaled by its lcm).

    A row of plain ints is copied as it is: the exact ``type`` test is much
    cheaper than ``isinstance(v, Fraction)``, which goes through the
    numbers ABC machinery for every int.
    """
    rows = []
    for row in matrix:
        if all(type(v) is int for v in row):
            rows.append(list(row))
            continue
        scale = 1
        for v in row:
            if isinstance(v, Fraction):
                scale = scale * v.denominator // math.gcd(scale, v.denominator)
        rows.append([int(v * scale) if isinstance(v, Fraction) else int(v) * scale for v in row])
    return rows


def _bareiss_echelon(rows) -> list:
    """Fraction-free echelon reduction in place; returns the pivot columns.

    After the call the first len(pivots) rows form an integer echelon basis
    of the row space (zeros left of each pivot), and the remaining rows are
    zero. Exact by the Bareiss two-step minor identity; rows lacking the
    pivot entry are still rescaled, which that identity requires.
    """
    if not rows or not rows[0]:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        rp = rows[rank]
        piv = rp[col]
        for i in range(rank + 1, n_rows):
            ri = rows[i]
            factor = ri[col]
            if factor:
                for j in range(col, n_cols):
                    ri[j] = (piv * ri[j] - factor * rp[j]) // prev
            else:
                for j in range(col, n_cols):
                    ri[j] = piv * ri[j] // prev
        prev = piv
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    return pivots


def rank_exact(matrix) -> int:
    """Exact rank of a matrix of integers or Fractions.

    Uses fraction-free (Bareiss) elimination on integer-scaled rows, so the
    result is exact for any input size.
    """
    return len(_bareiss_echelon(_integer_rows(matrix)))


def nullspace_exact(matrix) -> list:
    """Integer basis of the right nullspace of an integer/Fraction matrix.

    Returns a list of integer vectors (tuples of Python ints) spanning
    ``{x : matrix @ x = 0}``, one per free column: the primitive vector
    with a positive entry in that column and zeros in the other free
    columns. Elimination and back-substitution are both fraction-free. The
    back-substitution scales the vector by the least factor that makes its
    next entry an integer, so it ends as the rational solution with a 1 in
    the free column times the lcm of that solution's denominators, which is
    primitive. A matrix without rows does not say how wide its nullspace is
    and raises ShapeMismatch.
    """
    rows = _integer_rows(matrix)
    if not rows:
        raise ShapeMismatch("matrix without rows has no width")
    n_cols = len(rows[0])
    pivots = _bareiss_echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivot_set):
        vec = [0] * n_cols
        vec[fc] = 1
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            row = rows[k]
            acc = 0
            for j in range(pc + 1, n_cols):
                vj = vec[j]
                if vj:
                    acc += row[j] * vj
            if acc:
                p = row[pc]
                f = abs(p) // math.gcd(acc, p)
                if f != 1:
                    vec = [v * f for v in vec]
                    acc *= f
                vec[pc] = -acc // p
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# matrix polynomials
# ---------------------------------------------------------------------------


class MatrixPolynomial:
    """A rows x cols grid of RationalPolynomial entries with a declared grade.

    The grade is an upper bound for every entry degree; the actual degree may
    be smaller (the leading coefficient matrix may be zero), and structure at
    infinity depends on the declared grade, not the degree.
    """

    __slots__ = ("rows", "cols", "grade", "entries")

    def __init__(self, entries, grade: int | None = None, *, shape=None):
        ents = tuple(
            tuple(e if isinstance(e, RationalPolynomial) else _coerce(e) for e in row)
            for row in entries
        )
        rows = len(ents)
        cols = len(ents[0]) if rows else 0
        if any(len(row) != cols for row in ents):
            raise ShapeMismatch("ragged entry grid")
        if shape is not None:
            # explicit shape keeps zero-row/zero-column grids well defined
            if rows and shape != (rows, cols):
                raise ShapeMismatch(f"shape {shape} disagrees with entries {rows}x{cols}")
            rows, cols = shape
        deg = max((e.degree for row in ents for e in row), default=NEG_INF)
        if grade is None:
            grade = int(deg) if deg is not NEG_INF and deg >= 0 else 0
        if deg is not NEG_INF and deg > grade:
            raise GradeTooSmall(f"entry degree {deg} exceeds grade {grade}")
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPolynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, grade: int = 0):
        zero = RationalPolynomial.zero()
        return cls(
            tuple(tuple(zero for _ in range(cols)) for _ in range(rows)),
            grade,
            shape=(rows, cols),
        )

    @classmethod
    def from_coefficients(cls, coefficient_matrices, grade: int | None = None):
        """Build from a list of constant matrices, lowest degree first."""
        mats = [[[Fraction(v) for v in row] for row in mat] for mat in coefficient_matrices]
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        rows = len(mats[0])
        cols = len(mats[0][0]) if rows else 0
        for mat in mats:
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ShapeMismatch("coefficient matrices differ in shape")
        if grade is None:
            grade = len(mats) - 1
        entries = [
            [RationalPolynomial([mat[i][j] for mat in mats]) for j in range(cols)]
            for i in range(rows)
        ]
        return cls(entries, grade)

    # -- queries -------------------------------------------------------------

    @property
    def degree(self):
        return max((e.degree for row in self.entries for e in row), default=NEG_INF)

    def entry(self, i: int, j: int) -> RationalPolynomial:
        return self.entries[i][j]

    def coefficient_matrix(self, k: int) -> list:
        """The k-th coefficient as a list-of-lists of Fractions."""
        return [[e.coefficient(k) for e in row] for row in self.entries]

    def coefficient_matrices(self) -> list:
        """All grade+1 coefficient matrices, lowest degree first."""
        return [self.coefficient_matrix(k) for k in range(self.grade + 1)]

    def evaluate(self, x) -> list:
        x = Fraction(x)
        return [[e(x) for e in row] for row in self.entries]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            if not self.entries[i][i].is_zero():
                return False
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != -self.entries[j][i]:
                    return False
        return True

    # -- algebra ---------------------------------------------------------------

    def transpose(self):
        # the transpose of a skew-symmetric matrix (= its negative) stays skew
        return type(self)._rewrap(
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
            self.grade,
            shape=(self.cols, self.rows),
        )

    def __neg__(self):
        return type(self)._rewrap(
            tuple(tuple(-e for e in row) for row in self.entries),
            self.grade,
            shape=(self.rows, self.cols),
        )

    def __add__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("size mismatch in matrix addition")
        grade = max(self.grade, other.grade)
        entries = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        )
        return MatrixPolynomial(entries, grade)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions disagree")
        zero = RationalPolynomial.zero()
        entries = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            entries.append(tuple(row))
        return MatrixPolynomial(tuple(entries), self.grade + other.grade)

    def scale(self, s):
        s = Fraction(s)
        return type(self)._rewrap(
            tuple(tuple(RationalPolynomial._raw(_rscale(e.coeffs, s)) for e in row) for row in self.entries),
            self.grade,
            shape=(self.rows, self.cols),
        )

    def with_grade(self, grade: int):
        """Same entries, re-declared grade (must cover the actual degree)."""
        deg = self.degree
        if deg is not NEG_INF and grade < deg:
            raise GradeTooSmall(f"grade {grade} < degree {deg}")
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        return type(self)._rewrap(self.entries, grade, shape=(self.rows, self.cols))

    @classmethod
    def _rewrap(cls, entries, grade, shape=None):
        # internal fast-path constructor; callers guarantee trimmed entries
        # and, for the skew class, skew-symmetric ones
        obj = object.__new__(cls)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if shape is not None:
            rows, cols = shape
        obj_set = object.__setattr__
        obj_set(obj, "rows", rows)
        obj_set(obj, "cols", cols)
        obj_set(obj, "grade", grade)
        obj_set(obj, "entries", entries)
        return obj

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.grade == other.grade
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.grade, self.entries))

    def __repr__(self):
        return f"<{type(self).__name__} {self.rows}x{self.cols} grade {self.grade}>"

    def to_string(self) -> str:
        widths = [max(len(str(self.entries[i][j])) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for row in self.entries:
            cells = [str(e).rjust(w) for e, w in zip(row, widths)]
            lines.append("[ " + "  ".join(cells) + " ]")
        return "\n".join(lines)


class SkewMatrixPolynomial(MatrixPolynomial):
    """Square matrix polynomial with entry(i,j) == -entry(j,i)."""

    def __init__(self, entries, grade: int | None = None, *, shape=None):
        super().__init__(entries, grade, shape=shape)
        if self.rows != self.cols:
            raise NotSkewSymmetric("skew matrix polynomial must be square")
        for i in range(self.rows):
            if not self.entries[i][i].is_zero():
                raise NotSkewSymmetric(f"nonzero diagonal entry at ({i},{i})")
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise NotSkewSymmetric(f"entries ({i},{j}) and ({j},{i}) are not opposite")

    @classmethod
    def from_upper(cls, size: int, upper: dict, grade: int | None = None):
        """Build from a dict {(i, j): polynomial} with i < j."""
        zero = RationalPolynomial.zero()
        grid = [[zero] * size for _ in range(size)]
        for (i, j), p in upper.items():
            if not i < j:
                raise ValueError("from_upper expects strictly upper positions")
            p = p if isinstance(p, RationalPolynomial) else _coerce(p)
            grid[i][j] = p
            grid[j][i] = -p
        return cls(grid, grade)


def as_skew(P: MatrixPolynomial) -> SkewMatrixPolynomial:
    """View a matrix polynomial as skew-symmetric, validating the invariant."""
    if isinstance(P, SkewMatrixPolynomial):
        return P
    return SkewMatrixPolynomial(P.entries, P.grade)


def rev(P: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """Reverse the coefficient order of P with respect to the given grade.

    The result substitutes 1/x and multiplies by x**grade, so structure at
    zero of the result mirrors structure at infinity of P.
    """
    deg = P.degree
    if deg is not NEG_INF and grade < deg:
        raise GradeTooSmall(f"grade {grade} < degree {deg}")
    entries = tuple(tuple(e.reversed_at(grade) for e in row) for row in P.entries)
    cls = SkewMatrixPolynomial if isinstance(P, SkewMatrixPolynomial) else MatrixPolynomial
    return cls._rewrap(entries, grade, shape=(P.rows, P.cols))


class FrobeniusDistance(NamedTuple):
    """Distance between matrix polynomials: floating value plus its exact square."""

    value: float
    squared: Fraction


def frobenius_distance(P: MatrixPolynomial, Q: MatrixPolynomial) -> FrobeniusDistance:
    """Coefficient-wise Frobenius distance between same-size, same-grade inputs."""
    if (P.rows, P.cols, P.grade) != (Q.rows, Q.cols, Q.grade):
        raise ShapeMismatch("frobenius_distance needs identical size and grade")
    total = _ZERO
    for ra, rb in zip(P.entries, Q.entries):
        for a, b in zip(ra, rb):
            d = _rsub(a.coeffs, b.coeffs)
            for c in d:
                total += c * c
    return FrobeniusDistance(math.sqrt(total), total)


def integer_coefficient_matrices(P: MatrixPolynomial) -> list:
    """Coefficient matrices 0 .. degree of P, scaled to integers.

    Every matrix is multiplied by the lcm of all denominators; one common
    positive scale leaves every rank and kernel unchanged. The zero
    polynomial keeps its zero constant term.
    """
    deg = P.degree
    mats = [P.coefficient_matrix(k) for k in range((0 if deg is NEG_INF else int(deg)) + 1)]
    scale = math.lcm(*(v.denominator for mat in mats for row in mat for v in row))
    return [[[v.numerator * (scale // v.denominator) for v in row] for row in mat] for mat in mats]


@functools.lru_cache(maxsize=512)
def normal_rank(P: MatrixPolynomial) -> int:
    """Rank of P over the field of rational functions, computed exactly.

    Evaluates the integer-scaled coefficients by Horner's rule at the
    distinct integer points 0, 1, -1, 2, ... and keeps the largest constant
    rank `best`, stopping once (best + 1) * degree + 1 points are done: a
    nonzero (best + 1)-minor has degree at most (best + 1) * degree, so it
    cannot vanish at that many points. The result is exactly the rank over
    the function field, with no probabilistic caveat. Values are immutable,
    so results are cached.
    """
    coeffs = integer_coefficient_matrices(P)
    deg = len(coeffs) - 1
    bound = min(P.rows, P.cols)
    best = idx = 0
    while best < bound and idx < (best + 1) * deg + 1:
        x = _eval_point(idx)
        value = coeffs[-1]
        for mat in reversed(coeffs[:-1]):
            value = [[v * x + c for v, c in zip(vrow, crow)] for vrow, crow in zip(value, mat)]
        best = max(best, rank_exact(value))
        idx += 1
    return best


def _eval_point(idx: int) -> int:
    # 0, 1, -1, 2, -2, 3, -3, ...
    if idx == 0:
        return 0
    half = (idx + 1) // 2
    return half if idx % 2 else -half


class SmithForm(NamedTuple):
    """Rank and monic invariant polynomials, chained by divisibility."""

    rank: int
    invariant_polynomials: tuple


def smith_form(P: MatrixPolynomial) -> SmithForm:
    """Smith normal form of a matrix polynomial under unimodular equivalence.

    Reduction by elementary row/column operations. The pivot is always a
    nonzero entry of minimal degree, ties going to the entry with the
    smallest coefficients (see _min_degree_pivot), which keeps coefficient
    growth down and makes the reduction deterministic. Invariant
    polynomials are returned monic, g_1 | g_2 | ... | g_rank.

    The reduction is fraction-free: P is scaled to integer coefficients,
    and each entry is reduced by pseudo-division, that is, by the operation
    ``s*row_i - q*row_t`` with a positive integer ``s``, after which the
    changed row (or column) is divided by its integer content. Scaling a
    row or column by a nonzero constant is unimodular over Q[x], so the
    result is still unimodularly equivalent to P over Q[x], and the monic
    invariant polynomials, which are unique, are those of P. Only the final
    division by the pivot's leading coefficient makes rationals.
    """
    n_rows, n_cols = P.rows, P.cols
    mats = integer_coefficient_matrices(P)
    work = [[_trim([m[i][j] for m in mats]) for j in range(n_cols)] for i in range(n_rows)]
    invariants = []
    t = 0
    while t < min(n_rows, n_cols):
        piv = _min_degree_pivot(work, t, n_rows, n_cols)
        if piv is None:
            break
        _bring_to_corner(work, t, piv)
        while True:
            piv_len = len(work[t][t])
            dirty = _clear_column(work, t, n_rows, n_cols)
            dirty = _clear_row(work, t, n_rows, n_cols) or dirty
            if dirty:
                # a dirty sweep leaves a remainder of lower degree in row or
                # column t, so the pivot degree strictly falls; anything else
                # is a reduction bug that would otherwise loop forever
                p = _min_degree_pivot(work, t, n_rows, n_cols)
                if len(work[p[0]][p[1]]) >= piv_len:
                    raise InternalInconsistency(
                        f"Smith pivot degree did not fall at step {t}"
                    )
                _bring_to_corner(work, t, p)
                continue
            if piv_len == 1:
                break
            offender = _find_nondivisible(work, t, n_rows, n_cols)
            if offender is None:
                break
            # merge the offending row into row t so the next sweep reduces it;
            # row t is zero right of the pivot and the offender is zero in
            # column t, so the sum takes the offender's entries there
            row_t, row_o = work[t], work[offender]
            for j in range(t + 1, n_cols):
                row_t[j] = list(row_o[j])
        lead = work[t][t][-1]
        invariants.append([Fraction(c, lead) for c in work[t][t]])
        t += 1
    polys = tuple(RationalPolynomial._raw(c) for c in invariants)
    return SmithForm(rank=len(polys), invariant_polynomials=polys)


def _min_degree_pivot(work, t, n_rows, n_cols):
    """A nonzero entry of least degree; ties go to the smallest coefficients.

    Among entries of that degree, the one whose largest coefficient has the
    fewest bits wins, then the first in row-major order. Small pivots keep
    the pseudo-division multipliers, and with them coefficient growth, small.
    """
    best = None
    best_key = None
    for i in range(t, n_rows):
        row = work[i]
        for j in range(t, n_cols):
            c = row[j]
            if c and (best_key is None or len(c) <= best_key[0]):
                key = (len(c), max(map(abs, c)).bit_length())
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
                    if key == (1, 1):
                        return best
    return best


def _bring_to_corner(work, t, piv):
    i, j = piv
    if i != t:
        work[t], work[i] = work[i], work[t]
    if j != t:
        for row in work:
            row[t], row[j] = row[j], row[t]


def _pseudo_divmod(a, b):
    """Integer pseudo-division: (s, q, r) with s*a == q*b + r, deg r < deg b.

    a and b are trimmed integer coefficient lists, b nonzero. The positive
    integer s is as small as the leading coefficients allow: a step
    multiplies everything by |lc(b)|/gcd(c, lc(b)) only when lc(b) does not
    divide the coefficient c being cancelled, so s == 1 when lc(b) is +-1.
    """
    rem = list(a)
    nb = len(b)
    if len(rem) < nb:
        return 1, [], rem
    lead = b[-1]
    s = 1
    quot = [0] * (len(rem) - nb + 1)
    for k in range(len(rem) - nb, -1, -1):
        c = rem[k + nb - 1]
        if not c:
            continue
        if c % lead:
            f = abs(lead) // math.gcd(c, lead)
            s *= f
            rem = [v * f for v in rem]
            quot = [v * f for v in quot]
            c *= f
        coeff = c // lead
        quot[k] = coeff
        for i, bi in enumerate(b):
            if bi:
                rem[k + i] -= coeff * bi
    return s, _trim(quot), _trim(rem)


def _combine(s, a, q, b):
    """s*a - q*b for integer coefficient lists, trimmed."""
    out = [s * v for v in a] if s != 1 else list(a)
    if b:
        need = len(q) + len(b) - 1
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        for i, qi in enumerate(q):
            if qi:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] -= qi * bj
    return _trim(out)


def _strip_content(polys):
    """Divide a list of integer polynomials, in place, by their common content."""
    g = 0
    for p in polys:
        g = math.gcd(g, *p)
        if g == 1:
            return
    if g > 1:
        for p in polys:
            for k, v in enumerate(p):
                p[k] = v // g


def _clear_column(work, t, n_rows, n_cols) -> bool:
    """Reduce column t below the pivot by rows s*row_i - q*row_t."""
    piv = work[t][t]
    row_t = work[t]
    dirty = False
    for i in range(t + 1, n_rows):
        head = work[i][t]
        if not head:
            continue
        s, q, r = _pseudo_divmod(head, piv)
        if q:
            row_i = work[i]
            row_i[t] = r
            for j in range(t + 1, n_cols):
                row_i[j] = _combine(s, row_i[j], q, row_t[j])
            _strip_content(row_i)
        if r:
            dirty = True
    return dirty


def _clear_row(work, t, n_rows, n_cols) -> bool:
    """Reduce row t right of the pivot by columns s*col_j - q*col_t."""
    piv = work[t][t]
    dirty = False
    for j in range(t + 1, n_cols):
        head = work[t][j]
        if not head:
            continue
        s, q, r = _pseudo_divmod(head, piv)
        if q:
            work[t][j] = r
            for i in range(t + 1, n_rows):
                work[i][j] = _combine(s, work[i][j], q, work[i][t])
            _strip_content([work[i][j] for i in range(t, n_rows)])
        if r:
            dirty = True
    return dirty


def _find_nondivisible(work, t, n_rows, n_cols):
    piv = work[t][t]
    for i in range(t + 1, n_rows):
        row = work[i]
        for j in range(t + 1, n_cols):
            if row[j] and _pseudo_divmod(row[j], piv)[2]:
                return i
    return None


def skew_smith(P: MatrixPolynomial) -> SmithForm:
    """Paired invariant polynomials of a skew-symmetric matrix polynomial.

    The plain Smith form of a skew-symmetric polynomial lists every invariant
    polynomial twice; this returns each of the r = rank/2 distinct monic
    polynomials once. The pairing is validated and a failure raises
    InternalInconsistency (it would mean the Smith reduction is broken).
    """
    skew = as_skew(P)
    full = smith_form(skew)
    if full.rank % 2:
        raise InternalInconsistency("skew-symmetric polynomial with odd rank")
    paired = []
    gs = full.invariant_polynomials
    for k in range(0, full.rank, 2):
        if gs[k] != gs[k + 1]:
            raise InternalInconsistency(
                f"invariant polynomials {gs[k]} and {gs[k + 1]} are not paired"
            )
        paired.append(gs[k])
    return SmithForm(rank=full.rank // 2, invariant_polynomials=tuple(paired))
