"""Exact scalar, polynomial, and polynomial-matrix arithmetic over the rationals.

Everything in this module is immutable and exact; no floating point enters.
A matrix polynomial is stored as integer coefficient matrices over one
common positive denominator, in lowest terms, so the normal rank, the
staircase and the Smith reduction read plain integers and run
fraction-free, with no gcd per operation; `Fraction`s appear only at the
edges (`coefficient_matrix`, `evaluate`, the lazily built entry grid).
One integer elimination, `_extend_basis`, serves every exact rank: it
reduces sparse `{column: nonzero int}` rows to an echelon basis, for the
staircase in `eigenstructure` and for `rank_exact` and `nullspace_exact`,
which scale integer or `Fraction` rows to integers first. Evaluation
points and scale factors, like coefficients, must be ints or `Fraction`s.
Scalar polynomials (`RationalPolynomial`) store `Fraction` coefficients
lowest degree first and are kept trimmed, so the zero polynomial is the
empty coefficient tuple. Its degree is the sentinel ``NEG_INF`` (never the
integer -1), which behaves correctly under ``max`` and comparisons.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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


def _check_grade(grade, degree):
    """Raise GradeTooSmall unless grade >= max(degree, 0): a grade bounds the degree and is never
    negative. A grade that is not exactly an int raises TypeError, as `_rational` does for a scalar."""
    if type(grade) is not int:  # not isinstance: True is an int
        raise TypeError(f"grade must be an int, got {grade!r}")
    least = max(degree, 0)
    if grade < least:
        raise GradeTooSmall(f"grade {grade} is below {least}, the least grade allowed")


# ---------------------------------------------------------------------------
# scalar polynomials
#
# A RationalPolynomial holds a trimmed tuple of Fractions, lowest degree
# first, and does its own arithmetic on it; () is the zero polynomial. The
# one Smith reduction, `skew_smith` by congruence (`smith_form` embeds its
# input in a skew matrix and calls it), runs fraction-free on trimmed lists
# of ints in the same layout; its integer helpers sit next to it, `_trim`
# serves both, and its gcd/lcm pass runs on monic RationalPolynomials.
# ---------------------------------------------------------------------------


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients.

    Immutable and hashable. Coefficients are stored lowest degree first;
    the trailing coefficient is nonzero unless the polynomial is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable = ()):
        object.__setattr__(self, "coeffs", tuple(_trim([_rational(c) for c in coefficients])))

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
        return cls((value,))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls((0, 1))

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

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, _coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return RationalPolynomial._raw(_trim(out))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return RationalPolynomial._raw([-v for v in self.coeffs])

    def __mul__(self, other):
        a, b = self.coeffs, _coerce(other).coeffs
        if not a or not b:
            return RationalPolynomial()
        # the leading coefficients' product is nonzero, so out stays trimmed
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return RationalPolynomial._raw(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Division with remainder; dividing by zero raises ZeroDivisionError."""
        b = _coerce(other).coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [_ZERO] * max(len(rem) - len(b) + 1, 0)
        inv_lead = 1 / b[-1]
        for k in range(len(quot) - 1, -1, -1):
            coeff = rem[k + len(b) - 1] * inv_lead
            if coeff:
                quot[k] = coeff
                for i, bi in enumerate(b):
                    rem[k + i] -= coeff * bi
        # the top quotient coefficient is nonzero, so quot stays trimmed
        return RationalPolynomial._raw(quot), RationalPolynomial._raw(_trim(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if type(n) is not int:  # not isinstance: True is an int
            raise TypeError(f"exponent must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"exponent must be nonnegative, got {n}")
        result = RationalPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self) -> "RationalPolynomial":
        lead = self.coeffs[-1] if self.coeffs else 1
        return self if lead == 1 else RationalPolynomial._raw([v / lead for v in self.coeffs])

    def __call__(self, x) -> Fraction:
        x = _rational(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reversed_at(self, grade: int) -> "RationalPolynomial":
        """Coefficient reversal with respect to the given grade (`_check_grade`)."""
        _check_grade(grade, self.degree)
        return RationalPolynomial([_ZERO] * (grade + 1 - len(self.coeffs)) + [*reversed(self.coeffs)])

    # -- comparisons / misc --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((Fraction(other),) if other else ())
        return NotImplemented

    def __hash__(self):
        # a constant equals its value (the zero polynomial equals 0), so it hashes like it
        c = self.coeffs
        return hash(c if len(c) > 1 else c[0] if c else 0)

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


def _rational(value) -> Fraction:
    """An int or a Fraction as a Fraction; a bool, a float or anything else raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # not isinstance: True is an int
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _coerce(value) -> RationalPolynomial:
    if isinstance(value, RationalPolynomial):
        return value
    return RationalPolynomial.constant(value)


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd, by Euclid's algorithm; gcd(0, 0) is the zero polynomial."""
    while b.coeffs:  # no __bool__: a RationalPolynomial is always true
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def _integer_rows(matrix) -> list:
    """A rational matrix as sparse integer rows {column: nonzero int}, each scaled by its lcm.

    A row of plain ints is taken as it is: the exact ``type`` test is much
    cheaper than ``isinstance(v, Fraction)``, which goes through the
    numbers ABC machinery for every int.
    """
    rows = []
    for row in matrix:
        if all(type(v) is int for v in row):
            rows.append({j: v for j, v in enumerate(row) if v})
            continue
        scale = 1
        for v in row:
            if isinstance(v, Fraction):
                scale = scale * v.denominator // math.gcd(scale, v.denominator)
        rows.append(
            {j: int(v * scale) if isinstance(v, Fraction) else int(v) * scale for j, v in enumerate(row) if v}
        )
    return rows


def _extend_basis(basis, vec):
    """Reduce a sparse integer vector against an echelon basis and append what is left.

    Vectors and rows are dicts {column: nonzero int}; `basis` is a list of
    (pivot, row), each row zero at the pivots of the rows before it and
    `pivot` its least column. The vector is reduced only against the rows
    whose pivot it meets, to (b/g) vec - (f/g) row with b the row's and f
    the vector's entry there and g = gcd(b, f), over the nonzeros of the
    two. What is left is zero at every pivot; if it is not zero, it is
    divided by its content and appended with its least column as pivot.
    Since g > 0, that is the primitive row that the undivided multipliers
    b and f give. The rows stay linearly independent, since their pivots
    differ, and span the vectors given so far. Rows already in `basis` are
    not modified.
    """
    row = dict(vec)
    for piv, brow in basis:
        if piv in row:
            f, b = row[piv], brow[piv]
            g = math.gcd(b, f)
            if g != 1:
                b //= g
                f //= g
            if b != 1:
                for k in row:
                    row[k] *= b
            for k, s in brow.items():
                v = row.get(k, 0) - f * s
                if v:
                    row[k] = v
                else:
                    del row[k]
    if row:
        g = math.gcd(*row.values())
        if g != 1:
            row = {k: v // g for k, v in row.items()}
        basis.append((min(row), row))


def _row_basis(rows) -> list:
    """An echelon basis of the row space of sparse integer rows, by `_extend_basis`."""
    basis = []
    for row in rows:
        _extend_basis(basis, row)
    return basis


def rank_exact(matrix) -> int:
    """Exact rank of a matrix of integers or Fractions.

    The number of rows that `_extend_basis` keeps from the matrix's rows,
    scaled to sparse integer rows, so the result is exact for any input
    size and costs in proportion to the nonzero entries the reduction meets.
    """
    return len(_row_basis(_integer_rows(matrix)))


def nullspace_exact(matrix) -> list:
    """Integer basis of the right nullspace of an integer/Fraction matrix.

    Returns a list of integer vectors (tuples of Python ints) spanning
    ``{x : matrix @ x = 0}``, one per free column, in column order: the
    primitive vector with a positive entry in that column and zeros in the
    other free columns. Every echelon basis of the row space has the same
    pivot columns, so these vectors depend on the row space alone, not on
    the order of the rows. A matrix without rows does not say how wide its
    nullspace is and raises ShapeMismatch.

    The rows of the `_extend_basis` basis are solved in reverse insertion
    order, since each is zero at the pivots of the rows before it. The
    back-substitution is fraction-free: it scales the vector by the least
    factor that makes its next entry an integer, so it ends as the rational
    solution with a 1 in the free column times the lcm of that solution's
    denominators, which is primitive.
    """
    rows = _integer_rows(matrix)
    if not rows:
        raise ShapeMismatch("matrix without rows has no width")
    width = len(matrix[0])
    basis = _row_basis(rows)[::-1]
    pivots = {piv for piv, _ in basis}
    nullspace = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = {fc: 1}
        for pc, row in basis:
            acc = sum(v * vec[j] for j, v in row.items() if j in vec)
            if acc:
                p = row[pc]
                f = abs(p) // math.gcd(acc, p)
                if f != 1:
                    vec = {j: v * f for j, v in vec.items()}
                    acc *= f
                vec[pc] = -acc // p
        nullspace.append(tuple(vec.get(j, 0) for j in range(width)))
    return nullspace


# ---------------------------------------------------------------------------
# matrix polynomials
# ---------------------------------------------------------------------------


def _integer_matrices(mats):
    """Rational matrices as integer matrices over their least common denominator."""
    den = math.lcm(*(v.denominator for mat in mats for row in mat for v in row))
    return [[[v.numerator * (den // v.denominator) for v in row] for row in mat] for mat in mats], den


def _fit_grade(mats, grade, rows, cols):
    """Coefficient matrices of degrees 0 .. grade, checking the grade (`_check_grade`)."""
    _check_grade(grade, max((k for k, mat in enumerate(mats) if any(map(any, mat))), default=0))
    zero = [[0] * cols for _ in range(rows)]
    return mats[: grade + 1] + [zero] * (grade + 1 - len(mats))


class MatrixPolynomial:
    """A rows x cols matrix polynomial with a declared grade.

    It is stored as grade+1 integer coefficient matrices ``numerators``,
    lowest degree first, over one positive ``denominator``: coefficient k
    is ``numerators[k] / denominator``. The pair is kept in lowest terms
    (the denominator is the least one that makes every coefficient an
    integer, and 1 for the zero polynomial), so equal polynomials have equal
    fields and hashes. ``entries``, the grid of RationalPolynomial entries,
    is built from the integers on first access and cached.

    The grade is an upper bound for every entry degree; the actual degree may
    be smaller (the leading coefficient matrix may be zero), and structure at
    infinity depends on the declared grade, not the degree.
    """

    __slots__ = ("rows", "cols", "grade", "numerators", "denominator", "_entries")

    def __init__(self, entries, grade: int | None = None):
        grid = [[_coerce(e).coeffs for e in row] for row in entries]
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if any(len(row) != cols for row in grid):
            raise ShapeMismatch("ragged entry grid")
        length = max((len(c) for row in grid for c in row), default=0) or 1
        mats = [[[0] * cols for _ in range(rows)] for _ in range(length)]
        for i, row in enumerate(grid):
            for j, coeffs in enumerate(row):
                for k, v in enumerate(coeffs):
                    mats[k][i][j] = v
        if grade is None:
            grade = length - 1
        self._assign(rows, cols, grade, *_integer_matrices(_fit_grade(mats, grade, rows, cols)))
        self._validate()

    def _assign(self, rows, cols, grade, mats, denominator):
        # integer matrices over a positive denominator, reduced to lowest terms
        g = 1 if denominator == 1 else math.gcd(denominator, *(v for mat in mats for row in mat for v in row))
        if g != 1:
            mats = [[[v // g for v in row] for row in mat] for mat in mats]
        obj_set = object.__setattr__
        obj_set(self, "rows", rows)
        obj_set(self, "cols", cols)
        obj_set(self, "grade", grade)
        obj_set(self, "numerators", tuple(tuple(map(tuple, mat)) for mat in mats))
        obj_set(self, "denominator", denominator // g)
        obj_set(self, "_entries", None)

    def _validate(self):
        """Raise if the fields break the class invariant (none beyond the shape here)."""

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPolynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _make(cls, rows, cols, grade, mats, denominator=1):
        """Internal constructor from grade+1 integer matrices over a positive denominator.

        The caller guarantees the shape and, for the skew class, skew symmetry.
        """
        obj = object.__new__(cls)
        obj._assign(rows, cols, grade, mats, denominator)
        return obj

    @classmethod
    def _from_integers(cls, rows, cols, grade, mats, denominator):
        """Validated constructor from grade+1 integer matrices over a positive denominator."""
        obj = cls._make(rows, cols, grade, mats, denominator)
        obj._validate()
        return obj

    @classmethod
    def _from_rationals(cls, rows, cols, grade, mats):
        """Validated constructor from int/Fraction coefficient matrices, lowest degree first."""
        return cls._from_integers(rows, cols, grade, *_integer_matrices(_fit_grade(mats, grade, rows, cols)))

    @classmethod
    def zeros(cls, rows: int, cols: int, grade: int = 0):
        return cls._from_rationals(rows, cols, grade, [])

    @classmethod
    def from_coefficients(cls, coefficient_matrices, grade: int | None = None):
        """Build from a list of constant matrices, lowest degree first."""
        mats = [
            [[v if type(v) in (int, Fraction) else _rational(v) for v in row] for row in mat]
            for mat in coefficient_matrices
        ]
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        rows = len(mats[0])
        cols = len(mats[0][0]) if rows else 0
        for mat in mats:
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ShapeMismatch("coefficient matrices differ in shape")
        if grade is None:
            grade = len(mats) - 1
        return cls._from_rationals(rows, cols, grade, mats)

    # -- queries -------------------------------------------------------------

    @property
    def degree(self):
        for k in range(self.grade, -1, -1):
            if any(map(any, self.numerators[k])):
                return k
        return NEG_INF

    @property
    def entries(self) -> tuple:
        """The grid of RationalPolynomial entries, built on first access."""
        if self._entries is None:
            d, mats = self.denominator, self.numerators
            grid = tuple(
                tuple(
                    RationalPolynomial._raw(_trim([Fraction(mat[i][j], d) for mat in mats]))
                    for j in range(self.cols)
                )
                for i in range(self.rows)
            )
            object.__setattr__(self, "_entries", grid)
        return self._entries

    def coefficient_matrix(self, k: int) -> list:
        """The k-th coefficient as a list-of-lists of Fractions."""
        if not 0 <= k <= self.grade:
            return [[_ZERO] * self.cols for _ in range(self.rows)]
        d = self.denominator
        return [[Fraction(v, d) for v in row] for row in self.numerators[k]]

    def coefficient_matrices(self) -> list:
        """All grade+1 coefficient matrices, lowest degree first."""
        return [self.coefficient_matrix(k) for k in range(self.grade + 1)]

    def _numerators_to(self, grade: int) -> tuple:
        """The integer matrices of degrees 0 .. grade; those past self.grade are zero."""
        zero = ((0,) * self.cols,) * self.rows
        return self.numerators[: grade + 1] + (zero,) * (grade - self.grade)

    def _scaled_value(self, p: int, q: int):
        """The integer matrix q**grade * denominator * P(p/q), by Horner's rule.

        Coefficient k carries q**(grade-k); at q = 1 it is the stored
        integer coefficients evaluated at p.
        """
        value = self.numerators[-1]
        scale = 1
        for mat in reversed(self.numerators[:-1]):
            scale *= q
            value = [[v * p + c * scale for v, c in zip(vrow, crow)] for vrow, crow in zip(value, mat)]
        return value

    def evaluate(self, x) -> list:
        x = _rational(x)
        den = x.denominator**self.grade * self.denominator
        return [[Fraction(v, den) for v in row] for row in self._scaled_value(x.numerator, x.denominator)]

    def _skew_violation(self):
        """Why the polynomial is not skew-symmetric, or None if it is."""
        if self.rows != self.cols:
            return "skew matrix polynomial must be square"
        mats = self.numerators
        for i in range(self.rows):
            if any(mat[i][i] for mat in mats):
                return f"nonzero diagonal entry at ({i},{i})"
            for j in range(i + 1, self.cols):
                if any(mat[i][j] + mat[j][i] for mat in mats):
                    return f"entries ({i},{j}) and ({j},{i}) are not opposite"
        return None

    def is_skew_symmetric(self) -> bool:
        return self._skew_violation() is None

    # -- algebra ---------------------------------------------------------------

    def transpose(self):
        # the transpose of a skew-symmetric matrix (= its negative) stays skew
        mats = [[[mat[i][j] for i in range(self.rows)] for j in range(self.cols)] for mat in self.numerators]
        return type(self)._make(self.cols, self.rows, self.grade, mats, self.denominator)

    def __neg__(self):
        mats = [[[-v for v in row] for row in mat] for mat in self.numerators]
        return type(self)._make(self.rows, self.cols, self.grade, mats, self.denominator)

    def __add__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("size mismatch in matrix addition")
        grade = max(self.grade, other.grade)
        den = math.lcm(self.denominator, other.denominator)
        fa, fb = den // self.denominator, den // other.denominator
        mats = [
            [[fa * a + fb * b for a, b in zip(ra, rb)] for ra, rb in zip(ma, mb)]
            for ma, mb in zip(self._numerators_to(grade), other._numerators_to(grade))
        ]
        return MatrixPolynomial._make(self.rows, self.cols, grade, mats, den)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions disagree")
        grade = self.grade + other.grade
        mats = [[[0] * other.cols for _ in range(self.rows)] for _ in range(grade + 1)]
        columns = [list(zip(*mat)) for mat in other.numerators]
        for a, mat_a in enumerate(self.numerators):
            for b, cols_b in enumerate(columns):
                for row_a, out in zip(mat_a, mats[a + b]):
                    if any(row_a):
                        for j, col in enumerate(cols_b):
                            out[j] += sum(map(operator.mul, row_a, col))
        den = self.denominator * other.denominator
        return MatrixPolynomial._make(self.rows, other.cols, grade, mats, den)

    def scale(self, s):
        s = _rational(s)
        mats = [[[v * s.numerator for v in row] for row in mat] for mat in self.numerators]
        return type(self)._make(self.rows, self.cols, self.grade, mats, self.denominator * s.denominator)

    def with_grade(self, grade: int):
        """Same entries, re-declared grade (`_check_grade`: at least max(degree, 0))."""
        _check_grade(grade, self.degree)
        return type(self)._make(self.rows, self.cols, grade, self._numerators_to(grade), self.denominator)

    # -- comparisons ----------------------------------------------------------

    def _key(self):
        return (self.rows, self.cols, self.grade, self.denominator, self.numerators)

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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

    __slots__ = ()

    def _validate(self):
        problem = self._skew_violation()
        if problem is not None:
            raise NotSkewSymmetric(problem)

    @classmethod
    def from_upper(cls, size: int, upper: dict, grade: int | None = None):
        """Build from a dict {(i, j): polynomial} with i < j."""
        zero = RationalPolynomial.zero()
        grid = [[zero] * size for _ in range(size)]
        for (i, j), p in upper.items():
            if not i < j:
                raise ValueError("from_upper expects strictly upper positions")
            p = _coerce(p)
            grid[i][j] = p
            grid[j][i] = -p
        return cls(grid, grade)


def as_skew(P: MatrixPolynomial) -> SkewMatrixPolynomial:
    """View a matrix polynomial as skew-symmetric, validating the invariant."""
    if isinstance(P, SkewMatrixPolynomial):
        return P
    skew = SkewMatrixPolynomial._make(P.rows, P.cols, P.grade, P.numerators, P.denominator)
    skew._validate()
    return skew


def rev(P: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """Reverse the coefficient order of P with respect to the given grade.

    The result substitutes 1/x and multiplies by x**grade, so structure at
    zero of the result mirrors structure at infinity of P (`_check_grade`).
    """
    _check_grade(grade, P.degree)
    return type(P)._make(P.rows, P.cols, grade, P._numerators_to(grade)[::-1], P.denominator)


class FrobeniusDistance(NamedTuple):
    """Distance between matrix polynomials: floating value plus its exact square."""

    value: float
    squared: Fraction


def frobenius_distance(P: MatrixPolynomial, Q: MatrixPolynomial) -> FrobeniusDistance:
    """Coefficient-wise Frobenius distance between same-size, same-grade inputs."""
    if (P.rows, P.cols, P.grade) != (Q.rows, Q.cols, Q.grade):
        raise ShapeMismatch("frobenius_distance needs identical size and grade")
    den = math.lcm(P.denominator, Q.denominator)
    fp, fq = den // P.denominator, den // Q.denominator
    total = Fraction(
        sum(
            (fp * a - fq * b) ** 2
            for ma, mb in zip(P.numerators, Q.numerators)
            for ra, rb in zip(ma, mb)
            for a, b in zip(ra, rb)
        ),
        den * den,
    )
    return FrobeniusDistance(math.sqrt(total), total)


@functools.lru_cache(maxsize=512)
def normal_rank(P: MatrixPolynomial) -> int:
    """Rank of P over the field of rational functions, computed exactly.

    Read from one staircase pass over P's convolution system, with no
    evaluation point (`eigenstructure._structure_at_zero`), so with no
    probabilistic caveat. Values are immutable, so results are cached.
    """
    # imported here because eigenstructure imports this module
    from .eigenstructure import _structure_at_zero

    return _structure_at_zero(P)[0]


def _points():
    """The integer evaluation points 0, 1, -1, 2, -2, ..., without end."""
    yield 0
    for half in itertools.count(1):
        yield half
        yield -half


def _point_ranks(P: MatrixPolynomial):
    """(x, exact rank of P at x) for the points x of `_points`, in that order, without end.

    Each value is the stored integer coefficients (P times its denominator,
    which keeps the rank) evaluated at the point, `P._scaled_value(x, 1)`.
    """
    for x in _points():
        yield x, rank_exact(P._scaled_value(x, 1))


class SmithForm(NamedTuple):
    """Rank and monic invariant polynomials, chained by divisibility."""

    rank: int
    invariant_polynomials: tuple


def smith_form(P: MatrixPolynomial) -> SmithForm:
    """Smith normal form of a matrix polynomial under unimodular equivalence.

    P is embedded in the skew-symmetric ``S = [[0, P], [-P^T, 0]]`` of size
    rows + cols, and `skew_smith` reduces S. Swapping the two block rows of
    S and negating the first makes S unimodularly equivalent to
    ``diag(P^T, P)``. P^T has P's invariant polynomials g_1 | ... | g_r, so
    the Smith form of S lists each of them twice, g_1, g_1, ..., g_r, g_r,
    which is already a divisibility chain. The halved list that
    `skew_smith` returns is therefore exactly g_1, ..., g_r, monic, and its
    rank is P's rank r. S is built from P's stored integer coefficients
    over P's denominator, so the reduction runs fraction-free.
    """
    rows, n = P.rows, P.rows + P.cols
    mats = []
    for mat in P.numerators:
        s = [[0] * n for _ in range(n)]
        for i, row in enumerate(mat):
            s[i][rows:] = row
            for j, v in enumerate(row, rows):
                s[j][i] = -v
        mats.append(s)
    return skew_smith(SkewMatrixPolynomial._make(n, n, P.grade, mats, P.denominator))


def _min_degree_pivot(work):
    """A nonzero entry of least degree in the upper triangle of a skew work matrix.

    Ties go to the smallest coefficients: among entries of that degree, the
    one whose largest coefficient has the fewest bits wins, then the first
    in row-major order. Small pivots keep the pseudo-division multipliers,
    and with them coefficient growth, small. That pays: with ties broken
    by position alone, `skew_smith` took 0.27-0.28 s over the 168
    structured_cli bench inputs, against 0.22 s (at the benchmark's
    reference speed, median of 5 passes). The diagonal is zero and
    (j, i) has the key of (i, j), so this is also the first such entry of
    the whole matrix.
    """
    best = None
    best_key = None
    for i, row in enumerate(work):
        for j, c in enumerate(row[i + 1 :], i + 1):
            if c and (best_key is None or len(c) <= best_key[0]):
                key = (len(c), max(map(abs, c)).bit_length())
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
    return best


def _pseudo_divmod(a, b):
    """Integer pseudo-division: (s, q, r) with s*a == q*b + r, deg r < deg b.

    a and b are trimmed integer coefficient lists, b nonzero. The positive
    integer s is as small as the leading coefficients allow: a step
    multiplies everything by |lc(b)|/gcd(c, lc(b)) only when lc(b) does not
    divide the coefficient c being cancelled, so s == 1 when lc(b) is +-1.
    A constant b = [c] cancels every coefficient of a, and the product of
    those steps is the least s that c divides s*a by: s = |c|/gcd(c, a),
    q = s*a/c and r = 0, computed in one pass.
    """
    rem = list(a)
    nb = len(b)
    if len(rem) < nb:
        return 1, [], rem
    lead = b[-1]
    if nb == 1:
        s = abs(lead) // math.gcd(lead, *rem)
        return s, [v * s // lead for v in rem], []
    s = 1
    quot = [0] * (len(rem) - nb + 1)
    for k in range(len(rem) - nb, -1, -1):
        c = rem[k + nb - 1]
        if c % lead:
            f = abs(lead) // math.gcd(c, lead)
            s *= f
            rem = [v * f for v in rem]
            quot = [v * f for v in quot]
            c *= f
        coeff = c // lead
        quot[k] = coeff
        for i, bi in enumerate(b):
            rem[k + i] -= coeff * bi
    return s, _trim(quot), _trim(rem)


def _divisibility_chain(diagonal):
    """Make a diagonal of monic RationalPolynomials a divisibility chain, in place.

    Each d_i that is not 1 and does not divide a later d_j turns the pair
    into their monic gcd and lcm. Then d_i divides every later entry, and
    keeps dividing them: it divides the gcd and the lcm of its multiples.
    A d_i equal to 1 divides everything, so it skips its divisions. That
    pays: without the test `skew_smith` took 0.25 s over the 168
    structured_cli bench inputs, against 0.22 s (measured as for
    `_min_degree_pivot`).
    """
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            if a != 1 and not (b % a).is_zero():
                g = poly_gcd(a, b)
                diagonal[i], diagonal[j] = g, a // g * b


def skew_smith(P: MatrixPolynomial) -> SmithForm:
    """Paired invariant polynomials of a skew-symmetric matrix polynomial.

    Over a principal ideal domain a skew-symmetric matrix is congruent to
    its skew normal form (Newman, *Integral Matrices*, 1972, Thm IV.1):
    ``U^T P U = diag(d_1 J, ..., d_r J, 0)`` with U unimodular and
    ``J = [[0, 1], [-1, 0]]``. Congruence is an equivalence, so P has the
    Smith form of that block diagonal, in which each d_i appears twice.
    This returns the r = rank/2 monic invariant polynomials g_1 | ... | g_r
    once each; P's full Smith form lists every one of them twice.

    The reduction is the constructive proof, run fraction-free on P's
    stored integer coefficients. The work matrix stays skew-symmetric, so
    only its strict upper triangle is stored: row i holds the entries
    (i, j), j > i, and nothing below the diagonal is read or written. Each
    step takes a least-degree entry ``p`` as a 2x2 pivot (ties as in
    `_min_degree_pivot`) and moves it to (0, 1) by a symmetric permutation
    (`_swap_index`). `_clear_pair` then clears entries (0, k), and once
    those are zero entries (1, k), for every k >= 2. Each phase is one
    congruence ``T^T W T`` with ``T e_k = s_k e_k - q_k e_a``, ``a = 1``
    for row 0 and ``a = 0`` for row 1, where ``s_k*entry = q_k*pivot +
    remainder`` is a pseudo-division by the pivot entry of that row.
    Scaling an index by a nonzero constant and adding a polynomial multiple
    of one index to another are congruences by matrices that are unimodular
    over Q[x], so the invariant polynomials never change. A nonzero
    remainder has lower degree than ``p``, so the next pivot's degree
    strictly falls; a sweep without one leaves ``diag(p J, W)``, and ``p``
    joins the diagonal while indices 0 and 1 drop out. Degrees cannot fall
    forever and each clean sweep removes two indices, so the reduction
    terminates. Each d_i is then divided by its leading coefficient, where
    rationals first appear, and `_divisibility_chain` makes d_1, ..., d_r a
    chain: diag(a, b) and diag(gcd, lcm) are equivalent, and a chain of
    doubled entries is the doubled chain.
    """
    skew = as_skew(P)
    mats = skew.numerators
    n = skew.rows
    work = [[_trim([m[i][j] for m in mats]) if j > i else [] for j in range(n)] for i in range(n)]
    diagonal = []
    # work is the trailing block; its pivot pair is indices 0 and 1. The
    # pivot (i, j) has i < j, so swapping i to 0 leaves j in place
    while (piv := _min_degree_pivot(work)) is not None:
        while True:
            piv_len = len(work[piv[0]][piv[1]])
            for target, index in zip((0, 1), piv):
                _swap_index(work, target, index)
            if not _clear_pair(work):
                break
            # a dirty sweep leaves a remainder of lower degree in row 0 or
            # row 1, so the pivot degree strictly falls; anything else is a
            # reduction bug that would otherwise loop forever
            piv = _min_degree_pivot(work)
            if len(work[piv[0]][piv[1]]) >= piv_len:
                raise InternalInconsistency(
                    f"Smith pivot degree did not fall at step {len(diagonal)}"
                )
        diagonal.append(work[0][1])
        work = [row[2:] for row in work[2:]]
    diagonal = [RationalPolynomial._raw([Fraction(c, d[-1]) for c in d]) for d in diagonal]
    _divisibility_chain(diagonal)
    return SmithForm(rank=len(diagonal), invariant_polynomials=tuple(diagonal))


def _swap_index(work, i, j):
    """Symmetric permutation of indices i <= j on the upper triangle of a skew work matrix.

    Entry (x, y), x < y, takes the old entry at the swapped positions.
    Those come in the other order, and so are negated, exactly for (i, j)
    and for the entries between the two indices, (i, m) and (m, j) with
    i < m < j.
    """
    if i == j:
        return
    row_i, row_j = work[i], work[j]
    for row in work[:i]:
        row[i], row[j] = row[j], row[i]
    for m in range(i + 1, j):
        row_m = work[m]
        row_i[m], row_m[j] = [-v for v in row_m[j]], [-v for v in row_i[m]]
    row_i[j] = [-v for v in row_i[j]]
    row_i[j + 1 :], row_j[j + 1 :] = row_j[j + 1 :], row_i[j + 1 :]


def _clear_pair(work) -> bool:
    """Clear rows 0 and 1 of a skew work matrix past the pivot (0, 1), one congruence per row.

    Row b's phase pseudo-divides each nonzero (b, k), k >= 2, by the pivot
    entry (b, a), a = 1 - b, and applies ``T^T W T`` with
    ``T e_k = s_k e_k - q_k e_a`` for all those k at once (`_congruence`).
    The steps of a phase are independent: each combines index k with index
    a only, and none changes a, (b, k') or (a, k'). Row 1 goes only once
    row 0 is zero past the pivot. Index 0 is then zero but for the pivot,
    so the step only scales index k by s_k, apart from turning (1, k) into
    the remainder; when that is zero, the step followed by dividing index
    k by s_k just clears (1, k), which is all the code does. Returns
    whether a nonzero remainder is left.

    Over the 168 structured_cli bench inputs `skew_smith` took 0.22 s in
    all (measured as for `_min_degree_pivot`); 0.30-0.31 s with the steps
    applied one index at a time, each rebuilding row k and writing column
    k as its negation (the reference sweep in `tests/oracles.py`, which
    leaves the same upper triangle); 0.23 s with the full step on row 1;
    and 0.27-0.28 s with each moved index also divided by its integer
    content.
    """
    pivot = work[0][1]
    for b, a, by in ((0, 1, pivot), (1, 0, [-v for v in pivot])):
        row_b = work[b]
        moves = {}
        dirty = False
        for k in range(2, len(work)):
            if not row_b[k]:
                continue
            s, q, r = _pseudo_divmod(row_b[k], by)
            row_b[k] = r
            if r:
                dirty = True
            if q and (r or a):
                moves[k] = s, q
        _congruence(work, a, moves)
        if dirty:
            return True
    return False


def _congruence(work, a, moves):
    """``W <- T^T W T`` on the upper triangle, ``T e_k = s_k e_k - q_k e_a`` for each k in moves.

    Every other index k >= 2 has s_k = 1 and q_k = 0. With
    ``B_k = s_k W[a][k]``, the new entries are ``W[a][k] = B_k`` and, for
    2 <= k < j, ``W[k][j] = s_k s_j W[k][j] + q_j B_k - q_k B_j``; an
    entry with neither index in moves keeps its value. Row 0 and row 1's
    (b, k) are the caller's, and (a, a) is zero. The two products are
    written out: one loop over both cost skew_smith 3% more over the 168
    structured_cli bench inputs. With no moves no entry changes, so it
    returns at once.
    """
    if not moves:
        return
    row_a = work[a]
    n = len(work)
    steps = [(1, ())] * n  # (s_k, q_k) of each index; (1, ()) leaves it in place
    for k, (s, q) in moves.items():
        steps[k] = s, q
        if s != 1:
            row_a[k] = [s * v for v in row_a[k]]
    for k in range(2, n):
        row_k, bk = work[k], row_a[k]
        sk, qk = steps[k]
        for j in range(k + 1, n) if qk else [j for j in moves if j > k]:
            sj, qj = steps[j]
            s, out, bj = sk * sj, row_k[j], row_a[j]
            out = [s * v for v in out] if s != 1 else list(out)
            if qj and bk:
                need = len(qj) + len(bk) - 1
                if len(out) < need:
                    out += [0] * (need - len(out))
                for i, c in enumerate(qj):
                    for t, v in enumerate(bk, i):
                        out[t] += c * v
            if qk and bj:
                need = len(qk) + len(bj) - 1
                if len(out) < need:
                    out += [0] * (need - len(out))
                for i, c in enumerate(qk):
                    for t, v in enumerate(bj, i):
                        out[t] -= c * v
            row_k[j] = _trim(out)
