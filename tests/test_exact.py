"""Tests for the exact arithmetic layer: polynomials, ranks, Smith forms."""

import importlib
import math
import random
import re
import signal
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstruct import exact, sampling
from skewstruct.blocks import BlockList, SkewBlock, assemble_skew, blocklist_eigenstructure
from skewstruct.codimension import tangent_map_matrix
from skewstruct.eigenstructure import analyze
from skewstruct.errors import (
    GradeTooSmall,
    InternalInconsistency,
    NotSkewSymmetric,
    ShapeMismatch,
    SkewstructError,
)
from skewstruct.exact import (
    NEG_INF,
    MatrixPolynomial,
    RationalPolynomial,
    SkewMatrixPolynomial,
    SmithForm,
    _extend_basis,
    _pseudo_divmod,
    as_skew,
    frobenius_distance,
    normal_rank,
    nullspace_exact,
    poly_gcd,
    rank_exact,
    rev,
    skew_smith,
    smith_form,
)
from skewstruct.floating import analyze_float
from skewstruct.generic import generic_pencil_structure

from oracles import (
    extend_basis_dense,
    grid_add,
    grid_evaluate,
    grid_frobenius_squared,
    grid_matmul,
    grid_neg,
    grid_rev,
    grid_scale,
    grid_transpose,
    minor_gcds,
    normal_rank_by_minors,
    nullspace_by_fractions,
    rank_by_fractions,
    rank_by_sparse_fractions,
    sequential_clear_pair,
    smith_by_equivalence,
    smith_by_minors,
)

P = RationalPolynomial
x = P.variable()


def poly(*coeffs):
    return P(coeffs)


# ---------------------------------------------------------------------------
# scalar polynomials
# ---------------------------------------------------------------------------


class TestRationalPolynomial:
    def test_trimming_and_zero(self):
        assert poly(0, 0, 0).is_zero()
        assert poly(1, 2, 0).coeffs == (1, 2)
        assert P.zero().degree == NEG_INF
        assert P.zero().degree < 0

    def test_arithmetic(self):
        a = x**2 - 1
        b = x - 1
        assert a == (x + 1) * b
        assert divmod(a, b) == (x + 1, P.zero())
        q, r = divmod(x**3 + 2, x**2)
        assert q == x and r == poly(2)

    def test_power_needs_a_nonnegative_int(self):
        # on the constant one, so that a regression loops instead of growing
        assert P.one() ** 0 == P.one()
        for n in (-1, -2):
            with pytest.raises(ValueError, match="nonnegative"):
                P.one() ** n
        # a type that is not exactly int, as for a grade (True is an int)
        for n in (0.5, 1.0, Fraction(1), True):
            with pytest.raises(TypeError, match="must be an int"):
                P.one() ** n

    def test_constants_hash_like_their_values(self):
        for value in (0, 5, -3, Fraction(7, 2)):
            assert P.constant(value) == value
            assert hash(P.constant(value)) == hash(value)
            assert len({P.constant(value), value}) == 1
        assert hash(P.zero()) == hash(0) and {P.zero(): 1}[Fraction(0)] == 1

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/2", None])
    def test_only_ints_and_fractions_are_coefficients(self, bad):
        # a float would be read as its binary expansion and a bool as 0 or 1
        for build in (
            lambda: P([1, bad]),
            lambda: P.constant(bad),
            lambda: x + bad,
            lambda: MatrixPolynomial([[bad]]),
            lambda: MatrixPolynomial.from_coefficients([[[bad]]]),
        ):
            with pytest.raises(TypeError):
                build()

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/2", None])
    def test_only_ints_and_fractions_are_values(self, bad):
        # evaluation points and scale factors are exact too: 0.1 would be
        # read as its binary expansion, "1/2" parsed and True taken as 1
        m = MatrixPolynomial([[x + 1, x], [P.one(), 2 * x]])
        for use in (lambda: (x + 1)(bad), lambda: m.evaluate(bad), lambda: m.scale(bad)):
            with pytest.raises(TypeError):
                use()

    def test_evaluate(self):
        p = 3 * x**2 + Fraction(1, 2)
        assert p(2) == Fraction(25, 2)
        assert p(Fraction(1, 3)) == Fraction(5, 6)

    def test_gcd_examples(self):
        assert poly_gcd(x**2 - 1, x - 1) == x - 1
        assert poly_gcd(x, x + 1) == P.one()
        assert poly_gcd(P.zero(), 3 * x) == x
        assert poly_gcd(P.zero(), P.zero()).is_zero()

    def test_reversal(self):
        p = x**2 * 2 + 1  # 2x^2 + 1
        assert p.reversed_at(2) == x**2 + 2
        assert p.reversed_at(3) == x**3 + 2 * x
        with pytest.raises(GradeTooSmall):
            p.reversed_at(1)

    def test_str(self):
        assert str(x**2 - 1) == "x^2 - 1"
        assert str(P.zero()) == "0"
        assert str(-2 * x) == "-2*x"

    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.lists(st.integers(-9, 9), max_size=5),
    )
    def test_gcd_divides_both(self, ca, cb):
        a, b = P(ca), P(cb)
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert g.coeffs[-1] == 1  # monic
            assert (a % g).is_zero()
            assert (b % g).is_zero()

    @given(
        st.lists(st.fractions(max_denominator=4, min_value=-9, max_value=9), max_size=5),
        st.lists(st.fractions(max_denominator=4, min_value=-9, max_value=9), max_size=5),
    )
    def test_arithmetic_laws(self, ca, cb):
        # every result is trimmed, and division leaves a remainder of lower degree
        a, b = P(ca), P(cb)
        results = [a + b, a - b, -a, a * b, b * a]
        assert (a + b) - b == a and a * b == b * a
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
        else:
            q, r = divmod(a, b)
            assert q * b + r == a and r.degree < b.degree
            results += [q, r, b.monic()]
        assert all(not c.coeffs or c.coeffs[-1] for c in results)
        assert all(type(v) is Fraction for c in results for v in c.coeffs)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_reversal_involution(self, coeffs):
        p = P(coeffs)
        d = max(len(coeffs), 3)
        assert p.reversed_at(d).reversed_at(d) == p


# ---------------------------------------------------------------------------
# exact ranks
# ---------------------------------------------------------------------------


class TestRankExact:
    def test_examples(self):
        assert rank_exact([[1, 2], [2, 4]]) == 1
        assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        assert rank_exact([[0] * 5, [0] * 5]) == 0

    def test_fractions(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
        assert rank_exact(m) == 2
        # proportional rows with rational scaling
        assert rank_exact([[Fraction(1, 2), Fraction(1, 4)], [2, 1]]) == 1

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 10**6),
    )
    @settings(max_examples=50)
    def test_transpose_invariance(self, rows, cols, seed):
        rng = random.Random(seed)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        mt = [[m[i][j] for i in range(rows)] for j in range(cols)]
        assert rank_exact(m) == rank_exact(mt)
        assert rank_exact(m) <= min(rows, cols)

    def test_input_types_agree(self):
        # plain-int rows are copied into the elimination as they are, other
        # rows are scaled to integers; every form of one matrix must give
        # the same rank and nullspace, and both must match Fractions
        rng = random.Random(6151)
        zero_rank = 0
        for trial in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            inner = 0 if trial % 10 == 0 else rng.randint(1, min(rows, cols))
            a = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
            ints = [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]
            forms = [
                ints,
                [[Fraction(v) for v in row] for row in ints],
                [[Fraction(v) if (i + j) % 2 else v for j, v in enumerate(row)] for i, row in enumerate(ints)],
                [[Fraction(v, 1 + i % 3) for v in row] for i, row in enumerate(ints)],
                [tuple(row) for row in ints],
                np.array(ints, dtype=np.int64),
            ]
            rank = rank_by_fractions(ints)
            basis = nullspace_by_fractions(ints)
            assert rank_by_sparse_fractions(forms[3]) == rank, trial
            for form in forms:
                assert rank_exact(form) == rank, (trial, form)
                assert nullspace_exact(form) == basis, (trial, form)
            zero_rank += rank == 0
        assert zero_rank >= 30
        assert rank_exact([[True, False], [False, True]]) == 2

    def test_tangent_map_entries(self):
        # the tangent map mixes int zeros with Fraction entries in one row;
        # those of generic pencils, canonical and after a random congruence,
        # are wide and sparse: n(n-1) rows over n^2 columns, with at most
        # 2n nonzeros in a row
        pencil = SkewMatrixPolynomial.from_upper(
            3,
            {(0, 1): P((Fraction(1, 2), 1)), (0, 2): P((2, -1)), (1, 2): P((0, Fraction(3, 4)))},
            grade=1,
        )
        m = tangent_map_matrix(pencil)
        assert any(type(v) is int for row in m for v in row)
        assert any(type(v) is Fraction for row in m for v in row)
        pencils = [pencil]
        rng = random.Random(4133)
        for n in range(3, 8):
            for w in range(1, (n - 1) // 2 + 1):
                for r in range(w + 1):
                    generic = assemble_skew(generic_pencil_structure(n, w, r))
                    q = MatrixPolynomial([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
                    pencils += [generic, as_skew(q.transpose() @ generic @ q)]
        for p in pencils:
            m = tangent_map_matrix(p)
            assert rank_exact(m) == rank_by_fractions(m), p
            assert nullspace_exact(m) == nullspace_by_fractions(m), p

    def test_row_order_does_not_change_the_answers(self):
        # the basis rows pivot in the order the rows come, but the rank and
        # the canonical nullspace vectors depend on the row space alone
        rng = random.Random(4139)
        out_of_order = 0
        for trial in range(200):
            rows, cols = rng.randint(2, 8), rng.randint(1, 8)
            inner = rng.randint(0, min(rows, cols))
            scale = 2**64 if trial % 3 == 2 else 1
            a = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.choice((0, 0, 1, -3)) * rng.randint(1, scale) for _ in range(cols)] for _ in range(inner)]
            m = [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]
            if trial % 2:
                m = [[Fraction(v, 1 + i) for v in row] for i, row in enumerate(m)]
            rank, basis = rank_by_fractions(m), nullspace_by_fractions(m)
            for _ in range(4):
                shuffled = rng.sample(m, rows)
                assert rank_exact(shuffled) == rank, trial
                assert nullspace_exact(shuffled) == basis, trial
                pivots = [piv for piv, _ in exact._row_basis(exact._integer_rows(shuffled))]
                out_of_order += pivots != sorted(pivots)
        assert out_of_order > 50

    def test_nullspace_without_rows(self):
        # the whole space would be the answer, but no row says how wide it is
        with pytest.raises(ShapeMismatch, match="without rows"):
            nullspace_exact([])

    def test_regression_missing_pivot_scaling(self):
        # rows with a zero in the pivot column must still be scaled during
        # fraction-free elimination; this 9x6 convolution-style matrix once
        # came out with rank 6 instead of 5
        m = [
            [0, 3, -2, 0, 0, 0],
            [-3, 0, -1, 0, 0, 0],
            [2, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 3, -2],
            [-1, 0, -4, -3, 0, -1],
            [-1, 4, 0, 2, 1, 0],
            [0, 0, 0, 0, 1, 1],
            [0, 0, 0, -1, 0, -4],
            [0, 0, 0, -1, 4, 0],
        ]
        assert rank_exact(m) == 5
        kernel = [-11, 22, 33, -44, -11, 11]
        assert all(
            sum(row[j] * kernel[j] for j in range(6)) == 0 for row in m
        )

    def test_nullspace_matches_fraction_back_substitution(self):
        # the integer back-substitution returns the same primitive vectors
        # as solving in Fractions and clearing denominators
        rng = random.Random(4099)
        seen = {"one_row": 0, "full_rank": 0, "deficient": 0}
        for trial in range(600):
            rows = 1 if trial % 5 == 0 else rng.randint(2, 6)
            cols = rng.randint(1, 7)
            inner = rng.randint(1, min(rows, cols))
            a = [[rational(rng) for _ in range(inner)] for _ in range(rows)]
            b = [[rational(rng) for _ in range(cols)] for _ in range(inner)]
            m = [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]
            basis = nullspace_exact(m)
            assert basis == nullspace_by_fractions(m)
            rank = rank_exact(m)
            assert len(basis) == cols - rank
            for vec in basis:
                assert all(sum(r[j] * vec[j] for j in range(cols)) == 0 for r in m)
            seen["one_row"] += rows == 1
            seen["full_rank"] += rank == min(rows, cols)
            seen["deficient"] += rank < min(rows, cols)
        assert min(seen.values()) > 50, seen


class TestExtendBasis:
    """Rows (column of A | image under M), one per unknown, give rank A and M(ker A)."""

    def test_rank_and_image_of_the_kernel(self):
        rng = random.Random(4111)
        out_of_order = 0
        for trial in range(150):
            a_rows, m_rows, unknowns = rng.randint(1, 5), rng.randint(0, 5), rng.randint(1, 7)
            # sparse columns, so that a later row can pivot left of an earlier one
            a, m = (
                [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(unknowns)] for _ in range(rows)]
                for rows in (a_rows, m_rows)
            )
            basis = []
            for j in rng.sample(range(unknowns), unknowns):
                _extend_basis(basis, {i: row[j] for i, row in enumerate(a + m) if row[j]})
            pivots = [piv for piv, _ in basis]
            out_of_order += pivots != sorted(pivots)
            for k, (piv, row) in enumerate(basis):
                # no stored zeros, none left of the pivot, none at the earlier pivots
                assert all(row.values()) and min(row) == piv
                assert all(p not in row for p in pivots[:k]), trial
            dense = [[row.get(i, 0) for i in range(a_rows + m_rows)] for _, row in basis]
            in_a = [row for piv, row in zip(pivots, dense) if piv < a_rows]
            image = [row[a_rows:] for piv, row in zip(pivots, dense) if piv >= a_rows]
            assert len(in_a) == rank_exact(a), trial
            kernel_image = [
                [sum(v * z for v, z in zip(row, vec)) for row in m] for vec in nullspace_exact(a)
            ]
            spans = [rank_exact(vectors) for vectors in (image, kernel_image, image + kernel_image)]
            assert spans == [len(image)] * 3, trial
        assert out_of_order > 30

    def test_rows_equal_the_dense_oracle(self):
        # gcd-reduced multipliers give positive multiples of the dense rows,
        # so after the content division the rows, not only their span, agree
        rng = random.Random(4112)
        reduced_to_zero = 0
        for trial in range(300):
            rows, unknowns = rng.randint(1, 8), rng.randint(1, 9)
            scale = 2**64 if trial % 2 else 1
            a = [
                [rng.choice((0, 0, 0, 1, -1, 2, -3)) * rng.randint(1, scale) for _ in range(unknowns)]
                for _ in range(rows)
            ]
            sparse, dense = [], []
            for j in rng.sample(range(unknowns), unknowns):
                column = [row[j] for row in a]
                _extend_basis(sparse, {i: v for i, v in enumerate(column) if v})
                extend_basis_dense(dense, column)
            assert [piv for piv, _ in sparse] == [piv for piv, _ in dense], trial
            assert [row for _, row in sparse] == [
                {i: v for i, v in enumerate(row) if v} for _, row in dense
            ], trial
            reduced_to_zero += len(dense) < unknowns
        assert reduced_to_zero > 100


# ---------------------------------------------------------------------------
# matrix polynomials
# ---------------------------------------------------------------------------


def mat(entries, grade=None):
    return MatrixPolynomial(entries, grade)


def rational(rng):
    """A small random rational, zero about a quarter of the time."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 5)))


def rational_poly(rng, deg):
    return P([rational(rng) for _ in range(deg + 1)])


def skew2(p, grade=None):
    """2x2 skew matrix [[0, p], [-p, 0]]."""
    return SkewMatrixPolynomial([[P.zero(), p], [-p, P.zero()]], grade)


# every public way to declare or use a grade
GRADE_ENTRY_POINTS = {
    "zeros": lambda p, g: MatrixPolynomial.zeros(2, 2, g),
    "from_coefficients": lambda p, g: MatrixPolynomial.from_coefficients(skew2(p).coefficient_matrices(), g),
    "entry_grid": lambda p, g: mat([[P.zero(), p], [-p, P.zero()]], g),
    "from_upper": lambda p, g: SkewMatrixPolynomial.from_upper(2, {(0, 1): p}, g),
    "with_grade": lambda p, g: skew2(p).with_grade(g),
    "rev": lambda p, g: rev(skew2(p), g),
    "reversed_at": lambda p, g: p.reversed_at(g),
    "analyze": lambda p, g: analyze(skew2(p), g),
    "analyze_float": lambda p, g: analyze_float(skew2(p), g),
}

# (polynomial, grade, least grade allowed): negative grades on the zero
# polynomial, a constant and x^2, and a grade below x^2's degree;
# `zeros` builds only the zero polynomial
GRADE_CASES = {
    "zero": (P.zero(), -1, 0),
    "constant": (P.one(), -1, 0),
    "negative": (x**2, -1, 2),
    "below-degree": (x**2, 1, 2),
}


class TestMatrixPolynomial:
    def test_grade_validation(self):
        with pytest.raises(GradeTooSmall):
            mat([[x**2]], grade=1)
        m = mat([[x]], grade=3)
        assert m.grade == 3 and m.degree == 1

    def test_skew_validation(self):
        with pytest.raises(NotSkewSymmetric):
            SkewMatrixPolynomial([[P.zero(), x], [x, P.zero()]])
        with pytest.raises(NotSkewSymmetric):
            SkewMatrixPolynomial([[P.one()]])
        s = skew2(x)
        assert s.is_skew_symmetric()

    def test_coefficient_matrices_roundtrip(self):
        m = MatrixPolynomial.from_coefficients(
            [[[0, 1], [-1, 0]], [[0, 2], [-2, 0]]], grade=2
        )
        assert m.grade == 2
        assert m.coefficient_matrix(1) == [[0, 2], [-2, 0]]
        assert m.coefficient_matrix(2) == [[0, 0], [0, 0]]
        again = MatrixPolynomial.from_coefficients(m.coefficient_matrices(), grade=2)
        assert again == m

    def test_matmul_and_transpose(self):
        a = mat([[x, P.one()], [P.zero(), x]])
        b = mat([[P.one(), P.zero()], [x, P.one()]])
        prod = a @ b
        assert prod.entries[0][0] == 2 * x
        assert prod.entries[0][1] == P.one()
        assert a.transpose().entries[0][1] == P.zero()

    def test_rev_examples(self):
        const = SkewMatrixPolynomial([[P.zero(), P.one()], [-P.one(), P.zero()]], grade=1)
        r = rev(const, 1)
        assert r.entries[0][1] == x
        two = skew2(x**2 * 1 + 0)
        back = rev(rev(two, 2), 2)
        assert back == two.with_grade(2)
        assert isinstance(r, SkewMatrixPolynomial)

    def test_rev_grade_too_small(self):
        with pytest.raises(GradeTooSmall):
            rev(skew2(x**2), 1)

    @pytest.mark.parametrize(
        "entry, case",
        [(e, c) for e in GRADE_ENTRY_POINTS for c in GRADE_CASES if e != "zeros" or c == "zero"],
    )
    def test_one_grade_rule(self, entry, case):
        # every entry point refuses a grade below max(degree, 0) with the
        # same error and message, the zero polynomial's included
        p, grade, least = GRADE_CASES[case]
        with pytest.raises(GradeTooSmall) as info:
            GRADE_ENTRY_POINTS[entry](p, grade)
        assert isinstance(info.value, SkewstructError) and isinstance(info.value, ValueError)
        assert str(info.value) == f"grade {grade} is below {least}, the least grade allowed"
        assert "inf" not in str(info.value)

    @pytest.mark.parametrize("entry", ["zeros", "with_grade", "rev", "reversed_at", "analyze", "analyze_float"])
    @pytest.mark.parametrize("grade", [True, 1.5, "2"], ids=["bool", "float", "str"])
    def test_grade_must_be_an_int(self, entry, grade):
        # True and 1.5 would pass the comparison with the degree 1 of x, so
        # the type is checked first, as `_rational` checks a scalar's; True
        # equals x's own grade 1, which analyze does not take for an int
        with pytest.raises(TypeError, match=re.escape(f"grade must be an int, got {grade!r}")):
            GRADE_ENTRY_POINTS[entry](x, grade)

    def test_frobenius_distance(self):
        z = MatrixPolynomial.zeros(2, 2, grade=1)
        u = SkewMatrixPolynomial([[P.zero(), P.one()], [-P.one(), P.zero()]], grade=1)
        d = frobenius_distance(z, u)
        assert d.squared == 2
        assert d.value == pytest.approx(2**0.5)
        assert frobenius_distance(u, u).squared == 0
        with pytest.raises(ShapeMismatch):
            frobenius_distance(u, MatrixPolynomial.zeros(2, 2, grade=2))

    def test_frobenius_homogeneity(self):
        q = skew2(x + 1, grade=1)
        e = skew2(poly(3), grade=1)
        for k in (2, 5):
            shifted = q + e.scale(Fraction(1, k))
            d = frobenius_distance(q, shifted.with_grade(1))
            assert d.squared == frobenius_distance(
                MatrixPolynomial.zeros(2, 2, 1), e
            ).squared * Fraction(1, k**2)


def random_grid(rng, rows, cols):
    """A rows x cols grid of rational polynomials: zero, constant or up to degree 3."""
    deg = rng.choice((-1, 0, 1, 2, 3))
    return tuple(
        tuple(rational_poly(rng, deg) if deg >= 0 else P.zero() for _ in range(cols))
        for _ in range(rows)
    )


def from_grid(grid, grade, cols):
    """MatrixPolynomial(grid, grade); a grid with no rows keeps its width through `zeros`."""
    return MatrixPolynomial(grid, grade) if grid else MatrixPolynomial.zeros(0, cols, grade)


def grid_degree(grid):
    return max((len(e.coeffs) - 1 for row in grid for e in row), default=-1)


SHAPES = [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3), (3, 2), (3, 3), (4, 4)]


class TestRepresentationReference:
    """The integer storage gives what the entrywise formulas give, entry for entry."""

    def case(self, rng, rows, cols):
        grid = random_grid(rng, rows, cols)
        # the declared grade often exceeds the degree
        grade = max(grid_degree(grid), 0) + rng.choice((0, 0, 1, 2))
        return grid, from_grid(grid, grade, cols)

    def check(self, result, grid, rows, cols, grade):
        assert (result.rows, result.cols, result.grade) == (rows, cols, grade)
        assert result.entries == grid
        expected = from_grid(grid, grade, cols)
        assert result == expected and hash(result) == hash(expected)
        # lowest terms: no integer above 1 divides the denominator and every numerator
        assert math.gcd(result.denominator, *(v for m in result.numerators for row in m for v in row)) == 1

    def test_operations_match_entrywise_formulas(self):
        rng = random.Random(2024)
        for trial in range(200):
            rows, cols = SHAPES[trial % len(SHAPES)]
            grid, p = self.case(rng, rows, cols)
            assert p.entries == grid
            assert all(p.entries[i][j] == grid[i][j] for i in range(rows) for j in range(cols))
            if rows:
                again = MatrixPolynomial.from_coefficients(p.coefficient_matrices(), p.grade)
                assert again == p and hash(again) == hash(p)
            self.check(p.transpose(), grid_transpose(grid, cols), cols, rows, p.grade)
            self.check(-p, grid_neg(grid), rows, cols, p.grade)
            other_grid, other = self.case(rng, rows, cols)
            self.check(p + other, grid_add(grid, other_grid), rows, cols, max(p.grade, other.grade))
            width = rng.randint(0, 3)
            right_grid, right = self.case(rng, cols, width)
            self.check(p @ right, grid_matmul(grid, right_grid, width), rows, width, p.grade + right.grade)
            s = rational(rng)
            self.check(p.scale(s), grid_scale(grid, s), rows, cols, p.grade)
            grade = p.grade + rng.randint(0, 1)
            self.check(rev(p, grade), grid_rev(grid, grade), rows, cols, grade)
            point = rational(rng)
            assert p.evaluate(point) == grid_evaluate(grid, point)
            squared = grid_frobenius_squared(grid, other_grid)
            top = max(p.grade, other.grade)
            assert frobenius_distance(p.with_grade(top), other.with_grade(top)) == (math.sqrt(squared), squared)

    def test_no_entry_grid_on_integer_paths(self, monkeypatch, tmp_path):
        # sampling, reading, linearizing and a zero-deficit analysis run on the
        # integer matrices alone and build no RationalPolynomial
        from skewstruct.eigenstructure import analyze
        from skewstruct.fileio import read_polynomial, write_polynomial
        from skewstruct.linearize import build_linearization, pad_grade
        from skewstruct.sampling import SampleSpec, sample_bounded_rank

        sample = sample_bounded_rank(SampleSpec(5, 2, 2, seed=3))
        path = str(tmp_path / "p.json")
        write_polynomial(sample, path)
        built = []
        init, raw = P.__init__, P._raw.__func__
        monkeypatch.setattr(P, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        monkeypatch.setattr(P, "_raw", classmethod(lambda cls, c: built.append(1) or raw(cls, c)))
        assert P((1, 2)).coeffs == (1, 2) and len(built) == 1
        built.clear()
        sample = sample_bounded_rank(SampleSpec(5, 2, 2, seed=4))
        loaded = read_polynomial(path)
        pencil = build_linearization(pad_grade(loaded)).pencil
        # generic inputs: the finite-degree deficit is zero, so Smith does not run
        assert analyze(loaded).finite == () and analyze(pencil, 1).finite == ()
        assert built == []
        assert sample.is_skew_symmetric() and pencil.is_skew_symmetric()


# ---------------------------------------------------------------------------
# normal rank
# ---------------------------------------------------------------------------


M1_PENCIL = SkewMatrixPolynomial(
    [
        [P.zero(), x, -P.one()],
        [-x, P.zero(), P.zero()],
        [P.one(), P.zero(), P.zero()],
    ],
    grade=1,
)


class TestNormalRank:
    def test_examples(self):
        assert normal_rank(skew2(x)) == 2
        assert normal_rank(M1_PENCIL) == 2
        assert normal_rank(MatrixPolynomial.zeros(3, 3, 2)) == 0

    def test_minor_oracle(self):
        assert normal_rank(M1_PENCIL) == normal_rank_by_minors(M1_PENCIL)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_against_minors(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        deg = rng.randint(0, 2)
        m = mat(
            [
                [P([rng.randint(-3, 3) for _ in range(deg + 1)]) for _ in range(cols)]
                for _ in range(rows)
            ],
            grade=deg,
        )
        assert normal_rank(m) == normal_rank_by_minors(m)

    def test_low_rank_against_minors(self):
        # products through a thin middle factor have rank well below
        # min(rows, cols), so many minimal indices; coefficients with
        # denominators go through the integer scaling
        rng = random.Random(21)

        def random_factor(rows, cols, deg):
            return mat(
                [
                    [P([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(deg + 1)])
                     for _ in range(cols)]
                    for _ in range(rows)
                ],
                grade=deg,
            )

        for _ in range(20):
            grade = rng.randint(0, 3)
            low = rng.randint(0, grade)
            rows, cols = rng.randint(3, 5), rng.randint(3, 5)
            inner = rng.randint(1, min(rows, cols) - 2)
            m = random_factor(rows, inner, low) @ random_factor(inner, cols, grade - low)
            assert normal_rank(m) == normal_rank_by_minors(m) <= inner
        for _ in range(12):
            # A^T S A: skew, rank at most 2, for constant A and 2x2 skew S
            n = rng.randint(4, 5)
            a = random_factor(2, n, 0)
            s = skew2(random_factor(1, 1, rng.randint(0, 3)).entries[0][0])
            m = as_skew(a.transpose() @ s @ a)
            assert normal_rank(m) == normal_rank_by_minors(m) <= 2

    def test_rank_seen_only_at_the_last_point(self):
        # p vanishes at the evaluation points 0, 1 and -1, where this input
        # has rank 0; the staircase reads its rank 1 at no point
        p = x * (x - 1) * (x + 1)
        z = P.zero()
        assert normal_rank(mat([[p, z, z], [z, z, z]])) == 1

    def test_evaluates_no_point(self, monkeypatch):
        # each input has less than its normal rank at the first evaluation
        # points 0, 1, -1, so a rank read from points would evaluate past
        # them; the staircase pass reads it with no point and no rank_exact
        p = x * (x - 1) * (x + 1)
        z = P.zero()
        inputs = [
            mat([[p, z, z], [z, z, z]]),
            skew2(p * (x - 2)),
            mat([[x, z, z], [z, x - 1, z], [z, z, x + 1]]),
            as_skew(mat([[z, p, x], [-p, z, z], [-x, z, z]])),
        ]
        expected = [normal_rank_by_minors(m) for m in inputs]

        def no_points(*args):
            raise AssertionError("a rank was read at a point")

        monkeypatch.setattr(sampling, "_points", no_points)
        monkeypatch.setattr(exact, "rank_exact", no_points)
        # past the cache, which earlier tests may have filled
        assert [normal_rank.__wrapped__(m) for m in inputs] == expected == [1, 2, 3, 2]

    def test_matches_rank_at_generic_point(self):
        # rank at any point never exceeds the normal rank, and a random
        # rational point away from the finite bad set attains it
        rho = normal_rank(M1_PENCIL)
        assert rank_exact(M1_PENCIL.evaluate(Fraction(7, 3))) == rho


# ---------------------------------------------------------------------------
# Smith forms
# ---------------------------------------------------------------------------


def diagonal_matrix(entries):
    n = len(entries)
    return mat([[entries[i] if i == j else P.zero() for j in range(n)] for i in range(n)])


@pytest.fixture
def reworked(monkeypatch):
    """One flag per Smith reduction: did the gcd/lcm pass change its diagonal?"""
    flags = []
    chain = exact._divisibility_chain

    def counting(diagonal):
        before = list(diagonal)
        chain(diagonal)
        flags.append(diagonal != before)

    monkeypatch.setattr(exact, "_divisibility_chain", counting)
    return flags


class TestSmithForm:
    def test_diag_example(self):
        m = mat([[x, P.zero()], [P.zero(), x * (x - 1)]])
        s = smith_form(m)
        assert s.rank == 2
        assert s.invariant_polynomials == (x, x * (x - 1))
        assert minor_gcds(m) == [x, x**2 * (x - 1)]

    def test_identity(self):
        s = smith_form(mat([[P.one(), P.zero()], [P.zero(), P.one()]]))
        assert s.rank == 2
        assert all(g == P.one() for g in s.invariant_polynomials)

    def test_skew_square_example(self):
        m = skew2(x**2)
        s = smith_form(m)
        assert s.rank == 2
        assert s.invariant_polynomials == (x**2, x**2)
        assert smith_by_minors(m) == [x**2, x**2]

    def test_divisibility_chain_random(self):
        rng = random.Random(20240817)
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            deg = rng.randint(0, 2)
            m = mat(
                [
                    [
                        P([rng.randint(-2, 2) for _ in range(deg + 1)])
                        for _ in range(cols)
                    ]
                    for _ in range(rows)
                ],
                grade=deg,
            )
            s = smith_form(m)
            for g in s.invariant_polynomials:
                assert g.coeffs[-1] == 1  # monic
            for a, b in zip(s.invariant_polynomials, s.invariant_polynomials[1:]):
                assert (b % a).is_zero()
            assert list(s.invariant_polynomials) == smith_by_minors(m)

    def test_unimodular_invariance(self):
        m = mat([[x, P.one()], [P.zero(), x**2]])
        u = mat([[P.one(), x], [P.zero(), P.one()]])  # unimodular
        assert smith_form(u @ m).invariant_polynomials == smith_form(m).invariant_polynomials

    def test_divisibility_fixup(self):
        # diag(x, x+1) is already diagonal, but x does not divide x+1, so the
        # gcd/lcm pass must turn it into the chain 1, x(x+1)
        m = mat([[x, P.zero()], [P.zero(), x + 1]])
        s = smith_form(m)
        assert s.invariant_polynomials == (P.one(), x * (x + 1))
        assert smith_by_minors(m) == [P.one(), x * (x + 1)]

    def test_divisibility_fixup_non_monic(self):
        # the same pass with non-monic entries, as the integer reduction
        # sees them: 2x does not divide 3x + 3
        m = mat([[2 * x, P.zero()], [P.zero(), 3 * x + 3]])
        assert smith_form(m).invariant_polynomials == (P.one(), x * (x + 1))
        m = mat([[-2 * x, P.zero(), P.zero()], [P.zero(), Fraction(3, 2) * x**2, P.zero()], [P.zero(), P.zero(), 5 * x - 5]])
        assert list(smith_form(m).invariant_polynomials) == smith_by_minors(m) == [P.one(), x, x**2 * (x - 1)]

    def test_divisibility_pass_examples(self):
        # several non-dividing pairs, chains of three or more entries, a
        # constant among them, negative and non-unit leading coefficients
        cases = [
            ([x - 1, x - 2, (x - 1) * (x - 2)], [P.one(), (x - 1) * (x - 2), (x - 1) * (x - 2)]),
            ([x**2, x * (x - 1), 2 * x + 2], [P.one(), x, x**2 * (x - 1) * (x + 1)]),
            (
                [-2 * x - 2, P.constant(3), -x, 5 * x**2, 1 - x**2],
                [P.one(), P.one(), P.one(), x * (x + 1), x**2 * (x + 1) * (x - 1)],
            ),
        ]
        for diag, expected in cases:
            m = diagonal_matrix(diag)
            assert list(smith_form(m).invariant_polynomials) == smith_by_minors(m) == expected

    def test_divisibility_chain_alone(self):
        # the pass on a monic diagonal in no particular order: a constant
        # after non-constants, and x^2(x-1) before x(x-1)^2, which share
        # factors but divide neither way
        diagonal = [x + 1, x**2 * (x - 1), P.one(), x * (x - 1) ** 2, x]
        expected = smith_by_minors(diagonal_matrix(diagonal))
        exact._divisibility_chain(diagonal)
        assert diagonal == expected == [
            P.one(), P.one(), x, x * (x - 1), x**2 * (x - 1) ** 2 * (x + 1)
        ]

    def test_divisibility_pass_on_seeded_family(self, reworked):
        # U^T D V for diagonals D of small factors and unimodular U, V; a
        # counter confirms that the pass has pairs to rework on many inputs
        rng = random.Random(909)
        factors = [x, x - 1, x + 1, 2 * x + 1, P.constant(-3), P.constant(2)]

        def unimodular(n):
            # upper triangular with nonzero constants on the diagonal
            return mat([
                [
                    P.constant(rng.choice((1, -1, 2))) if i == j
                    else P([rng.randint(-1, 1), rng.randint(-1, 1)]) if i < j
                    else P.zero()
                    for j in range(n)
                ]
                for i in range(n)
            ])

        for _ in range(40):
            n = rng.randint(2, 4)
            diag = []
            for _ in range(n):
                d = P.one()
                for _ in range(rng.randint(0, 2)):
                    d = d * rng.choice(factors)
                diag.append(d)
            m = diagonal_matrix(diag)
            if rng.random() < 0.5:
                m = unimodular(n).transpose() @ m @ unimodular(n)
            assert list(smith_form(m).invariant_polynomials) == smith_by_minors(m), m.to_string()
        assert sum(reworked) >= 10, sum(reworked)

    def test_fraction_coefficients_against_minors(self):
        # rational, negative and non-unit leading coefficients, on
        # rectangular, rank-deficient and zero-row/column inputs
        rng = random.Random(5021)
        kinds = ("rectangular", "deficient", "zero_line", "square")
        leads = set()
        for trial in range(80):
            kind = kinds[trial % 4]
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            if kind == "rectangular":
                while rows == cols:
                    cols = rng.randint(1, 4)
            elif kind == "square":
                cols = rows
            deg = rng.randint(1, 2)
            if kind == "deficient":
                rows, cols = rng.randint(2, 4), rng.randint(2, 4)
                inner = rng.randint(1, min(rows, cols) - 1)
                a = mat([[rational_poly(rng, 1) for _ in range(inner)] for _ in range(rows)])
                b = mat([[rational_poly(rng, deg - 1) for _ in range(cols)] for _ in range(inner)])
                m = a @ b
            else:
                grid = [[rational_poly(rng, deg) for _ in range(cols)] for _ in range(rows)]
                if kind == "zero_line":
                    if rng.random() < 0.5:
                        grid[rng.randrange(rows)] = [P.zero()] * cols
                    else:
                        j = rng.randrange(cols)
                        for row in grid:
                            row[j] = P.zero()
                m = mat(grid, grade=deg)
            leads.update(e.coeffs[-1] for row in m.entries for e in row if not e.is_zero())
            s = smith_form(m)
            assert list(s.invariant_polynomials) == smith_by_minors(m), (kind, m.to_string())
            assert s == smith_by_equivalence(m), (kind, m.to_string())
        assert any(c < 0 for c in leads) and any(c.denominator > 1 for c in leads)
        assert any(c.numerator not in (-1, 1) for c in leads)

    def test_pseudo_division_identity(self):
        rng = random.Random(808)
        for _ in range(300):
            b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.choice((-6, -4, -1, 1, 2, 3, 9))]
            a = [rng.randint(-20, 20) for _ in range(rng.randint(0, 7))]
            while a and not a[-1]:
                a.pop()
            s, q, r = _pseudo_divmod(a, b)
            assert s > 0
            assert len(r) < len(b)
            lhs = P(a) * s
            assert lhs == P(q) * P(b) + P(r)
            # the same remainder as division over the rationals, up to s
            assert P(r) == (P(a) % P(b)) * s
            # s only collects the leading coefficient's non-dividing factors
            assert (b[-1] ** max(len(a) - len(b) + 1, 0)) % s == 0
            if abs(b[-1]) == 1:
                assert s == 1

    def test_pseudo_division_by_a_constant(self):
        # one pass: the least s that makes every coefficient of s*a a
        # multiple of c, the exact quotient and no remainder
        rng = random.Random(48)
        for _ in range(300):
            c = rng.choice((-12, -6, -4, -1, 1, 2, 3, 8, 9, 30))
            a = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))] + [rng.choice((-9, -2, 1, 4, 15))]
            s, q, r = _pseudo_divmod(a, [c])
            assert r == [] and P(a) * s == P(q) * c
            assert s == min(t for t in range(1, abs(c) + 1) if all(t * v % c == 0 for v in a))
        assert _pseudo_divmod([], [5]) == (1, [], [])

    def test_non_reducing_division_raises(self, monkeypatch):
        # a pseudo-division that returns its dividend as the remainder never
        # lowers the pivot degree; the guard must raise instead of sweeping
        # forever (the alarm turns a hang into a failure)
        monkeypatch.setattr(exact, "_pseudo_divmod", lambda a, b: (1, [], list(a)))

        def hang(signum, frame):
            raise TimeoutError("smith_form did not terminate")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(InternalInconsistency, match="pivot degree"):
                smith_form(mat([[x, x + 1], [P.one(), x]]))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_constant_grade_zero(self):
        m = mat([[P.one(), P.constant(2)], [P.constant(3), P.constant(6)]])
        s = smith_form(m)
        assert s.rank == 1 and s.invariant_polynomials == (P.one(),)
        assert normal_rank(m) == 1
        # empty shapes embed in skew matrices of size 3, 3 and 0
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            assert smith_form(MatrixPolynomial.zeros(rows, cols)) == SmithForm(0, ())

    def test_against_sympy_oracle(self):
        # second independent oracle, on sizes where the minor-gcd one is slow
        import warnings

        import sympy
        from sympy.matrices.normalforms import invariant_factors

        lam = sympy.Symbol("lam")
        rng = random.Random(99)
        for _ in range(6):
            n = rng.randint(3, 5)
            deg = rng.randint(1, 2)
            grid = [
                [P([rng.randint(-4, 4) for _ in range(deg + 1)]) for _ in range(n)]
                for _ in range(n)
            ]
            mine = smith_form(mat(grid, grade=deg))
            sym = sympy.Matrix(
                [
                    [sum(sympy.Rational(c) * lam**k for k, c in enumerate(e.coeffs)) for e in row]
                    for row in grid
                ]
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                theirs = invariant_factors(sym, domain=sympy.QQ[lam])
            monic = [sympy.polys.Poly(f, lam, domain="QQ").monic().as_expr() for f in theirs if f != 0]
            ours = [
                sum(sympy.Rational(c) * lam**k for k, c in enumerate(g.coeffs))
                for g in mine.invariant_polynomials
            ]
            assert len(monic) == len(ours) == mine.rank
            for a, b in zip(ours, monic):
                assert sympy.simplify(a - b) == 0


class TestSkewSmith:
    def test_examples(self):
        s = skew_smith(skew2(x))
        assert s.rank == 1 and s.invariant_polynomials == (x,)
        s = skew_smith(M1_PENCIL)
        assert s.rank == 1 and s.invariant_polynomials == (P.one(),)
        s = skew_smith(skew2(x**2))
        assert s.rank == 1 and s.invariant_polynomials == (x**2,)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            skew_smith(mat([[x]]))

    def test_divisibility_pass_on_scrambled_blocks(self, reworked):
        # H_1(1) + H_1(2) + H_2(1), as a direct sum and under two congruences
        # Q^T P Q; the direct sum takes x - 1 and x - 2 as pivots, a pair
        # that does not divide, so the pass must rework it
        blocks = BlockList.skew([SkewBlock.h(1, 1), SkewBlock.h(1, 2), SkewBlock.h(2, 1)])
        pencil = assemble_skew(blocks)
        expected = (P.one(), P.one(), x - 1, (x - 1) ** 2 * (x - 2))
        assert skew_smith(pencil).invariant_polynomials == expected
        assert reworked == [True]
        for seed in (0, 10):
            rng = random.Random(seed)
            while True:
                q = [[rng.choice((-1, 0, 1)) for _ in range(8)] for _ in range(8)]
                if rank_exact(q) == 8:
                    break
            cm = mat(q, grade=0)
            scrambled = as_skew((cm.transpose() @ pencil @ cm).with_grade(1))
            assert skew_smith(scrambled).invariant_polynomials == expected

    @pytest.mark.parametrize(
        "m, expected",
        [
            pytest.param(
                assemble_skew(BlockList.skew([SkewBlock.h(1, 0), SkewBlock.h(1, 1)])),
                (P.one(), x * (x - 1)),
                id="H1(0)+H1(1)",
            ),
            pytest.param(
                SkewMatrixPolynomial.from_upper(4, {(0, 1): 2 * x, (2, 3): 3 * x + 3}, grade=1),
                (P.one(), x * (x + 1)),
                id="2x-then-3x+3",
            ),
            pytest.param(
                SkewMatrixPolynomial.from_upper(
                    6, {(0, 1): x**2, (2, 3): x * (x - 1), (4, 5): -x - 1}, grade=2
                ),
                (P.one(), x, x**2 * (x - 1) * (x + 1)),
                id="x^2,x(x-1),-x-1",
            ),
        ],
    )
    def test_divisibility_pass_on_named_pairs(self, reworked, m, expected):
        # skew inputs whose pivot pairs come out in an order that does not
        # divide (x before x - 1, 2x before 3x + 3, x + 1 before x^2), so
        # the gcd/lcm pass runs on the paired diagonal
        assert skew_smith(m).invariant_polynomials == expected
        assert reworked == [True]
        assert smith_by_minors(m) == [g for g in expected for _ in range(2)]

    def test_non_reducing_division_raises(self, monkeypatch):
        # as for smith_form: a remainder that never lowers the pivot degree
        # must raise instead of sweeping forever
        monkeypatch.setattr(exact, "_pseudo_divmod", lambda a, b: (1, [], list(a)))

        def hang(signum, frame):
            raise TimeoutError("skew_smith did not terminate")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(InternalInconsistency, match="pivot degree"):
                skew_smith(SkewMatrixPolynomial.from_upper(3, {(0, 1): x, (0, 2): x + 1, (1, 2): P.one()}))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_pairing_against_full_smith(self):
        # seeded skew inputs, n = 0..9 and grade 0..3: dense, sparse, with a
        # zero row and column, rank-deficient products A^T J A, and the zero
        # matrix; integer or Fraction coefficients. skew_smith must give
        # smith_form's list with every entry once, smith_form must agree
        # with the general reduction by equivalence, and the minor-gcd
        # oracle agrees where it is cheap
        rng = random.Random(7)
        kinds = ("dense", "sparse", "zero_line", "product", "zero")
        seen = set()
        for trial in range(150):
            kind = kinds[trial % len(kinds)]
            n = rng.randint(0, 9) if trial >= 10 else trial % 2
            deg = rng.randint(0, 3)
            fractions = trial % 3 == 0

            def coeff():
                v = rng.randint(-3, 3)
                return Fraction(v, rng.choice((1, 2, 3, 4))) if fractions else v

            if kind == "product" and n >= 2:
                inner = 2 * rng.randint(1, n // 2)
                a = mat(
                    [[P([coeff() for _ in range(rng.randint(1, 2))]) for _ in range(n)] for _ in range(inner)],
                    grade=1,
                )
                j = SkewMatrixPolynomial.from_upper(
                    inner, {(2 * i, 2 * i + 1): P([coeff(), coeff()]) for i in range(inner // 2)}, grade=1
                )
                m = as_skew(a.transpose() @ j @ a)
            else:
                density = {"dense": 0.9, "sparse": 0.35, "zero_line": 0.9, "product": 0.9, "zero": 0}[kind]
                upper = {
                    (i, j): P([coeff() for _ in range(deg + 1)])
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < density
                }
                if kind == "zero_line" and n:
                    dead = rng.randrange(n)
                    upper = {key: p for key, p in upper.items() if dead not in key}
                m = SkewMatrixPolynomial.from_upper(n, upper, grade=deg)
            full = smith_form(m)
            assert full == smith_by_equivalence(m), (kind, m.to_string())
            halved = skew_smith(m)
            assert full.rank == 2 * halved.rank
            doubled = [g for g in halved.invariant_polynomials for _ in range(2)]
            assert list(full.invariant_polynomials) == doubled, (kind, m.to_string())
            if n <= 5 and m.degree <= 2:
                assert smith_by_minors(m) == doubled, (kind, m.to_string())
            seen.add((n, n % 2, halved.rank == 0, fractions, any(g.degree > 0 for g in doubled)))
        assert {0, 1, 9} <= {key[0] for key in seen}
        assert any(key[1] and not key[2] for key in seen)  # odd n, positive rank
        assert any(key[2] and key[0] > 1 for key in seen)  # rank 0 beyond the 1x1 case
        assert any(key[3] and key[4] for key in seen)  # Fractions, nontrivial invariants

    def test_scrambled_block_pencils(self):
        # Q^T P Q of seeded H, K and M block sums at n = 10 and 12, with one
        # or two eigenvalues shared between H blocks, against the invariant
        # polynomials read off the block list
        rng = random.Random(28)
        for n in (10,) * 6 + (12,) * 6:
            block_list = _random_block_sum(rng, n)
            expected = _block_invariants(block_list)
            cm = mat(_nonsingular(rng, n, (-1, 0, 1)), grade=0)
            scrambled = as_skew((cm.transpose() @ assemble_skew(block_list) @ cm).with_grade(1))
            s = skew_smith(scrambled)
            assert s.rank == len(expected) and list(s.invariant_polynomials) == expected, str(block_list)

    def test_indices_with_content(self):
        # block sums times 6 under Q^T P Q with Q entries in {-2, 0, 2}: every
        # stored coefficient is a multiple of 24, and the reduction divides no
        # content out of the indices it updates. The invariant polynomials
        # must match the block list and the general reduction at n = 10-12,
        # and the minor-gcd oracle too where it is cheap (n = 5 and 6)
        rng = random.Random(6)
        for n in (5, 6, 10, 11, 12) * 2:
            block_list = _random_block_sum(rng, n)
            cm = mat(_nonsingular(rng, n, (-2, 0, 2)), grade=0)
            m = as_skew((cm.transpose() @ assemble_skew(block_list).scale(6) @ cm).with_grade(1))
            assert m.denominator == 1
            assert math.gcd(*(v for c in m.numerators for row in c for v in row)) % 24 == 0
            s = skew_smith(m)
            assert list(s.invariant_polynomials) == _block_invariants(block_list), str(block_list)
            doubled = [g for g in s.invariant_polynomials for _ in range(2)]
            assert list(smith_by_equivalence(m).invariant_polynomials) == doubled, str(block_list)
            if n <= 6:
                assert smith_by_minors(m) == doubled, str(block_list)


class TestFusedSweep:
    """`_clear_pair` applies each row's steps as one congruence; the sequential sweep is the reference."""

    @staticmethod
    def _structured_pencils(seed, sizes):
        # the benchmark's structured_cli pencils: scrambled structured_blocks
        bench = str(Path(__file__).resolve().parents[1] / "bench")
        sys.path.insert(0, bench)
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(bench)
        rng = random.Random(seed)
        return [workloads.scramble(rng, assemble_skew(workloads.structured_blocks(rng, n))) for n in sizes]

    def test_every_sweep_matches_the_sequential_reference(self, monkeypatch):
        # every sweep of skew_smith on scrambled block pencils, on the same
        # pencils times 6 under Q^T P Q with Q entries in {-2, 0, 2}, and on
        # dense random skew inputs of grade 1-3: the fused sweep must leave
        # the upper triangle and the dirty flag of the sequential one, run on
        # the full skew matrix
        fused = exact._clear_pair
        seen = {"sweeps": 0, "dirty": 0, "non_unit": 0, "moved_pairs": 0}

        def checked(work):
            n = len(work)
            full = [[[] for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    full[i][j], full[j][i] = list(work[i][j]), [-v for v in work[i][j]]
            expected = sequential_clear_pair(full)
            lead = abs(work[0][1][-1])
            moved = sum(1 for k in range(2, n) if work[0][k]) >= 2
            dirty = fused(work)
            assert dirty == expected
            assert [row[i + 1 :] for i, row in enumerate(work)] == [row[i + 1 :] for i, row in enumerate(full)]
            seen["sweeps"] += 1
            seen["dirty"] += dirty
            seen["non_unit"] += lead != 1
            seen["moved_pairs"] += moved
            return dirty

        monkeypatch.setattr(exact, "_clear_pair", checked)
        rng = random.Random(48)
        pencils = self._structured_pencils(48, (6, 8, 10, 12) * 3)
        for pencil in pencils[:6]:
            cm = mat(_nonsingular(rng, pencil.rows, (-2, 0, 2)), grade=0)
            pencils.append(as_skew((cm.transpose() @ pencil.scale(6) @ cm).with_grade(1)))
        for _ in range(12):
            n, deg = rng.randint(3, 7), rng.randint(1, 3)
            upper = {
                (i, j): P([rng.randint(-5, 5) for _ in range(deg + 1)]) for i in range(n) for j in range(i + 1, n)
            }
            pencils.append(SkewMatrixPolynomial.from_upper(n, upper, grade=deg))
        for pencil in pencils:
            skew_smith(pencil)
        assert seen["sweeps"] > 150, seen
        assert min(seen["dirty"], seen["non_unit"], seen["moved_pairs"]) > 40, seen


def _random_block_sum(rng, n):
    """A seeded skew block list of size n: H_1..H_3 at one or two shared eigenvalues, K_1, K_2, M_0, M_1."""
    values = [Fraction(v) for v in rng.sample(range(-3, 4), rng.choice((1, 2)))]
    parts, left = [], n
    while left:
        options = [SkewBlock.h(k, v) for k in (1, 2, 3) for v in values if 2 * k <= left] * 2
        options += [SkewBlock.k(k) for k in (1, 2) if 2 * k <= left]
        options += [SkewBlock.m(k) for k in (0, 1) if 2 * k + 1 <= left]
        block = rng.choice(options)
        parts.append(block)
        left -= block.shape[0]
    return BlockList.skew(parts)


def _block_invariants(block_list):
    """The invariant polynomials g_1 | ... | g_r that `skew_smith` returns, read off a skew block list."""
    structure = blocklist_eigenstructure(block_list)
    r = structure.rank // 2
    expected = [P.one()] * r
    for factor, mults in structure.finite:
        halves = mults[::2]  # sorted, each multiplicity twice
        for i, e in enumerate(halves):
            expected[r - len(halves) + i] *= factor**e
    return expected


def _nonsingular(rng, n, entries):
    """A seeded nonsingular n x n integer matrix with entries drawn from `entries`."""
    while True:
        q = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if rank_exact(q) == n:
            return q
