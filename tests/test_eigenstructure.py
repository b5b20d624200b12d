"""Tests for minimal indices, structure at infinity, and full analysis."""

import itertools
import random
import signal
from fractions import Fraction
from typing import NamedTuple

import pytest

from skewstruct import eigenstructure, exact
from skewstruct.blocks import BlockList, SkewBlock, assemble_skew, blocklist_eigenstructure
from skewstruct.eigenstructure import (
    CompleteEigenstructure,
    _read_profile,
    _staircase,
    _structure_at_zero,
    analyze,
    infinite_structure,
    minimal_indices,
    multiplicities_from_prefix_dims,
    same_orbit,
    smallest_infinite_multiplicity_law,
)
from skewstruct.errors import (
    GradeTooSmall,
    InternalInconsistency,
    NotSkewSymmetric,
    ZeroRank,
)
from skewstruct.exact import (
    MatrixPolynomial,
    RationalPolynomial,
    SkewMatrixPolynomial,
    as_skew,
    normal_rank,
    rank_exact,
    rev,
    smith_form,
)
from skewstruct.linearize import build_linearization, pad_grade
from skewstruct.sampling import SampleSpec, sample_bounded_rank

from oracles import (
    kernel_dims_by_convolution,
    left_minimal_indices,
    minimal_indices_by_convolution,
    normal_rank_by_minors,
    prefix_dims_by_toeplitz,
    smith_by_minors,
)

P = RationalPolynomial
x = P.variable()


def valuation_at_zero(g) -> int:
    """The exponent of x dividing the nonzero polynomial g."""
    return next(k for k, c in enumerate(g.coeffs) if c)


def skew2(p, grade=None):
    return SkewMatrixPolynomial([[P.zero(), p], [-p, P.zero()]], grade)


M1_PENCIL = SkewMatrixPolynomial(
    [
        [P.zero(), x, -P.one()],
        [-x, P.zero(), P.zero()],
        [P.one(), P.zero(), P.zero()],
    ],
    grade=1,
)

K1_PENCIL = SkewMatrixPolynomial(
    [[P.zero(), -P.one()], [P.one(), P.zero()]], grade=1
)


def random_skew(rng, n, deg, bound=4):
    upper = {
        (i, j): P([rng.randint(-bound, bound) for _ in range(deg + 1)])
        for i in range(n)
        for j in range(i + 1, n)
    }
    return SkewMatrixPolynomial.from_upper(n, upper, grade=deg)


def random_matrix(rng, rows, cols, deg, values=range(-2, 3)):
    return MatrixPolynomial(
        [[P([rng.choice(values) for _ in range(deg + 1)]) for _ in range(cols)] for _ in range(rows)],
        grade=deg,
    )


def undershooting_inputs(rng, count):
    """Zero and constant inputs, then products A(x) diag(f) B(x) of random shapes.

    The diagonal factors vanish at the first evaluation points 0, 1, -1
    (x*(x-1)*(x+1) at all three), so the ranks there often fall short of
    the normal rank; zero and unit factors give rank 0 and full rank.
    """
    factors = (x, x**2 - 1, x * (x - 1) * (x + 1), P.one(), P.zero())
    inputs = [
        MatrixPolynomial.zeros(2, 3, grade=2),
        MatrixPolynomial.zeros(3, 1, grade=0),
        random_matrix(rng, 3, 2, 0),
        random_matrix(rng, 2, 4, 0),
    ]
    for _ in range(count):
        rows, inner, cols = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4)
        diag = MatrixPolynomial(
            [[rng.choice(factors) if i == j else P.zero() for j in range(inner)] for i in range(inner)]
        )
        a = random_matrix(rng, rows, inner, rng.randint(0, 1))
        b = random_matrix(rng, inner, cols, rng.randint(0, 1))
        inputs.append(a @ diag @ b)
    return inputs


def unstructured_inputs(rng, count):
    """Zero (one without rows), then random rectangular non-skew inputs of grade 0 to 2.

    Sparse entries make nontrivial structure at zero likely.
    """
    inputs = [
        MatrixPolynomial.zeros(2, 3, grade=1),
        MatrixPolynomial.zeros(3, 1, grade=0),
        MatrixPolynomial.zeros(0, 2, grade=1),
    ]
    for _ in range(count):
        rows, cols, deg = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 2)
        inputs.append(random_matrix(rng, rows, cols, deg, values=(0, 0, 0, 1, -1, 2)))
    return inputs


def shifted_inputs(rng, count):
    """Inputs for the deg P stage shift between the staircase and C_k.

    Shapes without rows or columns, degree 3, and degree below the grade,
    each paired with an order up_to >= deg + 3.
    """
    inputs = [
        MatrixPolynomial.zeros(0, 3, grade=3),
        MatrixPolynomial.zeros(3, 0, grade=2),
        MatrixPolynomial.zeros(0, 0, grade=1),
        MatrixPolynomial.zeros(2, 1, grade=3),
        random_matrix(rng, 2, 3, 1).with_grade(3),
    ]
    for _ in range(count):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        inputs.append(random_matrix(rng, rows, cols, 3, values=(0, 0, 0, 1, -1, 2)))
    return [(m, max(m.degree, 0) + rng.randint(3, 4)) for m in inputs]


def left_nullity_inputs(rng, count):
    """Inputs whose constant coefficient P_0 has left nullity at least 2.

    P_0 is a product A B through rows - 2 columns, so the staircase's rows
    of x_{k+1}, which carry the columns of P_0, pivot at most rows - 2
    times in the system's part: each stage's window rows can pivot in the
    two or more directions that they leave free.
    """
    values = (0, 0, 1, -1, 2)
    inputs = []
    for _ in range(count):
        rows, cols, deg = rng.randint(2, 4), rng.randint(1, 4), rng.randint(1, 3)
        inner = rows - 2
        a = [[rng.choice(values) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.choice(values) for _ in range(cols)] for _ in range(inner)]
        p0 = [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]
        rest = [[[rng.choice(values) for _ in range(cols)] for _ in range(rows)] for _ in range(deg)]
        inputs.append(MatrixPolynomial.from_coefficients([p0] + rest, grade=deg))
    return inputs


class TestConvolution:
    def test_profile_matches_dense_ranks(self):
        rng = random.Random(12)
        inputs = [random_skew(rng, max(rng.randint(1, 3), 2), rng.randint(0, 2)) for _ in range(12)]
        for m in inputs + unstructured_inputs(rng, 12):
            assert kernel_dims(m, 3) == kernel_dims_by_convolution(m, 3)
        for m, up_to in shifted_inputs(rng, 12):
            assert kernel_dims(m, up_to) == kernel_dims_by_convolution(m, up_to)
        for m in left_nullity_inputs(rng, 12):
            up_to = max(m.degree, 0) + 3
            assert kernel_dims(m, up_to) == kernel_dims_by_convolution(m, up_to)

    def test_profile_of_zero(self):
        z = MatrixPolynomial.zeros(2, 3, grade=1)
        assert kernel_dims(z, 2) == [3, 6, 9]


class TestMinimalIndices:
    def test_examples(self):
        assert minimal_indices(M1_PENCIL) == (1,)
        assert minimal_indices(skew2(x**2)) == ()
        assert minimal_indices(MatrixPolynomial.zeros(1, 1, grade=2)) == (0,)

    def test_count_matches_corank(self):
        rng = random.Random(13)
        for _ in range(20):
            m = random_skew(rng, rng.randint(2, 4), rng.randint(1, 2))
            mins = minimal_indices(m)
            assert len(mins) == m.cols - normal_rank_by_minors(m)

    def test_against_dense_oracle(self):
        rng = random.Random(14)
        for _ in range(15):
            rows, cols = rng.randint(1, 3), rng.randint(2, 4)
            m = random_matrix(rng, rows, cols, rng.randint(0, 2))
            total = m.cols - normal_rank_by_minors(m)
            assert list(minimal_indices(m)) == minimal_indices_by_convolution(m, total)

    def test_rank_and_indices_where_first_points_undershoot(self, monkeypatch):
        # the rank and the indices come from the first stage k >= deg P where
        # the prefix growth meets the kernel growth: one stage past
        # max(kappa_max, epsilon_max + deg P, deg P)
        rng = random.Random(16)
        read = []
        real_staircase = _staircase

        def counted_staircase(P):
            for stage in real_staircase(P):
                read.append(1)
                yield stage

        monkeypatch.setattr(eigenstructure, "_staircase", counted_staircase)
        undershooting = undershooting_inputs(rng, 150)
        families = (
            undershooting
            + left_nullity_inputs(rng, 30)
            + unstructured_inputs(rng, 30)
            + [m for m, _ in shifted_inputs(rng, 12)]
            + [random_skew(rng, rng.randint(2, 4), rng.randint(0, 2)) for _ in range(12)]
        )
        undershot = 0
        for i, m in enumerate(families):
            read.clear()
            rho, right, at_zero = _structure_at_zero(m)
            stages_read = len(read)
            assert rho == normal_rank_by_minors(m)
            epsilon = minimal_indices_by_convolution(m, m.cols - rho)
            assert list(right) == epsilon
            kappa = sorted(valuation_at_zero(g) for g in smith_by_minors(m))
            assert list(at_zero) == kappa
            delta = max(m.degree, 0)
            meeting = max(max(kappa, default=0), max(epsilon, default=0) + delta, delta)
            assert stages_read == meeting + 1
            if i < len(undershooting):
                undershot += rank_exact(m.evaluate(0)) < rho
        assert undershot >= 30

    def test_linearization_needs_no_points(self, monkeypatch):
        # padded (d, m, r) = (4, 8, 1): a 40x40 pencil of rank 34, for which
        # a rank from points would evaluate 36 of them; the staircase alone
        # proves it
        sample = sample_bounded_rank(SampleSpec(8, 4, 1, seed=0))
        pencil = build_linearization(pad_grade(sample)).pencil
        ranks = []
        real_rank = exact.rank_exact

        def counted_rank(matrix):
            ranks.append(1)
            return real_rank(matrix)

        def no_points(*args):
            raise AssertionError("a point-based rank ran")

        monkeypatch.setattr(exact, "rank_exact", counted_rank)
        monkeypatch.setattr(exact, "_point_ranks", no_points)
        monkeypatch.setattr(exact, "normal_rank", no_points)
        assert analyze(pencil, 1).rank == 2 + 8 * 4
        assert ranks == []

    def test_staircase_eliminates_p0_once(self, monkeypatch):
        # padded (d, m, r) = (4, 8, 1): a 40x40 pencil whose staircase runs
        # many stages; the n rows of x_{k+1}, which carry P_0, are reduced
        # once, at stage 0, and the windows nest, so each later stage adds
        # one row per vector new to the previous stage's window: the
        # window's growth, [40, 6, 6, 6, 4, 0, ...] here
        sample = sample_bounded_rank(SampleSpec(8, 4, 1, seed=0))
        pencil = build_linearization(pad_grade(sample)).pencil
        n, expected = pencil.cols, minimal_indices(pencil)
        calls = []
        real_extend = eigenstructure._extend_basis

        def counted_extend(basis, vec):
            calls.append(1)
            return real_extend(basis, vec)

        monkeypatch.setattr(eigenstructure, "_extend_basis", counted_extend)
        assert minimal_indices(pencil) == expected
        stages, per_stage, windows = _staircase(pencil), [], [0]
        for _ in range(12):
            calls.clear()
            prefix_dim, fiber_dim = next(stages)
            per_stage.append(len(calls))
            windows.append(prefix_dim - fiber_dim)
        assert per_stage == [n] + [b - a for a, b in zip(windows[:-2], windows[1:-1])]
        assert per_stage[:6] == [40, 6, 6, 6, 4, 0]
        assert min(windows[1:]) > 0
    def test_left_equals_right_for_skew(self):
        rng = random.Random(15)
        for _ in range(8):
            m = random_skew(rng, 3, 1)
            assert left_minimal_indices(m) == minimal_indices(m)


def prefix_dims(P, up_to):
    """dim S_k for k = 0 .. up_to, from the staircase."""
    return [dim for dim, _ in itertools.islice(_staircase(P), up_to + 1)]


def kernel_dims(P, up_to):
    """dim ker C_k for k = 0 .. up_to: the staircase's fibers from stage deg P on.

    The profile is convex: each order adds at least as many kernel
    dimensions as the one before.
    """
    start = max(P.degree, 0)
    dims = [fiber for _, fiber in itertools.islice(_staircase(P), start, start + up_to + 1)]
    growth = [b - a for a, b in zip([0] + dims, dims)]
    assert growth == sorted(growth), dims
    return dims


class TestPrefixDims:
    def test_staircase_matches_toeplitz(self):
        rng = random.Random(18)
        for m in unstructured_inputs(rng, 20):
            assert prefix_dims(m, 3) == prefix_dims_by_toeplitz(m, 3)
        for m, up_to in shifted_inputs(rng, 12):
            assert prefix_dims(m, up_to) == prefix_dims_by_toeplitz(m, up_to)
        for m in left_nullity_inputs(rng, 12):
            up_to = max(m.degree, 0) + 3
            assert prefix_dims(m, up_to) == prefix_dims_by_toeplitz(m, up_to)

    def test_sparse_rows_match_the_dense_oracles(self, monkeypatch):
        # the staircase's rows are sparse dicts: padded linearizations up to
        # 18 x 18, whose rows are mostly zero; constant and zero polynomials,
        # with no window and no [P_delta ... P_1]; and inputs whose windows
        # carry coefficients of over 64 bits
        rng = random.Random(20)
        inputs = [
            build_linearization(pad_grade(sample_bounded_rank(SampleSpec(m, d, r, seed=seed)))).pencil
            for m, d, r, seed in ((3, 2, 1, 0), (4, 2, 1, 1), (5, 2, 2, 0), (6, 2, 2, 1), (3, 4, 1, 0))
        ]
        assert max(pencil.rows for pencil in inputs) == 18
        inputs += [
            # windows of deg P = 2 and 4 blocks, which shift by one block a stage
            sample_bounded_rank(SampleSpec(4, 2, 1, seed=0)),
            sample_bounded_rank(SampleSpec(3, 4, 1, seed=0)),
            random_skew(rng, 4, 0),
            skew2(P.one()),
            SkewMatrixPolynomial.zeros(3, 3, grade=0),
            SkewMatrixPolynomial.zeros(3, 3, grade=2),
        ]
        wide = [random_skew(rng, 5, 1, bound=2**40) for _ in range(2)]
        wide += [random_matrix(rng, 3, 5, deg, values=range(-(2**40), 2**40)) for deg in (1, 2)]
        for m in inputs + wide:
            up_to = max(m.degree, 0) + 4
            assert prefix_dims(m, up_to) == prefix_dims_by_toeplitz(m, up_to)
            assert kernel_dims(m, up_to) == kernel_dims_by_convolution(m, up_to)
        window_bits = []
        real_extend = eigenstructure._extend_basis

        def measured_extend(basis, vec):
            size = len(basis)
            real_extend(basis, vec)
            # a new row pivoting past the system's rows is a vector of the next window
            if len(basis) > size and basis[-1][0] >= rows:
                window_bits.extend(abs(v).bit_length() for v in basis[-1][1].values())

        monkeypatch.setattr(eigenstructure, "_extend_basis", measured_extend)
        for m in wide:
            rows = m.rows
            kernel_dims(m, 4)
        assert max(window_bits) > 64

    @pytest.mark.parametrize("d, m, r", [(2, 3, 1), (2, 4, 1), (2, 5, 2), (4, 3, 1)])
    def test_long_staircases_match_the_dense_oracles(self, d, m, r):
        # the linearized pencils of criterion-3 cells of size 9 to 15, and
        # their reversals, which analyze reads: 4 to 8 stages, each feeding
        # its new window vectors into the one basis, checked through the
        # meeting stage; each window lies inside the next, so its size
        # never falls
        sample = sample_bounded_rank(SampleSpec(m=m, d=d, r=r, coeff_range=9, seed=7))
        pencil = build_linearization(pad_grade(sample)).pencil
        for R in (pencil, rev(pencil, 1)):
            kappa, epsilon = _structure_at_zero(R)[2], minimal_indices(R)
            meeting = max(max(kappa, default=0), max(epsilon, default=0) + 1, 1)
            assert meeting >= 3
            assert prefix_dims(R, meeting) == prefix_dims_by_toeplitz(R, meeting)
            assert kernel_dims(R, meeting - 1) == kernel_dims_by_convolution(R, meeting - 1)
            windows = [dim - fiber for dim, fiber in itertools.islice(_staircase(R), meeting + 1)]
            assert windows == sorted(windows)

    def test_multiplicities_at_zero(self):
        rng = random.Random(19)
        for m in unstructured_inputs(rng, 20):
            mults = _structure_at_zero(m)[2]
            rho = normal_rank_by_minors(m)
            assert len(mults) == rho
            # dim S_k - dim S_{k-1} - eta counts the multiplicities above k
            dims = [0] + prefix_dims_by_toeplitz(m, max(mults, default=0) + 1)
            for k in range(len(dims) - 1):
                above = dims[k + 1] - dims[k] - (m.cols - rho)
                assert above == sum(v > k for v in mults)
            # and they are the valuations at zero of the invariant polynomials
            assert list(mults) == sorted(valuation_at_zero(g) for g in smith_by_minors(m))


class StubPoly(NamedTuple):
    """What `_read_profile` reads of P, beside its stages."""

    degree: int
    rows: int
    cols: int
    grade: int


class TestDimsToIndices:
    """`_read_profile` on synthetic (dim S_k, dim F_k) stages of a 4 x 4 stub."""

    def test_reads_only_as_far_as_needed(self):
        # deg P = 1, so F_0 is never read; from stage 1 on the kernel growth
        # is 0, 1, 2 and meets the prefix growth 2 at stage 3: indices 1, 2
        stages = iter([(2, None), (4, 0), (6, 1), (8, 3), (99, 99)])
        assert _read_profile(StubPoly(1, 4, 4, 1), stages) == (2, (1, 2), (0, 0))
        assert next(stages) == (99, 99)
        dims = iter([3, 5, 6, 99])
        assert multiplicities_from_prefix_dims(dims, eta=1, rho=3) == (0, 1, 2)
        assert next(dims) == 99

    def test_nothing_to_read(self):
        # full rank: both growths are 0 at stage 0, and there is no index
        assert _read_profile(StubPoly(0, 4, 4, 1), iter([(0, 0)])) == (4, (), (0, 0, 0, 0))
        assert multiplicities_from_prefix_dims(iter([]), eta=2, rho=0) == ()

    def test_stage_bound(self):
        # the only stage bound: a meeting by stage cols * grade + deg P, here
        # 5, since no multiplicity at zero and no minimal index exceeds
        # rank * grade; full rank and one multiplicity at zero, as large as
        # the meeting stage, is read there, and a stage later is not
        def meeting_at(last):
            return iter([(min(k + 1, last), 0) for k in range(last + 1)])

        assert _read_profile(StubPoly(1, 4, 4, 1), meeting_at(5)) == (4, (), (0, 0, 0, 5))
        with pytest.raises(InternalInconsistency, match="normal rank search exceeded its bound"):
            _read_profile(StubPoly(1, 4, 4, 1), meeting_at(6))

    @pytest.mark.parametrize(
        "stages, message",
        [
            ([(2, 1), (4, 1), (6, 3)], "impossible kernel dimension 1 at order 1"),
            ([(2, 3)], "kernel growth 3 exceeds prefix growth 2 at stage 0"),
            ([(2, 0), (4, 1)], "normal rank search exceeded its bound"),
            (((2 * k + 2, k + 1) for k in itertools.count()), "normal rank search exceeded its bound"),
        ],
        ids=["negative-count", "overshoot", "ends-first", "never-meets"],
    )
    def test_impossible_kernel_dims(self, stages, message):
        with pytest.raises(InternalInconsistency, match=message):
            _read_profile(StubPoly(0, 4, 4, 1), stages)

    @pytest.mark.parametrize(
        "dims",
        [[0, 1], [2, 5, 6], [2, 4]],
        ids=["negative-excess", "growing-excess", "ends-first"],
    )
    def test_impossible_prefix_dims(self, dims):
        with pytest.raises(InternalInconsistency):
            multiplicities_from_prefix_dims(dims, eta=1, rho=2)


class TestInfiniteStructure:
    def test_k1_pencil(self):
        assert infinite_structure(K1_PENCIL) == (1, 1)

    def test_grade_dependence(self):
        m = skew2(x**2, grade=2)
        assert infinite_structure(m) == (0, 0)
        assert infinite_structure(m.with_grade(3)) == (1, 1)

    def test_grade_too_small(self):
        with pytest.raises(GradeTooSmall):
            infinite_structure(skew2(x**2, grade=2).with_grade(1))

    def test_against_smith_of_reversal(self):
        rng = random.Random(16)
        for _ in range(15):
            deg = rng.randint(1, 2)
            m = random_skew(rng, rng.randint(2, 4), deg)
            grade = deg + rng.randint(0, 1)
            got = infinite_structure(m.with_grade(grade))
            reversed_smith = smith_form(rev(m.with_grade(grade), grade))
            expected = sorted(
                valuation_at_zero(g) for g in reversed_smith.invariant_polynomials
            )
            assert list(got) == expected

    def test_reversal_keeps_rank(self):
        # rev(P, grade) has the rank of P, and its own multiplicities at zero
        # are the structure at infinity
        rng = random.Random(24)
        inputs = [random_skew(rng, rng.randint(2, 4), rng.randint(0, 2)) for _ in range(10)]
        for m in inputs + unstructured_inputs(rng, 10):
            grade = m.grade + rng.randint(0, 1)
            reversal = rev(m.with_grade(grade), grade)
            assert normal_rank(reversal) == normal_rank(m)
            assert infinite_structure(m.with_grade(grade)) == _structure_at_zero(reversal)[2]

    def test_reversal_at_the_degree(self):
        # rev(P, deg P) has the rank and the minimal indices of P, and
        # rev(P, grade) = x^(grade - deg P) rev(P, deg P) raises each of its
        # multiplicities at zero by grade - deg P
        rng = random.Random(25)
        families = (
            undershooting_inputs(rng, 40)
            + left_nullity_inputs(rng, 15)
            + unstructured_inputs(rng, 15)
            + [m for m, _ in shifted_inputs(rng, 8)]
            + [random_skew(rng, rng.randint(2, 4), rng.randint(0, 2)) for _ in range(10)]
        )
        for m in families:
            d = max(m.degree, 0)
            rho, right, at_zero = _structure_at_zero(rev(m, d))
            assert rho == normal_rank_by_minors(m)
            assert list(right) == minimal_indices_by_convolution(m, m.cols - rho)
            for grade in range(d, d + 3):
                reversed_smith = smith_by_minors(rev(m, grade))
                expected = tuple(sorted(valuation_at_zero(g) for g in reversed_smith))
                assert tuple(k + grade - d for k in at_zero) == expected
                assert infinite_structure(m.with_grade(grade)) == expected

    def test_analyze_makes_one_pass(self, monkeypatch):
        # one staircase over rev(P, deg P), read up to the stage where its
        # growths meet: max(kappa, eps_max + d', d') + 1 stages, with kappa
        # the largest multiplicity at zero of the reversal and d' its degree
        sample = sample_bounded_rank(SampleSpec(8, 4, 1, seed=0))
        cases = [tuple(param.values[:2]) for param in _gate_fixtures()]
        cases.append((build_linearization(pad_grade(sample)).pencil, 1))
        for seed in range(3):
            draw = sample_bounded_rank(SampleSpec(5, 2, 2, seed=40 + seed))
            cases += [(draw, 3), (draw, 4)]
        passes = []
        real_staircase = _staircase

        def counted_staircase(P):
            passes.append([P, 0])
            for stage in real_staircase(P):
                passes[-1][1] += 1
                yield stage

        monkeypatch.setattr(eigenstructure, "_staircase", counted_staircase)
        for poly, grade in cases:
            passes.clear()
            structure = analyze(poly, grade)
            d = max(poly.degree, 0)
            [(reversal, stages)] = passes
            assert reversal == rev(as_skew(poly), d)
            kappa = max(structure.infinite, default=grade - d) - (grade - d)
            eps = max(structure.right_minimal, default=0)
            d_rev = max(reversal.degree, 0)
            assert stages == max(kappa, eps + d_rev, d_rev) + 1


def _gate_fixtures():
    """Polynomial, grade, and whether the finite-degree deficit is positive."""
    from skewstruct.blocks import BlockList, SkewBlock, assemble_skew
    from skewstruct.linearize import build_linearization, pad_grade
    from skewstruct.sampling import SampleSpec, sample_bounded_rank

    # the Monte Carlo draw whose linearization has the block H_1(0)
    draw = sample_bounded_rank(SampleSpec(m=5, d=2, r=2, coeff_range=9, seed=7000099))
    blocks = BlockList.skew([SkewBlock.h(2, Fraction(-1, 3)), SkewBlock.m(1), SkewBlock.k(1)])
    return [
        pytest.param(SkewMatrixPolynomial.zeros(3, 3, grade=2), 2, False, id="zero"),
        pytest.param(M1_PENCIL, 1, False, id="M1"),
        pytest.param(K1_PENCIL, 1, False, id="K1"),
        pytest.param(skew2(P.constant(5), grade=0), 0, False, id="constant"),
        pytest.param(sample_bounded_rank(SampleSpec(5, 2, 2, seed=31)), 2, False, id="generic-5-2-2"),
        pytest.param(sample_bounded_rank(SampleSpec(6, 2, 1, seed=32)), 2, False, id="generic-6-2-1"),
        pytest.param(skew2(x**2), 2, True, id="x-squared"),
        pytest.param(skew2(x**2), 3, True, id="x-squared-regraded"),
        pytest.param(skew2((x - Fraction(1, 2)) * (x + 3)), 2, True, id="rational-roots"),
        pytest.param(skew2(x**2 + 1), 2, True, id="irreducible-quadratic"),
        pytest.param(assemble_skew(blocks), 1, True, id="H-M-and-K-blocks"),
        pytest.param(draw, 2, True, id="pinned-draw"),
        pytest.param(build_linearization(pad_grade(draw)).pencil, 1, True, id="pinned-draw-H1(0)"),
        *(
            pytest.param(_chain(chain, name), max(g.degree for g in chain), True, id=name)
            for name, (chain, _) in CHAIN_FIXTURES.items()
        ),
    ]


QUADRATIC = x**2 + x + 1  # irreducible over Q: its discriminant is -3
CUBIC = x**3 - 2  # irreducible over Q: no rational cube root of 2


def _chain(invariants, seed):
    """Q^T diag(g_1 J, ..., g_k J) Q for a random nonsingular constant Q with entries in {-1, 0, 1}.

    J = [[0, 1], [-1, 0]]. For a chain g_1 | ... | g_k these are the
    paired invariant polynomials, which the congruence hides from the
    reduction.
    """
    n = 2 * len(invariants)
    entries = [[P.zero()] * n for _ in range(n)]
    for i, g in enumerate(invariants):
        entries[2 * i][2 * i + 1], entries[2 * i + 1][2 * i] = g, -g
    grade = max(g.degree for g in invariants)
    rng = random.Random(seed)
    while True:
        q = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        if rank_exact(q) == n:
            break
    cm = MatrixPolynomial(q, grade=0)
    return as_skew((cm.transpose() @ SkewMatrixPolynomial(entries, grade) @ cm).with_grade(grade))


# (invariant chain g_1 | g_2 | g_3, the finite part analyze must read off it)
CHAIN_FIXTURES = {
    # both divide several invariants, each with exponents of its own
    "quadratic-and-cubic": (
        [QUADRATIC, QUADRATIC * CUBIC, QUADRATIC**2 * CUBIC**2],
        {QUADRATIC: (1, 1, 1, 1, 2, 2), CUBIC: (1, 1, 2, 2)},
    ),
    # x + 3 divides g_3 only, and g_1 is constant
    "factor-of-the-last-only": (
        [P.one(), x**2 - 3, (x**2 - 3) ** 2 * (x + 3)],
        {x**2 - 3: (1, 1, 2, 2), x + 3: (1, 1)},
    ),
    # a rational root with a multiplicity above 1 in every invariant
    "rational-root-everywhere": (
        [(x - Fraction(1, 2)) ** 2, (x - Fraction(1, 2)) ** 2 * (x + 1), (x - Fraction(1, 2)) ** 3 * (x + 1)],
        {x - Fraction(1, 2): (2, 2, 2, 2, 3, 3), x + 1: (1, 1, 1, 1)},
    ),
}


def _finite_by_smith(poly):
    """The finite part of analyze, from a Smith reduction run unconditionally."""
    finite = {}
    for g in eigenstructure.skew_smith(as_skew(poly)).invariant_polynomials:
        for factor, exponent in eigenstructure._factor_rational(g):
            finite.setdefault(factor, []).extend([exponent, exponent])
    return {factor: tuple(sorted(mults)) for factor, mults in finite.items()}


class TestIndexSumGate:
    """Smith runs only on a positive finite-degree deficit."""

    @pytest.mark.parametrize("poly, grade, positive", _gate_fixtures())
    def test_matches_smith(self, poly, grade, positive):
        structure = analyze(poly, grade)
        assert (structure.index_sums()[0] > 0) == positive
        assert dict(structure.finite) == _finite_by_smith(poly)

    @pytest.mark.parametrize("name", CHAIN_FIXTURES)
    def test_factor_once_matches_factoring_each_invariant(self, name):
        # analyze factors g_3 alone and reads the other exponents by
        # division; both oracles factor every invariant they find
        chain, expected = CHAIN_FIXTURES[name]
        poly = _chain(chain, name)
        finite = dict(analyze(poly).finite)
        assert finite == expected == _finite_by_smith(poly)
        by_minors = {}
        for g in smith_by_minors(poly):
            for factor, exponent in eigenstructure._factor_rational(g):
                by_minors.setdefault(factor, []).append(exponent)
        assert finite == {factor: tuple(sorted(mults)) for factor, mults in by_minors.items()}

    def test_one_factorization_per_analysis(self, monkeypatch):
        real = eigenstructure._factor_rational
        factored = []

        def counted(g):
            factored.append(g)
            return real(g)

        monkeypatch.setattr(eigenstructure, "_factor_rational", counted)
        chain, _ = CHAIN_FIXTURES["quadratic-and-cubic"]
        analyze(_chain(chain, "quadratic-and-cubic"))
        assert factored == [chain[-1]]

    def test_zero_deficit_skips_smith(self, monkeypatch):
        def no_smith(P):
            raise AssertionError("Smith reduction ran")

        monkeypatch.setattr(eigenstructure, "skew_smith", no_smith)
        assert analyze(M1_PENCIL, 1).finite == ()
        assert analyze(SkewMatrixPolynomial.zeros(3, 3, grade=2)).finite == ()
        with pytest.raises(AssertionError, match="Smith reduction ran"):
            analyze(skew2(x**2), 2)

    def test_negative_deficit_raises(self, monkeypatch):
        real = eigenstructure._read_profile

        def inflated(P, stages):
            rho, indices, at_zero = real(P, stages)
            return rho, indices[:-1] + (indices[-1] + 1,), at_zero

        monkeypatch.setattr(eigenstructure, "_read_profile", inflated)
        with pytest.raises(InternalInconsistency, match="exceed rank"):
            analyze(M1_PENCIL, 1)


def _sympy_factors(poly):
    """{(monic factor, exponent)} of a rational polynomial by sympy's factor_list."""
    import sympy

    lam = sympy.Symbol("lam")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * lam**k for k, c in enumerate(poly.coeffs))
    out = set()
    for factor, exponent in sympy.factor_list(expr, lam)[1]:
        coeffs = sympy.Poly(factor, lam).monic().all_coeffs()
        out.add((P([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]), exponent))
    return out


FACTOR_CASES = {
    # rational roots only: repeated, zero and with non-monic leading coefficients
    "repeated-roots": ((x - 2) ** 3 * (x + 1) ** 2, False),
    "zero-roots": (x**3 * (x - Fraction(1, 2)) ** 2, False),
    "non-monic": (P([Fraction(-7, 3)]) * (3 * x - 2) ** 2 * (5 * x + 4) * x, False),
    "linear": (6 * x + 4, False),
    # a rest of degree 2 or 3 with no rational root is irreducible
    "quadratic": ((x**2 - 2) * (x + 3), False),
    "zero-roots-and-quadratic": (x**2 * (2 * x**2 + 3 * x + 5), False),
    "cubic": ((x**3 - 2) * (2 * x - 1) ** 2, False),
    "cubic-alone": (4 * x**3 + 2 * x + 1, False),
    # a rest of degree 4 or more goes to sympy
    "square-of-quadratic": ((x**2 + 1) ** 2, True),
    "two-quadratics": ((x**2 - 2) * (x**2 + 3), True),
    "quartic-and-root": ((x**4 + 1) * (x - Fraction(1, 3)), True),
    "quintic": (x**5 - x - 1, True),
    # |a_0 * a_n| past the cap: the whole polynomial goes to sympy
    "past-the-cap": ((x - 1001) * (1000 * x + 3) * x, True),
}


class TestFactorRational:
    @pytest.mark.parametrize("name", FACTOR_CASES)
    def test_against_sympy(self, name, monkeypatch):
        poly, needs_sympy = FACTOR_CASES[name]
        real = eigenstructure._factor_by_sympy
        calls = []
        monkeypatch.setattr(eigenstructure, "_factor_by_sympy", lambda ints: calls.append(ints) or real(ints))
        factors = eigenstructure._factor_rational(poly)
        assert len(factors) == len(set(factors))
        assert set(factors) == _sympy_factors(poly)
        assert bool(calls) == needs_sympy

    def test_random_products_against_sympy(self):
        # products of rational linear factors, quadratics and cubics with
        # small coefficients, each to a power of up to 3, times a constant
        rng = random.Random(48)
        for _ in range(80):
            poly = P([Fraction(rng.choice((-5, -2, 1, 3)), rng.randint(1, 4))])
            for _ in range(rng.randint(1, 4)):
                size = rng.choice((2, 2, 3, 4))
                lower = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(size - 1)]
                poly = poly * P(lower + [rng.randint(1, 3)]) ** rng.randint(1, 3)
            assert set(eigenstructure._factor_rational(poly)) == _sympy_factors(poly), str(poly)

    def test_constants_have_no_factors(self):
        assert eigenstructure._factor_rational(P.zero()) == []
        assert eigenstructure._factor_rational(P.constant(Fraction(-3, 4))) == []


class TestSkewConstructor:
    """`CompleteEigenstructure.skew` checks what skew symmetry forces."""

    def test_one_list_feeds_both_sides(self):
        # size 5, grade 2, rank 4: x^2 with (1, 1), and one minimal index 2
        structure = CompleteEigenstructure.skew(5, 2, 4, {x * x: [1, 1]}, [0, 0, 0, 0], [2])
        assert structure == CompleteEigenstructure.build(5, 5, 2, 4, {x * x: [1, 1]}, [0] * 4, [2], [2])
        assert structure.left_minimal == structure.right_minimal == (2,)

    @pytest.mark.parametrize(
        "rank, finite, infinite, minimal, message",
        [
            # an odd rank leaves some list unpaired too; the rank is checked first
            (3, {}, [0, 0, 1], [4], "odd rank"),
            (4, {x: [1, 1, 2]}, [0, 0, 0, 0], [2], "not in pairs"),  # an odd-length list
            (4, {x: [1, 3]}, [0, 0, 0, 0], [2], "not in pairs"),  # an unequal finite pair
            (4, {}, [0, 1, 1, 2], [2], "not in pairs"),  # an unequal infinite pair
            (4, {}, [0, 0, 0, 0], [5], "index sums"),  # the generic index 4, off by one
        ],
    )
    def test_each_violation_raises(self, rank, finite, infinite, minimal, message):
        with pytest.raises(InternalInconsistency, match=message):
            CompleteEigenstructure.skew(5, 2, rank, finite, infinite, minimal)


class TestAnalyze:
    def test_square_of_variable(self):
        e = analyze(skew2(x**2), 2)
        assert e.rank == 2
        assert e.infinite == (0, 0)
        assert e.left_minimal == () and e.right_minimal == ()
        assert e.finite == ((x, (2, 2)),)

    def test_zero_polynomial(self):
        e = analyze(SkewMatrixPolynomial.zeros(3, 3, grade=2), 2)
        assert e.rank == 0
        assert e.finite == ()
        assert e.infinite == ()
        assert e.left_minimal == (0, 0, 0)
        assert e.right_minimal == (0, 0, 0)

    def test_regrade(self):
        e = analyze(skew2(x**2), 3)
        assert e.grade == 3
        assert e.infinite == (1, 1)

    def test_grade_zero_constant(self):
        e = analyze(skew2(P.constant(5), grade=0), 0)
        assert e.grade == 0 and e.rank == 2
        assert e.finite == () and e.infinite == (0, 0)
        assert e.right_minimal == ()

    def test_regrade_downward(self):
        padded = skew2(x**2).with_grade(4)
        e = analyze(padded, 2)
        assert e.grade == 2 and e.infinite == (0, 0)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            analyze(MatrixPolynomial([[x]]), 1)

    def test_any_grade_is_read_without_padding(self):
        # neither the pass over rev(P, deg P) nor skew_smith depends on the
        # grade: analyze at grade g is the analysis of P.with_grade(g), read
        # on P as declared with infinity raised by g - P.grade, so grade 10^6
        # builds no 10^6 + 1 coefficient matrices (the timer turns the
        # seconds that padding took into a failure)
        q = SkewMatrixPolynomial.from_upper(4, {(0, 1): (x - 1) * (x + 2), (2, 3): x - 1})
        padded = q.with_grade(6)
        for g in range(2, 7):
            assert analyze(q, g) == analyze(padded, g) == analyze(q.with_grade(g))

        def hang(signum, frame):
            raise TimeoutError("analyze padded the grade")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            e = analyze(q, 10**6)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert (e.grade, e.rank, e.infinite) == (10**6, 4, (10**6 - 2, 10**6 - 2, 10**6 - 1, 10**6 - 1))
        assert e.finite == ((x - 1, (1, 1, 1, 1)), (x + 2, (1, 1)))

    def test_mixed_blocks_pencil(self):
        pencil = assemble_skew(BlockList.skew([SkewBlock.m(1), SkewBlock.k(1)]))
        e = analyze(pencil, 1)
        assert e.rank == 4
        assert tuple(v for v in e.infinite if v) == (1, 1)
        assert e.left_minimal == (1,) == e.right_minimal

    def test_rational_eigenvalue_factors(self):
        m = skew2((x - Fraction(1, 2)) * (x + 3))
        e = analyze(m, 2)
        assert e.finite == (
            (x - Fraction(1, 2), (1, 1)),
            (x + 3, (1, 1)),
        )

    def test_irreducible_quadratic_factor(self):
        m = skew2(x**2 + 1)
        e = analyze(m, 2)
        assert e.finite == ((x**2 + 1, (1, 1)),)
        # degree-2 factor counts twice per multiplicity in the index sum
        assert sum(e.index_sums()) == e.rank * e.grade

    def test_index_sum_random(self):
        rng = random.Random(17)
        for _ in range(15):
            m = random_skew(rng, rng.randint(2, 4), rng.randint(1, 2))
            e = analyze(m)
            fin, inf, left, right = e.index_sums()
            assert fin + inf + left + right == e.rank * e.grade
            assert e.rank % 2 == 0
            assert e.left_minimal == e.right_minimal


def scramble(rng, pencil):
    """Q^T P Q for a random nonsingular Q with entries in {-1, 0, 1}."""
    n = pencil.rows
    while True:
        q = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        if rank_exact(q) == n:
            break
    cm = MatrixPolynomial(q, grade=0)
    return as_skew((cm.transpose() @ pencil @ cm).with_grade(1))


class TestScrambledBlockPencils:
    # repeated eigenvalues give a positive index-sum deficit, so Smith runs,
    # and the congruence Q^T P Q hides the blocks from the reduction
    @pytest.mark.parametrize(
        "blocks",
        [
            [SkewBlock.h(2, 1), SkewBlock.h(1, 1), SkewBlock.k(1)],
            [SkewBlock.h(3, -1), SkewBlock.h(1, -1)],
            [SkewBlock.h(1, 2), SkewBlock.h(1, 2), SkewBlock.m(1)],
            [SkewBlock.h(2, Fraction(1, 2)), SkewBlock.h(1, Fraction(1, 2)), SkewBlock.k(1)],
            [SkewBlock.h(1, 1), SkewBlock.h(1, -1), SkewBlock.h(1, 1), SkewBlock.m(0)],
            [SkewBlock.h(1, 3), SkewBlock.h(1, 3), SkewBlock.k(2)],
            [SkewBlock.h(2, 0), SkewBlock.h(1, 0), SkewBlock.m(0), SkewBlock.m(0)],
        ],
    )
    def test_analyze_recovers_blocks(self, blocks):
        block_list = BlockList.skew(blocks)
        expected = blocklist_eigenstructure(block_list).to_json_dict()
        pencil = assemble_skew(block_list)
        assert pencil.rows <= 8
        rng = random.Random(str(block_list))
        for _ in range(3):
            assert analyze(scramble(rng, pencil)).to_json_dict() == expected


class TestGradeLaw:
    def test_examples(self):
        full = smallest_infinite_multiplicity_law(skew2(x))
        assert full == (0, 0, False)
        padded = smallest_infinite_multiplicity_law(skew2(x).with_grade(3))
        assert padded == (2, 2, True)

    def test_zero_rank(self):
        with pytest.raises(ZeroRank):
            smallest_infinite_multiplicity_law(SkewMatrixPolynomial.zeros(2, 2, 1))


class TestSameOrbit:
    def test_reflexive(self):
        e = analyze(skew2(x**2), 2)
        assert same_orbit(e, e)

    def test_grade_aware(self):
        a = analyze(skew2(x**2), 2)
        b = analyze(skew2(x**2), 3)
        assert not same_orbit(a, b)


