"""Tests for sampling, perturbation, and the floating backend."""

import collections
import dataclasses
import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from skewstruct.blocks import BlockList, SkewBlock, assemble_skew
from skewstruct.eigenstructure import analyze, same_orbit
from skewstruct import exact, floating, sampling
from skewstruct.errors import AttemptsExhausted, GradeTooSmall, ParamDomain, RankVerificationFailed
from skewstruct.exact import (
    MatrixPolynomial,
    RationalPolynomial,
    SkewMatrixPolynomial,
    as_skew,
    normal_rank,
    rank_exact,
)
from skewstruct.floating import DEFAULT_TOL, analyze_float
from skewstruct.generic import generic_pencil_structure, generic_poly_structure
from skewstruct.sampling import (
    DEFAULT_COEFF_RANGE,
    SampleSpec,
    monte_carlo_genericity,
    perturb_rank_increase,
    sample_bounded_rank,
)

from oracles import (
    normal_rank_by_minors,
    prefix_dims_by_toeplitz,
    sample_by_fractions,
)

P = RationalPolynomial
x = P.variable()


class TestSampling:
    def test_draw_properties(self):
        spec = SampleSpec(m=5, d=2, r=2, coeff_range=5, seed=1)
        s = sample_bounded_rank(spec)
        assert s.rows == 5 and s.grade == 2
        assert s.is_skew_symmetric()
        assert normal_rank(s) == 4

    def test_pencil_draw(self):
        s = sample_bounded_rank(SampleSpec(m=3, d=1, r=1, seed=9))
        assert normal_rank(s) == 2

    def test_determinism(self):
        spec = SampleSpec(m=4, d=2, r=1, seed=123)
        assert sample_bounded_rank(spec) == sample_bounded_rank(spec)

    def test_congruence_preserves_structure(self):
        # constant nonsingular congruence is unimodular, so the complete
        # eigenstructure is invariant under it
        import random

        from skewstruct.exact import MatrixPolynomial, as_skew, rank_exact
        from skewstruct.eigenstructure import same_orbit

        rng = random.Random(31)
        spec = SampleSpec(m=4, d=2, r=1, seed=5)
        s = sample_bounded_rank(spec)
        base = analyze(s, spec.d)
        for _ in range(3):
            while True:
                q = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
                if rank_exact(q) == 4:
                    break
            qm = MatrixPolynomial(q, grade=0)
            congruent = as_skew((qm.transpose() @ s @ qm).with_grade(spec.d))
            assert same_orbit(analyze(congruent, spec.d), base)

    def test_matches_fraction_product(self, monkeypatch):
        # the integer assembly must give exactly the draw of the direct
        # Fraction product, retries included: coeff_range=1 makes singular
        # congruences common, so the rank_exact(C) < m retry really runs
        real_rank = sampling.rank_exact
        singular = 0

        def counting_rank(matrix):
            nonlocal singular
            rank = real_rank(matrix)
            singular += rank < len(matrix)
            return rank

        monkeypatch.setattr(sampling, "rank_exact", counting_rank)
        shapes = [(4, 2, 1), (5, 2, 2), (6, 4, 2), (7, 2, 3), (5, 3, 2), (3, 1, 1)]
        for m, d, r in shapes:
            for coeff_range in (DEFAULT_COEFF_RANGE, 1):
                for seed in range(5):
                    spec = SampleSpec(m, d, r, coeff_range, seed)
                    got, want = sample_bounded_rank(spec), sample_by_fractions(spec)
                    assert got == want, spec
                    assert type(got) is type(want) is SkewMatrixPolynomial
                    assert got.grade == want.grade == d
        assert singular > 0

    def test_every_branch_matches_fraction_product(self, monkeypatch):
        # each way an attempt can end is reached, and the draw is still the
        # Fraction product's: a singular C, a block B of rank r at x = 0, a B
        # of rank r first at a later point, and a B whose normal rank falls
        # short of r, rejected after all r*d + 1 of its points
        real_rank, real_point_ranks = sampling.rank_exact, sampling._point_ranks
        singular = 0
        blocks = []

        def counting_rank(matrix):
            nonlocal singular
            rank = real_rank(matrix)
            singular += rank < len(matrix)
            return rank

        def recording_point_ranks(block):
            read = []
            blocks.append((block, read))
            for x, rank in real_point_ranks(block):
                read.append((x, rank))
                yield x, rank

        monkeypatch.setattr(sampling, "rank_exact", counting_rank)
        monkeypatch.setattr(sampling, "_point_ranks", recording_point_ranks)
        specs = [SampleSpec(5, 2, 2, 1, seed) for seed in range(3)] + [SampleSpec(3, 1, 1, 1, 90)]
        for spec in specs:
            assert sample_bounded_rank(spec) == sample_by_fractions(spec), spec
        branches = collections.Counter()
        for block, read in blocks:
            x, rank = read[-1]
            if rank == block.rows:
                branches["at 0" if x == 0 else "past 0"] += 1
            else:
                assert len(read) == block.rows * block.grade + 1
                branches["short"] += 1
        assert singular > 0
        assert branches == {"past 0": 3, "short": 1, "at 0": 1}

    def test_attempts_exhausted_alike(self, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_ATTEMPTS", 1)
        outcomes = []
        for seed in range(30):
            spec = SampleSpec(m=5, d=2, r=2, coeff_range=1, seed=seed)
            results = []
            for draw in (sample_bounded_rank, lambda spec: sample_by_fractions(spec, max_attempts=1)):
                try:
                    results.append(draw(spec))
                except AttemptsExhausted as exc:
                    results.append(str(exc))
            assert results[0] == results[1], spec
            outcomes.append(isinstance(results[0], str))
        assert any(outcomes) and not all(outcomes)

    def test_invalid_spec(self):
        with pytest.raises(ParamDomain):
            SampleSpec(m=4, d=2, r=2, seed=0)  # 2r > m-1
        with pytest.raises(ParamDomain):
            SampleSpec(m=4, d=2, r=1, coeff_range=0, seed=0)


class TestNullity:
    def test_examples(self):
        assert floating._nullity(np.diag([1.0, 1e-15]), 2, 1e-8) == 1
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
        assert floating._nullity(q, 4, 1e-8) == 0
        assert floating._nullity(q, 2, 1e-8) == 0
        assert floating._nullity(np.zeros((3, 2)), 2, 1e-8) == 2
        assert floating._nullity(np.zeros((3, 2)), 0, 1e-8) == 0

    def test_tol_guard(self):
        # analyze_float checks the tolerance once; _nullity reads a floor
        pencil = assemble_skew(BlockList.skew([SkewBlock.h(1, 2), SkewBlock.m(0)]))
        for tol_rel in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ParamDomain, match="tol_rel must be positive and finite"):
                analyze_float(pencil, 1, tol_rel)

    def test_the_grade_is_checked_before_the_tolerance(self):
        pencil = assemble_skew(BlockList.skew([SkewBlock.h(1, 2), SkewBlock.m(0)]))
        with pytest.raises(GradeTooSmall):
            analyze_float(pencil, 0, 0.0)


class TestPerturbation:
    def test_zero_base(self):
        q = SkewMatrixPolynomial.zeros(3, 3, grade=1)
        result = perturb_rank_increase(q, r=1, k=2)
        assert result.base_rank == 0 and result.target_rank == 2
        assert normal_rank(result.polynomial) == 2
        # E has two unit entries: distance is exactly (1/2) * sqrt(2)
        assert result.distance.squared == Fraction(1, 2)

    def test_distance_scaling(self):
        q = SkewMatrixPolynomial.zeros(5, 5, grade=2)
        for k in (1, 10, 100):
            result = perturb_rank_increase(q, r=2, k=k)
            assert result.distance.squared == Fraction(4, k * k)
            assert result.distance.value == pytest.approx(2.0 / k)

    def test_rank_increase_from_nonzero(self):
        base = assemble_skew(BlockList.skew([SkewBlock.m(1), SkewBlock.m(0), SkewBlock.m(0)]))
        result = perturb_rank_increase(base, r=2, k=10)
        assert normal_rank(result.polynomial) == 4
        assert result.base_rank == 2

    def test_point_is_the_first_to_attain_the_normal_rank(self):
        # the evaluation points are 0, 1, -1, 2, ...; each factor vanishes
        # at the points before the expected one
        for factor, expected in ((x, 1), (x * (x - 1), -1), (x * (x - 1) * (x + 1), 2)):
            base = SkewMatrixPolynomial.from_upper(5, {(0, 1): factor}, grade=factor.degree)
            result = perturb_rank_increase(base, r=2, k=3)
            assert result.point == expected and isinstance(result.point, Fraction)
            assert rank_exact(base.evaluate(result.point)) == normal_rank(base) == 2
            assert normal_rank(result.polynomial) == 4

    def test_point_comes_from_the_normal_rank_pass(self, monkeypatch):
        # normal_rank evaluates no point, and the first point of rank 2 is
        # the fourth: rank_exact runs once at each of 0, 1, -1 and 2
        calls = []
        real_rank = exact.rank_exact

        def counted_rank(matrix):
            calls.append(1)
            return real_rank(matrix)

        monkeypatch.setattr(exact, "rank_exact", counted_rank)
        monkeypatch.setattr(sampling, "rank_exact", counted_rank)
        factor = x * (x - 1) * (x + 1)
        base = SkewMatrixPolynomial.from_upper(5, {(0, 1): factor}, grade=3)
        assert perturb_rank_increase(base, r=2, k=3).point == 2
        assert len(calls) == 4

    def test_target_must_exceed_current(self):
        base = assemble_skew(BlockList.skew([SkewBlock.m(1), SkewBlock.m(0), SkewBlock.m(0)]))
        with pytest.raises(ParamDomain):
            perturb_rank_increase(base, r=1, k=2)

    def test_room_required(self):
        q = SkewMatrixPolynomial.zeros(4, 4, grade=1)
        with pytest.raises(ParamDomain):
            perturb_rank_increase(q, r=2, k=2)  # 2r = 4 > m-1

    def test_k_must_be_positive(self):
        q = SkewMatrixPolynomial.zeros(3, 3, grade=1)
        for k in (0, -2):
            with pytest.raises(ParamDomain):
                perturb_rank_increase(q, r=1, k=k)

    def test_near_parallel_kernel_basis(self):
        # the kernel basis of u v^T - v u^T comes in near-parallel pairs
        # (10 e0 + e2, 10 e0 + e4), so the distance bound needs Gram-Schmidt
        m = 7
        u = [1, 0, -10, 0, -10, 0, 0]
        v = [0, 1, 0, -10, 0, -10, 0]
        q = [[u[i] * v[j] - v[i] * u[j] for j in range(m)] for i in range(m)]
        base = as_skew(MatrixPolynomial.from_coefficients([q], grade=0))
        result = perturb_rank_increase(base, r=3, k=1)
        assert result.base_rank == 2 and normal_rank(result.polynomial) == 6
        assert result.distance.squared <= 4

    @pytest.mark.parametrize("m,d,r1,r", [(5, 2, 1, 2), (7, 2, 1, 3), (7, 3, 2, 3), (6, 2, 1, 2)])
    def test_sampled_bases(self, m, d, r1, r):
        k = 7
        for seed in range(6):
            base = sample_bounded_rank(SampleSpec(m=m, d=d, r=r1, seed=seed))
            result = perturb_rank_increase(base, r=r, k=k)
            assert result.base_rank == 2 * r1
            assert normal_rank(result.polynomial) == 2 * r
            if m <= 5:
                assert normal_rank_by_minors(result.polynomial) == 2 * r
            assert result.distance.squared <= Fraction(2 * (r - r1), k * k)
            at_point = base.evaluate(result.point)
            e = result.perturbation
            assert all(
                sum(at_point[i][t] * e[t][j] for t in range(m)) == 0
                for i in range(m)
                for j in range(m)
            )


class TestMonteCarlo:
    def test_small_run_matches(self):
        spec = SampleSpec(m=4, d=2, r=1, seed=7)
        report = monte_carlo_genericity(spec, trials=12)
        assert report.trials == 12
        assert report.matches >= 11
        assert same_orbit(report.expected, generic_poly_structure(4, 2, 1))

    def test_determinism(self):
        spec = SampleSpec(m=3, d=2, r=1, seed=42)
        a = monte_carlo_genericity(spec, trials=6)
        b = monte_carlo_genericity(spec, trials=6)
        assert a == b  # elapsed is excluded from comparison

    def test_mismatch_seeds_replayable(self):
        spec = SampleSpec(m=3, d=2, r=1, seed=0)
        report = monte_carlo_genericity(spec, trials=10)
        for seed in report.mismatch_seeds:
            draw = sample_bounded_rank(spec.with_seed(seed))
            assert not same_orbit(analyze(draw, spec.d), report.expected)

    def test_rejects_nonpositive_trials(self):
        for trials in (0, -3):
            with pytest.raises(ParamDomain):
                monte_carlo_genericity(SampleSpec(m=3, d=2, r=1, seed=1), trials)

    def test_json_fields(self):
        report = monte_carlo_genericity(SampleSpec(m=3, d=2, r=1, seed=1), trials=3)
        data = report.to_json_dict()
        assert set(data) == {"trials", "matches", "mismatch_seeds", "mismatches", "expected", "elapsed"}


@pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=repr)
def test_integer_parameters_take_exactly_ints(bad):
    # True == 1 and 2.0 == 2, but neither is a size, grade, rank, range or
    # count: every integer parameter refuses a value that is not exactly an
    # int with ParamDomain, before it reaches a structure's JSON, a block
    # or randrange
    zero = SkewMatrixPolynomial.zeros(3, 3, grade=1)
    calls = [
        (generic_poly_structure, (bad, 2, 1)),
        (generic_poly_structure, (3, bad, 1)),
        (generic_poly_structure, (3, 2, bad)),
        (generic_pencil_structure, (bad, 2, 1)),
        (generic_pencil_structure, (5, bad, 1)),
        (generic_pencil_structure, (5, 2, bad)),
        (SampleSpec, (3, bad, 1)),
        (SampleSpec, (3, 2, 1, bad)),
        (SampleSpec, (3, 2, 1, 9, bad)),
        (monte_carlo_genericity, (SampleSpec(3, 2, 1), bad)),
        (perturb_rank_increase, (zero, bad, 1)),
        (perturb_rank_increase, (zero, 1, bad)),
    ]
    for call, args in calls:
        with pytest.raises(ParamDomain, match="must be an integer"):
            call(*args)


def _sweep_pencils(seed, sizes, count):
    """(block list, pencil) of the bench's scrambled structured_blocks at Random(seed), `count` at each size."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(count):
            block_list = workloads.structured_blocks(rng, n)
            yield block_list, workloads.scramble(rng, assemble_skew(block_list))


def _raised(structure, grade):
    """`structure` read at `grade`: every multiplicity at infinity raised by the grade's rise."""
    rise = grade - structure.grade
    return dataclasses.replace(structure, grade=grade, infinite=tuple(k + rise for k in structure.infinite))


class TestAnalyzeFloat:
    def test_well_separated_pencil(self):
        structure = BlockList.skew([SkewBlock.h(1, 2), SkewBlock.h(1, -3), SkewBlock.m(0)])
        pencil = assemble_skew(structure)
        exact = analyze(pencil, 1)
        numeric = analyze_float(pencil, 1)
        assert numeric.rank == exact.rank
        assert numeric.infinite == exact.infinite
        assert numeric.left_minimal == exact.left_minimal
        roots = sorted(root.real for root, _ in numeric.finite)
        assert roots == pytest.approx([-3.0, 2.0])
        assert all(mults == (1, 1) for _, mults in numeric.finite)

    def test_repeated_eigenvalue(self):
        pencil = assemble_skew(BlockList.skew([SkewBlock.h(2, 1), SkewBlock.m(1)]))
        exact = analyze(pencil, 1)
        numeric = analyze_float(pencil, 1)
        assert numeric.rank == exact.rank
        assert numeric.infinite == exact.infinite
        assert numeric.left_minimal == exact.left_minimal == (1,)
        [(root, mults)] = numeric.finite
        assert (root.real, root.imag) == pytest.approx((1.0, 0.0), abs=1e-6)
        assert mults == exact.finite[0][1] == (2, 2)

    @pytest.mark.parametrize("grade", [1, 2])
    def test_jordan_block_of_size_three(self, grade):
        # the QZ eigenvalues of H_3(3) spread by about eps^(1/3); one candidate
        # per cluster, at its mean, reads the Toeplitz ranks at 3 correctly
        q = MatrixPolynomial([[int(j >= i) for j in range(8)] for i in range(8)], grade=0)
        pencil = assemble_skew(BlockList.skew([SkewBlock.h(3, 3), SkewBlock.h(1, 3)]))
        scrambled = as_skew((q.transpose() @ pencil @ q).with_grade(grade))
        exact = analyze(scrambled, grade)
        numeric = analyze_float(scrambled, grade)
        assert (numeric.rank, numeric.infinite, numeric.left_minimal) == (
            exact.rank,
            exact.infinite,
            exact.left_minimal,
        )
        [(root, mults)] = numeric.finite
        assert (root.real, root.imag) == pytest.approx((3.0, 0.0), abs=1e-6)
        assert mults == exact.finite[0][1] == (1, 1, 3, 3)

    def test_stages_are_the_exact_toeplitz_nullities(self):
        # a local profile's prefix dimensions, here at z = 0, are the
        # nullities of T_k, the exact dim S_k: singular, non-square, constant,
        # zero, and read at a grade above the degree
        singular = assemble_skew(BlockList.skew([SkewBlock.m(1), SkewBlock.h(1, 2), SkewBlock.k(1)]))
        constant = MatrixPolynomial([[1, 2, 0], [2, 4, 0]], grade=0)
        polys = [
            singular,
            singular.with_grade(2),
            MatrixPolynomial([[x, 1, 0], [0, x, 1]]),
            MatrixPolynomial([[x**2, x, 0], [x, 1, x - 1], [0, 0, x**2]]),
            constant,
            constant.with_grade(2),
            SkewMatrixPolynomial.zeros(2, 2, 1),
        ]
        last = 7
        for poly in polys:
            shifted = floating._shifted_coeffs(floating._coeff_arrays(poly), 0)
            floor = floating._floor(shifted, DEFAULT_TOL)
            local = [floating._nullity(floating._toeplitz(shifted, k), (k + 1) * poly.cols, floor) for k in range(last + 1)]
            assert local == prefix_dims_by_toeplitz(poly, last), str(poly)

    def test_impossible_profile_is_a_numeric_failure(self, monkeypatch):
        # a positive deficit that no candidate fills fails the index sum
        pencil = assemble_skew(BlockList.skew([SkewBlock.h(1, 2), SkewBlock.m(0)]))
        monkeypatch.setattr(floating, "_eigenvalue_candidates", lambda coeffs: [])
        with pytest.raises(RankVerificationFailed, match="index sums"):
            analyze_float(pencil, 1)

    def test_zero_deficit_runs_no_qz(self, monkeypatch):
        # by the index sum theorem there is no finite part to read
        def unreachable(coeffs):
            raise AssertionError("eigenvalue candidates read at a zero deficit")

        monkeypatch.setattr(floating, "_eigenvalue_candidates", unreachable)
        pencil = assemble_skew(BlockList.skew([SkewBlock.k(1), SkewBlock.m(1)]))
        draw = sample_bounded_rank(SampleSpec(m=5, d=2, r=2, seed=0))
        for poly, grade in ((pencil, 1), (pencil, 3), (draw, 2), (SkewMatrixPolynomial.zeros(2, 2, 1), 1)):
            assert analyze_float(poly, grade) == analyze(poly, grade)

    def test_a_grade_above_the_degree_reads_the_declared_coefficients(self, monkeypatch):
        # QZ runs on P as declared, not on P padded to the grade, so the
        # finite part is the one read at P's own grade, roots included
        real, handed = floating._eigenvalue_candidates, []

        def spy(coeffs):
            handed.append(len(coeffs))
            return real(coeffs)

        monkeypatch.setattr(floating, "_eigenvalue_candidates", spy)
        pencil = assemble_skew(BlockList.skew([SkewBlock.h(2, 1), SkewBlock.h(1, -3), SkewBlock.m(1)]))
        own = analyze_float(pencil)
        for grade in (2, 5):
            handed.clear()
            numeric = analyze_float(pencil, grade)
            assert handed == [pencil.grade + 1]
            assert numeric == _raised(own, grade)

    def test_the_answer_does_not_depend_on_the_requested_grade(self):
        # at a grade above the degree the answer is the one at P's own grade
        # with infinity raised, or a raise if that one raises: the pencil of
        # the sweep at Random(7) that raises at grade 1 raises at 2 and 3
        blocks = "H_3(-2/1) + K_1 + M_0 + M_0"
        [pencil] = [p for b, p in _sweep_pencils(7, (6, 8, 10, 12), 25) if str(b) == blocks]

        def outcome(grade):
            try:
                return analyze_float(pencil, grade)
            except RankVerificationFailed:
                return "raises"

        own = outcome(1)
        for grade in (2, 3):
            assert outcome(grade) == (own if own == "raises" else _raised(own, grade))

    def test_a_rounded_zero_has_no_sign(self, monkeypatch):
        # QZ's -1e-12 for the eigenvalue 0 rounds to -0.0, which would print
        # as root(-0-0j) beside root(+0+0j) for the same eigenvalue
        pencil = assemble_skew(BlockList.skew([SkewBlock.h(1, 0), SkewBlock.m(0)]))
        monkeypatch.setattr(floating, "_eigenvalue_candidates", lambda coeffs: [complex(-1e-12, -1e-12)])
        [(root, mults)] = analyze_float(pencil, 1).finite
        assert mults == (1, 1)
        assert str(root) == "root(+0+0j)"

    def test_infinite_detection(self):
        pencil = assemble_skew(BlockList.skew([SkewBlock.k(1), SkewBlock.m(1)]))
        numeric = analyze_float(pencil, 1)
        assert numeric.infinite == (0, 0, 1, 1)
        assert numeric.left_minimal == (1,)

    def test_grade_shift(self):
        sample = sample_bounded_rank(SampleSpec(m=3, d=2, r=1, seed=3))
        numeric = analyze_float(sample, 3)
        assert min(numeric.infinite) >= 1

    def test_zero(self):
        numeric = analyze_float(SkewMatrixPolynomial.zeros(2, 2, 1), 1)
        assert numeric.rank == 0 and numeric.left_minimal == (0, 0)

    def test_agrees_with_exact_on_random_draws(self):
        for seed in range(4):
            draw = sample_bounded_rank(SampleSpec(m=5, d=2, r=2, seed=seed))
            exact = analyze(draw, 2)
            numeric = analyze_float(draw, 2)
            assert numeric.rank == exact.rank
            assert numeric.infinite == exact.infinite
            assert numeric.left_minimal == exact.left_minimal
            assert len(numeric.finite) == len(exact.finite)

    @staticmethod
    def _scrambled_sweep(grade, seed=2024, sizes=(6, 8, 10), count=12):
        """The pencils of the bench's scrambled structured_blocks at Random(seed),
        `count` at each size, at `grade`: each float answer must be the exact
        one; returns the block lists of those that raise RankVerificationFailed."""
        raised = []
        for block_list, pencil in _sweep_pencils(seed, sizes, count):
            exact = analyze(pencil, grade)
            try:
                numeric = analyze_float(pencil, grade)
            except RankVerificationFailed:
                raised.append(str(block_list))
                continue
            assert (numeric.rank, numeric.infinite, numeric.left_minimal, numeric.right_minimal) == (
                exact.rank,
                exact.infinite,
                exact.left_minimal,
                exact.right_minimal,
            ), str(block_list)
            assert sorted(m for _, m in numeric.finite) == sorted(m for _, m in exact.finite), str(block_list)
            assert all(str(v) != "-0.0" for root, _ in numeric.finite for v in (root.real, root.imag)), str(block_list)
        return raised

    def test_scrambled_sweep_agrees_or_raises(self):
        # none of these 36 raises: four have a spurious eigenvalue candidate
        # whose impossible local profile must rule the candidate out, not
        # end the analysis
        assert self._scrambled_sweep(1) == []

    @pytest.mark.parametrize("grade", [2, 3])
    def test_scrambled_sweep_above_the_degree(self, grade):
        # the same pencils read at a grade above their degree 1: the
        # multiplicities at infinity of rev(P, 1), raised by grade - 1
        assert self._scrambled_sweep(grade) == []

    @pytest.mark.parametrize("seed", [7, 11])
    def test_scrambled_sweep_at_more_seeds(self, seed):
        # 100 pencils at n = 6-12, at grades 1-3; only the one that raises
        # today may raise: the float backend over-counts the eigenvalue of
        # H_3(-2), and the index sum fails at every grade
        for grade in (1, 2, 3):
            raised = self._scrambled_sweep(grade, seed, (6, 8, 10, 12), 25)
            assert set(raised) <= {"H_3(-2/1) + K_1 + M_0 + M_0"}, grade

    def test_once_missed_eigenvalue_is_found(self):
        # (x + 1) C for a constant skew C of rank 4: H_1(-1) + H_1(-1) + M_0 + M_0
        # scrambled. At the QZ eigenvalue z, P(z) is rounding noise against
        # the coefficients but not against its own largest singular value:
        # scaled by P(z) itself, order 0 of the local profile would read full
        # rank, z would be missed, and the index sum would raise. Scaled by
        # the Taylor coefficients at z, it reads x + 1 with (1, 1, 1, 1), as
        # analyze does
        upper = {
            (0, 1): -1, (0, 2): -2, (0, 3): -1, (0, 5): -1,
            (1, 2): -2, (1, 3): -1, (1, 4): 1, (1, 5): -1,
            (2, 5): -1,
            (3, 4): -1, (3, 5): -1,
        }
        pencil = SkewMatrixPolynomial.from_upper(6, {ij: c * (x + 1) for ij, c in upper.items()}, grade=1)
        exact = analyze(pencil)
        assert exact.finite == ((x + 1, (1, 1, 1, 1)),)
        numeric = analyze_float(pencil, 1)
        assert (numeric.rank, numeric.infinite, numeric.left_minimal) == (
            exact.rank,
            exact.infinite,
            exact.left_minimal,
        )
        [(root, mults)] = numeric.finite
        assert (root.real, root.imag) == pytest.approx((-1.0, 0.0), abs=1e-6)
        assert mults == (1, 1, 1, 1)
