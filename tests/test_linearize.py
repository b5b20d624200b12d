"""Tests for grade padding and the odd-grade linearization template."""

import random

import pytest

from skewstruct import linearize
from skewstruct.blocks import structure_to_skew_blocks
from skewstruct.eigenstructure import analyze
from skewstruct.errors import EvenGrade, GradeTooSmall, InternalInconsistency, ShapeMismatch
from skewstruct.exact import MatrixPolynomial, RationalPolynomial, SkewMatrixPolynomial, normal_rank
from skewstruct.generic import generic_pencil_structure, generic_poly_structure
from skewstruct.linearize import (
    _template_source,
    build_linearization,
    gsyl_membership,
    linearized_structure,
    pad_grade,
    verify_shift,
)
from skewstruct.sampling import SampleSpec, sample_bounded_rank

P = RationalPolynomial
x = P.variable()


def skew2(p, grade=None):
    return SkewMatrixPolynomial([[P.zero(), p], [-p, P.zero()]], grade)


def random_skew(rng, n, deg, bound=3):
    upper = {
        (i, j): P([rng.randint(-bound, bound) for _ in range(deg + 1)])
        for i in range(n)
        for j in range(i + 1, n)
    }
    return SkewMatrixPolynomial.from_upper(n, upper, grade=deg)


class TestPadGrade:
    def test_entries_identical(self):
        p = skew2(x**2, grade=2)
        padded = pad_grade(p)
        assert padded.grade == 3
        assert padded.entries == p.entries

    def test_structure_laws(self):
        rng = random.Random(21)
        for _ in range(6):
            p = random_skew(rng, 3, rng.randint(1, 2))
            before = analyze(p)
            after = analyze(pad_grade(p))
            assert after.grade == before.grade + 1
            assert after.rank == before.rank
            assert after.finite == before.finite
            assert after.left_minimal == before.left_minimal
            assert after.right_minimal == before.right_minimal
            assert after.infinite == tuple(v + 1 for v in before.infinite)

    def test_double_pad(self):
        p = skew2(x, grade=1)
        twice = pad_grade(pad_grade(p))
        assert analyze(twice).infinite == tuple(
            v + 2 for v in analyze(p).infinite
        )


class TestBuildLinearization:
    def test_grade_one_is_identity(self):
        p = skew2(x + 1, grade=1)
        lin = build_linearization(p)
        assert lin.pencil == p
        assert lin.d == 1 and lin.m == 2

    def test_grade_override(self):
        rng = random.Random(24)
        p = random_skew(rng, 2, 1)
        lin = build_linearization(p.with_grade(3))
        assert (lin.d, lin.pencil.rows) == (3, 6)
        assert lin.source.grade == 3 and lin.source == p.with_grade(3)
        with pytest.raises(EvenGrade):
            build_linearization(p.with_grade(2))

    def test_even_grade_rejected(self):
        with pytest.raises(EvenGrade):
            build_linearization(skew2(x**2, grade=2))

    def test_shape_and_skewness(self):
        rng = random.Random(22)
        for d in (3, 5):
            p = random_skew(rng, 2, d)
            lin = build_linearization(p)
            assert lin.pencil.rows == 2 * d
            assert lin.pencil.is_skew_symmetric()
            assert lin.pencil.grade == 1

    def test_rank_relation(self):
        rng = random.Random(23)
        for _ in range(4):
            d = 3
            m = rng.randint(2, 3)
            p = random_skew(rng, m, d)
            lin = build_linearization(p)
            assert normal_rank(lin.pencil) == normal_rank(p) + m * (d - 1)

    def test_template_blocks(self):
        # d=3, m=1 is degenerate (1x1 skew is zero); use m=2 and inspect blocks
        p = skew2(x**3 * 2 + x * 5 + 7, grade=3)
        lin = build_linearization(p)
        q = lin.pencil
        # block (0,0) = x*A_3 + A_2; A_2 = 0 here
        assert q.entries[0][1] == 2 * x
        # coupling blocks
        assert q.entries[0][2] == -P.one() and q.entries[2][0] == P.one()
        assert q.entries[2][4] == -x and q.entries[4][2] == x
        # block (2,2) = x*A_1 + A_0
        assert q.entries[4][5] == 5 * x + 7


class TestVerifyShift:
    def test_needs_grade_three(self):
        from skewstruct.errors import ParamDomain

        with pytest.raises(ParamDomain):
            verify_shift(skew2(x + 1, grade=1))

    def test_minimal_index_shift_d3(self):
        # a 3x3 polynomial of odd grade 3 with one minimal index
        rng = random.Random(24)
        p = random_skew(rng, 3, 3)
        base = analyze(p)
        report = verify_shift(p)
        assert report.shift == 1
        assert report.all_ok
        assert report.linearized.right_minimal == tuple(
            e + 1 for e in base.right_minimal
        )

    def test_padded_generic_matches_pencil_generic(self):
        # the identity behind the main structural theorem, on a small case:
        # linearize the padded generic polynomial (m=3, d=2, r=1) and compare
        # with the generic pencil (n=9, w=4, r=1), at the level of structures
        m, d, r = 3, 2, 1
        expected = structure_to_skew_blocks(linearized_structure(generic_poly_structure(m, d, r), d + 1))
        assert expected == generic_pencil_structure(m * (d + 1), (m * d + 2 * r) // 2, r)

    def test_mismatch_raises(self, monkeypatch):
        # a pencil analysis that disagrees with the prediction: here the
        # polynomial's own structure stands in for its linearization's
        rng = random.Random(24)
        p = random_skew(rng, 3, 3)
        real_analyze = linearize.analyze
        monkeypatch.setattr(linearize, "analyze", lambda q, grade=None: real_analyze(p))
        with pytest.raises(InternalInconsistency):
            verify_shift(p)


class TestLinearizedStructure:
    CELLS = [(3, 2, 1), (4, 2, 1), (5, 2, 2), (3, 3, 1), (4, 3, 1), (5, 4, 1), (3, 1, 1), (4, 4, 1)]

    def test_map_equals_the_analyzed_linearization(self):
        # low-range draws at odd and even grades, each linearized at every
        # odd grade in {d, d+1, d+2}, plus each cell's zero polynomial; the
        # draws cover finite eigenvalues, irreducible factors of degree
        # above 1 and nonzero multiplicities at infinity at their own grade
        checked = finite = irreducible = at_infinity = 0
        for m, d, r in self.CELLS:
            draws = [sample_bounded_rank(SampleSpec(m, d, r, coeff_range=1, seed=s)) for s in range(40)]
            draws.append(SkewMatrixPolynomial.zeros(m, m, grade=d))
            for draw in draws:
                base = analyze(draw)
                finite += bool(base.finite)
                irreducible += any(f.degree > 1 for f, _ in base.finite)
                at_infinity += any(base.infinite)
                for g in [g for g in (d, d + 1, d + 2) if g % 2]:
                    pencil = build_linearization(draw.with_grade(g)).pencil
                    assert linearized_structure(base, g) == analyze(pencil, 1), (m, d, r, g)
                    checked += 1
        assert checked == 451
        assert (finite, irreducible, at_infinity) == (59, 6, 20)

    def test_grade_errors(self):
        base = analyze(skew2(x**2 + 1, grade=2))
        with pytest.raises(EvenGrade):
            linearized_structure(base, 4)
        with pytest.raises(GradeTooSmall):
            linearized_structure(base, 1)


class TestPaddedLinearization:
    def test_infinite_multiplicities_at_least_one(self):
        # linearizing a padding always yields structure at infinity: the
        # padded leading coefficient is zero, so every multiplicity is >= 1
        rng = random.Random(28)
        for _ in range(5):
            p = random_skew(rng, 3, 2)  # even grade, so the padding is odd
            padded = pad_grade(p)
            pencil = build_linearization(padded).pencil
            e = analyze(pencil, 1)
            base = analyze(p)
            nonzero = tuple(v for v in e.infinite if v)
            assert len(nonzero) >= base.rank
            assert all(v >= 1 for v in nonzero)


class TestGsylMembership:
    def test_roundtrip(self):
        rng = random.Random(25)
        p = random_skew(rng, 2, 3)
        lin = build_linearization(p)
        assert gsyl_membership(lin.pencil, 2, 3)
        assert _template_source(lin.pencil, 2, 3) == p

    def test_detects_tampering(self):
        rng = random.Random(26)
        p = random_skew(rng, 2, 3)
        q = build_linearization(p).pencil
        entries = [list(row) for row in q.entries]
        entries[0][2] = P.zero()  # break a fixed -I coupling
        entries[2][0] = P.zero()
        tampered = SkewMatrixPolynomial(entries, grade=1)
        assert not gsyl_membership(tampered, 2, 3)

    def test_random_pencil_not_member(self):
        rng = random.Random(27)
        q = random_skew(rng, 6, 1)
        assert not gsyl_membership(q, 2, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gsyl_membership(skew2(x), 2, 3)

    def test_grade_one_membership(self):
        assert gsyl_membership(skew2(x + 1, grade=1), 2, 1)

    def test_grade_two_input_is_not_member(self):
        rng = random.Random(28)
        assert not gsyl_membership(random_skew(rng, 6, 2), 2, 3)

    def test_non_skew_pencil_is_not_member(self):
        # the template with a symmetric part in its first diagonal block:
        # the read-off coefficients reassemble it, but it is not skew
        rng = random.Random(29)
        entries = [list(row) for row in build_linearization(random_skew(rng, 2, 3)).pencil.entries]
        entries[0][1] += x + 1
        entries[1][0] += x + 1
        q = MatrixPolynomial(entries, grade=1)
        assert not q.is_skew_symmetric()
        assert not gsyl_membership(q, 2, 3)
