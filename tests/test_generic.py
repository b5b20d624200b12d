"""Tests for the generic bounded-rank structure formulas."""

import pytest

from skewstruct.blocks import BlockList, SkewBlock
from skewstruct.errors import ParamDomain
from skewstruct.generic import (
    generic_pencil_structure,
    generic_poly_structure,
    structure_consistency,
)


def all_match(report) -> bool:
    """Every identity of a ConsistencyReport holds."""
    return report.sizes_match and report.counts_match and report.remainders_match and report.blocklists_match


# grade-2 reference grid: (m, r) -> descending minimal index list
GRADE2_MINIMAL_INDICES = {
    (3, 1): [2],
    (4, 1): [1, 1],
    (5, 1): [1, 1, 0],
    (6, 1): [1, 1, 0, 0],
    (7, 1): [1, 1, 0, 0, 0],
    (5, 2): [4],
    (6, 2): [2, 2],
    (7, 2): [2, 1, 1],
    (7, 3): [6],
}


class TestGenericPencil:
    @pytest.mark.parametrize(
        "n,w,r,expected",
        [
            (5, 2, 1, [SkewBlock.m(1), SkewBlock.k(1)]),
            (3, 1, 1, [SkewBlock.m(0), SkewBlock.k(1)]),
            (7, 3, 1, [SkewBlock.m(2), SkewBlock.k(1)]),
        ],
    )
    def test_examples(self, n, w, r, expected):
        assert generic_pencil_structure(n, w, r) == BlockList.skew(expected)

    def test_size_and_rank_accounting(self):
        for n in range(2, 13):
            for w in range(1, (n - 1) // 2 + 1):
                for r in range(0, w + 1):
                    bl = generic_pencil_structure(n, w, r)
                    assert bl.total_rows == n
                    assert bl.rank == 2 * w
                    assert sum(1 for b in bl.blocks if b.kind == "K") == r

    def test_param_domain(self):
        with pytest.raises(ParamDomain):
            generic_pencil_structure(1, 1, 0)
        with pytest.raises(ParamDomain):
            generic_pencil_structure(4, 2, 0)  # 2w > n-1
        with pytest.raises(ParamDomain):
            generic_pencil_structure(5, 2, 3)  # r > w


class TestGenericPolynomial:
    @pytest.mark.parametrize("key,expected", sorted(GRADE2_MINIMAL_INDICES.items()))
    def test_grade2_grid(self, key, expected):
        m, r = key
        e = generic_poly_structure(m, 2, r)
        assert sorted(e.left_minimal, reverse=True) == expected
        assert e.right_minimal == e.left_minimal
        assert e.finite == () and not any(e.infinite)
        assert e.rank == 2 * r

    def test_minimal_index_shape(self):
        for m in range(3, 11):
            for d in range(1, 6):
                for r in range(1, (m - 1) // 2 + 1):
                    e = generic_poly_structure(m, d, r)
                    mins = e.left_minimal
                    assert len(mins) == m - 2 * r
                    assert sum(mins) == r * d
                    assert max(mins) - min(mins) <= 1

    def test_single_formula_for_both_parities(self):
        # coincident parameters run through one code path; spot-check that odd
        # grades obey the same balanced-partition description
        e = generic_poly_structure(5, 3, 2)
        assert e.left_minimal == (6,)
        e = generic_poly_structure(6, 3, 2)
        assert e.left_minimal == (3, 3)

    def test_param_domain(self):
        with pytest.raises(ParamDomain):
            generic_poly_structure(2, 2, 1)  # full rank: 2r = m
        with pytest.raises(ParamDomain):
            generic_poly_structure(5, 0, 1)
        with pytest.raises(ParamDomain):
            generic_poly_structure(1, 2, 0)


class TestStructureConsistency:
    @pytest.mark.parametrize(
        "m,d,r,beta,alpha,t",
        [
            (5, 2, 2, 4, 5, 0),
            (7, 2, 2, 1, 2, 1),
            (4, 2, 1, 1, 2, 0),
        ],
    )
    def test_examples(self, m, d, r, beta, alpha, t):
        rep = structure_consistency(m, d, r)
        assert rep.poly.beta == beta
        assert rep.pencil.alpha == alpha
        assert rep.poly.t == t == rep.pencil.s
        assert all_match(rep)

    def test_exhaustive_sweep(self):
        for m in range(3, 31):
            for d in range(2, 11, 2):
                for r in range(1, (m - 1) // 2 + 1):
                    assert all_match(structure_consistency(m, d, r))

    def test_odd_grade_rejected(self):
        with pytest.raises(ParamDomain):
            structure_consistency(5, 3, 2)
