"""Tests for the three codimension computation paths."""

import random
from fractions import Fraction

import pytest
from oracles import codim_general_by_tangent, dim_hom_dense

from skewstruct.blocks import BlockList, GeneralBlock, SkewBlock, assemble_skew
from skewstruct.codimension import (
    codim_blocksum,
    codim_general,
    codim_pencil_closed,
    codim_poly_generic,
    codim_tangent,
    dim_hom,
    pencil_codim_reports,
)
from skewstruct.errors import FlavorMismatch, NotSkewSymmetric, ParamDomain
from skewstruct.exact import MatrixPolynomial, RationalPolynomial
from skewstruct.generic import generic_pencil_structure
from skewstruct.linearize import build_linearization, pad_grade
from skewstruct.points import INFINITY, SymbolicPoint
from skewstruct.sampling import SampleSpec, sample_bounded_rank

P = RationalPolynomial
x = P.variable()


class TestBlocksum:
    def test_examples(self):
        assert codim_blocksum(BlockList.skew([SkewBlock.m(1), SkewBlock.k(1)])) == 3
        assert codim_blocksum(BlockList.skew([SkewBlock.m(1), SkewBlock.m(1)])) == 4
        assert codim_blocksum(BlockList.skew([SkewBlock.k(1)])) == 1

    @pytest.mark.parametrize(
        "blocks, expected",
        [
            ([SkewBlock.k(2)], 2),
            ([SkewBlock.h(1, 2)], 1),
            ([SkewBlock.h(2, 0), SkewBlock.h(1, 0)], 7),
            ([SkewBlock.h(1, 0), SkewBlock.h(1, 1)], 2),
            ([SkewBlock.k(2), SkewBlock.m(0)], 6),
        ],
    )
    def test_eigenvalue_blocks(self, blocks, expected):
        # the Dmytryshyn-Kågström-Sergeichuk count: blocks at one point add
        # q_1 + 5 q_2 + ...; each M block adds the size of the H and K blocks
        assert codim_blocksum(BlockList.skew(blocks)) == expected

    def test_one_block_codimensions(self):
        # the lemma behind the Hom count: alone, H_k and K_k have
        # codimension k and M_k has 0, so the involution's trace on each
        # block's own End is its rank
        blocks = [(SkewBlock.m(0), 0)]
        for k in range(1, 7):
            blocks += [(SkewBlock.h(k, 0), k), (SkewBlock.k(k), k), (SkewBlock.m(k), 0)]
        for block, expected in blocks:
            structure = BlockList.skew([block])
            assert codim_tangent(assemble_skew(structure)) == codim_blocksum(structure) == expected, str(block)

    def test_needs_a_skew_list(self):
        with pytest.raises(FlavorMismatch):
            codim_blocksum(BlockList.general([]))
        # and codim_general a general one: a skew list's blocks are not in the Hom table
        with pytest.raises(FlavorMismatch, match="codim_general needs a general block list"):
            codim_general(BlockList.skew([SkewBlock.m(1)]))

    def test_symbol_renaming_invariance(self):
        a, b = SymbolicPoint("a"), SymbolicPoint("b")
        first = [SkewBlock.h(2, a), SkewBlock.h(1, a), SkewBlock.h(1, b), SkewBlock.m(1)]
        renamed = [SkewBlock.h(2, b), SkewBlock.h(1, b), SkewBlock.h(1, a), SkewBlock.m(1)]
        value = codim_blocksum(BlockList.skew(first))
        assert value == codim_blocksum(BlockList.skew(renamed)) == 7 + 1 + 8
        # a rational point in place of a symbol gives the same count
        rational = [SkewBlock.h(2, 0), SkewBlock.h(1, 0), SkewBlock.h(1, b), SkewBlock.m(1)]
        assert codim_blocksum(BlockList.skew(rational)) == value

    def test_equals_tangent_rank_on_every_small_list(self):
        # every skew list with n <= 8 from M_0-3, K_1-3 and H_1-3 at 0 and 1
        # (coinciding points included) against the dense tangent rank
        candidates = (
            [SkewBlock.m(k) for k in range(4)]
            + [SkewBlock.k(k) for k in range(1, 4)]
            + [SkewBlock.h(k, p) for p in (0, 1) for k in range(1, 4)]
        )

        def lists(room, start=0):
            yield []
            for i in range(start, len(candidates)):
                size = candidates[i].shape[0]
                if size <= room:
                    yield from ([candidates[i], *rest] for rest in lists(room - size, i))

        checked = 0
        for blocks in lists(8):
            if blocks:
                structure = BlockList.skew(blocks)
                assert codim_blocksum(structure) == codim_tangent(assemble_skew(structure)), str(structure)
                checked += 1
        assert checked == 243


def eigen_blocks(points, up_to):
    return [GeneralBlock.eigen(i, point) for point in points for i in range(1, up_to + 1)]


class TestHomTable:
    SINGULAR = [GeneralBlock.right(i) for i in range(9)] + [GeneralBlock.left(i) for i in range(9)]

    @pytest.mark.parametrize(
        "blocks",
        [
            SINGULAR + eigen_blocks([INFINITY], 8),
            SINGULAR + eigen_blocks([Fraction(1, 2)], 8),
        ],
        ids=["infinite", "rational"],
    )
    def test_every_entry_up_to_index_8(self, blocks):
        # every ordered pair, eigenvalue blocks at one point: equal points
        for a in blocks:
            for b in blocks:
                assert dim_hom(a, b) == dim_hom_dense(a, b), (str(a), str(b))

    def test_distinct_points(self):
        # eigenvalue blocks at distinct points, rational or infinite, have no Hom
        for p, q in [(Fraction(1, 2), Fraction(-3)), (Fraction(1, 2), INFINITY), (0, 1)]:
            for a in eigen_blocks([p], 8):
                for b in eigen_blocks([q], 8):
                    assert dim_hom(a, b) == dim_hom(b, a) == 0, (str(a), str(b))
                    assert dim_hom_dense(a, b) == dim_hom_dense(b, a) == 0, (str(a), str(b))

    def test_symbols_are_distinct_points(self):
        a, b = (GeneralBlock.finite(2, SymbolicPoint(name)) for name in "ab")
        assert (dim_hom(a, a), dim_hom(a, b), dim_hom(a, GeneralBlock.finite(2, 0))) == (2, 0, 0)


class TestCodimGeneral:
    def test_matches_the_tangent_rank(self):
        # seeded random general lists with rational and infinite eigenvalues,
        # shared or not, and rows != cols
        rng = random.Random(25)
        points = [Fraction(0), Fraction(1, 2), Fraction(-3), INFINITY]
        checked = 0
        for _ in range(60):
            blocks = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(3)
                if kind == 0:
                    blocks.append(GeneralBlock.right(rng.randint(0, 3)))
                elif kind == 1:
                    blocks.append(GeneralBlock.left(rng.randint(0, 3)))
                else:
                    blocks.append(GeneralBlock.eigen(rng.randint(1, 3), rng.choice(points)))
            structure = BlockList.general(blocks)
            assert codim_general(structure) == codim_general_by_tangent(structure), str(structure)
            checked += structure.total_rows != structure.total_cols
        assert checked > 20


class TestClosedForms:
    @pytest.mark.parametrize(
        "n,w,r,expected",
        [(5, 2, 1, 3), (9, 4, 1, 3), (3, 1, 0, 0)],
    )
    def test_pencil_examples(self, n, w, r, expected):
        assert codim_pencil_closed(n, w, r) == expected

    @pytest.mark.parametrize(
        "m,d,r,value",
        [(7, 2, 2, 17), (5, 2, 2, 0), (3, 2, 1, 0)],
    )
    def test_poly_examples(self, m, d, r, value):
        assert codim_poly_generic(m, d, r).value == value

    def test_poly_gsyl_intermediate(self):
        pc = codim_poly_generic(3, 2, 1)
        assert pc.gsyl == 3 == codim_pencil_closed(9, 4, 1)

    def test_zero_exactly_at_minimal_corank(self):
        for m in range(3, 10):
            for d in (1, 2, 3, 4):
                for r in range(1, (m - 1) // 2 + 1):
                    value = codim_poly_generic(m, d, r).value
                    assert (value == 0) == (m == 2 * r + 1)

    def test_odd_grade_same_closed_form(self):
        # parity only changes the template-space bookkeeping, not the value
        assert codim_poly_generic(5, 3, 1).value == (5 - 3) * (15 + 5 - 2) // 2
        assert codim_poly_generic(5, 4, 1).value == (5 - 3) * (20 + 5 - 2) // 2

    def test_template_chain_sweep(self):
        # the template-space intermediate is cross-checked internally against
        # the pencil closed form on every call; sweep the documented range
        for m in range(3, 13):
            for d in range(2, 7, 2):
                for r in range(1, (m - 1) // 2 + 1):
                    pc = codim_poly_generic(m, d, r)
                    assert pc.gsyl - m * (m - 1) // 2 == pc.value >= 0


class TestTangent:
    def test_k1(self):
        pencil = assemble_skew(BlockList.skew([SkewBlock.k(1)]))
        assert codim_tangent(pencil) == 1

    def test_m1(self):
        pencil = assemble_skew(BlockList.skew([SkewBlock.m(1)]))
        assert codim_tangent(pencil) == 0
        # the 0 x 0 pencil: a tangent map with no rows, of rank 0
        assert codim_tangent(MatrixPolynomial.zeros(0, 0, 1)) == 0

    def test_generic_5_2_1(self):
        pencil = assemble_skew(generic_pencil_structure(5, 2, 1))
        assert codim_tangent(pencil) == 3

    def test_requires_skew(self):
        with pytest.raises(NotSkewSymmetric):
            codim_tangent(MatrixPolynomial([[x]]))

    def test_size_guard(self):
        big = assemble_skew(BlockList.skew([SkewBlock.m(13)]))
        with pytest.raises(ParamDomain):
            codim_tangent(big)

    def test_triple_agreement_small(self):
        for n in range(3, 8):
            for w in range(1, (n - 1) // 2 + 1):
                for r in range(0, w + 1):
                    structure = generic_pencil_structure(n, w, r)
                    blocksum = codim_blocksum(structure)
                    closed = codim_pencil_closed(n, w, r)
                    tangent = codim_tangent(assemble_skew(structure))
                    assert blocksum == closed == tangent, (n, w, r)


class TestReports:
    def test_report_bundle(self):
        reports = pencil_codim_reports(5, 2, 1, via_tangent=True)
        assert [r.method for r in reports] == ["blocksum", "closed_form", "tangent_rank"]
        assert len({r.value for r in reports}) == 1


class TestGsyl0Claim:
    """The structural fact behind the even-grade codimension count.

    Linearize the one-grade padding of a sampled generic polynomial: every
    tangent-space generator X^T F + F X has an identically zero m x m block
    in the (1,1) position of its leading coefficient. The block there is
    built from the padded (zero) leading coefficient, so the tangent space
    never leaves the zero-leading-block slice.
    """

    @staticmethod
    def zero_block_generators(m, d, r):
        """How many generators X = E_pq give that block identically zero."""
        sample = sample_bounded_rank(SampleSpec(m=m, d=d, r=r, seed=20240817))
        A = build_linearization(pad_grade(sample)).pencil.coefficient_matrix(1)
        n = len(A)
        # leading block of X^T A + A X for X = E_pq has entries (i, j < m):
        # [i==q] A[p][j] + [j==q] A[i][p]; the (q, q) entry cancels by
        # skewness, every other one is a single term
        return sum(
            1
            for p in range(n)
            for q in range(n)
            if q >= m
            or not (any(A[p][j] for j in range(m) if j != q) or any(A[i][p] for i in range(m) if i != q))
        )

    def test_small_case(self):
        assert self.zero_block_generators(3, 2, 1) == (3 * 3) ** 2

    def test_larger_case(self):
        assert self.zero_block_generators(5, 2, 2) == (5 * 3) ** 2
