"""Tests for canonical blocks: assembly, conversion, eigenstructure reading."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstruct.blocks import (
    BlockList,
    GeneralBlock,
    SkewBlock,
    assemble_general,
    assemble_skew,
    blocklist_eigenstructure,
    general_to_skew,
    skew_to_general,
)
from skewstruct.eigenstructure import analyze, same_orbit
from skewstruct.errors import FlavorMismatch, InvalidBlock, PairingBroken, SkewstructError
from skewstruct.exact import RationalPolynomial, normal_rank
from skewstruct.points import INFINITY, SymbolicPoint

P = RationalPolynomial
x = P.variable()


class TestBlockBasics:
    def test_shapes(self):
        assert GeneralBlock.finite(2, 5).shape == (2, 2)
        assert GeneralBlock.right(3).shape == (3, 4)
        assert GeneralBlock.left(3).shape == (4, 3)
        assert SkewBlock.h(2, 1).shape == (4, 4)
        assert SkewBlock.k(1).shape == (2, 2)
        assert SkewBlock.m(1).shape == (3, 3)
        assert SkewBlock.m(0).shape == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneralBlock.finite(0, 1)
        with pytest.raises(ValueError):
            SkewBlock.k(0)
        with pytest.raises(ValueError):
            GeneralBlock.finite(1, INFINITY)
        with pytest.raises(ValueError):
            GeneralBlock.right(-1)
        # M(0) is legitimate: the 1x1 zero pencil
        assert SkewBlock.m(0).rank == 0

    def test_eigen_dispatch(self):
        assert GeneralBlock.eigen(2, INFINITY).kind == "E_infinite"
        assert GeneralBlock.eigen(2, 5).kind == "E_finite"
        assert GeneralBlock.eigen(1, SymbolicPoint("a")).eigenvalue == SymbolicPoint("a")

    def test_canonical_sorting(self):
        a = BlockList.skew([SkewBlock.k(1), SkewBlock.m(2), SkewBlock.m(0)])
        b = BlockList.skew([SkewBlock.m(0), SkewBlock.k(1), SkewBlock.m(2)])
        assert a == b
        assert str(a) == "K_1 + M_2 + M_0"

    def test_flavor_checks(self):
        with pytest.raises(FlavorMismatch):
            BlockList.skew([GeneralBlock.right(1)])
        with pytest.raises(FlavorMismatch):
            assemble_skew(BlockList.general([GeneralBlock.right(1)]))
        with pytest.raises(FlavorMismatch):
            assemble_general(BlockList.skew([SkewBlock.m(1)]))


class TestAssembleGeneral:
    def test_jordan_1x1(self):
        p = assemble_general(BlockList.general([GeneralBlock.finite(1, 5)]))
        assert p.rows == p.cols == 1
        assert p.entry(0, 0) == x - 5

    def test_empty_right_block(self):
        p = assemble_general(BlockList.general([GeneralBlock.right(0)]))
        assert (p.rows, p.cols) == (0, 1)
        assert normal_rank(p) == 0

    def test_two_infinite(self):
        p = assemble_general(
            BlockList.general([GeneralBlock.infinite(1), GeneralBlock.infinite(1)])
        )
        assert p.coefficient_matrix(1) == [[0, 0], [0, 0]]
        assert p.coefficient_matrix(0) == [[-1, 0], [0, -1]]

    def test_singular_block_contents(self):
        p = assemble_general(BlockList.general([GeneralBlock.right(1)]))
        assert (p.rows, p.cols) == (1, 2)
        assert p.entry(0, 0) == x and p.entry(0, 1) == -P.one()

    def test_symbolic_assembly_rejected(self):
        bl = BlockList.general([GeneralBlock.finite(1, SymbolicPoint("mu"))])
        with pytest.raises(ValueError):
            assemble_general(bl)


class TestAssembleSkew:
    def test_k1(self):
        p = assemble_skew(BlockList.skew([SkewBlock.k(1)]))
        assert p.coefficient_matrix(1) == [[0, 0], [0, 0]]
        assert p.coefficient_matrix(0) == [[0, -1], [1, 0]]

    def test_m0_is_zero_pencil(self):
        p = assemble_skew(BlockList.skew([SkewBlock.m(0)]))
        assert (p.rows, p.cols) == (1, 1)
        assert p.is_zero()

    def test_m1_strip(self):
        p = assemble_skew(BlockList.skew([SkewBlock.m(1)]))
        assert (p.rows, p.cols) == (3, 3)
        assert p.entry(0, 1) == x and p.entry(0, 2) == -P.one()
        assert p.entry(1, 0) == -x and p.entry(2, 0) == P.one()

    def test_always_skew(self):
        rng = random.Random(3)
        for _ in range(10):
            blocks = [
                SkewBlock.m(rng.randint(0, 2)),
                SkewBlock.k(rng.randint(1, 2)),
                SkewBlock.h(rng.randint(1, 2), Fraction(rng.randint(-3, 3))),
            ]
            p = assemble_skew(BlockList.skew(blocks))
            assert p.is_skew_symmetric()
            assert p.rows == sum(b.shape[0] for b in blocks)

    def test_even_rank(self):
        rng = random.Random(4)
        for _ in range(10):
            blocks = [SkewBlock.m(rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
            blocks += [SkewBlock.k(1)] * rng.randint(0, 2)
            p = assemble_skew(BlockList.skew(blocks))
            assert normal_rank(p) % 2 == 0

    @pytest.mark.parametrize(
        "skew, general",
        [
            (SkewBlock.h(k, mu), GeneralBlock.finite(k, mu))
            for k, mu in ((1, -2), (2, Fraction(1, 3)), (3, Fraction(5, 2)))
        ]
        + [(SkewBlock.k(k), GeneralBlock.infinite(k)) for k in (1, 2, 3)]
        + [(SkewBlock.m(k), GeneralBlock.right(k)) for k in (0, 1, 2, 3)],
        ids=str,
    )
    def test_top_right_is_the_general_block(self, skew, general):
        # H_k(mu), K_k and M_k hold E_k(mu), E_k(inf) and L_k in their top right
        p = assemble_skew(BlockList.skew([skew]))
        g = assemble_general(BlockList.general([general]))
        k = skew.index
        for c in (0, 1):
            assert [row[k:] for row in p.coefficient_matrix(c)[:k]] == g.coefficient_matrix(c)


class TestConversion:
    def test_examples(self):
        assert skew_to_general(BlockList.skew([SkewBlock.k(1)])) == BlockList.general(
            [GeneralBlock.infinite(1)] * 2
        )
        assert skew_to_general(BlockList.skew([SkewBlock.m(2)])) == BlockList.general(
            [GeneralBlock.right(2), GeneralBlock.left(2)]
        )
        assert skew_to_general(
            BlockList.skew([SkewBlock.h(1, 3)])
        ) == BlockList.general([GeneralBlock.finite(1, 3)] * 2)

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            blocks = [SkewBlock.m(rng.randint(0, 2)) for _ in range(rng.randint(1, 2))]
            blocks += [SkewBlock.k(rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
            blocks += [
                SkewBlock.h(rng.randint(1, 2), Fraction(rng.randint(-2, 2)))
                for _ in range(rng.randint(0, 2))
            ]
            bl = BlockList.skew(blocks)
            assert general_to_skew(skew_to_general(bl)) == bl

    def test_pairing_broken(self):
        with pytest.raises(PairingBroken):
            general_to_skew(BlockList.general([GeneralBlock.infinite(1)]))
        with pytest.raises(PairingBroken):
            general_to_skew(BlockList.general([GeneralBlock.right(1), GeneralBlock.left(2)]))


class TestBlocklistEigenstructure:
    def test_m1_equivalent(self):
        bl = BlockList.general([GeneralBlock.right(1), GeneralBlock.left(1)])
        e = blocklist_eigenstructure(bl)
        assert e.right_minimal == (1,) and e.left_minimal == (1,)
        assert e.rank == 2
        assert e.finite == ()

    def test_single_infinite(self):
        e = blocklist_eigenstructure(BlockList.general([GeneralBlock.infinite(1)]))
        assert e.infinite == (1,)
        assert e.rank == 1

    def test_l0(self):
        e = blocklist_eigenstructure(BlockList.general([GeneralBlock.right(0)]))
        assert e.right_minimal == (0,)
        assert e.rank == 0

    def test_infinite_padding_to_rank(self):
        bl = BlockList.skew([SkewBlock.m(1), SkewBlock.k(1)])
        e = blocklist_eigenstructure(bl)
        assert e.rank == 4
        assert e.infinite == (0, 0, 1, 1)

    def test_roundtrip_against_analyze(self):
        # the central cross-check: reading the structure off the blocks agrees
        # with analyzing the assembled pencil, for every small skew list
        pools = [
            [SkewBlock.m(0), SkewBlock.m(1), SkewBlock.m(2)],
            [SkewBlock.k(1), SkewBlock.k(2)],
            [SkewBlock.h(1, 2), SkewBlock.h(2, -1)],
        ]
        candidates = [
            list(combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations_with_replacement(
                [b for pool in pools for b in pool], size
            )
        ]
        checked = 0
        for blocks in candidates:
            bl = BlockList.skew(blocks)
            if bl.total_rows > 8:
                continue
            assembled = assemble_skew(bl)
            assert same_orbit(analyze(assembled, 1), blocklist_eigenstructure(bl))
            checked += 1
        assert checked > 40


class TestStructureToBlocks:
    def test_roundtrip_through_eigenstructure(self):
        from skewstruct.blocks import structure_to_skew_blocks

        rng = random.Random(6)
        for _ in range(10):
            blocks = [SkewBlock.m(rng.randint(0, 2))]
            blocks += [SkewBlock.k(rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
            blocks += [
                SkewBlock.h(rng.randint(1, 2), Fraction(rng.randint(-2, 2)))
                for _ in range(rng.randint(0, 2))
            ]
            bl = BlockList.skew(blocks)
            assert structure_to_skew_blocks(blocklist_eigenstructure(bl)) == bl

    def test_rejects_irrational_pairs(self):
        from skewstruct.blocks import structure_to_skew_blocks
        from skewstruct.eigenstructure import analyze
        from skewstruct.exact import SkewMatrixPolynomial

        # a 4x4 skew pencil whose finite structure is the irreducible
        # quadratic x^2 + 1: the conjugate eigenvalue pair has no
        # exact-rational block representation
        q = SkewMatrixPolynomial.from_upper(
            4, {(0, 2): x, (1, 3): x, (0, 3): P.one(), (1, 2): -P.one()}, grade=1
        )
        e = analyze(q, 1)
        assert e.finite == ((x**2 + 1, (1, 1)),)
        with pytest.raises(PairingBroken):
            structure_to_skew_blocks(e)


class TestPencilParts:
    def test_jordan_pair(self):
        from skewstruct.blocks import pencil_parts

        p = assemble_general(BlockList.general([GeneralBlock.finite(1, 5)]))
        a, b = pencil_parts(p)
        assert a == [[1]] and b == [[5]]

    def test_needs_grade_one(self):
        from skewstruct.blocks import pencil_parts
        from skewstruct.errors import ShapeMismatch
        from skewstruct.exact import MatrixPolynomial

        with pytest.raises(ShapeMismatch):
            pencil_parts(MatrixPolynomial.zeros(2, 2, grade=2))


class TestBlockListJson:
    def test_documented_form(self):
        bl = BlockList.skew([SkewBlock.m(1), SkewBlock.k(1)])
        data = bl.to_json_dict()
        assert data == {
            "flavor": "skew",
            "blocks": [{"kind": "K", "index": 1}, {"kind": "M", "index": 1}],
        }
        assert BlockList.from_json_dict(data) == bl

    def test_eigenvalue_serialization(self):
        bl = BlockList.skew([SkewBlock.h(2, Fraction(3, 4))])
        data = json.loads(json.dumps(bl.to_json_dict()))
        assert data["blocks"][0]["eigenvalue"] == "3/4"
        assert BlockList.from_json_dict(data) == bl

    def test_symbolic_roundtrip(self):
        bl = BlockList.general([GeneralBlock.finite(1, SymbolicPoint("mu0"))])
        data = bl.to_json_dict()
        assert data["blocks"][0]["eigenvalue"] == "@mu0"
        assert BlockList.from_json_dict(data) == bl

    def test_canonical_bytes_stable(self):
        from skewstruct.fileio import dump_json

        bl = BlockList.skew([SkewBlock.m(2), SkewBlock.h(1, Fraction(-2, 3)), SkewBlock.k(1)])
        first = dump_json(bl.to_json_dict())
        again = dump_json(BlockList.from_json_dict(json.loads(first)).to_json_dict())
        assert first == again

    @pytest.mark.parametrize(
        "data",
        [
            [],
            "x",
            None,
            {"flavor": "skew", "blocks": 5},
            {"flavor": "skew", "blocks": {"kind": "M", "index": 1}},
            {"blocks": [{"kind": "M", "index": 1}]},
            {"flavor": "skew"},
            {"flavor": "skew", "blocks": [{"index": 1}]},
            {"flavor": "skew", "blocks": [{"kind": "M"}]},
            {"flavor": "skew", "blocks": [["M", 1]]},
        ],
    )
    def test_malformed_raises_invalid_block(self, data):
        with pytest.raises(InvalidBlock):
            BlockList.from_json_dict(data)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
# near-miss block lists reach the per-block checks far more often than random JSON
_BLOCK = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["E_finite", "E_infinite", "L", "L_T", "H", "K", "M"]) | _JSON,
        "index": st.integers(-2, 3) | _JSON,
        "eigenvalue": st.sampled_from(["inf", "@a", "1/2", "-3", "1/0", "x", "@"]) | _JSON,
    },
)
_BLOCK_LIST = st.fixed_dictionaries(
    {},
    optional={
        "flavor": st.sampled_from(["general", "skew"]) | _JSON,
        "blocks": st.lists(_BLOCK | _JSON, max_size=4) | _JSON,
    },
)
# valid lists, so that the fuzz also reaches the successful return
_POINT = st.sampled_from([0, Fraction(-1, 2), SymbolicPoint("a"), SymbolicPoint("b")])
_VALID_LIST = st.lists(
    st.builds(GeneralBlock.finite, st.integers(1, 3), _POINT)
    | st.builds(GeneralBlock.infinite, st.integers(1, 3))
    | st.builds(GeneralBlock.right, st.integers(0, 3))
    | st.builds(GeneralBlock.left, st.integers(0, 3)),
    max_size=4,
).map(BlockList.general) | st.lists(
    st.builds(SkewBlock.h, st.integers(1, 3), _POINT)
    | st.builds(SkewBlock.k, st.integers(1, 3))
    | st.builds(SkewBlock.m, st.integers(0, 3)),
    max_size=4,
).map(BlockList.skew)


class TestBlockListJsonFuzz:
    @given(_VALID_LIST.map(BlockList.to_json_dict) | _BLOCK_LIST | _JSON)
    @settings(max_examples=400, deadline=None)
    def test_returns_block_list_or_raises_library_error(self, data):
        try:
            out = BlockList.from_json_dict(data)
        except SkewstructError:
            return
        assert isinstance(out, BlockList)
