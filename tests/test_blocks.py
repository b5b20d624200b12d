"""Tests for canonical blocks: assembly, conversion, eigenstructure reading."""

import copy
import itertools
import json
import pickle
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
from skewstruct.eigenstructure import analyze, minimal_indices, same_orbit
from skewstruct.errors import FlavorMismatch, InvalidBlock, PairingBroken, SkewstructError
from skewstruct.exact import RationalPolynomial, normal_rank
from skewstruct.points import INFINITY, NumericRoot, SymbolicPoint

from oracles import left_minimal_indices

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

    @pytest.mark.parametrize(
        "cls, kind, index, eigenvalue, message",
        [
            (GeneralBlock, "X", 1, None, "unknown general block kind 'X'"),
            (GeneralBlock, "H", 1, 2, "unknown general block kind 'H'"),
            (GeneralBlock, ["L"], 0, None, "unknown general block kind ['L']"),
            (GeneralBlock, {"L": 0}, 0, None, "unknown general block kind {'L': 0}"),
            (GeneralBlock, None, 0, None, "unknown general block kind None"),
            (GeneralBlock, "E_finite", 0, 1, "E_finite blocks need index >= 1"),
            (GeneralBlock, "E_infinite", 0, None, "E_infinite blocks need index >= 1"),
            (GeneralBlock, "L", -1, None, "L blocks need index >= 0"),
            (GeneralBlock, "L_T", -1, None, "L_T blocks need index >= 0"),
            (GeneralBlock, "E_finite", 1, None, "E_finite blocks carry an eigenvalue"),
            (GeneralBlock, "E_finite", 1, INFINITY, "use E_infinite for the infinite eigenvalue"),
            (GeneralBlock, "E_infinite", 1, 3, "E_infinite blocks carry no eigenvalue"),
            (GeneralBlock, "L", 1, 3, "L blocks carry no eigenvalue"),
            (GeneralBlock, "L_T", 0, SymbolicPoint("a"), "L_T blocks carry no eigenvalue"),
            (SkewBlock, "X", 1, None, "unknown skew block kind 'X'"),
            (SkewBlock, "E_finite", 1, 1, "unknown skew block kind 'E_finite'"),
            (SkewBlock, ["M"], 0, None, "unknown skew block kind ['M']"),
            (SkewBlock, {"M": 0}, 0, None, "unknown skew block kind {'M': 0}"),
            (SkewBlock, 3, 0, None, "unknown skew block kind 3"),
            (SkewBlock, "H", 0, 1, "H blocks need index >= 1"),
            (SkewBlock, "K", 0, None, "K blocks need index >= 1"),
            (SkewBlock, "M", -1, None, "M blocks need index >= 0"),
            (SkewBlock, "H", 1, None, "H blocks carry an eigenvalue"),
            (SkewBlock, "H", 1, INFINITY, "use K blocks for the infinite eigenvalue"),
            (SkewBlock, "K", 1, 2, "K blocks carry no eigenvalue"),
            (SkewBlock, "M", 0, SymbolicPoint("a"), "M blocks carry no eigenvalue"),
            (GeneralBlock, "L", 1.5, None, "L blocks need an integer index, not 1.5"),
            (GeneralBlock, "L", None, None, "L blocks need an integer index, not None"),
            (SkewBlock, "M", True, None, "M blocks need an integer index, not True"),
            (SkewBlock, "K", "2", None, "K blocks need an integer index, not '2'"),
            (GeneralBlock, "E_finite", 1, "x", "E_finite blocks carry an exact eigenvalue, not 'x'"),
            (GeneralBlock, "E_finite", 1, "1/0", "E_finite blocks carry an exact eigenvalue, not '1/0'"),
            (
                SkewBlock,
                "H",
                1,
                NumericRoot(0.5),
                "H blocks carry an exact eigenvalue, not NumericRoot(real=0.5, imag=0.0)",
            ),
            (SkewBlock, "H", 1, float("nan"), "H blocks carry an exact eigenvalue, not nan"),
            (SkewBlock, "H", 1, 0.1, "H blocks carry an exact eigenvalue, not 0.1"),
            (SkewBlock, "H", 1, True, "H blocks carry an exact eigenvalue, not True"),
            (SkewBlock, "H", 1, "1/2", "H blocks carry an exact eigenvalue, not '1/2'"),
        ],
    )
    def test_invalid_block_messages(self, cls, kind, index, eigenvalue, message):
        with pytest.raises(InvalidBlock) as info:
            cls(kind, index, eigenvalue)
        assert str(info.value) == message

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


def random_blocks(rng, flavor, count):
    """`count` random blocks of one flavor, repeats likely, at rationals and one symbol."""
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        point = rng.choice([Fraction(0), Fraction(1, 2), Fraction(-3), SymbolicPoint("a")])
        if flavor == "general":
            choices = [GeneralBlock.right(k - 1), GeneralBlock.left(k - 1), GeneralBlock.infinite(k),
                       GeneralBlock.finite(k, point)]
        else:
            choices = [SkewBlock.m(k - 1), SkewBlock.k(k), SkewBlock.h(k, point)]
        out.append(rng.choice(choices))
    return out


class TestOnePassReader:
    """A list counts its blocks and sums their shapes and ranks once, when it is built."""

    def test_totals_and_counts_are_the_per_block_sums(self):
        rng = random.Random(54)
        for _ in range(300):
            flavor = rng.choice(["general", "skew"])
            blocks = random_blocks(rng, flavor, rng.randint(0, 8))
            bl = BlockList(flavor, tuple(blocks))
            assert bl.total_rows == sum(b.shape[0] for b in blocks), str(bl)
            assert bl.total_cols == sum(b.shape[1] for b in blocks), str(bl)
            assert bl.rank == sum(b.rank for b in blocks), str(bl)
            expected = {}
            for b in bl.blocks:
                expected[b] = expected.get(b, 0) + 1
            counts = bl.counts()
            assert counts == {b: blocks.count(b) for b in blocks}, str(bl)
            assert list(counts.items()) == list(expected.items()), str(bl)

    def test_counts_is_a_copy(self):
        rng = random.Random(5454)
        for flavor in ("general", "skew"):
            for _ in range(50):
                blocks = random_blocks(rng, flavor, rng.randint(1, 6))
                bl = BlockList(flavor, tuple(blocks))
                first, stray = bl.blocks[0], random_blocks(rng, flavor, 1)[0]
                before = bl.counts(), hash(bl), repr(bl)
                counts = bl.counts()
                counts[first] += 2
                counts[stray] = counts.get(stray, 0) + 1
                del counts[bl.blocks[-1]]
                assert (bl.counts(), hash(bl), repr(bl)) == before, str(bl)
                assert bl == BlockList(flavor, tuple(blocks))
                assert bl.counts() is not bl.counts()

    def test_totals_are_not_compared_or_shown(self):
        bl = BlockList.skew([SkewBlock.m(1), SkewBlock.k(2), SkewBlock.m(1)])
        assert repr(bl) == f"BlockList(flavor='skew', blocks={bl.blocks!r})"
        assert hash(bl) == hash(("skew", bl.blocks))
        again = pickle.loads(pickle.dumps(bl))
        assert again == bl and hash(again) == hash(bl)
        assert (again.total_rows, again.total_cols, again.rank, again.counts()) == (10, 10, 8, bl.counts())

    def test_a_pickle_or_copy_reads_its_blocks_again(self):
        # a list pickled before the totals were fields holds only its flavor
        # and blocks, and stale totals in a pickle are read again, not trusted
        bl = BlockList.skew([SkewBlock.m(1), SkewBlock.k(2), SkewBlock.m(1)])
        whole = (bl.total_rows, bl.total_cols, bl.rank, bl.counts())
        bare = object.__new__(BlockList)
        bare.__dict__.update(flavor=bl.flavor, blocks=bl.blocks)
        stale = object.__new__(BlockList)
        stale.__dict__.update(bl.__dict__, total_rows=0, rank=0, _counts={})
        for loaded in (pickle.loads(pickle.dumps(bare)), pickle.loads(pickle.dumps(stale))):
            assert loaded == bl and hash(loaded) == hash(bl)
            assert (loaded.total_rows, loaded.total_cols, loaded.rank, loaded.counts()) == whole
        for again in (pickle.loads(pickle.dumps(bl)), copy.copy(bl), copy.deepcopy(bl)):
            assert again == bl and repr(again) == repr(bl)
            assert (again.total_rows, again.total_cols, again.rank, again.counts()) == whole


class TestBlockValues:
    """Blocks are interned values: built once per argument tuple, hashed once, pickled by value."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GeneralBlock.finite(2, Fraction(1, 3)),
            lambda: GeneralBlock.finite(1, SymbolicPoint("a")),
            lambda: GeneralBlock.infinite(3),
            lambda: GeneralBlock.right(2),
            lambda: GeneralBlock.left(0),
            lambda: GeneralBlock.eigen(2, INFINITY),
            lambda: GeneralBlock.eigen(2, Fraction(5)),
            lambda: SkewBlock.h(1, Fraction(-2, 3)),
            lambda: SkewBlock.k(2),
            lambda: SkewBlock.m(1),
            lambda: SkewBlock.h(2, SymbolicPoint("b")).unfolded(),
            lambda: SkewBlock.m(3).unfolded(),
            lambda: general_to_skew(BlockList.general([GeneralBlock.right(1), GeneralBlock.left(1)])).blocks,
        ],
    )
    def test_equal_arguments_give_the_same_object(self, build):
        first, again = build(), build()
        if not isinstance(first, tuple):
            first, again = (first,), (again,)
        assert first == again
        assert all(a is b for a, b in zip(first, again))

    def test_conversions_share_the_named_constructors_blocks(self):
        right, left = SkewBlock.m(2).unfolded()
        assert right is GeneralBlock.right(2) and left is GeneralBlock.left(2)
        assert SkewBlock.k(1).unfolded()[0] is GeneralBlock.infinite(1)
        assert general_to_skew(BlockList.general([GeneralBlock.infinite(2)] * 2)).blocks[0] is SkewBlock.k(2)

    def test_direct_construction_equals_the_interned_block(self):
        direct = GeneralBlock("L", 2)
        assert direct == GeneralBlock.right(2)
        assert hash(direct) == hash(GeneralBlock.right(2))
        assert direct is not GeneralBlock.right(2)

    @pytest.mark.parametrize(
        "block",
        [
            GeneralBlock.finite(2, Fraction(7, 3)),
            GeneralBlock.finite(1, SymbolicPoint("a")),
            GeneralBlock.infinite(1),
            GeneralBlock.right(0),
            GeneralBlock.left(4),
            SkewBlock.h(3, Fraction(-1, 2)),
            SkewBlock.h(1, SymbolicPoint("z")),
            SkewBlock.k(2),
            SkewBlock.m(0),
        ],
        ids=str,
    )
    def test_hash_is_the_field_tuple_hash(self, block):
        # the hash the dataclass would generate, so set and dict orders are unchanged
        assert hash(block) == hash((block.kind, block.index, block.eigenvalue))

    @pytest.mark.parametrize(
        "block",
        [
            GeneralBlock.finite(2, Fraction(7, 3)),
            GeneralBlock.finite(1, SymbolicPoint("a")),
            GeneralBlock.left(4),
            SkewBlock.h(1, SymbolicPoint("z")),
            SkewBlock.m(0),
        ],
        ids=str,
    )
    def test_pickle_round_trip(self, block):
        again = pickle.loads(pickle.dumps(block))
        assert again == block
        assert type(again) is type(block)
        assert hash(again) == hash(block)

    def test_an_int_eigenvalue_equals_its_fraction(self):
        assert GeneralBlock.finite(1, 2) == GeneralBlock.finite(1, Fraction(2))
        assert hash(GeneralBlock.finite(1, 2)) == hash(GeneralBlock.finite(1, Fraction(2)))
        assert GeneralBlock.finite(1, 2).eigenvalue.__class__ is Fraction

    @pytest.mark.parametrize(
        "valid, build, message",
        [
            (lambda: GeneralBlock.right(1), lambda: GeneralBlock.right(True), "L blocks need an integer index, not True"),
            (lambda: SkewBlock.m(0), lambda: SkewBlock.m(False), "M blocks need an integer index, not False"),
            (
                lambda: GeneralBlock.finite(1, 1),
                lambda: GeneralBlock.finite(1, True),
                "E_finite blocks carry an exact eigenvalue, not True",
            ),
            (
                lambda: GeneralBlock.finite(1, Fraction(1, 2)),
                lambda: GeneralBlock.finite(1, 0.5),
                "E_finite blocks carry an exact eigenvalue, not 0.5",
            ),
            (lambda: GeneralBlock.finite(1, 2), lambda: GeneralBlock.finite(1.0, 2), "E_finite blocks need an integer index, not 1.0"),
            (lambda: GeneralBlock.finite(1, 1), lambda: GeneralBlock.finite(1, [1]), "E_finite blocks carry an exact eigenvalue, not [1]"),
            (lambda: SkewBlock.k(2), lambda: SkewBlock.k([2]), "K blocks need an integer index, not [2]"),
        ],
    )
    def test_invalid_arguments_raise_on_every_call(self, valid, build, message):
        # the valid block the arguments equal is cached first; the cache is
        # typed, so True == 1 does not find it, and it caches no raise. An
        # unhashable argument fails in the constructor, not in the cache.
        valid()
        for _ in range(2):
            with pytest.raises(InvalidBlock) as info:
                build()
            assert str(info.value) == message


class TestAssembleGeneral:
    def test_jordan_1x1(self):
        p = assemble_general(BlockList.general([GeneralBlock.finite(1, 5)]))
        assert p.rows == p.cols == 1
        assert p.entries[0][0] == x - 5

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
        assert p.entries[0][0] == x and p.entries[0][1] == -P.one()

    def test_left_block_is_the_transposed_right_block(self):
        for k in range(4):
            left = assemble_general(BlockList.general([GeneralBlock.left(k)]))
            right = assemble_general(BlockList.general([GeneralBlock.right(k)]))
            assert (left.rows, left.cols) == (k + 1, k)
            assert left == right.transpose()

    def test_mixed_list_minimal_indices(self):
        G = GeneralBlock
        bl = BlockList.general(
            [G.right(1), G.left(2), G.finite(2, 3), G.infinite(1), G.left(0), G.right(0), G.left(1)]
        )
        p = assemble_general(bl)
        expected = blocklist_eigenstructure(bl)
        assert expected.left_minimal == (0, 1, 2)
        assert left_minimal_indices(p) == expected.left_minimal
        assert minimal_indices(p) == expected.right_minimal

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
        assert p.coefficient_matrix(0) == p.coefficient_matrix(1) == [[0]]

    def test_m1_strip(self):
        p = assemble_skew(BlockList.skew([SkewBlock.m(1)]))
        assert (p.rows, p.cols) == (3, 3)
        assert p.entries[0][1] == x and p.entries[0][2] == -P.one()
        assert p.entries[1][0] == -x and p.entries[2][0] == P.one()

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

    @pytest.mark.parametrize(
        "blocks",
        [
            [GeneralBlock.finite(1, 2)] * 3,
            [GeneralBlock.finite(2, SymbolicPoint("a")), GeneralBlock.finite(2, SymbolicPoint("b"))],
            [GeneralBlock.infinite(2)] * 2 + [GeneralBlock.infinite(1)],
            [GeneralBlock.right(1)],
            [GeneralBlock.right(1)] * 2 + [GeneralBlock.left(1)],
            [GeneralBlock.left(0)],
            [GeneralBlock.left(2), GeneralBlock.left(2)],
            [GeneralBlock.right(0), GeneralBlock.left(1)],
            [GeneralBlock.right(3), GeneralBlock.left(2), GeneralBlock.infinite(1), GeneralBlock.infinite(1)],
        ],
        ids=str,
    )
    def test_unpaired_general_lists(self, blocks):
        # an odd E count, L_k without L_k^T, L^T alone, L_k + L_j^T with j != k
        with pytest.raises(PairingBroken):
            general_to_skew(BlockList.general(blocks))

    def test_roundtrip_with_symbolic_eigenvalues(self):
        from skewstruct.blocks import structure_to_skew_blocks

        pool = [
            SkewBlock.h(1, Fraction(1, 2)),
            SkewBlock.h(2, Fraction(1, 2)),
            SkewBlock.h(1, SymbolicPoint("a")),
            SkewBlock.h(2, SymbolicPoint("b")),
            SkewBlock.k(1),
            SkewBlock.k(2),
            SkewBlock.m(0),
            SkewBlock.m(1),
        ]
        checked = 0
        for size in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(pool, size):
                bl = BlockList.skew(combo)
                assert general_to_skew(skew_to_general(bl)) == bl
                assert structure_to_skew_blocks(blocklist_eigenstructure(bl)) == bl
                checked += 1
        assert checked == 164


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

    def test_irrational_roots_read_as_symbols(self):
        from skewstruct.blocks import structure_to_skew_blocks
        from skewstruct.degeneration import equal_modulo_symbols
        from skewstruct.eigenstructure import CompleteEigenstructure, analyze
        from skewstruct.exact import SkewMatrixPolynomial

        # a 4x4 skew pencil whose finite structure is the irreducible
        # quadratic x^2 + 1: each conjugate root is a fresh symbol with the
        # factor's multiplicities
        q = SkewMatrixPolynomial.from_upper(
            4, {(0, 2): x, (1, 3): x, (0, 3): P.one(), (1, 2): -P.one()}, grade=1
        )
        e = analyze(q, 1)
        assert e.finite == ((x**2 + 1, (1, 1)),)
        out = structure_to_skew_blocks(e)
        a, b = SymbolicPoint("a"), SymbolicPoint("b")
        expected = BlockList.skew([SkewBlock.h(1, a), SkewBlock.h(1, b)])
        assert equal_modulo_symbols(skew_to_general(out), skew_to_general(expected))
        # unpaired multiplicities still do not fold
        lone = CompleteEigenstructure.build(
            rows=2, cols=2, grade=1, rank=2, finite={x**2 + 1: [1]},
            infinite=[0, 0], left_minimal=[], right_minimal=[],
        )
        with pytest.raises(PairingBroken):
            structure_to_skew_blocks(lone)

    def test_fresh_roots_avoid_symbolic_factors(self):
        from skewstruct.blocks import structure_to_skew_blocks
        from skewstruct.eigenstructure import CompleteEigenstructure

        r0 = SymbolicPoint("r0")
        e = CompleteEigenstructure.build(
            rows=6, cols=6, grade=1, rank=6, finite={x**2 + 1: [1, 1], r0: [1, 1]},
            infinite=[0] * 6, left_minimal=[], right_minimal=[],
        )
        assert str(structure_to_skew_blocks(e)) == "H_1(@r0) + H_1(@r1) + H_1(@r2)"

    def test_numeric_roots_do_not_fold(self):
        from skewstruct.blocks import structure_to_skew_blocks
        from skewstruct.eigenstructure import CompleteEigenstructure
        from skewstruct.points import NumericRoot

        e = CompleteEigenstructure.build(
            rows=2, cols=2, grade=1, rank=2, finite={NumericRoot(0.5): [1, 1]},
            infinite=[0, 0], left_minimal=[], right_minimal=[],
        )
        with pytest.raises(PairingBroken):
            structure_to_skew_blocks(e)


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
            {"flavor": "general", "blocks": [{"kind": ["L"], "index": 0}]},
            {"flavor": "skew", "blocks": [{"kind": {"M": 1}, "index": 0}]},
            {"flavor": "general", "blocks": [{"kind": 3, "index": 0}]},
            {"flavor": "skew", "blocks": [{"kind": None, "index": 0}]},
        ],
    )
    def test_malformed_raises_invalid_block(self, data):
        with pytest.raises(InvalidBlock):
            BlockList.from_json_dict(data)

    def test_unknown_flavor_is_named_before_any_block(self):
        # the blocks would not parse under either flavor's kinds
        with pytest.raises(FlavorMismatch, match=r"^unknown flavor 'foo'$"):
            BlockList.from_json_dict({"flavor": "foo", "blocks": [{"kind": "L", "index": 1}]})


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
