"""Tests for the degeneration rewriting system and closure search."""

import collections
import dataclasses
import itertools
import json
import random
import signal
import sys
import threading
from fractions import Fraction

import pytest
from oracles import (
    block_hom_by_dim_hom,
    closure_reachable_unpruned,
    equal_by_renaming,
    hom_candidates,
    hom_witness_by_sums,
    rank_raising_by_signature,
)

from skewstruct import degeneration
from skewstruct.blocks import BlockList, GeneralBlock, SkewBlock, _cached_block, skew_to_general
from skewstruct.codimension import codim_general
from skewstruct.degeneration import (
    RuleApplication,
    apply_rule,
    canonical_key,
    closure_reachable,
    enumerate_applications,
    equal_modulo_symbols,
    replay_certificate,
)
from skewstruct.errors import (
    InvalidBlock,
    MissingBlocks,
    ParamDomain,
    ShapeMismatch,
    SideConditionViolated,
)
from skewstruct.generic import generic_pencil_structure
from skewstruct.points import INFINITY, SymbolicPoint

L = GeneralBlock.right
LT = GeneralBlock.left
E = GeneralBlock.finite
EINF = GeneralBlock.infinite


def gl(*blocks):
    return BlockList.general(blocks)


class TestApplyRule:
    def test_rule1(self):
        out = apply_rule(gl(L(0), L(2)), RuleApplication(1, j=1, k=1))
        assert out == gl(L(1), L(1))

    def test_rule2(self):
        out = apply_rule(gl(LT(0), LT(2)), RuleApplication(2, j=1, k=1))
        assert out == gl(LT(1), LT(1))

    def test_rule3(self):
        out = apply_rule(
            gl(L(0), E(2, 5)), RuleApplication(3, j=0, k=1, eigenvalue=Fraction(5))
        )
        assert out == gl(L(1), E(1, 5))

    def test_rule3_annihilates_unit_block(self):
        out = apply_rule(
            gl(L(0), E(1, 5)), RuleApplication(3, j=0, k=0, eigenvalue=Fraction(5))
        )
        assert out == gl(L(1))

    def test_rule3_infinite(self):
        out = apply_rule(
            gl(L(1), EINF(2)), RuleApplication(3, j=1, k=1, eigenvalue=INFINITY)
        )
        assert out == gl(L(2), EINF(1))

    def test_rule5(self):
        out = apply_rule(
            gl(E(1, 2), E(1, 2)), RuleApplication(5, j=1, k=1, eigenvalue=Fraction(2))
        )
        assert out == gl(E(2, 2))

    def test_rule6(self):
        mu = SymbolicPoint("mu")
        out = apply_rule(
            gl(L(0), LT(0)),
            RuleApplication(6, p=0, q=0, sizes=(1,), eigenvalues=(mu,)),
        )
        assert out == gl(E(1, mu))

    def test_rule6_side_conditions(self):
        with pytest.raises(SideConditionViolated):
            apply_rule(
                gl(L(1), LT(1)),
                RuleApplication(6, p=1, q=1, sizes=(1, 1), eigenvalues=(Fraction(0), Fraction(1))),
            )  # sizes sum 2 != 3
        with pytest.raises(SideConditionViolated):
            apply_rule(
                gl(L(0), LT(1)),
                RuleApplication(6, p=0, q=1, sizes=(1, 1), eigenvalues=(Fraction(0), Fraction(0))),
            )  # repeated eigenvalue

    @pytest.mark.parametrize(
        "app, message",
        [
            (RuleApplication(1, j=0, k=1), "rule 1 needs 1 <= j <= k"),
            (RuleApplication(2, j=2, k=1), "rule 2 needs 1 <= j <= k"),
            (RuleApplication(3, j=-1, k=0, eigenvalue=Fraction(1)), "rule 3 needs j, k >= 0"),
            (RuleApplication(4, j=0, k=-1, eigenvalue=INFINITY), "rule 4 needs j, k >= 0"),
            (RuleApplication(5, j=0, k=1, eigenvalue=Fraction(2)), "rule 5 needs 1 <= j <= k"),
            (RuleApplication(5, j=2, k=1, eigenvalue=Fraction(2)), "rule 5 needs 1 <= j <= k"),
            (RuleApplication(6, p=-1, q=1, sizes=(1,), eigenvalues=(Fraction(0),)), "p, q >= 0"),
            (RuleApplication(6, p=0, q=-1, sizes=(1,), eigenvalues=(Fraction(0),)), "p, q >= 0"),
            (RuleApplication(6, p=0, q=0, sizes=(), eigenvalues=()), "matching sizes"),
            (RuleApplication(6, p=0, q=1, sizes=(1, 1), eigenvalues=(Fraction(0),)), "matching sizes"),
            (RuleApplication(6, p=0, q=1, sizes=(2, 0), eigenvalues=(Fraction(0), Fraction(1))), "positive"),
        ],
    )
    def test_each_side_condition(self, app, message):
        # the side conditions are checked before any block is looked up
        with pytest.raises(SideConditionViolated, match=message):
            apply_rule(gl(L(0), LT(0)), app)

    def test_size_change_raises(self, monkeypatch):
        # no rule changes the total size; a rule-3 product one row too large does
        monkeypatch.setattr(degeneration, "_eigen_or_none", lambda index, point: E(index + 1, point))
        with pytest.raises(SideConditionViolated, match="changed the total size"):
            apply_rule(gl(L(0), E(2, 5)), RuleApplication(3, j=0, k=1, eigenvalue=Fraction(5)))

    def test_missing_blocks(self):
        with pytest.raises(MissingBlocks):
            apply_rule(gl(L(0)), RuleApplication(1, j=1, k=1))

    def test_bool_index_raises_after_a_search(self):
        # RuleApplication(1, j=True, k=1) would equal, and hash like, the
        # j = 1 one the search below applies; it raises when built
        assert closure_reachable(gl(L(1), L(1)), gl(L(0), L(2))).certificate == (RuleApplication(1, j=1, k=1),)
        with pytest.raises(InvalidBlock):
            apply_rule(gl(L(0), L(2)), RuleApplication(1, j=True, k=1))

    @pytest.mark.parametrize(
        "fields",
        [
            dict(rule=True, j=1, k=1),
            dict(rule=1, j=True, k=1),
            dict(rule=3, j=0, k=1, eigenvalue=2.0),
            dict(rule=6, p=0, q=0, sizes=(True,), eigenvalues=(Fraction(2),)),
            dict(rule=6, p=0, q=0, sizes=(1,), eigenvalues=(2.0,)),
        ],
    )
    def test_inexact_fields_raise_after_a_search(self, fields):
        # each equals, and hashes like, an application that the searches
        # below apply, so it must raise when built
        certificates = [
            closure_reachable(gl(L(1), L(1)), gl(L(0), L(2))).certificate,
            closure_reachable(gl(L(1), E(1, 2)), gl(L(0), E(2, 2))).certificate,
            closure_reachable(gl(E(1, 2)), gl(L(0), LT(0))).certificate,
        ]
        assert certificates == [
            (RuleApplication(1, j=1, k=1),),
            (RuleApplication(3, j=0, k=1, eigenvalue=Fraction(2)),),
            (RuleApplication(6, p=0, q=0, sizes=(1,), eigenvalues=(Fraction(2),)),),
        ]
        with pytest.raises(InvalidBlock):
            RuleApplication(**fields)

    def test_rule6_lists_raise(self):
        # a list field would leave the application unhashable
        with pytest.raises(InvalidBlock, match="tuples"):
            RuleApplication(6, p=0, q=1, sizes=[1, 1], eigenvalues=(SymbolicPoint("a"), SymbolicPoint("b")))

    def test_size_preserved(self):
        before = gl(L(0), L(2), E(1, 3))
        after = apply_rule(before, RuleApplication(1, j=1, k=1))
        assert (after.total_rows, after.total_cols) == (before.total_rows, before.total_cols)


class TestCanonicalization:
    def test_symbol_renaming(self):
        a = gl(E(1, SymbolicPoint("a")), E(2, SymbolicPoint("b")))
        b = gl(E(1, SymbolicPoint("x")), E(2, SymbolicPoint("y")))
        assert equal_modulo_symbols(a, b)
        assert canonical_key(a) == canonical_key(b)

    def test_concrete_values_not_relabeled(self):
        a = gl(E(1, 2))
        b = gl(E(1, 3))
        assert not equal_modulo_symbols(a, b)
        assert equal_modulo_symbols(a, gl(E(1, 2)))

    def test_seven_symbols(self):
        # every symbol beyond the first two carries the same block, so swapping
        # a and b is a renaming; a search capped at six symbols missed it
        sym = SymbolicPoint
        rest = [E(1, sym(name)) for name in "cdefg"]
        a = gl(E(1, sym("a")), E(2, sym("b")), *rest)
        b = gl(E(2, sym("a")), E(1, sym("b")), *rest)
        assert equal_modulo_symbols(a, b)
        assert canonical_key(a) == canonical_key(b)
        assert not equal_modulo_symbols(a, gl(E(2, sym("a")), E(2, sym("b")), *rest))

    def test_skew_lists(self):
        def skew(*pairs):
            return BlockList.skew([SkewBlock.h(k, SymbolicPoint(name)) for k, name in pairs])

        assert equal_modulo_symbols(skew((1, "a"), (2, "b")), skew((2, "x"), (1, "y")))
        assert not equal_modulo_symbols(skew((1, "a"), (2, "a")), skew((1, "a"), (2, "b")))
        # an H block is not the E block of the same index
        assert not equal_modulo_symbols(skew((1, "a")), gl(E(1, SymbolicPoint("a"))))

    @staticmethod
    def random_list(rng):
        """A general list with up to 5 symbols, some shared, beside fixed blocks."""
        names = rng.sample("abcdefgh", rng.randint(0, 5))
        blocks = [E(rng.randint(1, 3), SymbolicPoint(name)) for name in names]
        for _ in range(rng.randint(0, 4)):
            pick = rng.randrange(5)
            if pick == 0 and names:
                blocks.append(E(rng.randint(1, 3), SymbolicPoint(rng.choice(names))))
            elif pick == 1:
                blocks.append(E(rng.randint(1, 2), rng.choice([0, 1, Fraction(1, 2)])))
            elif pick == 2:
                blocks.append(EINF(rng.randint(1, 2)))
            else:
                blocks.append((L if pick == 3 else LT)(rng.randint(0, 2)))
        return gl(*blocks)

    @staticmethod
    def rename_randomly(rng, blocklist):
        names = sorted({b.eigenvalue.name for b in blocklist.blocks if isinstance(b.eigenvalue, SymbolicPoint)})
        rename = dict(zip(names, rng.sample("abcdefghpqrstu", len(names))))
        return gl(*[
            E(b.index, SymbolicPoint(rename[b.eigenvalue.name])) if isinstance(b.eigenvalue, SymbolicPoint) else b
            for b in blocklist.blocks
        ])

    def test_against_renaming_oracle(self):
        rng = random.Random(41)
        outcomes = []
        for trial in range(400):
            a = self.random_list(rng)
            blocks = list(a.blocks)
            symbolic = [i for i, b in enumerate(blocks) if isinstance(b.eigenvalue, SymbolicPoint)]
            if trial % 2 and symbolic:
                # change one symbolic index, then rename: equal only by coincidence
                i = rng.choice(symbolic)
                new_index = rng.choice([k for k in (1, 2, 3) if k != blocks[i].index])
                blocks[i] = E(new_index, blocks[i].eigenvalue)
            b = self.rename_randomly(rng, gl(*blocks))
            expected = equal_by_renaming(a, b)
            assert equal_modulo_symbols(a, b) == expected, (str(a), str(b))
            outcomes.append(expected)
        assert outcomes.count(True) > 100 and outcomes.count(False) > 100


class TestClosureSearch:
    def test_one_step_rule1(self):
        res = closure_reachable(gl(L(1), L(1)), gl(L(0), L(2)))
        assert res.reachable
        assert len(res.certificate) == 1
        assert res.certificate[0].rule == 1

    def test_one_step_rule6(self):
        target = gl(E(1, SymbolicPoint("mu")))
        res = closure_reachable(target, gl(L(0), LT(0)))
        assert res.reachable
        assert len(res.certificate) == 1
        assert res.certificate[0].rule == 6

    def test_rule6_reaches_target_eigenvalue(self):
        # the 1x1 zero pencil lies in the closure of the orbit of x - 5; rule 6
        # can only create 5 if the target's eigenvalues are in its pool
        source, target = gl(L(0), LT(0)), gl(E(1, 5))
        res = closure_reachable(target, source)
        assert res.status == "yes"
        assert replay_certificate(source, res.certificate) == target
        assert res.certificate[0].eigenvalues == (Fraction(5),)

    def test_generic_pencil_reachable(self):
        # 5x5 skew, rank 4, exactly one block at infinity, degenerate source:
        # reachable to the generic structure within a few steps
        source = skew_to_general(
            BlockList.skew([SkewBlock.m(0), SkewBlock.h(1, 3), SkewBlock.k(1)])
        )
        target = skew_to_general(generic_pencil_structure(5, 2, 1))
        res = closure_reachable(target, source, max_steps=10)
        assert res.reachable
        final = replay_certificate(source, res.certificate)
        assert equal_modulo_symbols(final, target)

    def test_replay_matches_target_exactly(self):
        source = gl(L(0), L(2))
        target = gl(L(1), L(1))
        res = closure_reachable(target, source)
        assert replay_certificate(source, res.certificate) == target

    def test_zero_pencil_reaches_generic(self):
        # the zero 6x6 pencil degenerates to everything; the search must be
        # able to mint fresh infinite blocks on the way to the generic form
        source = skew_to_general(BlockList.skew([SkewBlock.m(0)] * 6))
        target = skew_to_general(generic_pencil_structure(6, 2, 1))
        res = closure_reachable(target, source, max_steps=8)
        assert res.reachable
        assert any(
            app.rule == 6 and INFINITY in app.eigenvalues for app in res.certificate
        )
        final = replay_certificate(source, res.certificate)
        assert equal_modulo_symbols(final, target)

    def test_inconclusive(self):
        # the zero 2x2 pencil is in every 2x2 orbit closure, but reaching
        # rank 2 takes two rule-6 steps, so one step is inconclusive
        target = gl(E(1, SymbolicPoint("z")), E(1, SymbolicPoint("w")))
        source = gl(L(0), L(0), LT(0), LT(0))
        res = closure_reachable(target, source, max_steps=1)
        assert res.status == "no_within_bound"
        assert closure_reachable(target, source, max_steps=2).reachable

    def test_rank_above_target_is_no(self):
        # no rule lowers the rank, so a source of higher rank is certified
        # unreachable after one state, whatever the step bound
        target = gl(L(0), LT(0), E(1, SymbolicPoint("z")))
        source = gl(E(1, 5), E(1, 7))
        for steps in (None, 3, 0):
            res = closure_reachable(target, source, max_steps=steps)
            assert (res.status, res.states_explored, res.certificate, res.witness) == ("no", 1, None, None)
            assert not res.reachable

    def test_hom_witness_is_no(self):
        # four infinite blocks of size 1 are in the closure of two of size 2,
        # not the other way: dim Hom(E_1(inf), -) counts the blocks at infinity
        two, four = gl(EINF(2), EINF(2)), gl(*[EINF(1)] * 4)
        res = closure_reachable(four, two)
        assert (res.status, res.states_explored, res.certificate) == ("no", 1, None)
        assert res.witness == degeneration.HomWitness(EINF(1), "Hom(X, -)", 2, 4)
        assert res.witness.to_json_dict() == {
            "block": "E_1(inf)", "direction": "Hom(X, -)", "source_dim": 2, "target_dim": 4
        }
        assert closure_reachable(two, four).status == "yes"
        # the other direction: dim Hom(-, L^T_0) counts the L^T_0 blocks
        res = closure_reachable(gl(LT(0), LT(2)), gl(LT(1), LT(1)))
        assert res.witness == degeneration.HomWitness(LT(0), "Hom(-, X)", 0, 1)

    def test_witnesses_hold_for_every_valuation(self, prechecks):
        # a witness reads no eigenvalue, so it refutes the source with its
        # symbols set to any rationals, equal or not, and the search from
        # that source finds nothing either
        symbols = [SymbolicPoint(name) for name in "ab"]
        checked = 0
        for n, w, r in [(5, 2, 1), (6, 2, 1), (6, 2, 2)]:
            target = skew_to_general(generic_pencil_structure(n, w, r))
            for source in skew_sources(n):
                res = closure_reachable(target, source)
                if res.witness is None or not set(symbols) & {b.eigenvalue for b in source.blocks}:
                    continue
                checked += 1
                for values in ((0, 0), (0, 1)):
                    value = dict(zip(symbols, values))
                    valued = gl(*[E(b.index, value[b.eigenvalue]) if b.eigenvalue in value else b
                                  for b in source.blocks])
                    assert closure_reachable(target, valued).witness == res.witness, str(valued)
                    steps = codim_general(valued) - codim_general(target)
                    bfs = degeneration._breadth_first(target, valued, prechecks(target, valued), steps)
                    assert bfs.status == "no_within_bound", str(valued)
        assert checked == 14

    def test_default_step_bound_is_the_codimension_gap(self):
        # every rule lowers the orbit codimension, so the gap bounds every
        # path; the old default, the pencil size, cut this search short
        source, target = gl(*[L(0)] * 3, *[LT(0)] * 3), gl(L(1), LT(1))
        assert codim_general(source) - codim_general(target) == 14
        assert closure_reachable(target, source, max_steps=3).status == "no_within_bound"
        res = closure_reachable(target, source)
        assert (res.status, res.states_explored) == ("yes", 17)
        assert replay_certificate(source, res.certificate) == target

    def test_zero_codimension_gap_is_a_certified_no(self):
        # both orbits have codimension 2, and every rule lowers it, so no
        # path joins them: under the default step bound that is a "no"
        a, b = SymbolicPoint("a"), SymbolicPoint("b")
        target, source = gl(E(1, a), E(1, b)), gl(E(2, a))
        assert codim_general(source) == codim_general(target) == 2
        res = closure_reachable(target, source)
        assert (res.status, res.states_explored, res.witness) == ("no", 1, None)
        assert closure_reachable(target, source, max_steps=0).status == "no_within_bound"

    def test_results_are_frozen(self):
        # the certified "no" of an exhausted search is a new result, not an
        # edit of the search's own
        a, b = SymbolicPoint("a"), SymbolicPoint("b")
        res = closure_reachable(gl(E(1, a), E(1, b)), gl(E(2, a)))
        for field, value in (("status", "yes"), ("certificate", ()), ("states_explored", 0), ("witness", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(res, field, value)
        assert (res.status, res.states_explored) == ("no", 1)

    def test_zero_codimension_gaps_match_the_unpruned_search(self):
        # every ordered pair of distinct skew sources of sizes 3-5 whose gap
        # is 0 or less: those that neither the rank nor a witness refutes
        # are answered "no" after one state, and the unpruned search reaches
        # none of them
        pairs = answered = 0
        for n in (3, 4, 5):
            for target, source in itertools.permutations(skew_sources(n), 2):
                pairs += 1
                if codim_general(source) > codim_general(target):
                    continue
                res = closure_reachable(target, source)
                assert (res.status, res.states_explored) == ("no", 1), (str(target), str(source))
                if source.rank <= target.rank and res.witness is None:
                    answered += 1
                    full = closure_reachable_unpruned(target, source, max_steps=6)
                    assert full.status == "no_within_bound", (str(target), str(source))
        assert (pairs, answered) == (258, 30)

    def test_exhausted_searches_are_certified_no(self):
        # under the default step bound, a search that ends below MAX_STATES
        # has met every path the gap allows: no pair of distinct skew
        # sources of sizes 3-5 is left inconclusive, and the unpruned
        # search, four steps past the gap, reaches none of those it refutes
        statuses, exhausted = collections.Counter(), 0
        for n in (3, 4, 5):
            for target, source in itertools.permutations(skew_sources(n), 2):
                res = closure_reachable(target, source)
                statuses[res.status] += 1
                if res.status == "no" and res.witness is None and res.states_explored > 1:
                    exhausted += 1
                    gap = codim_general(source) - codim_general(target)
                    assert res.states_explored < degeneration.MAX_STATES
                    assert closure_reachable(target, source, max_steps=gap).status == "no_within_bound"
                    full = closure_reachable_unpruned(target, source, max_steps=gap + 4)
                    assert full.status == "no_within_bound", (str(target), str(source))
        assert statuses == {"yes": 86, "no": 172}
        assert exhausted == 12

    def test_state_bound_leaves_the_search_inconclusive(self, monkeypatch):
        # the search above keys 17 states; a bound of 5 stops it at the fifth
        source, target = gl(*[L(0)] * 3, *[LT(0)] * 3), gl(L(1), LT(1))
        monkeypatch.setattr(degeneration, "MAX_STATES", 5)
        res = closure_reachable(target, source)
        assert (res.status, res.states_explored, res.certificate) == ("no_within_bound", 5, None)

    def test_shape_mismatch(self):
        # the shapes are compared before the step bound is checked
        for steps in (None, -1, 1.5):
            with pytest.raises(ShapeMismatch):
                closure_reachable(gl(L(1)), gl(L(0)), max_steps=steps)

    def test_negative_step_bound(self):
        target = gl(E(1, SymbolicPoint("z")), E(1, SymbolicPoint("w")))
        source = gl(L(0), L(0), LT(0), LT(0))
        with pytest.raises(ParamDomain):
            closure_reachable(target, source, max_steps=-1)
        assert closure_reachable(target, source, max_steps=0).status == "no_within_bound"

    @pytest.mark.parametrize("steps", [True, False, 1.5, 2.0, Fraction(2), "3"])
    def test_step_bound_must_be_an_integer(self, steps):
        # True == 1 ran a search of one step, and 1.5 or "3" raised a bare
        # TypeError. The bound is checked before the rank can answer, so a
        # source of higher rank raises too
        searched = gl(E(1, SymbolicPoint("z")), E(1, SymbolicPoint("w"))), gl(L(0), L(0), LT(0), LT(0))
        rank_refuted = gl(L(0), LT(0), E(1, SymbolicPoint("z"))), gl(E(1, 5), E(1, 7))
        for target, source in (searched, rank_refuted):
            with pytest.raises(ParamDomain):
                closure_reachable(target, source, max_steps=steps)

    def test_source_equal_up_to_renaming_is_yes(self):
        # equal keys mean equal ranks and equal Hom vectors, so neither the
        # rank nor the witness pass refutes the source, and it is "yes" at
        # once, whatever the step bound
        a, b = SymbolicPoint("a"), SymbolicPoint("b")
        target = gl(L(1), LT(0), E(1, a), E(2, b), EINF(1))
        source = gl(L(1), LT(0), E(2, a), E(1, b), EINF(1))
        assert source != target
        for steps in (None, 0):
            res = closure_reachable(target, source, max_steps=steps)
            assert (res.status, res.certificate, res.states_explored, res.witness) == ("yes", (), 1, None)

    def test_invalid_application_raises(self, monkeypatch, fresh_layout):
        # a generator that yields an application the state cannot take is a
        # bug the search must surface, not a path to skip; on an empty
        # layout, so that no memoized expansion bypasses the generator
        fresh_layout()
        real = degeneration._applications

        def with_invalid(counts, pool, raise_rank):
            yield 1, 7, 7, None, None, None, None, None
            yield from real(counts, pool, raise_rank)

        monkeypatch.setattr(degeneration, "_applications", with_invalid)
        with pytest.raises(MissingBlocks):
            closure_reachable(gl(L(1), L(1)), gl(L(0), L(2)))

    @pytest.mark.parametrize("skew_target, skew_source", [(True, True), (False, True), (True, False)])
    @pytest.mark.parametrize(
        "cell, source, steps",
        [
            ((5, 2, 1), [SkewBlock.m(0), SkewBlock.h(1, SymbolicPoint("p0")), SkewBlock.k(1)], None),
            ((6, 2, 2), [SkewBlock.m(0), SkewBlock.m(0), SkewBlock.k(2)], None),
            ((5, 2, 1), [SkewBlock.m(0), SkewBlock.m(0), SkewBlock.m(0), SkewBlock.k(1)], 1),
        ],
        ids=["yes", "exhaustive", "step-bound"],
    )
    def test_skew_inputs_search_their_unfolding(self, cell, source, steps, skew_target, skew_source):
        # the rule generators read only general kinds, so a skew list used to
        # yield no application and end "no_within_bound" after one state
        target = generic_pencil_structure(*cell)
        source = BlockList.skew(source)
        general = closure_reachable(skew_to_general(target), skew_to_general(source), max_steps=steps)
        res = closure_reachable(
            target if skew_target else skew_to_general(target),
            source if skew_source else skew_to_general(source),
            max_steps=steps,
        )
        assert (res.status, certificate_json(res), res.states_explored, res.witness) == (
            general.status, certificate_json(general), general.states_explored, general.witness
        )

    def test_replay_from_a_skew_source(self):
        # the certificate was found from the source's unfolding, which the
        # replay makes itself
        source = BlockList.skew([SkewBlock.m(0), SkewBlock.h(1, SymbolicPoint("p0")), SkewBlock.k(1)])
        target = generic_pencil_structure(5, 2, 1)
        res = closure_reachable(target, source)
        assert res.reachable and res.certificate
        final = replay_certificate(source, res.certificate)
        assert final.flavor == "general"
        assert canonical_key(final) == canonical_key(skew_to_general(target))

    def test_builds_no_blocklist(self, monkeypatch, prechecks):
        # the search runs on block counts from entry to return: rules are
        # enumerated and applied, and successors keyed and tested, without
        # any list. A Hom witness refutes the exhaustive case before any
        # search, and the search's own Hom test would stop it after one
        # step, so the search helper runs a source that passes the test and
        # needs four steps, with three
        exhaustive = (skew_to_general(generic_pencil_structure(6, 2, 2)),
                      skew_to_general(BlockList.skew([SkewBlock.m(0), SkewBlock.m(0), SkewBlock.k(2)])), 6)
        cut = (skew_to_general(generic_pencil_structure(6, 2, 1)),
               skew_to_general(BlockList.skew([SkewBlock.k(1)] + [SkewBlock.m(0)] * 4)), 3)
        searches = [
            (closure_reachable, skew_to_general(generic_pencil_structure(5, 2, 1)),
             skew_to_general(BlockList.skew([SkewBlock.m(0), SkewBlock.h(1, 3), SkewBlock.k(1)])), 10),
            (closure_reachable, *exhaustive),
            (lambda t, s, steps: degeneration._breadth_first(t, s, prechecks(t, s), steps), *cut),
            (closure_reachable, skew_to_general(generic_pencil_structure(6, 2, 1)),
             skew_to_general(BlockList.skew([SkewBlock.m(0)] * 6)), 8),
            (closure_reachable, gl(E(1, SymbolicPoint("z")), E(1, SymbolicPoint("w"))),
             gl(L(0), L(0), LT(0), LT(0)), 1),
        ]
        built = []
        real = BlockList.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(BlockList, "__post_init__", counting)
        statuses = []
        for search, target, source, steps in searches:
            built.clear()
            res = search(target, source, steps)
            statuses.append(res.status)
            assert res.states_explored > 1 or res.witness is not None
            assert built == [], (str(source), len(built))
        assert statuses == ["yes", "no", "no_within_bound", "yes", "no_within_bound"]
        assert degeneration._hom_witness(*prechecks(*cut[:2]), 6, 6) is None
        assert len(closure_reachable(cut[0], cut[1]).certificate) == 4

    def test_trivial_identity(self):
        bl = gl(L(1), LT(1))
        res = closure_reachable(bl, bl)
        assert res.reachable and res.certificate == ()


class TestDegenerateDrawReachesGeneric:
    def test_monte_carlo_outlier_degenerates(self):
        # the one degenerate draw the genericity experiment finds at
        # (5, 2, 2) with base seed 7: linearize its padding and certify that
        # the generic pencil structure is reachable from it
        from skewstruct.blocks import structure_to_skew_blocks
        from skewstruct.eigenstructure import analyze
        from skewstruct.linearize import build_linearization, pad_grade
        from skewstruct.sampling import SampleSpec, sample_bounded_rank

        draw = sample_bounded_rank(SampleSpec(m=5, d=2, r=2, coeff_range=9, seed=7000099))
        pencil = build_linearization(pad_grade(draw)).pencil
        source = structure_to_skew_blocks(analyze(pencil, 1))
        assert source == BlockList.skew(
            [SkewBlock.h(1, 0), SkewBlock.k(1), SkewBlock.k(1), SkewBlock.m(4)]
        )
        target = skew_to_general(generic_pencil_structure(15, 7, 2))
        res = closure_reachable(target, skew_to_general(source), max_steps=6)
        assert res.reachable
        assert sorted(app.rule for app in res.certificate) == [3, 4]
        final = replay_certificate(skew_to_general(source), res.certificate)
        assert equal_modulo_symbols(final, target)


class TestBoundedRankSetIsOneOrbitClosure:
    CODIMENSIONS = {
        (3, 2, 1): [3] + [6] * 4 + [9] * 9 + [12],
        (4, 2, 1): [11, 12] + [15] * 4 + [19, 24],
    }

    @pytest.mark.parametrize("m, d, r, distinct", [(3, 2, 1, 15), (4, 2, 1, 8)])
    def test_every_realized_structure_reaches_the_generic_pencil(self, m, d, r, distinct):
        # the paper's theorem, through linearization: P -> L(pad(P)) is
        # linear and the generic pencil structure is one congruence orbit,
        # so every P of rank at most 2r lies in that orbit's closure. A "no"
        # here would refute the theorem. Low-range draws hit eigenvalues,
        # irrational factors among them; the zero polynomial is the extreme
        from skewstruct.blocks import structure_to_skew_blocks
        from skewstruct.codimension import codim_blocksum, codim_poly_generic, codim_tangent
        from skewstruct.eigenstructure import analyze
        from skewstruct.exact import SkewMatrixPolynomial
        from skewstruct.linearize import build_linearization, pad_grade
        from skewstruct.sampling import SampleSpec, sample_bounded_rank

        draws = [sample_bounded_rank(SampleSpec(m=m, d=d, r=r, coeff_range=1, seed=s)) for s in range(300)]
        draws.append(SkewMatrixPolynomial.zeros(m, m, grade=d))
        sources = {}
        for draw in draws:
            pencil = build_linearization(pad_grade(draw)).pencil
            skew = structure_to_skew_blocks(analyze(pencil, 1))
            sources.setdefault(canonical_key(skew_to_general(skew)), (skew, pencil))
        assert len(sources) == distinct
        generic = generic_pencil_structure(m * (d + 1), (m * d + 2 * r) // 2, r)
        target = skew_to_general(generic)
        explored = {}
        codims = []
        gsyl = codim_poly_generic(m, d, r).gsyl
        for skew, pencil in sources.values():
            source = skew_to_general(skew)
            res = closure_reachable(target, source)
            assert res.status == "yes", str(source)
            assert equal_modulo_symbols(replay_certificate(source, res.certificate), target), str(source)
            explored[str(source)] = res.states_explored
            # every orbit in the generic orbit's closure but the generic one
            # has a strictly larger codimension
            codim = codim_blocksum(skew)
            assert codim == codim_tangent(pencil), str(skew)
            assert codim > gsyl or (codim == gsyl and skew == generic), str(skew)
            codims.append(codim)
        assert sorted(codims) == self.CODIMENSIONS[m, d, r]
        zero = " + ".join(["L_1"] * m + ["L^T_1"] * m)
        assert explored[zero] == {3: 246, 4: 308}[m]
        if m == 3:
            roots = "E_1(@r0) + E_1(@r0) + E_1(@r1) + E_1(@r1) + E_1(inf) + E_1(inf) + L_1 + L^T_1"
            assert explored[roots] == 56


class TestForwardFuzz:
    STARTS = [
        gl(L(0), L(0), LT(0), LT(0), E(1, 2), E(1, 2)),
        gl(L(1), LT(1), EINF(1), EINF(1)),
        gl(L(0), L(2), LT(0), LT(2)),
    ]

    def test_random_forward_paths_are_found(self):
        # apply random legal rules forward, then confirm the search certifies
        # the resulting degeneration and the replay reaches the same state
        rng = random.Random(424242)
        for start in self.STARTS:
            for _ in range(4):
                state = start
                path_len = rng.randint(1, 3)
                for _ in range(path_len):
                    apps = enumerate_applications(state)
                    if not apps:
                        break
                    state = apply_rule(state, rng.choice(apps))
                res = closure_reachable(state, start, max_steps=path_len + 1)
                assert res.reachable, (start, state)
                final = replay_certificate(start, res.certificate)
                assert equal_modulo_symbols(final, state)
                assert len(res.certificate) <= path_len

    def test_rule6_alone_changes_the_rank(self):
        # the fact the search's rank bound rests on: rules 1-5 keep the rank
        # and rule 6 raises it by exactly one, from every state reachable
        # from the starts above
        seen = set()
        todo = list(self.STARTS)
        rules = set()
        while todo:
            state = todo.pop()
            key = canonical_key(state)
            if key in seen:
                continue
            seen.add(key)
            for app in enumerate_applications(state):
                nxt = apply_rule(state, app)
                assert nxt.rank - state.rank == (app.rule == 6), (str(state), app)
                rules.add(app.rule)
                todo.append(nxt)
        assert rules == {1, 2, 3, 4, 5, 6}
        assert len(seen) > 300


def skew_sources(n):
    """Every skew block list of size n, with H blocks at up to two symbols, one per renaming class."""
    kinds = [(2 * k + 1, SkewBlock.m(k)) for k in range(n // 2 + 1)]
    for k in range(1, n // 2 + 1):
        kinds.append((2 * k, SkewBlock.k(k)))
        kinds += [(2 * k, SkewBlock.h(k, SymbolicPoint(name))) for name in "ab"]
    found = {}

    def fill(left, start, chosen):
        if left == 0:
            general = skew_to_general(BlockList.skew(chosen))
            found.setdefault(canonical_key(general), general)
        for i in range(start, len(kinds)):
            size, block = kinds[i]
            if size <= left:
                fill(left - size, i, chosen + [block])

    fill(n, 0, [])
    return list(found.values())


def certificate_json(result):
    if result.certificate is None:
        return None
    return json.dumps([app.to_json_dict() for app in result.certificate])


class TestRankBound:
    CELLS = [(3, 1, 0), (3, 1, 1), (4, 1, 0), (4, 1, 1), (5, 1, 0), (5, 1, 1),
             (5, 2, 0), (5, 2, 1), (5, 2, 2), (6, 2, 0)]

    def test_matches_the_unbounded_search(self, prechecks):
        # every skew source against the generic structure of each cell, of
        # every rank, both searches with closure_reachable's default step
        # bound: below the target's (rule 6 still runs, the zero pencil
        # among them), equal to it and above it (answered "no" at once; the
        # unbounded search cannot certify that and stays inconclusive). A
        # Hom witness answers "no" only where the unbounded search finds
        # nothing, and no source that search reaches has a witness
        relations = {-1: 0, 0: 0, 1: 0}
        fewer = witnessed = 0
        for n, w, r in self.CELLS:
            target = skew_to_general(generic_pencil_structure(n, w, r))
            for source in skew_sources(n):
                steps = max(codim_general(source) - codim_general(target), 0)
                bounded = closure_reachable(target, source, max_steps=steps)
                full = closure_reachable_unpruned(target, source, max_steps=steps)
                label = (n, w, r, str(source))
                relation = (source.rank > target.rank) - (source.rank < target.rank)
                relations[relation] += 1
                if full.status == "yes":
                    assert degeneration._hom_witness(*prechecks(target, source), n, n) is None, label
                if relation == 1:
                    assert (bounded.status, bounded.states_explored, bounded.witness) == ("no", 1, None), label
                    assert full.status == "no_within_bound", label
                elif bounded.status == "no":
                    assert bounded.witness is not None and bounded.states_explored == 1, label
                    assert full.status == "no_within_bound", label
                    witnessed += 1
                else:
                    assert bounded.status == full.status, label
                assert certificate_json(bounded) == certificate_json(full), label
                assert bounded.states_explored <= full.states_explored, label
                fewer += bounded.states_explored < full.states_explored
        assert min(relations.values()) >= 20, relations
        assert witnessed == 21 and fewer > 50, (witnessed, fewer)


def random_list_of_shape(rng, rows, cols):
    """A random general block list of total size rows x cols.

    With a right and b left singular blocks, cols - rows = a - b and the
    indices sum to rows - b. A large b leaves most of the size in L_0 and
    L^T_0 blocks, whose Hom sums with the largest candidates come near the
    bound the field width is derived from when rows and cols differ a lot.
    """
    b = rng.randint(max(0, rows - cols), rows)
    indices = [["L", 0] for _ in range(b + cols - rows)] + [["L_T", 0] for _ in range(b)]
    points = [INFINITY, Fraction(0), Fraction(1, 2), SymbolicPoint("a")]
    eigen = []
    for _ in range(rows - b):
        roll = rng.random()
        if indices and roll < 0.5:
            rng.choice(indices)[1] += 1
        elif eigen and roll < 0.75:
            rng.choice(eigen)[0] += 1
        else:
            eigen.append([1, rng.choice(points)])
    blocks = [GeneralBlock(kind, index) for kind, index in indices]
    return gl(*blocks, *(GeneralBlock.eigen(index, point) for index, point in eigen))


class TestPrechecks:
    def test_answers_match_the_oracles(self):
        # closure_reachable answers by the rank, then a Hom witness, then
        # equal keys, and only then searches. At a step bound of 0 the
        # search takes no step and ends "no_within_bound", so every other
        # answer is a precheck's: each "no" has a higher source rank or the
        # witness of the per-candidate sums, and each pair with equal keys,
        # (a, a) and a list against its copy with the symbol renamed, is
        # "yes". The default bound gives the prechecks' answers the same
        # way. Equal keys never meet a higher rank or a witness, so the
        # order of the three cannot change an answer
        rng = random.Random(52)
        renamed = {SymbolicPoint("a"): SymbolicPoint("b")}
        seen = collections.Counter()
        for rows in range(7):
            for cols in range(7):
                draws = (random_list_of_shape(rng, rows, cols) for _ in range(8))
                lists = list({canonical_key(draw): draw for draw in draws}.values())[:5]
                lists.append(gl(*(E(b.index, renamed[b.eigenvalue]) if b.eigenvalue in renamed else b
                                  for b in lists[0].blocks)))
                for target, source in itertools.product(lists, repeat=2):
                    label = str(target), str(source)
                    higher = source.rank > target.rank
                    witness = hom_witness_by_sums(target.counts(), source.counts(), max(rows, cols))
                    equal = canonical_key(source) == canonical_key(target)
                    assert not (equal and (higher or witness)), label
                    if higher:
                        kind, expected = "rank", ("no", None, 1, None)
                    elif witness is not None:
                        kind, expected = "witness", ("no", None, 1, witness)
                    elif equal:
                        kind, expected = "equal", ("yes", (), 1, None)
                    else:
                        kind, expected = "searched", ("no_within_bound", None, 1, None)
                    seen[kind] += 1
                    seen["equal, distinct lists"] += equal and source != target
                    for steps in (0, None) if kind != "searched" else (0,):
                        res = closure_reachable(target, source, max_steps=steps)
                        assert (res.status, res.certificate, res.states_explored, res.witness) == expected, label
        assert seen == {"rank": 294, "witness": 115, "equal": 318, "equal, distinct lists": 16, "searched": 399}


class TestPackedHomKernel:
    def test_matches_the_sums_on_the_rank_bound_cells(self, prechecks):
        # the packed pass returns the witness of the per-candidate sums, or
        # None with them, on every cell pair of TestRankBound, both ways
        witnessed = 0
        for n, w, r in TestRankBound.CELLS:
            target = skew_to_general(generic_pencil_structure(n, w, r))
            for source in skew_sources(n):
                for a, b in ((target, source), (source, target)):
                    packed = degeneration._hom_witness(*prechecks(a, b), n, n)
                    assert packed == hom_witness_by_sums(a.counts(), b.counts(), n), (n, w, r, str(b))
                    witnessed += packed is not None
        assert witnessed == 120

    def test_matches_the_sums_on_random_lists(self, prechecks):
        # lists up to size 24 against themselves (no witness), and against
        # other lists of their size (most differences negative somewhere).
        # Some lists fill a field's upper half, so a field one bit narrower
        # than the derived width would overflow there
        rng = random.Random(2026)
        witnessed = upper_half = 0
        for _ in range(200):
            rows, cols = sorted((rng.randint(0, 24), rng.randint(1, 24)), reverse=rng.random() < 0.5)
            source = random_list_of_shape(rng, rows, cols)
            targets = [source, random_list_of_shape(rng, rows, cols), random_list_of_shape(rng, rows, cols)]
            for target in targets:
                packed = degeneration._hom_witness(*prechecks(target, source), rows, cols)
                expected = hom_witness_by_sums(target.counts(), source.counts(), max(rows, cols))
                assert packed == expected, (str(target), str(source))
                witnessed += packed is not None
            width, _, _, _ = degeneration._hom_layout(rows, cols)
            vector = degeneration._hom_vector(source.counts(), rows, cols)
            mask = (1 << width) - 1
            fields = [(vector >> shift) & mask for shift in range(0, vector.bit_length(), width)]
            upper_half += max(fields) >= 1 << (width - 2)
        assert (witnessed, upper_half) == (172, 43)

    def test_certificate_states_pass_against_their_target(self, prechecks):
        # the theorem the search's pruning rests on: every state on a path
        # to the target lies in its orbit closure, so it has every Hom
        # dimension at least the target's. Each certificate of the n <= 7
        # sweep (every valid cell, every skew source of the target's rank)
        # is replayed rule by rule, and each state it passes through is
        # tested by the packed kernel and by the per-candidate sums
        searches = certified = states = 0
        for n in range(3, 8):
            sources = skew_sources(n)
            for w in range(1, (n - 1) // 2 + 1):
                for r in range(w + 1):
                    target = skew_to_general(generic_pencil_structure(n, w, r))
                    for source in sources:
                        if source.rank != target.rank:
                            continue
                        searches += 1
                        res = closure_reachable(target, source)
                        if res.status != "yes":
                            continue
                        certified += 1
                        state = source
                        for app in res.certificate:
                            state = apply_rule(state, app)
                            assert degeneration._hom_witness(*prechecks(target, state), n, n) is None
                            assert hom_witness_by_sums(target.counts(), state.counts(), n) is None
                            states += 1
                        assert canonical_key(state) == canonical_key(target)
        assert (searches, certified, states) == (205, 103, 276)

    def test_large_pencils_are_packed_in_linear_time(self):
        # L_9000 + L^T_9000 against L_8999 + L^T_9001: 18,001 x 18,001
        # pencils, 108,010 candidates in 31-bit fields. Building the layout's
        # HIGH and each block's int one field at a time is quadratic in that
        # size (about 12 s on a 2-CPU x86 machine); built in linear or
        # linear-log time, the search answers in about 0.4 s there
        def hang(signum, frame):
            raise TimeoutError("the Hom layout took more than 3 s")

        k = 9000
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(3)
        try:
            res = closure_reachable(gl(L(k), LT(k)), gl(L(k - 1), LT(k + 1)))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (res.status, res.states_explored) == ("no", 1)
        assert res.witness == degeneration.HomWitness(LT(k), "Hom(-, X)", 0, 1)

    def test_block_ints_match_one_dim_hom_per_field(self):
        # the closed form against the per-candidate fill, on every kind,
        # every index from the least to size + 2 and every shape up to
        # 21 x 21: up to 130 fields, so the oracle's merge past 64 fields
        # runs too. The layout's field count and HIGH are the candidates'
        cases = 0
        for rows in range(22):
            for cols in range(1, 22):
                width, high, _, _ = degeneration._hom_layout(rows, cols)
                count = high.bit_length() // width
                assert count == len(hom_candidates(rows, cols))
                assert high == sum(1 << (i * width + width - 1) for i in range(count))
                for kind, least in (("L", 0), ("L_T", 0), ("E_finite", 1), ("E_infinite", 1)):
                    for index in range(least, max(rows, cols) + 3):
                        packed = degeneration._block_hom.__wrapped__(kind, index, rows, cols)
                        assert packed == block_hom_by_dim_hom(kind, index, rows, cols), (kind, index, rows, cols)
                        cases += 1
        assert cases == 31108

    def test_each_field_decodes_to_its_candidate(self):
        for size in range(30):
            candidates = hom_candidates(size, size)
            width, high, _, _ = degeneration._hom_layout(size, size)
            assert high.bit_length() // width == len(candidates)
            for i, candidate in enumerate(candidates):
                assert degeneration._hom_candidate(i) == candidate, (size, i)

    def test_large_pencils_build_no_candidate_blocks(self):
        # L_k + L^T_k against L_{k-1} + L^T_{k+1} at k = 10^5: 200,001 x
        # 200,001 pencils with 1,200,010 fields. The pass reads each block's
        # int in closed form and builds only the witness, where a list of
        # candidates interns 600,002 blocks first. The alarm only guards
        # against a hang; the block count is what this test checks
        def hang(signum, frame):
            raise TimeoutError("the Hom witness pass took more than 60 s")

        k = 100_000
        target, source = gl(L(k), LT(k)), gl(L(k - 1), LT(k + 1))
        before = _cached_block.cache_info().currsize
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(60)
        try:
            res = closure_reachable(target, source)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert _cached_block.cache_info().currsize - before <= 4
        assert (res.status, res.states_explored) == ("no", 1)
        assert res.witness == degeneration.HomWitness(LT(k), "Hom(-, X)", 0, 1)


def fields_of(app):
    """The tuple of an application's eight fields, as the rule generator yields it: its step table key."""
    return tuple(getattr(app, field.name) for field in dataclasses.fields(app))


def recorded_search(monkeypatch, fresh_layout, target, source):
    """closure_reachable(target, source) on an empty packed layout, with every application it applied.

    Returns (result, the layout the search used or None, [(decoded counts
    of the expanded state, application)]). The layout's successor lists
    are wrapped, so the record holds exactly the (state, application)
    pairs the search took, in its order, and the search applies every
    pair it takes.
    """
    slot = fresh_layout()
    applied = []
    real = degeneration._PackedStates.successors

    def recording(states, packed, pool, raise_rank):
        counts = states.counts(packed)
        for app, step in real(states, packed, pool, raise_rank):
            applied.append((counts, app))
            yield app, step

    monkeypatch.setattr(degeneration._PackedStates, "successors", recording)
    result = closure_reachable(target, source)
    states = getattr(slot, "states", None)
    monkeypatch.undo()
    return result, states, applied


class TestPackedStates:
    """The search's packed states against the dict reference: `_apply_to_counts` and `_key_from_counts`."""

    def check_search(self, monkeypatch, fresh_layout, target, source):
        # Every state the search keys: the source, and the successor of
        # every application it applied, made from its parent's int plus the
        # cached delta. Each decodes to the counts `_apply_to_counts` makes
        # from the parent's, its Hom vector and rank deltas add up, and the
        # packed keys and `_key_from_counts` keys pair one to one, as many
        # as the states the search counted. Returns (result, the packed
        # keys, the largest count in a field, the field width).
        result, states, applied = recorded_search(monkeypatch, fresh_layout, target, source)
        if states is None:
            assert applied == [] and result.states_explored == 1
            return result, set(), 0, 0
        rows, cols = states.rows, states.cols
        source_counts = source.counts()
        pairs = {(states.key(states.pack(source_counts)), degeneration._key_from_counts(source_counts))}
        largest = max(source_counts.values())
        for counts, app in applied:
            parent = states.pack(counts)
            assert states.counts(parent) == counts
            _, (_, _, delta, hom_delta, rank_delta) = states.steps[fields_of(app)]
            successor = parent + delta
            reference = dict(counts)
            degeneration._apply_to_counts(reference, app)
            assert states.counts(successor) == reference, (counts, app)
            assert degeneration._hom_vector(counts, rows, cols) + hom_delta == degeneration._hom_vector(
                reference, rows, cols
            )
            assert sum(b.rank * c for b, c in counts.items()) + rank_delta == sum(
                b.rank * c for b, c in reference.items()
            )
            pairs.add((states.key(successor), degeneration._key_from_counts(reference)))
            largest = max(largest, *reference.values())
        packed_keys = {packed for packed, _ in pairs}
        reference_keys = {reference for _, reference in pairs}
        assert len(packed_keys) == len(reference_keys) == len(pairs) == result.states_explored
        assert largest <= rows + cols < 1 << (states.width - 1)
        return result, packed_keys, largest, states.width

    def test_keys_and_counts_on_the_sweep(self, monkeypatch, fresh_layout):
        # every skew source of the target's rank against each valid cell
        # with n <= 7, a superset of the benchmark's closure_sources sweep
        searches = searched = keyed = with_symbols = 0
        for n in range(3, 8):
            sources = skew_sources(n)
            for w in range(1, (n - 1) // 2 + 1):
                for r in range(w + 1):
                    target = skew_to_general(generic_pencil_structure(n, w, r))
                    for source in sources:
                        if source.rank != target.rank:
                            continue
                        _, keys, _, _ = self.check_search(monkeypatch, fresh_layout, target, source)
                        searches += 1
                        searched += bool(keys)
                        keyed += len(keys)
                        with_symbols += sum(isinstance(key, tuple) for key in keys)
        assert (searches, searched, keyed, with_symbols) == (205, 80, 2500, 1573)

    @pytest.mark.parametrize("w, r", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    def test_zero_pencil_against_the_unpruned_search(self, monkeypatch, fresh_layout, w, r):
        # 6 L_0 + 6 L^T_0, the 6 x 6 zero pencil: six copies of each block,
        # the most any 6 x 6 state holds, in fields 5 bits wide
        source = gl(*[L(0)] * 6, *[LT(0)] * 6)
        target = skew_to_general(generic_pencil_structure(6, w, r))
        result, _, largest, width = self.check_search(monkeypatch, fresh_layout, target, source)
        steps = codim_general(source) - codim_general(target)
        full = closure_reachable_unpruned(target, source, max_steps=steps)
        assert (result.status, certificate_json(result)) == (full.status, certificate_json(full))
        assert result.status == "yes" and (largest, width) == (6, 5)

    def test_target_with_symbols(self, monkeypatch, fresh_layout):
        # a target with symbolic eigenvalues keys as a pair, and the search
        # reaches it under a renaming of the symbols
        target = gl(E(1, SymbolicPoint("z")), E(1, SymbolicPoint("w")))
        result, keys, _, _ = self.check_search(monkeypatch, fresh_layout, target, gl(L(0), L(0), LT(0), LT(0)))
        assert result.status == "yes" and len(result.certificate) == 2
        assert sum(isinstance(key, tuple) for key in keys) > 0

    def test_missing_block_raises_as_the_dict_path(self, monkeypatch, fresh_layout, prechecks):
        # the HIGH-bit test finds a missing block, and a block held once
        # that rule 5 consumes twice; the search, given only that
        # application on an empty layout, raises what the dict path raises
        states = degeneration._PackedStates(4, 4)
        for counts, fields in [
            ({L(0): 1, LT(0): 1, E(1, 2): 1}, (1, 1, 1, None, None, None, None, None)),
            ({E(1, 2): 1, E(2, 2): 1}, (5, 1, 1, None, None, Fraction(2), None, None)),
        ]:
            packed = states.pack(counts)
            app, (need, high, _, _, _) = states.step(fields)
            assert ((packed | high) - need) & high != high
            fresh_layout()
            monkeypatch.setattr(degeneration, "_applications", lambda *args, fields=fields: iter([fields]))
            bl = gl(*[block for block, count in counts.items() for _ in range(count)])
            with pytest.raises(MissingBlocks) as search_error:
                degeneration._breadth_first(bl, bl, prechecks(bl, bl), 1)
            with pytest.raises(MissingBlocks) as dict_error:
                degeneration._apply_to_counts(dict(counts), app)
            assert str(search_error.value) == str(dict_error.value)


def cell_searches(n):
    """(target, source) for every skew source of size n against each valid cell (n, w, r)."""
    sources = skew_sources(n)
    return [
        (skew_to_general(generic_pencil_structure(n, w, r)), source)
        for w in range(1, (n - 1) // 2 + 1)
        for r in range(w + 1)
        for source in sources
    ]


def expansions(monkeypatch, fresh_layout, searches, share):
    """Run the searches in order, on one layout per shape or, unless `share`, on a fresh one each.

    Returns (results, per search the states it called the generator on).
    A state is (its counts as a set, pool, raise_rank).
    """
    real = degeneration._applications
    calls = []

    def recording(counts, pool, raise_rank):
        calls[-1].append((frozenset(counts.items()), tuple(pool), raise_rank))
        return real(counts, pool, raise_rank)

    fresh_layout()
    monkeypatch.setattr(degeneration, "_applications", recording)
    results = []
    for target, source in searches:
        calls.append([])
        if not share:
            fresh_layout()
        results.append(closure_reachable(target, source))
    monkeypatch.undo()
    return results, calls


class TestSharedLayout:
    """One packed layout per pencil shape and thread, its successors memoized, gives every search's own answer."""

    def test_shuffled_sweep_equals_fresh_layouts(self, monkeypatch, fresh_layout):
        # every skew source against each valid cell with n <= 6, a superset
        # of the benchmark's closure_sources searches there: shape by shape
        # in a shuffled order, each shape's searches shuffled, on one slot
        rng = random.Random(47)
        sizes = [3, 4, 5, 6]
        rng.shuffle(sizes)
        searches = []
        for n in sizes:
            group = cell_searches(n)
            rng.shuffle(group)
            searches += group
        slot = fresh_layout()
        layouts = []
        shared = []
        for target, source in searches:
            shared.append(closure_reachable(target, source))
            states = getattr(slot, "states", None)
            if states is not None and not any(states is layout for layout in layouts):
                layouts.append(states)
        assert [(states.rows, states.cols) for states in layouts] == [(n, n) for n in sizes]
        fresh = []
        for target, source in searches:
            fresh_layout()
            fresh.append(closure_reachable(target, source))
        assert len(shared) == 228 and sum(result.status == "yes" for result in shared) == 73
        for (target, source), a, b in zip(searches, shared, fresh):
            assert a == b and certificate_json(a) == certificate_json(b), (str(target), str(source))

    def test_a_search_expands_only_states_no_earlier_search_expanded(self, monkeypatch, fresh_layout):
        # the sources of the (5, 2, 1) cell in turn: on one layout no state
        # reaches the generator twice, where a fresh layout per search
        # expands again states that an earlier search already expanded
        searches = [(target, source) for target, source in cell_searches(5)
                    if target == skew_to_general(generic_pencil_structure(5, 2, 1))]
        shared, shared_calls = expansions(monkeypatch, fresh_layout, searches, share=True)
        fresh, fresh_calls = expansions(monkeypatch, fresh_layout, searches, share=False)
        assert shared == fresh
        seen = set()
        for calls in shared_calls:
            assert not seen & set(calls)
            seen.update(calls)
        assert sum(map(len, shared_calls)) == len(seen) == len(set().union(*fresh_calls))
        assert sum(map(len, fresh_calls)) > len(seen)

    def test_a_second_run_of_a_search_expands_nothing(self, monkeypatch, fresh_layout):
        # every state a search expands is memoized, so the same search
        # again never calls the generator
        target = skew_to_general(generic_pencil_structure(6, 2, 2))
        source = gl(*[L(0)] * 6, *[LT(0)] * 6)
        (first, again), calls = expansions(monkeypatch, fresh_layout, [(target, source)] * 2, share=True)
        assert first == again and first.status == "yes"
        assert len(calls[0]) > 0 and calls[1] == []

    def test_the_memo_is_bounded_and_a_full_or_other_shape_layout_is_replaced(self, monkeypatch, fresh_layout):
        # the (5, 2, 1) zero pencil search keys 96 states and would memoize
        # 329 successor entries; under a bound of 150 the memo stops below
        # it, the search still ends as it does unbounded, it takes the full
        # layout out of the slot, and the next search of the shape starts a
        # new layout
        target = skew_to_general(generic_pencil_structure(5, 2, 1))
        zero = gl(*[L(0)] * 5, *[LT(0)] * 5)
        small = gl(L(1), L(0), L(0), LT(1), LT(0), LT(0))
        fresh_layout()
        unbounded = closure_reachable(target, zero)
        monkeypatch.setattr(degeneration, "MAX_STATES", 150)
        slot = fresh_layout()

        def memoized(states):
            return sum(map(len, states.memo.values()))

        closure_reachable(target, small)
        states = slot.states
        assert 0 < memoized(states) == 150 - states.room
        assert closure_reachable(target, zero) == unbounded and (unbounded.status, unbounded.states_explored) == (
            "yes", 96)
        assert not hasattr(slot, "states") and states.room == 0 and 0 < memoized(states) <= 150
        closure_reachable(target, small)
        assert slot.states is not states and memoized(slot.states) <= 150
        kept = slot.states
        closure_reachable(target, small)
        assert slot.states is kept
        other = skew_to_general(generic_pencil_structure(4, 1, 1))
        closure_reachable(other, gl(*[L(0)] * 4, *[LT(0)] * 4))
        assert slot.states is not kept and (slot.states.rows, slot.states.cols) == (4, 4)

    def test_a_search_that_fills_the_memo_drops_its_layout(self, monkeypatch, fresh_layout):
        # a full layout serves no later search, so the search that fills
        # its memo takes it out of the slot when it ends, whatever its
        # answer; a search that leaves room keeps its layout for the next
        target = skew_to_general(generic_pencil_structure(5, 2, 1))
        zero = gl(*[L(0)] * 5, *[LT(0)] * 5)
        small = gl(L(1), L(0), L(0), LT(1), LT(0), LT(0))
        fresh_layout()
        expected = [closure_reachable(target, source) for source in (small, zero)]
        monkeypatch.setattr(degeneration, "MAX_STATES", 150)
        slot = fresh_layout()
        assert closure_reachable(target, small) == expected[0]
        kept = slot.states
        assert kept.room > 0
        assert closure_reachable(target, zero) == expected[1]
        assert kept.room == 0 and not hasattr(slot, "states")
        # a search cut short at MAX_STATES fills the memo too
        monkeypatch.setattr(degeneration, "MAX_STATES", 20)
        slot = fresh_layout()
        assert closure_reachable(target, zero).status == "no_within_bound"
        assert not hasattr(slot, "states")

    def test_threads_on_one_shape_give_the_single_thread_answers(self, monkeypatch, fresh_layout):
        # each thread keeps its own layout in the module's slot, so three
        # threads (more than the cores of a 2-CPU machine) that search the
        # (6, 2, 1) sources at once, in different orders and with frequent
        # thread switches, get what one thread gets on fresh layouts, and
        # leave this thread's layout alone
        searches = [(target, source) for target, source in cell_searches(6)
                    if target == skew_to_general(generic_pencil_structure(6, 2, 1))]
        expected = []
        for target, source in searches:
            fresh_layout()
            expected.append(closure_reachable(target, source))
        monkeypatch.undo()
        closure_reachable(*searches[0])
        mine = degeneration._layout.states
        shuffled = list(range(len(searches)))
        random.Random(47).shuffle(shuffled)
        orders = {"forward": range(len(searches)), "backward": range(len(searches) - 1, -1, -1), "shuffled": shuffled}
        got, layouts = {}, {}

        def run(name, order):
            got[name] = [(i, closure_reachable(*searches[i])) for i in order]
            layouts[name] = degeneration._layout.states

        threads = [threading.Thread(target=run, args=item) for item in orders.items()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert degeneration._layout.states is mine
        assert len({id(layout) for layout in [mine, *layouts.values()]}) == 4
        for name in orders:
            assert sorted(got[name], key=lambda item: item[0]) == list(enumerate(expected))


class TestEnumeration:
    def test_enumeration_is_legal(self):
        s0, s1, s2 = (SymbolicPoint(name) for name in ("s0", "s1", "s2"))
        cases = [
            (skew_to_general(BlockList.skew([SkewBlock.m(1), SkewBlock.k(1)])), ()),
            # pool symbols named like the fresh symbols rule 6 would mint
            (gl(L(0), LT(1)), [s0]),
            (gl(L(1), LT(1), E(1, s1)), [s0, Fraction(2)]),
            (skew_to_general(BlockList.skew([SkewBlock.m(1), SkewBlock.h(1, s0)])), [s2, s1]),
        ]
        rng = random.Random(17)
        for _ in range(25):
            cases.append((random_general_list(rng), rng.sample([s0, s1, s2, Fraction(-1), Fraction(5)], 2)))
        for bl, pool in cases:
            apps = [RuleApplication(*fields) for fields in degeneration._applications(bl.counts(), pool, True)]
            assert any(app.rule == 6 for app in apps)
            for app in apps:
                out = apply_rule(bl, app)  # must not raise
                assert out.total_rows == bl.total_rows

    def test_enumeration_counts_are_modest(self):
        bl = gl(L(1), LT(1), E(1, 5), EINF(1))
        assert len(enumerate_applications(bl)) < 200

    def test_skew_list_raises(self):
        bl = BlockList.skew([SkewBlock.m(1), SkewBlock.k(1)])
        assert len(enumerate_applications(skew_to_general(bl))) == 10
        with pytest.raises(ShapeMismatch, match="rules rewrite general block lists"):
            enumerate_applications(bl)


def random_general_list(rng):
    """A right and a left singular block plus up to five blocks of any kind.

    Eigenvalues are rational, symbolic (named like fresh symbols or not) or
    infinite, and often repeat.
    """
    blocks = [L(rng.randint(0, 3)), LT(rng.randint(0, 3))]
    points = [Fraction(-1), Fraction(1, 2), Fraction(2), SymbolicPoint("s0"), SymbolicPoint("s2"),
              SymbolicPoint("p")]
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            blocks.append(L(rng.randint(0, 3)))
        elif kind == 1:
            blocks.append(LT(rng.randint(0, 3)))
        elif kind == 2:
            blocks.append(E(rng.randint(1, 2), rng.choice(points)))
        else:
            blocks.append(EINF(rng.randint(1, 2)))
    return BlockList.general(blocks)


def rule6(counts, pool):
    """The rule-6 applications `_applications` makes from these counts, in its order."""
    return [RuleApplication(*fields) for fields in degeneration._applications(counts, pool, True) if fields[0] == 6]


class TestRankRaisingOrder:
    """Rule 6 makes exactly the applications the brute-force signature dedup keeps, in its order."""

    def test_random_lists_and_pools(self):
        rng = random.Random(16)
        pool_values = [Fraction(-1), Fraction(0), Fraction(2), Fraction(3, 4)]
        for _ in range(150):
            bl = random_general_list(rng)
            pool = rng.sample(pool_values, rng.randint(0, 2))
            made = rule6(bl.counts(), pool)
            assert made == list(rank_raising_by_signature(bl.counts(), pool)), (str(bl), pool)

    def test_fixed_state(self):
        bl = gl(L(3), L(2), LT(3), LT(2), EINF(1), E(1, SymbolicPoint("s0")), E(2, SymbolicPoint("s1")),
                E(1, 1))
        made = rule6(bl.counts(), ())
        assert len(made) == 1556
        assert made == list(rank_raising_by_signature(bl.counts(), ()))

    @pytest.mark.parametrize("cell", [(5, 2, 0), (6, 2, 0)])
    def test_states_of_rank_bound_cells(self, cell, monkeypatch, fresh_layout):
        # every state from which the search of a TestRankBound cell
        # enumerates rule 6; each search starts on an empty layout, so none
        # reuses an expansion that another memoized
        real = degeneration._applications
        calls = []

        def recording(state, pool, raise_rank):
            if raise_rank:
                calls.append((state, pool))
            return real(state, pool, raise_rank)

        monkeypatch.setattr(degeneration, "_applications", recording)
        target = skew_to_general(generic_pencil_structure(*cell))
        for source in skew_sources(cell[0]):
            fresh_layout()
            closure_reachable(target, source)
        monkeypatch.undo()
        assert len(calls) > 100
        for state, pool in calls:
            assert rule6(state, pool) == list(rank_raising_by_signature(state, pool)), str(state)
