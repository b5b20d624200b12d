"""The four seeded workloads: inputs per round, the timed op, and its check.

A round is one pass over a workload's fixed, stratified mix of cells, with
fresh inputs drawn from ``Random(f"{name}:{seed}:{round}")``. The inputs of
the analysis workloads are distinct within a run, so the ``lru_cache`` on
``normal_rank`` never serves one op from another op's work; closure_bfs,
whose path has no cache, runs its whole small input space each round.
Every op calls the library through module attributes
(``sampling.sample_bounded_rank``, ...), which is where the tracer installs
its wrappers.

Each op's output is checked against a reference that does not come from the
code path being timed. With ``negative=True`` every reference is made wrong
on purpose, and every op must then be reported as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from skewstruct import blocks, cli, degeneration, eigenstructure, exact, fileio, generic, linearize, sampling
from skewstruct.points import SymbolicPoint

import oracle


def _wrong_structure(structure):
    return dataclasses.replace(structure, rank=structure.rank + 2)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.properties = {}

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def round(self, index: int) -> list:
        """The ops of one round; generation is never timed."""
        raise NotImplementedError

    def warmup(self):
        """One op outside every round, run before timing starts."""
        raise NotImplementedError

    def record(self, op, out):
        """Accumulate the input properties of one checked op."""

    def cleanup(self):
        """Remove any files written for the ops."""


# ---------------------------------------------------------------------------
# mc_generic: Monte Carlo genericity trials on the acceptance grid
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class McTrial:
    spec: sampling.SampleSpec
    index: int

    def run(self):
        draw = sampling.sample_bounded_rank(
            self.spec.with_seed(sampling.trial_seed(self.spec.seed, self.index))
        )
        structure = eigenstructure.analyze(draw, self.spec.d)
        expected = generic.generic_poly_structure(self.spec.m, self.spec.d, self.spec.r)
        return draw, structure, eigenstructure.same_orbit(structure, expected)

    def check(self, out, negative):
        draw, structure, matched = out
        if matched:
            reference = generic.generic_poly_structure(self.spec.m, self.spec.d, self.spec.r)
            # genericity without the library: the draw's own rank and minimal
            # indices are the reported ones, and by the index sum theorem
            # they leave the eigenvalues exactly the degree reported for them
            rank, left, right = oracle.rank_and_minimal_indices(draw, self.spec.d)
            finite, infinite, _, _ = structure.index_sums()
            if ((rank, left, right) != (structure.rank, structure.left_minimal, structure.right_minimal)
                    or self.spec.d * rank - sum(left) - sum(right) != finite + infinite):
                return False
        else:
            # a non-generic draw: compare with the minor-gcd definition instead
            reference = oracle.reference_structure(draw, self.spec.d)
        if negative:
            reference = _wrong_structure(reference)
        return structure == reference


class McGeneric(Workload):
    name = "mc_generic"
    # Trial costs rise from (4,2,1) over (5,2,2) and (6,2,1), which overlap,
    # to (7,2,2) and (7,2,3). Two trials of (4,2,1) per round put the median
    # in the middle of the (5,2,2)+(6,2,1) cluster. With three, it sat in
    # the sparse gap below that cluster and jumped between runs.
    cases = [(5, 2, 2), (7, 2, 2), (4, 2, 1), (6, 2, 1), (7, 2, 3), (4, 2, 1)]

    def round(self, index):
        # repeated cases take distinct trial indices, so every draw is distinct
        return [
            McTrial(sampling.SampleSpec(m, d, r, seed=self.seed), index * len(self.cases) + i)
            for i, (m, d, r) in enumerate(self.cases)
        ]

    def warmup(self):
        return McTrial(sampling.SampleSpec(4, 2, 1, seed=self.seed), -1)

    def record(self, op, out):
        _, structure, matched = out
        props = self.properties
        props["analyzed"] = props.get("analyzed", 0) + 1
        props["deficit_positive"] = props.get("deficit_positive", 0) + (structure.index_sums()[0] > 0)
        if not matched:
            props.setdefault("mismatches", []).append(
                {"case": [op.spec.m, op.spec.d, op.spec.r],
                 "trial_seed": sampling.trial_seed(op.spec.seed, op.index),
                 "structure": structure.to_json_dict()}
            )


# ---------------------------------------------------------------------------
# lin_generic: padded linearizations of generic samples (criterion-3 grid)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class LinOp:
    sample: exact.SkewMatrixPolynomial
    expected: eigenstructure.CompleteEigenstructure

    def run(self):
        pencil = linearize.build_linearization(linearize.pad_grade(self.sample)).pencil
        return eigenstructure.analyze(pencil, 1)

    def check(self, out, negative):
        return out == (_wrong_structure(self.expected) if negative else self.expected)


class LinGeneric(Workload):
    name = "lin_generic"
    # one (d, m, r) cell of the criterion-3 grid per pencil size 9, 18, 25, 30
    # and 40. Well-separated costs keep the median and the tail inside one
    # cell's cluster; the whole 24-cell grid is a single 21 s pass whose
    # log-spread costs make both percentiles jump between runs. The median's
    # cell, (4,5,2), runs twice per round: as the median of 7 ops it spread
    # half as much again as ops_per_s over ten runs.
    cells = [(2, 3, 1), (2, 6, 2), (4, 5, 2), (4, 5, 2), (4, 6, 2), (4, 8, 1)]

    def _op(self, rng, d, m, r):
        # criterion 3 needs a generic draw; by the index sum theorem the draw
        # is generic exactly when its minimal indices are the generic ones
        generic_indices = generic.generic_poly_structure(m, d, r).right_minimal
        while True:
            sample = sampling.sample_bounded_rank(sampling.SampleSpec(m, d, r, seed=rng.getrandbits(48)))
            if eigenstructure.minimal_indices(sample) == generic_indices:
                break
        n, w = m * (d + 1), (m * d + 2 * r) // 2
        expected = blocks.blocklist_eigenstructure(
            blocks.skew_to_general(generic.generic_pencil_structure(n, w, r))
        )
        return LinOp(sample, expected)

    def round(self, index):
        rng = self.rng(index)
        return [self._op(rng, d, m, r) for d, m, r in self.cells]

    def warmup(self):
        return self._op(self.rng(-1), 2, 3, 1)

    def record(self, op, out):
        props = self.properties
        props["analyzed"] = props.get("analyzed", 0) + 1
        props["deficit_positive"] = props.get("deficit_positive", 0) + (out.index_sums()[0] > 0)


# ---------------------------------------------------------------------------
# structured_cli: `skewstruct analyze FILE` on scrambled block pencils
# ---------------------------------------------------------------------------


def structured_blocks(rng, n):
    """A skew block list of size n: H_1..H_3 at 1 or 2 shared eigenvalues, K_1..K_3, M_0..M_2."""
    values = rng.sample([Fraction(v) for v in range(-3, 4)], rng.choice((1, 2)))
    first = blocks.SkewBlock.h(rng.randint(1, 3), rng.choice(values))
    out, left = [first], n - first.shape[0]
    while left:
        kind = rng.choice("HHKM")
        if kind == "M":
            options = [blocks.SkewBlock.m(k) for k in range(3) if 2 * k + 1 <= left]
        elif kind == "K":
            options = [blocks.SkewBlock.k(k) for k in range(1, 4) if 2 * k <= left]
        else:
            options = [blocks.SkewBlock.h(k, v) for k in range(1, 4) if 2 * k <= left for v in values]
        if options:
            block = rng.choice(options)
            out.append(block)
            left -= block.shape[0]
    return blocks.BlockList.skew(out)


def scramble(rng, pencil):
    """Q^T P Q for a random nonsingular Q with entries in {-1, 0, 1}."""
    n = pencil.rows
    while True:
        q = [[Fraction(rng.choice((-1, 0, 1))) for _ in range(n)] for _ in range(n)]
        if exact.rank_exact(q) == n:
            break
    cm = exact.MatrixPolynomial(q, grade=0)
    return exact.as_skew((cm.transpose() @ pencil @ cm).with_grade(1))


@dataclasses.dataclass
class CliOp:
    path: str
    size: int
    reference: str

    def run(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["analyze", self.path])
        return code, buffer.getvalue()

    def check(self, out, negative):
        code, text = out
        return code == 0 and text == (self.reference + " " if negative else self.reference)


class StructuredCli(Workload):
    name = "structured_cli"
    # n=14 is left out: Smith coefficient growth makes some n=14 ops take
    # minutes (H_3(-2) + H_3(-1) + K_1 ran over 4 min), past the time limit
    # of a run (RUN_LIMIT_S in run.py). Over 200 draws at n=12 the slowest op
    # took 0.6 s. Six n=12 ops to two at n=10 put the median a third of the
    # way into the n=12 cluster, away from both edges (see mc_generic on
    # bimodal latencies).
    # The inputs are the same for every seed, which only shuffles each
    # round: op costs are heavy-tailed (one draw in 50 takes 5-20 times the
    # median), so with seeded inputs the runs of one commit disagreed by
    # more than the differences the benchmark must show (IQR/median of 0.13
    # in ops_per_s and 0.20 in op_tail_ms over five seeds). A held-out seed
    # therefore holds nothing out.
    sizes = [10] * 2 + [12] * 6

    def _op(self, rng, n, tag):
        block_list = structured_blocks(rng, n)
        path = self.workdir / f"{tag}.json"
        fileio.write_polynomial(scramble(rng, blocks.assemble_skew(block_list)), str(path))
        reference = fileio.dump_json(blocks.blocklist_eigenstructure(block_list).to_json_dict())
        return CliOp(str(path), n, reference)

    @staticmethod
    def population_rng(index):
        return random.Random(f"structured_cli:population:{index}")

    def round(self, index):
        self.cleanup()
        rng = self.population_rng(index)
        ops = [self._op(rng, n, f"r{index}-{i}") for i, n in enumerate(self.sizes)]
        self.rng(index).shuffle(ops)
        return ops

    def warmup(self):
        return self._op(self.population_rng(-1), 10, "warmup")

    def record(self, op, out):
        props = self.properties
        finite = json.loads(out[1])["finite"]
        props["analyzed"] = props.get("analyzed", 0) + 1
        props["deficit_positive"] = props.get("deficit_positive", 0) + bool(finite)
        sizes = props.setdefault("ops_by_size", {})
        sizes[str(op.size)] = sizes.get(str(op.size), 0) + 1

    def cleanup(self):
        for path in self.workdir.glob("*.json"):
            path.unlink()


# ---------------------------------------------------------------------------
# closure_bfs: degeneration search toward the generic pencil structure
# ---------------------------------------------------------------------------


def _partitions(total, cap=None):
    """Partitions of total into positive parts, largest first.

    The library's own helper is private; the input population must not move
    when it changes.
    """
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap or total), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def source_label(block_list):
    """The skew block list as text, with its symbolic points renamed a, b in the order that sorts first."""
    names = sorted({b.eigenvalue.name for b in block_list.blocks if b.kind == "H"})
    labels = []
    for letters in itertools.permutations("ab"[: len(names)]):
        rename = dict(zip(names, letters))
        labels.append(" + ".join(sorted(
            f"H{b.index}({rename[b.eigenvalue.name]})" if b.kind == "H" else f"{b.kind}{b.index}"
            for b in block_list.blocks
        )))
    return min(labels)


def closure_sources(n, w):
    """Skew block lists of size n and rank 2w, one per class under renaming of symbols, by label.

    They hold n - 2w blocks M_0..M_2, and the rest in K blocks and H blocks
    at up to two symbolic points.
    """
    found = {}
    for m_indices in itertools.combinations_with_replacement(range(3), n - 2 * w):
        left = n - sum(2 * k + 1 for k in m_indices)
        if left < 0 or left % 2:
            continue
        for parts in _partitions(left // 2):
            for kinds in itertools.product(("K", "p0", "p1"), repeat=len(parts)):
                block_list = blocks.BlockList.skew(
                    [blocks.SkewBlock.m(k) for k in m_indices]
                    + [blocks.SkewBlock.k(k) if kind == "K" else blocks.SkewBlock.h(k, SymbolicPoint(kind))
                       for k, kind in zip(parts, kinds)]
                )
                found.setdefault(source_label(block_list), block_list)
    return found


@dataclasses.dataclass
class ClosureOp:
    target: blocks.BlockList
    source: blocks.BlockList
    steps: int
    label: str

    def run(self):
        return degeneration.closure_reachable(self.target, self.source, max_steps=self.steps)

    def check(self, out, negative):
        # Each search is deterministic, so its status must be the recorded
        # one. A search recorded as inconclusive may instead end in a
        # refutation ("no"); a wrong reference swaps the two outcomes.
        allowed = {"yes"} if CLOSURE_STATUS[self.label] == "yes" else {"no_within_bound", "no"}
        if negative:
            allowed = {"yes", "no_within_bound", "no"} - allowed
        if out.status not in allowed:
            return False
        if out.status == "yes":
            return degeneration.equal_modulo_symbols(
                degeneration.replay_certificate(self.source, out.certificate), self.target
            )
        return True


class ClosureBfs(Workload):
    name = "closure_bfs"
    # Every source of each (n, w, r) cell, once per round in seeded order:
    # the space is small, and a random handful of sources per run made the
    # percentiles depend on which sources were drawn. So the seed only
    # reorders the same 29 searches, and a held-out seed holds nothing out.
    # 11 of them are certified in milliseconds and 18 are exhaustive
    # (0.3-3 s), so the median and the tail both fall among the exhaustive
    # ones; with one round, op_tail_ms is p65.5 here. Left out to
    # keep a round near 15 s: the n=7 cells with w <= 2 and r >= 1, whose
    # searches take 4-10 s each, the other (7, 3, r) cells, 20 sources each,
    # and (6, 1, 1) and (6, 2, 1). The r = 0 cells are left out because
    # their certified searches would put the median at the edge between the
    # two kinds.
    cells = [(6, 2, 2), (7, 3, 1)]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.population = []
        for n, w, r in self.cells:
            target = generic.generic_pencil_structure(n, w, r)
            self.population += [
                ClosureOp(blocks.skew_to_general(target), blocks.skew_to_general(source), n, label)
                for label, source in closure_sources(n, w).items()
                if source != target
            ]

    def round(self, index):
        ops = list(self.population)
        self.rng(index).shuffle(ops)
        return ops

    def warmup(self):
        target = generic.generic_pencil_structure(5, 2, 1)
        source = blocks.BlockList.skew([blocks.SkewBlock.m(0), blocks.SkewBlock.h(1, SymbolicPoint("p0")),
                                        blocks.SkewBlock.k(1)])
        label = source_label(source)
        return ClosureOp(blocks.skew_to_general(target), blocks.skew_to_general(source), 5, label)

    def record(self, op, out):
        props = self.properties
        props["searches"] = props.get("searches", 0) + 1
        props["certified"] = props.get("certified", 0) + (out.status == "yes")
        props["states_explored"] = props.get("states_explored", 0) + out.states_explored


# The status of each closure_bfs search, recorded at the commit that defined
# the benchmark by running every search once: 11 certified and 18 exhaustive
# at n = 6 and 7, and the n = 5 warm-up. Keys are source labels.
CLOSURE_STATUS = {
    "K2 + M0 + M0": "no_within_bound",
    "H2(a) + M0 + M0": "no_within_bound",
    "H1(a) + K1 + M0 + M0": "no_within_bound",
    "H1(a) + H1(a) + M0 + M0": "no_within_bound",
    "H1(a) + H1(b) + M0 + M0": "no_within_bound",
    "K1 + M0 + M1": "no_within_bound",
    "H1(a) + M0 + M1": "no_within_bound",
    "M0 + M2": "no_within_bound",
    "M1 + M1": "no_within_bound",
    "K3 + M0": "yes",
    "H3(a) + M0": "no_within_bound",
    "K1 + K2 + M0": "yes",
    "H1(a) + K2 + M0": "yes",
    "H2(a) + K1 + M0": "yes",
    "H1(a) + H2(a) + M0": "no_within_bound",
    "H1(a) + H2(b) + M0": "no_within_bound",
    "K1 + K1 + K1 + M0": "yes",
    "H1(a) + K1 + K1 + M0": "yes",
    "H1(a) + H1(a) + K1 + M0": "yes",
    "H1(a) + H1(b) + K1 + M0": "yes",
    "H1(a) + H1(a) + H1(a) + M0": "no_within_bound",
    "H1(a) + H1(a) + H1(b) + M0": "no_within_bound",
    "K2 + M1": "yes",
    "H2(a) + M1": "no_within_bound",
    "K1 + K1 + M1": "yes",
    "H1(a) + K1 + M1": "yes",
    "H1(a) + H1(a) + M1": "no_within_bound",
    "H1(a) + H1(b) + M1": "no_within_bound",
    "H1(a) + M2": "no_within_bound",
    "H1(a) + K1 + M0": "yes",
}


WORKLOADS = {w.name: w for w in (McGeneric, LinGeneric, StructuredCli, ClosureBfs)}
