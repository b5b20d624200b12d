"""Orbit-closure degeneration rules as a rewriting system on block multisets.

Six local rules describe exactly when the closure of one strict-equivalence
orbit contains another: two trade sizes between same-side singular blocks,
two let a singular block absorb one unit of an eigenvalue block, one
rebalances two eigenvalue blocks at the same point, and one converts a
right/left singular pair into eigenvalue blocks of matching total size (with
pairwise distinct eigenvalues). Applying rules can only move toward more
generic structures; a sequence from A to B certifies that B's orbit closure
contains A's orbit.

`closure_reachable` answers "no" without a search when a Hom dimension
refutes the containment (`HomWitness`), and otherwise runs a breadth-first
search over rule applications, at most as many steps deep as the orbit
codimensions of source and target differ. Fresh eigenvalues are drawn
from an opaque symbolic pool and states compare modulo renaming of the
symbols, which keeps the search space finite; the target's rational
eigenvalues join the pool, so rule 6 can create them.
Rule 6 never makes two applications that differ only in fresh symbols or
in the order of equal-size blocks, so no duplicate needs filtering.
Rules 1-5 keep the rank and rule 6 raises it by exactly one, so the search
applies rule 6 only below the target's rank and never builds a state of
higher rank: `states_explored` counts only states of rank at most the
target's. The witness pass and the search share one kernel, packed Hom
vectors in one layout per shape (`_hom_layout`): one int per list, one
field per candidate block and direction, and one subtraction that
compares every field. A list's counts, shape and rank are read once, when
the list is built (`BlockList`), and a call adds one Hom vector per list,
which the search starts from. A block's int is `dim_hom`'s table read along
the candidates in closed form, a few masked ramps per block kind
(`_block_hom`), so no candidate block is built and the pass builds only
the witness it reports. The search keys and counts every successor but
expands only those whose vector is at least the target's in every field;
by transitivity the others lie on no path to the target, so the
certificate is the one a search without the test finds.

The search runs on packed states (`_PackedStates`): one int per state,
with one count field per block. A rule application is built once per
layout, from the field tuple the generator yields, as a cached delta whose
consumed fields are checked with the same top-bit subtraction, a
successor's key is its int (plus the per-symbol multisets when it holds
symbols), and its Hom vector is its parent's plus a cached Hom delta. A
state's counts dict is decoded only when the state is first expanded, for
the rule generator (`_applications`), so no state becomes a BlockList and
no successor a dict. The packed layout is kept per thread and pencil
shape, not per search: it memoizes each expanded state's (application,
step) pairs under (state, pool, raise_rank), up to MAX_STATES pairs, so
the searches of one cell share their rule steps and expansions. Each memo
entry is a pure function of its key, so every search keys, expands and
prunes the same states in the same order as on a fresh layout, with the
same certificate and `states_explored`.
`enumerate_applications`, `apply_rule` and `canonical_key` are the
BlockList boundary: each takes a copy of the counts the list read when it
was built (`BlockList.counts`) and works on the dict (`_apply_to_counts`,
`_key_from_counts`), which stay the reference that the packed path is
tested against.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, replace
from fractions import Fraction

from .blocks import BlockList, GeneralBlock, skew_to_general
from .codimension import codim_general
from .errors import InvalidBlock, MissingBlocks, ParamDomain, ShapeMismatch, SideConditionViolated
from .points import INFINITY, SymbolicPoint, format_eigenvalue


# the exact types of a RuleApplication's fields; None leaves a field unused
_INT_TYPES = frozenset({int, type(None)})
_POINT_TYPES = frozenset({int, Fraction, SymbolicPoint, type(INFINITY), type(None)})
_TUPLE_TYPES = frozenset({tuple, type(None)})


@dataclass(frozen=True)
class RuleApplication:
    """One parametrized application of a degeneration rule.

    Rules 1/2 use (j, k); rules 3/4 use (j, k, eigenvalue); rule 5 uses
    (j, k, eigenvalue); rule 6 uses (p, q, sizes, eigenvalues), two
    tuples. The rule, indices and sizes are ints and the eigenvalues exact
    points (a Fraction, an int, a SymbolicPoint or INFINITY); any other
    type raises InvalidBlock.
    """

    rule: int
    j: int | None = None
    k: int | None = None
    p: int | None = None
    q: int | None = None
    eigenvalue: object = None
    sizes: tuple = None
    eigenvalues: tuple = None

    def __post_init__(self):
        # Exact types, checked on every construction: True == 1 and
        # 2.0 == Fraction(2), but neither makes a block. So equal field
        # tuples make one application, and the search's step table
        # (`_PackedStates.steps`) may key each application by its fields
        ints = {type(self.rule), type(self.j), type(self.k), type(self.p), type(self.q)}
        points = {type(self.eigenvalue)}
        if self.rule == 6:
            ints.update(map(type, self.sizes or ()))
            points.update(map(type, self.eigenvalues or ()))
            # a list would leave the application unhashable
            if not {type(self.sizes), type(self.eigenvalues)} <= _TUPLE_TYPES:
                raise InvalidBlock(f"rule 6 takes tuples of sizes and eigenvalues, not {self}")
        if not (ints <= _INT_TYPES and points <= _POINT_TYPES):
            raise InvalidBlock(f"rule applications take ints and exact eigenvalues, not {self}")
        if self.rule not in (1, 2, 3, 4, 5, 6):
            raise SideConditionViolated(f"unknown rule {self.rule}")

    def to_json_dict(self) -> dict:
        out = {"rule": self.rule}
        if self.rule in (1, 2, 3, 4, 5):
            out["j"] = self.j
            out["k"] = self.k
        if self.rule in (3, 4, 5):
            out["eigenvalue"] = format_eigenvalue(self.eigenvalue)
        if self.rule == 6:
            out["p"] = self.p
            out["q"] = self.q
            out["sizes"] = list(self.sizes)
            out["eigenvalues"] = [format_eigenvalue(e) for e in self.eigenvalues]
        return out


def _eigen_or_none(index: int, point):
    """E block of the given index at a finite point or INFINITY; None if empty."""
    if index == 0:
        return None
    return GeneralBlock.eigen(index, point)


def _rule_blocks(app: RuleApplication) -> tuple:
    """(consumed blocks, produced blocks) of one application; checks its side conditions.

    A produced eigenvalue block of size zero is empty and left out. The
    consumed and produced blocks must cover the same total rows and columns
    (SideConditionViolated otherwise). The search calls it once per
    distinct application and layout (`_PackedStates.step`).
    """
    r = app.rule
    if r in (1, 2):
        j, k = app.j, app.k
        if not 1 <= j <= k:
            raise SideConditionViolated(f"rule {r} needs 1 <= j <= k, got {j}, {k}")
        mk = GeneralBlock.right if r == 1 else GeneralBlock.left
        consumed, produced = (mk(j - 1), mk(k + 1)), (mk(j), mk(k))
    elif r in (3, 4):
        j, k = app.j, app.k
        if j < 0 or k < 0:
            raise SideConditionViolated(f"rule {r} needs j, k >= 0")
        mk = GeneralBlock.right if r == 3 else GeneralBlock.left
        consumed = (mk(j), GeneralBlock.eigen(k + 1, app.eigenvalue))
        produced = (mk(j + 1), _eigen_or_none(k, app.eigenvalue))
    elif r == 5:
        j, k = app.j, app.k
        if not 1 <= j <= k:
            raise SideConditionViolated(f"rule 5 needs 1 <= j <= k, got {j}, {k}")
        ev = app.eigenvalue
        consumed = (GeneralBlock.eigen(j, ev), GeneralBlock.eigen(k, ev))
        produced = (_eigen_or_none(j - 1, ev), GeneralBlock.eigen(k + 1, ev))
    else:
        p, q, sizes, evs = app.p, app.q, app.sizes, app.eigenvalues
        if p < 0 or q < 0:
            raise SideConditionViolated("rule 6 needs p, q >= 0")
        if not sizes or len(sizes) != len(evs):
            raise SideConditionViolated("rule 6 needs matching sizes and eigenvalues")
        if any(s < 1 for s in sizes):
            raise SideConditionViolated("rule 6 block sizes must be positive")
        if sum(sizes) != p + q + 1:
            raise SideConditionViolated(
                f"rule 6 needs sizes summing to p+q+1={p + q + 1}, got {sum(sizes)}"
            )
        if len(set(evs)) != len(evs):
            raise SideConditionViolated("rule 6 eigenvalues must be pairwise distinct")
        consumed = (GeneralBlock.right(p), GeneralBlock.left(q))
        produced = tuple(GeneralBlock.eigen(size, ev) for size, ev in zip(sizes, evs))
    produced = tuple(block for block in produced if block is not None)
    if any(sum(b.shape[i] for b in consumed) != sum(b.shape[i] for b in produced) for i in (0, 1)):
        raise SideConditionViolated("rule application changed the total size")
    return consumed, produced


def _apply_to_counts(counts: dict, app: RuleApplication):
    """Apply one rule in place to a block -> multiplicity dict: the core of apply_rule.

    A consumed block must be present (MissingBlocks otherwise).
    """
    consumed, produced = _rule_blocks(app)
    for block in consumed:
        have = counts.get(block, 0)
        if have <= 0:
            raise MissingBlocks(f"block {block} not present")
        if have == 1:
            del counts[block]
        else:
            counts[block] = have - 1
    for block in produced:
        counts[block] = counts.get(block, 0) + 1


def apply_rule(blocklist: BlockList, app: RuleApplication) -> BlockList:
    """Apply one degeneration rule; consumed blocks must be present.

    Produced or consumed eigenvalue blocks of size zero are understood as
    empty and silently dropped. Total row and column counts are preserved
    (validated).
    """
    if blocklist.flavor != "general":
        raise ShapeMismatch("rules rewrite general block lists")
    counts = blocklist.counts()
    _apply_to_counts(counts, app)
    return BlockList.general(block for block, count in counts.items() for _ in range(count))


# ---------------------------------------------------------------------------
# canonicalization modulo symbolic relabeling
# ---------------------------------------------------------------------------


def _symbol_multisets(counts: dict) -> tuple:
    """The sorted per-symbol multisets of (kind, index) of the blocks at a symbol in these counts."""
    by_symbol: dict = {}
    for block, count in counts.items():
        if isinstance(block.eigenvalue, SymbolicPoint):
            by_symbol.setdefault(block.eigenvalue, []).extend([(block.kind, block.index)] * count)
    return tuple(sorted(tuple(sorted(pairs)) for pairs in by_symbol.values()))


def _key_from_counts(counts: dict):
    """canonical_key of the list with these block multiplicities."""
    fixed = frozenset(item for item in counts.items() if not isinstance(item[0].eigenvalue, SymbolicPoint))
    return fixed, _symbol_multisets(counts)


def canonical_key(blocklist: BlockList):
    """Hashable state key: equal exactly when two lists differ by a renaming of symbols.

    The key is the set of (block, multiplicity) pairs of the blocks without
    a symbolic eigenvalue, plus one sorted tuple per symbol, sorted: the
    (kind, index) pairs of its blocks with multiplicity. Symbols sit only in
    eigenvalue blocks at finite points, differ from every rational point and
    from each other, and are interchangeable. So a renaming fixes the other
    blocks and only permutes the symbols' block multisets, and two lists
    with equal keys are related by the renaming that matches symbols with
    equal multisets. No search over renamings is needed, and there is no
    limit on the number of symbols. The key depends only on the block
    multiplicities; the search keys its packed states the same way
    (`_PackedStates.key`).
    """
    return _key_from_counts(blocklist.counts())


def equal_modulo_symbols(a: BlockList, b: BlockList) -> bool:
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# reachability search
# ---------------------------------------------------------------------------


def _fresh_symbols(existing, how_many: int):
    """The first symbols s0, s1, ... named unlike every symbol in `existing`."""
    used = {ev.name for ev in existing if isinstance(ev, SymbolicPoint)}
    out = []
    i = 0
    while len(out) < how_many:
        name = f"s{i}"
        if name not in used:
            out.append(SymbolicPoint(name))
        i += 1
    return out


def _partitions(total: int):
    """All partitions of total into positive parts, largest first."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, total)


def _assignments(existing, fresh, runs):
    """Eigenvalue tuples for runs of (parts, existing ones), in lexicographic order.

    Each run's first parts take a combination of `existing` disjoint from
    the earlier runs', and its other parts the next fresh symbols.
    """
    if not runs:
        yield ()
        return
    (parts, used), later = runs[0], runs[1:]
    for first in itertools.combinations(existing, used):
        rest = [ev for ev in existing if ev not in first]
        for tail in _assignments(rest, fresh[parts - used :], later):
            yield (*first, *fresh[: parts - used], *tail)


def _applications(counts: dict, pool, raise_rank: bool):
    """The legal rule applications from the state with these block multiplicities, in search order.

    Each is yielded as the tuple of RuleApplication's eight fields, in
    order, which keys the search's step table (`_PackedStates.step`).

    One pass over the blocks in list order reads the right and left
    singular indices and, per eigenvalue, its blocks' sizes with their
    multiplicities. Rules 1-5 come first; each keeps the rank, since its
    consumed and produced blocks have equal index sums and the rank of a
    block is its index: j-1 + k+1 = j + k for rules 1 and 2, j + k+1 for
    rules 3 and 4, j + k for rule 5.

    When `raise_rank`, rule 6 follows; each raises the rank by exactly
    one. It turns L_p + L_q^T, of rank p + q, into eigenvalue blocks of
    total size p + q + 1, each at an existing eigenvalue (injectively) or a
    fresh symbol. The existing eigenvalues are the state's finite ones in
    list order, then INFINITY, present or not, then `pool` (closure_reachable
    passes the target's rational eigenvalues): a new finite point only
    matters when it can merge with a block, and the others come from the
    fresh symbols, named unlike every symbol in the state and the pool.
    Fresh symbols are interchangeable, and so are parts of equal size,
    which form runs (sizes come largest first). So one application is made
    per choice of existing eigenvalues for each run: by how many are used,
    then per-run counts in descending lexicographic order, then the per-run
    sets in lexicographic order, and no two applications differ only by
    the fresh symbols or by swapping blocks of equal size.
    """
    rights, lefts = [], []
    eigen_indices: dict = {}  # eigenvalue -> {index: multiplicity}, eigenvalues in list order
    for b in sorted(counts, key=GeneralBlock.sort_key):
        if b.kind == "L":
            rights.append(b.index)
        elif b.kind == "L_T":
            lefts.append(b.index)
        else:
            ev = INFINITY if b.kind == "E_infinite" else b.eigenvalue
            eigen_indices.setdefault(ev, {})[b.index] = counts[b]
    # list order puts larger indices first within a kind, so each kind's,
    # and each eigenvalue's, indices ascend when read backwards
    rights.reverse()
    lefts.reverse()

    # rules 1/2: trade sizes between same-side singular blocks
    for rule, idxs in ((1, rights), (2, lefts)):
        for u in idxs:
            for v in idxs:
                if u + 2 <= v:
                    yield rule, u + 1, v - 1, None, None, None, None, None
    # rules 3/4: a singular block absorbs one unit of an eigenvalue block
    for rule, idxs in ((3, rights), (4, lefts)):
        for u in idxs:
            for ev, sizes in eigen_indices.items():
                for size in reversed(sizes):
                    yield rule, u, size - 1, None, None, ev, None, None
    # rule 5: rebalance two blocks at one eigenvalue
    for ev, sizes in eigen_indices.items():
        for j in reversed(sizes):
            for k in reversed(sizes):
                if j < k or (j == k and sizes[j] >= 2):
                    yield 5, j, k, None, None, ev, None, None
    if not raise_rank:
        return
    # rule 6: a right and a left singular block become eigenvalue blocks
    existing = list(dict.fromkeys([*eigen_indices, INFINITY, *pool]))
    fresh = _fresh_symbols(existing, max(rights, default=0) + max(lefts, default=0) + 1)
    for p in rights:
        for q in lefts:
            for sizes in _partitions(p + q + 1):
                runs = [len(list(run)) for _, run in itertools.groupby(sizes)]
                per_run = itertools.product(*(range(m, -1, -1) for m in runs))
                for taken in sorted((c for c in per_run if sum(c) <= len(existing)), key=sum):
                    for evs in _assignments(existing, fresh, list(zip(runs, taken))):
                        yield 6, None, None, p, q, None, sizes, evs


def enumerate_applications(blocklist: BlockList):
    """All legal single-rule applications from a general list, in search order (`_applications`).

    Rule 6 draws on the list's own eigenvalues, INFINITY and fresh
    symbols. A skew-flavor list raises ShapeMismatch, as in apply_rule.
    """
    if blocklist.flavor != "general":
        raise ShapeMismatch("rules rewrite general block lists")
    return [RuleApplication(*fields) for fields in _applications(blocklist.counts(), (), True)]


MAX_STATES = 100_000  # explored states before the search gives up, inconclusive


@dataclass(frozen=True)
class HomWitness:
    """A block X whose Hom dimension with the source falls below the one with the target.

    `direction` is "Hom(X, -)" when dim Hom(X, source) < dim Hom(X, target),
    "Hom(-, X)" when dim Hom(source, X) < dim Hom(target, X).
    """

    block: GeneralBlock
    direction: str
    source_dim: int
    target_dim: int

    def to_json_dict(self) -> dict:
        return {
            "block": str(self.block),
            "direction": self.direction,
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
        }


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of `closure_reachable`.

    status "yes" certifies closure containment via the certificate; "no"
    certifies that the source is not in the target's orbit closure: by
    `witness`, a rank above the target's, or a search under the default
    step bound that was exhausted below `MAX_STATES` (at a codimension gap
    of 0 or less, a search of no step); "no_within_bound" is inconclusive:
    nothing was found within the bounds.
    """

    status: str
    certificate: tuple | None = None
    states_explored: int = 0
    witness: HomWitness | None = None

    @property
    def reachable(self) -> bool:
        return self.status == "yes"


@functools.lru_cache(maxsize=None)
def _hom_layout(rows: int, cols: int) -> tuple:
    """(width, HIGH, R, T): the one layout of the packed Hom vectors of rows x cols pencils.

    Field i of a packed vector holds one Hom dimension, at bit i * width,
    in the witness pass's order of candidates X and directions, "Hom(X, -)"
    then "Hom(-, X)": fields 0-3 are L_0 and L^T_0, and group k = 1..size,
    size = max(rows, cols), is the six fields from 6k - 2 on, L_k, L^T_k
    and E_k(inf); slot s of group k is field 6k - 2 + s, and there are
    6 size + 4 fields. dim Hom(X, P) and dim Hom(P, X) are at most
    rows(X) rows(P) + cols(X) cols(P), and no candidate has more than
    size + 1 rows or columns, so every field stays below the bound's next
    power of two and its top bit, the bit HIGH sets, is clear.

    R and T, the ramps every block's int is cut from (`_block_hom`), hold
    1 and k in slot 0 of each group k = 1..size and 0 elsewhere. With
    x = 2**(6 * width), one group's step, they are geometric series
    shifted to field 4, built whole like HIGH, a repunit: R = (x^n - 1) /
    (x - 1) and T = sum of k x^(k-1) = (n x^(n+1) - (n+1) x^n + 1) /
    (x - 1)^2, n = size, both divisions exact. A field at a time would be
    quadratic in the length.
    """
    size = max(rows, cols)
    count = 6 * size + 4
    width = ((size + 1) * (rows + cols)).bit_length() + 1
    high = ((1 << count * width) - 1) // ((1 << width) - 1) << (width - 1)
    x = 1 << 6 * width
    power = 1 << 6 * width * size  # x**size, without the squarings
    ramp = (power - 1) // (x - 1) << 4 * width
    steps = (size * power * x - (size + 1) * power + 1) // (x - 1) ** 2 << 4 * width
    return width, high, ramp, steps


def _hom_pieces(kind: str, t: int) -> tuple:
    """`dim_hom`'s table against a block of this kind and index t, read along the candidates.

    Each (slot, a, b, lo, hi) puts a k + b in the slot's field for
    lo <= k <= hi (hi None: every k), and every other field is 0. Slot s is
    dim Hom(X, block) for even s and dim Hom(block, X) for odd s, with
    X = L_k, L^T_k, E_k(inf) for s // 2 = 0, 1, 2; at k = 0 only slots 0-3
    exist. No candidate has a finite eigenvalue, so E_t at a finite point or
    a symbol meets E_k(inf) in no dimension.
    """
    if kind == "L":
        return (0, 1, 1 - t, t, None), (1, -1, t + 1, 0, t), (2, 1, t, 0, None), (4, 1, 0, 1, None)
    if kind == "L_T":
        return (1, 1, t, 0, None), (2, -1, t + 1, 0, t), (3, 1, 1 - t, t, None), (5, 1, 0, 1, None)
    pieces = (1, 0, t, 0, None), (2, 0, t, 0, None)
    if kind == "E_infinite":
        pieces += (4, 1, 0, 1, t), (4, 0, t, t + 1, None), (5, 1, 0, 1, t), (5, 0, t, t + 1, None)
    return pieces


@functools.lru_cache(maxsize=None)
def _block_hom(kind: str, index: int, rows: int, cols: int) -> int:
    """The packed Hom dimensions of one block of this kind and index against the candidates.

    Each piece of `_hom_pieces` is a T + b R cut to groups lo..hi by a
    mask and shifted to its slot, with the width, R and T of the shape's
    layout read in one lookup (`_hom_layout`); a piece that starts at
    k = 0 (only slots 0-3 do) adds its k = 0 field, b, directly. The mask comes
    before the combination: a T + b R is negative in the fields where
    a k + b is, such as T - (t - 1) R below k = t, and a negative field
    borrows from the next. Cut first, every field of the sum is the
    dimension `dim_hom` gives, and none borrows. The cache holds one int
    per kind, index and pencil shape met; the value of a finite
    eigenvalue never enters.
    """
    width, _, ramp, steps = _hom_layout(rows, cols)
    size = max(rows, cols)
    packed = 0
    for slot, a, b, lo, hi in _hom_pieces(kind, index):
        if lo == 0:
            packed += b << slot * width
            lo = 1
        hi = size if hi is None else min(hi, size)
        if lo > hi:
            continue
        cut = (1 << (6 * hi + 4) * width) - (1 << (6 * lo - 2) * width)  # groups lo..hi
        packed += (a * (steps & cut) + b * (ramp & cut)) << slot * width
    return packed


def _hom_vector(counts: dict, rows: int, cols: int) -> int:
    """The packed Hom vector of a block -> multiplicity dict: the sum of count times each block's int."""
    return sum(count * _block_hom(b.kind, b.index, rows, cols) for b, count in counts.items())


def _hom_candidate(field: int) -> tuple:
    """The candidate (X, direction) of one field of the packed Hom vectors (`_hom_layout`).

    A field below 4 is that slot at k = 0, and any other is slot s of
    group k, (k, s) = divmod(field + 2, 6). Slot s is X = L_k, L^T_k or
    E_k(inf) for s // 2 = 0, 1, 2, as "Hom(X, -)" for even s and
    "Hom(-, X)" for odd s. Only X is built, through the interned
    constructors.
    """
    k, slot = divmod(field + 2, 6) if field >= 4 else (0, field)
    x = (GeneralBlock.right, GeneralBlock.left, GeneralBlock.infinite)[slot // 2](k)
    return x, ("Hom(X, -)", "Hom(-, X)")[slot % 2]


def _hom_witness(target_hom: int, source_hom: int, rows: int, cols: int):
    """The first HomWitness among L_k, L^T_k and E_k(inf) for k <= the pencil size, or None.

    Both lists are rows x cols pencils, given by the packed Hom vectors
    that `closure_reachable` reads once per list and hands to the search.

    dim Hom(X, P) and dim Hom(P, X) are upper semicontinuous in P and
    constant on orbits, so a source in the target's orbit closure has both
    at least the target's, for every pencil X (Demmel-Edelman, LAA 1995).
    None of these X has a finite eigenvalue, so no value of a symbol enters,
    and a witness holds under every valuation of the symbols. The
    congruence orbit closure of a skew pencil is its strict-equivalence
    orbit closure within the skew pencils (Dmytryshyn-Kågström, SIMAX 2014),
    so a witness read off the unfoldings refutes skew inputs too.

    Both dimensions are additive over blocks, so each list has one packed
    vector (`_hom_layout`), and one subtraction compares every field:
    `(source | HIGH) - target` keeps field i's top bit exactly when the
    source's field is at least the target's. No field borrows from the
    next, since each is below its top bit. Only when a top bit is cleared
    is the lowest such field, the first candidate in order, decoded
    (`_hom_candidate`), and only its block is built.
    """
    width, high, _, _ = _hom_layout(rows, cols)
    # positive operands only: `&` on a negative int (`~x`, `-x`) first builds
    # its two's complement, one more int of the full length
    failed = high ^ (((source_hom | high) - target_hom) & high)
    if not failed:
        return None
    i = (failed ^ (failed - 1)).bit_length() // width - 1  # failed ^ (failed - 1): its bits up to the lowest set one
    x, direction = _hom_candidate(i)
    mask = (1 << width) - 1
    return HomWitness(x, direction, (source_hom >> i * width) & mask, (target_hom >> i * width) & mask)


def closure_reachable(
    target: BlockList,
    source: BlockList,
    max_steps: int | None = None,
) -> ClosureResult:
    """Decide whether target's orbit closure contains source's, by Hom witnesses and a search.

    "yes" comes with a rule sequence found by breadth-first search, and
    symbolic eigenvalues match modulo renaming. "no" is certified: by the
    rank, a `HomWitness` or, under the default step bound, an exhausted
    search (below). "no_within_bound" is inconclusive: nothing was found
    within an explicit step bound or `MAX_STATES`. A step bound that is
    negative or not an int (a bool included) raises ParamDomain; zero
    searches no step. A skew-flavor target or source is searched as its
    `skew_to_general` unfolding, which is also the list a certificate
    replays from.

    A skew list is unfolded, and each general list's shape, rank and
    counts are those its one pass read when it was built; the call adds
    one packed Hom vector per list (`_hom_vector`), which the search starts
    from. The answers come in this order: ShapeMismatch for unequal
    shapes, ParamDomain for the step bound, "no" for a source of rank
    above the target's, "no" for a witness, "yes" (no step, one state) for
    a source equal to the target modulo renaming, and then the search.
    Equal `_key_from_counts` keys mean the same multiset of (kind, index),
    hence equal ranks and equal Hom vectors, since no symbol's value
    enters either. So the order cannot change an answer, and a refuted
    source builds no key. Rules 1-5 keep the rank and rule 6
    raises it by one, so no state of rank above the target's leads to the
    target, and only a source that the witness pass leaves open is
    searched. Every rule application strictly lowers the orbit
    codimension, so no path is longer than
    `codim_general(source) - codim_general(target)`, the default step
    bound. A search under that bound that ends below `MAX_STATES`, out of
    steps or out of frontier, has met every state on every path, since the
    pruned states cannot reach the target (`_breadth_first`), so it is a
    "no". At a gap of 0 or less that search takes no step and ends after
    one state. Only `MAX_STATES` leaves it inconclusive.
    """
    target = skew_to_general(target) if target.flavor == "skew" else target
    source = skew_to_general(source) if source.flavor == "skew" else source
    rows, cols = source.total_rows, source.total_cols
    if (rows, cols) != (target.total_rows, target.total_cols):
        raise ShapeMismatch("target and source must have equal total sizes")
    if max_steps is not None:
        if type(max_steps) is not int:  # not isinstance: True is an int
            raise ParamDomain(f"the step bound {max_steps!r} is not an integer")
        if max_steps < 0:
            raise ParamDomain(f"the step bound {max_steps} is negative")
    if source.rank > target.rank:
        return ClosureResult(status="no", states_explored=1)
    target_counts, source_counts = target.counts(), source.counts()
    homs = _hom_vector(target_counts, rows, cols), _hom_vector(source_counts, rows, cols)
    witness = _hom_witness(*homs, rows, cols)
    if witness is not None:
        return ClosureResult(status="no", states_explored=1, witness=witness)
    if _key_from_counts(source_counts) == _key_from_counts(target_counts):
        return ClosureResult(status="yes", certificate=(), states_explored=1)
    bound = codim_general(source) - codim_general(target) if max_steps is None else max_steps
    result = _breadth_first(target, source, homs, bound)
    if max_steps is None and result.status == "no_within_bound" and result.states_explored < MAX_STATES:
        # no path is longer than the gap and no pruned state leads to the
        # target, so a search that ended below MAX_STATES has seen them all
        return replace(result, status="no")
    return result


_layout = threading.local()  # `states`: this thread's _PackedStates, kept from one search to the next


class _PackedStates:
    """States of rows x cols pencils as ints, one count field per block; each rule a cached delta.

    A block gets the next free field the first time a search meets it, and
    keeps its offset for the life of the layout. A field is
    (rows + cols).bit_length() + 1 bits wide: every block has rows + cols at
    least 1, so no count exceeds rows + cols and the top bit of every field
    stays clear. A state is the sum of count << offset over its blocks, so
    two states are equal ints exactly when their counts are equal.
    `symbols` holds every bit of the fields of blocks at a symbol.

    One layout serves every search of its shape in a thread (`for_shape`),
    and memoizes each rule application's step (`step`) and each expanded
    state's successors (`successors`). Every field, step, symbol key and
    memo entry is a pure function of its key once the fields are fixed, so
    a search on a shared layout keys, expands and prunes the same states in
    the same order as one on a fresh layout. The memo holds at most
    MAX_STATES successor entries in all, and every step comes from an
    expansion. A state whose entries do not fit leaves it full: the search
    goes on with the layout and drops it, steps included, from the thread's
    slot when it ends, and the thread's next search starts a new one.
    """

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols = rows, cols
        self.width = (rows + cols).bit_length() + 1
        self.fields: dict = {}  # block -> (offset, packed Hom int)
        self.blocks: list = []  # field number -> block
        self.symbols = 0
        self.steps: dict = {}  # the generator's field tuple -> its `step` pair
        self.symbol_keys: dict = {}  # symbol fields of a state -> their per-symbol multisets
        self.memo: dict = {}  # (state, pool, raise_rank) -> ((application, step), ...)
        self.room = MAX_STATES  # successor entries the memo may still take; 0 when full

    @classmethod
    def for_shape(cls, rows: int, cols: int) -> "_PackedStates":
        """This thread's layout, replaced by a new one when its shape differs."""
        states = getattr(_layout, "states", None)
        if states is None or (states.rows, states.cols) != (rows, cols):
            states = _layout.states = cls(rows, cols)
        return states

    def _field(self, block) -> tuple:
        field = self.fields.get(block)
        if field is None:
            offset = len(self.blocks) * self.width
            field = self.fields[block] = offset, _block_hom(block.kind, block.index, self.rows, self.cols)
            self.blocks.append(block)
            if isinstance(block.eigenvalue, SymbolicPoint):
                self.symbols |= ((1 << self.width) - 1) << offset
        return field

    def pack(self, counts: dict) -> int:
        return sum(count << self._field(block)[0] for block, count in counts.items())

    def counts(self, packed: int) -> dict:
        """The block -> multiplicity dict of a packed state, read off its nonzero fields."""
        counts = {}
        while packed:
            field = (packed.bit_length() - 1) // self.width
            offset = field * self.width
            counts[self.blocks[field]] = packed >> offset
            packed &= (1 << offset) - 1
        return counts

    def key(self, packed: int):
        """The state's key, equal for two states exactly when their `_key_from_counts` keys are.

        A state without symbols is keyed by its int: equal ints are equal
        counts. A state with symbols is keyed by the int of its other blocks
        and the sorted per-symbol multisets of (kind, index), the two parts
        of `_key_from_counts`. An int never equals a pair, and no list
        without symbols has the key of a list with them.
        """
        symbolic = packed & self.symbols
        if not symbolic:
            return packed
        multisets = self.symbol_keys.get(symbolic)
        if multisets is None:
            multisets = self.symbol_keys[symbolic] = _symbol_multisets(self.counts(symbolic))
        return packed ^ symbolic, multisets

    def step(self, fields: tuple) -> tuple:
        """(app, (need, high, delta, Hom delta, rank delta)) of the application with these fields.

        The generator's field tuple builds, and so validates, the application
        once per layout. `need` has a 1 in a consumed block's field per copy
        consumed, `high` the top bit of each such field, and `delta` is the
        produced minus the consumed fields, so every state that holds the
        consumed blocks goes to state + delta. The Hom delta and rank delta
        are the produced minus the consumed blocks' `_block_hom` ints and
        ranks. Both are additive over blocks, so a successor's Hom vector and
        rank are its parent's plus these. The pair is cached in `steps` under
        `fields`, and every memo entry that holds the application shares it.
        """
        app = RuleApplication(*fields)
        consumed, produced = _rule_blocks(app)
        need = high = hom = rank = 0
        for block in consumed:
            offset, block_hom = self._field(block)
            need += 1 << offset
            high |= 1 << (offset + self.width - 1)
            hom -= block_hom
            rank -= block.rank
        delta = -need
        for block in produced:
            offset, block_hom = self._field(block)
            delta += 1 << offset
            hom += block_hom
            rank += block.rank
        pair = self.steps[fields] = app, (need, high, delta, hom, rank)
        return pair

    def successors(self, packed: int, pool: tuple, raise_rank: bool) -> tuple:
        """The (application, step) pairs of `_applications` from a state, in its order; memoized.

        On a miss the state's counts are decoded for the generator, each
        field tuple it yields finds its step (`step`), and each application
        is checked against the state with the top-bit subtraction of
        `_hom_witness`: `(packed | high) - need` keeps a consumed field's top
        bit exactly when the state holds enough copies, and never borrows,
        since a rule consumes at most two copies of a block and a field's top
        bit is worth at least 2. When a block is missing, `_apply_to_counts`
        on the state's counts raises the MissingBlocks that `apply_rule`
        would, and nothing is memoized. The pairs are memoized if they fit in
        the memo's room, and otherwise leave it full.
        """
        memo_key = packed, pool, raise_rank
        successors = self.memo.get(memo_key)
        if successors is None:
            counts = self.counts(packed)
            steps = self.steps
            successors = tuple(steps.get(f) or self.step(f) for f in _applications(counts, pool, raise_rank))
            for app, (need, high, _, _, _) in successors:
                if ((packed | high) - need) & high != high:
                    _apply_to_counts(counts, app)
            if len(successors) <= self.room:
                self.memo[memo_key] = successors
                self.room -= len(successors)
            else:
                self.room = 0
        return successors


def _breadth_first(target: BlockList, source: BlockList, homs: tuple, max_steps: int) -> ClosureResult:
    """Breadth-first search for a rule sequence from one general list to another of its shape.

    The shape, ranks and counts are those each list read when it was built,
    and the (target, source) packed Hom vectors those `closure_reachable`
    built, so one call reads each list once. The search generates rule 6
    only from states below the target's rank, and it expands only states
    whose packed Hom vector (`_hom_witness`) has every field at least the
    target's. A successor that fails this test is keyed and counted but
    never expanded. Every rule moves toward more generic structures, so a
    state lies in the orbit closure of every state reached from it. If one of those were in the target's orbit closure,
    the failing state would be too, and would pass. So every state on a
    path to the target passes, and so does the parent that first finds it:
    the search finds each such state from the same parent, in the same
    order, as a search that prunes nothing, and returns the same
    certificate. `states_explored` (and `MAX_STATES`) count every distinct
    state keyed, pruned ones included, and none of rank above the
    target's. The generator yields only legal applications, so a rule error
    is a bug and propagates instead of dropping a path.

    States are packed ints on this thread's layout for the pencil shape
    (`_PackedStates.for_shape`), which earlier searches of that shape may
    have filled. An expanded state's successors are its memoized (application,
    step) pairs, and `_applications` and `_PackedStates.step` run only on a
    miss. A successor is its parent plus the application's cached delta;
    its key, Hom vector and rank come off the int and the cached deltas,
    and a state's counts are decoded only on a miss. A search that fills
    the layout's memo takes the layout out of the thread's slot when it
    ends, so the process does not hold it until the next search.
    """
    target_hom, source_hom = homs
    target_rank = target.rank
    states = _PackedStates.for_shape(source.total_rows, source.total_cols)
    try:
        start = states.pack(source.counts())
        target_key = states.key(states.pack(target.counts()))
        source_key = states.key(start)
        pool = tuple(dict.fromkeys(b.eigenvalue for b in target.blocks if isinstance(b.eigenvalue, Fraction)))
        _, high, _, _ = _hom_layout(states.rows, states.cols)
        visited = {source_key: (None, None)}
        frontier = [(start, source_key, source_hom, source.rank)]
        explored = 1
        for _ in range(max_steps):
            next_frontier = []
            for packed, state_key, hom, rank in frontier:
                for app, (_, _, delta, hom_delta, rank_delta) in states.successors(packed, pool, rank < target_rank):
                    nxt = packed + delta
                    key = nxt if not nxt & states.symbols else states.key(nxt)
                    if key in visited:
                        continue
                    visited[key] = (state_key, app)
                    explored += 1
                    if key == target_key:
                        cert = []
                        while visited[key][1] is not None:
                            key, used = visited[key]
                            cert.append(used)
                        return ClosureResult(status="yes", certificate=tuple(reversed(cert)), states_explored=explored)
                    nxt_hom = hom + hom_delta
                    if ((nxt_hom | high) - target_hom) & high == high:
                        next_frontier.append((nxt, key, nxt_hom, rank + rank_delta))
                    if explored >= MAX_STATES:
                        return ClosureResult(status="no_within_bound", states_explored=explored)
            frontier = next_frontier
            if not frontier:
                break
        return ClosureResult(status="no_within_bound", states_explored=explored)
    finally:
        # a full layout would give later searches the same answers; dropped, it frees its memory
        if not states.room and getattr(_layout, "states", None) is states:
            del _layout.states


def replay_certificate(source: BlockList, certificate) -> BlockList:
    """Apply a stored rule sequence to source (a skew one unfolded, as the search does); return the result."""
    state = skew_to_general(source) if source.flavor == "skew" else source
    for app in certificate:
        state = apply_rule(state, app)
    return state
