"""Canonical blocks of matrix pencils and their skew-symmetric counterparts.

General (strict equivalence) pencils decompose into four block families:
Jordan-type blocks for finite eigenvalues, their reversal for the infinite
eigenvalue, and right/left singular blocks for the minimal indices. Under
congruence, skew-symmetric pencils decompose into paired versions of the
same data: H blocks (a finite eigenvalue, twice), K blocks (the infinite
eigenvalue, twice), and M blocks (one right plus one left minimal index).
`UNFOLDING` is the one place that correspondence is written down:
`SkewBlock.unfolded`, `skew_to_general`, `general_to_skew`, skew assembly
and `structure_to_skew_blocks` all read it.

Blocks are symbolic objects here; `assemble_general`/`assemble_skew`
materialize a block list into an exact pencil, and
`blocklist_eigenstructure` reads the complete eigenstructure straight off
the list, which is what makes cross-checks against the analysis of the
assembled pencil meaningful.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .eigenstructure import CompleteEigenstructure
from .errors import FlavorMismatch, InternalInconsistency, InvalidBlock, PairingBroken
from .exact import MatrixPolynomial, RationalPolynomial, SkewMatrixPolynomial
from .points import (
    INFINITY,
    SymbolicPoint,
    as_eigenvalue,
    eigenvalue_sort_key,
    format_eigenvalue,
    parse_eigenvalue,
)

# kind -> (least index, carries a finite eigenvalue), in canonical order
_GENERAL = {"E_finite": (1, True), "E_infinite": (1, False), "L": (0, False), "L_T": (0, False)}
_SKEW = {"H": (1, True), "K": (1, False), "M": (0, False)}
_POSITION = {kind: i for kinds in (_GENERAL, _SKEW) for i, kind in enumerate(kinds)}

# the one place the skew <-> general correspondence lives: each skew block
# of index k unfolds to these two general blocks of index k, with its eigenvalue
UNFOLDING = {"H": ("E_finite", "E_finite"), "K": ("E_infinite", "E_infinite"), "M": ("L", "L_T")}


@dataclass(frozen=True)
class _Block:
    """A canonical block; the subclass's kind table decides what is valid.

    A block is a value built once and hashed once: the library builds its
    blocks through `_interned`, and each block stores the hash of its field
    tuple, the hash the dataclass would compute, so set and dict orders are
    those of plain field-tuple hashing.
    """

    kind: str
    index: int
    eigenvalue: object = None

    def __post_init__(self):
        kinds = self._KINDS
        if not isinstance(self.kind, str) or self.kind not in kinds:
            raise InvalidBlock(f"unknown {self._FLAVOR} block kind {self.kind!r}")
        least, finite = kinds[self.kind]
        if type(self.index) is not int:  # not isinstance: True is an int
            raise InvalidBlock(f"{self.kind} blocks need an integer index, not {self.index!r}")
        if self.index < least:
            raise InvalidBlock(f"{self.kind} blocks need index >= {least}")
        if finite:
            if self.eigenvalue is None:
                raise InvalidBlock(f"{self.kind} blocks carry an eigenvalue")
            try:
                object.__setattr__(self, "eigenvalue", as_eigenvalue(self.eigenvalue))
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise InvalidBlock(f"{self.kind} blocks carry an exact eigenvalue, not {self.eigenvalue!r}") from exc
            if self.eigenvalue is INFINITY:
                raise InvalidBlock(f"use {self._INFINITE} for the infinite eigenvalue")
        elif self.eigenvalue is not None:
            raise InvalidBlock(f"{self.kind} blocks carry no eigenvalue")
        object.__setattr__(self, "_hash", hash((self.kind, self.index, self.eigenvalue)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: validated again, hashed by the loading process
        return type(self), (self.kind, self.index, self.eigenvalue)

    def sort_key(self):
        ev = self.eigenvalue
        return (
            _POSITION[self.kind],
            -self.index,
            eigenvalue_sort_key(ev) if ev is not None else (-1,),
        )


class GeneralBlock(_Block):
    """One canonical block of an unstructured pencil."""

    _FLAVOR, _KINDS, _INFINITE = "general", _GENERAL, "E_infinite"

    @classmethod
    def finite(cls, index: int, eigenvalue) -> "GeneralBlock":
        return _interned(cls, "E_finite", index, eigenvalue)

    @classmethod
    def infinite(cls, index: int) -> "GeneralBlock":
        return _interned(cls, "E_infinite", index, None)

    @classmethod
    def right(cls, index: int) -> "GeneralBlock":
        """Right-singular block: index k occupies k x (k+1)."""
        return _interned(cls, "L", index, None)

    @classmethod
    def left(cls, index: int) -> "GeneralBlock":
        """Left-singular block: index k occupies (k+1) x k."""
        return _interned(cls, "L_T", index, None)

    @classmethod
    def eigen(cls, index: int, point) -> "GeneralBlock":
        """Eigenvalue block for a finite point or INFINITY."""
        if point is INFINITY:
            return cls.infinite(index)
        return cls.finite(index, point)

    @property
    def shape(self) -> tuple:
        k = self.index
        if self.kind == "L":
            return (k, k + 1)
        if self.kind == "L_T":
            return (k + 1, k)
        return (k, k)

    @property
    def rank(self) -> int:
        return self.index

    def __str__(self):
        if self.kind == "E_finite":
            return f"E_{self.index}({format_eigenvalue(self.eigenvalue)})"
        if self.kind == "E_infinite":
            return f"E_{self.index}(inf)"
        return ("L_" if self.kind == "L" else "L^T_") + str(self.index)


class SkewBlock(_Block):
    """One canonical block of a skew-symmetric pencil under congruence."""

    _FLAVOR, _KINDS, _INFINITE = "skew", _SKEW, "K blocks"

    @classmethod
    def h(cls, index: int, eigenvalue) -> "SkewBlock":
        return _interned(cls, "H", index, eigenvalue)

    @classmethod
    def k(cls, index: int) -> "SkewBlock":
        return _interned(cls, "K", index, None)

    @classmethod
    def m(cls, index: int) -> "SkewBlock":
        return _interned(cls, "M", index, None)

    @property
    def shape(self) -> tuple:
        n = 2 * self.index + 1 if self.kind == "M" else 2 * self.index
        return (n, n)

    @property
    def rank(self) -> int:
        return 2 * self.index

    def unfolded(self) -> tuple:
        """The two general blocks this block is strictly equivalent to the sum of (`UNFOLDING`)."""
        return tuple(_interned(GeneralBlock, kind, self.index, self.eigenvalue) for kind in UNFOLDING[self.kind])

    def __str__(self):
        if self.kind == "H":
            return f"H_{self.index}({format_eigenvalue(self.eigenvalue)})"
        return f"{self.kind}_{self.index}"


@functools.lru_cache(maxsize=None, typed=True)
def _cached_block(cls, kind, index, eigenvalue):
    return cls(kind, index, eigenvalue)


def _interned(cls, kind, index, eigenvalue):
    """The one validated block of this class, kind, index and eigenvalue.

    Every library construction site calls this with all four arguments, so
    one block has one cache entry. The cache is typed, so True, which equals
    1, never finds the block of index 1 and still raises InvalidBlock; a
    raise is not cached, so invalid arguments raise on every call. An
    unhashable argument cannot be a cache key; the constructor then names
    the fault as it does for any other invalid argument.
    """
    try:
        return _cached_block(cls, kind, index, eigenvalue)
    except TypeError:
        return cls(kind, index, eigenvalue)


@dataclass(frozen=True)
class BlockList:
    """Canonically sorted multiset of canonical blocks of one flavor.

    The blocks are read once, when the list is built: the pass over the
    sorted blocks also counts them and sums their rows, columns and ranks.
    The totals and the counts are not compared, hashed or shown, so two
    lists are equal exactly when their flavors and sorted blocks are.
    """

    flavor: str
    blocks: tuple
    total_rows: int = field(init=False, compare=False, repr=False)
    total_cols: int = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False, repr=False)
    _counts: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.flavor not in ("general", "skew"):
            raise FlavorMismatch(f"unknown flavor {self.flavor!r}")
        wanted = GeneralBlock if self.flavor == "general" else SkewBlock
        for b in self.blocks:
            if not isinstance(b, wanted):
                raise FlavorMismatch(f"{self.flavor} list holds {type(b).__name__}")
        blocks = tuple(sorted(self.blocks, key=lambda b: b.sort_key()))
        counts: dict = {}
        rows = cols = rank = 0
        for b in blocks:
            counts[b] = counts.get(b, 0) + 1
            block_rows, block_cols = b.shape
            rows += block_rows
            cols += block_cols
            rank += b.rank
        read = {"blocks": blocks, "total_rows": rows, "total_cols": cols, "rank": rank, "_counts": counts}
        for name, value in read.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        """Load a pickle or a copy from its flavor and blocks, and read them again."""
        self.__init__(state["flavor"], state["blocks"])

    @classmethod
    def general(cls, blocks) -> "BlockList":
        return cls("general", tuple(blocks))

    @classmethod
    def skew(cls, blocks) -> "BlockList":
        return cls("skew", tuple(blocks))

    def counts(self) -> dict:
        """block -> multiplicity, blocks in list order: a copy, which the caller may change."""
        return self._counts.copy()

    def __str__(self):
        if not self.blocks:
            return "(empty)"
        return " + ".join(str(b) for b in self.blocks)

    def to_json_dict(self) -> dict:
        blocks = []
        for b in self.blocks:
            item = {"kind": b.kind, "index": b.index}
            if b.eigenvalue is not None:
                item["eigenvalue"] = format_eigenvalue(b.eigenvalue)
            blocks.append(item)
        return {"flavor": self.flavor, "blocks": blocks}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlockList":
        """Read the JSON form; malformed input raises a SkewstructError."""
        if not isinstance(data, dict) or "flavor" not in data or not isinstance(data.get("blocks"), list):
            raise InvalidBlock("a block list is an object with a flavor and a list of blocks")
        flavor = data["flavor"]
        if flavor not in ("general", "skew"):
            raise FlavorMismatch(f"unknown flavor {flavor!r}")
        block_cls = GeneralBlock if flavor == "general" else SkewBlock
        blocks = []
        for item in data["blocks"]:
            try:
                kind = item["kind"]
                index = item["index"]
                ev = item.get("eigenvalue")
                point = parse_eigenvalue(ev) if ev is not None else None
            except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise InvalidBlock(f"malformed block {item!r}") from exc
            # built directly, not interned: a block read from outside is built
            # once, and interning it would only let input grow the cache
            blocks.append(block_cls(kind, index, point))
        return cls(flavor, tuple(blocks))


# ---------------------------------------------------------------------------
# assembly into exact pencils
# ---------------------------------------------------------------------------

def _concrete(mu):
    if not isinstance(mu, Fraction):
        raise ValueError(f"cannot materialize symbolic eigenvalue {mu}")
    return mu


def _general_block_entries(block: GeneralBlock):
    """Nonzero entries (i, j, c0, c1), meaning c0 + c1*x, of one general canonical block."""
    k = block.index
    if block.kind == "E_finite":
        mu = _concrete(block.eigenvalue)
        return [(i, i, -mu, 1) for i in range(k)] + [(i, i + 1, -1, 0) for i in range(k - 1)]
    if block.kind == "E_infinite":
        return [(i, i, -1, 0) for i in range(k)] + [(i, i + 1, 0, 1) for i in range(k - 1)]
    if block.kind == "L":
        return [(i, i, 0, 1) for i in range(k)] + [(i, i + 1, -1, 0) for i in range(k)]
    return [(j, j, 0, 1) for j in range(k)] + [(j + 1, j, -1, 0) for j in range(k)]


def _assemble(cls, rows: int, cols: int, placed):
    """The pencil with the entries (i, j, c0, c1) and zeros elsewhere."""
    lo = [[0] * cols for _ in range(rows)]
    hi = [[0] * cols for _ in range(rows)]
    for i, j, c0, c1 in placed:
        lo[i][j], hi[i][j] = c0, c1
    return cls._from_rationals(rows, cols, 1, [lo, hi])


def assemble_general(blocklist: BlockList) -> MatrixPolynomial:
    """Materialize a general block list as the direct sum pencil."""
    if blocklist.flavor != "general":
        raise FlavorMismatch("assemble_general needs a general block list")
    placed = []
    r = c = 0
    for block in blocklist.blocks:
        placed += [(r + i, c + j, c0, c1) for i, j, c0, c1 in _general_block_entries(block)]
        br, bc = block.shape
        r += br
        c += bc
    return _assemble(MatrixPolynomial, blocklist.total_rows, blocklist.total_cols, placed)


def _skew_block_entries(block: SkewBlock):
    """Nonzero upper-right entries (i, j, c0, c1) of one skew block; (j, i) holds minus them.

    The top right of a block is the first general block it unfolds to, k columns to the right.
    """
    k = block.index
    return [(i, k + j, c0, c1) for i, j, c0, c1 in _general_block_entries(block.unfolded()[0])]


def assemble_skew(blocklist: BlockList) -> SkewMatrixPolynomial:
    """Materialize a skew block list as the direct sum skew pencil."""
    if blocklist.flavor != "skew":
        raise FlavorMismatch("assemble_skew needs a skew block list")
    placed = []
    offset = 0
    for block in blocklist.blocks:
        for i, j, c0, c1 in _skew_block_entries(block):
            placed += [(offset + i, offset + j, c0, c1), (offset + j, offset + i, -c0, -c1)]
        offset += block.shape[0]
    n = blocklist.total_rows
    return _assemble(SkewMatrixPolynomial, n, n, placed)


# ---------------------------------------------------------------------------
# flavor conversion and eigenstructure reading
# ---------------------------------------------------------------------------


def skew_to_general(blocklist: BlockList) -> BlockList:
    """Unfold a skew block list into the underlying strict-equivalence blocks (`UNFOLDING`)."""
    if blocklist.flavor != "skew":
        raise FlavorMismatch("skew_to_general needs a skew block list")
    return BlockList.general(g for b in blocklist.blocks for g in b.unfolded())


def general_to_skew(blocklist: BlockList) -> BlockList:
    """Fold a paired general block list back into skew blocks (`UNFOLDING` read backwards).

    Each block that starts an unfolding folds, with as many partners as its
    count allows; raises PairingBroken unless the folded list unfolds back
    to the input, i.e. if eigenvalue blocks do not come in equal pairs or
    the right and left singular index multisets differ.
    """
    if blocklist.flavor != "general":
        raise FlavorMismatch("general_to_skew needs a general block list")
    folds = {halves[0]: kind for kind, halves in UNFOLDING.items()}
    out = []
    for block, count in blocklist.counts().items():
        if block.kind in folds:
            skew = _interned(SkewBlock, folds[block.kind], block.index, block.eigenvalue)
            out += [skew] * (count // skew.unfolded().count(block))
    folded = BlockList.skew(out)
    if skew_to_general(folded) != blocklist:
        raise PairingBroken(f"{blocklist} does not pair up into skew blocks")
    return folded


def structure_to_skew_blocks(structure: CompleteEigenstructure) -> BlockList:
    """Skew block list of a grade-1 complete eigenstructure (inverse reading).

    The structure is read as general blocks and folded by `general_to_skew`.
    A linear factor gives its rational root and a symbolic factor stands for
    itself. An irreducible factor of degree s > 1 gives s fresh symbolic
    points, each with the factor's partial multiplicities, named unlike
    every symbolic factor of the structure. That is exact for the closure
    question: Galois conjugate roots share their partial multiplicities, they
    differ from every rational and from each other as the symbols do, and
    the degeneration rules read eigenvalues only through equality, with
    symbols matched modulo renaming. So the answer holds for every target
    without symbolic eigenvalues, every generic target among them.
    """
    if structure.grade != 1:
        raise FlavorMismatch("block lists describe pencils (grade 1)")
    taken = {f.name for f, _ in structure.finite if isinstance(f, SymbolicPoint)}
    fresh = (SymbolicPoint(f"r{i}") for i in itertools.count() if f"r{i}" not in taken)
    blocks = []
    for factor, mults in structure.finite:
        if isinstance(factor, SymbolicPoint):
            points = [factor]
        elif not isinstance(factor, RationalPolynomial):
            raise PairingBroken(f"factor {factor} has no exact eigenvalue")
        elif factor.degree == 1:
            points = [-factor.coefficient(0) / factor.coefficient(1)]
        else:
            points = [next(fresh) for _ in range(factor.degree)]
        blocks += [GeneralBlock.finite(k, mu) for mu in points for k in mults]
    blocks += [GeneralBlock.infinite(k) for k in structure.infinite if k]
    blocks += [GeneralBlock.right(k) for k in structure.right_minimal]
    blocks += [GeneralBlock.left(k) for k in structure.left_minimal]
    out = general_to_skew(BlockList.general(blocks))
    if out.total_rows != structure.size or out.rank != structure.rank:
        raise InternalInconsistency("block accounting does not reproduce the structure")
    return out


def blocklist_eigenstructure(blocklist: BlockList) -> CompleteEigenstructure:
    """Read the complete eigenstructure directly off a block list (grade 1)."""
    if blocklist.flavor == "skew":
        blocklist = skew_to_general(blocklist)
    finite: dict = {}
    infinite = []
    right = []
    left = []
    for b in blocklist.blocks:
        if b.kind == "E_finite":
            mu = b.eigenvalue
            key = RationalPolynomial((-mu, 1)) if isinstance(mu, Fraction) else mu
            finite.setdefault(key, []).append(b.index)
        elif b.kind == "E_infinite":
            infinite.append(b.index)
        elif b.kind == "L":
            right.append(b.index)
        else:
            left.append(b.index)
    rank = blocklist.rank
    if rank != blocklist.total_cols - len(right) or rank != blocklist.total_rows - len(left):
        raise InternalInconsistency("block rank bookkeeping is broken")
    infinite.extend([0] * (rank - len(infinite)))
    return CompleteEigenstructure.build(
        rows=blocklist.total_rows,
        cols=blocklist.total_cols,
        grade=1,
        rank=rank,
        finite=finite,
        infinite=infinite,
        left_minimal=left,
        right_minimal=right,
    )
