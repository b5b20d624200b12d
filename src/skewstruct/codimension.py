"""Orbit codimensions of pencils: skew ones three independent ways, general ones by Hom dimensions.

The congruence orbit of an n x n skew pencil is a manifold inside the
n(n-1)-dimensional space of skew pencils; its codimension can be computed

* from the Hom count of the unfolded block list, for every skew block list
  (`codim_blocksum`, which halves `codim_general` by the congruence
  involution),
* from closed forms in the defining parameters of the generic structures, and
* from the exact rank of the tangent map X -> (X^T A + A X, X^T B + B X),

and the three must agree. For polynomials of even grade the orbit
codimension is defined through the linearization of the one-grade padding,
which fixes the leading coefficient to zero; dropping that coefficient
block accounts for the m(m-1)/2 offset between the template-space and
polynomial-space codimensions.

A general pencil's strict-equivalence orbit codimension is dim End(P) -
(rows - cols)^2, and End(P) splits over pairs of blocks: `dim_hom` is the
table of Hom dimensions between two canonical blocks, and `codim_general`
sums it over a general list's block counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .blocks import BlockList, GeneralBlock, assemble_skew, skew_to_general
from .errors import FlavorMismatch, InternalInconsistency, NotSkewSymmetric, ParamDomain
from .exact import MatrixPolynomial, rank_exact
from .generic import PencilGenericParams, PolyGenericParams, generic_pencil_structure


@dataclass(frozen=True)
class CodimReport:
    """One codimension value, tagged with its ambient space and method."""

    space: str  # e.g. "PEN_skew(9)", "GSYL(3,3)", "POL(3,2)"
    value: int
    method: str  # "blocksum" | "closed_form" | "tangent_rank"


def codim_blocksum(blocklist: BlockList) -> int:
    """Codimension of a congruence orbit, read off its skew blocks through the Hom count.

    For an n x n skew pencil P, Z -> (-Z^T, Z) maps the congruence
    stabilizer {Z: Z^T A + A Z = 0 for both coefficients A} onto the fixed
    space of the involution tau(X, Y) = (-Y^T, -X^T) on End(P) = {(X, Y):
    X A = A Y}. So the codimension, dim stabilizer - n, is
    (dim End(P) + tr tau) / 2 - n, and dim End(P) is `codim_general` of the
    unfolded list. tau sends the Hom component from block b to block c to
    the one from c to b, so only each block's own End adds to the trace.
    One block's codimension, in the Dmytryshyn-Kågström-Sergeichuk count
    (LAA 438, 2013), is k for H_k and K_k, whose End has dimension 4k, and
    0 for M_k, whose End has dimension 2k + 2. So tau has trace 2k, the
    block's rank, on every block, and tr tau = rank P.
    """
    if blocklist.flavor != "skew":
        raise FlavorMismatch("codim_blocksum needs a skew block list")
    return (codim_general(skew_to_general(blocklist)) + blocklist.rank - 2 * blocklist.total_rows) // 2


def dim_hom(a: GeneralBlock, b: GeneralBlock) -> int:
    """dim Hom(A, B) = dim {(X, Y): X A_k = B_k Y, k = 0, 1} for two general canonical blocks.

    Each entry is zero unless listed: L_i -> L_j gives max(i - j + 1, 0),
    L^T_i -> L_j gives i + j, L^T_i -> L^T_j gives max(j - i + 1, 0),
    L^T_i -> E_j gives j, E_i -> L_j gives i, and E_i -> E_j gives min(i, j)
    when both sit at the same point, infinity counted as one. So no entry
    reads the value of an eigenvalue, only whether two are equal, and a
    symbol differs from every other point.
    """
    i, j = a.index, b.index
    if a.kind == "L":
        return max(i - j + 1, 0) if b.kind == "L" else 0
    if a.kind == "L_T":
        if b.kind == "L":
            return i + j
        return max(j - i + 1, 0) if b.kind == "L_T" else j
    if b.kind == "L":
        return i
    if b.kind == "L_T" or a.kind != b.kind or a.eigenvalue != b.eigenvalue:
        return 0
    return min(i, j)


def codim_general(blocklist: BlockList) -> int:
    """Strict-equivalence orbit codimension of the pencil of a general block list.

    The orbit of an m x n pencil P has codimension dim End(P) - (m - n)^2 in
    the 2mn-dimensional space of pencils (Demmel-Edelman, LAA 1995), and
    End(P) is the sum of Hom(a, b) over the ordered pairs of its blocks. The
    list's block counts and shape are those its one pass read when it was
    built (`BlockList.counts`, `total_rows`, `total_cols`).
    """
    if blocklist.flavor != "general":
        raise FlavorMismatch("codim_general needs a general block list")
    counts = blocklist.counts()
    end = sum(ca * cb * dim_hom(a, b) for a, ca in counts.items() for b, cb in counts.items())
    return end - (blocklist.total_rows - blocklist.total_cols) ** 2


def codim_pencil_closed(n: int, w: int, r: int) -> int:
    """Closed-form codimension of the generic rank-2w pencil orbit."""
    PencilGenericParams.validate(n, w, r)
    return (n - 2 * w - 1) * (n - w - r) + 2 * r * (n - 2 * w) + r * (2 * r - 1)


class PolyCodim(NamedTuple):
    """Polynomial-orbit codimension plus the template-space intermediate."""

    value: int
    gsyl: int


def codim_poly_generic(m: int, d: int, r: int) -> PolyCodim:
    """Closed-form codimension of the generic bounded-rank polynomial orbit.

    The value (m - 2r - 1)(md + m - 2r)/2 is grade-parity independent. The
    intermediate is the codimension of the linearized orbit in its pencil
    template space, at the linearization grade d1 = d | 1: an even d is
    padded to d + 1, which adds m(m-1)/2 to the codimension and r blocks at
    infinity to the pencil; an odd d is linearized directly (the generic
    polynomial has degree exactly d, so no blocks at infinity). Both are
    cross-checked against the pencil closed form.
    """
    PolyGenericParams.validate(m, d, r)
    value = (m - 2 * r - 1) * (m * d + m - 2 * r) // 2
    d1 = d | 1
    gsyl = value + (d1 - d) * m * (m - 1) // 2
    pencil = codim_pencil_closed(m * d1, r + m * (d1 - 1) // 2, r * (d1 - d))
    if gsyl != pencil:
        raise InternalInconsistency(
            f"template codimension {gsyl} disagrees with pencil closed form {pencil}"
        )
    return PolyCodim(value=value, gsyl=gsyl)


def tangent_map_matrix(pencil: MatrixPolynomial) -> list:
    """Matrix of X -> (X^T C_0 + C_0 X, X^T C_1 + C_1 X) on strict uppers.

    Rows: both skew outputs, upper triangles flattened; columns: the n^2
    entries of X. The orbit dimension is the rank of this map.
    """
    n = pencil.rows
    parts = [pencil.coefficient_matrix(0), pencil.coefficient_matrix(1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = []
    for C in parts:
        for i, j in pairs:
            row = [0] * (n * n)
            for p in range(n):
                # d/dX[p][q] of (X^T C + C X)[i][j] = [q==i] C[p][j] + [q==j] C[i][p]
                row[p * n + i] += C[p][j]
                row[p * n + j] += C[i][p]
            rows.append(row)
    return rows


TANGENT_SIZE_LIMIT = 24  # the largest pencil size `codim_tangent` accepts


def codim_tangent(pencil: MatrixPolynomial) -> int:
    """Exact congruence-orbit codimension via the tangent-map rank.

    The representation matrix has n(n-1) x n^2 rational entries, so this is
    a desk-scale verification tool; a pencil larger than TANGENT_SIZE_LIMIT
    raises ParamDomain instead of hanging.
    """
    if not pencil.is_skew_symmetric():
        raise NotSkewSymmetric("tangent codimension is defined for skew pencils")
    if pencil.grade > 1:
        raise ParamDomain("tangent codimension applies to pencils (grade 1)")
    n = pencil.rows
    if n > TANGENT_SIZE_LIMIT:
        raise ParamDomain(f"pencil size {n} exceeds the tangent-rank guard {TANGENT_SIZE_LIMIT}")
    return n * (n - 1) - rank_exact(tangent_map_matrix(pencil))


def pencil_codim_reports(n: int, w: int, r: int, via_tangent: bool = False) -> list:
    """Blocksum / closed-form (and optionally tangent) reports for (n, w, r)."""
    structure = generic_pencil_structure(n, w, r)
    space = f"PEN_skew({n})"
    reports = [
        CodimReport(space=space, value=codim_blocksum(structure), method="blocksum"),
        CodimReport(space=space, value=codim_pencil_closed(n, w, r), method="closed_form"),
    ]
    if via_tangent:
        value = codim_tangent(assemble_skew(structure))
        reports.append(CodimReport(space=space, value=value, method="tangent_rank"))
    return reports


def poly_codim_reports(m: int, d: int, r: int) -> list:
    """Polynomial-space and template-space closed-form reports."""
    pc = codim_poly_generic(m, d, r)
    return [
        CodimReport(space=f"POL({m},{d})", value=pc.value, method="closed_form"),
        CodimReport(space=f"GSYL({m},{d | 1})", value=pc.gsyl, method="closed_form"),
    ]
