"""Generic eigenstructures of bounded-rank skew-symmetric pencils and polynomials.

For pencils: among n x n skew-symmetric pencils of rank at most 2w carrying
exactly r blocks at infinity, the most generic one is a direct sum of M
blocks of two adjacent sizes plus r smallest K blocks; every other such
pencil lies in the closure of its congruence orbit.

For polynomials: among m x m skew-symmetric polynomials of grade d and rank
at most 2r, the generic complete eigenstructure has no elementary divisors
at all and carries m - 2r left (= right) minimal indices as equal as
possible, summing to r*d per side. The same formula serves every grade
parity; evenness only matters downstream, where verification must pad by one
grade before linearizing.

`structure_consistency` checks the arithmetic identities tying the two
pictures together through `linearize.linearized_structure`, the structure
of the grade-(d+1) linearization of the padded generic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockList, SkewBlock, structure_to_skew_blocks
from .eigenstructure import CompleteEigenstructure
from .errors import InternalInconsistency, ParamDomain
from .linearize import linearized_structure


def require_ints(**values) -> None:
    """ParamDomain for the first value that is not exactly an int (not isinstance: True is an int)."""
    for name, value in values.items():
        if type(value) is not int:
            raise ParamDomain(f"{name}={value!r} must be an integer")


@dataclass(frozen=True)
class PencilGenericParams:
    """Validated (n, w, r) with the derived block size alpha and count split s."""

    n: int
    w: int
    r: int
    alpha: int
    s: int

    @classmethod
    def validate(cls, n: int, w: int, r: int) -> "PencilGenericParams":
        require_ints(n=n, w=w, r=r)
        if n < 2:
            raise ParamDomain(f"pencil size n={n} must be at least 2")
        if not 2 <= 2 * w <= n - 1:
            raise ParamDomain(f"half-rank w={w} must satisfy 2 <= 2w <= n-1={n - 1}")
        if not 0 <= r <= w:
            raise ParamDomain(f"block count r={r} must satisfy 0 <= r <= w={w}")
        alpha, s = divmod(w - r, n - 2 * w)
        return cls(n=n, w=w, r=r, alpha=alpha, s=s)


@dataclass(frozen=True)
class PolyGenericParams:
    """Validated (m, d, r) with the derived index size beta and count split t."""

    m: int
    d: int
    r: int
    beta: int
    t: int

    @classmethod
    def validate(cls, m: int, d: int, r: int) -> "PolyGenericParams":
        require_ints(m=m, d=d, r=r)
        if m < 2:
            raise ParamDomain(f"size m={m} must be at least 2")
        if d < 1:
            raise ParamDomain(f"grade d={d} must be at least 1")
        if not 2 <= 2 * r <= m - 1:
            raise ParamDomain(
                f"half-rank r={r} must satisfy 2 <= 2r <= m-1={m - 1} "
                "(full-rank polynomials have no bounded-rank generic structure)"
            )
        beta, t = divmod(r * d, m - 2 * r)
        return cls(m=m, d=d, r=r, beta=beta, t=t)


def generic_pencil_structure(n: int, w: int, r: int) -> BlockList:
    """Most generic skew pencil: rank 2w, exactly r infinite blocks, size n."""
    p = PencilGenericParams.validate(n, w, r)
    blocks = [SkewBlock.m(p.alpha + 1)] * p.s
    blocks += [SkewBlock.m(p.alpha)] * (n - 2 * w - p.s)
    blocks += [SkewBlock.k(1)] * r
    out = BlockList.skew(blocks)
    if out.total_rows != n or out.rank != 2 * w:
        raise InternalInconsistency(f"generic pencil list for {(n, w, r)} has the wrong size or rank")
    return out


def generic_poly_structure(m: int, d: int, r: int) -> CompleteEigenstructure:
    """Generic complete eigenstructure at size m, grade d, rank 2r.

    No elementary divisors; t minimal indices equal to beta+1 and m-2r-t
    equal to beta on each side, with beta, t = divmod(r*d, m-2r).
    """
    p = PolyGenericParams.validate(m, d, r)
    minimal = [p.beta + 1] * p.t + [p.beta] * (m - 2 * r - p.t)
    return CompleteEigenstructure.skew(m, d, 2 * r, {}, [0] * (2 * r), minimal)


@dataclass(frozen=True)
class ConsistencyReport:
    """Arithmetic identities linking polynomial and pencil generic structures."""

    poly: PolyGenericParams
    pencil: PencilGenericParams
    eta: int
    sizes_match: bool  # beta + d/2 == alpha
    counts_match: bool  # t == s
    remainders_match: bool  # m - 2r - t == n - 2w - s
    blocklists_match: bool


def structure_consistency(m: int, d: int, r: int) -> ConsistencyReport:
    """Verify the identities tying the generic polynomial to the generic pencil.

    With n = m(d+1) and w = (md + 2r)/2, checks beta + d/2 == alpha, t == s,
    m - 2r - t == n - 2w - s, and that the generic pencil's skew block list
    is that of `linearized_structure` of the generic polynomial at grade d+1.
    """
    if d % 2:
        raise ParamDomain("consistency check applies to even grades")
    poly = PolyGenericParams.validate(m, d, r)
    n = m * (d + 1)
    w = (m * d + 2 * r) // 2
    pencil = PencilGenericParams.validate(n, w, r)
    eta = d // 2
    expected = structure_to_skew_blocks(linearized_structure(generic_poly_structure(m, d, r), d + 1))
    return ConsistencyReport(
        poly=poly,
        pencil=pencil,
        eta=eta,
        sizes_match=poly.beta + eta == pencil.alpha,
        counts_match=poly.t == pencil.s,
        remainders_match=(m - 2 * r - poly.t) == (n - 2 * w - pencil.s),
        blocklists_match=expected == generic_pencil_structure(n, w, r),
    )
