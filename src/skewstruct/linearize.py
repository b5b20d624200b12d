"""Grade padding and the odd-grade skew-symmetric strong linearization.

An m x m skew-symmetric polynomial of odd grade d linearizes into an md x md
skew-symmetric pencil with a fixed block template: odd diagonal block
positions carry x*A_{d-i+1} + A_{d-i}, even diagonal positions are zero, and
consecutive blocks are coupled by -I/+I (odd rows) or -xI/+xI (even rows).
The pencil keeps the finite and infinite elementary divisors of the
polynomial and shifts every minimal index up by (d-1)/2. No such skew
template exists for even grade; even-grade inputs must be padded to grade
d+1 first, which shifts the infinite multiplicities up by one and leaves
everything else alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigenstructure import CompleteEigenstructure, analyze
from .errors import EvenGrade, InternalInconsistency, ParamDomain, ShapeMismatch
from .exact import MatrixPolynomial, SkewMatrixPolynomial, as_skew


def pad_grade(P: SkewMatrixPolynomial) -> SkewMatrixPolynomial:
    """Entrywise identical polynomial with the declared grade raised by one."""
    skew = as_skew(P)
    return skew.with_grade(skew.grade + 1)


@dataclass(frozen=True)
class GsylPencil:
    """A pencil in the image of the odd-grade linearization template."""

    m: int
    d: int
    pencil: SkewMatrixPolynomial
    source: SkewMatrixPolynomial


def build_linearization(P: SkewMatrixPolynomial) -> GsylPencil:
    """Assemble the (md) x (md) skew strong linearization of P, of odd grade d.

    For d == 1 the polynomial is its own linearization. Even grades are a
    hard error: pad first (the grade choice is part of the problem statement,
    so silent padding would silently change the structure at infinity). For
    another grade, linearize `P.with_grade(grade)`.
    """
    skew = as_skew(P)
    d = skew.grade
    if d < 1 or d % 2 == 0:
        raise EvenGrade(f"linearization template needs odd grade, got {d}")
    m = skew.rows
    if d == 1:
        return GsylPencil(m=m, d=1, pencil=skew, source=skew)
    coeff, den = skew.numerators, skew.denominator
    n = m * d
    # the pencil is (lo + x*hi) / den, assembled in integers
    lo = [[0] * n for _ in range(n)]
    hi = [[0] * n for _ in range(n)]
    for b in range(1, d + 1):  # template block row/column, 1-based
        o = (b - 1) * m
        if b % 2 == 1:
            for i in range(m):
                hi[o + i][o : o + m] = coeff[d - b + 1][i]
                lo[o + i][o : o + m] = coeff[d - b][i]
        if b < d:
            # coupling between block b and b+1: -I (odd b) or -x*I (even b)
            off = lo if b % 2 == 1 else hi
            for i in range(m):
                off[o + i][o + m + i] = -den
                off[o + m + i][o + i] = den
    pencil = SkewMatrixPolynomial._make(n, n, 1, [lo, hi], den)
    return GsylPencil(m=m, d=d, pencil=pencil, source=skew)


def _template_source(Q: MatrixPolynomial, m: int, d: int) -> SkewMatrixPolynomial | None:
    """The polynomial whose linearization is Q, or None if Q is off the template.

    The odd-position diagonal blocks of the template hold the coefficients,
    so they are read off and assembled again: Q is in the template exactly
    when that reproduces it.
    """
    if d < 1 or d % 2 == 0:
        raise EvenGrade(f"template space is defined for odd grades, got {d}")
    if Q.rows != m * d or Q.cols != m * d:
        raise ShapeMismatch(f"expected {m * d} x {m * d}, got {Q.rows} x {Q.cols}")
    if Q.grade != 1 or not Q.is_skew_symmetric():
        return None
    lo, hi = Q.numerators
    coeff = [None] * (d + 1)
    for b in range(1, d + 1, 2):
        o = (b - 1) * m
        coeff[d - b + 1] = [row[o : o + m] for row in hi[o : o + m]]
        coeff[d - b] = [row[o : o + m] for row in lo[o : o + m]]
    # diagonal blocks of the skew-symmetric Q are skew-symmetric
    source = SkewMatrixPolynomial._make(m, m, d, coeff, Q.denominator)
    return source if build_linearization(source).pencil == Q else None


def gsyl_membership(Q: MatrixPolynomial, m: int, d: int) -> bool:
    """Whether Q matches the linearization template for some coefficients.

    The template determines the coefficients uniquely, so membership plus
    extraction is exactly an inverse of assembly.
    """
    return _template_source(Q, m, d) is not None


@dataclass(frozen=True)
class ShiftReport:
    """Eigenstructure comparison between a polynomial and its linearization."""

    base: CompleteEigenstructure
    linearized: CompleteEigenstructure
    shift: int
    minimal_ok: bool
    finite_ok: bool
    infinite_ok: bool
    rank_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.minimal_ok and self.finite_ok and self.infinite_ok and self.rank_ok


def verify_shift(P: SkewMatrixPolynomial) -> ShiftReport:
    """Check the strong-linearization contracts on an odd-grade polynomial.

    The linearized pencil must keep the finite elementary divisors and the
    nonzero infinite multiplicities, shift every minimal index by (d-1)/2,
    and satisfy rank(pencil) = rank(P) + m(d-1).
    """
    skew = as_skew(P)
    if skew.grade < 3:
        raise ParamDomain("shift verification needs odd grade >= 3")
    lin = build_linearization(skew)
    d, m = lin.d, lin.m
    base = analyze(lin.source)
    linearized = analyze(lin.pencil, 1)
    shift = (d - 1) // 2
    expected_minimal = tuple(sorted(e + shift for e in base.right_minimal))
    rank_expected = base.rank + m * (d - 1)
    # zero multiplicities pad to rank on both sides, so compare nonzero parts
    base_inf = tuple(v for v in base.infinite if v)
    lin_inf = tuple(v for v in linearized.infinite if v)
    report = ShiftReport(
        base=base,
        linearized=linearized,
        shift=shift,
        minimal_ok=(
            linearized.right_minimal == expected_minimal
            and linearized.left_minimal == expected_minimal
        ),
        finite_ok=linearized.finite == base.finite,
        infinite_ok=lin_inf == base_inf,
        rank_ok=linearized.rank == rank_expected,
    )
    if not report.all_ok:
        raise InternalInconsistency(f"linearization contract violated: {report}")
    return report
