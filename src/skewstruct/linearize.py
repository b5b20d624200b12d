"""Grade padding and the odd-grade skew-symmetric strong linearization.

An m x m skew-symmetric polynomial of odd grade d linearizes into an md x md
skew-symmetric pencil with a fixed block template: odd diagonal block
positions carry x*A_{d-i+1} + A_{d-i}, even diagonal positions are zero, and
consecutive blocks are coupled by -I/+I (odd rows) or -xI/+xI (even rows).
No such skew template exists for even grade; even-grade inputs must be
padded to grade d+1 first, which shifts the infinite multiplicities up by
one and leaves everything else alone. `linearized_structure` states the
pencil's structure in one place (Dmytryshyn-Dopico 2018), and
`verify_shift` checks it against the analyzed pencil.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigenstructure import CompleteEigenstructure, analyze
from .errors import EvenGrade, GradeTooSmall, InternalInconsistency, ParamDomain, ShapeMismatch
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


def linearized_structure(structure: CompleteEigenstructure, grade: int) -> CompleteEigenstructure:
    """Complete eigenstructure of `build_linearization(P.with_grade(grade)).pencil`.

    It holds for every skew P whose `analyze` is `structure`. Re-declaring
    the grade raises every multiplicity at infinity, zeros included, by
    grade - structure.grade; the pencil keeps the finite structure and the
    nonzero multiplicities at infinity, raises every minimal index by
    (grade - 1)/2 and has rank rank + m(grade - 1). A grade below
    structure.grade raises GradeTooSmall and an even one EvenGrade.
    """
    if grade < structure.grade:
        raise GradeTooSmall(f"grade {grade} is below the structure's grade {structure.grade}")
    if grade % 2 == 0:
        raise EvenGrade(f"linearization template needs odd grade, got {grade}")
    m = structure.size
    rank = structure.rank + m * (grade - 1)
    raised = [v + grade - structure.grade for v in structure.infinite]
    infinite = [v for v in raised if v]
    infinite += [0] * (rank - len(infinite))
    minimal = [e + (grade - 1) // 2 for e in structure.right_minimal]
    return CompleteEigenstructure.skew(m * grade, 1, rank, structure.finite, infinite, minimal)


@dataclass(frozen=True)
class ShiftReport:
    """A polynomial's structure, its linearization's, and the one `linearized_structure` predicts."""

    base: CompleteEigenstructure
    linearized: CompleteEigenstructure
    expected: CompleteEigenstructure
    shift: int

    @property
    def all_ok(self) -> bool:
        return self.linearized == self.expected


def verify_shift(P: SkewMatrixPolynomial) -> ShiftReport:
    """Check the strong-linearization contract on a polynomial of odd grade >= 3.

    The analyzed pencil must equal `linearized_structure` of the analyzed
    polynomial at its own grade; a mismatch raises InternalInconsistency.
    """
    skew = as_skew(P)
    if skew.grade < 3:
        raise ParamDomain("shift verification needs odd grade >= 3")
    lin = build_linearization(skew)
    base = analyze(lin.source)
    report = ShiftReport(
        base=base,
        linearized=analyze(lin.pencil, 1),
        expected=linearized_structure(base, lin.d),
        shift=(lin.d - 1) // 2,
    )
    if not report.all_ok:
        raise InternalInconsistency(f"linearization contract violated: {report}")
    return report
