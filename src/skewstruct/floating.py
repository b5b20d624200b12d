"""Best-effort floating-point backend (`analyze --backend float`).

The only module that imports numpy or scipy, and the one way into the
float backend: the package does not import it, so numpy loads exactly
when `cli.cmd_analyze` imports it, under `--backend float`.
`analyze_float` runs the exact analysis, `eigenstructure._analyze`, so the
rank, minimal indices, infinity and deficit are exact, and reads only the
finite part numerically: every rank is read by `_nullity` on a
block-Toeplitz matrix, built by `_toeplitz` alone, of the Taylor
coefficients at a QZ eigenvalue candidate. The answer passes the skew
checks of `CompleteEigenstructure.skew` or raises RankVerificationFailed.
"""

from __future__ import annotations

import math

import numpy as np

from .eigenstructure import CompleteEigenstructure, _analyze, multiplicities_from_prefix_dims
from .errors import InternalInconsistency, ParamDomain, RankVerificationFailed
from .exact import MatrixPolynomial
from .points import NumericRoot

DEFAULT_TOL = 1e-8


def _coeff_arrays(P: MatrixPolynomial):
    # float(Fraction) rounds once; numerators read as floats would round past 2^53
    return [
        np.array([[float(v) for v in row] for row in P.coefficient_matrix(i)]).reshape(P.rows, P.cols)
        for i in range(P.grade + 1)
    ]


def _toeplitz(coeffs, k):
    """T_k: block rows and columns 0 .. k of the lower block-triangular Toeplitz matrix of coeffs."""
    return sum(np.kron(np.eye(k + 1, k=-d), c) for d, c in enumerate(coeffs[: k + 1]))


def _floor(coeffs, tol_rel) -> float:
    """tol_rel times the largest spectral norm of the coefficients read, as GUPTRI scales ranks."""
    return tol_rel * max((np.linalg.norm(c, 2) for c in coeffs if c.size), default=0.0)


def _nullity(t, width: int, floor: float) -> int:
    """Numeric nullity of the first `width` columns of t, whose rank counts singular values above `floor`.

    Scaled by t itself, P(z) at a true eigenvalue z, rounding noise against
    its coefficients, would read full rank, and z would be missed.
    """
    a = np.asarray(t[:, :width], dtype=complex)
    if a.size == 0:
        return width
    return width - int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) > floor))


def _shifted_coeffs(coeffs, z):
    """Taylor coefficient matrices of P at the point z (binomial shift)."""
    n = len(coeffs)
    return [sum(math.comb(i, j) * z ** (i - j) * coeffs[i] for i in range(j, n)) for j in range(n)]


def analyze_float(
    P: MatrixPolynomial, grade: int | None = None, tol_rel: float = DEFAULT_TOL
) -> CompleteEigenstructure:
    """Best-effort eigenstructure of a skew polynomial, its finite part read numerically.

    Eigenvalue candidates are QZ eigenvalues of P as declared, kept where
    their local profile (the prefix nullities of P's Taylor coefficients
    there) is possible and has a positive multiplicity, as NumericRoot
    annotations. Clustered or ill-conditioned spectra can defeat it, and a
    structure failing the skew checks raises RankVerificationFailed.
    tol_rel is checked on every call, after the grade.
    """
    try:
        return _analyze(P, grade, lambda skew, rho, deficit: _finite_part(skew, rho, deficit, tol_rel))
    except InternalInconsistency as exc:
        # an impossible structure here is numeric noise, not a library bug
        raise RankVerificationFailed(f"inconsistent numeric eigenstructure: {exc}") from exc


def _finite_part(skew: MatrixPolynomial, rho: int, deficit: int, tol_rel: float) -> dict:
    """Candidates with a possible, positive local profile; no QZ at a zero deficit.

    Profiles are read to order rho * grade + 1, not bounded by the deficit:
    a true eigenvalue whose profile over-reads must fail the index sum, not
    be cut short while a spurious candidate fills the deficit.
    """
    if not 0 < tol_rel < math.inf:  # NaN fails every comparison
        raise ParamDomain(f"tol_rel must be positive and finite, got {tol_rel}")
    finite: dict = {}
    if not deficit:
        return finite
    m = skew.rows
    coeffs = _coeff_arrays(skew)
    last = rho * skew.grade + 1
    # order 0 of a local profile is rank P(z)
    for z in _eigenvalue_candidates(coeffs):
        shifted = _shifted_coeffs(coeffs, z)
        floor = _floor(shifted, tol_rel)
        local = (_nullity(_toeplitz(shifted, k), (k + 1) * m, floor) for k in range(last + 1))
        try:
            positive = tuple(v for v in multiplicities_from_prefix_dims(local, m - rho, rho) if v)
        except InternalInconsistency:
            continue  # no eigenvalue has an impossible local profile
        if positive:
            # + 0.0 turns a rounded -0.0 into 0.0, so no root prints the sign of a zero
            finite[NumericRoot(round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0)] = positive
    return finite


def _eigenvalue_candidates(coeffs):
    """Finite eigenvalues of a companion-style linearization, one per cluster."""
    from scipy.linalg import eig

    deg = len(coeffs) - 1
    m = coeffs[0].shape[0]
    if deg == 0:
        return []
    n = m * deg
    a = np.zeros((n, n), dtype=complex)
    b = np.eye(n, dtype=complex)
    a[:m, : m * deg] = np.hstack([-c for c in reversed(coeffs[:-1])])
    for i in range(deg - 1):
        a[m * (i + 1) : m * (i + 2), m * i : m * (i + 1)] = np.eye(m)
    b[:m, :m] = coeffs[-1]
    values = eig(a, b, right=False)
    finite = [z for z in values if np.isfinite(z)]
    # a size-k Jordan block's computed eigenvalues spread by about eps^(1/k)
    # around it, and their mean is much closer to it than any one of them
    clusters = []
    for z in finite:
        for cluster in clusters:
            if abs(z - cluster[0]) <= 1e-4 * max(1.0, abs(cluster[0])):
                cluster.append(z)
                break
        else:
            clusters.append([z])
    return [sum(cluster) / len(cluster) for cluster in clusters]
