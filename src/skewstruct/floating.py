"""Best-effort floating-point backend (`analyze --backend float`).

The only module that imports numpy or scipy, and the one way into the
float backend: the package does not import it, so numpy loads exactly
when `cli.cmd_analyze` imports it, under `--backend float`.
Every numeric rank is read by `_nullity` on a block-Toeplitz matrix T_k of
one builder, `_toeplitz`: these nullities feed the exact staircase's reader
(one pass over rev(P, deg P) gives the rank, minimal indices and infinity),
and on the Taylor coefficients at z they give a candidate's local profile.
An answer is built by `CompleteEigenstructure.skew`, so it passes the same
skew checks as an exact one (even rank, multiplicities in pairs, the index
sum theorem) or raises RankVerificationFailed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .eigenstructure import CompleteEigenstructure, _at_infinity, multiplicities_from_prefix_dims
from .errors import InternalInconsistency, ParamDomain, RankVerificationFailed
from .exact import MatrixPolynomial, as_skew
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


def _stages(P: MatrixPolynomial, tol_rel):
    """Numeric (dim S_k, dim F_k) of P for k = 0, 1, ..., as `eigenstructure._staircase` yields them.

    dim S_k is the nullity of T_k, and dim F_k that of its first k-delta+1
    block columns, delta = deg P: from stage delta on they are C_{k-delta},
    and before it none (F_k = 0). `_read_profile` bounds the stages.
    """
    delta, n = max(P.degree, 0), P.cols
    coeffs = _coeff_arrays(P)[: delta + 1]
    floor = _floor(coeffs, tol_rel)
    for k in itertools.count():
        t = _toeplitz(coeffs, k)
        yield _nullity(t, (k + 1) * n, floor), _nullity(t, max(k - delta + 1, 0) * n, floor)


def _shifted_coeffs(coeffs, z):
    """Taylor coefficient matrices of P at the point z (binomial shift)."""
    n = len(coeffs)
    return [sum(math.comb(i, j) * z ** (i - j) * coeffs[i] for i in range(j, n)) for j in range(n)]


def analyze_float(
    P: MatrixPolynomial, grade: int | None = None, tol_rel: float = DEFAULT_TOL
) -> CompleteEigenstructure:
    """Best-effort floating-point eigenstructure of a skew polynomial.

    Rank, minimal indices and multiplicities at infinity come from one pass
    of numeric Toeplitz nullities (`_stages`) over rev(P, deg P), read by
    `eigenstructure._at_infinity` as the exact ones are. Eigenvalue
    candidates are linearization eigenvalues kept where their local profile
    (the prefix nullities of P's Taylor coefficients there) is possible and
    has a positive multiplicity, reported as NumericRoot annotations.
    Clustered or ill-conditioned spectra can defeat it, and then an
    impossible profile or a structure failing the skew checks raises
    RankVerificationFailed; the exact path is the reference. tol_rel is
    checked once, after the grade.
    """
    skew = as_skew(P)
    if grade is not None:
        skew = skew.with_grade(grade)
    if not 0 < tol_rel < math.inf:  # NaN fails every comparison
        raise ParamDomain(f"tol_rel must be positive and finite, got {tol_rel}")
    grade, m = skew.grade, skew.rows
    coeffs = _coeff_arrays(skew)
    try:
        rho, minimal, infinite = _at_infinity(skew, lambda R: _stages(R, tol_rel))
        last = rho * max(grade, 1) + 1
        # companion eigenvalues with a positive local profile; its order 0 is rank P(z)
        finite: dict = {}
        for z in _eigenvalue_candidates(coeffs):
            shifted = _shifted_coeffs(coeffs, z)
            floor = _floor(shifted, tol_rel)
            local = (_nullity(_toeplitz(shifted, k), (k + 1) * m, floor) for k in range(last + 1))
            try:
                positive = tuple(v for v in multiplicities_from_prefix_dims(local, m - rho, rho) if v)
            except InternalInconsistency:
                continue  # no eigenvalue has an impossible local profile
            if positive:
                finite[NumericRoot(round(z.real, 9), round(z.imag, 9))] = positive
        return CompleteEigenstructure.skew(m, grade, rho, finite, infinite, minimal)
    except InternalInconsistency as exc:
        # an impossible profile or structure here is numeric noise, not a library bug
        raise RankVerificationFailed(f"inconsistent numeric eigenstructure: {exc}") from exc


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
