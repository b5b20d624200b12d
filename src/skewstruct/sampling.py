"""Random bounded-rank samples, rank-raising perturbations, Monte Carlo runs.

Sampling parametrizes rank-2r skew polynomials as Q^T [[0, B], [-B^T, 0]] Q
with a random polynomial block B and a random constant nonsingular Q: the
inner form has rank 2*rank(B) and constant congruence preserves the complete
eigenstructure. This realizes the generic structure for generic B; no claim
is made that every bounded-rank polynomial arises this way (the Monte Carlo
experiment validates the generic-structure statement, not coverage). Q is
nonsingular, so the draw has rank 2 * rank B(x) at every point x, and a
draw is accepted on the rank of the r x (m-r) block B at its first r*d + 1
points, never on an m x m rank. Only an accepted draw is assembled, in
integers, one coefficient matrix at a time through Y_k = B_k Q[r:], from
the random integers in the order they are drawn (B's entries, then Q), so
a seed gives the same polynomial as the direct product.

The perturbation routine adds (1/k) times a constant skew matrix built from
an exact kernel basis of the polynomial at a point attaining its normal rank,
raising the rank to an exact target while converging to the unperturbed
polynomial at rate 1/k. It works in exact rationals.

Both tools read P at the points 0, 1, -1, 2, ... (`_points`), which no
other module reads, as `P._scaled_value(x, 1)`: the denominator times
P(x), with P(x)'s rank and kernel.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .eigenstructure import CompleteEigenstructure, analyze, same_orbit
from .errors import AttemptsExhausted, InternalInconsistency, ParamDomain
from .exact import (
    FrobeniusDistance,
    MatrixPolynomial,
    SkewMatrixPolynomial,
    as_skew,
    frobenius_distance,
    normal_rank,
    nullspace_exact,
    rank_exact,
)
from .generic import PolyGenericParams, generic_poly_structure, require_ints

DEFAULT_COEFF_RANGE = 9


@dataclass(frozen=True)
class SampleSpec:
    """Parameters of one bounded-rank draw; every bit of randomness is here."""

    m: int
    d: int
    r: int
    coeff_range: int = DEFAULT_COEFF_RANGE
    seed: int = 0

    def __post_init__(self):
        PolyGenericParams.validate(self.m, self.d, self.r)
        require_ints(coeff_range=self.coeff_range, seed=self.seed)
        if self.coeff_range < 1:
            raise ParamDomain("coefficient range must be at least 1")

    def with_seed(self, seed: int) -> "SampleSpec":
        return SampleSpec(self.m, self.d, self.r, self.coeff_range, seed)


MAX_ATTEMPTS = 100  # draws before sample_bounded_rank gives up with AttemptsExhausted


def _points():
    """The integer evaluation points 0, 1, -1, 2, -2, ..., without end."""
    yield 0
    for half in itertools.count(1):
        yield half
        yield -half


def sample_bounded_rank(spec: SampleSpec) -> SkewMatrixPolynomial:
    """Draw a random skew polynomial of size m, grade d, rank exactly 2r.

    Each attempt draws the r x (m-r) block B, d+1 coefficients per entry,
    then the m x m constant C, and resamples until C is nonsingular and B
    has normal rank r (rank deficiency of the random block is the only
    other failure mode, so retries are rare). C is nonsingular, so the draw
    C^T [[0, B], [-B^T, 0]] C has rank 2 * rank B(x) at every point x, and
    its normal rank is 2r exactly when B's is r. An r x r minor of B has
    degree at most r*d, so B is accepted at the first of r*d + 1 points
    where its rank is r, which decides exactly what
    `normal_rank(draw) == 2r` would. The draw is built only once accepted.

    The draws cover a proper subvariety of the bounded-rank set. The exact
    rank of the Jacobian of (B, C) -> C^T [[0, B], [-B^T, 0]] C falls short
    of dim POL(m, d) - codim_poly_generic(m, d, r).value, with dim POL(m, d)
    = m(m-1)/2 * (d+1), by r(r+1)/2 * (d-1). That is measured, not proved:
    at seed 0 the shortfall was 1, 3, 3 and 1 at (m, d, r) = (3,2,1),
    (5,2,2), (5,4,1) and (4,2,1).
    """
    rng = random.Random(spec.seed)
    m, d, r, c = spec.m, spec.d, spec.r, spec.coeff_range
    for _ in range(MAX_ATTEMPTS):
        entries = [[[rng.randint(-c, c) for _ in range(d + 1)] for _ in range(m - r)] for _ in range(r)]
        congruence = [[rng.randint(-c, c) for _ in range(m)] for _ in range(m)]
        if rank_exact(congruence) < m:
            continue
        # entries[a][b][k], regrouped as B's coefficient matrices B_k[a][b]
        block = MatrixPolynomial._make(r, m - r, d, list(zip(*(zip(*row) for row in entries))))
        if any(rank_exact(block._scaled_value(x, 1)) == r for x in itertools.islice(_points(), r * d + 1)):
            return _congruence_product(block, congruence)
    raise AttemptsExhausted(f"no rank-{2 * r} draw in {MAX_ATTEMPTS} attempts")


def _congruence_product(block: MatrixPolynomial, congruence) -> SkewMatrixPolynomial:
    """C^T [[0, B], [-B^T, 0]] C for an integer r x (m-r) polynomial B and integer C.

    With Y_k = B_k C[r:], the r x m product of B's degree-k coefficient and
    the last m-r rows of C, entry (i, j) has the degree-k coefficient
    sum over a < r of C_ai Y_k[a][j] - Y_k[a][i] C_aj: one dot product of
    column i of C[:r] and Y_k, stacked, with column j of Y_k and -C[:r],
    stacked. The upper triangle is formed this way and the lower one is its
    negation, so the result is skew by construction.
    """
    m, r = len(congruence), block.rows
    top = list(zip(*congruence[:r]))  # top[i]: column i of C[:r]
    bottom = list(zip(*congruence[r:]))  # bottom[j]: column j of C[r:]
    negated = [tuple(-v for v in col) for col in top]
    mats = []
    for coeff in block.numerators:
        y = list(zip(*([sum(map(mul, row, col)) for col in bottom] for row in coeff)))  # y[j]: column j of Y_k
        left = [c + w for c, w in zip(top, y)]
        right = [w + c for w, c in zip(y, negated)]
        mat = [[0] * m for _ in range(m)]
        for i in range(m):
            li, row = left[i], mat[i]
            for j in range(i + 1, m):
                row[j] = v = sum(map(mul, li, right[j]))
                mat[j][i] = -v
        mats.append(mat)
    return SkewMatrixPolynomial._make(m, m, block.grade, mats)


@dataclass(frozen=True)
class Perturbation:
    """A rank-raising perturbation P = Q + (1/k) E and its bookkeeping."""

    polynomial: SkewMatrixPolynomial
    perturbation: tuple  # the constant skew matrix E, exact entries
    k: int
    distance: FrobeniusDistance
    base_rank: int
    target_rank: int
    point: Fraction


def perturb_rank_increase(Q: SkewMatrixPolynomial, r: int, k: int) -> Perturbation:
    """Add (1/k) times a constant skew matrix E raising the rank to exactly 2r.

    Let mu be the first point of `_points` where Q attains its normal rank
    2 r1, read off the nullity of the one kernel reduced there. E is built
    in exact rationals from that kernel of Q(mu): the first 2(r - r1)
    vectors of its integer basis are made orthogonal by Gram-Schmidt, and
    each pair (n_a, n_b) of them adds
    (n_a n_b^T - n_b n_a^T) * 2 / (|n_a|^2 + |n_b|^2), so rank E = 2(r - r1).
    Q(mu) is skew, so its range is orthogonal to its kernel, which holds the
    range of E: Q(mu) + E/k acts on the two parts separately and has rank
    2 r1 + rank E = 2r. No point can exceed rank Q + rank E = 2r, so the
    normal rank of Q + E/k is exactly 2r. Each pair adds
    8 |n_a|^2 |n_b|^2 / (|n_a|^2 + |n_b|^2)^2 <= 2 to ||E||_F^2, so the
    perturbed polynomial stays within Frobenius distance
    (1/k) * sqrt(2 (r - r1)) of Q. On the zero polynomial the kernel basis
    is the unit vectors and E is the sum of the unit blocks
    e_1 e_2^T - e_2 e_1^T, e_3 e_4^T - e_4 e_3^T, ...
    """
    skew = as_skew(Q)
    m = skew.rows
    require_ints(r=r, k=k)
    if not 2 * r <= m - 1:
        raise ParamDomain(f"target rank 2r={2 * r} must stay below m={m}")
    if k < 1:
        raise ParamDomain(f"k must be at least 1, got {k}")
    rank_q = normal_rank(skew)
    r1 = rank_q // 2
    if r <= r1:
        raise ParamDomain(f"target half-rank {r} must exceed current {r1}")
    for x in _points():
        kernel = nullspace_exact(value := skew._scaled_value(x, 1))
        if m - len(kernel) == rank_q:
            break
    point = Fraction(x)

    basis = []
    for v in kernel[: 2 * (r - r1)]:
        n = [Fraction(c) for c in v]
        for b in basis:
            f = _dot(n, b) / _dot(b, b)
            n = [c - f * d for c, d in zip(n, b)]
        if any(_dot(row, n) for row in value):
            raise InternalInconsistency(f"kernel vector {n} of Q({point}) is not in its kernel")
        basis.append(n)
    e = [[Fraction(0)] * m for _ in range(m)]
    for a, b in zip(basis[::2], basis[1::2]):
        w = 2 / (_dot(a, a) + _dot(b, b))
        for i in range(m):
            for j in range(m):
                e[i][j] += (a[i] * b[j] - b[i] * a[j]) * w
    e_exact = tuple(map(tuple, e))
    step = MatrixPolynomial.from_coefficients([e_exact], grade=skew.grade).scale(Fraction(1, k))
    perturbed = as_skew(skew + step)

    distance = frobenius_distance(perturbed, skew)
    expected = frobenius_distance(step, MatrixPolynomial.zeros(m, m, skew.grade))
    if distance.squared != expected.squared:
        raise InternalInconsistency("perturbation distance bookkeeping failed")
    return Perturbation(
        polynomial=perturbed,
        perturbation=e_exact,
        k=k,
        distance=distance,
        base_rank=rank_q,
        target_rank=2 * r,
        point=point,
    )


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Monte Carlo genericity experiment
# ---------------------------------------------------------------------------


def trial_seed(seed: int, index: int) -> int:
    """Per-trial seed derived from (seed, trial index)."""
    return seed * 1_000_003 + index


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated Monte Carlo outcome; each mismatch keeps its replay seed and structure."""

    spec: SampleSpec
    trials: int
    matches: int
    mismatches: tuple  # (trial seed, CompleteEigenstructure) per mismatch, in trial order
    expected: CompleteEigenstructure
    elapsed: float = field(compare=False, default=0.0)

    @property
    def mismatch_seeds(self) -> tuple:
        return tuple(seed for seed, _ in self.mismatches)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "matches": self.matches,
            "mismatch_seeds": list(self.mismatch_seeds),
            "mismatches": [
                {"seed": seed, "structure": structure.to_json_dict()} for seed, structure in self.mismatches
            ],
            "expected": self.expected.to_json_dict(),
            "elapsed": self.elapsed,
        }


def monte_carlo_genericity(spec: SampleSpec, trials: int) -> ExperimentReport:
    """Draw, analyze exactly, and compare against the generic structure.

    Deterministic given the spec seed: trial i uses trial_seed(seed, i), and
    every mismatch records that derived seed, which replays the draw, and
    the structure the draw was analyzed to. In exact arithmetic a mismatch means the draw hit a proper algebraic
    subset, so the match rate should be overwhelming.
    """
    require_ints(trials=trials)
    if trials < 1:
        raise ParamDomain(f"trials must be at least 1, got {trials}")
    expected = generic_poly_structure(spec.m, spec.d, spec.r)
    started = time.perf_counter()
    matches = 0
    mismatches = []
    for i in range(trials):
        derived = trial_seed(spec.seed, i)
        draw = sample_bounded_rank(spec.with_seed(derived))
        structure = analyze(draw, spec.d)
        if same_orbit(structure, expected):
            matches += 1
        else:
            mismatches.append((derived, structure))
    return ExperimentReport(
        spec=spec,
        trials=trials,
        matches=matches,
        mismatches=tuple(mismatches),
        expected=expected,
        elapsed=time.perf_counter() - started,
    )
