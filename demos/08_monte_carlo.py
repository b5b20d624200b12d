"""Monte Carlo check that random bounded-rank draws land in the generic orbit.

Draws are analyzed in exact arithmetic, so a mismatch is not noise: it means
the draw hit a proper algebraic subset (a measure-zero event that a finite
integer coefficient lattice makes merely very rare). Mismatch seeds are
recorded and replayable. The trial time goes to standard error, so standard
output is the same on every run.
"""

import sys

from skewstruct import SampleSpec, monte_carlo_genericity, perturb_rank_increase
from skewstruct.exact import SkewMatrixPolynomial

for m, d, r in [(4, 2, 1), (5, 2, 2)]:
    spec = SampleSpec(m=m, d=d, r=r, coeff_range=9, seed=7)
    report = monte_carlo_genericity(spec, trials=40)
    expected = sorted(report.expected.left_minimal, reverse=True)
    print(f"(m={m}, d={d}, r={r}): {report.matches}/{report.trials} draws generic "
          f"(expected minimal indices {expected})")
    print(f"  trials took {report.elapsed:.1f} s", file=sys.stderr)
    if report.mismatch_seeds:
        print(f"  mismatch seeds for replay: {list(report.mismatch_seeds)}")

print()
print("rank-raising perturbations of the zero polynomial (distance is exact):")
base = SkewMatrixPolynomial.zeros(5, 5, grade=2)
for k in (1, 10, 100):
    result = perturb_rank_increase(base, r=2, k=k)
    print(f"  k={k:>3}: rank {result.base_rank} -> {result.target_rank}, "
          f"distance^2 = {result.distance.squared} (= 4/k^2)")
