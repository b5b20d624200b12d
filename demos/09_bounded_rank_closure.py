"""The paper's theorem on small cases: one orbit closure holds every realized structure.

The bounded-rank set is the closure of the generic orbit. P -> L(pad(P)) is
linear and the generic pencil structure is one congruence orbit, so the
linearization of every bounded-rank polynomial must lie in that orbit's
closure. Low-range draws (`coeff_range=1`, factor entries in {-1, 0, 1})
hit eigenvalues, irrational ones among them. Each draw's pencil structure
is `linearized_structure` of its own at grade d + 1, and each distinct one
is searched against the generic pencil structure. The orbit codimension of
each (the Dmytryshyn-Kågström-Sergeichuk count) exceeds the generic one,
the template-space value of `codim_poly_generic`, unless it is the generic
structure itself. The zero polynomial is left out: at (5, 2, 2) its search
explores 9,495 states, about 0.8 s on a 2-CPU machine. The search time goes
to standard error, so standard output is the same on every run.
"""

import sys
import time

from skewstruct import (
    SampleSpec,
    analyze,
    closure_reachable,
    codim_blocksum,
    codim_poly_generic,
    generic_pencil_structure,
    linearized_structure,
    sample_bounded_rank,
    skew_to_general,
    structure_to_skew_blocks,
)
from skewstruct.degeneration import canonical_key

for m, d, r, seeds in [(3, 2, 1, 300), (5, 2, 2, 100)]:
    sources = {}
    for seed in range(seeds):
        draw = sample_bounded_rank(SampleSpec(m=m, d=d, r=r, coeff_range=1, seed=seed))
        skew = structure_to_skew_blocks(linearized_structure(analyze(draw), d + 1))
        sources.setdefault(canonical_key(skew_to_general(skew)), (seed, skew))
    n, w = m * (d + 1), (m * d + 2 * r) // 2
    target = skew_to_general(generic_pencil_structure(n, w, r))
    gsyl = codim_poly_generic(m, d, r).gsyl
    print(f"(m, d, r) = ({m}, {d}, {r}): {seeds} draws, {len(sources)} distinct structures, "
          f"generic codimension {gsyl}")
    print(f"  {'seed':>4} {'codim':>5} {'status':>6} {'states':>6}  structure")
    start = time.perf_counter()
    for seed, skew in sorted(sources.values(), key=lambda item: codim_blocksum(item[1])):
        result = closure_reachable(target, skew_to_general(skew))
        print(f"  {seed:>4} {codim_blocksum(skew):>5} {result.status:>6} "
              f"{result.states_explored:>6}  {skew}")
    print(f"  searches took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print()
