"""Degeneration rules and closure reachability with replayable certificates.

Each rule rewrites a block multiset toward a more generic structure; a rule
sequence from A to B certifies that B's orbit closure contains A's orbit.
The search treats fresh eigenvalues symbolically, so states are compared up
to renaming of the symbols. A "no" needs no search when one Hom dimension
of the source falls below the target's.
"""

import json

from skewstruct import (
    BlockList,
    SkewBlock,
    closure_reachable,
    generic_pencil_structure,
    replay_certificate,
    skew_to_general,
)

# a degenerate 5x5 skew pencil: rank 4, one block at infinity
source = skew_to_general(
    BlockList.skew([SkewBlock.m(0), SkewBlock.h(1, 3), SkewBlock.k(1)])
)
target = skew_to_general(generic_pencil_structure(5, 2, 1))
print(f"source (as strict-equivalence blocks): {source}")
print(f"target (the generic structure)       : {target}")

result = closure_reachable(target, source, max_steps=10)
print()
print(f"search status: {result.status} ({result.states_explored} states explored)")
print("certificate:")
for app in result.certificate:
    print(f"  {json.dumps(app.to_json_dict())}")

final = replay_certificate(source, result.certificate)
print(f"replayed final state: {final}")

# K_2 + 2 M_0 has two blocks at infinity where the generic 6 x 6 rank-4
# structure has four, so dim Hom(E_1(inf), -) refutes it at once
source = BlockList.skew([SkewBlock.k(2), SkewBlock.m(0), SkewBlock.m(0)])
result = closure_reachable(generic_pencil_structure(6, 2, 2), source)
print()
print(f"{source} against {generic_pencil_structure(6, 2, 2)}: {result.status} "
      f"({result.states_explored} state explored)")
print(f"witness: {json.dumps(result.witness.to_json_dict())}")
