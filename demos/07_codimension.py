"""Orbit codimension three ways: block sums, closed forms, tangent ranks.

The three computations are independent -- one combinatorial, one a formula
in (n, w, r), one exact linear algebra on the tangent map of the assembled
pencil -- and they must agree. The block sum covers every skew block list,
eigenvalue blocks included; the closed form covers the generic structures.
For polynomials, the closed form sits m(m-1)/2 below the codimension of the
linearized orbit in template space.
"""

from skewstruct import (
    BlockList,
    SkewBlock,
    assemble_skew,
    codim_blocksum,
    codim_pencil_closed,
    codim_poly_generic,
    codim_tangent,
    generic_pencil_structure,
)

print(f"{'(n, w, r)':>12} {'blocksum':>9} {'closed':>7} {'tangent':>8}")
for n, w, r in [(5, 2, 1), (7, 3, 1), (9, 4, 1), (9, 3, 2)]:
    structure = generic_pencil_structure(n, w, r)
    bs = codim_blocksum(structure)
    cf = codim_pencil_closed(n, w, r)
    tg = codim_tangent(assemble_skew(structure))
    print(f"{f'({n}, {w}, {r})':>12} {bs:>9} {cf:>7} {tg:>8}")

print()
print("non-generic block lists (block sum against tangent rank):")
H, K, M = SkewBlock.h, SkewBlock.k, SkewBlock.m
for blocks in [
    [K(2), M(0)],
    [H(2, 0), H(1, 0)],
    [H(1, 0), H(1, 1), M(1)],
    [H(1, 3), K(1), M(0)],
    [M(1), M(1), M(0)],
]:
    structure = BlockList.skew(blocks)
    bs = codim_blocksum(structure)
    tg = codim_tangent(assemble_skew(structure))
    print(f"  {str(structure):<28} {bs:>3} {tg:>3}")

print()
print("polynomial orbit codimensions (value, template-space intermediate):")
for m, d, r in [(7, 2, 2), (5, 2, 2), (3, 2, 1), (5, 4, 1), (5, 3, 1)]:
    pc = codim_poly_generic(m, d, r)
    if d % 2 == 0:
        print(f"  (m={m}, d={d}, r={r}): value {pc.value}, "
              f"template {pc.gsyl} = value + {m * (m - 1) // 2}")
    else:
        print(f"  (m={m}, d={d}, r={r}): value {pc.value} "
              "(odd grade linearizes directly: template equals value)")
