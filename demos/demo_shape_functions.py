"""Anatomy of the hexagon-supported nodal basis.

Walks through one refinable triangle: where a node's support sits, the
interpolation conditions the basis triple satisfies, partition of unity,
and the refinement-span diagnostic showing which scale pairs nest.

Run: python3 demos/demo_shape_functions.py
"""
import numpy as np

from triplate import (HexDomain, basis_eval, canonicalize_triangle,
                      classify_points, grid_indices, nesting_residual,
                      node_ordinal, node_position)


def support_census(frame, n=40000, seed=0):
    """Monte Carlo share of the node-centered hexagon per sub-domain."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.2, 1.2, size=(n, 2)) * [frame.a, frame.a]
    doms = classify_points(pts, frame)
    cell = 2.4 * frame.a * 2.4 * frame.a / n
    for dom in HexDomain:
        share = np.count_nonzero(doms == dom.value) * cell
        print(f"  {dom.name:<8} area ~ {share:8.4f}")
    print(f"  hexagon total should be 6 x cell area = {6 * frame.area:.4f}"
          f" at m=1")


def main():
    frame = canonicalize_triangle([0.0, 0.0], [1.3, 0.0], [0.4, 1.1])
    print("frame: a=%.4f h=%.4f b=%.4f area=%.4f"
          % (frame.a, frame.h, frame.b, frame.area))

    print("\n1. support: the full-node function lives on six sub-domains")
    support_census(frame)

    m = 3
    nodes = grid_indices(m)
    pos = np.array([node_position(frame, m, idx) for idx in nodes])
    pick = (1, 1)
    k = node_ordinal(m, pick)

    print(f"\n2. interpolation conditions at resolution m={m}, "
          f"node {pick} (ordinal {k})")
    triple = basis_eval(frame, m, pick, pos)
    print("  w values at the 10 grid nodes (should be a Kronecker row):")
    print("  " + " ".join(f"{v:+.1e}" for v in triple.w.value))
    print("  thx d/dy at the grid nodes (again a Kronecker row):")
    print("  " + " ".join(f"{v:+.1e}" for v in triple.thx.grad[:, 1]))
    print("  thy d/dx at the grid nodes (minus a Kronecker row):")
    print("  " + " ".join(f"{v:+.1e}" for v in triple.thy.grad[:, 0]))

    print("\n3. partition of unity of the deflection functions")
    rng = np.random.default_rng(7)
    lam = rng.dirichlet([2.0, 2.0, 2.0], size=5)
    pts = lam @ frame.local_vertices()
    total = sum(basis_eval(frame, m, idx, pts).w.value for idx in nodes)
    print("  sum of all w functions at 5 random interior points:")
    print("  " + " ".join(f"{v:.12f}" for v in total))

    print("\n4. refinement-span diagnostic (weighted-L2 projection residual,")
    print("  integrated exactly by a degree-6 rule)")
    print("  component w, scale m -> 2m:")
    for m0 in (1, 2):
        r = nesting_residual(frame, m0, (0, 0), component="w")
        note = "nested" if r < 1e-10 else "not nested"
        print(f"  m={m0} -> {2 * m0}: residual {r:.3e}  ({note})")
    print("  only the coarsest pair nests exactly; finer spans are close")
    print("  but not contained, which is why the solver re-forms element")
    print("  matrices per scale instead of reusing coarse factors.")


if __name__ == "__main__":
    main()
