"""Element stiffness and load vectors of the refinable triangle.

Shows the operator-level properties the assembly relies on: symmetry,
positive semidefiniteness with a 3-dimensional rigid nullspace, the
structural node-coupling pattern (only cell mates couple), and load
vector resultants.

Run: python3 demos/demo_element_matrices.py
"""
import numpy as np

from triplate import (MRElement, PlateMaterial, element_load_point,
                      element_load_uniform, element_stiffness, grid_indices,
                      node_ordinal, node_position)

MATERIAL = PlateMaterial(E=10.92, t=1.0, nu=0.3)


def coupling_map(elem, K):
    """ASCII picture of which node pairs carry a nonzero 3x3 block."""
    nodes = grid_indices(elem.m)
    print("    " + " ".join(f"{node_ordinal(elem.m, j):2d}" for j in nodes))
    for i in nodes:
        row = []
        for j in nodes:
            blk = K[elem.dof_slice(i), elem.dof_slice(j)]
            row.append(" #" if np.abs(blk).max() > 0 else " .")
        print(f" {node_ordinal(elem.m, i):2d} " + "".join(row))


def main():
    elem = MRElement.from_vertices([0.0, 0.0], [1.4, 0.1], [0.3, 1.2],
                                   3, MATERIAL)
    print(f"element: m={elem.m}, {elem.node_count} nodes, "
          f"{elem.dof_count} dofs, D={MATERIAL.rigidity:.6f}")

    K = element_stiffness(elem).toarray()
    print("\n1. stiffness spectrum")
    print(f"  symmetry error |K - K^T|_max = {np.abs(K - K.T).max():.2e}")
    w = np.linalg.eigvalsh(K)
    print(f"  smallest 5 eigenvalues: "
          + " ".join(f"{v:+.2e}" for v in w[:5]))
    print(f"  largest eigenvalue: {w[-1]:.2e}")
    print(f"  near-zero modes (rigid body: 1 translation + 2 rotations): "
          f"{np.sum(w < 1e-9 * w[-1])}")

    # a rigid displacement w = a + b x + c y must cost no energy
    a, b, c = 0.7, -0.4, 1.1
    d = np.zeros(elem.dof_count)
    for idx in grid_indices(elem.m):
        x, y = node_position(elem.frame, elem.m, idx)
        k = 3 * node_ordinal(elem.m, idx)
        d[k:k + 3] = (a + b * x + c * y, c, -b)
    print(f"  |K d_rigid|_max = {np.abs(K @ d).max():.2e}")

    print("\n2. structural coupling pattern (node-by-node 3x3 blocks)")
    print("  nodes that do not share a refinement cell have exact zero")
    print("  blocks; the grid ordering makes the band visible:")
    coupling_map(elem, K)

    print("\n3. load vectors")
    q = 2.0
    f = element_load_uniform(elem, q)
    print(f"  uniform q={q}: sum of w-components {f[0::3].sum():.12f}"
          f" vs q*A = {q * elem.frame.area:.12f}")
    idx = (1, 1)
    p = node_position(elem.frame, elem.m, idx)
    fp = element_load_point(elem, 3.5, p)
    k = 3 * node_ordinal(elem.m, idx)
    print(f"  point load P=3.5 at node {idx}: f[{k}] = {fp[k]:.6f}, "
          f"|other| <= {np.abs(np.delete(fp, k)).max():.2e}")


if __name__ == "__main__":
    main()
