"""The patch test (Irons): boundary dofs from a quadratic deflection, the
interior solved from K with no load, against that quadratic.

The element is the BCIZ non-conforming cubic (Bazeley et al., 1965).  It
reproduces a quadratic w exactly only on meshes made of three families of
parallel lines (Irons & Razzaque, 1972).  The square and the rhombus
are two elements of one three-direction grid, so the solved interior
matches to roundoff.  The two elements of the circle quadrant meet along
their diagonal with grids of different directions, so the test fails
there.  Its largest interior error shrinks with m instead, about as h:
2.5e-3, 6.6e-4 and 3.3e-4 of the largest |dof| at m = 4, 16 and 32 for
the quadratic of seed 5 (on the square and the rhombus at most 7e-14).
"""
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from triplate import CASES, assemble
from triplate.assembly import _segment_distance


def outer_nodes(system) -> np.ndarray:
    """Nodes on an element side that no other element shares."""
    sides = Counter()
    for elem in system.model.elements:
        v = np.round(elem.frame.global_vertices(), 12)
        for i in range(3):
            sides[frozenset(map(tuple, (v[i], v[(i + 1) % 3])))] += 1
    on = np.zeros(system.n_nodes, dtype=bool)
    for side, count in sides.items():
        if count == 1:
            p1, p2 = map(np.array, side)
            on |= _segment_distance(system.node_coords, p1, p2) <= system.merge_tol
    return np.flatnonzero(on)


def patch_error(name: str, m: int, rng) -> float:
    """Largest interior dof error, relative to the largest |dof|, with the
    outer nodes holding (w, thx = dw/dy, thy = -dw/dx) of a random quadratic
    w and the interior solved from K."""
    model = CASES[name].build(m)
    model.uniform_q = 0.0
    system = assemble(model)
    c = rng.uniform(-1.0, 1.0, 6)
    x, y = system.node_coords.T
    exact = np.stack([c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y,
                      c[2] + c[4] * x + 2.0 * c[5] * y,
                      -(c[1] + 2.0 * c[3] * x + c[4] * y)], axis=1).ravel()
    fixed = np.zeros(system.n_dofs, dtype=bool)
    fixed[(3 * outer_nodes(system)[:, None] + np.arange(3)).ravel()] = True
    free = ~fixed
    K = system.K.tocsc()
    interior = spla.spsolve(K[free][:, free], -(K[free][:, fixed] @ exact[fixed]))
    return float(np.abs(interior - exact[free]).max() / np.abs(exact).max())


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("name", ["square-ss", "skew-60"])
def test_three_direction_models_pass_exactly(name, m):
    assert patch_error(name, m, np.random.default_rng(5)) <= 1e-12


def test_circle_quadrant_error_shrinks_with_m():
    errors = [patch_error("circle-ss", m, np.random.default_rng(5)) for m in (4, 16, 32)]
    assert errors[0] > errors[1] > errors[2] > 0.0
    assert errors[0] > 1e-4
