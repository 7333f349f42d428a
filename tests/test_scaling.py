"""Scaling identities of the kept cell integrals.

Every basis function is a scaled and shifted copy of one full-node shape
function, so the cell integrals of resolution m follow from those of
m = 1, the down cell from the up cell, and the stiffness of one material
from that of another of equal Poisson ratio.  The identities hold bit for
bit where the scaling is by powers of two, and to roundoff elsewhere.
"""
import numpy as np
import pytest

from triplate import CASES, MRElement, PlateMaterial
from triplate.element import QUADRATURE_DEGREE, _fill_basis
from triplate.geometry import LocalFrame

#: largest |difference| / max |entry| allowed where an identity holds only
#: to roundoff; the registry and random frames read at most 1e-15
ROUNDOFF = 1e-14


def registry_frames():
    """Each distinct (frame shape, material) of the registry models, named
    after the first element that has it."""
    frames = {}
    for name in CASES:
        for e, elem in enumerate(CASES[name].build(2).elements):
            f, mat = elem.frame, elem.material
            frames.setdefault((f.a, f.h, f.b, mat.E, mat.t, mat.nu),
                              (f"{name} element {e}", f, mat))
    return list(frames.values())


def random_frames(count=6, seed=61):
    rng = np.random.default_rng(seed)
    material = PlateMaterial(E=10.92, t=1.0, nu=0.3)
    frames = []
    for i in range(count):
        a, h = rng.uniform(0.3, 2.0, 2)
        frames.append((f"random frame {i}", LocalFrame(a, h, h * rng.uniform(1.0, 5.0)),
                       material))
    return frames


FRAMES = registry_frames() + random_frames()


def integrals(frame, m, material):
    """The kept `CellIntegrals` of an element of the frame, m and material."""
    return _fill_basis([MRElement(frame, m, material)], QUADRATURE_DEGREE)[0]


def relative(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("where, frame, material", FRAMES, ids=[f[0] for f in FRAMES])
class TestScalingIdentities:
    @pytest.mark.parametrize("m", [2, 3, 4, 16, 48])
    def test_resolution(self, where, frame, material, m):
        # at resolution m the up cell is the m = 1 cell shrunk by 1/m: the
        # curvature of a w dof grows by m^2 and of a rotation dof by m, and
        # the cell area shrinks by 1/m^2, so K_m = S K_1 S with
        # S = diag(m, 1, 1) per corner; the load row of w shrinks by 1/m^2
        # and of a rotation dof by 1/m^3
        one, at_m = integrals(frame, 1, material), integrals(frame, m, material)
        S = np.tile([m, 1.0, 1.0], 3)
        K = one.K[0] * S[:, None] * S[None, :]
        f = one.f[0] * np.tile([1.0 / m**2, 1.0 / m**3, 1.0 / m**3], 3)
        if m in (2, 4, 16):
            assert at_m.K[0].tobytes() == K.tobytes()
            assert at_m.f[0].tobytes() == f.tobytes()
        else:
            assert relative(at_m.K[0], K) < ROUNDOFF
            assert relative(at_m.f[0], f) < ROUNDOFF

    @pytest.mark.parametrize("m", [2, 3])
    def test_down_cell_is_point_reflected_up_cell(self, where, frame, material, m):
        # the down cell's corners are the up cell's corners (2, 0, 1)
        # reflected through the centre of their grid square: w keeps its
        # sign, both rotations change theirs
        cells = integrals(frame, m, material)
        corner = np.array([2, 0, 1])
        dofs = (3 * corner[:, None] + np.arange(3)).ravel()
        sign = np.tile([1.0, -1.0, -1.0], 3)
        K = cells.K[0][np.ix_(dofs, dofs)] * sign[:, None] * sign[None, :]
        assert relative(cells.K[1], K) < ROUNDOFF
        assert relative(cells.f[1], cells.f[0][dofs] * sign) < ROUNDOFF

    @pytest.mark.parametrize("m", [1, 3])
    def test_linear_in_rigidity(self, where, frame, material, m):
        # E and t scaled at fixed nu scale D; the load row does not read D
        other = PlateMaterial(E=3.7 * material.E, t=0.6 * material.t, nu=material.nu)
        cells, scaled = integrals(frame, m, material), integrals(frame, m, other)
        ratio = other.rigidity / material.rigidity
        assert relative(scaled.K, ratio * cells.K) < ROUNDOFF
        assert scaled.f.tobytes() == cells.f.tobytes()
