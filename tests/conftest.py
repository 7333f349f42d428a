"""Shared fixtures for the triplate test suite."""
import numpy as np
import pytest

import triplate.element
import triplate.shapefn
from triplate import (MRElement, PlateMaterial, canonicalize_triangle,
                      subtriangle_partition)
from triplate.geometry import partition_corners


@pytest.fixture
def rng():
    return np.random.default_rng(20250817)


@pytest.fixture
def unit_material():
    """Benchmark material with bending rigidity exactly 1."""
    return PlateMaterial(E=10.92, t=1.0, nu=0.3)


def random_triangle(rng, span=2.0, min_area=0.4):
    """Well-shaped random triangle vertices, (3, 2)."""
    while True:
        verts = rng.uniform(-span, span, (3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) > 2.0 * min_area:
            return verts


def partition_cells(frame, m):
    """(vertices (3, 2), corner grid indices, down) of every cell, in
    partition order, read from `subtriangle_partition` and
    `partition_corners`."""
    corners, down = partition_corners(m)
    return list(zip(subtriangle_partition(frame, m),
                    [tuple(map(tuple, c)) for c in corners.tolist()],
                    down.tolist()))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The domain count of each basis-kernel call (`shapefn._eval_triangles`)
    made from here on, in call order."""
    calls = []
    original = triplate.shapefn._eval_triangles

    def counting(domains, *args, **kwargs):
        calls.append(len(domains[3]))
        return original(domains, *args, **kwargs)

    monkeypatch.setattr(triplate.shapefn, "_eval_triangles", counting)
    return calls


@pytest.fixture
def empty_integral_table():
    """Empties the cell-integral table (`element._integral_table`), so that
    a test sees the kernel calls of a process that has filled nothing."""
    triplate.element._integral_table.clear()


@pytest.fixture
def random_frame_factory(rng):
    def make():
        return canonicalize_triangle(*random_triangle(rng))
    return make


@pytest.fixture
def element_factory(rng, unit_material):
    def make(m=2, verts=None):
        if verts is None:
            verts = random_triangle(rng)
        return MRElement.from_vertices(*verts, m, unit_material)
    return make
