"""Multiresolution triangular thin-plate bending elements.

A Kirchhoff plate bending library built on one refinable triangular
element: a single triangle carries a full grid of (m+1)(m+2)/2 nodes with
three dofs each (deflection and two rotations), and its shape functions
are scaled translates of one full-node basis on a hexagonal support.
Restricted to any refinement cell they reproduce the conventional cubic
plate triangle exactly, so a coarse multi-element model assembles the
same equations as the matching fine conventional mesh.  The ``oracle``
module turns that statement into a runtime check.
"""
from .assembly import (BCKind, BoundaryCondition, GlobalSystem, Model,
                       apply_boundary_conditions, assemble)
from .bench import (CASES, UNIT_RIGIDITY_MATERIAL, BenchmarkCase, ProbeSpec,
                    benchmark_case, rl_label, run_benchmark, run_case)
from .element import (MRElement, PlateMaterial, bending_rigidity,
                      element_load_point, element_load_uniform,
                      element_stiffness)
from .errors import (CollinearVertices, ConfigError, DimensionMismatch,
                     EmptyEdge, IndexOutOfGrid, NodeMismatch, NoValidLabeling,
                     NotConverged, OutsideDomain, OutsideElement,
                     OutsideModel, PermutationNotFound, QuadratureFailure,
                     SingularSystem, TriplateError, UnknownCase)
from .geometry import (HexDomain, LocalFrame, barycentric,
                       canonicalize_triangle, classify_points, grid_indices,
                       grid_size, hexagon_domain_of, node_ordinal,
                       node_position, subtriangle_partition)
from .oracle import (EquivalenceReport, MonoModel, build_equivalent_mono,
                     equivalence_check)
from .quadrature import integrate_on_triangle, triangle_rule
from .shapefn import (BasisTriple, basis_eval, full_node_eval,
                      nesting_residual, split_shape_eval, subtriangle_basis)
from .solve import (MomentTriple, Solution, field_eval, moment_eval,
                    normalize_coefficient, reactions, solve_system)

__version__ = "0.1.0"

__all__ = [
    "BCKind", "BoundaryCondition", "GlobalSystem", "Model",
    "apply_boundary_conditions", "assemble",
    "CASES", "UNIT_RIGIDITY_MATERIAL", "BenchmarkCase", "ProbeSpec",
    "benchmark_case", "rl_label", "run_benchmark", "run_case",
    "MRElement", "PlateMaterial", "bending_rigidity", "element_load_point",
    "element_load_uniform", "element_stiffness",
    "CollinearVertices", "ConfigError", "DimensionMismatch", "EmptyEdge",
    "IndexOutOfGrid", "NodeMismatch", "NoValidLabeling", "NotConverged",
    "OutsideDomain", "OutsideElement", "OutsideModel", "PermutationNotFound",
    "QuadratureFailure", "SingularSystem", "TriplateError", "UnknownCase",
    "HexDomain", "LocalFrame", "barycentric",
    "canonicalize_triangle", "classify_points", "grid_indices", "grid_size",
    "hexagon_domain_of", "node_ordinal", "node_position",
    "subtriangle_partition",
    "EquivalenceReport", "MonoModel", "build_equivalent_mono",
    "equivalence_check",
    "integrate_on_triangle", "triangle_rule",
    "BasisTriple", "basis_eval", "full_node_eval", "nesting_residual",
    "split_shape_eval", "subtriangle_basis",
    "MomentTriple", "Solution", "field_eval", "moment_eval",
    "normalize_coefficient", "reactions", "solve_system",
    "__version__",
]
