"""Exact chamber geometry for even hyperbolic lattices.

Everything is exact integer arithmetic, and row elimination is fraction-free;
Fractions remain only in the ratios of the symmetric reduction
(``linalg.ldl``).  Signatures come by symmetric congruence
reduction, class enumeration by definite-slice search, cones by the double
description method, chamber walks by reflection, fundamental domains by orbit
cuts, and orbit tables by reduce-and-merge canonicalization.
"""

from .cones import (
    RationalCone,
    cone_from_inequalities,
    contains,
    interiors_disjoint,
    intersection,
    transform_cone,
)
from .enumeration import (
    check_positive_closure,
    classes_up_to_degree,
    isotropics_up_to_degree,
    rational_isotropic_rays,
    roots_up_to_degree,
    separating_degree_bound,
    separating_roots,
    vectors_norm_degree,
)
from .errors import (
    AmpleOnWall,
    BadPrime,
    BrokenInvariant,
    CoverageFailure,
    Degenerate,
    DegenerateBasis,
    DimensionMismatch,
    GeneratorRejected,
    GeometryError,
    NonPositiveAmple,
    NotAnIsometry,
    NotARoot,
    NotUnimodular,
    OddLattice,
    OppositeCone,
    OutsidePositiveCone,
    ProblemFormatError,
    UnboundedQuery,
    WrongSignature,
    ZeroVector,
)
from .groups import (
    GeneratorReport,
    GroupGenerators,
    SupersingularDatum,
    build_group,
    filter_preserving_K,
    preserves_K,
    verify_generator,
)
from .lattice import Isometry, Lattice, primitive_ray, reflection_matrix, validate_problem
from .orbits import (
    OrbitEntry,
    OrbitTable,
    elliptic_orbits,
    find_isotropic,
    genus_orbits,
    nodal_orbits,
)
from .problem import Problem, parse_problem, serialize_problem
from .report import SCHEMA_VERSION, build_report, exit_code_for, report_schema
from .sterk import (
    FundamentalCertificate,
    OrbitCut,
    SterkDomain,
    orbit_of_ample,
    reduce_to_domain,
    sterk_domain,
    verify_fundamental,
)
from .weyl import Bounds, NefDescription, nef_test, nef_walls, walk_to_nef, word_isometry

__version__ = "0.1.0"

__all__ = [
    "AmpleOnWall",
    "BadPrime",
    "Bounds",
    "BrokenInvariant",
    "CoverageFailure",
    "Degenerate",
    "DegenerateBasis",
    "DimensionMismatch",
    "FundamentalCertificate",
    "GeneratorReport",
    "GeneratorRejected",
    "GeometryError",
    "GroupGenerators",
    "Isometry",
    "Lattice",
    "NefDescription",
    "NonPositiveAmple",
    "NotARoot",
    "NotAnIsometry",
    "NotUnimodular",
    "OddLattice",
    "OppositeCone",
    "OrbitCut",
    "OrbitEntry",
    "OrbitTable",
    "OutsidePositiveCone",
    "Problem",
    "ProblemFormatError",
    "RationalCone",
    "SCHEMA_VERSION",
    "SterkDomain",
    "SupersingularDatum",
    "UnboundedQuery",
    "WrongSignature",
    "ZeroVector",
    "build_group",
    "build_report",
    "check_positive_closure",
    "classes_up_to_degree",
    "cone_from_inequalities",
    "contains",
    "elliptic_orbits",
    "exit_code_for",
    "filter_preserving_K",
    "find_isotropic",
    "genus_orbits",
    "interiors_disjoint",
    "intersection",
    "isotropics_up_to_degree",
    "nef_test",
    "nef_walls",
    "nodal_orbits",
    "orbit_of_ample",
    "parse_problem",
    "preserves_K",
    "primitive_ray",
    "rational_isotropic_rays",
    "reduce_to_domain",
    "reflection_matrix",
    "report_schema",
    "roots_up_to_degree",
    "separating_degree_bound",
    "separating_roots",
    "serialize_problem",
    "sterk_domain",
    "transform_cone",
    "validate_problem",
    "vectors_norm_degree",
    "verify_fundamental",
    "verify_generator",
    "walk_to_nef",
    "word_isometry",
]
