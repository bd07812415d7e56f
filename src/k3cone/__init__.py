"""Exact chamber geometry for even hyperbolic lattices.

Everything is exact integer arithmetic, and every elimination is
fraction-free.  Signatures come by symmetric congruence reduction, class
enumeration by definite-slice search, cones by the double description
method, chamber walks by reflection, fundamental domains by orbit cuts, and
orbit tables by reduce-and-merge canonicalization.
"""

from .cones import RationalCone, cone_from_inequalities
from .enumeration import (
    check_positive_closure,
    classes_up_to_degree,
    isotropics_up_to_degree,
    rational_isotropic_rays,
    roots_up_to_degree,
    separating_roots,
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
from .lattice import Lattice, primitive_ray, replace
from .orbits import (
    OrbitEntry,
    OrbitTable,
    elliptic_orbits,
    find_isotropic,
    genus_orbits,
    nodal_orbits,
)
from .problem import Problem, parse_problem, serialize_problem, validate_problem
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
from .weyl import Bounds, NefDescription, nef_test, nef_walls, walk_to_nef

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
    "Lattice",
    "NefDescription",
    "NonPositiveAmple",
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
    "elliptic_orbits",
    "exit_code_for",
    "filter_preserving_K",
    "find_isotropic",
    "genus_orbits",
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
    "replace",
    "report_schema",
    "roots_up_to_degree",
    "separating_roots",
    "serialize_problem",
    "sterk_domain",
    "validate_problem",
    "verify_fundamental",
    "verify_generator",
    "walk_to_nef",
]
