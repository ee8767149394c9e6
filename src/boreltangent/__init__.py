"""Strongly stable monomial ideals and Hilbert-scheme tangent spaces.

Enumerate the strongly stable (Borel-fixed) monomial ideals of a given
colength, compute the tangent-space dimension T(I) = dim Hom(I, R/I) at
each by two independent exact algorithms, and run the colength-scale scans
behind the T_max tables and the monotonicity / necessary-condition /
tetrahedral-maximum checks.

Convention: x1 is the Borel-dominant variable, so pure-power exponents of
a strongly stable Artinian ideal satisfy m_1 <= m_2 <= ... <= m_N.

The names below are the documented API, with every exception or warning
class a public call raises; everything else is importable from its module.
"""

from .enumeration import (
    EnumerationLimitError,
    EnumFilter,
    count_strongly_stable,
    enumerate_strongly_stable,
)
from .monomials import (
    DimensionMismatchError,
    IdealSyntaxError,
    InvalidStaircaseError,
    MonomialIdeal,
    NonArtinianIdealError,
    RedundantGeneratorWarning,
    StandardSet,
    UnknownVariableError,
    colength,
    format_ideal,
    ideal_to_json,
    is_strongly_stable,
    minimal_generators,
    parse_ideal,
    pure_power_profile,
    standard_set,
)
from .region3d import (
    UnsupportedDimensionError,
    region_component_count,
    region_slice,
)
from .scan import (
    BudgetExceededError,
    WorkerLostError,
    check_monotonicity,
    check_necessary_condition,
    check_tetrahedral_max,
    reproduce_published_table,
    scan_colength,
    scan_colength_range,
)
from .tangent import (
    OracleSizeError,
    VerificationError,
    alpha_support_box,
    constraint_rank,
    graded_dimension,
    tangent_dimension,
    tangent_dimension_oracle,
    verify_tangent,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DimensionMismatchError",
    "EnumFilter",
    "EnumerationLimitError",
    "IdealSyntaxError",
    "InvalidStaircaseError",
    "MonomialIdeal",
    "NonArtinianIdealError",
    "OracleSizeError",
    "RedundantGeneratorWarning",
    "StandardSet",
    "UnknownVariableError",
    "UnsupportedDimensionError",
    "VerificationError",
    "WorkerLostError",
    "alpha_support_box",
    "check_monotonicity",
    "check_necessary_condition",
    "check_tetrahedral_max",
    "colength",
    "constraint_rank",
    "count_strongly_stable",
    "enumerate_strongly_stable",
    "format_ideal",
    "graded_dimension",
    "ideal_to_json",
    "is_strongly_stable",
    "minimal_generators",
    "parse_ideal",
    "pure_power_profile",
    "region_component_count",
    "region_slice",
    "reproduce_published_table",
    "scan_colength",
    "scan_colength_range",
    "standard_set",
    "tangent_dimension",
    "tangent_dimension_oracle",
    "verify_tangent",
]
