"""Exact simultaneous rational approximation with Farey/mediant machinery.

The package finds fractions p_1/q, ..., p_n/q sharing one denominator that
approximate given targets to within eps*t_i each, while keeping eps*q below
every tolerance weight - so both the error and the denominator stay under
joint control.  All arithmetic is exact; irrational targets enter as
fixed-precision decimal stand-ins (see :mod:`fareyapprox.rationals`).
"""

from .errors import (
    BudgetExceededError,
    EndOfSequenceError,
    FareyApproxError,
    InfeasibleError,
    InternalError,
    InvalidInputError,
)
from .farey import (
    ExactHit,
    FareyPair,
    PropertyCheck,
    PropertyReport,
    farey_neighbors,
    farey_next,
    farey_sequence,
    verify_farey_properties,
)
from .mediants import (
    Subdivision,
    ascending_chain,
    ascending_step_gap,
    ascending_tail_gap,
    descending_chain,
    descending_step_gap,
    descending_tail_gap,
    subdivide,
)
from .rationals import (
    CONSTANT_NAMES,
    DEFAULT_PRECISION,
    format_rational,
    nearest_int_distance,
    parse_rational,
    parse_real,
)
from .simultaneous import (
    DEFAULT_MAX_SCAN,
    CheckReport,
    ComparisonReport,
    ConstraintSet,
    Infeasible,
    ItemCheck,
    Solution,
    ThresholdReport,
    best_numerator,
    brute_force_solve,
    check_solution,
    compare,
    compose_solve,
    dirichlet_solve,
    epsilon_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CONSTANT_NAMES",
    "CheckReport",
    "ComparisonReport",
    "ConstraintSet",
    "DEFAULT_MAX_SCAN",
    "DEFAULT_PRECISION",
    "EndOfSequenceError",
    "ExactHit",
    "FareyApproxError",
    "FareyPair",
    "Infeasible",
    "InfeasibleError",
    "InternalError",
    "InvalidInputError",
    "ItemCheck",
    "PropertyCheck",
    "PropertyReport",
    "Solution",
    "Subdivision",
    "ThresholdReport",
    "ascending_chain",
    "ascending_step_gap",
    "ascending_tail_gap",
    "best_numerator",
    "brute_force_solve",
    "check_solution",
    "compare",
    "compose_solve",
    "descending_chain",
    "descending_step_gap",
    "descending_tail_gap",
    "dirichlet_solve",
    "epsilon_threshold",
    "farey_neighbors",
    "farey_next",
    "farey_sequence",
    "format_rational",
    "nearest_int_distance",
    "parse_rational",
    "parse_real",
    "subdivide",
    "verify_farey_properties",
]
