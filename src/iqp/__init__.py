"""Imprecise-probability toolkit for finite quantum trajectory spaces.

Represents a finite-dimensional quantum system as a set of probability
measures over its trajectory space, constrained by Born marginal pins and by
wave-packet typicality rows, and answers feasibility and lower/upper
probability queries with a self-contained LP solver.
"""

from .credal import (
    BoundsResult,
    ConstraintSet,
    FarkasCertificate,
    FeasibilityCertificate,
    LinearConstraint,
    TrajectoryMeasure,
    born_constraints,
    born_product_witness,
    feasibility,
    huber_check,
    lower_bound_constraints,
    lower_upper,
    merge_constraint_sets,
    qtr_constraints,
    qtr_variant_constraints,
    sample_vertex_measures,
    verify_farkas,
    verify_witness,
)
from .events import (
    Event,
    ParseError,
    TrajectorySpace,
    event_probability,
    parse_event,
    parse_expr,
    sset_event,
)
from .lp import SimplexFailure, solve_lp
from .scenarios import (
    BUILTIN_SCENARIOS,
    ConfigError,
    ScenarioConfig,
    build_constraints,
    build_system,
    config_hash,
    config_json,
    enumerate_pairs,
    load_config,
    parse_config,
    singleton_family,
)
from .system import QuantumSystem, Region, SSet, SSetState
from .typicality import (
    Branch,
    BranchStats,
    TypicalityReport,
    W11Report,
    branch_stats,
    cross_time_bound,
    make_branch,
    mutual_typicality,
    qtr_predicate,
    typicality_report,
    verify_w11,
    w11_measures,
)

__version__ = "0.1.0"
