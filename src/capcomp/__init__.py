"""Capacities and outage-avoidance analysis for constrained binary codes."""

from .bounds import entropy_ceiling, sandwich_bounds, swc_lower_bound
from .capacity import (
    CapacityResult,
    binary_entropy,
    rll_capacity,
    sec_capacity,
    sec_one_zero_capacity,
    swc_capacity_exact,
    swc_capacity_growth,
)
from .constraints import (
    RLL,
    SEC,
    SWC,
    ConstraintSpec,
    adversarial_sequence,
    count_exact,
    enumerate_sequences,
    satisfies,
    sets_equal,
)
from .energy import (
    EnergyModel,
    SimTrace,
    feasible_sec_candidates,
    feasible_swc_candidates,
    outage_occurs,
    parse_rational,
    preamble_length,
    rll_feasible,
    sec_feasible,
    simulate,
    swc_feasible,
)
from .errors import NoWitnessError, ResourceLimitError
from .outage import (
    OutageResult,
    gap_report,
    o_rll,
    o_sec,
    o_sec_lower_explicit,
    o_swc,
    o_swc_lower_explicit,
)
from .verify import Check, run_suite

__version__ = "0.1.0"

__all__ = [
    "CapacityResult",
    "Check",
    "ConstraintSpec",
    "EnergyModel",
    "NoWitnessError",
    "OutageResult",
    "ResourceLimitError",
    "RLL",
    "SEC",
    "SWC",
    "SimTrace",
    "adversarial_sequence",
    "binary_entropy",
    "count_exact",
    "entropy_ceiling",
    "enumerate_sequences",
    "feasible_sec_candidates",
    "feasible_swc_candidates",
    "gap_report",
    "o_rll",
    "o_sec",
    "o_sec_lower_explicit",
    "o_swc",
    "o_swc_lower_explicit",
    "outage_occurs",
    "parse_rational",
    "preamble_length",
    "rll_capacity",
    "rll_feasible",
    "run_suite",
    "sandwich_bounds",
    "satisfies",
    "sec_capacity",
    "sec_feasible",
    "sec_one_zero_capacity",
    "sets_equal",
    "simulate",
    "swc_capacity_exact",
    "swc_capacity_growth",
    "swc_feasible",
    "swc_lower_bound",
    "__version__",
]
