"""Best achievable rates under a zero-outage requirement.

Each optimizer assumes transmission starts with a full buffer (models with a
partial starting charge are normalized to e_init = e_max; use the feasibility
predicates directly for partial-charge questions), scans the outage-free
parameter family for its constraint, and returns the best capacity together
with the achieving parameters.

The window-constrained optimum is exact while every candidate's state vector
fits the budget; larger candidates fall back to the best known lower bound
and the result is tagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import entropy_ceiling, sandwich_bounds, swc_lower_bound
from .capacity import rll_capacity, sec_capacity, swc_capacity_exact
from .config import DEFAULT_STATE_BUDGET
from .energy import (
    EnergyModel,
    feasible_sec_candidates,
    feasible_swc_candidates,
)


@dataclass(frozen=True)
class OutageResult:
    """Optimal outage-free rate, the parameters achieving it, and the route.

    params is (d,), (t, w) or (length, w) depending on the family, or None
    when no code beats rate zero.  method is "exact" when every candidate was
    evaluated exactly, else "lower-bound".  ceiling is h(max(b, 1/2)).
    """

    value: float
    params: tuple[int, ...] | None
    method: str
    ceiling: float


def o_rll(model: EnergyModel) -> OutageResult:
    """Best run-length rate with zero outages.

    Only d = ceil(b / (1 - b)) matters: smaller d is infeasible and the rate
    strictly drops with d.  Zero when the buffer cannot hold one draw.
    """
    model = model.with_full_buffer()
    ceiling = entropy_ceiling(model.b)
    if model.e_max < model.b:
        return OutageResult(value=0.0, params=None, method="exact", ceiling=ceiling)
    d = math.ceil(model.b / (1 - model.b))
    return OutageResult(
        value=rll_capacity(d).value, params=(d,), method="exact", ceiling=ceiling
    )


def o_swc(model: EnergyModel, state_budget: int = DEFAULT_STATE_BUDGET) -> OutageResult:
    """Best sliding-window rate with zero outages.

    Maximizes the exact window capacity over the outage-free candidate family.
    Candidates whose state vector exceeds the budget contribute their best
    lower bound instead, and the result is then tagged "lower-bound".  Ties go
    to the smallest window.
    """
    model = model.with_full_buffer()
    ceiling = entropy_ceiling(model.b)
    best_value = 0.0
    best_params: tuple[int, ...] | None = None
    fell_back = False
    for t, w in feasible_swc_candidates(model):
        if w == t or (1 << (t - 1)) <= state_budget:
            value = swc_capacity_exact(t, w, state_budget=state_budget).value
        else:
            fell_back = True
            value = max(swc_lower_bound(t, w).value, sandwich_bounds(t, w)[0])
        if best_params is None or value > best_value:
            best_value, best_params = value, (t, w)
    if best_params is None:
        return OutageResult(value=0.0, params=None, method="exact", ceiling=ceiling)
    return OutageResult(
        value=best_value,
        params=best_params,
        method="lower-bound" if fell_back else "exact",
        ceiling=ceiling,
    )


def o_swc_lower_explicit(model: EnergyModel) -> OutageResult:
    """Closed-form window-family lower bound at the single pivot candidate.

    Uses T = ceil(z / (1 - b)) with z = floor(e_max / b) and w = ceil(T * b),
    the longest window the buffer supports at the least admissible weight,
    and bounds its capacity from below without any spectral work.
    """
    model = model.with_full_buffer()
    ceiling = entropy_ceiling(model.b)
    z = math.floor(model.e_max / model.b)
    if z == 0:
        return OutageResult(value=0.0, params=None, method="lower-bound", ceiling=ceiling)
    t = math.ceil(z / (1 - model.b))
    w = math.ceil(t * model.b)
    value = max(swc_lower_bound(t, w).value, sandwich_bounds(t, w)[0])
    return OutageResult(value=value, params=(t, w), method="lower-bound", ceiling=ceiling)


def o_sec(model: EnergyModel) -> OutageResult:
    """Best subblock rate with zero outages, exact over every subblock length.

    The scan stops at the pivot P = ceil(z2 / (1 - b)), z2 = floor(e_max/(2b)):
    from P on the least admissible weight is L - z2, and the rate
    (1/L) log2 S(L), S(L) = sum_{j <= z2} C(L, j), is the running mean of the
    increments log2(2 - C(L, z2)/S(L)), which do not increase with L; so no
    longer subblock beats L = P (full proof in feasible_sec_candidates).
    Ties go to the smallest length.
    """
    model = model.with_full_buffer()
    ceiling = entropy_ceiling(model.b)
    best_value = 0.0
    best_params: tuple[int, ...] | None = None
    for length, w in feasible_sec_candidates(model):
        value = sec_capacity(length, w).value
        if best_params is None or value > best_value:
            best_value, best_params = value, (length, w)
    if best_params is None:
        return OutageResult(value=0.0, params=None, method="exact", ceiling=ceiling)
    return OutageResult(
        value=best_value, params=best_params, method="exact", ceiling=ceiling
    )


def o_sec_lower_explicit(model: EnergyModel) -> OutageResult:
    """Closed-form subblock rate at the pivot length, a guaranteed lower bound.

    Uses L = ceil(z2 / (1 - b)) with z2 = floor(e_max / (2b)) and
    w = ceil(L * b); the pair is always outage-free, so its exact capacity
    bounds the subblock optimum from below.
    """
    model = model.with_full_buffer()
    ceiling = entropy_ceiling(model.b)
    z2 = math.floor(model.e_max / (2 * model.b))
    if z2 == 0:
        return OutageResult(value=0.0, params=None, method="lower-bound", ceiling=ceiling)
    length = math.ceil(z2 / (1 - model.b))
    w = math.ceil(length * model.b)
    return OutageResult(
        value=sec_capacity(length, w).value,
        params=(length, w),
        method="lower-bound",
        ceiling=ceiling,
    )


def gap_report(model: EnergyModel, state_budget: int = DEFAULT_STATE_BUDGET) -> dict:
    """All three outage-free optima side by side, with rate gaps and ceiling."""
    rll = o_rll(model)
    swc = o_swc(model, state_budget=state_budget)
    sec = o_sec(model)
    return {
        "o_rll": rll,
        "o_swc": swc,
        "o_sec": sec,
        "gap_swc_rll": swc.value - rll.value,
        "gap_sec_rll": sec.value - rll.value,
        "ceiling": rll.ceiling,
    }
