"""Best achievable rates under a zero-outage requirement.

Each optimizer assumes transmission starts with a full buffer (models with a
partial starting charge are normalized to e_init = e_max; use the feasibility
predicates directly for partial-charge questions), scans the outage-free
parameter family for its constraint, and returns the best capacity together
with the achieving parameters.

With a full buffer, the window optimum depends on E_max only through
z = floor(E_max / B), and the subblock optimum only through
z2 = floor(E_max / (2B)) (proofs in o_swc and o_sec).  Each is computed once
per (B, z) or (B, z2), on the canonical model whose buffer holds exactly
that many draws, and cached; a rate-vs-buffer sweep thus repeats no scan.

The window-constrained optimum rates each candidate by capacity.swc_capacity
wherever that has an exact route: a root for the one-zero window (T, T - 1)
and the one-one window (T, 1) at any length, so o_swc is never below o_rll
(proof in o_swc), and the spectral solve for a window whose state vector
fits the budget.  Other candidates fall back to the best known lower bound
and the result is tagged accordingly.  Each zero count T - w is rated
exactly once, at its shortest window that is rated exactly: a longer window
with the same zero count has a strictly smaller capacity (proof in o_swc),
so it is never the argmax and is dropped from the candidate stream, neither
solved nor, past the budget, bounded.  A zero count z that is only bounded
is bounded at every window up to length (DEFAULT_M_MAX + 1) * z, and past
that length only at its first window, as the bound does not increase there;
its later windows are dropped from the candidate stream (proof in o_swc).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .bounds import DEFAULT_M_MAX, entropy_ceiling, sandwich_bounds, swc_lower_bound
from .capacity import (
    DEFAULT_STATE_BUDGET,
    CapacityResult,
    _has_exact_route,
    rll_capacity,
    sec_capacity,
    swc_capacity,
)
from .energy import (
    EnergyModel,
    _pivot,
    _zeros,
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


def _best(model: EnergyModel, candidates: Iterable, rate: Callable) -> OutageResult:
    """The candidate with the highest rate, the first one on ties.

    rate(*params) returns the candidate's CapacityResult: its value is the
    rate, and it is exact unless its method is "lower-bound".  The result is
    tagged "lower-bound" when any candidate's rate was only bounded.  A code
    must beat rate zero to be reported, so with no such candidate params is
    None.
    """
    best_value, best_params, exact = 0.0, None, True
    for params in candidates:
        result = rate(*params)
        exact = exact and result.method != "lower-bound"
        if result.value > best_value:
            best_value, best_params = result.value, params
    return OutageResult(
        value=best_value,
        params=best_params,
        method="exact" if exact else "lower-bound",
        ceiling=entropy_ceiling(model.b),
    )


def _at_pivot(model: EnergyModel, z: int, rate: Callable) -> OutageResult:
    """The rate at the pivot T = ceil(z / (1 - b)) and w = ceil(T * b), as a lower bound.

    There z <= T(1 - b) < z + 1, so ceil(T * b) = T - z: the pair is the last
    candidate of the family's scan, the longest span the buffer supports at
    the least admissible weight.  It is always outage-free, and for z >= 1
    its weight is below T, so its rate is positive and _best keeps it.
    """
    t = _pivot(model, z)
    candidates = [(t, t - z)] if z else []
    return replace(_best(model, candidates, rate), method="lower-bound")


def o_rll(model: EnergyModel) -> OutageResult:
    """Best run-length rate with zero outages.

    Only d = ceil(b / (1 - b)) matters: smaller d is infeasible and the rate
    strictly drops with d.  Zero when the buffer cannot hold one draw.
    """
    candidates = [(math.ceil(model.b / (1 - model.b)),)] if model.e_max >= model.b else []
    return _best(model, candidates, rll_capacity)


def _swc_fallback(t: int, w: int) -> CapacityResult:
    """The best window-capacity lower bound that needs no spectral solve."""
    value = max(swc_lower_bound(t, w).value, sandwich_bounds(t, w)[0])
    return CapacityResult(value=value, method="lower-bound")


def _swc_rate(t: int, w: int, state_budget: int) -> CapacityResult:
    """The window's exact capacity where swc_capacity has a route for it, else its fallback."""
    if _has_exact_route(t, w, state_budget):
        return swc_capacity(t, w, state_budget)
    return _swc_fallback(t, w)


def o_swc(model: EnergyModel, state_budget: int = DEFAULT_STATE_BUDGET) -> OutageResult:
    """Best sliding-window rate with zero outages.

    Maximizes the exact window capacity over the outage-free candidate family.
    Each candidate is rated by capacity.swc_capacity where that has an exact
    route: a one-zero window by its run-length root, and a one-one window
    (T, 1), T >= 3, by its zero-run root, whatever the budget (proofs in
    swc_capacity).  Other candidates whose state vector exceeds the budget,
    or whose length is over the solve's limit of 63, contribute their best
    lower bound instead, and the result is then tagged "lower-bound".  Ties
    go to the smallest window.  Each zero count z = T - w is rated exactly
    only at its shortest candidate that is rated exactly; the longer ones
    with the same z cannot win and are dropped from the candidate stream,
    also past the budget.  A zero count that is only bounded is bounded once
    past T = (DEFAULT_M_MAX + 1) * z.

    Proof that the optimum depends on the model only through (b, z),
    z = floor(e_max / b).  With e_init = e_max and T - w an integer,
    (T - w) * b <= e_max holds exactly when T - w <= z.  So the pivot
    ceil(z / (1 - b)), every candidate weight max(ceil(T * b), T - z), every
    swc_feasible test, every rate and the ceiling h(max(b, 1/2)) are those
    of the canonical full-buffer model with e_max = z * b, and _o_swc runs
    the scan once per (b, z, state_budget).

    Proof that a longer window with the same zero count cannot win.  Let
    T' < T share the zero count z.  For z = 0 both rates are zero.  For
    z >= 1, every length-T' window lies inside a length-T window, so a
    sequence with at most z zeros in every T-window has at most z in every
    T'-window: the (T, T - z) shift lies inside the (T', T' - z) shift.  It
    lies strictly inside: ...1 0^z 1^(T'-z) 0 1... is in the T' shift, but a
    T-window holds all z + 1 of its zeros.  The (T', T' - z) class graph is
    irreducible (proved in _swc_spectral), so its proper subshift has
    strictly smaller entropy (Lind-Marcus, Cor. 4.4.9): C(T, T - z) <
    C(T', T' - z).  The scan visits T in ascending order and marks a zero
    count only once one of its windows is rated exactly, by a root or a
    solve; so when a longer window finds its zero count marked, a shorter
    one was rated exactly first, with a positive rate.  _best keeps the
    first candidate on ties, so dropping the longer window from the
    candidate stream changes neither the value nor the params, and ties
    still go to the smallest window.  The same holds for a longer window
    past the budget: its fallback bound is at most C(T, T - z) <
    C(T', T' - z), a rate already rated exactly, so it can neither win nor
    make the optimum inexact, and it is dropped from the candidate stream,
    unbounded.  Up to T = (DEFAULT_M_MAX + 1) * z, a fallback candidate
    whose zero count has not been rated exactly is rated by its bound: the
    bounds are not monotone in T there, so skipping one could lower the
    reported bound.

    Proof that past T = (DEFAULT_M_MAX + 1) * z only the first fallback of
    each zero count z can matter.  swc_lower_bound's split m is used when
    ceil(w/m) <= floor(T/(m+1)), which needs (m+1) w <= m T, that is
    (m+1)(T - z) <= m T, or T <= (m+1) z; so no split m <= DEFAULT_M_MAX is
    used past that length, and the fallback is the larger of
    sec(T - 1, T - 1 - floor(z/2)) and T/(2T - z) * sec(T, T - z), with
    sec the subblock capacity.  Each sec(L, L - k) with k fixed is the
    running mean of the increments log2(2 - C(L, k)/S(L)), which do not
    increase with L (proof in feasible_sec_candidates), so it does not
    increase with L; and T/(2T - z) falls with T for z >= 1.  So the
    fallback does not increase with T there: a later window of the zero
    count can at most tie its first, and _best keeps the first on ties.
    The later ones are dropped from the candidate stream: each would be
    rated as a bound, and the first has already tagged the optimum
    "lower-bound", so dropping them changes neither the value, the params
    nor the tag.  None of them has an exact route: their weight T - z
    exceeds the first's, which is at least 2, so neither root applies, and a
    budget that refused the first refuses every longer window.  In floats
    too: with z/T < 1/9 the bounds stay far below 1, and the bounds of
    consecutive lengths differ by a relative amount of order 1/T, far above
    rounding.

    Proof that o_swc is never below o_rll.  Let d = ceil(b / (1 - b)),
    o_rll's run length, and let e_max >= b, so z >= 1 (else o_rll is zero).
    Each T below d + 1 = ceil(1 / (1 - b)) has T * b > T - 1, so its
    candidate has w = T and rate zero.  At T = d + 1 the weight max(ceil((d + 1) * b),
    d + 1 - z) is d: (d + 1) * b <= d as d >= b / (1 - b), and
    (d + 1) * b > d - 1 as d < b / (1 - b) + 1 < (1 + b) / (1 - b).  So the
    first one-zero candidate is (d + 1, d), within the pivot
    ceil(z / (1 - b)) >= d + 1 and feasible; swc_capacity rates it
    rll_capacity(d), o_rll's value bit for bit, and _best cannot report
    less.
    """
    return _o_swc(model.b, _zeros(model, 1), state_budget)


@lru_cache(maxsize=None)
def _o_swc(b: Fraction, z: int, state_budget: int) -> OutageResult:
    """o_swc on the full-buffer model that funds exactly z zeros in a row."""
    model = EnergyModel(b=b, e_max=z * b, e_init=z * b)
    # zero counts rated exactly, or bounded past the split range: their later
    # windows are dropped from the candidate stream before they are rated
    done: set[int] = set()

    def rate(t: int, w: int) -> CapacityResult:
        result = _swc_rate(t, w, state_budget)
        if result.method != "lower-bound" or t > (DEFAULT_M_MAX + 1) * (t - w):
            done.add(t - w)
        return result

    candidates = ((t, w) for t, w in feasible_swc_candidates(model) if t - w not in done)
    return _best(model, candidates, rate)


def o_swc_lower_explicit(model: EnergyModel) -> OutageResult:
    """Closed-form window-family lower bound at the single pivot candidate.

    Uses the pivot pair of z = floor(e_max / b) and bounds its capacity from
    below without any spectral work.
    """
    return _at_pivot(model, _zeros(model, 1), _swc_fallback)


def o_sec(model: EnergyModel) -> OutageResult:
    """Best subblock rate with zero outages, exact over every subblock length.

    The scan stops at the pivot P = ceil(z2 / (1 - b)), z2 = floor(e_max/(2b)):
    from P on the least admissible weight is L - z2, and the rate
    (1/L) log2 S(L), S(L) = sum_{j <= z2} C(L, j), is the running mean of the
    increments log2(2 - C(L, z2)/S(L)), which do not increase with L; so no
    longer subblock beats L = P (full proof in feasible_sec_candidates).
    Ties go to the smallest length.

    The optimum depends on the model only through (b, z2): with
    e_init = e_max and L - w an integer, e_max >= 2 (L - w) b holds exactly
    when L - w <= z2, and then e_init >= (L - w) b holds too.  So the pivot,
    the candidates, their rates and the ceiling are those of the canonical
    full-buffer model with e_max = 2 * z2 * b, and _o_sec scans once per
    (b, z2).
    """
    return _o_sec(model.b, _zeros(model, 2))


@lru_cache(maxsize=None)
def _o_sec(b: Fraction, z2: int) -> OutageResult:
    """o_sec on the full-buffer model whose two half buffers each fund z2 zeros."""
    e_max = 2 * z2 * b
    model = EnergyModel(b=b, e_max=e_max, e_init=e_max)
    return _best(model, feasible_sec_candidates(model), sec_capacity)


def o_sec_lower_explicit(model: EnergyModel) -> OutageResult:
    """Closed-form subblock rate at the pivot length, a guaranteed lower bound.

    Uses the pivot pair of z2 = floor(e_max / (2b)); its exact capacity
    bounds the subblock optimum from below.
    """
    return _at_pivot(model, _zeros(model, 2), sec_capacity)


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
