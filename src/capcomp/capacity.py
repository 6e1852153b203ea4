"""Noiseless capacities of the three constraint families.

Run-length capacity comes from the largest real root of the characteristic
polynomial X^(d+1) - X^d - 1, found by bisection.  Subblock capacity is a
closed form over an exact big-integer binomial sum.  Sliding-window capacity
has no closed form; it is the log of the spectral radius of the window
transfer graph, computed by power iteration over 2^(T-1) suffix states, with
an independent growth-rate route (log-domain counting DP) as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, _check_pair

# Sliding-window state vectors hold 2^(T-1) entries; refuse beyond this.
DEFAULT_STATE_BUDGET = 1 << 20

# the run-length root's bisection bracket width, and the estimate deltas at
# which the power iteration and the growth-rate route stop
ROOT_TOL = 1e-12
SPECTRAL_TOL = 1e-10
GROWTH_TOL = 1e-9

# consecutive sub-tolerance deltas required before an iteration is trusted;
# a single small delta can be the extremum of a decaying oscillation
_CONVERGENCE_STREAK = 3

# iteration caps of the spectral and growth routes; running out raises
_MAX_POWER_ITER = 200_000
_MAX_GROWTH_N = 4000


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value plus how it was obtained.

    method is one of closed-form, spectral, dp-growth, lower-bound,
    upper-bound.  residual is the final bracket width or iteration delta;
    0.0 for exact closed forms.
    """

    value: float
    method: str
    residual: float = 0.0


def rll_capacity(d: int) -> CapacityResult:
    """log2 of the largest real root of X^(d+1) - X^d - 1.

    The polynomial is -1 at X=1 and 2^d - 1 >= 0 at X=2, and has exactly one
    real root above 1, so bisection on [1, 2] is safe.  Above 1 its sign is
    that of d*log2(X) + log2(X - 1), which is tested instead: X^d overflows
    a float once d is in the thousands.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lo, hi = 1.0, 2.0
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if d * math.log2(mid) + math.log2(mid - 1.0) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return CapacityResult(value=math.log2(root), method="closed-form", residual=hi - lo)


def sec_capacity(length: int, w: int) -> CapacityResult:
    """(1/L) * log2(sum of C(L, i) for i = w..L), evaluated exactly."""
    _check_pair(length, w, "sec")
    # the same integer from the shorter side: 2^L minus the w terms below w
    if w < length - w + 1:
        total = (1 << length) - sum(math.comb(length, i) for i in range(w))
    else:
        total = sum(math.comb(length, i) for i in range(w, length + 1))
    return CapacityResult(value=math.log2(total) / length, method="closed-form")


def sec_one_zero_capacity(t: int) -> CapacityResult:
    """Subblock capacity with a single zero allowed per block: (1/T) log2(T+1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return CapacityResult(value=math.log2(t + 1) / t, method="closed-form")


def binary_entropy(x: float) -> float:
    """Shannon entropy of a Bernoulli(x) bit, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _window_tables(t: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Predecessor indices and admissibility masks for the suffix-state graph.

    State s encodes the last t-1 bits.  Appending bit b = s & 1 to predecessor
    p completes a t-bit window whose weight is popcount(s) plus the dropped
    leading bit; the two possible predecessors of s are s >> 1 and
    (s >> 1) + 2^(t-2).
    """
    states = 1 << (t - 1)
    idx = np.arange(states, dtype=np.int64)
    pc = np.zeros(states, dtype=np.int64)
    x = idx.copy()
    while x.any():
        pc += x & 1
        x >>= 1
    p0 = idx >> 1
    p1 = p0 + (states >> 1)
    keep0 = pc >= w  # dropped leading bit was 0
    keep1 = pc + 1 >= w  # dropped leading bit was 1
    return p0, p1, keep0, keep1


def _fits_budget(t: int, w: int, state_budget: int) -> bool:
    """Whether a (t, w) window needs no solve (w == t) or its 2^(t-1) states fit the budget."""
    return w == t or (1 << (t - 1)) <= state_budget


def _check_swc_args(t: int, w: int, state_budget: int) -> None:
    _check_pair(t, w, "swc")
    if not _fits_budget(t, w, state_budget):
        raise ResourceLimitError(
            f"window length {t} needs 2^{t - 1} states, over the budget of {state_budget}"
        )


@lru_cache(maxsize=None)
def _swc_spectral_cached(t: int, w: int, tol: float) -> tuple[float, float]:
    p0, p1, keep0, keep1 = _window_tables(t, w)
    vec = np.ones(1 << (t - 1))
    est_prev = 0.0
    streak = 0
    delta = math.inf
    for _ in range(_MAX_POWER_ITER):
        nxt = np.where(keep0, vec[p0], 0.0) + np.where(keep1, vec[p1], 0.0)
        total = nxt.sum()
        est = total / vec.sum()
        delta = abs(est - est_prev)
        streak = streak + 1 if delta < tol else 0
        est_prev = est
        vec = nxt / total
        if streak >= _CONVERGENCE_STREAK:
            return math.log2(est_prev), delta
    raise ResourceLimitError(
        f"power iteration for window ({t}, {w}) did not converge within "
        f"{_MAX_POWER_ITER} iterations; last delta {delta:.3g}"
    )


def swc_capacity_exact(
    t: int,
    w: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    tol: float = SPECTRAL_TOL,
) -> CapacityResult:
    """Sliding-window capacity from the transfer-graph spectral radius.

    Power iteration from the all-ones vector; the admissible-window graph has
    a single aperiodic recurrent class reachable from every live state (from
    any extendable state, appending a 1 is always legal), so the normalized
    iterates converge to the dominant eigenvalue.  Raises ResourceLimitError
    when the estimate has not settled within _MAX_POWER_ITER iterations.
    """
    _check_swc_args(t, w, state_budget)
    if w == t:
        return CapacityResult(value=0.0, method="closed-form")
    value, delta = _swc_spectral_cached(t, w, tol)
    return CapacityResult(value=value, method="spectral", residual=delta)


def swc_capacity_growth(
    t: int,
    w: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> CapacityResult:
    """Sliding-window capacity as the growth rate of the count sequence.

    Tracks log2 of per-state counts with a log-domain DP and estimates
    log2(M(n+1)/M(n)) until successive estimates settle within GROWTH_TOL.  Raises
    ResourceLimitError when they have not settled by length _MAX_GROWTH_N.
    Shares only the window-admissibility tables with the spectral route.
    """
    _check_swc_args(t, w, state_budget)
    if w == t:
        return CapacityResult(value=0.0, method="dp-growth")
    p0, p1, keep0, keep1 = _window_tables(t, w)
    neg = -np.inf
    logs = np.zeros(1 << (t - 1))  # every (t-1)-bit prefix is valid, count 1

    def log_total(v: np.ndarray) -> float:
        top = v.max()
        if top == neg:
            return neg
        return float(top + math.log2(np.exp2(v - top).sum()))

    prev_total = log_total(logs)
    est_prev = None
    streak = 0
    delta = math.inf
    for n in range(t, _MAX_GROWTH_N + 1):
        logs = np.logaddexp2(
            np.where(keep0, logs[p0], neg), np.where(keep1, logs[p1], neg)
        )
        cur_total = log_total(logs)
        est = cur_total - prev_total
        prev_total = cur_total
        if est_prev is not None:
            delta = abs(est - est_prev)
            streak = streak + 1 if delta < GROWTH_TOL else 0
            if streak >= _CONVERGENCE_STREAK and n > t + 16:
                return CapacityResult(value=est, method="dp-growth", residual=delta)
        est_prev = est
    raise ResourceLimitError(
        f"growth route for window ({t}, {w}) did not settle by length "
        f"{_MAX_GROWTH_N}; last delta {delta:.3g}"
    )
