"""Cheap bounds on the sliding-window capacity, and the IID entropy ceiling."""

from __future__ import annotations

from fractions import Fraction

from .capacity import CapacityResult, binary_entropy, sec_capacity
from .config import DEFAULT_M_MAX


def sandwich_bounds(t: int, w: int) -> tuple[float, float]:
    """(T/(T+w)) * C_sub <= C_window <= C_sub, from the aligned-subblock relaxation."""
    sub = sec_capacity(t, w).value
    return (t / (t + w)) * sub, sub


def swc_lower_bound(t: int, w: int) -> CapacityResult:
    """Best of a family of subblock constructions that embed into the window rule.

    Candidates: the (T-1, ceil((T+w-2)/2)) subblock code, and for each split
    depth m = 1..DEFAULT_M_MAX the (floor(T/(m+1)), ceil(w/m)) subblock code.
    Splits whose required weight exceeds the subblock length are skipped.
    """
    if t < 1 or not 1 <= w <= t:
        raise ValueError(f"need 1 <= w <= t, got t={t} w={w}")
    best = 0.0
    if t >= 2:
        best = sec_capacity(t - 1, (t + w - 1) // 2).value
    for m in range(1, DEFAULT_M_MAX + 1):
        sub_len = t // (m + 1)
        sub_w = -(-w // m)
        if sub_len >= 1 and sub_w <= sub_len:
            best = max(best, sec_capacity(sub_len, sub_w).value)
    return CapacityResult(value=best, method="lower-bound")


def entropy_ceiling(b: float | Fraction) -> float:
    """Largest rate any outage-free scheme can reach: h(max(b, 1/2))."""
    x = float(b)
    if not 0.0 < x < 1.0:
        raise ValueError(f"b must lie strictly between 0 and 1, got {b}")
    return binary_entropy(max(x, 0.5))
