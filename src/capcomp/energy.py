"""Battery dynamics for a receiver powered by the bits it decodes.

Each transmitted 1 delivers one unit of energy, each channel use consumes
B units (0 < B < 1), and the buffer is clamped to [0, E_max].  With levels
indexed from E(1) = E_init, channel use i with bit b_i updates

    E(i+1) = min(max(E(i) + b_i - B, 0), E_max).

An outage happens at use i when E(i) + b_i < B: the receiver cannot fund
that use.  An overflow happens when E(i) + b_i - B > E_max: harvested
energy is thrown away.  Outages are recorded and the simulation continues
with the buffer clamped at zero.

All quantities are exact rationals.  Floats are rejected at the boundary
because the feasibility conditions below take ceilings of products like
T*B, which are discontinuous in B; a float that merely prints like 3/5
can land on the wrong side of a threshold.

Every quantity is scaled by the common denominator of B, E_max and E_init,
so each step is plain int arithmetic and stays exact.  The scaled recursion
has two kernels, chosen by the shape of the input:

* ``_run`` steps through one bit string of any length.  ``outage_occurs``
  stops it at the first outage; ``simulate`` runs it to the end and turns
  the scaled levels back into Fractions only when it returns.
* ``_outage_words`` steps an int64 level array over a numpy array of n-bit
  words, one bit position per step, for the exhaustive verification sweeps.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError, _check_pair

RationalLike = Fraction | int | str

# the longest span a candidate scan may visit: far past the paper's grids (211)
# and b = 1/200 at e_max = 10 (2,011), whose scans already take tens of seconds
_MAX_SCAN_SPAN = 100_000

# accepted literals: "7", "3/5", "0.6" (at most 12 fractional digits)
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*|\.\d{1,12})?")


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from a string, int, or Fraction.

    Accepts "p/q" with a positive denominator and plain or decimal integers
    with at most 12 fractional digits.  Floats raise TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not energy quantities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted for energy quantities; "
            "pass an exact literal such as '3/5' or '0.6'"
        )
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.fullmatch(text):
            return Fraction(text)
        raise ValueError(f"not a rational literal: {value!r}")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


@dataclass(frozen=True)
class EnergyModel:
    """Per-use draw ``b``, buffer capacity ``e_max``, starting charge ``e_init``."""

    b: Fraction
    e_max: Fraction
    e_init: Fraction

    def __post_init__(self) -> None:
        for name in ("b", "e_max", "e_init"):
            val = getattr(self, name)
            if isinstance(val, float):
                raise TypeError(f"{name} must be an exact rational, not float")
            object.__setattr__(self, name, Fraction(val))
        if not 0 < self.b < 1:
            raise ValueError(f"b must lie strictly between 0 and 1, got {self.b}")
        if self.e_max < 0:
            raise ValueError(f"e_max must be nonnegative, got {self.e_max}")
        if not 0 <= self.e_init <= self.e_max:
            raise ValueError(
                f"e_init must lie in [0, e_max], got {self.e_init} with e_max {self.e_max}"
            )

    @classmethod
    def make(
        cls,
        b: RationalLike,
        e_max: RationalLike,
        e_init: RationalLike | None = None,
    ) -> "EnergyModel":
        """Build a model from rational literals; e_init defaults to a full buffer."""
        b_q = parse_rational(b)
        e_max_q = parse_rational(e_max)
        e_init_q = e_max_q if e_init is None else parse_rational(e_init)
        return cls(b=b_q, e_max=e_max_q, e_init=e_init_q)

    def with_full_buffer(self) -> "EnergyModel":
        if self.e_init == self.e_max:
            return self
        return EnergyModel(b=self.b, e_max=self.e_max, e_init=self.e_max)

    @cached_property
    def _scaled(self) -> tuple[int, int, int, int]:
        """(den, draw, cap, start): b, e_max and e_init times their common denominator."""
        den = math.lcm(self.b.denominator, self.e_max.denominator, self.e_init.denominator)
        return (den, *(int(q * den) for q in (self.b, self.e_max, self.e_init)))


@dataclass
class SimTrace:
    """Exact battery trajectory: levels E(1..n+1) plus 1-indexed event steps."""

    levels: list[Fraction]
    outages: list[int]
    overflows: list[int]


def _check_bits(bits: str) -> None:
    if not isinstance(bits, str):
        raise TypeError("bit sequence must be a str of '0'/'1'")
    # stripping stops at the first character that is neither '0' nor '1'
    bad = bits.strip("01")
    if bad:
        raise ValueError(f"bit sequence may contain only '0' and '1', got {bad[0]!r}")


def _run(
    bits: str, model: EnergyModel, stop_at_outage: bool
) -> tuple[list[int], list[int], list[int]]:
    """The battery recursion in units of 1/den, den = model._scaled[0].

    Returns the scaled levels and the 1-indexed outage and overflow steps.
    With stop_at_outage the run ends at the first outage, whose step is then
    the last entry of the outage list.
    """
    _check_bits(bits)
    den, draw, cap, level = model._scaled
    up, down = den - draw, -draw
    levels = [level]
    outages: list[int] = []
    overflows: list[int] = []
    record = levels.append
    for ch in bits:
        level += up if ch == "1" else down
        if level < 0:
            outages.append(len(levels))
            if stop_at_outage:
                break
            level = 0
        elif level > cap:
            overflows.append(len(levels))
            level = cap
        record(level)
    return levels, outages, overflows


def simulate(bits: str, model: EnergyModel) -> SimTrace:
    """Run the exact battery recursion over a bit sequence.

    Returns the full level trajectory (n+1 entries for n bits) and the
    1-indexed steps at which outages and overflows occurred.
    """
    levels, outages, overflows = _run(bits, model, stop_at_outage=False)
    den = model._scaled[0]
    # one Fraction per distinct level: a long trace revisits few levels
    exact = {level: Fraction(level, den) for level in set(levels)}
    return SimTrace([exact[level] for level in levels], outages, overflows)


def outage_occurs(bits: str, model: EnergyModel) -> bool:
    """Whether the battery recursion hits an outage anywhere on the sequence.

    Same recursion as simulate(), stopped at the first outage and with no
    Fractions built; used by the exhaustive verification sweeps.
    """
    return bool(_run(bits, model, stop_at_outage=True)[1])


def _outage_words(words: np.ndarray, n: int, model: EnergyModel) -> np.ndarray:
    """Whether the battery recursion hits an outage on each n-bit word, as a bool mask.

    Word w stands for the bit string format(w, f"0{n}b"): its first bit is
    bit n-1.  All words advance together, one bit position per step, in
    int64 units of 1/den as in _run; after an outage a level is clamped to
    zero and the run goes on, which leaves the mask unchanged.  The levels
    stay in [-draw, cap + den - draw], so the kernel is exact when
    cap + den < 2^63, and raises ResourceLimitError otherwise.
    """
    den, draw, cap, start = model._scaled
    if cap + den >= 1 << 63:
        raise ResourceLimitError(f"scaled battery levels of {model} exceed int64")
    up, down = den - draw, -draw
    level = np.full(words.shape, start, dtype=np.int64)
    outage = np.zeros(words.shape, dtype=bool)
    for shift in range(n - 1, -1, -1):
        level += np.where((words >> shift) & 1, up, down)
        outage |= level < 0
        np.maximum(level, 0, out=level)
        np.minimum(level, cap, out=level)
    return outage


def rll_feasible(d: int, model: EnergyModel) -> bool:
    """Whether every (d, inf) run-length sequence avoids outage under the model."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return d >= math.ceil(model.b / (1 - model.b)) and model.e_init >= model.b


def swc_feasible(t: int, w: int, model: EnergyModel) -> bool:
    """Whether every (T, w) sliding-window sequence avoids outage under the model."""
    _check_pair(t, w, "swc")
    return w >= math.ceil(t * model.b) and model.e_init >= (t - w) * model.b


def sec_feasible(length: int, w: int, model: EnergyModel) -> bool:
    """Whether every (L, w) subblock sequence avoids outage under the model."""
    _check_pair(length, w, "sec")
    return (
        w >= math.ceil(length * model.b)
        and model.e_init >= (length - w) * model.b
        and model.e_max >= 2 * (length - w) * model.b
    )


def _zeros(model: EnergyModel, shares: int) -> int:
    """Zeros in a row that 1/shares of a full buffer funds: floor(e_max / (shares * b))."""
    return math.floor(model.e_max / (shares * model.b))


def _pivot(model: EnergyModel, z: int) -> int:
    """The last span the candidate scans visit: ceil(z / (1 - b)).

    Raises ResourceLimitError when it exceeds _MAX_SCAN_SPAN, so the scans
    and the explicit bounds at the pivot refuse it before any work.
    """
    pivot = math.ceil(z / (1 - model.b))
    if pivot > _MAX_SCAN_SPAN:
        raise ResourceLimitError(
            f"candidate scan would reach span {pivot}, over the limit of {_MAX_SCAN_SPAN}"
        )
    return pivot


def _pivot_scan(model: EnergyModel, z: int, feasible: Callable) -> list[tuple[int, int]]:
    """Spans 1.._pivot(model, z) at their least weight w, where feasible(span, w, model).

    The least admissible weight is max(ceil(span*b), span - z); empty when z = 0.
    """
    pivot = _pivot(model, z)
    out = []
    for span in range(1, pivot + 1):
        w = max(math.ceil(span * model.b), span - z)
        if feasible(span, w, model):
            out.append((span, w))
    return out


def feasible_swc_candidates(model: EnergyModel) -> list[tuple[int, int]]:
    """Outage-free (T, w) pairs that can carry the maximum rate.

    For each window length T the least admissible weight is
    max(ceil(T*b), T - z) with z = floor(e_max / b); window lengths beyond
    ceil(z / (1 - b)) cannot beat shorter ones.  Every returned pair passes
    swc_feasible.  Empty when the buffer cannot fund a single zero (z = 0).
    """
    return _pivot_scan(model, _zeros(model, 1), swc_feasible)


def feasible_sec_candidates(model: EnergyModel) -> list[tuple[int, int]]:
    """Outage-free (L, w) pairs that can carry the maximum rate.

    For each subblock length L the least admissible weight is
    max(ceil(L*b), L - z2) with z2 = floor(e_max / (2*b)), and subblock
    lengths beyond the pivot P = ceil(z2 / (1 - b)) cannot beat L = P.
    Every returned pair passes sec_feasible.  Empty when the buffer cannot
    fund the zeros of two subblocks back to back (z2 = 0).

    Proof that the scan may stop at P.  For L >= P, L - z2 >= L*b, so the
    least admissible weight is exactly L - z2 (and the pairs past P are all
    feasible or all not, since (L - w)*b = z2*b for each).  The candidate's
    rate is then f(L) = (1/L) log2 S(L) with S(L) = sum of C(L, j), j <= z2,
    and Pascal's rule gives S(L+1) = 2 S(L) - C(L, z2).  So the increment
    log2 S(L+1) - log2 S(L) is log2(2 - r(L)) with r(L) = C(L, z2)/S(L).
    r(L) = 0 for L < z2, and for L >= z2
        1/r(L) = sum over i <= z2 of prod over m < i of
                 (z2 - m) / (L - z2 + m + 1),
    where every factor is nonincreasing in L.  So r is nondecreasing and the
    increments are nonincreasing in L >= 0.  As log2 S(0) = 0, f(L) is the
    mean of the first L increments, which is nonincreasing too: no L > P
    beats L = P, and the optimizers keep the smallest length on ties.
    """
    return _pivot_scan(model, _zeros(model, 2), sec_feasible)


def preamble_length(model: EnergyModel) -> int:
    """All-ones prefix length guaranteed to fill the buffer from empty."""
    return math.ceil(model.e_max / (1 - model.b))
