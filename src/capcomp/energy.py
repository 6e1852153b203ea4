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
so each step is plain int arithmetic and stays exact; the feasibility
predicates, zero counts and pivots test their thresholds on the same
integers.  The scaled recursion has two kernels, chosen by the shape of the
input:

* ``_run`` steps through one bit string of any length.  ``outage_occurs``
  stops it at the first outage; ``simulate`` runs it to the end and turns
  the scaled levels back into Fractions only when it returns.
* ``_outage_words`` steps a level array over a numpy array of n-bit words
  under a batch of models at once, one bit position per step, for the
  exhaustive verification sweeps: each spec is swept once, at its longest
  length, for all the models it is feasible under.  It also sweeps every
  concatenation of a few such words, a block at a time, so that words
  sharing a prefix share its steps: verify's subblock sweeps run so.  It
  marks outages without clamping a negative level back to zero, and caps
  the others at E_max.  The levels take the narrowest signed integer type
  that holds their proved range: int8 or int16 on verify's grid, int64 at
  most.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError, _check_pair

RationalLike = Fraction | int | str

# the longest span a candidate scan may visit: far past the paper's grids (211)
# and b = 1/200 at e_max = 10 (2,011), whose scans already take tens of seconds
_MAX_SCAN_SPAN = 100_000

# the swept words one battery kernel step spans at a time, which bounds its temporaries
_STEP_WORDS = 1 << 14

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
    """Per-use draw ``b``, buffer capacity ``e_max``, starting charge ``e_init``.

    Each field goes through parse_rational, so the constructor accepts and
    refuses exactly what the command line does.
    """

    b: Fraction
    e_max: Fraction
    e_init: Fraction

    def __post_init__(self) -> None:
        for name in ("b", "e_max", "e_init"):
            object.__setattr__(self, name, parse_rational(getattr(self, name)))
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
        return cls(b=b, e_max=e_max, e_init=e_max if e_init is None else e_init)

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


def _outage_words(
    words: np.ndarray, n: int, models: Sequence[EnergyModel], repeat: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Whether the battery recursion hits an outage on each product of n-bit words, per model.

    The swept words are the concatenations of repeat words from words, in
    the order of the flattened product: swept word i joins the words at the
    base-len(words) digits of i, most significant first, so the swept words
    ascend when words do, and repeat = 1 sweeps words themselves.  Word w
    stands for the bit string format(w, f"0{n}b"): its first bit is bit n-1.
    Returns the outage mask and the levels after the last bit, both of shape
    (len(models), len(words) ** repeat); row i is the run under models[i].

    All words under all models advance together, one bit position per
    step, in units of 1/den as in _run, each model with its own den.  Round
    k repeats the levels and marks of the len(words) ** (k - 1) prefixes
    over the next block and steps its n bits, broadcast over the prefix
    axis, so each prefix is stepped once, not once per word that shares it.
    A step adds den - draw or -draw to every level, marks the levels that
    went negative and caps the rest at cap, all in place.  A level that went
    negative is not clamped back to zero: its word is already marked, so the
    mask stays exact, though that level no longer is.

    Over N = n * repeat bits the levels stay in [-N*draw, cap + den - draw],
    so a signed integer type whose largest value is at least
    max(cap + den, N*draw) for every model holds them exactly: the levels
    take the narrowest of int8, int16, int32 and int64 that does.  When even
    int64 does not, the kernel raises ResourceLimitError naming the first
    model over it, before any work.
    """
    scaled = [model._scaled for model in models]
    bounds = [max(cap + den, n * repeat * draw) for den, draw, cap, _ in scaled]
    for model, bound in zip(models, bounds):
        if bound >= 1 << 63:
            raise ResourceLimitError(f"scaled battery levels of {model} exceed int64")
    # the narrowest signed type that holds every model's bound; int64 does
    top = max(bounds, default=0)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)
    # one entry per model and quantity, so each step broadcasts over prefixes and words
    den, draw, cap, start = np.array(scaled, dtype=dtype).reshape(-1, 4, 1, 1).transpose(1, 0, 2, 3)
    # the one empty prefix, unmarked, ahead of the first round
    level, outage = start, np.zeros(start.shape, dtype=bool)
    # each step spans a tile of at most _STEP_WORDS words, which bounds its
    # temporaries: whole prefixes over all words, or one prefix over a slice
    rows = max(1, _STEP_WORDS // max(1, len(words)))
    for k in range(repeat):
        # every prefix's level and mark, once per word that extends it
        prefixes = (len(models), len(words) ** k, 1)
        level = np.repeat(level.reshape(prefixes), len(words), axis=2)
        outage = np.repeat(outage.reshape(prefixes), len(words), axis=2)
        for p in range(0, prefixes[1], rows):
            for c in range(0, len(words), _STEP_WORDS):
                tile = np.s_[:, p : p + rows, c : c + _STEP_WORDS]
                bits, lv, out = words[c : c + _STEP_WORDS], level[tile], outage[tile]
                for shift in range(n - 1, -1, -1):
                    # the bit in the level type, so that den * bit is no wider
                    np.add(lv, den * ((bits >> shift) & 1).astype(dtype) - draw, out=lv)
                    out |= lv < 0
                    np.minimum(lv, cap, out=lv)
    swept = (len(models), len(words) ** repeat)
    return outage.reshape(swept), level.reshape(swept)


def rll_feasible(d: int, model: EnergyModel) -> bool:
    """Whether every (d, inf) run-length sequence avoids outage under the model.

    d >= ceil(b / (1 - b)) and e_init >= b, tested in units of 1/den as
    d * (den - draw) >= draw and start >= draw.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    den, draw, _, start = model._scaled
    return d * (den - draw) >= draw and start >= draw


def swc_feasible(t: int, w: int, model: EnergyModel) -> bool:
    """Whether every (T, w) sliding-window sequence avoids outage under the model.

    w >= ceil(T * b) and e_init >= (T - w) * b, tested in units of 1/den as
    w * den >= T * draw and (T - w) * draw <= start.
    """
    _check_pair(t, w, "swc")
    den, draw, _, start = model._scaled
    return w * den >= t * draw and (t - w) * draw <= start


def sec_feasible(length: int, w: int, model: EnergyModel) -> bool:
    """Whether every (L, w) subblock sequence avoids outage under the model.

    swc_feasible's two tests, and e_max >= 2 (L - w) * b, tested as
    cap >= 2 (L - w) * draw.
    """
    _check_pair(length, w, "sec")
    den, draw, cap, start = model._scaled
    drain = (length - w) * draw
    return w * den >= length * draw and drain <= start and 2 * drain <= cap


def _zeros(model: EnergyModel, shares: int) -> int:
    """Zeros in a row that 1/shares of a full buffer funds: floor(e_max / (shares * b))."""
    _, draw, cap, _ = model._scaled
    return cap // (shares * draw)


def _pivot(model: EnergyModel, z: int) -> int:
    """The last span the candidate scans visit: ceil(z / (1 - b)) = ceil(z * den / (den - draw)).

    Raises ResourceLimitError when it exceeds _MAX_SCAN_SPAN, so the scans
    and the explicit bounds at the pivot refuse it before any work.
    """
    den, draw, _, _ = model._scaled
    pivot = -(-z * den // (den - draw))
    if pivot > _MAX_SCAN_SPAN:
        raise ResourceLimitError(
            f"candidate scan would reach span {pivot}, over the limit of {_MAX_SCAN_SPAN}"
        )
    return pivot


def _pivot_scan(model: EnergyModel, z: int, feasible: Callable) -> list[tuple[int, int]]:
    """Spans 1.._pivot(model, z) at their least weight w, where feasible(span, w, model).

    The least admissible weight is max(ceil(span*b), span - z), with
    ceil(span*b) = ceil(span * draw / den); empty when z = 0.
    """
    pivot = _pivot(model, z)
    den, draw, _, _ = model._scaled
    out = []
    for span in range(1, pivot + 1):
        w = max(-(-span * draw // den), span - z)
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
