"""Noiseless capacities of the three constraint families.

Run-length capacity comes from the largest real root of the characteristic
polynomial X^(d+1) - X^d - 1, found by bisection; the run-length count runs
the matching recurrence.  The (T, 1) window, which is the (0, T - 1)
zero-run rule, has its capacity from the largest root of X^T (2 - X) = 1,
bisected on log2(2 - X) by the same kernel.  Subblock capacity is a closed
form over an exact big-integer binomial sum, the subblock sum S(L, w), whose
powers are the subblock counts.  Sliding-window capacity has no closed form; it is the log
of the spectral radius of the window transfer graph, computed by power
iteration on the C(T, w) follower-set classes of its 2^(T-1) suffix states
and stopped on a certified Collatz-Wielandt bracket.  The classes are
enumerated directly and their successor tables built a chunk at a time, so
the solve's peak memory is 24 + 16(T - w)/T bytes per class, under 40 (two
index tables and two iterates), plus a fixed term of chunk-sized build
temporaries, at most 112 KB for T <= 18; no array is longer than C(T, w).  One
kernel solves a batch of windows in one power iteration over the disjoint
union of their class graphs, each recorded at its own first closed bracket
and to the same bits as alone; a single window is a batch of one, and every
answer is kept for the process, so no window is solved twice.  An
independent growth-rate route (log-domain counting DP over all suffix states,
gathering through a -inf sentinel slot) is the cross-check.

swc_capacity is the one rule that rates a window exactly: the full window
(T, T) is zero, the one-zero window (T, T - 1) takes the run-length root, the
one-one window (T, 1) the zero-run root, all at any length, and every other
window the spectral solve, within the state budget.  The spectral and growth
routes stay apart from it, so that each can check the roots independently.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, _check_pair

# The most suffix states, 2^(T-1), a window of length T may have before it is
# refused.  The spectral solve allocates only C(T, w)-sized arrays; the budget
# still counts 2^(T-1) so that which windows are solved, and so every output,
# stays put.  The growth route does allocate all 2^(T-1) states.
DEFAULT_STATE_BUDGET = 1 << 20

# the run-length root's bisection bracket width, the log2 bracket width at
# which the power iteration stops, and the estimate delta at which the
# growth-rate route stops
ROOT_TOL = 1e-12
SPECTRAL_TOL = 1e-10
GROWTH_TOL = 1e-9

_LN2 = math.log(2.0)

# consecutive sub-tolerance deltas required before the growth route is
# trusted; a single small delta can be the extremum of a decaying oscillation
_CONVERGENCE_STREAK = 3

# iteration caps of the spectral and growth routes; running out raises
_MAX_POWER_ITER = 200_000
_MAX_GROWTH_N = 4000

# the longest window a solve accepts: the class keys of _follower_classes and
# the suffix states of the growth route are int64 bit strings, and a class key
# sets bit t-1
_MAX_WINDOW = 63

# the power iteration tests its bracket, and normalizes, on every this-many-th
# product; a class has at most two successors, so an iterate grows by at most
# 2^_CHECK_EVERY in between
_CHECK_EVERY = 8

# _follower_classes fills its tables this many classes at a time, so that
# their temporaries stay chunk-sized
_CHUNK = 1 << 12


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value plus how it was obtained.

    method is one of closed-form, spectral, dp-growth, lower-bound.  What
    residual bounds depends on the method:
    - a run-length or zero-run root (closed-form): the width of a bracket on
      the capacity, in log2, that holds value, so value is within residual
      of the capacity;
    - spectral: the width of the certified Collatz-Wielandt bracket in log2,
      whose midpoint is value, so value is within residual/2 of the capacity;
    - dp-growth: nothing certified; it is the last estimate delta;
    - the other closed forms and the bounds: 0.0, as they carry no bracket.
    """

    value: float
    method: str
    residual: float = 0.0


def _bisect(
    lo: float, hi: float, below: Callable[[float], bool], tol: float
) -> tuple[float, float]:
    """The bracket [lo, hi] on a root, halved until it is at most tol wide.

    below(x) says whether the root lies above x; it must hold at lo and not
    at hi, and flip once in between.  The halving also stops when the
    midpoint rounds onto an end, so tol = 0 bisects to the last float.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def rll_capacity(d: int) -> CapacityResult:
    """log2 of the largest real root of X^(d+1) - X^d - 1.

    The polynomial is -1 at X=1 and 2^d - 1 >= 0 at X=2, and has exactly one
    real root above 1, so bisection on [1, 2] is safe.  Above 1 its sign is
    that of d*log2(X) + log2(X - 1), which is tested instead: X^d overflows
    a float once d is in the thousands.  The root is bisected in X to
    ROOT_TOL; residual is the width of the value bracket, log2(hi) -
    log2(lo), which holds value, log2 of the X midpoint, as log2 increases.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lo, hi = _bisect(1.0, 2.0, lambda x: d * math.log2(x) + math.log2(x - 1.0) < 0.0, ROOT_TOL)
    return CapacityResult(
        value=math.log2(0.5 * (lo + hi)),
        method="closed-form",
        residual=math.log2(hi) - math.log2(lo),
    )


def zero_run_capacity(t: int) -> CapacityResult:
    """The (t, 1) window capacity: log2 of the largest root of X^t (2 - X) = 1.

    A window of t bits holds a 1 exactly when no run of zeros is t long, so
    SWC(t, 1) is the (0, t - 1) run-length rule, whose characteristic
    equation this is (Marcus, Roth & Siegel, Constrained Systems and Coding
    for Recording Channels, 1998).  Its root X lies in (sqrt 2, 2) for
    t >= 2: the capacity log2 X is that of (2, 1), log2 of the golden
    ratio, or more, as SWC(t, 1) grows with t, and it is below 1.

    Near rate 1 the root crowds 2, where a float X keeps few bits of 2 - X,
    so the root is bisected on u = log2(2 - X) = -t log2 X instead.  There
    log2 X = 1 + log1p(-2^u / 2) / ln 2 with no cancellation, and the sign
    of log2(X^t (2 - X)) = t * log2 X + u is negative below the root's u
    (X above the root) and positive above it.

    The bracket.  As log2 X is in (1/2, 1), the root's u is in (-t, -t/2);
    so log2 X > log2(2 - 2^(-t/2)), and u < -t log2(2 - 2^(-t/2)), the
    upper end, within a relative 2^(-t/2) of -t.  Where rounding moves that
    end past the root, the value moves by far less than 2^-60.  t + u is
    summed first, exactly, as u lies within a factor 2 of -t.  The slope of
    log2 X in u is -2^u / (2 - 2^u), at most 2^(-t/2) in size on the
    bracket, so a u bracket 2^(floor(t/2) - 60) wide maps to a value
    bracket under 2^-60.  The bisection stops there, or at the last float of
    u if that comes first; residual is the width of the value bracket.
    """
    if t < 2:
        raise ValueError("t must be >= 2")

    def gap(u: float) -> float:
        # 1 - log2 X, computed apart from the 1 so that no bits are lost
        return -math.log1p(-0.5 * 2.0**u) / _LN2

    # the exponent is capped short of float overflow: past the cap, the
    # first bracket maps to a value bracket under 2^-60 already
    tol = math.ldexp(1.0, min(t, 1000) // 2 - 60)
    lo, hi = _bisect(
        -float(t), -t * (1.0 - gap(-0.5 * t)), lambda u: (t + u) - t * gap(u) < 0.0, tol
    )
    value = 1.0 - gap(0.5 * (lo + hi))
    return CapacityResult(value=value, method="closed-form", residual=gap(hi) - gap(lo))


def _subblock_words(length: int, w: int) -> int:
    """S(L, w), the sum of C(L, i) for i = w..L: the L-bit words with at least w ones."""
    _check_pair(length, w, "sec")
    # the same integer from the shorter side: 2^L minus the w terms below w
    if w < length - w + 1:
        return (1 << length) - sum(math.comb(length, i) for i in range(w))
    return sum(math.comb(length, i) for i in range(w, length + 1))


def sec_capacity(length: int, w: int) -> CapacityResult:
    """(1/L) * log2 S(L, w), with the subblock sum S(L, w) evaluated exactly.

    SEC._count reads the same integer: S(L, w)^k words of kL bits.
    """
    return CapacityResult(
        value=math.log2(_subblock_words(length, w)) / length, method="closed-form"
    )


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


def _window_tables(t: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of the two predecessors of each suffix state.

    State s encodes the last t-1 bits.  Appending bit b = s & 1 to predecessor
    p completes a t-bit window whose weight is popcount(s) plus the dropped
    leading bit; the two possible predecessors of s are s >> 1 and
    (s >> 1) + 2^(t-2).  A predecessor whose window would be too light is
    replaced by 2^(t-1), one past the last state: a sentinel slot whose
    log count is -inf.  SWC._count runs its exact count on the same tables,
    with a sentinel count of 0.
    """
    states = 1 << (t - 1)
    idx = np.arange(states, dtype=np.int64)
    pc = np.bitwise_count(idx)
    p0 = idx >> 1
    # the dropped leading bit was 0, or it was 1
    return np.where(pc >= w, p0, states), np.where(pc + 1 >= w, p0 + (states >> 1), states)


def _fits_budget(t: int, w: int, state_budget: int) -> bool:
    """Whether a (t, w) window can be solved: w == t, or t <= _MAX_WINDOW and 2^(t-1) <= budget.

    The spectral solve needs only C(t, w) classes, but the count stays
    2^(t-1): counting classes would solve more windows and change outputs.
    A window that does not fit is refused by _check_swc_args, and o_swc
    rates it by its fallback bound instead, unless _has_exact_route finds a
    root for it.
    """
    return w == t or (t <= _MAX_WINDOW and 1 << (t - 1) <= state_budget)


def _check_swc_args(t: int, w: int, state_budget: int) -> None:
    _check_pair(t, w, "swc")
    if _fits_budget(t, w, state_budget):
        return
    if 1 << (t - 1) > state_budget:
        raise ResourceLimitError(
            f"window length {t} needs 2^{t - 1} states, over the budget of {state_budget}"
        )
    raise ResourceLimitError(
        f"window length {t} is over the limit of {_MAX_WINDOW}: "
        "its states are keyed by int64 bit strings"
    )


def _popcount_strings(bits: int, k: int) -> np.ndarray:
    """All bits-bit integers of popcount k, ascending, without the 2^bits others.

    The strings are built one bit at a time, keeping per popcount j only those
    that can still reach k.  At bit b those are at most C(bits, k) in all:
    each extends in at least one way to a distinct k-subset of the bits, so
    no intermediate set is larger than the result, whatever k is.  The result
    is one contiguous array, so a binary search reads it in place.
    """
    none = np.zeros(0, dtype=np.int64)
    rows = {0: np.zeros(1, dtype=np.int64)}
    for b in range(bits):
        rows = {
            j: np.concatenate([rows.get(j, none), rows.get(j - 1, none) | (1 << b)])
            for j in range(max(0, k - bits + b + 1), min(b + 1, k) + 1)
        }
    return rows[k]


def _follower_classes(windows: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Successor tables of the follower-set classes over the disjoint union of the window graphs.

    Within a window (t, w), class i is represented by a (t-1)-bit string r
    of popcount w or w-1, the popcount-w classes first, each group
    ascending.  Appending bit c shifts it in and, when the popcount reaches
    w+1, clears the highest set bit; the result's index is found by binary
    search among the class keys.  A 0 after a popcount-(w-1) state closes a
    window of weight w-1, so only the popcount-w classes have a
    0-successor.

    The union lays the classes out in blocks: block (0, k) holds the
    C(t-1, w) popcount-w classes of window k, block (1, k) its C(t-1, w-1)
    others, and the blocks lie row by row.  succ1[i] is the class reached
    from class i by appending a 1, and succ0[j] the class reached by
    appending a 0, for the leading len(succ0) classes, the popcount-w ones.
    A batch of one is the window's own layout.

    A class is keyed by its string, with bit t-1 set when its popcount is
    w-1: so a window's keys are exactly the t-bit strings of popcount w,
    ascending in class order, built as one array with at most three
    key-sized arrays alive (_popcount_strings).  Each group of a window is
    then filled _CHUNK classes at a time, renumbered to its union slots and
    written straight into its block, so the fill's temporaries are
    chunk-sized: a window's build holds its keys and the union's two
    tables, for a batch of one 16 + 8(t-w)/t bytes per class, as
    len(succ0) = C(t-1, w) = C(t, w)(t-w)/t.
    """
    succ1 = np.empty(sum(math.comb(t, w) for t, w in windows), dtype=np.int64)
    succ0 = np.empty(sum(math.comb(t - 1, w) for t, w in windows), dtype=np.int64)
    heavy_at, light_at = 0, len(succ0)
    for t, w in windows:
        mask = (1 << (t - 1)) - 1
        keys = _popcount_strings(t, w)
        heavy = math.comb(t - 1, w)

        def successor(r: np.ndarray, c: int) -> np.ndarray:
            s = ((r << 1) & mask) | c
            top = s.copy()  # smear the highest set bit down, then isolate it
            shift = 1
            while shift < t:
                top |= top >> shift
                shift <<= 1
            top ^= top >> 1
            pc = np.bitwise_count(s)
            s = np.where(pc > w, s ^ top, s)
            i = np.searchsorted(keys, np.where(pc < w, s | (mask + 1), s))
            # class i of the window lies at heavy_at + i, or at light_at + i - heavy
            i += np.where(i < heavy, heavy_at, light_at - heavy)
            return i

        for first, stop, at in ((0, heavy, heavy_at), (heavy, len(keys), light_at - heavy)):
            for start in range(first, stop, _CHUNK):
                r = keys[start : min(start + _CHUNK, stop)] & mask
                succ1[at + start : at + start + len(r)] = successor(r, 1)
                if first == 0:
                    succ0[at + start : at + start + len(r)] = successor(r, 0)
        heavy_at += heavy
        light_at += len(keys) - heavy
    return succ1, succ0


def _swc_spectral(windows: Sequence[tuple[int, int]], tol: float) -> list[tuple[float, float]]:
    """log2 of the spectral radius of each (t, w) window graph, 1 <= w < t.

    Returns per window the midpoint and the width of a Collatz-Wielandt
    bracket on it, both in log2, once the width is under tol.  All windows
    run in one power iteration over the disjoint union of their class
    graphs, and each window's answer is recorded at its own first closed
    bracket.  Raises ResourceLimitError naming the first window whose
    bracket is still open after _MAX_POWER_ITER iterations.

    Proof that each (value, width) is that of a solve of the window alone.
    The union has no edge between blocks, so a block's products read only
    its own entries, and its ratios, bracket and normalization read only its
    own products.  So a window's entries are the same float operations on
    the same numbers as alone, whatever the other windows do; in particular
    a closed window can keep iterating, and no window drops out or is
    renumbered.

    Memory.  The iteration holds the two successor tables, 8 + 8(t-w)/t
    bytes per class of a window (t, w), since C(t-1, w) = C(t, w)(t-w)/t of
    its classes have a 0-successor; two float iterates, 16 bytes per class;
    and the gather through succ0 while it is added in, 8(t-w)/t.  The
    ratios are written into the iterate just consumed, which is spent.  So
    the peak is 24 + 16(t-w)/t bytes per class, under 40, besides
    chunk-sized and per-window terms: 30.4 at (20, 12).  Building the tables
    holds less per class (_follower_classes), but its chunk-sized
    temporaries are a fixed term that dominates a small window:
    at most 112 KB over the windows with t <= 18, so (15, 9) traces 45.2
    bytes per class.

    Proof that the follower-set quotient has the same spectral radius.  A
    suffix state p (the last t-1 bits) admits bit c iff popcount(p) + c >= w,
    so a state of popcount below w-1 has no successor and lies on no cycle.
    The windows still to come each take a suffix of p, and a suffix of
    length j only matters through min(w, its popcount); that is fixed by the
    positions of the last w ones of p when popcount(p) >= w, and by all of p
    when popcount(p) = w-1.  So every live state has the same future as the
    (t-1)-bit string r that keeps only its last w ones, of popcount w or w-1,
    and there are C(t-1, w) + C(t-1, w-1) = C(t, w) such classes.  Appending
    c to p and then reducing gives the class of appending c to r, so each
    class goes, on each admissible bit, to exactly one class: with P the
    live-state-by-class indicator, A P = P B for the live state matrix A and
    the class matrix B.  Hence A^n P 1 = P B^n 1, the row sums of A^n and B^n
    agree, and Gelfand's formula gives rho(A) = rho(B).

    Proof that the bracket is certified and closes.  From any class, t-1
    appended ones are admissible and reach the class of the all-ones state;
    from the all-ones state, appending any r of popcount >= w-1 is
    admissible (after k bits the window holds t-k ones and at least
    w-1-(t-1-k) ones of r) and reaches r.  So B is irreducible, and the
    all-ones class has a self-loop, so B is primitive.  For a positive x,
    min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i (Collatz-Wielandt), and
    the power iterates of a primitive matrix tend to its Perron vector, so
    the bracket shrinks to zero width.  Each ratio carries two float roundings,
    the sum and the quotient, about 2e-16 relative: far below tol.  The
    bracket is evaluated only on every _CHECK_EVERY-th product and on the
    last; the bound holds for every positive x, so each evaluated bracket is
    still certified, and those iterates still tend to the Perron vector.
    """
    if not windows:
        return []
    # the blocks of _follower_classes, reduced one by one by reduceat at starts
    sizes = np.array([[math.comb(t - 1, w - j) for t, w in windows] for j in (0, 1)])
    succ1, succ0 = _follower_classes(windows)
    starts = np.cumsum(sizes) - sizes.ravel()
    blocks = list(zip(starts.tolist(), sizes.ravel().tolist()))
    count = len(windows)
    results: list = [None] * count
    widths = [math.inf] * count
    vec = np.ones(len(succ1))
    for n in range(1, _MAX_POWER_ITER + 1):
        nxt = np.take(vec, succ1)
        nxt[: len(succ0)] += np.take(vec, succ0)
        if n % _CHECK_EVERY and n < _MAX_POWER_ITER:
            vec = nxt
            continue
        # the ratios (Bx)_i / x_i, written over the iterate just consumed
        np.divide(nxt, vec, out=vec)
        lows = np.minimum.reduceat(vec, starts).tolist()
        highs = np.maximum.reduceat(vec, starts).tolist()
        for k in range(count):
            if results[k] is None:
                lo = math.log2(min(lows[k], lows[count + k]))
                hi = math.log2(max(highs[k], highs[count + k]))
                widths[k] = hi - lo
                if hi - lo < tol:
                    results[k] = 0.5 * (lo + hi), hi - lo
        if None not in results:
            return results
        tops = np.maximum.reduceat(nxt, starts).tolist()
        for j, (start, size) in enumerate(blocks):
            nxt[start : start + size] /= max(tops[j % count], tops[j % count + count])
        vec = nxt
    k = results.index(None)
    t, w = windows[k]
    raise ResourceLimitError(
        f"power iteration for window ({t}, {w}) did not converge within "
        f"{_MAX_POWER_ITER} iterations; last bracket width {widths[k]:.3g}"
    )


# (t, w, tol) -> the result of every window _swc_spectral has solved in this
# process
_SPECTRAL: dict[tuple[int, int, float], CapacityResult] = {}


def swc_capacity_exact(
    t: int,
    w: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    tol: float = SPECTRAL_TOL,
) -> CapacityResult:
    """Sliding-window capacity from the transfer-graph spectral radius.

    Power iteration from the all-ones vector on the C(t, w) follower-set
    classes of the 2^(t-1) suffix states, stopped when the Collatz-Wielandt
    bracket min/max (Bx)_i/x_i on the spectral radius is narrower than tol in
    log2.  The value is the bracket's midpoint and residual its width, so
    the capacity lies within residual/2 of value; _swc_spectral
    proves the quotient exact and the bracket closing.  The solve holds at
    most 24 + 16(t-w)/t bytes per class, under 40 and 30.4 at (20, 12), plus
    a fixed term of chunk-sized build temporaries (at most 112 KB for
    t <= 18), as _swc_spectral shows; the budget still counts 2^(t-1) suffix
    states only so that every output stays the same.
    Raises ResourceLimitError when the bracket is still wider than tol after
    _MAX_POWER_ITER iterations.  A batch of one of swc_capacities_exact, so
    each window is solved once per process and tol.
    """
    return swc_capacities_exact([(t, w)], state_budget, tol)[t, w]


def swc_capacities_exact(
    windows: Iterable[tuple[int, int]],
    state_budget: int = DEFAULT_STATE_BUDGET,
    tol: float = SPECTRAL_TOL,
) -> dict[tuple[int, int], CapacityResult]:
    """swc_capacity_exact of every (t, w) in windows, keyed by window.

    Every window is checked before any work.  The windows with w < t that
    no earlier call has solved at this tol are then solved together in one
    power iteration (_swc_spectral) and kept in _SPECTRAL; a window solves
    to the same bits in any batch, so a kept answer is the one a fresh solve
    would give.
    """
    windows = sorted(set(windows))
    for t, w in windows:
        _check_swc_args(t, w, state_budget)
    todo = [(t, w) for t, w in windows if w < t and (t, w, tol) not in _SPECTRAL]
    for (t, w), (value, width) in zip(todo, _swc_spectral(todo, tol)):
        _SPECTRAL[t, w, tol] = CapacityResult(value=value, method="spectral", residual=width)
    return {
        (t, w): CapacityResult(value=0.0, method="closed-form") if w == t else _SPECTRAL[t, w, tol]
        for t, w in windows
    }


def _has_exact_route(t: int, w: int, state_budget: int) -> bool:
    """Whether swc_capacity answers (t, w) under the budget: a root, the full window or a solve."""
    return w in (1, t - 1) or _fits_budget(t, w, state_budget)


def swc_capacity(t: int, w: int, state_budget: int = DEFAULT_STATE_BUDGET) -> CapacityResult:
    """The exact (t, w) window capacity, by the one route each window has.

    The full window (t, t) is the closed-form zero.  A one-zero window
    (t, t - 1) is rll_capacity(t - 1), and a one-one window (t, 1) with
    t >= 3 is zero_run_capacity(t): both at any length, with no class graph
    and whatever the budget.  Every other window is swc_capacity_exact's
    spectral solve, which raises ResourceLimitError past the budget or past
    length _MAX_WINDOW; _has_exact_route says which windows are answered.

    Proof that the roots rate their windows exactly.  RLL(d) = SWC(d + 1, d),
    since both say that any two zeros are at least d ones apart, so the
    one-zero window (t, t - 1) has the run-length capacity with d = t - 1.
    A t-window holds a 1 exactly when no t zeros are in a row, so the
    one-one window (t, 1) is the zero-run rule whose root zero_run_capacity
    bisects.  (2, 1) is both, and takes the run-length root.
    """
    _check_pair(t, w, "swc")
    if w == t - 1:
        return rll_capacity(w)
    if w == 1 < t:
        return zero_run_capacity(t)
    return swc_capacity_exact(t, w, state_budget)


def swc_capacity_growth(
    t: int,
    w: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> CapacityResult:
    """Sliding-window capacity as the growth rate of the count sequence.

    Tracks log2 of per-state counts with a log-domain DP and estimates
    log2(M(n+1)/M(n)) until successive estimates settle within GROWTH_TOL.  Raises
    ResourceLimitError when they have not settled by length _MAX_GROWTH_N.
    Shares no code with the spectral route.
    """
    _check_swc_args(t, w, state_budget)
    if w == t:
        return CapacityResult(value=0.0, method="dp-growth")
    idx0, idx1 = _window_tables(t, w)
    # every (t-1)-bit prefix is valid, count 1; then the sentinel slot
    buf = np.zeros((1 << (t - 1)) + 1)
    buf[-1] = -np.inf
    logs = buf[:-1]

    def log_total(v: np.ndarray) -> float:
        # the maximum is finite: for w < t the all-ones state follows itself,
        # so its count stays at least 1
        top = v.max()
        return float(top + math.log2(np.exp2(v - top).sum()))

    prev_total = log_total(logs)
    est_prev = None
    streak = 0
    delta = math.inf
    for n in range(t, _MAX_GROWTH_N + 1):
        np.logaddexp2(buf[idx0], buf[idx1], out=logs)
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
