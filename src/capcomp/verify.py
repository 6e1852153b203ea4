"""Self-verification suites pitting independent routes against each other.

counts:       exact counts vs brute-force enumeration, and the per-subblock
              product rule.  The counts come from the capacities' own
              formulas: the run-length characteristic recurrence, powers of
              the subblock sum, and the growth route's predecessor tables,
              so this checks all three.
equivalence:  run-length vs window set identities and containments.
bounds:       spectral vs growth-rate agreement and every capacity inequality.
outage:       feasibility conditions vs exact simulation, both directions.

Most checks follow one rule, built by _first_failure: a check passes when
its scan finds no failure, and its detail names the first failure in scan
order.  The scans are lazy generators, so each stops at its first failure;
in the outage suite an infeasible spec's witness is not searched once an
earlier spec of its family has failed.  The other checks report a measure
whatever the outcome (a worst difference, a least margin), carry no
detail, or test one fixed fact.

The brute-force side of counts, equivalence and outage runs on numpy arrays
of n-bit words (see constraints): the valid words of each (spec, n) are
enumerated once and cached, then tested against another family's word rule
or the batched battery kernel all at once.  The outage suite sweeps a
subblock spec's words as products of its valid L-bit blocks, which are
never concatenated: the kernel steps each block prefix once for all the
words that share it, and a witness is rebuilt from its index.  The count
checks keep the filter.  The outage suite sweeps each spec once, at its
longest length, for all the grid models it is feasible under, in one
kernel call: an outage at a shorter length shows there too, and only a
model that outages is swept again, by ascending length, for its first
witness (see _first_outages).  An infeasible setup's draining witness is
built once, at the length proved to suffice (see _find_outage_witness).
The bounds suite solves every window it reads in one batched power
iteration.  A witness is formatted as a bit string only on failure, and it
is the first failing word in ascending order, which is the first failing
string in lexicographic order.

max_n, the length cap of the enumeration-backed suites, is the one setting
of run_suite; the other limits are module constants.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .bounds import sandwich_bounds, swc_lower_bound
from .capacity import (
    rll_capacity,
    sec_capacity,
    sec_one_zero_capacity,
    swc_capacities_exact,
    swc_capacity_growth,
)
from .constraints import (
    DEFAULT_ENUM_LIMIT,
    RLL,
    SEC,
    SWC,
    ConstraintSpec,
    _word_text,
    _words,
    adversarial_sequence,
    count_exact,
)
from .energy import EnergyModel, _outage_words, outage_occurs
from .errors import ResourceLimitError

MODEL_B_GRID = ("1/4", "1/2", "3/5", "3/4")
MODEL_EMAX_GRID = ("1/4", "1/2", "1", "3/2", "2", "3")

SLACK = 1e-8

# default sequence-length cap of the enumeration-backed suites
MAX_N = 16
# largest run length, window length and subblock length the suites try
MAX_D = 4
MAX_T = 6
MAX_L = 6


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _first_failure(name: str, failures: Iterable, describe: Callable = repr) -> Check:
    """The check named name: passed when failures is empty, else detailing its first item.

    Only the first item is drawn, so a lazy scan stops at its first failure.
    """
    bad = next(iter(failures), None)
    return Check(name, bad is None, "" if bad is None else describe(bad))


@lru_cache(maxsize=None)
def _valid(spec: ConstraintSpec, n: int) -> np.ndarray:
    words = _words(spec, n)
    words.flags.writeable = False  # shared by every caller through the cache
    return words


def _same(spec_a: ConstraintSpec, spec_b: ConstraintSpec, n: int) -> bool:
    return np.array_equal(_valid(spec_a, n), _valid(spec_b, n))


def _witnesses(
    inner: ConstraintSpec, outer: ConstraintSpec, lengths: Iterable[int]
) -> Iterator[str]:
    """Per length, the first valid sequence of inner that outer rejects, as text.

    Yields "witness <bits> at n=<n>" for each length, in order, that has such
    a word; the lengths after one are enumerated only on demand.
    """
    for n in lengths:
        words = _valid(inner, n)
        marked = np.flatnonzero(~outer._accepts_words(words, n))
        if marked.size:
            yield f"witness {_word_text(int(words[marked[0]]), n)} at n={n}"


# how the suites name a spec in check names and details
_SPEC_TEXT = {"rll": "rll d={}", "swc": "swc t={} w={}", "sec": "sec L={} w={}"}


def _spec_text(spec: ConstraintSpec) -> str:
    return _SPEC_TEXT[spec.family].format(*astuple(spec))


def _windows(max_t: int) -> list[SWC]:
    return [SWC(t, w) for t in range(1, max_t + 1) for w in range(1, t + 1)]


def _subblocks(max_l: int) -> list[SEC]:
    return [SEC(length, w) for length in range(1, max_l + 1) for w in range(1, length + 1)]


# the nested-window equivalence checks: each wide window (t+m, w+m), m = 1, 2,
# against the narrow (t, w) it lies inside, for t <= 4
_NESTED_WINDOWS = [
    (SWC(t + m, w + m), SWC(t, w)) for t in range(1, 5) for w in range(1, t + 1) for m in (1, 2)
]


def _count_check(spec: ConstraintSpec, lengths: range, max_n: int) -> Check:
    return _first_failure(
        f"counts: recurrence vs enumeration, {_spec_text(spec)}, n<={max_n}",
        (n for n in lengths if count_exact(spec, n) != len(_valid(spec, n))),
        "first mismatch at n={}".format,
    )


def suite_counts(max_n: int = MAX_N) -> list[Check]:
    checks = [
        _count_check(spec, range(max_n + 1), max_n)
        for spec in [RLL(d) for d in range(1, MAX_D + 1)] + _windows(MAX_T)
    ]
    for spec in _subblocks(MAX_L):
        checks.append(_count_check(spec, range(0, max_n + 1, spec.length), max_n))
        block_words = len(_valid(spec, spec.length))
        checks.append(
            _first_failure(
                f"counts: product rule, {_spec_text(spec)}, k<=3",
                (
                    f"block words {block_words}"
                    for k in range(1, 4)
                    if count_exact(spec, k * spec.length) != block_words**k
                ),
                str,
            )
        )
    return checks


def suite_equivalence(max_n: int = MAX_N) -> list[Check]:
    checks = []
    for d in range(1, MAX_D + 1):
        checks.append(
            _first_failure(
                f"equivalence: rll d={d} is the window rule t={d + 1} w={d}, n<={max_n}",
                (n for n in range(max_n + 1) if not _same(RLL(d), SWC(d + 1, d), n)),
                "sets differ at n={}".format,
            )
        )
    for wide, narrow in _NESTED_WINDOWS:
        # below wide.t bits the wide rule is vacuous, so start there
        checks.append(
            _first_failure(
                f"equivalence: window t={wide.t} w={wide.w} inside "
                f"t={narrow.t} w={narrow.w}, n<=12",
                _witnesses(wide, narrow, range(wide.t, min(max_n, 12) + 1)),
                str,
            )
        )
    for t in range(1, 7):
        for w in range(1, t + 1):
            ok = _same(SWC(t, w), SEC(t, w), t)
            checks.append(
                Check(
                    name=f"equivalence: window equals subblock at n=t, t={t} w={w}",
                    passed=ok,
                )
            )
    for t in range(1, 6):
        for w in range(1, t + 1):
            checks.append(
                _first_failure(
                    f"equivalence: window inside subblock at multiples, t={t} w={w}",
                    _witnesses(SWC(t, w), SEC(t, w), (t, 2 * t)),
                    str,
                )
            )
    differs = not _same(SWC(4, 2), RLL(2), 6)
    checks.append(
        Check(
            name="equivalence: window t=4 w=2 is not a run-length rule (n=6)",
            passed=differs,
            detail="" if differs else "sets unexpectedly equal",
        )
    )
    return checks


# every window whose exact capacity suite_bounds reads: all t <= 10, which
# covers its shifted, widened and one-zero windows too, and the scale-ups
_BOUNDS_WINDOWS = [
    *((t, w) for t in range(1, 11) for w in range(1, t + 1)),
    *((t * m, w * m) for t in range(1, 6) for w in range(1, t + 1) for m in (2, 3)),
]


def suite_bounds() -> list[Check]:
    # one power iteration solves every window the checks read
    exact = {key: result.value for key, result in swc_capacities_exact(_BOUNDS_WINDOWS).items()}
    checks = []

    worst = 0.0
    for t in range(1, 11):
        for w in range(1, t + 1):
            diff = abs(exact[t, w] - swc_capacity_growth(t, w).value)
            worst = max(worst, diff)
    checks.append(
        Check(
            name="bounds: spectral vs growth route, t<=10",
            passed=worst <= 1e-6,
            detail=f"worst |diff| = {worst:.3g}",
        )
    )

    worst = 0.0
    for d in range(1, 10):
        diff = abs(exact[d + 1, d] - rll_capacity(d).value)
        worst = max(worst, diff)
    checks.append(
        Check(
            name="bounds: window t=d+1 w=d matches run-length root, d<=9",
            passed=worst <= 1e-8,
            detail=f"worst |diff| = {worst:.3g}",
        )
    )

    # the failures of the next three checks, in loop order
    def ordering_failures():
        for t in range(1, 6):
            for w in range(1, t + 1):
                base = exact[t, w]
                for m in range(1, 4):
                    shifted = exact[t + m, w + m]
                    scaled = exact[t * m, w * m]
                    if shifted > base + SLACK or base > scaled + SLACK:
                        yield t, w, m, shifted, base, scaled

    def monotonicity_failures():
        for t in range(1, 7):
            for w in range(1, t + 1):
                base = exact[t, w]
                for m in range(1, 4):
                    if w + m <= t and exact[t, w + m] > base + SLACK:
                        yield t, w, m, "heavier weight should not raise capacity"
                    if exact[t + m, w] + SLACK < base:
                        yield t, w, m, "wider window should not lower capacity"

    def sandwich_failures():
        for t in range(1, 9):
            for w in range(1, t + 1):
                value = exact[t, w]
                lo, hi = sandwich_bounds(t, w)
                if not (lo - SLACK <= value <= hi + SLACK):
                    yield t, w, lo, value, hi
                if swc_lower_bound(t, w).value > value + SLACK:
                    yield t, w, "composite lower bound above exact value"

    for name, failures in (
        ("bounds: shift-down and scale-up window ordering, t<=5 m<=3", ordering_failures),
        ("bounds: weight and window monotonicity, t<=6 m<=3", monotonicity_failures),
        ("bounds: subblock sandwich and composite lower bound, t<=8", sandwich_failures),
    ):
        checks.append(_first_failure(name, failures()))

    margins = [sec_one_zero_capacity(t).value - exact[t, t - 1] for t in range(2, 9)]
    checks.append(
        Check(
            name="bounds: one-zero subblock strictly beats the window rule, t<=8",
            passed=min(margins) > 1e-6,
            detail=f"min margin = {min(margins):.3g}",
        )
    )

    agree = all(
        abs(sec_one_zero_capacity(t).value - sec_capacity(t, t - 1).value) <= 1e-12
        for t in range(2, 21)
    )
    one_zero = [sec_one_zero_capacity(t).value for t in range(2, 21)]
    decreasing = all(a > b for a, b in zip(one_zero, one_zero[1:]))
    checks.append(
        Check(
            name="bounds: one-zero closed form agrees and strictly decreases, t<=20",
            passed=agree and decreasing,
            detail=f"agree={agree} decreasing={decreasing}",
        )
    )

    rll = [rll_capacity(d).value for d in range(1, 11)]
    checks.append(
        Check(
            name="bounds: run-length capacity strictly decreases, d<=10",
            passed=all(a > b for a, b in zip(rll, rll[1:])),
        )
    )
    return checks


def _product_word(blocks: np.ndarray, size: int, repeat: int, index: int | np.ndarray):
    """Swept word index of the product of repeat size-bit words from blocks, as an integer.

    The digits of index in base len(blocks), most significant first, pick
    the blocks, which are the digits of the word in base 2^size: the order
    _outage_words sweeps a product in.  index may be an array of indices.
    """
    digits = np.unravel_index(index, (len(blocks),) * repeat)
    return np.ravel_multi_index([blocks[digit] for digit in digits], (1 << size,) * repeat)


def _first_outages(
    spec: ConstraintSpec, models: list[EnergyModel], lengths: Sequence[int]
) -> list[str | None]:
    """Per model, the first valid sequence of spec, by length then word, that drains it.

    The lengths ascend.  One battery kernel call sweeps the last of them
    for every model; None where none of its words hits an outage, which by
    the proof below means that no valid word of any of the lengths does.
    Only the marked models are swept again, by ascending length and in one
    call per length over those without a witness yet, so each detail names
    the first witness: the word at the first marked index, which
    _product_word rebuilds.  A passing sweep thus makes one kernel call.

    A subblock spec's n-bit words are swept as the products of its valid
    L-bit blocks: its rule tests each aligned block alone, so these are
    exactly the words the filter keeps, and in the same ascending order.
    The other families' valid n-bit words are swept whole.

    Proof that an outage at any swept length shows at the longest one.
    Every family's rule is extension-closed over the lengths swept: a valid
    word with a 1 appended is valid one bit longer for RLL from d + 1 bits
    (the new bit is no zero, so no two zeros come closer) and for SWC from
    t bits (the new window drops one bit of the last window, of weight at
    least w, and gains a 1), and a valid SEC word with an all-ones subblock
    appended is valid at the next multiple of L.  So a valid word of a
    swept length n, padded with ones to the longest length, is valid there.
    The battery recursion is causal and the kernel never clears a mark, so
    the padded word is marked whenever the n-bit word is: its first n steps
    are the same.
    """

    def sweep(n: int, batch: list[EnergyModel]) -> tuple[np.ndarray, int, np.ndarray]:
        # the marks of the valid n-bit words, swept as products of size-bit blocks
        size = spec.length if isinstance(spec, SEC) else n
        blocks = _valid(spec, size)
        return blocks, size, _outage_words(blocks, size, batch, n // size)[0]

    marked = sweep(lengths[-1], models)[2]
    witnesses: list[str | None] = [None] * len(models)
    rows = np.flatnonzero(marked.any(axis=1)).tolist()
    for n in lengths:
        if not rows:
            break
        blocks, size, marked = sweep(n, [models[i] for i in rows])
        for i, row in zip(rows, marked):
            if row.any():
                witnesses[i] = _word_text(_product_word(blocks, size, n // size, row.argmax()), n)
        rows = [i for i in rows if witnesses[i] is None]
    return witnesses


def _find_outage_witness(spec: ConstraintSpec, model: EnergyModel) -> str | None:
    """start + 1 periods of the adversarial sequence of spec, if they drain the battery.

    start = model._scaled[3] is e_init in units of 1/den.  None means that no
    number of periods drains it, by the proof below.

    Proof that start + 1 periods drain whenever any number does.  Each step
    E -> min(E + x, cap) is nondecreasing in E, so a period that runs
    outage-free from level e runs outage-free from any e' >= e, ending no
    lower: the period-end map f is nondecreasing where it is defined.  Let
    e_0 = start and e_k = f(e_{k-1}) while the periods run outage-free.  If
    e_1 >= e_0, then by induction every period starts at least as high as
    the first and ends no lower, so no outage ever happens.  Otherwise the
    e_k are nonincreasing integers >= 0, since f(e_k) <= f(e_{k-1}) when
    e_k <= e_{k-1}; once two consecutive ones are equal the run is periodic
    and outage-free.  So while the run is outage-free they strictly
    decrease, and e_0 > e_1 > ... > e_k >= 0 allows k <= start: an outage,
    if there is one, comes within start + 1 periods.
    """
    bits = adversarial_sequence(spec, model, model._scaled[3] + 1)
    return bits if outage_occurs(bits, model) else None


# per family for the outage suite: the specs tried, and the lengths a
# feasible spec is swept over
_OUTAGE_GRID = (
    ([RLL(d) for d in range(1, MAX_D + 1)], lambda spec, max_n: range(spec.d + 1, max_n + 1)),
    (_windows(MAX_T), lambda spec, max_n: range(spec.t, max_n + 1)),
    (_subblocks(MAX_L), lambda spec, max_n: (spec.length, 2 * spec.length, 3 * spec.length)),
)

# the least max_n at which every length sweep covers a length: the outage
# suite sweeps RLL(d) from n = d + 1 and SWC(t, w) from n = t, and the
# nested-window checks from the wide window's t (the subblock sweeps run at
# fixed multiples of L, whatever max_n)
_MIN_MAX_N = max(MAX_D + 1, MAX_T, *(wide.t for wide, _ in _NESTED_WINDOWS))


def suite_outage(max_n: int = MAX_N) -> list[Check]:
    """Feasibility conditions against simulation, in both directions.

    Feasible setups are sweep-checked over every valid sequence long enough
    for the constraint to bite (shorter sequences are vacuously valid and
    carry no outage guarantee).  Infeasible setups must yield a draining
    witness.
    """
    models = {
        f"b={b_str} emax={e_str}": EnergyModel.make(b_str, e_str)
        for b_str in MODEL_B_GRID
        for e_str in MODEL_EMAX_GRID
    }
    # the first outage witness, or None, of every feasible (spec, model label) pair
    sweeps: dict[tuple[ConstraintSpec, str], str | None] = {}
    for specs, lengths in _OUTAGE_GRID:
        for spec in specs:
            feasible = {label: model for label, model in models.items() if spec._feasible(model)}
            if feasible:
                witnesses = _first_outages(spec, list(feasible.values()), lengths(spec, max_n))
                sweeps.update(zip(((spec, label) for label in feasible), witnesses))

    def failures(specs: list[ConstraintSpec], label: str, model: EnergyModel) -> Iterator[str]:
        # an infeasible spec's witness is searched only once the specs before it pass
        for spec in specs:
            if (spec, label) in sweeps:
                if sweeps[spec, label] is not None:
                    yield f"feasible {_spec_text(spec)} outages on {sweeps[spec, label]}"
            elif _find_outage_witness(spec, model) is None:
                yield f"infeasible {_spec_text(spec)} produced no outage witness"

    return [
        _first_failure(
            f"outage iff, {specs[0].family}, {label}", failures(specs, label, model), str
        )
        for label, model in models.items()
        for specs, _ in _OUTAGE_GRID
    ]


SUITES = {
    "counts": suite_counts,
    "equivalence": suite_equivalence,
    "bounds": suite_bounds,
    "outage": suite_outage,
}


def run_suite(name: str, max_n: int | None = None) -> list[Check]:
    """Run one named suite, or all of them in order.

    max_n caps the sequence length of the counts, equivalence and outage
    suites; None keeps MAX_N.  It is the one setting: the witness length is
    proved, and every other limit is a module constant.  A max_n below the
    longest spec a length sweep covers raises ValueError, since those suites
    would pass on an empty range.  A max_n above DEFAULT_ENUM_LIMIT raises
    ResourceLimitError before any work: no suite enumerates words longer
    than max(max_n, 10) bits, so only max_n can pass the limit.  The outage
    suite enumerates a subblock spec's L-bit blocks alone, L <= 6, and
    sweeps their 3L-bit products without building them; the 10 bits are the
    equivalence suite's window checks at n = 2t, t <= 5, whatever max_n.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    max_n = MAX_N if max_n is None else max_n
    if max_n < _MIN_MAX_N:
        raise ValueError(
            f"max_n must be >= {_MIN_MAX_N} so that every length sweep covers a length, "
            f"got {max_n}"
        )
    if max_n > DEFAULT_ENUM_LIMIT:
        raise ResourceLimitError(
            f"max_n must be <= {DEFAULT_ENUM_LIMIT}, the enumeration limit, got {max_n}"
        )
    checks = []
    for key, suite in SUITES.items():
        if name in ("all", key):
            checks.extend(suite() if key == "bounds" else suite(max_n))
    return checks
