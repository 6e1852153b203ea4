"""Self-verification suites pitting independent routes against each other.

counts:       integer recurrences vs brute-force enumeration, and the
              per-subblock product rule.
equivalence:  run-length vs window set identities and containments.
bounds:       spectral vs growth-rate agreement and every capacity inequality.
outage:       feasibility conditions vs exact simulation, both directions.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import lru_cache

from .bounds import sandwich_bounds, swc_lower_bound
from .capacity import (
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
from .energy import EnergyModel, outage_occurs

MODEL_B_GRID = ("1/4", "1/2", "3/5", "3/4")
MODEL_EMAX_GRID = ("1/4", "1/2", "1", "3/2", "2", "3")

SLACK = 1e-8

# sequence-length cap of the enumeration-backed suites, and witness search cap
MAX_N = 16
REPS_CAP = 4096
# largest run length, window length and subblock length the suites try
MAX_D = 4
MAX_T = 6
MAX_L = 6


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@lru_cache(maxsize=None)
def _valid(spec: ConstraintSpec, n: int) -> tuple[str, ...]:
    return tuple(enumerate_sequences(spec, n))


# how the suites name a spec in check names and details
_SPEC_TEXT = {"rll": "rll d={}", "swc": "swc t={} w={}", "sec": "sec L={} w={}"}


def _spec_text(spec: ConstraintSpec) -> str:
    return _SPEC_TEXT[spec.family].format(*astuple(spec))


def _windows(max_t: int) -> list[SWC]:
    return [SWC(t, w) for t in range(1, max_t + 1) for w in range(1, t + 1)]


def _subblocks(max_l: int) -> list[SEC]:
    return [SEC(length, w) for length in range(1, max_l + 1) for w in range(1, length + 1)]


def _count_check(spec: ConstraintSpec, lengths: range, max_n: int) -> Check:
    bad = next((n for n in lengths if count_exact(spec, n) != len(_valid(spec, n))), None)
    return Check(
        name=f"counts: recurrence vs enumeration, {_spec_text(spec)}, n<={max_n}",
        passed=bad is None,
        detail="" if bad is None else f"first mismatch at n={bad}",
    )


def suite_counts(max_n: int = MAX_N) -> list[Check]:
    checks = [
        _count_check(spec, range(max_n + 1), max_n)
        for spec in [RLL(d) for d in range(1, MAX_D + 1)] + _windows(MAX_T)
    ]
    for spec in _subblocks(MAX_L):
        checks.append(_count_check(spec, range(0, max_n + 1, spec.length), max_n))
        block_words = len(_valid(spec, spec.length))
        product_ok = all(
            count_exact(spec, k * spec.length) == block_words**k for k in range(1, 4)
        )
        checks.append(
            Check(
                name=f"counts: product rule, {_spec_text(spec)}, k<=3",
                passed=product_ok,
                detail="" if product_ok else f"block words {block_words}",
            )
        )
    return checks


def suite_equivalence(max_n: int = MAX_N) -> list[Check]:
    checks = []
    for d in range(1, MAX_D + 1):
        bad = next(
            (
                n
                for n in range(max_n + 1)
                if not sets_equal(RLL(d), SWC(d + 1, d), n)
            ),
            None,
        )
        checks.append(
            Check(
                name=f"equivalence: rll d={d} is the window rule t={d + 1} w={d}, n<={max_n}",
                passed=bad is None,
                detail="" if bad is None else f"sets differ at n={bad}",
            )
        )
    for t in range(1, 5):
        for w in range(1, t + 1):
            for m in (1, 2):
                wide = SWC(t + m, w + m)
                narrow = SWC(t, w)
                # below t+m bits the wide rule is vacuous, so start there
                bad = next(
                    (
                        (n, s)
                        for n in range(t + m, min(max_n, 12) + 1)
                        for s in _valid(wide, n)
                        if not satisfies(narrow, s)
                    ),
                    None,
                )
                checks.append(
                    Check(
                        name=f"equivalence: window t={t + m} w={w + m} inside t={t} w={w}, n<=12",
                        passed=bad is None,
                        detail="" if bad is None else f"witness {bad[1]} at n={bad[0]}",
                    )
                )
    for t in range(1, 7):
        for w in range(1, t + 1):
            ok = sets_equal(SWC(t, w), SEC(t, w), t)
            checks.append(
                Check(
                    name=f"equivalence: window equals subblock at n=t, t={t} w={w}",
                    passed=ok,
                )
            )
    for t in range(1, 6):
        for w in range(1, t + 1):
            bad = next(
                (
                    (n, s)
                    for n in (t, 2 * t)
                    for s in _valid(SWC(t, w), n)
                    if not satisfies(SEC(t, w), s)
                ),
                None,
            )
            checks.append(
                Check(
                    name=f"equivalence: window inside subblock at multiples, t={t} w={w}",
                    passed=bad is None,
                    detail="" if bad is None else f"witness {bad[1]} at n={bad[0]}",
                )
            )
    differs = not sets_equal(SWC(4, 2), RLL(2), 6)
    checks.append(
        Check(
            name="equivalence: window t=4 w=2 is not a run-length rule (n=6)",
            passed=differs,
            detail="" if differs else "sets unexpectedly equal",
        )
    )
    return checks


def suite_bounds() -> list[Check]:
    checks = []

    worst = 0.0
    for t in range(1, 11):
        for w in range(1, t + 1):
            diff = abs(
                swc_capacity_exact(t, w).value - swc_capacity_growth(t, w).value
            )
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
        diff = abs(swc_capacity_exact(d + 1, d).value - rll_capacity(d).value)
        worst = max(worst, diff)
    checks.append(
        Check(
            name="bounds: window t=d+1 w=d matches run-length root, d<=9",
            passed=worst <= 1e-8,
            detail=f"worst |diff| = {worst:.3g}",
        )
    )

    bad = None
    for t in range(1, 6):
        for w in range(1, t + 1):
            base = swc_capacity_exact(t, w).value
            for m in range(1, 4):
                shifted = swc_capacity_exact(t + m, w + m).value
                scaled = swc_capacity_exact(t * m, w * m).value
                if shifted > base + SLACK or base > scaled + SLACK:
                    bad = (t, w, m, shifted, base, scaled)
                    break
    checks.append(
        Check(
            name="bounds: shift-down and scale-up window ordering, t<=5 m<=3",
            passed=bad is None,
            detail="" if bad is None else repr(bad),
        )
    )

    bad = None
    for t in range(1, 7):
        for w in range(1, t + 1):
            base = swc_capacity_exact(t, w).value
            for m in range(1, 4):
                if w + m <= t and swc_capacity_exact(t, w + m).value > base + SLACK:
                    bad = (t, w, m, "heavier weight should not raise capacity")
                    break
                if swc_capacity_exact(t + m, w).value + SLACK < base:
                    bad = (t, w, m, "wider window should not lower capacity")
                    break
    checks.append(
        Check(
            name="bounds: weight and window monotonicity, t<=6 m<=3",
            passed=bad is None,
            detail="" if bad is None else repr(bad),
        )
    )

    bad = None
    for t in range(1, 9):
        for w in range(1, t + 1):
            value = swc_capacity_exact(t, w).value
            lo, hi = sandwich_bounds(t, w)
            if not (lo - SLACK <= value <= hi + SLACK):
                bad = (t, w, lo, value, hi)
            if swc_lower_bound(t, w).value > value + SLACK:
                bad = (t, w, "composite lower bound above exact value")
    checks.append(
        Check(
            name="bounds: subblock sandwich and composite lower bound, t<=8",
            passed=bad is None,
            detail="" if bad is None else repr(bad),
        )
    )

    margins = [
        sec_one_zero_capacity(t).value - swc_capacity_exact(t, t - 1).value
        for t in range(2, 9)
    ]
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


def _outage_free_everywhere(spec: ConstraintSpec, model: EnergyModel, lengths) -> str | None:
    for n in lengths:
        for s in _valid(spec, n):
            if outage_occurs(s, model):
                return s
    return None


def _find_outage_witness(spec: ConstraintSpec, model: EnergyModel, reps_cap: int) -> str | None:
    reps = 1
    while reps <= reps_cap:
        s = adversarial_sequence(spec, model, reps)
        if outage_occurs(s, model):
            return s
        reps *= 2
    return None


# per family for the outage suite: the specs tried, and the lengths a
# feasible spec is swept over
_OUTAGE_GRID = (
    ([RLL(d) for d in range(1, MAX_D + 1)], lambda spec, max_n: range(spec.d + 1, max_n + 1)),
    (_windows(MAX_T), lambda spec, max_n: range(spec.t, max_n + 1)),
    (_subblocks(MAX_L), lambda spec, max_n: (spec.length, 2 * spec.length, 3 * spec.length)),
)


def suite_outage(max_n: int = MAX_N, reps_cap: int = REPS_CAP) -> list[Check]:
    """Feasibility conditions against simulation, in both directions.

    Feasible setups are sweep-checked over every valid sequence long enough
    for the constraint to bite (shorter sequences are vacuously valid and
    carry no outage guarantee).  Infeasible setups must yield a draining
    witness.
    """
    checks = []
    for b_str in MODEL_B_GRID:
        for e_str in MODEL_EMAX_GRID:
            model = EnergyModel.make(b_str, e_str)
            label = f"b={b_str} emax={e_str}"
            for specs, lengths in _OUTAGE_GRID:
                bad = None
                for spec in specs:
                    if spec._feasible(model):
                        witness = _outage_free_everywhere(spec, model, lengths(spec, max_n))
                        if witness is not None:
                            bad = f"feasible {_spec_text(spec)} outages on {witness}"
                            break
                    elif _find_outage_witness(spec, model, reps_cap) is None:
                        bad = f"infeasible {_spec_text(spec)} produced no outage witness"
                        break
                checks.append(
                    Check(
                        name=f"outage iff, {specs[0].family}, {label}",
                        passed=bad is None,
                        detail=bad or "",
                    )
                )
    return checks


SUITES = {
    "counts": suite_counts,
    "equivalence": suite_equivalence,
    "bounds": suite_bounds,
    "outage": suite_outage,
}


def run_suite(name: str, max_n: int | None = None, reps_cap: int | None = None) -> list[Check]:
    """Run one named suite, or all of them in order.

    max_n caps the sequence length of the counts, equivalence and outage
    suites, and reps_cap the outage suite's witness search; None keeps
    MAX_N and REPS_CAP.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    max_n = MAX_N if max_n is None else max_n
    reps_cap = REPS_CAP if reps_cap is None else reps_cap
    args = {"counts": (max_n,), "equivalence": (max_n,), "bounds": (), "outage": (max_n, reps_cap)}
    checks = []
    for key, suite in SUITES.items():
        if name in ("all", key):
            checks.extend(suite(*args[key]))
    return checks
