"""Acceptance gate: the nine required behaviours, one pass/fail line each.

Each test prints exactly one line, ACCEPTANCE <n> (<what>): PASS or FAIL,
and fails with the list of violations.  Tolerances are pinned in-line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import csv
import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from capcomp import (
    RLL,
    SWC,
    EnergyModel,
    binary_entropy,
    cli,
    o_sec_lower_explicit,
    rll_capacity,
    run_suite,
    sec_capacity,
    sets_equal,
    swc_capacity_exact,
    swc_capacity_growth,
)

mpmath.mp.dps = 50

# the benchmark's reference sweep CSVs, read only
REF = Path(__file__).resolve().parents[1] / "perfbench" / "ref"


def _report(num: int, what: str, problems: list[str]) -> None:
    verdict = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num} ({what}): {verdict}")
    assert not problems, f"criterion {num}: " + "; ".join(problems[:8])


def _high_precision_run_length_root(d: int) -> float:
    """log2 of the positive root of x^(d+1) - x^d - 1, via mpmath at 50 digits."""
    coeffs = [1, -1] + [0] * (d - 1) + [-1]
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=100)
    root = max(r.real for r in roots if abs(r.imag) < mpmath.mpf("1e-40"))
    return float(mpmath.log(root) / mpmath.log(2))


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reference_problems(path, ref_name: str) -> list[str]:
    """Cells of a sweep CSV that the benchmark's rule rejects against its reference.

    Every cell must equal the reference byte for byte, except that an o_swc
    the reference tags lower-bound may rise (and become exact), never fall.
    """
    rows, ref_rows = _read_rows(path), _read_rows(REF / ref_name)
    if len(rows) != len(ref_rows) or (rows and list(rows[0]) != list(ref_rows[0])):
        return [f"{len(rows)} rows and header differ from {ref_name}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        swc = ("o_swc", "o_swc_method") if ref["o_swc_method"] == "lower-bound" else ()
        bad = [key for key in ref if key not in swc and row[key] != ref[key]]
        if swc and (
            row["o_swc_method"] not in ("exact", "lower-bound")
            or float(row["o_swc"]) < float(ref["o_swc"])
        ):
            bad.append("o_swc")
        if bad:
            problems.append(f"row {ref['param']}: {', '.join(bad)} differ from {ref_name}")
    return problems


def test_criterion_1_closed_form_anchors():
    problems = []
    t0 = time.perf_counter()
    for d, printed, tol_printed in ((1, 0.694242, 1e-5), (2, 0.551463, 1e-5)):
        got = rll_capacity(d).value
        oracle = _high_precision_run_length_root(d)
        if abs(got - printed) > tol_printed:
            problems.append(f"rll({d}) = {got} vs printed {printed}")
        if abs(got - oracle) > 1e-9:
            problems.append(f"rll({d}) = {got} vs 50-digit root {oracle}")
    got = sec_capacity(2, 1).value
    oracle = float(mpmath.log(3) / mpmath.log(2) / 2)
    if abs(got - oracle) > 1e-9:
        problems.append(f"sec(2,1) = {got} vs log2(3)/2 = {oracle}")
    total = sum(math.comb(20, i) for i in range(12, 21))
    if total != 263950:
        problems.append(f"binomial tail sum {total} != 263950")
    got = sec_capacity(20, 12).value
    oracle = float(mpmath.log(263950) / mpmath.log(2) / 20)
    if abs(got - oracle) > 1e-6:
        problems.append(f"sec(20,12) = {got} vs log2(263950)/20 = {oracle}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(1, "closed-form anchors, <1s", problems)


def test_criterion_2_run_length_equals_window_rule():
    problems = []
    t0 = time.perf_counter()
    for d in (1, 2, 3, 4):
        for n in range(17):
            if not sets_equal(RLL(d), SWC(d + 1, d), n):
                problems.append(f"sets differ for d={d} at n={n}")
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    _report(2, "run-length vs window set identity, n<=16, <30s", problems)


def test_criterion_3_counts_match_enumeration_and_product_rule():
    checks = run_suite("counts")
    problems = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    _report(3, "exact counts vs enumeration, subblock product rule", problems)


def test_criterion_4_spectral_agrees_with_growth_and_roots():
    problems = []
    for t in range(1, 11):
        for w in range(1, t + 1):
            diff = abs(
                swc_capacity_exact(t, w).value - swc_capacity_growth(t, w).value
            )
            if diff > 1e-6:
                problems.append(f"swc({t},{w}) spectral vs growth diff {diff:.3g}")
    for d in range(1, 10):
        diff = abs(swc_capacity_exact(d + 1, d).value - rll_capacity(d).value)
        if diff > 1e-8:
            problems.append(f"swc({d + 1},{d}) vs rll({d}) diff {diff:.3g}")
    _report(4, "spectral vs growth (1e-6) and vs run-length roots (1e-8)", problems)


def test_criterion_5_inequality_suites_hold():
    checks = run_suite("bounds")
    problems = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    _report(5, "sandwich, composite, strictness and monotonicity suites", problems)


def test_criterion_6_feasibility_iff_no_outage():
    t0 = time.perf_counter()
    checks = run_suite("outage")
    elapsed = time.perf_counter() - t0
    problems = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    _report(6, "feasible iff outage-free, full grid, <2min", problems)


def test_criterion_7_rate_vs_buffer_sweep(tmp_path):
    path = tmp_path / "sweep_emax.csv"
    rc = cli.main(
        ["sweep", "--vary", "emax", "--b", "3/5",
         "--from", "0", "--to", "12", "--step", "1/10", "--out", str(path)]
    )
    rows = _read_rows(path)
    problems = []
    if rc != 0 or len(rows) != 121:
        problems.append(f"rc={rc}, {len(rows)} rows, expected 121")
    ceiling = 0.9709505944546686
    prev_swc = prev_sec = prev_gap = -1.0
    for k, row in enumerate(rows):
        e_max = Fraction(k, 10)
        rll_cell = "0.000000" if e_max < Fraction(3, 5) else "0.551463"
        if row["o_rll"] != rll_cell:
            problems.append(f"row {k}: o_rll {row['o_rll']} != {rll_cell}")
        if e_max < Fraction(6, 5) and row["o_sec"] != "0.000000":
            problems.append(f"row {k}: o_sec {row['o_sec']} != 0 below 6/5")
        if e_max == Fraction(6, 5) and row["o_sec"] != "0.666667":
            problems.append(f"row {k}: o_sec {row['o_sec']} != 0.666667 at 6/5")
        if row["ceiling"] != "0.970951":
            problems.append(f"row {k}: ceiling {row['ceiling']}")
        o_rll, o_swc, o_sec = (
            float(row["o_rll"]), float(row["o_swc"]), float(row["o_sec"])
        )
        if o_swc < prev_swc - 1e-9 or o_sec < prev_sec - 1e-9:
            problems.append(f"row {k}: a curve decreased")
        if o_swc < o_rll - 1e-8:
            problems.append(f"row {k}: o_swc {o_swc} below o_rll {o_rll}")
        if max(o_rll, o_swc, o_sec) > ceiling + 1e-9:
            problems.append(f"row {k}: value above the entropy ceiling")
        if e_max >= Fraction(6, 5):
            gap = o_sec - o_rll
            if gap <= 0:
                problems.append(f"row {k}: gap {gap} not strictly positive")
            if gap < prev_gap - 1e-9:
                problems.append(f"row {k}: gap decreased")
            prev_gap = gap
        prev_swc, prev_sec = o_swc, o_sec
    if path.read_bytes() != (REF / "sweep_emax.csv").read_bytes():
        problems.append("CSV differs from the benchmark reference sweep_emax.csv")
    _report(7, "rate vs buffer sweep at b=3/5", problems)


def test_criterion_8_rate_vs_draw_sweep(tmp_path):
    path = tmp_path / "sweep_b.csv"
    rc = cli.main(
        ["sweep", "--vary", "b", "--emax", "10",
         "--from", "1/20", "--to", "19/20", "--step", "1/20", "--out", str(path)]
    )
    rows = _read_rows(path)
    problems = []
    if rc != 0 or len(rows) != 19:
        problems.append(f"rc={rc}, {len(rows)} rows, expected 19")
    plateau = [1] * 10 + [2, 2, 2, 3, 3, 4, 6, 9, 19]
    for k, row in enumerate(rows, start=1):
        b = Fraction(k, 20)
        d = math.ceil(b / (1 - b))
        if d != plateau[k - 1]:
            problems.append(f"b={b}: derived d={d} != expected {plateau[k - 1]}")
        rll_cell = f"{rll_capacity(d).value:.6f}"
        if row["o_rll"] != rll_cell:
            problems.append(f"b={b}: o_rll {row['o_rll']} != {rll_cell}")
        h = binary_entropy(max(float(b), 0.5))
        if abs(float(row["ceiling"]) - h) > 1e-6:
            problems.append(f"b={b}: ceiling {row['ceiling']} != h = {h:.6f}")
        if b <= Fraction(1, 2) and row["ceiling"] != "1.000000":
            problems.append(f"b={b}: ceiling below one half must print 1.000000")
        o_rll, o_swc, o_sec = (
            float(row["o_rll"]), float(row["o_swc"]), float(row["o_sec"])
        )
        if max(o_rll, o_swc, o_sec) > h + 1e-9:
            problems.append(f"b={b}: value above the entropy ceiling")
        if o_swc < o_rll - 1e-8:
            problems.append(f"b={b}: o_swc {o_swc} below o_rll {o_rll}")
        if o_sec - o_rll <= 1e-6:  # 10 >= 2b and o_rll > 0 on the whole grid
            problems.append(f"b={b}: subblock gap {o_sec - o_rll} not strict")
    problems += _reference_problems(path, "sweep_b.csv")
    _report(8, "rate vs draw sweep at e_max=10", problems)


def test_criterion_9_explicit_bound_near_ceiling():
    res = o_sec_lower_explicit(EnergyModel.make("3/5", "200"))
    problems = []
    if res.value < 0.95:
        problems.append(f"explicit lower bound {res.value} < 0.95")
    if res.ceiling - res.value > 0.021:
        problems.append(f"bound sits {res.ceiling - res.value:.4f} below the ceiling")
    _report(9, "large-buffer explicit bound within 0.021 of the ceiling", problems)
