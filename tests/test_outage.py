"""Outage-free rate optimizers and their guarantees."""

import contextlib
import io
import json
import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capcomp import (
    SWC,
    EnergyModel,
    NoWitnessError,
    ResourceLimitError,
    adversarial_sequence,
    capacity,
    cli,
    feasible_sec_candidates,
    feasible_swc_candidates,
    gap_report,
    o_rll,
    o_sec,
    o_sec_lower_explicit,
    o_swc,
    o_swc_lower_explicit,
    outage,
    rll_capacity,
    sec_capacity,
    sec_feasible,
    swc_capacity,
    swc_capacity_exact,
    swc_feasible,
)
from capcomp.bounds import DEFAULT_M_MAX
from capcomp.capacity import DEFAULT_STATE_BUDGET, _fits_budget
from capcomp.outage import _best, _swc_fallback

B_GRID = ("1/4", "1/2", "3/5", "3/4")
EMAX_GRID = ("1/4", "1/2", "1", "3/2", "2", "3")


def model(b, e_max):
    return EnergyModel.make(b, e_max)


class TestRunLength:
    def test_known_optimum(self):
        res = o_rll(model("3/5", "3"))
        assert res.params == (2,)
        assert abs(res.value - rll_capacity(2).value) < 1e-15
        assert res.method == "exact"

    def test_zero_when_buffer_below_draw(self):
        res = o_rll(model("3/5", "1/2"))
        assert res.value == 0.0 and res.params is None

    def test_constant_in_buffer_size(self):
        assert o_rll(model("3/5", "1")).value == o_rll(model("3/5", "100")).value


class TestWindow:
    def test_zero_when_buffer_below_draw(self):
        res = o_swc(model("3/5", "1/2"))
        assert res.value == 0.0 and res.params is None and res.method == "exact"

    def test_equals_run_length_on_small_buffers(self):
        # with room for a single zero the best window is the run-length one
        for e_max in ("3/5", "1", "11/10"):
            res = o_swc(model("3/5", e_max))
            assert res.params == (3, 2)
            assert abs(res.value - o_rll(model("3/5", e_max)).value) <= 1e-8

    def test_beats_run_length_with_more_buffer(self):
        res = o_swc(model("3/5", "3"))
        assert res.params == (13, 8)
        assert res.method == "exact"
        assert res.value > o_rll(model("3/5", "3")).value + 1e-3

    def test_budget_fallback_is_a_lower_bound(self):
        m = model("3/5", "3")
        exact = o_swc(m)
        capped = o_swc(m, state_budget=1 << 4)
        assert capped.method == "lower-bound"
        assert capped.value <= exact.value + 1e-9

    def test_achieving_params_are_feasible(self):
        for e_max in ("1", "2", "3"):
            m = model("3/5", e_max)
            res = o_swc(m)
            assert res.params is not None and swc_feasible(*res.params, m)
            with pytest.raises(NoWitnessError):
                adversarial_sequence(SWC(*res.params), m, 4)


class TestZeroCountSkip:
    """o_swc solves each zero count T - w once, at its shortest window."""

    @pytest.mark.parametrize("e_max", ["1/2", "1", "6/5", "5/2", "10"])
    def test_matches_an_argmax_that_solves_every_candidate(self, e_max):
        budget = 1 << 12
        rate = partial(outage._swc_rate, state_budget=budget)

        for k in range(1, 20):
            m = model(Fraction(k, 20), e_max)
            expect = _best(m, feasible_swc_candidates(m), rate)
            got = o_swc(m, state_budget=budget)
            assert (got.value, got.params, got.method) == (
                expect.value, expect.params, expect.method
            ), (k, e_max)

    def test_longer_window_brackets_lie_strictly_below(self):
        # the certified bracket of (T', T' - z) lies strictly below that of
        # (T, T - z) for T < T', so no rounding can reorder the two midpoints
        def bracket(t, w):
            res = swc_capacity_exact(t, w)
            return res.value - res.residual / 2, res.value + res.residual / 2

        for t in range(2, 16):
            for z in range(1, t):
                lo, _ = bracket(t, t - z)
                for longer in range(t + 1, 17):
                    _, hi = bracket(longer, longer - z)
                    assert hi < lo, (t, longer, z)

    @staticmethod
    def _solved_windows(monkeypatch, *argv):
        # callers request cold_caches, so that every solve runs and is seen
        solved = []
        follower_classes = capacity._follower_classes

        def record(windows):
            solved.extend(windows)
            return follower_classes(windows)

        monkeypatch.setattr(capacity, "_follower_classes", record)
        assert cli.main(["sweep", *argv]) == 0
        return solved

    def test_rate_vs_buffer_sweep_solves_one_window_per_zero_count(
        self, monkeypatch, capsys, cold_caches
    ):
        solved = self._solved_windows(
            monkeypatch,
            "--vary", "emax", "--b", "3/5", "--from", "0", "--to", "12", "--step", "1/10",
        )
        capsys.readouterr()
        # the one-zero window (3, 2) is rated by its run-length root, unsolved
        windows = [(5, 3), (8, 5), (10, 6), (13, 8), (15, 9), (18, 11), (20, 12)]
        assert sorted(solved) == windows
        assert len(capacity._SPECTRAL) == len(windows)
        # 121 rows, but only 21 values of floor(e_max / b) and 11 of
        # floor(e_max / (2b)): each optimum is computed once per value
        assert outage._o_swc.cache_info().misses == 21
        assert outage._o_sec.cache_info().misses == 11

    def test_highest_draw_skips_the_longer_one_zero_window(
        self, monkeypatch, capsys, cold_caches
    ):
        solved = self._solved_windows(
            monkeypatch,
            "--vary", "b", "--emax", "10", "--from", "19/20", "--to", "19/20", "--step", "1/20",
        )
        capsys.readouterr()
        # (20, 19) is rated by its run-length root, and (21, 20) is skipped;
        # every window of two or more zeros is past the budget
        assert solved == []

    def test_dominated_fallbacks_are_not_bounded(self, monkeypatch, cold_caches):
        # past the budget, a window whose zero count was rated exactly at a
        # shorter length can neither win nor make the optimum inexact; past
        # the split range, T > (DEFAULT_M_MAX + 1) * z, only the first window
        # of each zero count z is bounded, as the bounds fall with T there
        bounded = []

        def record(t, w):
            bounded.append((t, w))
            return _swc_fallback(t, w)

        monkeypatch.setattr(outage, "_swc_fallback", record)
        m = model("19/20", "10")
        candidates = feasible_swc_candidates(m)
        over = [(t, w) for t, w in candidates if not _fits_budget(t, w, DEFAULT_STATE_BUDGET)]
        firsts = {}
        for t, w in over:
            firsts.setdefault(t - w, (t, w))
        res = o_swc(m)
        assert len(over) == 179
        # zero count 1 is rated by the run-length root, unbounded
        assert bounded == [firsts[z] for z in range(2, 11)]
        assert all(t > (DEFAULT_M_MAX + 1) * (t - w) for t, w in over)
        assert (res.params, res.method) == ((20, 19), "lower-bound")


class TestOneBoundPerZeroCount:
    """Past T = (DEFAULT_M_MAX + 1) * z the fallback of a zero count z does not rise."""

    def test_fallbacks_do_not_rise_past_the_split_range(self):
        rises_below = []
        for z in range(1, 41):
            split = (DEFAULT_M_MAX + 1) * z
            bounds = [_swc_fallback(t, t - z).value for t in range(z + 1, split + 61)]
            past = bounds[split - z :]
            assert all(a >= b for a, b in zip(past, past[1:])), z
            if any(a < b for a, b in zip(bounds[: split - z], bounds[1 : split - z])):
                rises_below.append(z)
        # the splits make the bounds rise below that length, so the rule
        # needs its threshold
        assert rises_below

    def test_inside_the_split_range_every_window_is_bounded(self):
        # at b = 5/13, e_max = 10 and a budget of 64 states, zero count 24 is
        # bounded at (39, 15) and, higher, at (40, 16), well inside its split
        # range; (41, 16) of zero count 25 ties (40, 16), so bounding zero
        # count 24 only once would report the longer window
        assert (
            _swc_fallback(39, 15).value
            < _swc_fallback(40, 16).value
            == _swc_fallback(41, 16).value
        )
        res = o_swc(model("5/13", "10"), state_budget=1 << 6)
        assert (res.value, res.params) == (_swc_fallback(40, 16).value, (40, 16))

    def test_draw_sweep_rows_solve_no_window(self, monkeypatch, capsys, cold_caches):
        # the benchmark's two rows of the rate-vs-draw sweep: every window
        # rated exactly is rated by a root, and at b = 19/20 each zero count
        # from 2 to 10 is bounded at one window
        solved, bounded = [], []
        follower_classes, fallback = capacity._follower_classes, outage._swc_fallback

        def solve(windows):
            solved.extend(windows)
            return follower_classes(windows)

        def bound(t, w):
            bounded.append((t, w))
            return fallback(t, w)

        monkeypatch.setattr(capacity, "_follower_classes", solve)
        monkeypatch.setattr(outage, "_swc_fallback", bound)
        for b in ("1/20", "19/20"):
            bounded.clear()
            argv = ["--vary", "b", "--emax", "10", "--from", b, "--to", b, "--step", "1/20"]
            assert cli.main(["sweep", *argv]) == 0
        capsys.readouterr()
        assert solved == []
        assert sorted(t - w for t, w in bounded) == list(range(2, 11))


class TestOptimumPerZeroCount:
    """o_swc and o_sec depend on e_max only through floor(e_max / b) and floor(e_max / (2b))."""

    BUDGET = 1 << 12

    @staticmethod
    def _same_zero_counts(b, z, shares):
        # buffers with floor(e_max / (shares * b)) = z, full and half charged
        low = shares * z * b
        for e_max in (low, low + shares * b / 3, low + shares * b * Fraction(6, 7)):
            yield EnergyModel(b=b, e_max=e_max, e_init=e_max)
            yield EnergyModel(b=b, e_max=e_max, e_init=e_max / 2)

    def test_windows_depend_on_the_zero_count_only(self):
        rate = partial(outage._swc_rate, state_budget=self.BUDGET)

        for k in range(1, 20):
            b = Fraction(k, 20)
            for z in range(7):
                expect = outage._o_swc.__wrapped__(b, z, self.BUDGET)
                for m in self._same_zero_counts(b, z, 1):
                    # an argmax that solves every candidate of the model itself
                    full = m.with_full_buffer()
                    scan = _best(full, feasible_swc_candidates(full), rate)
                    assert (scan.value, scan.params, scan.method) == (
                        expect.value, expect.params, expect.method
                    ), m
                    assert o_swc(m, state_budget=self.BUDGET) == expect, m

    def test_subblocks_depend_on_the_zero_count_only(self):
        for k in range(1, 20):
            b = Fraction(k, 20)
            for z2 in range(7):
                expect = outage._o_sec.__wrapped__(b, z2)
                for m in self._same_zero_counts(b, z2, 2):
                    full = m.with_full_buffer()
                    scan = _best(full, feasible_sec_candidates(full), sec_capacity)
                    assert scan == expect, m
                    assert o_sec(m) == expect, m

    @pytest.mark.parametrize("optimizer", [o_swc, o_sec])
    def test_scan_span_limit_is_raised_on_every_call(self, optimizer):
        m = model("1/1000000", "10")
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="over the limit of 100000"):
                optimizer(m)


class TestWindowExplicitLower:
    def test_pivot_params(self):
        res = o_swc_lower_explicit(model("3/5", "10"))
        assert res.params == (40, 24)
        assert res.method == "lower-bound"
        assert abs(res.value - 0.6735507939395372) < 1e-9

    def test_zero_case(self):
        assert o_swc_lower_explicit(model("3/5", "1/2")).value == 0.0

    def test_below_exact_and_ceiling(self):
        for e_max in ("1", "2", "3"):
            m = model("3/5", e_max)
            lower = o_swc_lower_explicit(m)
            assert lower.value <= o_swc(m).value + 1e-9
            assert lower.value <= lower.ceiling + 1e-9


class TestSubblock:
    def test_smallest_nonzero_buffer(self):
        res = o_sec(model("3/5", "6/5"))
        assert res.params == (3, 2)
        assert abs(res.value - 2 / 3) < 1e-12

    def test_zero_below_twice_the_draw(self):
        res = o_sec(model("3/5", "11/10"))
        assert res.value == 0.0
        assert res.params is None

    def test_known_big_buffer_optimum(self):
        res = o_sec(model("3/5", "10"))
        assert res.params == (20, 12)
        assert abs(res.value - 0.9004952570222677) < 1e-12

    @pytest.mark.parametrize("b", ["1/20", "1/4", "1/2", "3/5", "3/4", "19/20"])
    def test_matches_a_scan_far_past_the_pivot(self, b):
        # plain search over every feasible (L, w), well beyond the pivot the
        # optimizer stops at; capacity falls with w, so each L keeps its
        # smallest feasible weight, ties keep the smallest L, and only a code
        # that beats rate zero is reported
        for e_max in (Fraction(k, 2) for k in range(21)):
            m = model(b, e_max)
            z2 = math.floor(m.e_max / (2 * m.b))
            pivot = max(1, math.ceil(z2 / (1 - m.b)))
            best_value, best_params = 0.0, None
            for length in range(1, 4 * pivot + 65):
                w = length
                while w > 1 and sec_feasible(length, w - 1, m):
                    w -= 1
                value = sec_capacity(length, w).value
                if value > best_value:
                    best_value, best_params = value, (length, w)
            res = o_sec(m)
            assert (res.value, res.params) == (best_value, best_params), (b, e_max)

    def test_achieving_params_are_feasible(self):
        for e_max in EMAX_GRID:
            m = model("1/2", e_max)
            res = o_sec(m)
            if res.params is not None:
                assert sec_feasible(*res.params, m)


class TestSubblockExplicitLower:
    def test_matches_search_at_the_known_point(self):
        res = o_sec_lower_explicit(model("3/5", "10"))
        assert res.params == (20, 12)
        assert abs(res.value - o_sec(model("3/5", "10")).value) < 1e-15

    def test_large_buffer_approaches_the_ceiling(self):
        res = o_sec_lower_explicit(model("3/5", "200"))
        assert res.value >= 0.95
        assert res.value <= res.ceiling + 1e-9

    def test_never_exceeds_the_search(self):
        for e_max in EMAX_GRID:
            m = model("3/4", e_max)
            assert o_sec_lower_explicit(m).value <= o_sec(m).value + 1e-9


class TestPivot:
    @pytest.mark.parametrize(
        "explicit,candidates",
        [
            (o_swc_lower_explicit, feasible_swc_candidates),
            (o_sec_lower_explicit, feasible_sec_candidates),
        ],
    )
    def test_explicit_bound_sits_on_the_last_candidate(self, explicit, candidates):
        for k in range(1, 20):
            for j in range(41):
                m = model(Fraction(k, 20), Fraction(j, 4))
                family = candidates(m)
                expect = family[-1] if family else None
                assert explicit(m).params == expect, (k, j)


class TestOrderAndCeiling:
    def test_grid_invariants(self):
        for b in B_GRID:
            for e_max in EMAX_GRID:
                m = model(b, e_max)
                rll_res, swc_res, sec_res = o_rll(m), o_swc(m), o_sec(m)
                for res in (rll_res, swc_res, sec_res):
                    assert 0.0 <= res.value <= res.ceiling + 1e-9
                if m.e_max >= m.b:
                    assert swc_res.value >= rll_res.value - 1e-8
                if m.e_max >= 2 * m.b:
                    assert sec_res.value >= rll_res.value - 1e-9
                    if rll_res.value > 0:
                        assert sec_res.value > rll_res.value + 1e-6

    @given(
        b=st.integers(2, 100).flatmap(
            lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
        ),
        e_max=st.sampled_from(["1/2", "1", "2", "5", "10"]),
    )
    @example(b=Fraction(21, 22), e_max="1")
    @example(b=Fraction(999, 1000), e_max="1")
    @settings(max_examples=100, deadline=None)
    def test_window_never_below_run_length(self, b, e_max):
        # a one-zero window is rated by the run-length root, so the best
        # window is never below the best run length, past the budget too
        m = model(b, e_max)
        assert o_swc(m).value >= o_rll(m).value

    @given(
        b=st.integers(2, 30).flatmap(
            lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
        ),
        e_max=st.sampled_from(["1/2", "1", "2", "5", "10"]),
    )
    @example(b=Fraction(3, 5), e_max="1")
    @settings(max_examples=60, deadline=None)
    def test_exact_optimum_is_the_window_capacity(self, b, e_max):
        # an exact optimum is rated by the one window rule, so the library
        # and the capacity command give its value bit for bit
        res = o_swc(model(b, e_max))
        assume(res.method == "exact" and res.params is not None)
        t, w = res.params
        assert swc_capacity(t, w).value == res.value
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["capacity", "--family", "swc", "--t", str(t), "--w", str(w), "--json"]
            assert cli.main(argv) == 0
        assert json.loads(out.getvalue())["value"] == res.value

    def test_window_never_below_its_explicit_bound_on_small_draws(self):
        # b = 1/q, e_max = z/q: the candidates are (T, 1) for T <= z + 1 <= q
        # whatever q, so the pivot is (z + 1, 1) and the explicit bound is
        # that window's fallback; z = q - 1 puts every T <= 300 at the pivot.
        # Near rate 1 a root bisected on X itself falls below the bound.
        for q in range(2, 301):
            b = Fraction(1, q)
            for z in sorted({1, q // 2, q - 1}):
                m = model(b, Fraction(z, q))
                swc = o_swc(m)
                assert swc.value >= o_swc_lower_explicit(m).value, (q, z)
                assert swc.value >= o_rll(m).value, (q, z)
                assert swc.method == "exact", (q, z)

    def test_gap_report_fields(self):
        report = gap_report(model("3/5", "6/5"))
        assert set(report) == {
            "o_rll",
            "o_swc",
            "o_sec",
            "gap_swc_rll",
            "gap_sec_rll",
            "ceiling",
        }
        assert report["gap_sec_rll"] == pytest.approx(
            2 / 3 - rll_capacity(2).value, abs=1e-12
        )
        assert report["gap_sec_rll"] > 0

    def test_partial_charge_is_normalized(self):
        partial = EnergyModel.make("3/5", "3", "1")
        assert o_sec(partial).value == o_sec(model("3/5", "3")).value
