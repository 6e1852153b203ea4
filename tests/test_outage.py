"""Outage-free rate optimizers and their guarantees."""

import math
from fractions import Fraction

import pytest

from capcomp import (
    SWC,
    EnergyModel,
    NoWitnessError,
    adversarial_sequence,
    gap_report,
    o_rll,
    o_sec,
    o_sec_lower_explicit,
    o_swc,
    o_swc_lower_explicit,
    rll_capacity,
    sec_capacity,
    sec_feasible,
    swc_feasible,
)

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

    def test_known_big_buffer_optimum(self):
        res = o_sec(model("3/5", "10"))
        assert res.params == (20, 12)
        assert abs(res.value - 0.9004952570222677) < 1e-12

    @pytest.mark.parametrize("b", ["1/20", "1/4", "1/2", "3/5", "3/4", "19/20"])
    def test_matches_a_scan_far_past_the_pivot(self, b):
        # plain search over every feasible (L, w), well beyond the pivot the
        # optimizer stops at; capacity falls with w, so each L keeps its
        # smallest feasible weight, and ties keep the smallest L
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
                if best_params is None or value > best_value:
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
