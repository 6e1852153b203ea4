"""Capacity routes: root bisection, exact closed forms, spectral, growth."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcomp import (
    SEC,
    SWC,
    EnergyModel,
    ResourceLimitError,
    binary_entropy,
    rll_capacity,
    sec_capacity,
    sec_feasible,
    sec_one_zero_capacity,
    swc_capacity,
    swc_capacity_exact,
    swc_capacity_growth,
    swc_feasible,
    swc_lower_bound,
)
from capcomp import capacity
from capcomp.capacity import (
    GROWTH_TOL,
    SPECTRAL_TOL,
    _fits_budget,
    _follower_classes,
    _popcount_strings,
    _swc_spectral,
    _window_tables,
    swc_capacities_exact,
    zero_run_capacity,
)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestRunLengthCapacity:
    def test_golden_ratio_anchor(self):
        res = rll_capacity(1)
        assert res.method == "closed-form"
        assert abs(res.value - math.log2(GOLDEN)) < 1e-11
        assert res.residual <= 1e-12

    def test_second_anchor(self):
        # largest real root of X^3 - X^2 - 1 is 1.4655712318767682
        assert abs(rll_capacity(2).value - math.log2(1.4655712318767682)) < 1e-11

    def test_strictly_decreasing(self):
        values = [rll_capacity(d).value for d in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            rll_capacity(0)

    @pytest.mark.parametrize("d", [9999, 10**6])
    def test_large_d_matches_log_form_root(self, d):
        # X^d overflows a float here; the root solves d*ln(X) + ln(X - 1) = 0
        with mpmath.workdps(50):
            root = mpmath.findroot(
                lambda x: d * mpmath.log(x) + mpmath.log(x - 1),
                (1 + mpmath.mpf(1) / d**2, 2),
                solver="anderson",
            )
            oracle = float(mpmath.log(root, 2))
        assert abs(rll_capacity(d).value - oracle) < 1e-11


class TestZeroRunCapacity:
    """SWC(T, 1) is the (0, T - 1) run-length rule: log2 of the root of X^T (2 - X) = 1."""

    def test_matches_a_high_precision_root(self):
        # near rate 1 the root crowds 2, so the oracle solves for
        # v = ln(2 - X), which 50 digits hold relative to its own size at any
        # T; the largest X is the root between -T ln 2 and -T ln 2 / 2
        worst = 0.0
        with mpmath.workdps(50):
            for t in range(2, 2001):
                v = mpmath.findroot(
                    lambda v: t * mpmath.log(2 - mpmath.exp(v)) + v,
                    (-t * mpmath.ln2, -t * mpmath.ln2 / 2),
                    solver="anderson",
                )
                oracle = mpmath.log(2 - mpmath.exp(v), 2)
                worst = max(worst, abs(float(oracle - zero_run_capacity(t).value)))
        assert worst < 1e-13

    def test_lies_in_the_spectral_bracket(self):
        for t in range(2, 22):
            spectral = swc_capacity_exact(t, 1)
            lo, hi = bracket(spectral)
            assert lo <= zero_run_capacity(t).value <= hi, t

    def test_two_bit_window_is_the_golden_ratio(self):
        # (2, 1) is also the run-length rule d = 1
        res = zero_run_capacity(2)
        assert res.method == "closed-form"
        assert abs(res.value - math.log2(GOLDEN)) < 1e-15

    def test_strictly_increasing_below_one(self):
        values = [zero_run_capacity(t).value for t in range(2, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert zero_run_capacity(100_000).value == 1.0

    def test_rejects_t_below_two(self):
        with pytest.raises(ValueError):
            zero_run_capacity(1)


class TestSubblockCapacity:
    def test_half_log_three(self):
        assert abs(sec_capacity(2, 1).value - math.log2(3) / 2) < 1e-15

    def test_exact_dyadic_values(self):
        assert sec_capacity(3, 2).value == 2 / 3  # log2(4)/3
        assert sec_capacity(5, 3).value == 0.8  # log2(16)/5

    def test_big_binomial_sum(self):
        total = sum(math.comb(20, i) for i in range(12, 21))
        assert total == 263950
        assert abs(sec_capacity(20, 12).value - math.log2(total) / 20) < 1e-15

    def test_full_weight_is_zero(self):
        assert sec_capacity(7, 7).value == 0.0

    def test_matches_the_upper_binomial_sum(self):
        # the reference sums C(L, i) over i = w..L whichever side is shorter
        for length in range(1, 65):
            for w in range(1, length + 1):
                total = sum(math.comb(length, i) for i in range(w, length + 1))
                assert sec_capacity(length, w).value == math.log2(total) / length, (length, w)

    def test_one_zero_form_agrees(self):
        for t in range(2, 21):
            assert (
                abs(sec_one_zero_capacity(t).value - sec_capacity(t, t - 1).value)
                <= 1e-12
            )

    def test_one_zero_strictly_decreasing(self):
        values = [sec_one_zero_capacity(t).value for t in range(2, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            sec_capacity(4, 5)
        with pytest.raises(ValueError):
            sec_capacity(4, 0)


def dense_window_capacity(t, w):
    """log2 of the largest eigenvalue modulus of the full 2^(t-1)-state window matrix."""
    states = 1 << (t - 1)
    matrix = np.zeros((states, states))
    for prev in range(states):
        for bit in (0, 1):
            if bin(prev).count("1") + bit >= w:
                matrix[prev, ((prev << 1) | bit) % states] += 1
    return math.log2(max(abs(np.linalg.eigvals(matrix))))


def follower_classes_over_all_states(t, w):
    """The class tables by filtering all 2^(t-1) states, with a lookup table."""
    mask = (1 << (t - 1)) - 1
    states = np.arange(mask + 1, dtype=np.int64)
    pc = np.bitwise_count(states)
    heavy = states[pc == w]
    reps = np.concatenate([heavy, states[pc == w - 1]])
    index = np.zeros(mask + 1, dtype=np.int64)
    index[reps] = np.arange(len(reps))

    def successor(r, c):
        out = []
        for rep in r.tolist():
            s = ((rep << 1) & mask) | c
            if bin(s).count("1") > w:
                s ^= 1 << (s.bit_length() - 1)
            out.append(int(index[s]))
        return out

    return successor(reps, 1), successor(heavy, 0)


def bracket(res):
    return res.value - res.residual / 2, res.value + res.residual / 2


class TestWindowCapacity:
    def test_matches_run_length_roots(self):
        # the window (d+1, d) is the run-length constraint RLL(d); the
        # reference is the root at 40 digits, not the bisection midpoint,
        # which can sit a few 1e-13 off it and outside a tighter bracket
        for d in range(1, 21):

            def poly(x):
                return x ** (d + 1) - x**d - 1

            with mpmath.workdps(40):
                root = mpmath.findroot(poly, (1, 2), solver="anderson")
                assert 1 < root < 2 and abs(poly(root)) < mpmath.mpf(10) ** -35
                exact = mpmath.log(root, 2)
            lo, hi = bracket(swc_capacity_exact(d + 1, d))
            assert lo <= exact <= hi, d
            # the value bracket [log2 lo, log2 hi] is residual wide; value,
            # log2 of the X midpoint, lies above the bracket's midpoint by
            # about (hi - lo)^2, far below the slack of a float log2
            rll = rll_capacity(d)
            assert abs(exact - rll.value) <= rll.residual / 2 + 1e-15, d

    def test_bracket_contains_the_dense_spectral_radius(self):
        routes = (
            (swc_capacity_exact, "spectral", SPECTRAL_TOL),
            (swc_capacity_growth, "dp-growth", GROWTH_TOL),
        )
        for t in range(2, 11):
            for w in range(1, t):
                dense = dense_window_capacity(t, w)
                for route, method, tol in routes:
                    res = route(t, w)
                    assert res.method == method
                    assert 0 < res.residual < tol, (method, t, w)
                    lo, hi = bracket(res)
                    assert lo <= dense <= hi, (method, t, w)

    def test_growth_live_states_are_those_of_popcount_at_least_w_minus_1(self):
        # the lemma behind the growth route's bracket: from length t on, the
        # states with a finite log count are fixed, and the route reads them
        # as those whose 1-predecessor is not the sentinel
        for t in range(2, 13):
            pc = np.bitwise_count(np.arange(1 << (t - 1)))
            for w in range(1, t):
                idx0, idx1 = _window_tables(t, w)
                assert np.array_equal(idx1 < len(pc), pc >= w - 1), (t, w)
                buf = np.append(np.zeros(len(pc)), -np.inf)
                for _ in range(2 * t):
                    buf[:-1] = np.logaddexp2(buf[idx0], buf[idx1])
                    assert np.array_equal(np.isfinite(buf[:-1]), pc >= w - 1), (t, w)

    def test_one_follower_class_per_weight_w_subset(self):
        # (18, 9) and (18, 11) fill their tables over many chunks, with the
        # popcount-w classes ending inside one
        windows = [(t, w) for t in range(2, 17) for w in range(1, t)] + [(18, 9), (18, 11)]
        assert math.comb(18, 11) > 4 * capacity._CHUNK
        assert math.comb(17, 11) % capacity._CHUNK
        for t, w in windows:
            succ1, succ0 = _follower_classes([(t, w)])
            assert len(succ1) == math.comb(t, w), (t, w)
            assert len(succ0) == math.comb(t - 1, w), (t, w)
            ref1, ref0 = follower_classes_over_all_states(t, w)
            assert succ1.tolist() == ref1 and succ0.tolist() == ref0, (t, w)

    def test_popcount_strings_are_the_ascending_popcount_k_integers(self):
        for bits in range(17):
            every = np.arange(1 << bits)
            counts = np.bitwise_count(every)
            for k in range(bits + 1):
                assert np.array_equal(_popcount_strings(bits, k), every[counts == k]), (bits, k)

    def test_tables_do_not_depend_on_the_chunk_size(self, monkeypatch):
        windows = [(t, w) for t in range(2, 12) for w in range(1, t)]
        whole = _follower_classes(windows)
        tables = {window: _follower_classes([window]) for window in windows}
        # chunks of 5 classes end anywhere in the popcount-w classes or past them
        monkeypatch.setattr(capacity, "_CHUNK", 5)
        for got, want in zip(_follower_classes(windows), whole):
            assert np.array_equal(got, want)
        for window, (succ1, succ0) in tables.items():
            got1, got0 = _follower_classes([window])
            assert np.array_equal(got1, succ1) and np.array_equal(got0, succ0), window

    @pytest.mark.parametrize("chunk", [capacity._CHUNK, 5])
    def test_union_holds_each_window_in_its_own_blocks(self, monkeypatch, chunk):
        # the popcount-w classes of (18, 9), (18, 11) and (16, 8) end inside
        # a chunk; the blocks of the union lie row by row, popcount-w first
        windows = [(18, 9), (5, 2), (18, 11), (16, 8)]
        monkeypatch.setattr(capacity, "_CHUNK", chunk)
        succ1, succ0 = _follower_classes(windows)
        assert len(succ1) == sum(math.comb(t, w) for t, w in windows)
        heavy_at, light_at = 0, len(succ0)
        for t, w in windows:
            heavy, light = math.comb(t - 1, w), math.comb(t - 1, w - 1)
            own1, own0 = _follower_classes([(t, w)])

            def local(succ):
                # union slot back to the window's class index
                return np.where(succ < len(succ0), succ - heavy_at, succ - light_at + heavy)

            block1 = np.concatenate(
                [succ1[heavy_at : heavy_at + heavy], succ1[light_at : light_at + light]]
            )
            assert np.array_equal(local(block1), own1), (t, w)
            assert np.array_equal(local(succ0[heavy_at : heavy_at + heavy]), own0), (t, w)
            heavy_at, light_at = heavy_at + heavy, light_at + light
        assert (heavy_at, light_at) == (len(succ0), len(succ1))

    def test_solve_holds_at_most_40_bytes_per_class(self, cold_caches):
        # the two tables, the two iterates and the gather of succ0 come to
        # 24 + 16 (t - w) / t bytes per class, 30.4 at (20, 12); the build
        # before them holds less
        tracemalloc.start()
        try:
            swc_capacity_exact(20, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * math.comb(20, 12)

    def test_solve_allocates_no_suffix_state_array(self, cold_caches):
        # one int64 array over the 2^20 suffix states of (21, 20) is 8 MB
        tracemalloc.start()
        try:
            _follower_classes([(21, 20)])
            classes_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            swc_capacity_exact(21, 20)
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes_peak < 1 << 20
        assert solve_peak < 1 << 20

    def test_full_weight_short_circuits(self):
        res = swc_capacity_exact(25, 25)
        assert res.value == 0.0
        assert swc_capacity_exact(1, 1).value == 0.0

    def test_growth_full_weight_short_circuits(self):
        # 2^29 states would be needed if the route built its tables
        res = swc_capacity_growth(30, 30)
        assert (res.value, res.method) == (0.0, "dp-growth")

    def test_methods_and_residuals(self):
        res = swc_capacity_exact(4, 2)
        assert res.method == "spectral"
        assert res.residual < 1e-10
        res = swc_capacity_growth(4, 2)
        assert res.method == "dp-growth"
        assert res.residual < 1e-9

    def test_growth_agrees_with_spectral(self):
        for t in range(1, 9):
            for w in range(1, t + 1):
                diff = abs(
                    swc_capacity_exact(t, w).value - swc_capacity_growth(t, w).value
                )
                assert diff <= 1e-6, (t, w, diff)

    def test_monotone_in_weight(self):
        values = [swc_capacity_exact(5, w).value for w in range(1, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_state_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            swc_capacity_exact(22, 3, state_budget=1 << 20)
        with pytest.raises(ResourceLimitError):
            swc_capacity_growth(22, 3, state_budget=1 << 20)

    def test_window_past_the_int64_keys_is_refused(self):
        # the budget covers its 2^63 states, but its class keys would need bit 63
        for route in (swc_capacity_exact, swc_capacity_growth):
            with pytest.raises(ResourceLimitError, match="length 64 is over the limit of 63"):
                route(64, 63, state_budget=1 << 64)
        # and _fits_budget knows the limit, so o_swc bounds such a window instead
        assert _fits_budget(63, 62, 1 << 62) and not _fits_budget(64, 63, 1 << 64)
        assert swc_capacity_exact(64, 64, state_budget=1 << 64).value == 0.0

    def test_one_batch_equals_each_batch_of_one(self, cold_caches):
        # the windows close their brackets from 32 to 272 iterations apart
        windows = [(t, w) for t in range(2, 13) for w in range(1, t)]
        batch = _swc_spectral(windows, SPECTRAL_TOL)
        for window, (value, width) in zip(windows, batch):
            alone = _swc_spectral([window], SPECTRAL_TOL)
            assert alone == [(value, width)], window
        # each window solved alone, then all of them in one fresh batch
        windows = [(t, w) for t in range(2, 13) for w in range(1, t + 1)]
        alone = {(t, w): swc_capacity_exact(t, w) for t, w in windows}
        capacity._SPECTRAL.clear()
        assert swc_capacities_exact(windows) == alone

    def test_a_window_is_solved_once_whatever_the_entry(self, monkeypatch, cold_caches):
        solved = []
        follower_classes = capacity._follower_classes

        def record(windows):
            solved.extend(windows)
            return follower_classes(windows)

        monkeypatch.setattr(capacity, "_follower_classes", record)
        alone = swc_capacity_exact(9, 4)
        batch = swc_capacities_exact([(7, 3), (9, 4), (9, 9)])
        assert solved == [(9, 4), (7, 3)]
        assert batch[9, 4] == alone
        assert swc_capacity_exact(7, 3) == batch[7, 3]
        # another tolerance is another solve
        swc_capacity_exact(9, 4, tol=1e-9)
        assert solved == [(9, 4), (7, 3), (9, 4)]

    def test_batch_refuses_any_window_before_work(self):
        with pytest.raises(ResourceLimitError, match="length 22 needs 2"):
            swc_capacities_exact([(3, 2), (22, 3)])

    def test_unconverged_window_of_a_batch_is_named(self, monkeypatch):
        # every window but (12, 11) closes its bracket within 64 iterations
        monkeypatch.setattr("capcomp.capacity._MAX_POWER_ITER", 64)
        windows = [(2, 1), (3, 2), (12, 11), (4, 3), (12, 3)]
        with pytest.raises(ResourceLimitError, match=r"\(12, 11\) did not converge within 64"):
            _swc_spectral(windows, SPECTRAL_TOL)
        # with two windows still open, the first in batch order is named
        with pytest.raises(ResourceLimitError, match=r"\(10, 9\) did not converge"):
            _swc_spectral([(10, 9), *windows], SPECTRAL_TOL)
        monkeypatch.setattr("capcomp.capacity._MAX_POWER_ITER", 272)
        assert len(_swc_spectral(windows, SPECTRAL_TOL)) == len(windows)

    def test_growth_sentinel_gathers_the_masked_predecessors(self):
        # a gather through the -inf slot copies what masking the two
        # predecessors gives, so every growth step sees the same numbers
        rng = np.random.default_rng(0)
        for t in range(2, 11):
            states = np.arange(1 << (t - 1))
            pc = np.bitwise_count(states)
            for w in range(1, t):
                logs = rng.normal(size=len(states))
                buf = np.append(logs, -np.inf)
                idx0, idx1 = _window_tables(t, w)
                zero = np.where(pc >= w, logs[states >> 1], -np.inf)
                one = np.where(pc + 1 >= w, logs[(states >> 1) + len(states) // 2], -np.inf)
                np.testing.assert_array_equal(buf[idx0], zero)
                np.testing.assert_array_equal(buf[idx1], one)

    def test_unconverged_power_iteration_raises(self, monkeypatch, cold_caches):
        monkeypatch.setattr("capcomp.capacity._MAX_POWER_ITER", 2)
        with pytest.raises(ResourceLimitError, match=r"\(12, 6\).*last bracket width \d"):
            swc_capacity_exact(12, 6)

    def test_growth_nmax_flags_residual(self, monkeypatch):
        monkeypatch.setattr("capcomp.capacity._MAX_GROWTH_N", 12)
        with pytest.raises(ResourceLimitError, match=r"\(6, 4\).*last bracket width \d"):
            swc_capacity_growth(6, 4)


class TestOneWindowRule:
    """swc_capacity: the full window, the two roots, and the spectral solve."""

    def test_each_window_takes_its_route(self):
        budget = 1 << 6
        for t in range(1, 12):
            for w in range(1, t + 1):
                routed = capacity._has_exact_route(t, w, budget)
                if w == t:
                    expect = swc_capacity_exact(t, w, budget)
                elif w == t - 1:
                    expect = rll_capacity(w)
                elif w == 1:
                    expect = zero_run_capacity(t)
                elif not routed:
                    with pytest.raises(ResourceLimitError, match="over the budget"):
                        swc_capacity(t, w, budget)
                    continue
                else:
                    expect = swc_capacity_exact(t, w, budget)
                assert routed and swc_capacity(t, w, budget) == expect, (t, w)

    def test_roots_need_no_budget_and_no_int64_keys(self):
        assert swc_capacity(100, 99, 1) == rll_capacity(99)
        assert swc_capacity(100, 1, 1) == zero_run_capacity(100)
        assert swc_capacity(100, 100, 1).value == 0.0
        assert not capacity._has_exact_route(64, 62, 1 << 64)

    def test_rejects_a_bad_pair(self):
        with pytest.raises(ValueError, match="1 <= w <= t"):
            swc_capacity(1, 0)


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.6) - 0.9709505944546686) < 1e-15

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_symmetric_and_bounded(self, x):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12
        assert 0.0 <= binary_entropy(x) <= 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


HALF = EnergyModel.make("1/2", "1")

# every entry point that takes a (span, weight) pair, and its family
PAIR_ENTRY_POINTS = {
    "SWC": (SWC, "swc"),
    "swc_capacity_exact": (swc_capacity_exact, "swc"),
    "swc_capacity_growth": (swc_capacity_growth, "swc"),
    "swc_feasible": (lambda t, w: swc_feasible(t, w, HALF), "swc"),
    "swc_lower_bound": (swc_lower_bound, "swc"),
    "SEC": (SEC, "sec"),
    "sec_capacity": (sec_capacity, "sec"),
    "sec_feasible": (lambda length, w: sec_feasible(length, w, HALF), "sec"),
}


class TestPairChecks:
    @pytest.mark.parametrize("name", PAIR_ENTRY_POINTS)
    def test_rejects_out_of_range_pairs_in_the_family_words(self, name):
        entry, family = PAIR_ENTRY_POINTS[name]
        span, bound = ("t", "t") if family == "swc" else ("subblock length", "length")
        with pytest.raises(ValueError, match=f"^{span} must be >= 1$"):
            entry(0, 1)
        with pytest.raises(ValueError, match=f"^w must satisfy 1 <= w <= {bound}, got 4$"):
            entry(3, 4)
