"""Capacity routes: root bisection, exact closed forms, spectral, growth."""

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcomp import (
    ResourceLimitError,
    binary_entropy,
    rll_capacity,
    sec_capacity,
    sec_one_zero_capacity,
    swc_capacity_exact,
    swc_capacity_growth,
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


class TestWindowCapacity:
    def test_matches_run_length_roots(self):
        for d in range(1, 10):
            assert abs(swc_capacity_exact(d + 1, d).value - rll_capacity(d).value) <= 1e-8

    def test_full_weight_short_circuits(self):
        res = swc_capacity_exact(25, 25)
        assert res.value == 0.0
        assert swc_capacity_exact(1, 1).value == 0.0

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

    def test_unconverged_power_iteration_raises(self, monkeypatch):
        monkeypatch.setattr("capcomp.capacity._MAX_POWER_ITER", 2)
        # a tolerance no other test uses, so the solve is not a cache hit
        with pytest.raises(ResourceLimitError, match=r"\(12, 6\).*last delta"):
            swc_capacity_exact(12, 6, tol=1e-13)

    def test_growth_nmax_flags_residual(self):
        res = swc_capacity_growth(6, 4, n_max=12)
        assert res.residual > 0.0  # not converged in so few steps
        assert abs(res.value - swc_capacity_exact(6, 4).value) < 0.1


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
