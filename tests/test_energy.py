"""Battery model: parsing, simulation, feasibility, candidate families."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capcomp import (
    EnergyModel,
    ResourceLimitError,
    feasible_sec_candidates,
    feasible_swc_candidates,
    outage_occurs,
    parse_rational,
    preamble_length,
    rll_feasible,
    sec_feasible,
    simulate,
    swc_feasible,
)
from capcomp.energy import _outage_words
from capcomp.verify import MODEL_B_GRID, MODEL_EMAX_GRID


def model(b, e_max, e_init=None):
    return EnergyModel.make(b, e_max, e_init)


def reference_trace(bits, m):
    """The battery recursion step by step in Fractions, as the module docstring states it."""
    level = m.e_init
    levels, outages, overflows = [level], [], []
    for i, ch in enumerate(bits, start=1):
        avail = level + 1 if ch == "1" else level
        if avail < m.b:
            outages.append(i)
        if avail - m.b > m.e_max:
            overflows.append(i)
        level = min(max(avail - m.b, Fraction(0)), m.e_max)
        levels.append(level)
    return levels, outages, overflows


class TestParseRational:
    def test_fraction_forms(self):
        assert parse_rational("3/5") == Fraction(3, 5)
        assert parse_rational("0.6") == Fraction(3, 5)
        assert parse_rational("2") == Fraction(2)
        assert parse_rational(7) == Fraction(7)
        assert parse_rational(Fraction(9, 4)) == Fraction(9, 4)
        assert parse_rational("0.000000000001") == Fraction(1, 10**12)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            parse_rational(0.6)

    def test_rejects_long_decimals(self):
        with pytest.raises(ValueError):
            parse_rational("0.0000000000001")  # 13 fractional digits

    @pytest.mark.parametrize("bad", ["3/0", "3/-5", "abc", "1/2/3", "", "1e-3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestEnergyModel:
    def test_defaults_to_full_buffer(self):
        m = model("3/5", "2")
        assert m.e_init == m.e_max == Fraction(2)

    @pytest.mark.parametrize(
        "b,e_max,e_init",
        [("0", "1", None), ("1", "1", None), ("3/5", "-1", None), ("1/2", "1", "2")],
    )
    def test_rejects_bad_ranges(self, b, e_max, e_init):
        with pytest.raises(ValueError):
            model(b, e_max, e_init)

    def test_rejects_float_fields(self):
        with pytest.raises(TypeError):
            EnergyModel(b=0.6, e_max=Fraction(1), e_init=Fraction(1))


class TestSimulate:
    def test_known_trace_with_overflow(self):
        tr = simulate("101", model("3/5", "1"))
        assert tr.levels == [1, 1, Fraction(2, 5), Fraction(4, 5)]
        assert tr.outages == []
        assert tr.overflows == [1]

    def test_outage_recorded_and_clamped(self):
        tr = simulate("0011", model("3/4", "3/4"))
        assert tr.outages == [2]
        assert tr.levels == [
            Fraction(3, 4),
            0,
            0,
            Fraction(1, 4),
            Fraction(1, 2),
        ]

    def test_block_witness_outage_step(self):
        # one full buffer, then a block pair that drains it at step 2L - w
        tr = simulate("11000011", model("1/2", "3/2"))
        assert tr.outages == [6]
        assert tr.overflows == [1, 2]

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            simulate("10x", model("1/2", "1"))

    @given(
        bits=st.text(alphabet="01", max_size=40),
        b_num=st.integers(1, 9),
        e_num=st.integers(0, 30),
        frac=st.fractions(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_levels_stay_in_range_and_match_fast_path(self, bits, b_num, e_num, frac):
        b = Fraction(b_num, 10)
        e_max = Fraction(e_num, 7)
        e_init = e_max * frac
        m = EnergyModel(b=b, e_max=e_max, e_init=e_init)
        tr = simulate(bits, m)
        levels, outages, overflows = reference_trace(bits, m)
        assert len(tr.levels) == len(bits) + 1
        assert all(0 <= level <= e_max for level in tr.levels)
        assert (tr.levels, tr.outages, tr.overflows) == (levels, outages, overflows)
        assert outage_occurs(bits, m) == bool(outages)


class TestOutageWords:
    @pytest.mark.parametrize("b", MODEL_B_GRID)
    @pytest.mark.parametrize("e_max", MODEL_EMAX_GRID)
    def test_matches_the_string_kernel_on_every_word(self, b, e_max):
        full = Fraction(e_max)
        for e_init in (0, full / 2, full):
            m = EnergyModel.make(b, e_max, e_init)
            for n in range(11):
                words = np.arange(1 << n, dtype=np.int64)
                bits = [format(w, f"0{n}b") if n else "" for w in range(1 << n)]
                expect = [outage_occurs(s, m) for s in bits]
                assert _outage_words(words, n, m).tolist() == expect, (m, n)

    def test_refuses_levels_past_int64(self):
        m = model("1/2", str(1 << 62))
        with pytest.raises(ResourceLimitError, match="exceed int64"):
            _outage_words(np.arange(4, dtype=np.int64), 2, m)


class TestFeasibility:
    def test_rll_conditions(self):
        assert rll_feasible(2, model("3/5", "1"))
        assert not rll_feasible(1, model("3/5", "1"))  # d below the draw ratio
        assert not rll_feasible(2, model("3/5", "1", "1/2"))  # start below one draw

    def test_swc_conditions(self):
        assert swc_feasible(3, 2, model("3/5", "3/5"))
        assert not swc_feasible(2, 1, model("3/4", "3"))  # weight below ceil(T*b)
        assert not swc_feasible(3, 2, model("3/5", "1", "1/2"))  # start too low

    def test_sec_conditions(self):
        assert sec_feasible(4, 2, model("1/2", "2"))
        assert not sec_feasible(4, 2, model("1/2", "3/2"))  # buffer below 2(L-w)b
        assert not sec_feasible(4, 2, model("1/2", "2", "1/2"))  # start too low
        assert not sec_feasible(3, 1, model("3/5", "3"))  # weight below ceil(L*b)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rll_feasible(0, model("1/2", "1"))
        with pytest.raises(ValueError):
            swc_feasible(3, 4, model("1/2", "1"))


class TestCandidates:
    def test_swc_candidate_family(self):
        assert feasible_swc_candidates(model("3/5", "3/5")) == [(1, 1), (2, 2), (3, 2)]

    def test_swc_empty_when_buffer_below_draw(self):
        assert feasible_swc_candidates(model("3/5", "1/2")) == []

    def test_sec_includes_the_known_optimum(self):
        # the family ends at the pivot: z2 = 8, ceil(8 / (2/5)) = 20
        cands = feasible_sec_candidates(model("3/5", "10"))
        assert cands[-1] == (20, 12)

    def test_sec_empty_when_buffer_below_twice_the_draw(self):
        assert feasible_sec_candidates(model("3/5", "1")) == []

    def test_scan_raises_past_the_span_limit(self):
        # pivots ceil(10^7 / (1 - b)) and ceil(5 * 10^6 / (1 - b)), both over the limit
        tiny = model("1/1000000", "10")
        for scan in (feasible_swc_candidates, feasible_sec_candidates):
            with pytest.raises(ResourceLimitError, match="over the limit of 100000$"):
                scan(tiny)

    def test_scan_limit_is_inclusive(self, monkeypatch):
        # z = 10 and b = 1/2 put the window pivot at span 20
        m = model("1/2", "5")
        monkeypatch.setattr("capcomp.energy._MAX_SCAN_SPAN", 20)
        assert feasible_swc_candidates(m)[-1] == (20, 10)
        monkeypatch.setattr("capcomp.energy._MAX_SCAN_SPAN", 19)
        with pytest.raises(ResourceLimitError, match="reach span 20, "):
            feasible_swc_candidates(m)

    def test_candidates_all_feasible(self):
        m = model("2/3", "5/2")
        assert all(swc_feasible(t, w, m) for t, w in feasible_swc_candidates(m))
        assert all(sec_feasible(length, w, m) for length, w in feasible_sec_candidates(m))


class TestPreamble:
    @pytest.mark.parametrize(
        "b,e_max,expect", [("1/2", "2", 4), ("3/5", "1", 3), ("1/2", "0", 0)]
    )
    def test_known_values(self, b, e_max, expect):
        assert preamble_length(model(b, e_max, "0")) == expect

    def test_preamble_fills_the_buffer(self):
        m = model("3/5", "2", "0")
        tr = simulate("1" * preamble_length(m), m)
        assert tr.levels[-1] == m.e_max
