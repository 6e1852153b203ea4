"""Battery model: parsing, simulation, feasibility, candidate families."""

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

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
from capcomp.constraints import SEC, _words
from capcomp.energy import _outage_words, _pivot, _pivot_scan, _run, _zeros
from capcomp.verify import MAX_L, MODEL_B_GRID, MODEL_EMAX_GRID, _subblocks


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

    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("b", "1e-1", ValueError),
            ("b", Decimal("0.5"), TypeError),
            ("e_max", True, TypeError),
            ("e_max", "1_0/100", ValueError),
        ],
    )
    def test_constructor_refuses_what_the_parser_refuses(self, field, value, error):
        fields = {"b": Fraction(1, 2), "e_max": Fraction(1), "e_init": Fraction(0)}
        with pytest.raises(error):
            parse_rational(value)
        with pytest.raises(error):
            EnergyModel(**{**fields, field: value})
        with pytest.raises(error):
            EnergyModel.make(**{**fields, field: value})


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


@lru_cache(maxsize=None)
def string_outages(m, n):
    """outage_occurs on every n-bit string, in ascending word order."""
    return [outage_occurs(format(w, f"0{n}b") if n else "", m) for w in range(1 << n)]


def grid_models():
    """Every verify grid model at e_init 0, e_max/2 and e_max: mixed denominators."""
    return [
        EnergyModel.make(b, e_max, e_init)
        for b in MODEL_B_GRID
        for e_max in MODEL_EMAX_GRID
        for e_init in (0, Fraction(e_max) / 2, e_max)
    ]


class TestOutageWords:
    @pytest.mark.parametrize("b", MODEL_B_GRID)
    @pytest.mark.parametrize("e_max", MODEL_EMAX_GRID)
    def test_matches_the_string_kernel_on_every_word(self, b, e_max):
        full = Fraction(e_max)
        models = [EnergyModel.make(b, e_max, e_init) for e_init in (0, full / 2, full)]
        for n in range(11):
            marked, _ = _outage_words(np.arange(1 << n, dtype=np.int64), n, models)
            for m, row in zip(models, marked):
                assert row.tolist() == string_outages(m, n), (m, n)

    def test_one_call_over_the_whole_grid(self):
        models = grid_models()
        assert len(models) == 72
        for n in range(11):
            marked, levels = _outage_words(np.arange(1 << n, dtype=np.int64), n, models)
            assert marked.shape == levels.shape == (72, 1 << n)
            for m, row in zip(models, marked):
                assert row.tolist() == string_outages(m, n), (m, n)

    def test_each_row_is_the_one_model_call(self):
        models = grid_models()[::-1]
        words = np.arange(1 << 10, dtype=np.int64)
        marked, levels = _outage_words(words, 10, models)
        for m, row, level in zip(models, marked, levels):
            alone, alone_level = _outage_words(words, 10, [m])
            np.testing.assert_array_equal(row, alone[0])
            np.testing.assert_array_equal(level, alone_level[0])

    def test_levels_of_unmarked_words_are_the_scaled_levels(self):
        models = grid_models()
        for n in range(9):
            marked, levels = _outage_words(np.arange(1 << n, dtype=np.int64), n, models)
            for m, row, level in zip(models, marked, levels):
                for word in np.flatnonzero(~row).tolist():
                    bits = format(word, f"0{n}b") if n else ""
                    assert level[word] == _run(bits, m, stop_at_outage=False)[0][-1], (m, bits)

    def test_a_run_in_short_slices_equals_the_run_in_one(self, monkeypatch):
        # slices of 1000 words, the last one short, over every grid model
        models = grid_models()
        words = np.arange(1 << 12, dtype=np.int32)
        whole = _outage_words(words, 12, models)
        monkeypatch.setattr("capcomp.energy._STEP_WORDS", 1000)
        for got, want in zip(_outage_words(words, 12, models), whole):
            np.testing.assert_array_equal(got, want)
        assert whole[0].any() and not whole[0].all()

    def test_a_product_sweep_is_the_flat_sweep_of_the_concatenations(self):
        # every subblock spec verify sweeps, as k of its valid L-bit blocks,
        # against one flat run over its valid kL-bit words in ascending order,
        # under every model of verify's grid
        models = [model(b, e_max) for b in MODEL_B_GRID for e_max in MODEL_EMAX_GRID]
        for spec in _subblocks(MAX_L):
            blocks = _words(spec, spec.length)
            for k in (1, 2, 3):
                flat = _outage_words(_words(spec, k * spec.length), k * spec.length, models)
                for got, want in zip(_outage_words(blocks, spec.length, models, k), flat):
                    np.testing.assert_array_equal(got, want, err_msg=f"{spec} k={k}")

    @pytest.mark.parametrize("step", [5, 30])
    def test_a_product_sweep_in_small_tiles_equals_the_flat_sweep(self, monkeypatch, step):
        # SEC(4, 2) has 11 valid blocks: 5 words per step cut each prefix's
        # row into two slices of 5 and one of 1, and 30 take 2 whole prefixes
        # per step, which divides neither the 11 nor the 121 prefixes
        models = grid_models()
        spec = SEC(4, 2)
        blocks = _words(spec, 4)
        assert len(blocks) == 11
        monkeypatch.setattr("capcomp.energy._STEP_WORDS", step)
        for k in (1, 2, 3):
            flat = _outage_words(_words(spec, 4 * k), 4 * k, models)
            for got, want in zip(_outage_words(blocks, 4, models, k), flat):
                np.testing.assert_array_equal(got, want, err_msg=f"k={k}")
            assert flat[0].any() and not flat[0].all()

    def test_no_models_or_no_words_sweep_to_empty_rows(self):
        words = np.arange(4, dtype=np.int32)
        for got in _outage_words(words, 2, [], 3):
            assert got.shape == (0, 64)
        for got in _outage_words(words[:0], 2, grid_models(), 2):
            assert got.shape == (72, 0)

    @pytest.mark.parametrize(
        "e_max, dtype",
        [("125/2", np.int8), ("63", np.int16), ("32765/2", np.int16), ("16383", np.int32)],
    )
    def test_levels_take_the_narrowest_type_that_holds_them(self, e_max, dtype):
        # at b = 1/2, den = 2 and draw = 1, so over n <= 10 bits the level
        # bound is cap + den = 2 * e_max + 2: 2^7 - 1, 2^7, 2^15 - 1 and 2^15
        full = Fraction(e_max)
        models = [model("1/2", e_max, e_init) for e_init in (0, Fraction(1, 2), full - 1, full)]
        for n in range(11):
            marked, levels = _outage_words(np.arange(1 << n, dtype=np.int32), n, models)
            assert levels.dtype == dtype
            for m, row, level in zip(models, marked, levels):
                assert row.tolist() == string_outages(m, n), (m, n)
                for word in np.flatnonzero(~row).tolist():
                    bits = format(word, f"0{n}b") if n else ""
                    assert level[word] == _run(bits, m, stop_at_outage=False)[0][-1], (m, bits)

    def test_refuses_levels_past_int64(self):
        m = model("1/2", str(1 << 62))
        with pytest.raises(ResourceLimitError, match="exceed int64"):
            _outage_words(np.arange(4, dtype=np.int64), 2, [m])

    def test_refusal_names_the_oversized_model_of_a_batch(self):
        big = model("1/3", str(1 << 62))
        batch = [model("1/2", "1"), big, model("3/5", "3")]
        with pytest.raises(ResourceLimitError, match="exceed int64") as exc:
            _outage_words(np.arange(4, dtype=np.int64), 2, batch)
        assert str(exc.value) == f"scaled battery levels of {big} exceed int64"

    def test_refuses_an_unclamped_floor_past_int64(self):
        # cap + den is under 2^63, but two draws of 2^62 fall below -2^63 + 1
        m = model(f"{1 << 62}/{(1 << 62) + 1}", "0")
        _outage_words(np.arange(2, dtype=np.int64), 1, [m])
        with pytest.raises(ResourceLimitError, match="exceed int64"):
            _outage_words(np.arange(4, dtype=np.int64), 2, [m])


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


# the thresholds in Fractions, as the paper states them; the module tests
# them on the scaled integers
def fraction_rll(d, m):
    return d >= math.ceil(m.b / (1 - m.b)) and m.e_init >= m.b


def fraction_swc(t, w, m):
    return w >= math.ceil(t * m.b) and m.e_init >= (t - w) * m.b


def fraction_sec(length, w, m):
    return fraction_swc(length, w, m) and m.e_max >= 2 * (length - w) * m.b


def fraction_scan(m, z, feasible):
    pivot = math.ceil(z / (1 - m.b))
    spans = ((span, max(math.ceil(span * m.b), span - z)) for span in range(1, pivot + 1))
    return [(span, w) for span, w in spans if feasible(span, w, m)]


@st.composite
def partial_models(draw):
    # draws b = p/q and e_max, and a starting charge anywhere in [0, e_max]
    q = draw(st.integers(2, 20))
    b = Fraction(draw(st.integers(1, q - 1)), q)
    e_max = Fraction(draw(st.integers(0, 60)), draw(st.integers(1, 12)))
    e_init = e_max * Fraction(draw(st.integers(0, 6)), 6)
    return EnergyModel(b=b, e_max=e_max, e_init=e_init)


class TestIntegerThresholds:
    """The predicates on the scaled integers agree with their Fraction formulas."""

    @given(m=partial_models(), d=st.integers(1, 40), t=st.integers(1, 40), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_predicates(self, m, d, t, data):
        w = data.draw(st.integers(1, t))
        assert rll_feasible(d, m) == fraction_rll(d, m)
        assert swc_feasible(t, w, m) == fraction_swc(t, w, m)
        assert sec_feasible(t, w, m) == fraction_sec(t, w, m)

    @given(m=partial_models())
    @settings(max_examples=100, deadline=None)
    def test_zero_counts_pivots_and_scans(self, m):
        pairs = ((1, swc_feasible, fraction_swc), (2, sec_feasible, fraction_sec))
        for shares, feasible, reference in pairs:
            z = _zeros(m, shares)
            assert z == math.floor(m.e_max / (shares * m.b))
            assert _pivot(m, z) == math.ceil(z / (1 - m.b))
            assert _pivot_scan(m, z, feasible) == fraction_scan(m, z, reference)


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
