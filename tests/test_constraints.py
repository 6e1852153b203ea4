"""Constraint membership, enumeration, exact counting, adversarial sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capcomp import (
    RLL,
    SEC,
    SWC,
    EnergyModel,
    NoWitnessError,
    ResourceLimitError,
    adversarial_sequence,
    count_exact,
    enumerate_sequences,
    satisfies,
    sets_equal,
    simulate,
)
from capcomp.verify import MAX_D, MAX_L, MAX_T

# every spec the verification suites enumerate
VERIFY_GRID = (
    [RLL(d) for d in range(1, MAX_D + 1)]
    + [SWC(t, w) for t in range(1, MAX_T + 1) for w in range(1, t + 1)]
    + [SEC(length, w) for length in range(1, MAX_L + 1) for w in range(1, length + 1)]
)


def _lengths(spec, max_n=12):
    """The lengths n <= max_n the spec accepts: multiples of the subblock length for SEC."""
    step = spec.length if isinstance(spec, SEC) else 1
    return range(0, max_n + 1, step)


def reference_enumeration(spec, n):
    """Every n-bit string that satisfies() accepts, in lexicographic order."""
    if n == 0:
        return [""] if satisfies(spec, "") else []
    return [s for s in (format(i, f"0{n}b") for i in range(1 << n)) if satisfies(spec, s)]


class TestSatisfies:
    @pytest.mark.parametrize(
        "spec,bits,expect",
        [
            (RLL(1), "010", True),
            (RLL(2), "01010", False),
            (RLL(2), "0110110", True),
            (RLL(2), "1100", False),  # adjacent zeros
            (RLL(2), "0110", True),  # boundary runs unconstrained
            (RLL(2), "00", True),  # too short to contain a separation window
            (RLL(3), "110", True),
            (SWC(3, 2), "011011", True),
            (SWC(3, 2), "0100", False),
            (SWC(3, 2), "01", True),  # shorter than the window
            (SWC(2, 2), "11", True),
            (SEC(2, 1), "0110", True),
            (SEC(2, 1), "0100", False),
            (SEC(4, 2), "11000011", True),
        ],
    )
    def test_examples(self, spec, bits, expect):
        assert satisfies(spec, bits) is expect

    def test_sec_rejects_partial_blocks(self):
        with pytest.raises(ValueError):
            satisfies(SEC(4, 2), "110")

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            satisfies(RLL(1), "012")

    @pytest.mark.parametrize("spec", VERIFY_GRID, ids=str)
    def test_word_rule_agrees_with_string_rule(self, spec):
        for n in _lengths(spec):
            words = np.arange(1 << n, dtype=np.int64)
            expect = [satisfies(spec, format(w, f"0{n}b") if n else "") for w in range(1 << n)]
            assert spec._accepts_words(words, n).tolist() == expect, n

    def test_word_rule_rejects_partial_blocks(self):
        with pytest.raises(ValueError, match="not a multiple of the subblock length 4"):
            SEC(4, 2)._accepts_words(np.arange(8, dtype=np.int64), 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RLL(0)
        with pytest.raises(ValueError):
            SWC(3, 4)
        with pytest.raises(ValueError):
            SEC(2, 0)


class TestEnumerate:
    def test_rll_short_list(self):
        assert enumerate_sequences(RLL(1), 3) == ["010", "011", "101", "110", "111"]

    def test_all_ones_only(self):
        assert enumerate_sequences(SWC(3, 3), 3) == ["111"]

    def test_sec_block_product(self):
        assert len(enumerate_sequences(SEC(2, 1), 4)) == 9

    def test_lexicographic_order(self):
        seqs = enumerate_sequences(SWC(4, 2), 6)
        assert seqs == sorted(seqs)

    def test_limit_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_sequences(RLL(1), 25)
        assert len(enumerate_sequences(RLL(1), 10)) == 144

    def test_zero_length(self):
        assert enumerate_sequences(SEC(3, 2), 0) == [""]

    @pytest.mark.parametrize("spec", VERIFY_GRID, ids=str)
    def test_matches_the_string_reference(self, spec):
        for n in _lengths(spec):
            assert enumerate_sequences(spec, n) == reference_enumeration(spec, n), n


SPEC_POOL = (
    [RLL(d) for d in (1, 2, 3)]
    + [SWC(t, w) for t in (1, 2, 3, 4, 5) for w in range(1, t + 1)]
    + [SEC(length, w) for length in (1, 2, 3, 4) for w in range(1, length + 1)]
)


class TestCountExact:
    def test_window_count(self):
        assert count_exact(SWC(3, 2), 3) == 4

    def test_subblock_count(self):
        assert count_exact(SEC(2, 1), 4) == 9

    def test_run_length_short_lengths_unconstrained(self):
        assert [count_exact(RLL(2), n) for n in (0, 1, 2, 3)] == [1, 2, 4, 4]

    @given(spec=st.sampled_from(SPEC_POOL), n=st.integers(0, 12))
    @settings(max_examples=120, deadline=None)
    def test_matches_enumeration(self, spec, n):
        if isinstance(spec, SEC) and n % spec.length:
            with pytest.raises(ValueError):
                count_exact(spec, n)
        else:
            assert count_exact(spec, n) == len(enumerate_sequences(spec, n))

    def test_state_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            count_exact(SWC(22, 3), 30)

    def test_full_weight_window_needs_no_states(self):
        # far over the state budget, but only the all-ones sequence is valid
        assert count_exact(SWC(25, 25), 30) == 1
        assert count_exact(SWC(25, 25), 24) == 1 << 24


class TestSetsEqual:
    def test_run_length_is_a_window_rule(self):
        assert sets_equal(RLL(2), SWC(3, 2), 10)

    def test_window_equals_subblock_at_one_block(self):
        assert sets_equal(SWC(4, 2), SEC(4, 2), 4)

    def test_wider_window_differs_from_run_length(self):
        assert not sets_equal(SWC(4, 2), RLL(2), 6)


class TestAdversarial:
    def test_run_length_witness_shape(self):
        m = EnergyModel.make("3/5", "3")
        assert adversarial_sequence(RLL(1), m, 10) == "01" * 10

    def test_window_rate_witness_is_ones_first(self):
        m = EnergyModel.make("3/4", "3")
        s = adversarial_sequence(SWC(2, 1), m, 8)
        assert s == "10" * 8
        assert simulate(s, m).outages

    def test_subblock_buffer_witness_outage_step(self):
        m = EnergyModel.make("1/2", "3/2")
        s = adversarial_sequence(SEC(4, 2), m, 1)
        assert s == "11000011"
        assert simulate(s, m).outages == [6]  # 2L - w with a full buffer

    def test_subblock_low_start_witness_is_zeros_first(self):
        m = EnergyModel.make("1/2", "3", "1/4")
        s = adversarial_sequence(SEC(4, 2), m, 1)
        assert s.startswith("0011")
        assert simulate(s, m).outages[0] <= 2

    def test_witness_is_valid(self):
        m = EnergyModel.make("3/4", "2")
        for spec in (RLL(2), SWC(3, 1), SEC(4, 2)):
            s = adversarial_sequence(spec, m, 3)
            assert satisfies(spec, s)

    def test_feasible_setup_has_no_witness(self):
        m = EnergyModel.make("1/4", "1")
        with pytest.raises(NoWitnessError):
            adversarial_sequence(RLL(2), m, 4)
        with pytest.raises(NoWitnessError):
            adversarial_sequence(SWC(3, 3), m, 4)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            adversarial_sequence(RLL(1), EnergyModel.make("3/5", "1"), 0)
