"""Verification suites: outage witnesses against a string reference, failure details."""

import dataclasses
import itertools
import random
import re
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from capcomp import (
    RLL,
    SEC,
    SWC,
    EnergyModel,
    adversarial_sequence,
    outage_occurs,
    satisfies,
    verify,
)
from capcomp.constraints import _words
from capcomp.energy import _run
from capcomp.verify import _OUTAGE_GRID, _spec_text, suite_bounds, suite_outage

FEASIBLE_FAILURE = re.compile(r"feasible (.+) outages on ([01]+)")


def test_the_product_sweep_word_order_is_the_filters():
    # swept word i of k valid blocks, rebuilt as a witness is, is the i-th
    # valid kL-bit word that the filter keeps
    for spec in verify._subblocks(verify.MAX_L):
        blocks = _words(spec, spec.length)
        for k in (1, 2, 3):
            swept = verify._product_word(blocks, spec.length, k, np.arange(len(blocks) ** k))
            assert np.array_equal(swept, _words(spec, k * spec.length)), (spec, k)


def test_subblock_sweep_holds_at_most_5_bytes_per_word(fresh_words):
    # SEC(6, 2) is feasible under b = 1/4 with e_max 2 and 3; at 18 bits it
    # sweeps the 57^3 products of its 57 blocks, which are never built as
    # words.  Per word of the last round, an int8 level and a mark for each
    # of the 2 models: 4 bytes.  The round before holds 1/57 of that, and a
    # step's mark temporary one byte per model over at most 2^14 words,
    # 0.18 bytes per word: 4.25 in all
    spec = SEC(6, 2)
    grid = [EnergyModel.make(b, e) for b in verify.MODEL_B_GRID for e in verify.MODEL_EMAX_GRID]
    models = [m for m in grid if spec._feasible(m)]
    assert len(models) == 2
    tracemalloc.start()
    try:
        verify._first_outages(spec, models, (6, 12, 18))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 57**3


def test_every_swept_rule_is_closed_under_extension_and_prefix():
    # a valid n-word padded with ones (all-ones subblocks for SEC) is valid
    # at the longest length, and the n-prefix of a valid longest word is
    # valid at n: so the longest sweep sees every shorter word's run
    for specs, lengths in _OUTAGE_GRID:
        for spec in specs:
            swept = lengths(spec, 12)
            top = swept[-1]
            longest = _words(spec, top)
            for n in swept[:-1]:
                pad = top - n
                padded = (_words(spec, n) << pad) | ((1 << pad) - 1)
                assert spec._accepts_words(padded, top).all(), (spec, n)
                assert spec._accepts_words(longest >> pad, n).all(), (spec, n)


def test_a_passing_outage_suite_sweeps_each_feasible_spec_once(monkeypatch):
    real = verify._outage_words
    calls = []

    def counted(words, n, models, repeat=1):
        calls.append(n * repeat)
        return real(words, n, models, repeat)

    monkeypatch.setattr(verify, "_outage_words", counted)
    checks = suite_outage(max_n=12)
    assert all(check.passed for check in checks)
    grid = [EnergyModel.make(b, e) for b in verify.MODEL_B_GRID for e in verify.MODEL_EMAX_GRID]
    tops = [
        lengths(spec, 12)[-1]
        for specs, lengths in _OUTAGE_GRID
        for spec in specs
        if any(spec._feasible(m) for m in grid)
    ]
    assert calls == tops


def first_string_outage(spec, model, lengths):
    """The first string, by length then lexicographically, that spec accepts and that drains model."""
    for n in lengths:
        for chars in itertools.product("01", repeat=n):
            s = "".join(chars)
            if satisfies(spec, s) and outage_occurs(s, model):
                return s
    return None


def test_forced_feasible_witnesses_match_the_string_reference(monkeypatch):
    # the real conditions hold, so force every spec feasible to reach the witness branch
    for family in (RLL, SWC, SEC):
        monkeypatch.setattr(family, "_feasible", lambda self, model: True)
    max_n = 10
    specs = {
        _spec_text(spec): (spec, lengths(spec, max_n))
        for family_specs, lengths in _OUTAGE_GRID
        for spec in family_specs
    }
    checks = suite_outage(max_n=max_n)
    failed = [c for c in checks if not c.passed]
    assert (len(checks), len(failed)) == (72, 53)
    witnesses_by_spec = defaultdict(set)
    for check in failed:
        b, e_max = re.search(r"b=(\S+) emax=(\S+)$", check.name).groups()
        model = EnergyModel.make(b, e_max)
        text, witness = FEASIBLE_FAILURE.fullmatch(check.detail).groups()
        spec, lengths = specs[text]
        assert witness == first_string_outage(spec, model, lengths), check.name
        witnesses_by_spec[text].add(witness)
    # models of one batch got different witnesses, so the rows were read apart
    assert max(len(w) for w in witnesses_by_spec.values()) > 1


def test_bounds_checks_name_their_first_failure(monkeypatch):
    real = verify.swc_capacities_exact

    def raised(windows):
        # two windows lifted far enough to break every ordering they enter
        return {
            key: dataclasses.replace(result, value=result.value + 0.5)
            if key in ((3, 2), (5, 3))
            else result
            for key, result in real(windows).items()
        }

    monkeypatch.setattr(verify, "swc_capacities_exact", raised)
    details = {check.name.split(",")[0]: check.detail for check in suite_bounds()}
    assert details["bounds: shift-down and scale-up window ordering"].startswith("(2, 1, 1, ")
    assert details["bounds: weight and window monotonicity"] == (
        "(3, 1, 1, 'heavier weight should not raise capacity')"
    )
    assert details["bounds: subblock sandwich and composite lower bound"].startswith("(3, 2, ")


@pytest.fixture
def fresh_words():
    """Empty the valid-word cache before and after: a scenario may change a word rule."""
    verify._valid.cache_clear()
    yield
    verify._valid.cache_clear()


def failing(checks):
    return [(c.name, c.detail) for c in checks if not c.passed]


@pytest.mark.parametrize(
    "overcounted,expected",
    [
        (
            lambda spec, n: spec == SWC(3, 2) and n >= 7,
            [("counts: recurrence vs enumeration, swc t=3 w=2, n<=10", "first mismatch at n=7")],
        ),
        (
            lambda spec, n: spec == SEC(2, 1),
            [
                ("counts: recurrence vs enumeration, sec L=2 w=1, n<=10", "first mismatch at n=0"),
                ("counts: product rule, sec L=2 w=1, k<=3", "block words 3"),
            ],
        ),
    ],
    ids=["window", "subblock"],
)
def test_count_checks_name_their_first_failure(monkeypatch, fresh_words, overcounted, expected):
    real = verify.count_exact
    monkeypatch.setattr(verify, "count_exact", lambda spec, n: real(spec, n) + overcounted(spec, n))
    assert failing(verify.run_suite("all", max_n=10)) == expected


def test_a_loosened_window_rule_fails_every_route_at_its_first_witness(monkeypatch, fresh_words):
    real = SWC._accepts_words

    def also_zero(self, words, n):
        # (2, 1) and (4, 2) also admit the all-zeros word
        accepted = real(self, words, n)
        return accepted | (words == 0) if (self.t, self.w) in ((2, 1), (4, 2)) else accepted

    monkeypatch.setattr(SWC, "_accepts_words", also_zero)
    swc_outage = [
        ("b=1/4 emax=1/4", "00"),
        ("b=1/4 emax=1/2", "000"),
        ("b=1/4 emax=1", "00000"),
        ("b=1/4 emax=3/2", "0000000"),
        ("b=1/4 emax=2", "000000000"),
        ("b=1/2 emax=1/2", "00"),
        ("b=1/2 emax=1", "000"),
        ("b=1/2 emax=3/2", "0000"),
        ("b=1/2 emax=2", "00000"),
        ("b=1/2 emax=3", "0000000"),
    ]
    assert failing(verify.run_suite("all", max_n=10)) == [
        ("counts: recurrence vs enumeration, swc t=2 w=1, n<=10", "first mismatch at n=2"),
        ("counts: recurrence vs enumeration, swc t=4 w=2, n<=10", "first mismatch at n=4"),
        ("equivalence: rll d=1 is the window rule t=2 w=1, n<=10", "sets differ at n=2"),
        ("equivalence: window t=4 w=2 inside t=3 w=1, n<=12", "witness 0000 at n=4"),
        ("equivalence: window equals subblock at n=t, t=2 w=1", ""),
        ("equivalence: window equals subblock at n=t, t=4 w=2", ""),
        ("equivalence: window inside subblock at multiples, t=2 w=1", "witness 00 at n=2"),
        ("equivalence: window inside subblock at multiples, t=4 w=2", "witness 0000 at n=4"),
        *(
            (f"outage iff, swc, {label}", f"feasible swc t=2 w=1 outages on {witness}")
            for label, witness in swc_outage
        ),
    ]


def test_a_missing_witness_stops_its_family_scan(monkeypatch, fresh_words):
    real = verify._find_outage_witness
    searched = []

    def no_rll2_witness(spec, model):
        searched.append((spec, model))
        return None if spec == RLL(2) else real(spec, model)

    monkeypatch.setattr(verify, "_find_outage_witness", no_rll2_witness)
    labels = [
        "b=1/2 emax=1/4",
        "b=3/5 emax=1/4",
        "b=3/5 emax=1/2",
        "b=3/4 emax=1/4",
        "b=3/4 emax=1/2",
        "b=3/4 emax=1",
        "b=3/4 emax=3/2",
        "b=3/4 emax=2",
        "b=3/4 emax=3",
    ]
    assert failing(verify.run_suite("all", max_n=10)) == [
        (f"outage iff, rll, {label}", "infeasible rll d=2 produced no outage witness")
        for label in labels
    ]
    # each scan stops at d=2, though d=3 and d=4 are infeasible under b=1/2 emax=1/4 too
    assert {spec for spec, _ in searched if spec.family == "rll"} == {RLL(1), RLL(2)}


def _witness_models():
    """verify's 24 grid models, then seeded models, most of them partly charged."""
    grid = [EnergyModel.make(b, e) for b in verify.MODEL_B_GRID for e in verify.MODEL_EMAX_GRID]
    rng = random.Random(0)
    seeded = []
    for _ in range(150):
        q = rng.randint(2, 8)
        e_max = Fraction(rng.randint(1, 24), rng.randint(1, 6))
        seeded.append(
            EnergyModel(
                b=Fraction(rng.randint(1, q - 1), q),
                e_max=e_max,
                e_init=e_max * Fraction(rng.randint(0, 6), 6),
            )
        )
    return grid + seeded


def test_every_infeasible_spec_drains_within_start_plus_one_periods():
    # run each witness four times past the proved bound, so a late first
    # outage would show; some pair with a positive start needs the whole bound
    tight = 0
    pairs = 0
    for model in _witness_models():
        start = model._scaled[3]
        for specs, _ in _OUTAGE_GRID:
            for spec in specs:
                if spec._feasible(model):
                    continue
                pairs += 1
                period = len(adversarial_sequence(spec, model, 1))
                bits = adversarial_sequence(spec, model, 4 * (start + 1) + 8)
                outages = _run(bits, model, stop_at_outage=True)[1]
                assert outages, (spec, model)
                periods = -(-outages[0] // period)
                assert periods <= start + 1, (spec, model)
                tight += periods == start + 1 and start > 0
                assert verify._find_outage_witness(spec, model) is not None
    assert pairs > 3000 and tight > 0
