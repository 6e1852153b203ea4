"""Verification suites: outage witnesses against a string reference, bounds failure details."""

import dataclasses
import itertools
import re
from collections import defaultdict

from capcomp import RLL, SEC, SWC, EnergyModel, outage_occurs, satisfies, verify
from capcomp.verify import _OUTAGE_GRID, _spec_text, suite_bounds, suite_outage

FEASIBLE_FAILURE = re.compile(r"feasible (.+) outages on ([01]+)")


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
