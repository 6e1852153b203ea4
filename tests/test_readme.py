"""The README's command-line examples parse, and print what their comments show."""

import math
import re
import shlex
from pathlib import Path

import pytest

from capcomp import EnergyModel, adversarial_sequence, capacity, cli, constraints, energy, verify

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    """(command, expected output) of each README line `capcomp ... # <digit>...`."""
    examples = []
    for line in README.read_text().splitlines():
        command, _, comment = line.partition("#")
        comment = comment.strip()
        if line.startswith("capcomp ") and comment[:1].isdigit():
            examples.append((command.strip(), comment))
    return examples


EXAMPLES = _examples()

# every README line that runs the CLI, with or without a shown output
COMMANDS = [
    line.partition("#")[0].strip()
    for line in README.read_text().splitlines()
    if line.startswith("capcomp ")
]


def test_the_readme_has_examples_with_output():
    assert len(EXAMPLES) >= 3


def test_the_readme_has_commands():
    # an empty list would make test_command_parses collect no cases
    assert len(COMMANDS) >= 14


@pytest.mark.parametrize("command,expected", EXAMPLES)
def test_example_prints_its_comment(command, expected, capsys):
    rc = cli.main(shlex.split(command)[1:])
    assert rc == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parses(command):
    # parse only: the sweep and verify examples take minutes to run
    cli.build_parser().parse_args(shlex.split(command)[1:])


def _limits_text() -> str:
    """The README's "Limits" section, with its whitespace collapsed."""
    section = README.read_text().split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    return " ".join(section.split())


def _witness_extent() -> tuple[int, int]:
    """The most periods and bits of a draining witness of verify's outage suite."""
    periods = bits = 0
    for b in verify.MODEL_B_GRID:
        for e_max in verify.MODEL_EMAX_GRID:
            model = EnergyModel.make(b, e_max)
            for specs, _ in verify._OUTAGE_GRID:
                for spec in specs:
                    if not spec._feasible(model):
                        reps = model._scaled[3] + 1
                        periods = max(periods, reps)
                        bits = max(bits, len(adversarial_sequence(spec, model, reps)))
    return periods, bits


# each limit the Limits section quotes, by the constant or rule it comes from:
# the sentence quoting it, with its numbers as groups, and the numbers the
# code gives
LIMITS = {
    "_MAX_WINDOW": (
        r"a window solve stops at length `T ≤ (\d+)`", lambda: (capacity._MAX_WINDOW,)
    ),
    "DEFAULT_ENUM_LIMIT": (
        r"enumeration stops at (\d+) bits", lambda: (constraints.DEFAULT_ENUM_LIMIT,)
    ),
    "_MAX_POWER_ITER": (
        r"the power iteration at ([\d,]+) iterations", lambda: (capacity._MAX_POWER_ITER,)
    ),
    "_MAX_GROWTH_N": (
        r"the growth-rate route at length ([\d,]+)", lambda: (capacity._MAX_GROWTH_N,)
    ),
    "_MAX_SWEEP_ROWS": (r"a sweep grid at ([\d,]+) rows", lambda: (cli._MAX_SWEEP_ROWS,)),
    "_MAX_SCAN_SPAN": (r"at a pivot span of ([\d,]+)", lambda: (energy._MAX_SCAN_SPAN,)),
    "_MAX_WITNESS_BITS": (
        r"adversarial witness .* at 2\^(\d+) bits",
        lambda: (math.log2(constraints._MAX_WITNESS_BITS),),
    ),
    "MAX_N": (r"\(default (\d+)\) sets how far", lambda: (verify.MAX_N,)),
    "max-n range": (
        r"It runs from (\d+) to (\d+)\.",
        lambda: (verify._MIN_MAX_N, constraints.DEFAULT_ENUM_LIMIT),
    ),
    "witness periods": (r"at most (\d+) periods \((\d+) bits\)", _witness_extent),
}


@pytest.mark.parametrize("pattern,values", LIMITS.values(), ids=LIMITS)
def test_each_quoted_limit_is_its_constant(pattern, values):
    match = re.search(pattern, _limits_text())
    assert match, pattern
    assert tuple(int(group.replace(",", "")) for group in match.groups()) == values()
