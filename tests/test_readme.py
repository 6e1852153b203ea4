"""The README's command-line examples parse, and print what their comments show."""

import shlex
from pathlib import Path

import pytest

from capcomp import cli

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
