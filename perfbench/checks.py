"""Output checks: one rule per workload, one verdict per row, check or request.

* Sweeps are compared with CSVs captured from this repository before any
  optimisation.  The param, ``o_rll``, ``o_sec``, ``o_sec_method`` and
  ``ceiling`` cells must match byte for byte, and so must ``o_swc`` and its
  method where the reference is ``exact``.  Where the reference is
  ``lower-bound`` the new ``o_swc`` may differ, but it must not be lower.
* The verification battery must pass every check and report the same set of
  check names as the reference.
* Queries have seeded inputs, so they are checked against invariants computed
  independently with capcomp's closed forms and predicates.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SWEEP_B_ROWS

REF = Path(__file__).resolve().parent / "ref"


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    # window optima tagged exact, over window optima
    exact: int = 0
    windows: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def _read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def check_sweep(verdict: Verdict, result: dict, ref_name: str, rows: tuple | None) -> None:
    header, *ref_rows = _read_csv((REF / ref_name).read_text())
    if rows is not None:
        ref_rows = [r for r in ref_rows if r[0] in rows]
    verdict.attempted += len(ref_rows)
    got = _read_csv(result["stdout"]) if result["code"] == 0 else []
    if not got or got[0] != header or len(got) - 1 != len(ref_rows):
        verdict.failed += len(ref_rows)
        verdict.problems.append(
            f"{' '.join(result['argv'])}: exit {result['code']}, "
            f"{max(len(got) - 1, 0)} rows for {len(ref_rows)}: {result['stderr'][-500:]}"
        )
        return
    for ref, row in zip(ref_rows, got[1:]):
        verdict.windows += 1
        verdict.exact += row[3] == "exact"
        same = [0, 1, 4, 5, 6]
        if ref[3] == "exact":
            same += [2, 3]
        bad = [header[i] for i in same if row[i] != ref[i]]
        if ref[3] != "exact" and (
            row[3] not in ("exact", "lower-bound") or float(row[2]) < float(ref[2])
        ):
            bad.append("o_swc")
        if bad:
            verdict.fail(f"sweep row {ref[0]}: {', '.join(bad)} differ: {row} vs {ref}")


def check_verify(verdict: Verdict, result: dict, ref_name: str) -> None:
    names = (REF / ref_name).read_text().splitlines()
    verdict.attempted += len(names)
    try:
        checks = json.loads(result["stdout"])
    except ValueError:
        checks = []
    passed = {c["name"] for c in checks if c["passed"]}
    missing = [n for n in names if n not in passed]
    extra = sorted({c["name"] for c in checks} - set(names))
    verdict.failed += len(missing) + len(extra)
    verdict.problems += [f"check failed or missing: {n}" for n in missing]
    verdict.problems += [f"check not in the reference: {n}" for n in extra]
    if not checks:
        verdict.problems.append(f"verify: exit {result['code']}: {result['stderr'][-500:]}")


def _option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _check_outage(verdict: Verdict, report: dict, model) -> list[str]:
    from capcomp import outage
    from capcomp.energy import rll_feasible, sec_feasible, swc_feasible

    bad = []
    ceiling = report["ceiling"]
    for key in ("o_rll", "o_swc", "o_sec"):
        if report[key]["value"] > ceiling:
            bad.append(f"{key} above the ceiling")
    if report["o_swc"]["value"] < report["o_rll"]["value"]:
        bad.append("o_swc below o_rll")
    feasible = {"o_rll": rll_feasible, "o_swc": swc_feasible, "o_sec": sec_feasible}
    for key, outage_free in feasible.items():
        params = report[key]["params"]
        if params is not None and not outage_free(*params, model):
            bad.append(f"{key} params {params} not outage-free")
    if report["o_swc"]["value"] < outage.o_swc_lower_explicit(model).value:
        bad.append("o_swc below its explicit lower bound")
    if report["o_sec"]["value"] < outage.o_sec_lower_explicit(model).value:
        bad.append("o_sec below its explicit lower bound")
    verdict.windows += 1
    verdict.exact += report["o_swc"]["method"] == "exact"
    return bad


def _check_simulate(record: dict, argv: list[str], model) -> list[str]:
    from capcomp import constraints
    from capcomp.energy import outage_occurs

    family = _option(argv, "--family")
    spec = {
        "rll": lambda: constraints.RLL(int(_option(argv, "--d"))),
        "swc": lambda: constraints.SWC(int(_option(argv, "--t")), int(_option(argv, "--w"))),
        "sec": lambda: constraints.SEC(int(_option(argv, "--l")), int(_option(argv, "--w"))),
    }[family]()
    bits = record["bits"]
    bad = []
    if not constraints.satisfies(spec, bits):
        bad.append(f"witness violates {spec}")
    if len(record["levels"]) != len(bits) + 1:
        bad.append("trace length differs from the bit count")
    if bool(record["outages"]) != outage_occurs(bits, model):
        bad.append("trace outages disagree with outage_occurs")
    return bad


def check_query(verdict: Verdict, result: dict) -> None:
    from capcomp.energy import EnergyModel

    verdict.attempted += 1
    argv = result["argv"]
    if result["code"] != 0:
        verdict.fail(f"{' '.join(argv)}: exit {result['code']}: {result['stderr'][-500:]}")
        return
    model = EnergyModel.make(_option(argv, "--b"), _option(argv, "--emax"))
    try:
        record = json.loads(result["stdout"])
        if argv[0] == "outage":
            bad = _check_outage(verdict, record, model)
        else:
            bad = _check_simulate(record, argv, model)
    except (ValueError, KeyError, TypeError) as exc:
        bad = [f"unreadable output: {exc!r}"]
    if bad:
        verdict.fail(f"{' '.join(argv)}: {'; '.join(bad)}")


def check_pass(verdict: Verdict, workload: str, results: list[dict]) -> None:
    """Add one pass's outputs to the verdict."""
    for result in results:
        if workload == "sweep-b":
            check_sweep(verdict, result, "sweep_b.csv", SWEEP_B_ROWS)
        elif workload == "sweep-emax":
            check_sweep(verdict, result, "sweep_emax.csv", None)
        elif workload == "verify-all":
            check_verify(verdict, result, "verify_names.txt")
        else:
            check_query(verdict, result)
