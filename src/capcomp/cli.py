"""Command-line front end: capacity, outage, sweep, simulate, verify."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from fractions import Fraction

from . import capacity, constraints, outage, verify
from .capacity import DEFAULT_STATE_BUDGET
from .energy import EnergyModel, parse_rational, simulate
from .errors import ResourceLimitError


def _format_rational(q: Fraction) -> str:
    """Exact decimal when the denominator is 2^a * 5^b, else p/q."""
    den = q.denominator
    digits2 = digits5 = 0
    while den % 2 == 0:
        den //= 2
        digits2 += 1
    while den % 5 == 0:
        den //= 5
        digits5 += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = max(digits2, digits5)
    if digits == 0:
        return str(q.numerator)
    scaled = q * 10**digits
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled.numerator), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _outage_text(result: outage.OutageResult, family: str) -> str:
    """The value, the parameters achieving it, and a [method] tag unless exact."""
    if result.params is None:
        params = "no feasible code"
    else:
        labels = constraints.FAMILIES[family.removesuffix("-lower")].labels
        params = ", ".join(f"{label}={value}" for label, value in zip(labels, result.params))
    tag = "" if result.method == "exact" else f" [{result.method}]"
    return f"{result.value:.6f} ({params}){tag}"


def _swc_capacity(spec: constraints.SWC, args: argparse.Namespace):
    route = capacity.swc_capacity_growth if args.growth else capacity.swc_capacity
    return route(spec.t, spec.w, state_budget=args.state_budget)


# capacity route per family, given the spec built from the flags
_CAPACITY = {
    "rll": lambda spec, args: capacity.rll_capacity(spec.d),
    "swc": _swc_capacity,
    "sec": lambda spec, args: capacity.sec_capacity(spec.length, spec.w),
}


def cmd_capacity(args: argparse.Namespace) -> int:
    if args.growth and args.family != "swc":
        raise ValueError("--growth applies only to --family swc")
    if args.family == "sec-one-zero":
        if args.t is None:
            raise ValueError("sec-one-zero requires --t")
        res = capacity.sec_one_zero_capacity(args.t)
    else:
        spec = constraints.FAMILIES[args.family].from_flags(vars(args))
        res = _CAPACITY[args.family](spec, args)
    if args.json:
        print(json.dumps(res, default=dataclasses.asdict))
    else:
        print(f"{res.value:.6f}")
    return 0


# zero-outage optimizer per --family choice, given (model, state budget)
_OPTIMIZERS = {
    "rll": lambda model, budget: outage.o_rll(model),
    "swc": lambda model, budget: outage.o_swc(model, state_budget=budget),
    "sec": lambda model, budget: outage.o_sec(model),
    "swc-lower": lambda model, budget: outage.o_swc_lower_explicit(model),
    "sec-lower": lambda model, budget: outage.o_sec_lower_explicit(model),
}


def cmd_outage(args: argparse.Namespace) -> int:
    model = EnergyModel.make(args.b, args.emax)
    if args.family == "all":
        report = outage.gap_report(model, state_budget=args.state_budget)
        if args.json:
            print(json.dumps(report, default=dataclasses.asdict))
        else:
            for family in constraints.FAMILIES:
                print(f"o_{family}: {_outage_text(report[f'o_{family}'], family)}")
            for gap in ("gap_swc_rll", "gap_sec_rll"):
                # round first: adding 0.0 turns a rounded -0.0 into 0.0, so
                # float noise around a zero gap cannot print as -0.000000
                print(f"{gap}: {round(report[gap], 6) + 0.0:.6f}")
            print(f"ceiling: {report['ceiling']:.6f}")
        return 0
    res = _OPTIMIZERS[args.family](model, args.state_budget)
    if args.json:
        print(json.dumps(res, default=dataclasses.asdict))
    else:
        print(_outage_text(res, args.family))
    return 0


# the paper's grids have 19 and 121 rows
_MAX_SWEEP_ROWS = 10_000


def _sweep_grid(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    if step <= 0:
        raise ValueError("--step must be positive")
    if stop < start:
        raise ValueError("--to must be >= --from")
    rows = (stop - start) // step + 1
    if rows > _MAX_SWEEP_ROWS:
        raise ResourceLimitError(
            f"sweep grid has {rows} rows, over the limit of {_MAX_SWEEP_ROWS}"
        )
    return [start + i * step for i in range(rows)]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.vary == "emax" and args.b is None:
        raise ValueError("sweep --vary emax needs a fixed --b")
    if args.vary == "b" and args.emax is None:
        raise ValueError("sweep --vary b needs a fixed --emax")
    grid = _sweep_grid(
        parse_rational(args.start), parse_rational(args.stop), parse_rational(args.step)
    )
    # every model is built, and so checked, before the first row is written
    if args.vary == "emax":
        b = parse_rational(args.b)
        models = [EnergyModel(b=b, e_max=value, e_init=value) for value in grid]
    else:
        e_max = parse_rational(args.emax)
        models = [EnergyModel(b=value, e_max=e_max, e_init=e_max) for value in grid]
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["param", "o_rll", "o_swc", "o_swc_method", "o_sec", "o_sec_method", "ceiling"]
        )
        for value, model in zip(grid, models):
            report = outage.gap_report(model, state_budget=args.state_budget)
            rll, swc, sec = report["o_rll"], report["o_swc"], report["o_sec"]
            writer.writerow(
                [
                    _format_rational(value),
                    f"{rll.value:.6f}",
                    f"{swc.value:.6f}",
                    swc.method,
                    f"{sec.value:.6f}",
                    sec.method,
                    f"{report['ceiling']:.6f}",
                ]
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    model = EnergyModel.make(args.b, args.emax, args.einit)
    params: dict = {
        "b": str(model.b),
        "e_max": str(model.e_max),
        "e_init": str(model.e_init),
    }
    if (args.family is None) if args.adversarial else (args.bits is None):
        raise ValueError("simulate needs --bits, or --adversarial with a constraint family")
    spec = None
    if args.family is not None:
        spec = constraints.FAMILIES[args.family].from_flags(vars(args))
        params["family"] = args.family
        params.update(spec.flag_values())
    if args.adversarial:
        bits = constraints.adversarial_sequence(spec, model, args.reps)
        params["repetitions"] = args.reps
    else:
        bits = args.bits
        if spec is not None and not constraints.satisfies(spec, bits):
            raise ValueError(f"sequence {bits!r} violates {spec}")
    trace = simulate(bits, model)
    record = {
        "params": params,
        "bits": bits,
        "levels": [str(level) for level in trace.levels],
        "outages": trace.outages,
        "overflows": trace.overflows,
    }
    print(json.dumps(record))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks = verify.run_suite(args.suite, max_n=args.max_n)
    failed = [c for c in checks if not c.passed]
    if args.json:
        # a Check's fields are its instance dict, in field order: no deep copy as asdict makes
        print(json.dumps(checks, default=vars))
    else:
        for c in checks:
            if c.passed:
                print(f"ok   {c.name}")
            else:
                print(f"FAIL {c.name}: {c.detail}")
        print(f"{len(checks)} checks, {len(failed)} failed")
    return 1 if failed else 0


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    """One integer flag per constraint parameter, named as the family table names them."""
    for flag in dict.fromkeys(f for cls in constraints.FAMILIES.values() for f in cls.flags):
        p.add_argument(f"--{flag}", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capcomp",
        description="Capacities and outage-free rates of constrained binary codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="noiseless capacity of one constraint")
    p.add_argument("--family", required=True, choices=[*constraints.FAMILIES, "sec-one-zero"])
    _add_family_flags(p)
    p.add_argument("--growth", action="store_true", help="use the growth-rate route for swc")
    p.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("outage", help="best outage-free rate for a battery model")
    p.add_argument("--family", required=True, choices=[*_OPTIMIZERS, "all"])
    p.add_argument("--b", required=True, help="per-use draw, exact rational")
    p.add_argument("--emax", required=True, help="buffer capacity, exact rational")
    p.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_outage)

    p = sub.add_parser("sweep", help="outage-free rates over a parameter grid, as CSV")
    p.add_argument("--vary", required=True, choices=["emax", "b"])
    p.add_argument("--b", help="fixed draw when varying emax")
    p.add_argument("--emax", help="fixed buffer when varying b")
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--to", dest="stop", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--out", help="CSV path; stdout when omitted")
    p.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="exact battery trace for a sequence, as JSON")
    p.add_argument("--b", required=True)
    p.add_argument("--emax", required=True)
    p.add_argument("--einit")
    p.add_argument("--bits")
    p.add_argument("--family", choices=list(constraints.FAMILIES))
    _add_family_flags(p)
    p.add_argument("--adversarial", action="store_true", help="build a draining witness")
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run self-verification suites")
    p.add_argument("--suite", required=True, choices=[*verify.SUITES, "all"])
    p.add_argument("--max-n", type=int, help="length cap for enumeration-backed suites")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
