"""The benchmark's workloads: the CLI requests of one pass, from a seed.

Every workload is a closed loop with one client: a single process issues one
``capcomp.cli.main(argv)`` request at a time and waits for it.  A pass is the
whole request list, issued in a fresh interpreter so that it starts cold.

The two sweeps and the verification battery are fixed grids and ignore the
seed.  The paper's draw grid (19 rows, about 70 s) and the full battery
(n <= 16, about 30 s) do not fit in one benchmark run, so both are cut.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

NAMES = ("sweep-b", "sweep-emax", "verify-all", "queries")

# the two ends of the paper's draw grid: b=1/20 wins with a fallback bound at
# T=160, b=19/20 needs the largest window solves the state budget allows
SWEEP_B = [
    ["sweep", "--vary", "b", "--emax", "10", "--from", "1/20", "--to", "19/20", "--step", "9/10"]
]
SWEEP_B_ROWS = ("0.05", "0.95")
SWEEP_EMAX = [
    ["sweep", "--vary", "emax", "--b", "3/5", "--from", "0", "--to", "12", "--step", "1/10"]
]
# n <= 12 keeps all 208 checks; the subblock outage checks still enumerate
# strings of up to 18 bits
VERIFY_ALL = [["verify", "--suite", "all", "--json", "--max-n", "12"]]

# A queries pass interleaves three request classes, each dense enough that
# p50 falls among the witnesses and p90 among the heavy outage requests:
# 2 light outage requests, 4 simulate witnesses, 4 heavy outage requests.
# An outage request costs about (e_max / b)^3, so e_max / b is set to a fixed
# span and only the draw b = 1/q comes from the seed.  q > 21 gives every
# window of the state budget (T <= 21) the weight w = 1, so the window solves
# are the same for every seed too.
LIGHT_SPANS = (160, 200)
HEAVY_SPANS = (330, 340, 350, 360)
WITNESS_FAMILIES = ("rll", "swc", "sec", "swc")
WITNESS_BITS = 50_000


def _outage_request(rng: random.Random, span: int) -> list[str]:
    q = rng.randint(22, 60)
    e_max = Fraction(span, q)
    return ["outage", "--family", "all", "--json", "--b", f"1/{q}", "--emax", str(e_max)]


def _simulate_request(rng: random.Random, family: str) -> list[str]:
    """An adversarial witness of about WITNESS_BITS bits for an infeasible setup."""
    from capcomp.energy import EnergyModel, rll_feasible, sec_feasible, swc_feasible

    while True:
        b = Fraction(rng.randint(1, 19), 20)
        e_max = Fraction(rng.randint(1, 20), 4)
        model = EnergyModel.make(b, e_max)
        if family == "rll":
            d = rng.randint(1, 6)
            if rll_feasible(d, model):
                continue
            params, period = ["--d", str(d)], d + 1
        else:
            span = rng.randint(2, 12)
            w = rng.randint(1, span)
            if family == "swc":
                if swc_feasible(span, w, model):
                    continue
                params, period = ["--t", str(span), "--w", str(w)], span
            else:
                if sec_feasible(span, w, model):
                    continue
                params, period = ["--l", str(span), "--w", str(w)], 2 * span
        reps = math.ceil(WITNESS_BITS / period)
        return [
            "simulate", "--adversarial", "--family", family, *params,
            "--b", str(b), "--emax", str(e_max), "--reps", str(reps),
        ]


def queries(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    light = [_outage_request(rng, span) for span in LIGHT_SPANS]
    heavy = [_outage_request(rng, span) for span in HEAVY_SPANS]
    witnesses = [_simulate_request(rng, family) for family in WITNESS_FAMILIES]
    return [
        light[0], witnesses[0], heavy[0], witnesses[1], heavy[1],
        light[1], witnesses[2], heavy[2], witnesses[3], heavy[3],
    ]


def requests(name: str, seed: int) -> list[list[str]]:
    """The argv of every request of one pass of the named workload."""
    fixed = {"sweep-b": SWEEP_B, "sweep-emax": SWEEP_EMAX, "verify-all": VERIFY_ALL}
    if name in fixed:
        return fixed[name]
    if name == "queries":
        return queries(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
