"""capcomp benchmark: cold-process workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-b --seed 1 --seconds 25 --trace 0

Each pass of a workload runs in a fresh interpreter (perfbench/child.py) with
BLAS and OpenMP pinned to one thread, because the CLI user pays cold caches
on every call.  A run makes a few set-up-only spawns, then repeats cold passes
while the next one still fits in ``--seconds``, and checks every output.

With ``--trace 0`` it reports the end-to-end metrics: the median set-up time,
the median pass wall time, the median peak RSS of a pass, and the p50 and p90
latency of the run's requests.  With ``--trace 1`` it alternates untraced and
traced passes while the next pair still fits in ``--seconds``, and reports the
per-layer metrics of the first traced pass, plus the tracing overhead as the
median traced over the median untraced wall time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it give the same figures for people, together with
failed_frac and exact_frac.  The exit code is non-zero, and no JSON is
printed, when the benchmark cannot run the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import Verdict, check_pass  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SETUP_PROBES = 9
# a run gives up, kills its child and fails after this long
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The program could not be run or measured; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = os.path.realpath(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(
    args: argparse.Namespace, deadline: float, trace: int = 0, setup_only: bool = False
) -> dict:
    """Run one child; return its set-up time, peak RSS and (unless set-up only) its pass."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - begin
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready != b"READY\n":
        raise BenchError(f"child {' '.join(cmd[1:])} exited with {proc.returncode}")
    record = {"setup_s": setup_s, "rss_mb": usage.ru_maxrss / 1024}
    if not setup_only:
        record.update(json.loads(rest))
    return record


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(args: argparse.Namespace, verdict: Verdict) -> dict[str, float]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    first = time.monotonic()
    while True:
        record = spawn(args, deadline)
        passes.append(record)
        setups.append(record["setup_s"])
        check_pass(verdict, args.workload, record["requests"])
        now = time.monotonic()
        # start another pass only if it should end within the run's seconds
        if now - start + (now - first) / len(passes) > args.seconds:
            break
    latencies = [r["s"] for p in passes for r in p["requests"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "request_s.p50": percentile(latencies, 50),
        "request_s.p90": percentile(latencies, 90),
        "passes": len(passes),
        "requests": len(latencies),
    }


def measure_layers(args: argparse.Namespace, verdict: Verdict) -> dict[str, float]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        for trace, records in ((0, plain), (1, traced)):
            record = spawn(args, deadline, trace=trace)
            records.append(record)
            check_pass(verdict, args.workload, record["requests"])
        elapsed = time.monotonic() - start
        # start another pair only if it should end within the run's seconds
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    layers = traced[0]["layers"]
    layers["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in plain
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capcomp" / "__init__.py").is_file():
        print(f"perfbench: no capcomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    verdict = Verdict()
    try:
        if args.trace:
            values = measure_layers(args, verdict)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values = measure(args, verdict)
            units = {
                "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                "request_s.p50": "s", "request_s.p90": "s",
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for problem in verdict.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if not args.trace:
        print(f"  {values['passes']} cold passes, {values['requests']} requests")
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<44} {verdict.failed:>7}/{verdict.attempted:<6} ratio")
    if verdict.windows:
        print(f"  {'exact_frac':<44} {verdict.exact:>7}/{verdict.windows:<6} ratio (all passes)")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
