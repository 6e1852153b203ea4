"""One cold pass of a workload in a fresh interpreter; started by run.py.

Protocol on stdout: the line ``READY`` once capcomp is imported and the
requests are generated (the end of set-up), then one JSON line with the pass
wall time and every request's argv, exit code, latency and captured output.
With ``--trace 1`` the JSON also holds the per-layer metrics of the pass.
With ``--setup-only`` the child exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import capcomp
    import capcomp.cli

    src = os.environ["PERFBENCH_SRC"]
    if os.path.commonpath([os.path.realpath(capcomp.__file__), src]) != src:
        print(f"capcomp was imported from {capcomp.__file__}, not from {src}", file=sys.stderr)
        return 3

    import workloads

    requests = workloads.requests(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    out.write("READY\n")
    out.flush()
    if args.setup_only:
        return 0

    results = []
    clock = time.perf_counter
    start = clock()
    for argv in requests:
        stdout, stderr = io.StringIO(), io.StringIO()
        begin = clock()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = capcomp.cli.main(argv)
        except Exception:  # a crash is a failed request, reported with its traceback
            code = None
            stderr.write(traceback.format_exc())
        results.append(
            {
                "argv": argv,
                "code": code,
                "s": clock() - begin,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
            }
        )
    wall = clock() - start

    payload = {"wall_s": wall, "requests": results}
    if tracer is not None:
        payload["layers"] = tracer.metrics()
    out.write(json.dumps(payload) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
