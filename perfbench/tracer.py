"""Per-layer tracing of capcomp from outside the package.

The tracer wraps every public function of each layer module and installs the
wrapper at every name that binds the original: the defining module, each
module that imported it with ``from .x import y``, and module-level dicts such
as ``verify.SUITES``.  A call from anywhere in the package therefore passes
through the wrapper.

Each wrapper records calls and self time, which is the call's duration minus
the time of wrapped calls made inside it.  Time spent in private helpers goes
to the nearest wrapped caller.  Spans are aggregated per function rather than
kept one by one, because ``outage_occurs`` alone is called millions of times
in the verification battery.

A few wrappers also note the arguments or results needed for the computed
metrics (state counts, binomial terms, bits).  Those notes are cheap appends
or additions; the counting from them runs after the pass, outside any span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from operator import itemgetter

LAYERS = ("cli", "outage", "capacity", "bounds", "energy", "constraints", "verify")

# The inner predicate of the enumeration oracle: its time belongs to
# enumerate_sequences, and wrapping its millions of calls would swamp the trace.
UNWRAPPED = {"constraints.satisfies"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [("trace.overhead", "ratio", "lower")]
PER_LAYER += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
PER_LAYER += [
    ("capacity.swc_capacity_exact.calls", "count", "lower"),
    ("capacity.swc_capacity_exact.solves", "count", "lower"),
    ("capacity.swc_capacity_exact.hit_frac", "ratio", "higher"),
    ("capacity.swc_capacity_exact.states", "count", "lower"),
    ("capacity.swc_capacity_exact.self_s", "s", "lower"),
    ("capacity.sec_capacity.calls", "count", "lower"),
    ("capacity.sec_capacity.terms", "count", "lower"),
    ("capacity.sec_capacity.self_s", "s", "lower"),
    ("capacity.swc_capacity_growth.calls", "count", "lower"),
    ("capacity.swc_capacity_growth.self_s", "s", "lower"),
    ("capacity.rll_capacity.calls", "count", "lower"),
    ("capacity.rll_capacity.self_s", "s", "lower"),
    ("outage.o_swc.calls", "count", "lower"),
    ("outage.o_swc.exact_candidates", "count", "higher"),
    ("outage.o_swc.fallback_candidates", "count", "lower"),
    ("outage.o_swc.exact_frac", "ratio", "higher"),
    ("outage.o_swc.self_s", "s", "lower"),
    ("outage.o_sec.calls", "count", "lower"),
    ("outage.o_sec.self_s", "s", "lower"),
    ("outage.o_rll.self_s", "s", "lower"),
    ("bounds.swc_lower_bound.calls", "count", "lower"),
    ("bounds.swc_lower_bound.self_s", "s", "lower"),
    ("bounds.sandwich_bounds.calls", "count", "lower"),
    ("bounds.sandwich_bounds.self_s", "s", "lower"),
    ("energy.feasible_swc_candidates.count", "count", "lower"),
    ("energy.feasible_swc_candidates.self_s", "s", "lower"),
    ("energy.feasible_sec_candidates.count", "count", "lower"),
    ("energy.feasible_sec_candidates.self_s", "s", "lower"),
    ("energy.outage_occurs.calls", "count", "lower"),
    ("energy.outage_occurs.bits", "count", "lower"),
    ("energy.outage_occurs.self_s", "s", "lower"),
    ("energy.outage_occurs.mbit_per_s", "Mbit/s", "higher"),
    ("energy.simulate.calls", "count", "lower"),
    ("energy.simulate.bits", "count", "lower"),
    ("energy.simulate.self_s", "s", "lower"),
    ("energy.simulate.mbit_per_s", "Mbit/s", "higher"),
    ("constraints.enumerate_sequences.calls", "count", "lower"),
    ("constraints.enumerate_sequences.tested", "count", "lower"),
    ("constraints.enumerate_sequences.valid_frac", "ratio", "higher"),
    ("constraints.enumerate_sequences.self_s", "s", "lower"),
    ("constraints.count_exact.calls", "count", "lower"),
    ("constraints.count_exact.self_s", "s", "lower"),
    ("constraints.adversarial_sequence.calls", "count", "lower"),
    ("constraints.adversarial_sequence.self_s", "s", "lower"),
    ("verify.counts.self_s", "s", "lower"),
    ("verify.equivalence.self_s", "s", "lower"),
    ("verify.bounds.self_s", "s", "lower"),
    ("verify.outage.self_s", "s", "lower"),
]


def _first_arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


class Tracer:
    """Span aggregates for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, int] = defaultdict(int)
        # stack[-1] accumulates the time of wrapped calls inside the open span
        self._stack = [0.0]
        self._originals: dict[str, object] = {}
        self._window_keys: list[tuple] = []
        self._swc_calls: list[tuple] = []

    def _wrap(self, qualname: str, fn, note=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                calls[qualname] += 1
                self_s[qualname] += elapsed - inner
            if note is not None:
                note(args, kwargs, result)
            return result

        return wrapper

    def _notes(self, capcomp) -> dict:
        """Recorders of what the computed metrics need, keyed by function."""
        totals = self.totals

        def bound(fn):
            sig = inspect.signature(fn)

            def arguments(args, kwargs):
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                return ba.arguments

            return arguments

        window_args = bound(capcomp.capacity.swc_capacity_exact)
        o_swc_args = bound(capcomp.outage.o_swc)
        sec_args = bound(capcomp.capacity.sec_capacity)
        enum_args = bound(capcomp.constraints.enumerate_sequences)

        def window(args, kwargs, result):
            a = window_args(args, kwargs)
            if a["w"] != a["t"]:
                self._window_keys.append((a["t"], a["w"], a["tol"]))

        def o_swc(args, kwargs, result):
            a = o_swc_args(args, kwargs)
            self._swc_calls.append((a["model"], a["state_budget"], result.method))

        def sec(args, kwargs, result):
            # hot in the subblock scans: skip the binding for plain positional calls
            if len(args) == 2:
                length, w = args
            else:
                length, w = itemgetter("length", "w")(sec_args(args, kwargs))
            totals["capacity.sec_capacity.terms"] += length - w + 1

        def swc_candidates(args, kwargs, result):
            totals["energy.feasible_swc_candidates.count"] += len(result)

        def sec_candidates(args, kwargs, result):
            totals["energy.feasible_sec_candidates.count"] += len(result)

        def outage_bits(args, kwargs, result):
            totals["energy.outage_occurs.bits"] += len(_first_arg(args, kwargs, "bits"))

        def simulate_bits(args, kwargs, result):
            totals["energy.simulate.bits"] += len(_first_arg(args, kwargs, "bits"))

        def enumerated(args, kwargs, result):
            totals["constraints.enumerate_sequences.tested"] += 1 << enum_args(args, kwargs)["n"]
            totals["constraints.enumerate_sequences.valid"] += len(result)

        return {
            "capacity.swc_capacity_exact": window,
            "outage.o_swc": o_swc,
            "capacity.sec_capacity": sec,
            "energy.feasible_swc_candidates": swc_candidates,
            "energy.feasible_sec_candidates": sec_candidates,
            "energy.outage_occurs": outage_bits,
            "energy.simulate": simulate_bits,
            "constraints.enumerate_sequences": enumerated,
        }

    def install(self) -> None:
        """Wrap the public functions of every layer at every binding site."""
        import capcomp

        notes = self._notes(capcomp)
        wrappers = {}
        for layer in LAYERS:
            module = getattr(capcomp, layer)
            for name, obj in vars(module).items():
                qualname = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and qualname not in UNWRAPPED
                ):
                    self._originals[qualname] = obj
                    wrappers[id(obj)] = self._wrap(qualname, obj, notes.get(qualname))
        for modname, module in list(sys.modules.items()):
            if modname != "capcomp" and not modname.startswith("capcomp."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass (trace.overhead is added by the caller)."""
        calls, self_s, totals = self.calls, self.self_s, self.totals
        out: dict[str, float] = {}
        for name, _unit, _better in PER_LAYER:
            qual, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[qual]
            elif field == "self_s":
                out[name] = self_s[qual]
            else:
                out[name] = totals[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer
            )
        for suite in ("counts", "equivalence", "bounds", "outage"):
            out[f"verify.{suite}.self_s"] = self_s[f"verify.suite_{suite}"]

        solved = set(self._window_keys)
        out["capacity.swc_capacity_exact.solves"] = len(solved)
        out["capacity.swc_capacity_exact.hit_frac"] = (
            1.0 - len(solved) / len(self._window_keys) if self._window_keys else 0.0
        )
        out["capacity.swc_capacity_exact.states"] = sum(1 << (t - 1) for t, _w, _tol in solved)

        # the candidate split is recomputed with the unwrapped original, so it
        # lands in no span
        candidates = self._originals["energy.feasible_swc_candidates"]
        exact = fallback = 0
        for model, budget, _method in self._swc_calls:
            for t, w in candidates(model.with_full_buffer()):
                if w == t or (1 << (t - 1)) <= budget:
                    exact += 1
                else:
                    fallback += 1
        out["outage.o_swc.exact_candidates"] = exact
        out["outage.o_swc.fallback_candidates"] = fallback
        methods = [method for _model, _budget, method in self._swc_calls]
        out["outage.o_swc.exact_frac"] = methods.count("exact") / len(methods) if methods else 0.0

        for func in ("outage_occurs", "simulate"):
            busy = self_s[f"energy.{func}"]
            bits = totals[f"energy.{func}.bits"]
            out[f"energy.{func}.mbit_per_s"] = bits / busy / 1e6 if busy > 0 else 0.0
        tested = totals["constraints.enumerate_sequences.tested"]
        out["constraints.enumerate_sequences.valid_frac"] = (
            totals["constraints.enumerate_sequences.valid"] / tested if tested else 0.0
        )
        return out
