"""Default limits and tolerances, with config-file and environment overrides.

Resolution order used by the CLI: built-in defaults, then a key=value config
file, then CAPCOMP_* environment variables, then explicit command-line flags.
Library functions take these values as keyword defaults and never read the
environment themselves.
"""

from __future__ import annotations

import os

ENV_PREFIX = "CAPCOMP_"

# Exhaustive enumeration refuses lengths above this many bits.
DEFAULT_ENUM_LIMIT = 24

# Sliding-window state vectors hold 2^(T-1) entries; refuse beyond this.
DEFAULT_STATE_BUDGET = 1 << 20

# Bisection bracket width for the run-length characteristic root.
ROOT_TOL = 1e-12

# Rayleigh-estimate delta for the power iteration.
SPECTRAL_TOL = 1e-10

# Successive-estimate delta for the growth-rate route.
GROWTH_TOL = 1e-9

# Longest prefix the growth-rate route will extend to.
DEFAULT_GROWTH_NMAX = 4000

# Window-splitting depth for the composite lower bound.
DEFAULT_M_MAX = 8

_INT_KEYS = ("state_budget", "growth_nmax")
_FLOAT_KEYS = ("root_tol", "spectral_tol", "growth_tol")

DEFAULTS: dict[str, int | float] = {
    "state_budget": DEFAULT_STATE_BUDGET,
    "growth_nmax": DEFAULT_GROWTH_NMAX,
    "root_tol": ROOT_TOL,
    "spectral_tol": SPECTRAL_TOL,
    "growth_tol": GROWTH_TOL,
}


def _coerce(key: str, raw: str) -> int | float:
    if key in _INT_KEYS:
        return int(raw, 0)
    if key in _FLOAT_KEYS:
        return float(raw)
    raise ValueError(f"unknown config key: {key}")


def load_config(path: str | None = None, environ: dict[str, str] | None = None) -> dict[str, int | float]:
    """Merge defaults, an optional key=value file, and CAPCOMP_* variables."""
    merged = dict(DEFAULTS)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, raw = line.partition("=")
                key = key.strip().lower()
                merged[key] = _coerce(key, raw.strip())
    env = os.environ if environ is None else environ
    for key in DEFAULTS:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            merged[key] = _coerce(key, raw)
    return merged
