"""Exception types and the (span, weight) argument check shared across the package."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a size budget or iteration cap."""


class NoWitnessError(ValueError):
    """Raised when an adversarial sequence is requested for a feasible setup."""


# how the messages name the span of each family: alone, and as the weight's bound
_SPAN_NAMES = {"swc": ("t", "t"), "sec": ("subblock length", "length")}


def _check_pair(span: int, w: int, family: str) -> None:
    """Raise ValueError unless span >= 1 and 1 <= w <= span, for family "swc" or "sec"."""
    name, bound = _SPAN_NAMES[family]
    if span < 1:
        raise ValueError(f"{name} must be >= 1")
    if not 1 <= w <= span:
        raise ValueError(f"w must satisfy 1 <= w <= {bound}, got {w}")
