"""Binary sequence constraints: run-length, sliding-window, and subblock rules.

Three families, each a frozen parameter record that also carries the
family's rules (membership, counting recurrence, zero-outage condition,
draining witness) and its command-line binding:

* RLL(d): at least d ones separate any two successive zeros.  Sequences
  shorter than d+1 bits carry no full separation window and are accepted;
  leading and trailing runs of ones are unconstrained.
* SWC(t, w): every window of t consecutive bits holds at least w ones.
  Sequences shorter than t have no such window and are accepted.
* SEC(length, w): the sequence splits into aligned subblocks of the given
  length, each holding at least w ones.  Other lengths are rejected as a
  length mismatch.

With these conventions RLL(d) and SWC(d+1, d) accept exactly the same
sequences at every length, which the verification suites exercise.

Each rule exists twice.  ``_accepts`` tests one bit string of any length;
``_accepts_words`` tests a numpy array of n-bit integer words at once, with
shifts and popcounts.  Character i of a string is bit n-1-i of its word, so
ascending word order is lexicographic string order.  The exhaustive oracles
(``enumerate_sequences``, ``sets_equal`` and the verification sweeps) run on
words; ``satisfies`` and the witness builders run on strings.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np

from .capacity import DEFAULT_STATE_BUDGET, _check_swc_args
from .energy import EnergyModel, _check_bits, rll_feasible, sec_feasible, swc_feasible
from .errors import NoWitnessError, ResourceLimitError, _check_pair

# Exhaustive enumeration refuses lengths above this many bits.
DEFAULT_ENUM_LIMIT = 24


class _Family:
    """What every family spec provides on top of its parameter fields.

    ``family`` is the CLI name; ``flags`` names the CLI flag of each field in
    field order (SEC's ``length`` is ``--l``); ``labels`` names the fields in
    outage reports.  The per-family rules are the methods ``_accepts`` (the
    membership test on a checked bit string), ``_accepts_words`` (the same
    test on an array of n-bit words, as a bool mask), ``_count`` (the counting
    recurrence), ``_feasible`` (the zero-outage condition) and ``_witness``
    (one period of a draining sequence, for infeasible models).
    """

    family: ClassVar[str]
    flags: ClassVar[tuple[str, ...]]
    labels: ClassVar[tuple[str, ...]]

    @classmethod
    def from_flags(cls, values: dict) -> "ConstraintSpec":
        """Build a spec from CLI flag values; a missing one is an error naming all the flags."""
        args = [values.get(flag) for flag in cls.flags]
        if None in args:
            raise ValueError(f"{cls.family} requires " + " and ".join(f"--{f}" for f in cls.flags))
        return cls(*args)

    def flag_values(self) -> dict[str, int]:
        """The spec's fields keyed by their CLI flag names."""
        return dict(zip(self.flags, astuple(self)))


@dataclass(frozen=True)
class RLL(_Family):
    d: int

    family = "rll"
    flags = labels = ("d",)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def _accepts(self, bits: str) -> bool:
        if len(bits) <= self.d:
            return True
        last_zero = None
        for i, ch in enumerate(bits):
            if ch == "0":
                if last_zero is not None and i - last_zero - 1 < self.d:
                    return False
                last_zero = i
        return True

    def _accepts_words(self, words: np.ndarray, n: int) -> np.ndarray:
        ok = np.ones(words.shape, dtype=bool)
        if n <= self.d:
            return ok
        zeros = ~words & ((1 << n) - 1)
        # no two zeros within d bits of each other
        for gap in range(1, self.d + 1):
            ok &= (zeros & (zeros >> gap)) == 0
        return ok

    def _count(self, n: int) -> int:
        d = self.d
        if n <= d:
            return 1 << n
        # states: no zero emitted yet, or j ones since the last zero (j capped at d)
        free = 1
        run = [0] * (d + 1)
        for _ in range(n):
            nxt = [0] * (d + 1)
            nxt[0] = free + run[d]  # a zero is legal only after >= d ones, or first
            for j in range(d):
                nxt[j + 1] += run[j]
            nxt[d] += run[d]
            run = nxt
        return free + sum(run)

    def _feasible(self, model: EnergyModel) -> bool:
        return rll_feasible(self.d, model)

    def _witness(self, model: EnergyModel) -> str:
        return "0" + "1" * self.d


@dataclass(frozen=True)
class SWC(_Family):
    t: int
    w: int

    family = "swc"
    flags = ("t", "w")
    labels = ("T", "w")

    def __post_init__(self) -> None:
        _check_pair(self.t, self.w, "swc")

    def _accepts(self, bits: str) -> bool:
        t, w = self.t, self.w
        n = len(bits)
        if n < t:
            return True
        ones = bits.count("1", 0, t)
        if ones < w:
            return False
        for j in range(n - t):
            ones += (bits[j + t] == "1") - (bits[j] == "1")
            if ones < w:
                return False
        return True

    def _accepts_words(self, words: np.ndarray, n: int) -> np.ndarray:
        window = (1 << self.t) - 1
        ok = np.ones(words.shape, dtype=bool)
        for shift in range(n - self.t + 1):
            ok &= np.bitwise_count((words >> shift) & window) >= self.w
        return ok

    def _count(self, n: int) -> int:
        t, w = self.t, self.w
        if n < t:
            return 1 << n
        if w == t:
            return 1  # every window full: only the all-ones sequence
        _check_swc_args(t, w, DEFAULT_STATE_BUDGET)
        states = 1 << (t - 1)
        half = states >> 1
        pc = [bin(s).count("1") for s in range(states)]
        # counts[s]: valid sequences whose last t-1 bits spell s; at length t-1
        # every prefix is still valid
        counts = [1] * states
        for _ in range(t - 1, n):
            counts = [
                (counts[s >> 1] if pc[s] >= w else 0)
                + (counts[(s >> 1) + half] if pc[s] + 1 >= w else 0)
                for s in range(states)
            ]
        return sum(counts)

    def _feasible(self, model: EnergyModel) -> bool:
        return swc_feasible(self.t, self.w, model)

    def _witness(self, model: EnergyModel) -> str:
        if self.w < math.ceil(self.t * model.b):
            return "1" * self.w + "0" * (self.t - self.w)
        return "0" * (self.t - self.w) + "1" * self.w


@dataclass(frozen=True)
class SEC(_Family):
    length: int
    w: int

    family = "sec"
    flags = ("l", "w")
    labels = ("L", "w")

    def __post_init__(self) -> None:
        _check_pair(self.length, self.w, "sec")

    def _check_length(self, n: int) -> None:
        if n % self.length:
            raise ValueError(
                f"sequence length {n} is not a multiple of the subblock length {self.length}"
            )

    def _accepts(self, bits: str) -> bool:
        self._check_length(len(bits))
        return all(
            bits.count("1", j, j + self.length) >= self.w
            for j in range(0, len(bits), self.length)
        )

    def _accepts_words(self, words: np.ndarray, n: int) -> np.ndarray:
        self._check_length(n)
        block = (1 << self.length) - 1
        ok = np.ones(words.shape, dtype=bool)
        for shift in range(0, n, self.length):
            ok &= np.bitwise_count((words >> shift) & block) >= self.w
        return ok

    def _count(self, n: int) -> int:
        self._check_length(n)
        # ones accumulated inside the current subblock -> count
        state = {0: 1}
        for i in range(n):
            nxt: dict[int, int] = {}
            for ones, cnt in state.items():
                nxt[ones] = nxt.get(ones, 0) + cnt
                nxt[ones + 1] = nxt.get(ones + 1, 0) + cnt
            if (i + 1) % self.length == 0:
                carried = sum(cnt for ones, cnt in nxt.items() if ones >= self.w)
                nxt = {0: carried}
            state = nxt
        return sum(state.values())

    def _feasible(self, model: EnergyModel) -> bool:
        return sec_feasible(self.length, self.w, model)

    def _witness(self, model: EnergyModel) -> str:
        ones_first = "1" * self.w + "0" * (self.length - self.w)
        zeros_first = "0" * (self.length - self.w) + "1" * self.w
        # infeasible only through a short start: open with zeros to drain it
        short_start = model.e_init < (self.length - self.w) * model.b
        if short_start and self._feasible(model.with_full_buffer()):
            return zeros_first + ones_first
        return ones_first + zeros_first


ConstraintSpec = RLL | SWC | SEC

# CLI family name -> spec class
FAMILIES: dict[str, type[ConstraintSpec]] = {cls.family: cls for cls in (RLL, SWC, SEC)}


def satisfies(spec: ConstraintSpec, bits: str) -> bool:
    """Exact membership test for a bit string under the given constraint."""
    _check_bits(bits)
    return spec._accepts(bits)


def _words(spec: ConstraintSpec, n: int) -> np.ndarray:
    """Every valid length-n sequence as an n-bit word, in ascending order.

    All 2^n words are filtered with the family's word rule; lengths above
    DEFAULT_ENUM_LIMIT are refused.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUM_LIMIT:
        raise ResourceLimitError(
            f"enumeration of 2^{n} sequences exceeds the limit of 2^{DEFAULT_ENUM_LIMIT}"
        )
    words = np.arange(1 << n, dtype=np.int64)
    return words[spec._accepts_words(words, n)]


def _word_text(word: int, n: int) -> str:
    """The n-bit string of a word, most significant bit first."""
    return format(word, f"0{n}b") if n else ""


def enumerate_sequences(spec: ConstraintSpec, n: int) -> list[str]:
    """All valid length-n sequences in lexicographic order, by brute force.

    Deliberately dumb: all 2^n words of n bits are tested against the
    family's word rule, which uses neither the counting recurrences nor the
    feasibility conditions, so this is the reference the recurrences are
    checked against.  Lengths above DEFAULT_ENUM_LIMIT are refused.
    """
    return [_word_text(word, n) for word in _words(spec, n).tolist()]


def count_exact(spec: ConstraintSpec, n: int) -> int:
    """Number of valid length-n sequences, by exact integer recurrence.

    A window spec over the state budget raises ResourceLimitError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return spec._count(n)


def sets_equal(spec_a: ConstraintSpec, spec_b: ConstraintSpec, n: int) -> bool:
    """Whether two constraints admit exactly the same length-n sequences."""
    return np.array_equal(_words(spec_a, n), _words(spec_b, n))


def adversarial_sequence(
    spec: ConstraintSpec, model: EnergyModel, repetitions: int = 1
) -> str:
    """A valid sequence built to drain the battery when the model is infeasible.

    The phase of the periodic pattern targets whichever feasibility condition
    fails: too-low starting charge is attacked zeros-first, a too-low weight
    or buffer is attacked ones-first so harvested energy overflows before the
    zeros arrive.  Raises NoWitnessError when every valid sequence is
    outage-free, since no witness can exist.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if spec._feasible(model):
        raise NoWitnessError(f"{spec} avoids outage under {model}")
    return spec._witness(model) * repetitions
