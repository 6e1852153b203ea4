"""Binary sequence constraints: run-length, sliding-window, and subblock rules.

Three families, each a frozen parameter record that also carries the
family's rules (membership, count, zero-outage condition, draining witness)
and its command-line binding:

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

Each count comes from the formula behind the family's capacity: the
run-length count runs the recurrence whose characteristic polynomial
rll_capacity solves, the subblock count is a power of sec_capacity's
subblock sum, and the window count runs on the growth route's predecessor
tables.  The brute-force oracles check all three.

Membership is one rule for all three: a window of some span, started at
every multiple of some stride, holds at least some number of ones.  Each
spec declares its triple (span, weight, stride): RLL(d) is (d+1, d, 1),
SWC(t, w) is (t, w, 1) and SEC(length, w) is (length, w, length).  The rule
exists twice.  ``_accepts`` tests one bit string of any length, with running
sums of its ones; ``_accepts_words`` tests a numpy array of n-bit integer
words at once, with shifts and popcounts.  RLL keeps a word rule of its own,
the zero-gap scan, so the suites that compare RLL(d) with SWC(d+1, d) test
two independent rules.  Character i of a string is bit n-1-i of its word, so
ascending word order is lexicographic string order.  Words are int32: no
enumerated word is longer than DEFAULT_ENUM_LIMIT = 24 bits, so every word
and every shift of one stays below the sign bit; verify sweeps its longest
subblock words as products of blocks of at most 6 bits, never built as
words.  The exhaustive oracles
(``enumerate_sequences``, ``sets_equal`` and the verification sweeps) run on
words; ``satisfies`` and the witness builders run on strings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np

from .capacity import DEFAULT_STATE_BUDGET, _check_swc_args, _subblock_words, _window_tables
from .energy import EnergyModel, _check_bits, rll_feasible, sec_feasible, swc_feasible
from .errors import NoWitnessError, ResourceLimitError, _check_pair

# Exhaustive enumeration refuses lengths above this many bits.
DEFAULT_ENUM_LIMIT = 24

# the longest witness adversarial_sequence builds: verify's witnesses of
# start + 1 periods reach 16 periods, 192 bits, on its grid, and the simulate
# command peaks at about 120 bytes per witness bit (96 MB over its baseline at
# 8 * 10^5 bits)
_MAX_WITNESS_BITS = 1 << 20


class _Family:
    """What every family spec provides on top of its parameter fields.

    ``family`` is the CLI name; ``flags`` names the CLI flag of each field in
    field order (SEC's ``length`` is ``--l``); ``labels`` names the fields in
    outage reports.  The per-family rules are the methods ``_window`` (the
    membership triple (span, weight, stride): every window of span bits that
    starts at a multiple of stride holds at least weight ones),
    ``_check_length`` (raises ValueError for a length the rule cannot test;
    only SEC has one), ``_count`` (the exact count, from the formula behind
    the family's capacity), ``_feasible`` (the zero-outage condition),
    ``_witness`` (one period of a draining sequence, for infeasible models)
    and ``_period`` (that period's length, from the fields alone, so a
    too-long witness is refused unbuilt).  Membership is tested here, from
    the triple alone: ``_accepts`` on a checked bit string and
    ``_accepts_words`` on an array of n-bit words, as a bool mask.  RLL
    overrides ``_accepts_words`` with its zero-gap rule.
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

    def _check_length(self, n: int) -> None:
        """Every length can be tested, except where a family overrides this."""

    def _accepts(self, bits: str) -> bool:
        self._check_length(len(bits))
        span, weight, stride = self._window()
        if len(bits) < span:
            return True
        # ones[i] counts the ones among the first i bits; a window starting at
        # j holds ones[j + span] - ones[j] of them
        ones = np.cumsum(np.frombuffer(b"0" + bits.encode(), np.uint8) == ord("1"))
        return bool((ones[span::stride] - ones[: len(bits) + 1 - span : stride] >= weight).all())

    def _accepts_words(self, words: np.ndarray, n: int) -> np.ndarray:
        self._check_length(n)
        span, weight, stride = self._window()
        window = (1 << span) - 1
        ok = np.ones(words.shape, dtype=bool)
        part = np.empty_like(words)
        # a stride over 1 divides n - span (SEC's length check), so the shifts
        # at its multiples are the windows at its multiples from the start
        for shift in range(0, n - span + 1, stride):
            np.right_shift(words, shift, out=part)
            np.bitwise_and(part, window, out=part)
            ok &= np.bitwise_count(part) >= weight
        return ok


@dataclass(frozen=True)
class RLL(_Family):
    d: int

    family = "rll"
    flags = labels = ("d",)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def _window(self) -> tuple[int, int, int]:
        return self.d + 1, self.d, 1

    def _accepts_words(self, words: np.ndarray, n: int) -> np.ndarray:
        # the zero-gap rule, not the window rule, so that verify's
        # RLL(d) = SWC(d + 1, d) checks compare two independent rules
        ok = np.ones(words.shape, dtype=bool)
        if n <= self.d:
            return ok
        zeros = ~words & ((1 << n) - 1)
        near = np.empty_like(zeros)
        # no two zeros within d bits of each other
        for gap in range(1, self.d + 1):
            np.right_shift(zeros, gap, out=near)
            np.bitwise_and(near, zeros, out=near)
            ok &= near == 0
        return ok

    def _count(self, n: int) -> int:
        """2^n for n <= d, else g(n), by the recurrence of X^(d+1) - X^d - 1.

        g(k) counts the k-bit words in which every two zeros are at least d
        ones apart, which is the rule for n > d.  For k <= d + 1 at most one
        zero fits, so g(k) = k + 1.  For k >= d + 2 a valid word either ends
        in 1 after any valid word of k - 1 bits, or ends in 0: then its last
        d + 1 bits are 1^d 0, since a zero among the d bits before the final
        zero would be too close, and they follow any valid word of k - d - 1
        bits, since the d ones separate that word's zeros from the final one.
        So g(k) = g(k - 1) + g(k - d - 1).  Only the last d + 1 terms are
        kept.
        """
        d = self.d
        if n <= d:
            return 1 << n
        # g(k - d - 1), ..., g(k - 1), starting at k = d + 2
        terms = deque(range(2, d + 3), maxlen=d + 1)
        for _ in range(d + 2, n + 1):
            terms.append(terms[-1] + terms[0])
        return terms[-1]

    def _feasible(self, model: EnergyModel) -> bool:
        return rll_feasible(self.d, model)

    def _witness(self, model: EnergyModel) -> str:
        return "0" + "1" * self.d

    def _period(self) -> int:
        return self.d + 1


@dataclass(frozen=True)
class SWC(_Family):
    t: int
    w: int

    family = "swc"
    flags = ("t", "w")
    labels = ("T", "w")

    def __post_init__(self) -> None:
        _check_pair(self.t, self.w, "swc")

    def _window(self) -> tuple[int, int, int]:
        return self.t, self.w, 1

    def _count(self, n: int) -> int:
        t, w = self.t, self.w
        if n < t:
            return 1 << n
        if w == t:
            return 1  # every window full: only the all-ones sequence
        _check_swc_args(t, w, DEFAULT_STATE_BUDGET)
        # the growth route's predecessor tables, whose too-light predecessors
        # gather from a sentinel slot of count 0
        idx0, idx1 = (idx.tolist() for idx in _window_tables(t, w))
        # counts[s]: valid sequences whose last t-1 bits spell s; at length t-1
        # every prefix is still valid
        counts = [1] * len(idx0) + [0]
        for _ in range(t - 1, n):
            counts[:-1] = [counts[i] + counts[j] for i, j in zip(idx0, idx1)]
        return sum(counts)

    def _feasible(self, model: EnergyModel) -> bool:
        return swc_feasible(self.t, self.w, model)

    def _witness(self, model: EnergyModel) -> str:
        if self.w < math.ceil(self.t * model.b):
            return "1" * self.w + "0" * (self.t - self.w)
        return "0" * (self.t - self.w) + "1" * self.w

    def _period(self) -> int:
        return self.t


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

    def _window(self) -> tuple[int, int, int]:
        return self.length, self.w, self.length

    def _count(self, n: int) -> int:
        """S(L, w)^(n/L), with S(L, w) the subblock sum of sec_capacity.

        The rule tests each aligned subblock alone, so each of the n/L
        subblocks is chosen independently among the S(L, w) L-bit words with
        at least w ones.
        """
        self._check_length(n)
        return _subblock_words(self.length, self.w) ** (n // self.length)

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

    def _period(self) -> int:
        return 2 * self.length


ConstraintSpec = RLL | SWC | SEC

# CLI family name -> spec class
FAMILIES: dict[str, type[ConstraintSpec]] = {cls.family: cls for cls in (RLL, SWC, SEC)}


def satisfies(spec: ConstraintSpec, bits: str) -> bool:
    """Exact membership test for a bit string under the given constraint."""
    _check_bits(bits)
    return spec._accepts(bits)


def _words(spec: ConstraintSpec, n: int) -> np.ndarray:
    """Every valid length-n sequence as an n-bit word, in ascending order.

    All 2^n words are filtered with the family's word rule, as int32;
    lengths above DEFAULT_ENUM_LIMIT are refused.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUM_LIMIT:
        raise ResourceLimitError(
            f"enumeration of 2^{n} sequences exceeds the limit of 2^{DEFAULT_ENUM_LIMIT}"
        )
    words = np.arange(1 << n, dtype=np.int32)
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
    """Number of valid length-n sequences, exact, from each capacity's own formula.

    Run lengths follow the characteristic recurrence of rll_capacity's
    polynomial, subblocks are a power of sec_capacity's subblock sum, and
    windows run an integer DP on the growth route's predecessor tables.  A
    window spec over the state budget raises ResourceLimitError.
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
    outage-free, since no witness can exist, and ResourceLimitError when the
    sequence would be longer than _MAX_WITNESS_BITS, before any of it is
    built.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if spec._feasible(model):
        raise NoWitnessError(f"{spec} avoids outage under {model}")
    if spec._period() * repetitions > _MAX_WITNESS_BITS:
        raise ResourceLimitError(
            f"a witness of {repetitions} repetitions of {spec._period()} bits is over "
            f"the limit of {_MAX_WITNESS_BITS} bits"
        )
    return spec._witness(model) * repetitions
