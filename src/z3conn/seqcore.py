"""Degree sequences: parsing, graphicality, residual reduction, classification.

A degree sequence is a nonincreasing tuple of positive integers.  The text
form uses exponent notation, e.g. "(6,5,4^4,3)" for (6,5,4,4,4,4,3).  The
classifier sorts sequences into the families handled by the realization
builder, the known non-realizable exception families, and everything else.
"""
from __future__ import annotations

import dataclasses
import enum
import itertools
import re
from typing import Sequence


class SequenceError(ValueError):
    """Invalid degree sequence content."""


class SequenceSyntaxError(SequenceError):
    """Malformed degree sequence text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclasses.dataclass(frozen=True)
class DegreeSequence:
    """A nonincreasing sequence of positive integer degrees."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.degrees:
            raise SequenceError("degree sequence must be nonempty")
        for d in self.degrees:
            if not isinstance(d, int) or d < 1:
                raise SequenceError(f"degrees must be positive integers, got {d!r}")
        if any(a < b for a, b in zip(self.degrees, self.degrees[1:])):
            raise SequenceError("degrees must be nonincreasing")

    @classmethod
    def of(cls, values) -> "DegreeSequence":
        """Build from any iterable of ints, sorting into canonical order."""
        return cls(tuple(sorted(values, reverse=True)))

    @property
    def n(self) -> int:
        return len(self.degrees)

    def runs(self) -> list[tuple[int, int]]:
        """The sequence as (value, count) runs, largest value first."""
        return [(v, len(list(g))) for v, g in itertools.groupby(self.degrees)]

    def render(self) -> str:
        """Canonical text form with exponents for runs, e.g. "(6,5,4^4,3)"."""
        return render_runs(self.runs())

    def __str__(self) -> str:
        return self.render()


MAX_SEQUENCE_LENGTH = 10 ** 6
"""Longest sequence `parse_sequence` expands, far above any n the builder
handles; checked before each `^` term is expanded."""

_TOKEN = re.compile(r"\s*(\d+|\^|,|\(|\))")


def parse_sequence(text: str) -> DegreeSequence:
    """Parse "(5,4,3^5)" style text (parentheses optional) into a sequence.

    Terms are INT or INT^INT; the result is re-sorted into canonical
    nonincreasing order, so input order does not matter.  Text that would
    expand to more than MAX_SEQUENCE_LENGTH entries is rejected unexpanded.
    """
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SequenceSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()

    if not tokens:
        raise SequenceSyntaxError("empty sequence", 0)
    if tokens[0][0] == "(":
        if tokens[-1][0] != ")":
            raise SequenceSyntaxError("missing closing parenthesis", len(text))
        tokens = tokens[1:-1]
    elif tokens[-1][0] == ")":
        raise SequenceSyntaxError("unmatched closing parenthesis", tokens[-1][1])

    degrees: list[int] = []
    i = 0
    while i < len(tokens):
        tok, tpos = tokens[i]
        if not tok.isdigit():
            raise SequenceSyntaxError(f"expected degree, got {tok!r}", tpos)
        value = int(tok)
        count = 1
        i += 1
        if i < len(tokens) and tokens[i][0] == "^":
            i += 1
            if i >= len(tokens) or not tokens[i][0].isdigit():
                raise SequenceSyntaxError("expected exponent after '^'", tpos)
            count = int(tokens[i][0])
            if count < 1:
                raise SequenceSyntaxError("exponent must be positive", tokens[i][1])
            i += 1
        if value < 1:
            raise SequenceSyntaxError("degrees must be positive", tpos)
        if len(degrees) + count > MAX_SEQUENCE_LENGTH:
            raise SequenceSyntaxError(
                f"sequence longer than {MAX_SEQUENCE_LENGTH} entries", tpos)
        degrees.extend([value] * count)
        if i < len(tokens):
            if tokens[i][0] != ",":
                raise SequenceSyntaxError(f"expected ',', got {tokens[i][0]!r}", tokens[i][1])
            i += 1
            if i >= len(tokens):
                raise SequenceSyntaxError("trailing comma", tokens[i - 1][1])
    return DegreeSequence.of(degrees)


def is_graphic(seq: DegreeSequence | Sequence[int]) -> bool:
    """Whether some simple graph has exactly these degrees (Erdős–Gallai).

    Takes a DegreeSequence or any nonincreasing sequence of nonnegative
    ints (zeros allowed).  Checks, for every k, that the k largest degrees
    sum to at most k(k-1) + sum(min(d_i, k) for the rest) in O(n): prefix
    sums give both sides, and a pointer tracks how many entries are >= k.
    """
    d = seq.degrees if isinstance(seq, DegreeSequence) else seq
    n = len(d)
    prefix = list(itertools.accumulate(d, initial=0))
    total = prefix[n]
    if total % 2 == 1:
        return False
    at_least_k = n  # entries d[0..at_least_k) are >= k
    for k in range(1, n + 1):
        while at_least_k and d[at_least_k - 1] < k:
            at_least_k -= 1
        cut = max(at_least_k, k)
        tail = k * (cut - k) + total - prefix[cut]
        if prefix[k] > k * (k - 1) + tail:
            return False
    return True


def render_runs(runs: list[tuple[int, int]]) -> str:
    """`DegreeSequence.render` of the sequence with these runs."""
    return "(" + ",".join(str(v) if c == 1 else f"{v}^{c}" for v, c in runs) + ")"


def run_entry(runs: list[tuple[int, int]], i: int) -> int:
    """Entry i (from 0) of the sequence with these runs."""
    for v, c in runs:
        if i < c:
            return v
        i -= c
    raise IndexError(i)


def residual_runs(runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """`residual` in place on a nonincreasing run list, in O(runs touched).

    A partly lowered run (v, c) splits into the kept part (v, c-t) and the
    lowered tail (v-1, t); lowered values stay distinct, so only those two
    can merge with a neighbour.  Returns the lowered entries as (new
    value, count) runs; after a SequenceError `runs` is left unspecified.
    """
    k, c = runs[-1]
    if c == 1:
        runs.pop()
    else:
        runs[-1] = (k, c - 1)
    lowered, need, j = [], k, 0
    while need:
        if j == len(runs):
            raise SequenceError(f"smallest degree {k} exceeds "
                                f"n-1={sum(c for _, c in runs)}")
        v, c = runs[j]
        if v == 1:
            raise SequenceError("residual produced a zero degree")
        lowered.append((v - 1, min(c, need)))
        need -= lowered[-1][1]
        j += 1
    runs[:j - 1] = lowered[:-1]
    (v, c), (d, t) = runs[j - 1], lowered[-1]
    kept, end = c - t, j
    if j > 1 and runs[j - 2][0] == v:  # the kept part meets the run before
        runs[j - 2], kept = (v, runs[j - 2][1] + kept), 0
    if j < len(runs) and runs[j][0] == d:  # the lowered tail meets the next run
        t, end = t + runs[j][1], j + 1
    runs[j - 1:end] = [(v, kept)] * (kept > 0) + [(d, t)]
    return lowered


def residual(seq: DegreeSequence) -> DegreeSequence:
    """Delete the last (smallest) entry dn and decrement the dn largest;
    requires n >= 2 and dn <= n - 1 so the reduction is defined."""
    runs = seq.runs()
    residual_runs(runs)
    return DegreeSequence(tuple(v for v, c in runs for _ in range(c)))


class Kind(str, enum.Enum):
    NOT_GRAPHIC = "not_graphic"
    EXCEPTION_N3 = "exception_n3"
    EXCEPTION_ODD_K = "exception_odd_k"
    EXCEPTION_ODD_K_SQUARE = "exception_odd_k_square"
    COVERED = "covered"
    OUT_OF_COVERAGE = "out_of_coverage"


# The exception families: graphic, but no Z3-connected realization.
EXCEPTION_KINDS = frozenset({Kind.EXCEPTION_N3, Kind.EXCEPTION_ODD_K,
                             Kind.EXCEPTION_ODD_K_SQUARE})


class Route(str, enum.Enum):
    """Which construction family a covered sequence is handled by."""

    T12 = "T12"  # d1 = n-1
    L41 = "L41"  # d1 = n-2
    T14 = "T14"  # d1 = n-3
    T15 = "T15"  # d1 <= n-4 and d_{n-5} >= 4


@dataclasses.dataclass(frozen=True)
class Classification:
    kind: Kind
    route: Route | None = None
    k: int | None = None


def classify(seq: DegreeSequence) -> Classification:
    """Sort a sequence into exception / covered / out-of-coverage buckets.

    Exception families (graphic but with no Z3-connected realization):
      (n-3, 3^(n-1)); (k, 3^k) for odd k; (k, k, 3^(k-1)) for odd k.
    Covered sequences have minimum degree >= 3 and fall to one of the four
    construction routes.  Everything else is out of coverage.
    """
    if not is_graphic(seq):
        return Classification(Kind.NOT_GRAPHIC)
    return classify_shape(seq.runs(), seq.n)


def classify_shape(runs: list[tuple[int, int]], n: int) -> Classification:
    """`classify` of a graphic sequence of n entries, given as runs.  It
    reads d1, d2, the minimum and the count of 3s: a few runs at each end."""
    d1, d2 = runs[0][0], run_entry(runs, 1)
    threes = next((c if v == 3 else 0 for v, c in reversed(runs) if v >= 3), 0)
    rest_all_3 = threes == n - (d1 != 3)
    if rest_all_3 and d1 == n - 3:
        return Classification(Kind.EXCEPTION_N3)
    if rest_all_3 and d1 == n - 1 and d1 % 2 == 1:
        return Classification(Kind.EXCEPTION_ODD_K, k=d1)
    if d1 == d2 == n - 1 and d1 % 2 == 1 and threes == n - 2 + 2 * (d1 == 3):
        return Classification(Kind.EXCEPTION_ODD_K_SQUARE, k=d1)
    if runs[-1][0] < 3:
        return Classification(Kind.OUT_OF_COVERAGE)
    if d1 == n - 1:
        return Classification(Kind.COVERED, route=Route.T12)
    if d1 == n - 2:
        return Classification(Kind.COVERED, route=Route.L41)
    if d1 == n - 3:
        return Classification(Kind.COVERED, route=Route.T14)
    if d1 <= n - 4 and threes <= 5:  # so n >= 7 and d_(n-5) >= 4
        return Classification(Kind.COVERED, route=Route.T15)
    return Classification(Kind.OUT_OF_COVERAGE)
