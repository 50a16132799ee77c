"""
Permutations as patterns.

A permutation of length m is represented as a tuple of the integers 1..m in
some order (1-indexed values, matching the usual combinatorics convention).
Patterns are just permutations; a sequence contains a pattern when some
subsequence of it is order isomorphic to the pattern.

Most functions here accept any sequence of ints and return plain tuples, so
callers can work with literals like (1, 3, 2, 5, 4) directly.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, inf, isqrt
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]

#: permutations longer than this are refused by the brute-force counters
BRUTE_FORCE_BOUND = 9


class FeasibilityError(Exception):
    """A request would take more work than its feasibility bound allows."""


def is_perm(entries: Sequence[int]) -> bool:
    """True if entries is a rearrangement of 1..len(entries)."""
    n = len(entries)
    if n == 0:
        return False
    seen = 0
    for x in entries:
        if not 1 <= x <= n:
            return False
        bit = 1 << (x - 1)
        if seen & bit:
            return False
        seen |= bit
    return True


def as_perm(entries: Iterable[int]) -> Perm:
    """Validate and normalize to a tuple; raises ValueError if not a permutation."""
    p = tuple(entries)
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def identity(m: int) -> Perm:
    return tuple(range(1, m + 1))


def all_perms(m: int) -> Iterator[Perm]:
    """All permutations of 1..m in lexicographic order."""
    return itertools.permutations(range(1, m + 1))


def parse_perm(text: str) -> Perm:
    """
    Parse a one-line permutation.

    Accepts whitespace-separated integers (`2 1 3 4`) and, for lengths up to
    9, the compact digit form (`2134`).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    parts = text.split()
    if len(parts) == 1 and parts[0].isdigit() and len(parts[0]) > 1:
        return as_perm(int(ch) for ch in parts[0])
    try:
        return as_perm(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation from {text!r}: {exc}") from None


def format_perm(p: Sequence[int]) -> str:
    """One-line form: whitespace-separated 1-indexed entries."""
    return " ".join(str(x) for x in p)


# ---------------------------------------------------------------------------
# pattern containment
# ---------------------------------------------------------------------------

def find_occurrence(host: Sequence[int], pattern: Sequence[int]) -> tuple[int, ...] | None:
    """
    1-indexed positions of the lexicographically first subsequence of host
    order isomorphic to pattern, or None if host avoids it.

    Positional depth-first search: embed the pattern entries left to right,
    pruning branches where the remaining host is too short.  The new entry
    only has to respect its order relative to the entries already matched,
    which is an O(k) check per extension.
    """
    if len(pattern) < 1:
        raise ValueError("pattern must have length >= 1")
    host = tuple(host)
    pattern = tuple(pattern)
    m, k = len(host), len(pattern)
    # chosen[t] = host position matched to pattern[t]
    chosen: list[int] = []

    def extend(t: int, start: int) -> bool:
        if t == k:
            return True
        for pos in range(start, m - (k - t) + 1):
            v = host[pos]
            ok = True
            for s in range(t):
                if (host[chosen[s]] < v) != (pattern[s] < pattern[t]):
                    ok = False
                    break
            if ok:
                chosen.append(pos)
                if extend(t + 1, pos + 1):
                    return True
                chosen.pop()
        return False

    return tuple(p + 1 for p in chosen) if extend(0, 0) else None


def _ends_at_last(host: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff some occurrence of pattern in host matches its last entry to
    host's last position: find_occurrence's positional search with that
    entry pinned, and each earlier entry on the same side of host's last
    value as it is of the pattern's last.  A prefix whose parent avoids the
    pattern contains it iff this holds.
    """
    m, k = len(host), len(pattern)
    if k > m:
        return False
    last, top = host[-1], pattern[-1]
    # chosen[t] = host position matched to pattern[t], for t < k - 1
    chosen: list[int] = []

    def extend(t: int, start: int) -> bool:
        if t == k - 1:
            return True
        below = pattern[t] < top
        for pos in range(start, m - (k - t) + 1):
            v = host[pos]
            if (v < last) != below:
                continue
            ok = True
            for s in range(t):
                if (host[chosen[s]] < v) != (pattern[s] < pattern[t]):
                    ok = False
                    break
            if ok:
                chosen.append(pos)
                if extend(t + 1, pos + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


def contains(host: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff some subsequence of host is order isomorphic to pattern.

    >>> contains((1, 3, 2, 5, 4), (1, 2, 3))
    True
    >>> contains((1, 3, 2, 5, 4), (3, 2, 1))
    False
    """
    return find_occurrence(host, pattern) is not None


def pattern_of(values: Sequence[int]) -> Perm:
    """
    The permutation giving the relative order of a distinct-value sequence.

    >>> pattern_of((10, 40, 30))
    (1, 3, 2)
    """
    order = sorted(values)
    return tuple(bisect_left(order, v) + 1 for v in values)


#: the state of every prefix that cannot be extended to an avoider
DEAD = 0


@dataclass(frozen=True)
class PrefixAutomaton:
    """
    The prefixes of the length-n permutations that avoid a pattern set, as a
    deterministic automaton over the symbols 1..n.

    next[state][s] is the state after appending symbol s, or DEAD when the
    longer prefix repeats a symbol, contains a pattern, or is the prefix of no
    avoiding permutation.  live[state] has bit s-1 set for each symbol s
    that leads to a state other than DEAD.  Prefixes with the same
    continuations share one state.
    """

    next: tuple[tuple[int, ...], ...]
    live: tuple[int, ...]
    root: int

    def run(self, seq: Iterable[int]) -> int:
        """The state reached from the empty prefix by appending the entries of seq."""
        state = self.root
        for s in seq:
            state = self.next[state][s]
        return state


def prefix_automaton(n: int, patterns: Iterable[Sequence[int]], max_work: float = inf) -> PrefixAutomaton:
    """
    Compile the prefixes of the permutations of 1..n that avoid every
    pattern, by one depth-first pass over the distinct-symbol prefixes that
    avoid them.  A prefix lives iff it avoids the patterns and one of its
    extensions lives; a full-length prefix that avoids them lives.  The pass
    reaches a prefix only through its parent, which avoids every pattern, so
    only the occurrences that end at the new last entry are tested.  It
    counts n cell placements for each prefix it reaches, and raises
    FeasibilityError once they pass max_work.
    """
    patterns = [tuple(p) for p in patterns]
    dead_row = (DEAD,) * (n + 1)
    rows = [dead_row, dead_row]  # DEAD, then the state of a complete avoider
    ids: dict[tuple[int, ...], int] = {}
    left = max_work

    def state(prefix: tuple[int, ...]) -> int:
        nonlocal left
        left -= n
        if left < 0:
            raise FeasibilityError(f"order-{n} compile passed its bound of {max_work:,} cell placements")
        if any(_ends_at_last(prefix, p) for p in patterns):
            return DEAD
        if len(prefix) == n:
            return 1
        row = (DEAD,) + tuple(
            DEAD if s in prefix else state(prefix + (s,)) for s in range(1, n + 1)
        )
        if row == dead_row:
            return DEAD
        if row not in ids:
            ids[row] = len(rows)
            rows.append(row)
        return ids[row]

    root = state(())
    live = tuple(sum(1 << (s - 1) for s in range(1, n + 1) if row[s]) for row in rows)
    return PrefixAutomaton(tuple(rows), live, root)


# ---------------------------------------------------------------------------
# classical symmetries
# ---------------------------------------------------------------------------

def complement(p: Sequence[int]) -> Perm:
    """Entry-wise complement: value v becomes m+1-v."""
    m = len(p)
    return tuple(m + 1 - v for v in p)


def reverse(p: Sequence[int]) -> Perm:
    """Position-wise reversal."""
    return tuple(reversed(p))


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def compose(a: Sequence[int], b: Sequence[int]) -> Perm:
    """(a . b)(i) = a(b(i)); raises on length mismatch."""
    if len(a) != len(b):
        raise ValueError(f"cannot compose lengths {len(a)} and {len(b)}")
    return tuple(a[v - 1] for v in b)


def direct_sum(p1: Sequence[int], p2: Sequence[int]) -> Perm:
    """Block sum: p1 on the low values, p2 shifted above them."""
    n = len(p1)
    return tuple(p1) + tuple(v + n for v in p2)


def symmetry_orbit(p: Sequence[int]) -> frozenset[Perm]:
    """Orbit of a pattern under {id, reverse, complement, reverse.complement}."""
    p = tuple(p)
    return frozenset((p, reverse(p), complement(p), reverse(complement(p))))


# ---------------------------------------------------------------------------
# monotone subsequences
# ---------------------------------------------------------------------------

def longest_increasing(seq: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence (patience sorting)."""
    tails: list[int] = []
    for v in seq:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def longest_decreasing(seq: Sequence[int]) -> int:
    return longest_increasing(tuple(reversed(seq)))


def longest_monotone(seq: Sequence[int]) -> int:
    """
    Length of the longest strictly monotone (increasing or decreasing)
    subsequence.

    >>> longest_monotone((3, 6, 9, 2, 5, 8, 1, 4, 7))
    3
    """
    return max(longest_increasing(seq), longest_decreasing(seq))


def erdos_szekeres_lambda(n: int) -> int:
    """
    floor(sqrt(n-1)) + 1: the longest monotone subsequence length forced in
    every permutation of length n.  Exact integer arithmetic throughout.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return isqrt(n - 1) + 1


def check_erdos_szekeres(p: Sequence[int], rise: int, fall: int) -> bool:
    """
    For a permutation of length >= rise*fall + 1, report whether it has an
    increasing subsequence of length rise+1 or a decreasing one of length
    fall+1.  (Always true; exposed as an oracle for exhaustive checking.)
    """
    if len(p) < rise * fall + 1:
        raise ValueError(
            f"need length >= {rise * fall + 1}, got {len(p)}"
        )
    return longest_increasing(p) >= rise + 1 or longest_decreasing(p) >= fall + 1


# ---------------------------------------------------------------------------
# brute-force counting
# ---------------------------------------------------------------------------

def count_avoiding_permutations(m: int, pattern: Sequence[int]) -> int:
    """
    Number of permutations of length m avoiding the pattern, by exhaustive
    scan of all m! permutations.  Refuses m above BRUTE_FORCE_BOUND.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > BRUTE_FORCE_BOUND:
        raise ValueError(f"m={m} exceeds brute-force bound {BRUTE_FORCE_BOUND}")
    pattern = as_perm(pattern)
    return sum(1 for p in all_perms(m) if not contains(p, pattern))


def catalan(n: int) -> int:
    """C(2n, n) / (n+1), the count of length-n permutations avoiding any fixed length-3 pattern."""
    return comb(2 * n, n) // (n + 1)
