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
from math import comb, isqrt
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]

#: permutations longer than this are refused by the brute-force counters
BRUTE_FORCE_BOUND = 9


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


def contains(host: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff some subsequence of host is order isomorphic to pattern.

    >>> contains((1, 3, 2, 5, 4), (1, 2, 3))
    True
    >>> contains((1, 3, 2, 5, 4), (3, 2, 1))
    False
    """
    return find_occurrence(host, pattern) is not None


def avoids(host: Sequence[int], pattern: Sequence[int]) -> bool:
    return not contains(host, pattern)


def pattern_of(values: Sequence[int]) -> Perm:
    """
    The permutation giving the relative order of a distinct-value sequence.

    >>> pattern_of((10, 40, 30))
    (1, 3, 2)
    """
    order = sorted(values)
    return tuple(bisect_left(order, v) + 1 for v in values)


class PatternChecker:
    """
    Memoized avoidance oracle for a fixed pattern set.

    Used inside search loops where the same line prefixes recur many times;
    the cache is keyed by the prefix tuple.
    """

    __slots__ = ("patterns", "_cache")

    def __init__(self, patterns: Iterable[Sequence[int]]):
        self.patterns = tuple(tuple(p) for p in patterns)
        self._cache: dict[tuple[int, ...], bool] = {}

    def avoids_all(self, prefix: tuple[int, ...]) -> bool:
        hit = self._cache.get(prefix)
        if hit is None:
            hit = not any(contains(prefix, p) for p in self.patterns)
            self._cache[prefix] = hit
        return hit


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
