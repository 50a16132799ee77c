"""
Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's fast paths: containment checks
every subsequence, monotone length checks every subset, counting filters
a full enumeration, the monotone minimax scores every square built from
permutations row by row, and the cache lookup parses every line of the file.
Tests compare the production code against these.
"""
import itertools
import json

import pytest

from latinpat import enumeration
from latinpat.perm import pattern_of
from latinpat.square import EMPTY_SPEC


def naive_contains(host, pattern):
    """Containment by scanning all C(len(host), len(pattern)) subsequences."""
    k = len(pattern)
    if k > len(host):
        return False
    pattern = tuple(pattern)
    return any(
        pattern_of([host[i] for i in idx]) == pattern
        for idx in itertools.combinations(range(len(host)), k)
    )


def naive_first_occurrence(host, pattern):
    """1-indexed positions of the first index tuple, in itertools.combinations order, matching the pattern."""
    pattern = tuple(pattern)
    for idx in itertools.combinations(range(len(host)), len(pattern)):
        if pattern_of([host[i] for i in idx]) == pattern:
            return tuple(i + 1 for i in idx)
    return None


def naive_longest_monotone(seq):
    """Longest monotone subsequence by scanning every subset, longest first."""
    n = len(seq)
    for k in range(n, 0, -1):
        for idx in itertools.combinations(range(n), k):
            vals = [seq[i] for i in idx]
            if all(a < b for a, b in zip(vals, vals[1:])):
                return k
            if all(a > b for a, b in zip(vals, vals[1:])):
                return k
    return 0


def naive_minimax(n):
    """
    (least max line-monotone length, lexicographically first square attaining
    it) over all order-n squares, built row by row from permutations.
    """
    rows = list(itertools.permutations(range(1, n + 1)))
    memo = {}

    def score(line):
        if line not in memo:
            memo[line] = naive_longest_monotone(line)
        return memo[line]

    best = [None, None]

    def extend(grid):
        if len(grid) == n:
            value = max(score(line) for line in grid + list(zip(*grid)))
            if best[0] is None or value < best[0]:
                best[:] = [value, tuple(grid)]
            return
        for row in rows:
            if all(r[j] != row[j] for r in grid for j in range(n)):
                extend(grid + [row])

    extend([])
    return best[0], best[1]


def naive_cache_lookup(path, key):
    """The value of the last entry for key in a JSON-lines cache, parsing every line."""
    if not path.exists():
        return None
    wanted = json.dumps(key, sort_keys=True)
    found = None
    for line in path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and json.dumps(entry.get("key"), sort_keys=True) == wanted:
            found = entry.get("value")
    return found


def perms(m):
    """All permutations of 1..m as tuples, lexicographic."""
    return list(itertools.permutations(range(1, m + 1)))


S3 = perms(3)
S4 = perms(4)


def walk_stats(grids):
    """(squares, nodes) of a row walk: the grids it yields, then the nodes it returns."""
    squares = 0
    while True:
        try:
            next(grids)
        except StopIteration as stop:
            return squares, stop.value
        squares += 1


def collect_squares(n, spec=EMPTY_SPEC):
    out = []
    enumeration.enumerate_squares(n, spec, out.append)
    return out


@pytest.fixture(scope="session")
def squares3():
    return collect_squares(3)


@pytest.fixture(scope="session")
def squares4():
    return collect_squares(4)
