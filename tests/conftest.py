"""
Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's fast paths: containment checks
every subsequence, monotone length checks every subset, the reference
compile runs a whole containment test on every prefix, counting filters
a full enumeration, the monotone minimax, the Wilf counts and the
triple-containment check test every square built from permutations row by
row, and the cache lookup parses every line of the file.
Tests compare the production code against these.
"""
import itertools
import json

import pytest

from latinpat import enumeration
from latinpat.perm import DEAD, PrefixAutomaton, contains, pattern_of
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


def reference_prefix_automaton(n, patterns):
    """
    perm.prefix_automaton's pass with a whole perm.contains test on every
    prefix, where the library tests only the occurrences that end at the
    prefix's new entry; the library's automaton must equal this one.
    """
    patterns = [tuple(p) for p in patterns]
    dead_row = (DEAD,) * (n + 1)
    rows = [dead_row, dead_row]  # DEAD, then the state of a complete avoider
    ids: dict[tuple[int, ...], int] = {}

    def state(prefix: tuple[int, ...]) -> int:
        if any(len(p) <= len(prefix) and contains(prefix, p) for p in patterns):
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


def monotone_pair(m):
    """lambda's pattern pair at m: (12...(m+1), (m+1)...1)."""
    return tuple(range(1, m + 2)), tuple(range(m + 1, 0, -1))


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


def naive_squares(n):
    """Every order-n square as a tuple of rows, built row by row from permutations, lexicographic."""
    rows = list(itertools.permutations(range(1, n + 1)))

    def extend(grid):
        if len(grid) == n:
            yield tuple(grid)
            return
        for row in rows:
            if all(r[j] != row[j] for r in grid for j in range(n)):
                yield from extend(grid + [row])

    return extend([])


def naive_minimax(n):
    """
    (least max line-monotone length, lexicographically first square attaining
    it) over all order-n squares, built row by row from permutations.
    """
    memo = {}

    def score(line):
        if line not in memo:
            memo[line] = naive_longest_monotone(line)
        return memo[line]

    best = [None, None]
    for grid in naive_squares(n):
        value = max(score(line) for line in grid + tuple(zip(*grid)))
        if best[0] is None or value < best[0]:
            best[:] = [value, grid]
    return best[0], best[1]


def naive_triple_containment(n):
    """
    verify_triple_containment's report from every order-n square, with each
    line's patterns found by naive_contains: at most five splits, each a
    square and its 0/1 flags for one triple, square by square.
    """
    triples = (((1, 2, 3), (2, 3, 1), (3, 1, 2)), ((1, 3, 2), (2, 1, 3), (3, 2, 1)))
    squares = 0
    bad = []
    for grid in naive_squares(n):
        squares += 1
        lines = grid + tuple(zip(*grid))
        for triple in triples:
            flags = [int(any(naive_contains(line, p) for line in lines)) for p in triple]
            if 0 < sum(flags) < 3 and len(bad) < 5:
                bad.append({"grid": [list(r) for r in grid], "flags": flags})
    return {"order": n, "squares": squares, "violations": bad, "ok": not bad}


def naive_length3_avoiders(n):
    """The order-n squares avoiding some length-3 pattern in every row and column, lexicographic."""
    return [
        grid for grid in naive_squares(n)
        if any(not any(naive_contains(line, p) for line in grid + tuple(zip(*grid))) for p in perms(3))
    ]


def naive_wilf_counts(k, n):
    """
    The avoider count of every length-k pattern at order n, by testing each
    square of naive_squares(n) for the patterns its rows and columns
    contain, every k-subset of every line read by pattern_of.
    """
    counts = dict.fromkeys(perms(k), 0)
    found_in = {}
    for grid in naive_squares(n):
        found = set()
        for line in grid + tuple(zip(*grid)):
            if line not in found_in:
                found_in[line] = {pattern_of([line[i] for i in idx]) for idx in itertools.combinations(range(n), k)}
            found |= found_in[line]
        for p in counts:
            counts[p] += p not in found
    return counts


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


def collect_squares(n, spec=EMPTY_SPEC):
    return list(enumeration.enumerate_squares(n, spec))


@pytest.fixture(scope="session")
def squares3():
    return collect_squares(3)


@pytest.fixture(scope="session")
def squares4():
    return collect_squares(4)


@pytest.fixture
def budgets(monkeypatch):
    """Set enumeration's WORK_BUDGET and STATE_BUDGET both to one value, for one test."""
    def cut(value):
        monkeypatch.setattr(enumeration, "WORK_BUDGET", value)
        monkeypatch.setattr(enumeration, "STATE_BUDGET", value)

    return cut
