"""
Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's fast paths: containment checks
every subsequence, monotone length checks every subset, and counting filters
a full enumeration.  Tests compare the production code against these.
"""
import itertools

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


def perms(m):
    """All permutations of 1..m as tuples, lexicographic."""
    return list(itertools.permutations(range(1, m + 1)))


S3 = perms(3)
S4 = perms(4)


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
