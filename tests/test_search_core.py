"""
The compiled prefix automata and the search that runs on them, against
brute force: permutations filtered by naive containment, and the full
enumeration filtered line by line.
"""
import itertools

import pytest

from latinpat.enumeration import count_squares, enumerate_squares
from latinpat.perm import DEAD, prefix_automaton
from latinpat.square import AvoidanceSpec

from conftest import S3, S4, collect_squares, naive_contains, perms

PATTERN_SETS = [(p,) for p in S3 + S4] + list(itertools.combinations(S3, 2))


@pytest.mark.parametrize("patterns", PATTERN_SETS)
def test_prefix_state_is_alive_iff_some_avoider_extends_it(patterns):
    for n in range(1, 7):
        auto = prefix_automaton(n, patterns)
        every = perms(n)
        avoiders = [q for q in every if not any(naive_contains(q, p) for p in patterns)]
        alive = {q[:k] for q in avoiders for k in range(n + 1)}
        prefixes = {q[:k] for q in every for k in range(n + 1)}
        for prefix in prefixes:
            assert (auto.run(prefix) != DEAD) == (prefix in alive), (n, patterns, prefix)
        for state, row in enumerate(auto.next):
            assert auto.live[state] == sum(1 << (s - 1) for s in range(1, n + 1) if row[s] != DEAD)
        # a repeated symbol is never alive
        assert all(auto.run((s, s)) == DEAD for s in range(1, n + 1))


def _lines(grid):
    n = len(grid)
    rows = list(grid)
    cols = list(zip(*grid))
    # symbol v's permutation: row index -> column holding v
    syms = [tuple(row.index(v) + 1 for row in grid) for v in range(1, n + 1)]
    return rows, cols, syms


def _spec_kinds(p):
    return [
        AvoidanceSpec.rows_only(p),
        AvoidanceSpec.columns_only(p),
        AvoidanceSpec.both(p),
        AvoidanceSpec(symbol_patterns=(p,)),
        AvoidanceSpec(row_patterns=(p,), symbol_patterns=(p,)),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_equals_filtered_full_enumeration(n):
    squares = collect_squares(n)
    lines = [_lines(sq.grid) for sq in squares]
    for p in S3 + S4:
        avoids = {q: not naive_contains(q, p) for q in perms(n)}
        for spec in _spec_kinds(p):
            want = [
                sq for sq, (rows, cols, syms) in zip(squares, lines)
                if all(avoids[line] for line in (
                    (rows if spec.row_patterns else [])
                    + (cols if spec.col_patterns else [])
                    + (syms if spec.symbol_patterns else [])
                ))
            ]
            got = []
            enumerate_squares(n, spec, got.append)
            assert got == want, (n, spec)
            # the split path: first-row tasks sharing one compilation
            assert count_squares(n, spec).count == len(want), (n, spec)
