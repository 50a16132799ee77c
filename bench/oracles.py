"""
Independent answer checks for the benchmark.

Nothing here imports latinpat: every check is a brute-force scan written
against the definitions (Latin property, order isomorphism, longest
monotone subsequence, the closed forms of the constructions), so a defect
in the program cannot hide in a shared helper.
"""
from __future__ import annotations

import itertools
from math import isqrt


def rank_pattern(values) -> tuple[int, ...]:
    """Each value replaced by its rank among the distinct values (1-based)."""
    rank = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def is_latin(grid) -> bool:
    n = len(grid)
    want = set(range(1, n + 1))
    return (
        n > 0
        and all(len(row) == n and set(row) == want for row in grid)
        and all({grid[i][j] for i in range(n)} == want for j in range(n))
    )


def columns(grid) -> list[tuple[int, ...]]:
    return [tuple(col) for col in zip(*grid)]


def symbol_lines(grid) -> list[tuple[int, ...]]:
    """For symbol k, the map row index -> 1-based column holding k."""
    n = len(grid)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            out[v - 1][i] = j + 1
    return [tuple(p) for p in out]


def contains(line, pattern) -> bool:
    """Some subsequence of line is order isomorphic to pattern (exhaustive)."""
    k = len(pattern)
    pattern = tuple(pattern)
    return any(
        rank_pattern([line[i] for i in idx]) == pattern
        for idx in itertools.combinations(range(len(line)), k)
    )


def longest_monotone(seq) -> int:
    """Longest strictly monotone subsequence, by quadratic dynamic programming."""
    n = len(seq)
    up = [1] * n
    down = [1] * n
    for i in range(n):
        for j in range(i):
            if seq[j] < seq[i]:
                up[i] = max(up[i], up[j] + 1)
            elif seq[j] > seq[i]:
                down[i] = max(down[i], down[j] + 1)
    return max(up + down) if n else 0


def max_monotone(grid) -> int:
    return max(longest_monotone(line) for line in list(grid) + columns(grid))


def lambda_lower_bound(n: int) -> int:
    """Largest m with (m-1)(m-2)+2 <= n, by direct search."""
    m = 1
    while m * (m - 1) + 2 <= n:
        m += 1
    return m


def all_squares(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every order-n Latin square, in lexicographic order of the row-major grid."""
    perms = list(itertools.permutations(range(1, n + 1)))
    out = []

    def extend(rows):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for p in perms:
            if all(p[j] != r[j] for r in rows for j in range(n)):
                extend(rows + [p])

    extend([])
    return out


class SmallSquares:
    """
    All squares of orders 1..4 with, per square, the set of patterns of
    length <= 4 contained in some row, some column and some symbol line.
    Any spec over those orders is then counted by set intersection.
    """

    MAX_ORDER = 4

    def __init__(self):
        self.squares = {}
        for n in range(1, self.MAX_ORDER + 1):
            self.squares[n] = [
                (_patterns_in(g), _patterns_in(columns(g)), _patterns_in(symbol_lines(g))) for g in all_squares(n)
            ]

    def count(self, n: int, rows, cols, syms) -> int:
        rows, cols, syms = set(rows), set(cols), set(syms)
        return sum(1 for rp, cp, sp in self.squares[n] if not (rp & rows or cp & cols or sp & syms))


def _patterns_in(lines) -> frozenset:
    found = set()
    for line in lines:
        for k in range(1, len(line) + 1):
            for idx in itertools.combinations(range(len(line)), k):
                found.add(rank_pattern([line[i] for i in idx]))
    return frozenset(found)


def find_line_witness_ok(grid, pattern, witness) -> bool:
    """A `check --pattern` witness names a line whose chosen entries match the pattern."""
    kind = witness["line_kind"]
    idx = witness["line_index"] - 1
    lines = list(grid) if kind == "row" else columns(grid)
    if kind not in ("row", "column") or not 0 <= idx < len(lines):
        return False
    line = lines[idx]
    pos = witness["positions"]
    if len(pos) != len(pattern) or sorted(set(pos)) != list(pos) or not 1 <= pos[0] <= pos[-1] <= len(line):
        return False
    return rank_pattern([line[p - 1] for p in pos]) == tuple(pattern)


def square_avoids(grid, pattern) -> bool:
    return not any(contains(line, pattern) for line in list(grid) + columns(grid))


def subrect(grid, rows, cols) -> list[tuple[int, ...]]:
    """Sub-grid at 1-based row and column index lists."""
    return [tuple(grid[r - 1][c - 1] for c in cols) for r in rows]


def rect_matches(sub, rect) -> bool:
    """Order isomorphism of two equal-shape grids: same rank pattern over all entries."""
    flat_a = [v for row in sub for v in row]
    flat_b = [v for row in rect for v in row]
    return len(sub) == len(rect) and len(flat_a) == len(flat_b) and rank_pattern(flat_a) == rank_pattern(flat_b)


def rect_contained(grid, rect) -> bool:
    """
    Exhaustive scan over row subsets and column subsets.  A column is a
    candidate for pattern column t only if its entries on the chosen rows
    have the rank pattern of that pattern column, which every full match
    requires; the survivors are checked whole.
    """
    n = len(grid)
    p, q = len(rect), len(rect[0])
    target = rank_pattern([v for row in rect for v in row])
    pat_cols = [rank_pattern([rect[i][t] for i in range(p)]) for t in range(q)]
    for rows in itertools.combinations(range(n), p):
        col_rank = [rank_pattern([grid[r][c] for r in rows]) for c in range(n)]
        cands = [[c for c in range(n) if col_rank[c] == pat_cols[t]] for t in range(q)]

        def extend(t, start, chosen):
            if t == q:
                flat = [grid[r][c] for r in rows for c in chosen]
                return rank_pattern(flat) == target
            return any(
                extend(t + 1, c + 1, chosen + [c]) for c in cands[t] if c >= start
            )

        if extend(0, 0, []):
            return True
    return False


def prop2_anchor(pattern) -> str:
    """Row of a `construct prop2` square that carries the anchor row."""
    return "bottom" if tuple(pattern) in ((2, 3, 1), (2, 1, 3)) else "top"


def is_square_root(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else 0
