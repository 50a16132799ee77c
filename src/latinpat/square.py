"""
Latin squares, Latin rectangles, and their line permutations.

A Latin square of order n is an n x n grid over the symbols 1..n with every
symbol exactly once per row and per column.  A Latin rectangle here is the
relaxed object: a p x q grid with entries drawn from 1..n and no repeats in
any row or column (rows need not use all symbols).

Grids are stored row-major as tuples of tuples and validated eagerly: every
transformation below preserves the Latin property by construction, and the
enumeration engine never hands out an unvalidated grid.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import perm
from .perm import Perm

Grid = tuple[tuple[int, ...], ...]


def _entry(x) -> int:
    # index() takes ints and int-likes but refuses floats and digit strings;
    # bool is an int subclass, so JSON true/false are refused here
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return operator.index(x)


def _freeze_grid(rows: Iterable[Sequence[int]]) -> Grid:
    try:
        return tuple(tuple(_entry(x) for x in row) for row in rows)
    except TypeError as exc:
        raise ValueError(f"grid must be a list of rows of integers ({exc})") from None


@dataclass(frozen=True)
class LatinSquare:
    grid: Grid

    def __post_init__(self):
        grid = _freeze_grid(self.grid)
        object.__setattr__(self, "grid", grid)
        n = len(grid)
        if n == 0:
            raise ValueError("empty grid")
        for i, row in enumerate(grid):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
            if not perm.is_perm(row):
                raise ValueError(f"row {i + 1} is not a permutation of 1..{n}: {row}")
        for j in range(n):
            seen = [False] * (n + 1)
            for i in range(n):
                v = grid[i][j]
                if seen[v]:
                    raise ValueError(f"column {j + 1} repeats symbol {v}")
                seen[v] = True

    @property
    def order(self) -> int:
        return len(self.grid)

    def __str__(self) -> str:
        return serialize_square(self)


def latin_square(rows: Iterable[Sequence[int]]) -> LatinSquare:
    """Build and validate a Latin square from any nested sequence of ints."""
    return LatinSquare(rows)


def _trusted_square(grid: Grid) -> LatinSquare:
    # Internal: wrap a grid the search engine has already proven Latin,
    # skipping revalidation (order-n^2 per square, noticeable at scale).
    sq = object.__new__(LatinSquare)
    object.__setattr__(sq, "grid", grid)
    return sq


@dataclass(frozen=True)
class LatinRectangle:
    """p x q grid, entries in 1..alphabet_bound, no repeats per row or column."""

    grid: Grid
    alphabet_bound: int = 0

    def __post_init__(self):
        grid = _freeze_grid(self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid or not grid[0]:
            raise ValueError("empty rectangle")
        q = len(grid[0])
        entries = [v for row in grid for v in row]
        try:
            bound = _entry(self.alphabet_bound) or max(entries)
        except TypeError as exc:
            raise ValueError(f"alphabet_bound must be an integer ({exc})") from None
        object.__setattr__(self, "alphabet_bound", bound)
        for i, row in enumerate(grid):
            if len(row) != q:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {q}")
            if len(set(row)) != q:
                raise ValueError(f"row {i + 1} repeats an entry: {row}")
        for j in range(q):
            col = [row[j] for row in grid]
            if len(set(col)) != len(col):
                raise ValueError(f"column {j + 1} repeats an entry: {tuple(col)}")
        for v in entries:
            if not 1 <= v <= bound:
                raise ValueError(f"entry {v} outside 1..{bound}")

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0])


def latin_rectangle(rows: Iterable[Sequence[int]], alphabet_bound: int = 0) -> LatinRectangle:
    return LatinRectangle(rows, alphabet_bound)


# ---------------------------------------------------------------------------
# avoidance specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvoidanceSpec:
    """
    Independent pattern sets for rows, columns, and symbol permutations.

    The classic single-pattern notion of an avoiding square is the special
    case row_patterns = col_patterns = {pi}, symbol_patterns = {}.
    """

    row_patterns: tuple[Perm, ...] = ()
    col_patterns: tuple[Perm, ...] = ()
    symbol_patterns: tuple[Perm, ...] = ()

    def __post_init__(self):
        for name in ("row_patterns", "col_patterns", "symbol_patterns"):
            pats = getattr(self, name)
            canon = tuple(sorted({perm.as_perm(p) for p in pats}))
            object.__setattr__(self, name, canon)

    @classmethod
    def both(cls, *patterns: Sequence[int]) -> "AvoidanceSpec":
        """Avoid the given patterns in all rows and all columns."""
        return cls(row_patterns=tuple(patterns), col_patterns=tuple(patterns))

    @classmethod
    def columns_only(cls, *patterns: Sequence[int]) -> "AvoidanceSpec":
        return cls(col_patterns=tuple(patterns))

    @classmethod
    def rows_only(cls, *patterns: Sequence[int]) -> "AvoidanceSpec":
        return cls(row_patterns=tuple(patterns))

    def is_empty(self) -> bool:
        return not (self.row_patterns or self.col_patterns or self.symbol_patterns)

    def to_dict(self) -> dict:
        return {
            "rows": [list(p) for p in self.row_patterns],
            "cols": [list(p) for p in self.col_patterns],
            "symbols": [list(p) for p in self.symbol_patterns],
        }


EMPTY_SPEC = AvoidanceSpec()


# ---------------------------------------------------------------------------
# line permutations
# ---------------------------------------------------------------------------

def row_permutations(sq: LatinSquare) -> tuple[Perm, ...]:
    """Rows read left to right, top row first."""
    return sq.grid


def column_permutations(sq: LatinSquare) -> tuple[Perm, ...]:
    """Columns read top to bottom, leftmost column first."""
    return tuple(zip(*sq.grid))


def symbol_permutations(sq: LatinSquare) -> tuple[Perm, ...]:
    """
    For each symbol k, the permutation mapping row index to the column
    holding k; entry k of the result list is that permutation.
    """
    n = sq.order
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(sq.grid):
        for j, v in enumerate(row):
            out[v - 1][i] = j + 1
    return tuple(tuple(p) for p in out)


def all_lines(sq: LatinSquare) -> tuple[Perm, ...]:
    """The 2n row and column permutations."""
    return row_permutations(sq) + column_permutations(sq)


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def relabel(sq: LatinSquare, rho: Sequence[int]) -> LatinSquare:
    """Replace every entry e with rho(e); rho must have length order(sq)."""
    rho = perm.as_perm(rho)
    if len(rho) != sq.order:
        raise ValueError(f"relabeling length {len(rho)} != order {sq.order}")
    return _trusted_square(tuple(tuple(rho[v - 1] for v in row) for row in sq.grid))


def rotate180(sq: LatinSquare) -> LatinSquare:
    """Rotate the grid 180 degrees; reverses every row and every column."""
    return _trusted_square(tuple(tuple(reversed(row)) for row in reversed(sq.grid)))


def reflect_vertical(sq: LatinSquare) -> LatinSquare:
    """Reflect through the vertical axis; reverses every row."""
    return _trusted_square(tuple(tuple(reversed(row)) for row in sq.grid))


def transpose(sq: LatinSquare) -> LatinSquare:
    return _trusted_square(tuple(zip(*sq.grid)))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def avoids_spec(sq: LatinSquare, spec: AvoidanceSpec) -> bool:
    """True iff every row/column/symbol permutation avoids its pattern set."""
    if spec.row_patterns:
        for line in row_permutations(sq):
            if any(perm.contains(line, p) for p in spec.row_patterns):
                return False
    if spec.col_patterns:
        for line in column_permutations(sq):
            if any(perm.contains(line, p) for p in spec.col_patterns):
                return False
    if spec.symbol_patterns:
        for line in symbol_permutations(sq):
            if any(perm.contains(line, p) for p in spec.symbol_patterns):
                return False
    return True


def max_monotone(sq: LatinSquare) -> int:
    """Longest strictly monotone subsequence over all 2n rows and columns."""
    return max(perm.longest_monotone(line) for line in all_lines(sq))


# ---------------------------------------------------------------------------
# text / JSON formats
# ---------------------------------------------------------------------------

def serialize_square(sq: LatinSquare | LatinRectangle) -> str:
    """One line per row of space-separated integers, newline-terminated."""
    return "".join(" ".join(str(v) for v in row) + "\n" for row in sq.grid)


def _parse_grid(text: str) -> list[list[int]]:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"malformed grid line: {line!r}") from None
    if not rows:
        raise ValueError("no grid lines found")
    return rows


def _json_grid(obj: dict, what: str):
    if "grid" not in obj:
        raise ValueError(f"{what} JSON has no 'grid' key")
    return obj["grid"]


def parse_square(text: str) -> LatinSquare:
    """Parse the text grid format, validating the Latin property."""
    return latin_square(_parse_grid(text))


def square_to_json(sq: LatinSquare) -> dict:
    return {"order": sq.order, "grid": [list(row) for row in sq.grid]}


def square_from_json(obj: dict) -> LatinSquare:
    sq = latin_square(_json_grid(obj, "square"))
    if "order" in obj and obj["order"] != sq.order:
        raise ValueError(f"declared order {obj['order']} != grid order {sq.order}")
    return sq


def parse_rectangle(text: str) -> LatinRectangle:
    """Text grid form; the alphabet bound is taken to be the largest entry."""
    return latin_rectangle(_parse_grid(text))


def rectangle_from_json(obj: dict) -> LatinRectangle:
    rect = latin_rectangle(_json_grid(obj, "rectangle"), obj.get("alphabet_bound", 0))
    for key, got in (("rows", rect.rows), ("cols", rect.cols)):
        if key in obj and obj[key] != got:
            raise ValueError(f"declared {key}={obj[key]} != grid {key}={got}")
    return rect


def load_square(text: str) -> LatinSquare:
    """Accept either the text grid or the JSON object form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return square_from_json(json.loads(text))
    return parse_square(text)


def load_rectangle(text: str) -> LatinRectangle:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return rectangle_from_json(json.loads(text))
    return parse_rectangle(text)
