"""
Direct constructive generators: the unique column-avoiding completions of a
fixed anchor row, the n cyclic squares avoiding a given length-3 pattern,
and the modular square whose longest line-monotone subsequence stays small.
No searching happens here; every square is written down in closed form, and
the enumeration engine is used only in the test suite to confirm uniqueness.

Both length-3 constructions rest on one fact: in those squares every column,
read top to bottom, runs cyclically through 1..n, downward (..., 2, 1, n,
n-1, ...) for 1-2-3, 2-3-1 and 3-1-2, upward for 1-3-2, 2-1-3 and 3-2-1.  So
a square is fixed by one row and the direction of its columns.
"""
from __future__ import annotations

from typing import Sequence

from . import perm
from .perm import Perm, as_perm
from .square import LatinSquare, latin_square, relabel, rotate180

#: length-3 patterns whose avoiders are built from cyclic *decreasing* lines;
#: the other three are built from cyclic increasing lines
DECREASING_PATTERNS = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}

#: patterns for which the anchor row sits at the bottom of the square
BOTTOM_ANCHORED = {(2, 3, 1), (2, 1, 3)}


def _require_s3(pattern: Sequence[int]) -> Perm:
    p = as_perm(pattern)
    if len(p) != 3:
        raise ValueError(f"pattern must have length 3, got {p}")
    return p


def _step(p: Perm) -> int:
    """How a line avoiding the length-3 pattern p moves: -1 down, +1 up."""
    return -1 if p in DECREASING_PATTERNS else 1


def _cyclic_columns(anchor: Sequence[int], step: int, r0: int) -> LatinSquare:
    """The square holding `anchor` in row r0 whose columns move by `step` (mod n) per row."""
    n = len(anchor)
    return latin_square([[(a - 1 + step * (r - r0)) % n + 1 for a in anchor] for r in range(n)])


def complete_columns_avoiding(anchor_row: Sequence[int], pattern: Sequence[int]) -> LatinSquare:
    """
    The unique Latin square avoiding the length-3 pattern in every column,
    anchored on the given row.

    For patterns 1-2-3, 1-3-2, 3-1-2 and 3-2-1 the anchor is the *top* row;
    for 2-3-1 and 2-1-3 it is the *bottom* row.  Read top to bottom, every
    column steps cyclically down by one for 1-2-3, 2-3-1 and 3-1-2, and up
    by one for the rest.
    """
    anchor_row = as_perm(anchor_row)
    p = _require_s3(pattern)
    r0 = len(anchor_row) - 1 if p in BOTTOM_ANCHORED else 0
    return _cyclic_columns(anchor_row, _step(p), r0)


def construct_s3_avoider(n: int, pattern: Sequence[int], start: int) -> LatinSquare:
    """
    The unique square avoiding the length-3 pattern in all rows and columns
    whose top-left entry is `start`: every line is cyclic decreasing for
    1-2-3, 2-3-1 and 3-1-2, cyclic increasing for 1-3-2, 2-1-3 and 3-2-1.
    """
    p = _require_s3(pattern)
    if not 1 <= start <= n:
        raise ValueError(f"start symbol {start} outside 1..{n}")
    step = _step(p)
    return _cyclic_columns([(start - 1 + step * c) % n + 1 for c in range(n)], step, 0)


def all_s3_avoiders(n: int, pattern: Sequence[int]) -> list[LatinSquare]:
    """All n squares avoiding the length-3 pattern, by top-left entry 1..n."""
    return [construct_s3_avoider(n, pattern, i) for i in range(1, n + 1)]


def connolly_square(n: int) -> LatinSquare:
    """
    The order-n^2 square whose (i, j) entry is k*n reduced mod n^2+1, where
    k is i+j-1 reduced into 1..n^2.  Every line's longest monotone
    subsequence has length n+1, which pins the minimax for square orders.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    order = n * n
    modulus = order + 1
    grid = [
        [((i + j - 2) % order + 1) * n % modulus for j in range(1, order + 1)]
        for i in range(1, order + 1)
    ]
    return latin_square(grid)


# ---------------------------------------------------------------------------
# avoider-set bijections
# ---------------------------------------------------------------------------

def avoider_complement_map(sq: LatinSquare) -> LatinSquare:
    """
    Replace every entry e with n+1-e.  An involution carrying the squares
    avoiding a pattern onto the squares avoiding its complement.
    """
    return relabel(sq, perm.complement(perm.identity(sq.order)))


def avoider_reverse_map(sq: LatinSquare) -> LatinSquare:
    """
    Rotate 180 degrees, reversing all rows and columns.  An involution
    carrying the avoiders of a pattern onto the avoiders of its reverse.
    """
    return rotate180(sq)


def avoider_relabel_map(sq: LatinSquare, source: Sequence[int], target: Sequence[int]) -> LatinSquare:
    """
    Relabel entries by target . source^{-1}; for full-length patterns this
    carries the squares column-avoiding `source` onto those column-avoiding
    `target` (and likewise for row or row+column avoidance).
    """
    source = as_perm(source)
    target = as_perm(target)
    if len(source) != sq.order or len(target) != sq.order:
        raise ValueError(
            f"patterns must have length {sq.order}, got {len(source)} and {len(target)}"
        )
    return relabel(sq, perm.compose(target, perm.inverse(source)))
