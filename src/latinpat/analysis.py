"""
Derived quantities over the enumeration engine: counts of squares avoiding
full-length patterns, Wilf-class partitions, and the minimax analysis of
monotone subsequences in rows and columns.

Everything here recomputes from enumeration rather than trusting tables; the
only inputs are the engine's public calls (count_squares, enumerate_squares
and the independent reduced_squares), the constructive generators, and
exact integer arithmetic.
"""
from __future__ import annotations

import itertools
import math
from functools import reduce
from math import isqrt
from operator import and_
from typing import Sequence

from . import perm
from .construct import connolly_square
from .enumeration import (
    FeasibilityError,
    count_squares,
    enumerate_squares,
    reduced_squares,
)
from .perm import Perm
from .square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    LatinSquare,
    max_monotone,
    square_to_json,
)

#: longest pattern wilf_classes takes unless forced: each mode's work
#: grows with the k! patterns, which no order bound sizes
WILF_MAX_PATTERN_LENGTH = 4


# ---------------------------------------------------------------------------
# monotone minimax
# ---------------------------------------------------------------------------

def lambda_lower_bound(n: int) -> int:
    """
    The guaranteed monotone length in some row or column of every order-n
    square: the largest m with (m-1)(m-2)+2 <= n.  Integer arithmetic only;
    equals floor(3/2 + sqrt(n - 7/4)) for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = (3 + isqrt(4 * n - 7)) // 2
    while (m - 1) * (m - 2) + 2 > n:
        m -= 1
    while m * (m - 1) + 2 <= n:
        m += 1
    return m


def _lambda_report(n: int, lower: int, exact: int | None, method: str,
                   witness: LatinSquare | None = None, cap: int | None = None) -> dict:
    """The JSON-ready λ report; cap is the witness's max_monotone, exact is None unless decided."""
    return {
        "order": n,
        "lower_bound": lower,
        "exact_value": exact,
        "witness_cap": cap,
        "method": method,
        "witness": square_to_json(witness) if witness is not None else None,
    }


def compute_lambda_exhaustive(n: int) -> dict:
    """
    Exact minimax: the smallest max_monotone over all order-n squares, with
    the lexicographically first square attaining it as witness.

    The value is at most m iff some square avoids 12...(m+1) and (m+1)...1
    in every row and column, which the pruned search decides.  m runs up
    from one below the proven lower bound, so a square found there fails
    the lower-bound check; at m = n the patterns are longer than n and a
    square always exists.  Each search runs in this process and visits
    squares in lexicographic order, so its first square at the least
    feasible m is the witness.  Each search is sized as enumerate_squares
    sizes it: λ(6) = 3, and order 7 is refused at m = 4.  Returns a
    _lambda_report dict.
    """
    lower = lambda_lower_bound(n) if n >= 2 else 1

    for value in itertools.count(lower - 1):
        spec = AvoidanceSpec.both(tuple(range(1, value + 2)), tuple(range(value + 1, 0, -1)))
        witness = next(enumerate_squares(n, spec), None)
        if witness is not None:
            break

    if value < lower:
        raise AssertionError(
            f"minimax {value} at order {n} is below the proven lower bound {lower}"
        )
    return _lambda_report(n, lower, value, "exhaustive", witness, max_monotone(witness))


def lambda_bound_report(n: int) -> dict:
    """
    Bounds without a full scan: the proven lower bound, capped by the
    modular-square witness when n is a perfect square, as a _lambda_report
    dict.  exact_value is set only when the two meet.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lower = lambda_lower_bound(n)
    root = isqrt(n)
    if root * root == n and root >= 2:
        witness = connolly_square(root)
        cap = max_monotone(witness)
        return _lambda_report(n, lower, cap if cap == lower else None, "witness-capped", witness, cap)
    return _lambda_report(n, lower, None, "bound-only")


# ---------------------------------------------------------------------------
# full-length pattern counts
# ---------------------------------------------------------------------------

def column_avoider_count(n: int, total: int | None = None) -> int:
    """
    (n!-n)/n! times the total count, an exact integer: squares avoiding a
    full-length pattern in columns only.  The total is counted unless
    supplied by the caller (e.g. from a cache).
    """
    fact = math.factorial(n)
    if total is None:
        total = count_squares(n, EMPTY_SPEC).count
    q, r = divmod((fact - n) * total, fact)
    if r:
        raise ArithmeticError(f"(n!-n) * {total} not divisible by n! at n={n}")
    return q


def full_length_count(n: int, total: int | None = None) -> int:
    """
    Number of order-n squares avoiding any fixed length-n pattern in rows and
    columns: ((n!-n)/n!)^2 times the total count, column_avoider_count
    applied twice.  With (n!-n)/n! = r/s in lowest terms, both steps divide
    exactly iff s^2 divides the total, just as the squared factor does.
    """
    return column_avoider_count(n, column_avoider_count(n, total))


# ---------------------------------------------------------------------------
# Wilf classes
# ---------------------------------------------------------------------------

def _pattern_bits(k: int) -> dict[Perm, int]:
    return {p: i for i, p in enumerate(itertools.permutations(range(1, k + 1)))}


def _line_mask(line: tuple[int, ...], k: int, bit_of: dict[Perm, int]) -> int:
    """Bitmask (bits from bit_of) of the length-k patterns the line contains, by pattern_of over every k-subset."""
    m = 0
    for idx in itertools.combinations(range(len(line)), k):
        m |= 1 << bit_of[perm.pattern_of([line[i] for i in idx])]
    return m


def _avoiding_orders(line: tuple[int, ...], orders: list[tuple[int, ...]], masks: dict, num: int) -> tuple[int, ...]:
    """
    For each of the num pattern bits b, the orders (bit t for orders[t])
    that leave the line avoiding pattern b, where the line in order t is
    line[orders[t][0]], line[orders[t][1]], ...; masks holds the pattern
    bits of each rearranged line.
    """
    by_mask: dict[int, int] = {}
    for t, order in enumerate(orders):
        m = masks[tuple(map(line.__getitem__, order))]
        by_mask[m] = by_mask.get(m, 0) | 1 << t
    avoid = [(1 << len(orders)) - 1] * num
    for m, ts in by_mask.items():
        while m:
            low = m & -m
            avoid[low.bit_length() - 1] ^= ts
            m ^= low
    return tuple(avoid)


class _LineBits(dict):
    """A line -> its _avoiding_orders bitsets over orders; made on first lookup."""

    def __init__(self, orders: list[tuple[int, ...]], masks: dict, num: int):
        super().__init__()
        self.orders, self.masks, self.num = orders, masks, num

    def __missing__(self, line: tuple[int, ...]) -> tuple[int, ...]:
        bits = self[line] = _avoiding_orders(line, self.orders, self.masks, self.num)
        return bits


def _filter_counts(k: int, n: int, force: bool) -> list[int]:
    """
    The number of order-n squares avoiding each length-k pattern (in
    _pattern_bits order) in every row and column, from the reduced squares
    (first row and first column 1..n) alone.

    Every square is exactly one reduced square r with rows 1..n-1 put in
    some order tau, then columns put in some order sigma.  Its rows are
    r's rows read in the order sigma and its columns are r's columns read
    in the order tau (row 0 kept first), so for each pattern p the squares
    avoiding it from r number alpha_p(r) * beta_p(r): alpha_p counts the
    sigma that leave every row of r avoiding p, and beta_p the tau that
    leave every column avoiding p.  Each count is the popcount of an AND
    over r's lines of _avoiding_orders bitsets.  The reduced squares come
    from reduced_squares and each line's patterns from pattern_of, so the
    filter shares nothing with the prefix automata, the row walk or the
    sweep.  The squares stream: only each distinct line's bitsets are kept.
    """
    reduced = reduced_squares(n, force)
    bit_of = _pattern_bits(k)
    lines = list(itertools.permutations(range(1, n + 1)))
    masks = {line: _line_mask(line, k, bit_of) for line in lines}
    num = len(bit_of)
    row_bits = _LineBits([tuple(s - 1 for s in line) for line in lines], masks, num)
    col_bits = _LineBits([(0,) + t for t in itertools.permutations(range(1, n))], masks, num)
    counts = [0] * num
    for g in reduced:
        alpha = [reduce(and_, ts).bit_count() for ts in zip(*map(row_bits.__getitem__, g))]
        beta = [reduce(and_, ts).bit_count() for ts in zip(*map(col_bits.__getitem__, zip(*g)))]
        counts = [c + a * b for c, a, b in zip(counts, alpha, beta)]
    return counts


def wilf_classes(
    k: int,
    n: int,
    *,
    mode: str = "filter",
    force: bool = False,
) -> dict:
    """
    Count the avoiders of every length-k pattern at order n and group the
    patterns by equal count.

    mode="filter" tests all k! patterns at once on the reduced squares and
    multiplies out the row and column orders (_filter_counts); at order 5
    it tests 56 reduced squares in place of 161,280 squares.
    mode="pruned" runs one pruned count per pattern (slower, kept for
    cross-validation), sized as count_squares sizes them; filter mode's
    search cannot be sized.  Both run in this process.  Returns a JSON-ready
    report whose classes run largest count first.
    """
    if k < 1 or n < 1:
        raise ValueError("pattern length and order must be >= 1")
    if mode not in ("filter", "pruned"):
        raise ValueError(f"unknown mode {mode!r}")
    if not force and k > WILF_MAX_PATTERN_LENGTH:
        raise FeasibilityError(f"wilf pattern length {k} exceeds the bound {WILF_MAX_PATTERN_LENGTH}; pass force")

    patterns = list(itertools.permutations(range(1, k + 1)))
    if mode == "pruned":
        counts = {p: count_squares(n, AvoidanceSpec.both(p), force=force).count for p in patterns}
    else:
        # a pattern longer than n is in no line's mask, so it gets the full count
        counts = dict(zip(patterns, _filter_counts(k, n, force)))

    by_count: dict[int, list[Perm]] = {}
    for p in patterns:
        by_count.setdefault(counts[p], []).append(p)
    return {
        "pattern_length": k,
        "order": n,
        "mode": mode,
        "num_classes": len(by_count),
        "counts": {"".join(map(str, p)): c for p, c in sorted(counts.items())},
        "classes": [
            {"count": c, "patterns": ["".join(map(str, p)) for p in sorted(by_count[c])]}
            for c in sorted(by_count, reverse=True)
        ],
    }


# ---------------------------------------------------------------------------
# structural verifications
# ---------------------------------------------------------------------------

def verify_full_length_counts(
    n: int,
    patterns: Sequence[Sequence[int]] | None = None,
) -> dict:
    """
    Check, by exhaustive counts, that the column-only and row+column
    avoider counts of full-length patterns match their closed forms in terms
    of the total count.
    """
    if patterns is None:
        pats = [perm.identity(n)]
        if n >= 2:
            pats.append((2, 1) + tuple(range(3, n + 1)))
    else:
        pats = [perm.as_perm(p) for p in patterns]
    for p in pats:
        if len(p) != n:
            raise ValueError(f"pattern {p} does not have full length {n}")

    total = count_squares(n, EMPTY_SPEC).count
    expected_cols = column_avoider_count(n, total)
    expected_full = full_length_count(n, total)
    checks = []
    ok = True
    for p in pats:
        ell = count_squares(n, AvoidanceSpec.columns_only(p)).count
        full = count_squares(n, AvoidanceSpec.both(p)).count
        good = ell == expected_cols and full == expected_full
        ok = ok and good
        checks.append(
            {
                "pattern": "".join(map(str, p)) if n <= 9 else list(p),
                "column_avoiders": ell,
                "expected_column_avoiders": expected_cols,
                "full_avoiders": full,
                "expected_full_avoiders": expected_full,
                "ok": good,
            }
        )
    return {"order": n, "total": total, "checks": checks, "ok": ok}


def verify_triple_containment(n: int) -> dict:
    """
    Check that every order-n square contains either all or none of
    {123, 231, 312}, and likewise for {132, 213, 321}.

    A square splits a triple only if it contains one of its patterns and
    avoids another, so only the squares avoiding some length-3 pattern in
    rows and columns are tested.  Their union is walked pattern by pattern,
    all six (equal avoider counts within a triple are what is being
    checked, not assumed), and each is tested with perm.contains over its
    2n lines, in row-major lexicographic order, the row walk's own; the
    number of squares comes from the sweep.
    """
    squares = count_squares(n, EMPTY_SPEC).count
    candidates = set()
    for p in itertools.permutations((1, 2, 3)):
        candidates.update(sq.grid for sq in enumerate_squares(n, AvoidanceSpec.both(p)))
    bad: list = []
    for g in sorted(candidates):
        lines = g + tuple(zip(*g))
        for triple in (((1, 2, 3), (2, 3, 1), (3, 1, 2)), ((1, 3, 2), (2, 1, 3), (3, 2, 1))):
            flags = [int(any(perm.contains(line, p) for line in lines)) for p in triple]
            if 0 < sum(flags) < 3 and len(bad) < 5:
                bad.append({"grid": [list(r) for r in g], "flags": flags})
    return {"order": n, "squares": squares, "violations": bad, "ok": not bad}


def _is_cyclic_decreasing(line: tuple[int, ...]) -> bool:
    n = len(line)
    return all(line[i + 1] == (line[i] - 2) % n + 1 for i in range(n - 1))


def verify_cyclic_structure(n: int) -> dict:
    """
    Check that the squares avoiding 1-2-3 in rows and columns are exactly n
    in number and that each has every column (and row) cyclic decreasing,
    each entry one less than the one above it, wrapping n below 1.
    """
    squares = [sq.grid for sq in enumerate_squares(n, AvoidanceSpec.both((1, 2, 3)))]
    structural = all(
        all(_is_cyclic_decreasing(col) for col in zip(*g))
        and all(_is_cyclic_decreasing(row) for row in g)
        for g in squares
    )
    return {
        "order": n,
        "count": len(squares),
        "expected_count": n,
        "cyclic_decreasing": structural,
        "ok": structural and len(squares) == n,
    }


def verify_erdos_szekeres(rise: int, fall: int) -> dict:
    """
    Exhaustively confirm that every permutation of length rise*fall+1 has an
    increasing subsequence of length rise+1 or a decreasing one of length
    fall+1.
    """
    if rise < 1 or fall < 1:
        raise ValueError("rise and fall must be >= 1")
    length = rise * fall + 1
    if length > 8:
        raise FeasibilityError(f"exhaustive check over S_{length} exceeds the bound of S_8")
    checked = 0
    for p in perm.all_perms(length):
        if not perm.check_erdos_szekeres(p, rise, fall):
            return {"rise": rise, "fall": fall, "length": length, "counterexample": list(p), "ok": False}
        checked += 1
    return {"rise": rise, "fall": fall, "length": length, "permutations": checked, "ok": True}
