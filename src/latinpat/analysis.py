"""
Derived quantities over the enumeration engine: counts of squares avoiding
full-length patterns, Wilf-class partitions, and the minimax analysis of
monotone subsequences in rows and columns.

Everything here recomputes from enumeration rather than trusting tables; the
only inputs are the engine, the constructive generators, and exact integer
arithmetic.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import isqrt
from typing import Sequence

from . import perm
from .construct import connolly_square
from .enumeration import (
    EnumerationTask,
    FeasibilityError,
    _run_search,
    count_column_avoiders,
    count_squares,
    default_split_depth,
    map_tasks,
    partition_tasks,
)
from .perm import Perm
from .square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    Grid,
    LatinSquare,
    _trusted_square,
    max_monotone,
    square_to_json,
)

#: largest order for which the full minimax scan is allowed
LAMBDA_EXHAUSTIVE_BOUND = 5

#: default feasibility box for Wilf-class computation
WILF_MAX_PATTERN_LENGTH = 4
WILF_MAX_ORDER = 5


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WilfReport:
    pattern_length: int
    order: int
    counts: dict[Perm, int]
    classes: tuple[tuple[int, tuple[Perm, ...]], ...]
    mode: str

    def class_id(self, pattern: Perm) -> int:
        for cid, (_, members) in enumerate(self.classes, start=1):
            if pattern in members:
                return cid
        raise KeyError(pattern)

    def to_json(self) -> dict:
        return {
            "pattern_length": self.pattern_length,
            "order": self.order,
            "mode": self.mode,
            "num_classes": len(self.classes),
            "counts": {"".join(map(str, p)): c for p, c in sorted(self.counts.items())},
            "classes": [
                {"count": c, "patterns": ["".join(map(str, p)) for p in members]}
                for c, members in self.classes
            ],
        }

    def to_csv(self) -> str:
        return wilf_csv(self.to_json())


@dataclass(frozen=True)
class LambdaReport:
    order: int
    lower_bound: int
    exact_value: int | None
    witness: LatinSquare | None
    method: str  # "exhaustive" | "bound-only" | "witness-capped"

    @property
    def witness_cap(self) -> int | None:
        return max_monotone(self.witness) if self.witness is not None else None

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "lower_bound": self.lower_bound,
            "exact_value": self.exact_value,
            "witness_cap": self.witness_cap,
            "method": self.method,
            "witness": square_to_json(self.witness) if self.witness else None,
        }

    def to_csv(self) -> str:
        return lambda_csv(self.to_json())


def wilf_csv(d: dict) -> str:
    """CSV of a WilfReport.to_json() dict: one row per pattern with its class id."""
    class_of = {}
    for cid, cls in enumerate(d["classes"], start=1):
        for p in cls["patterns"]:
            class_of[p] = cid
    lines = ["pattern,count,class_id"]
    for p in sorted(d["counts"]):
        lines.append(f"{p},{d['counts'][p]},{class_of[p]}")
    return "\n".join(lines) + "\n"


def lambda_csv(d: dict) -> str:
    """CSV of a LambdaReport.to_json() dict: a header and one row."""
    head = "order,lower_bound,exact_value,witness_cap,method"
    row = (
        f"{d['order']},{d['lower_bound']},"
        f"{'' if d['exact_value'] is None else d['exact_value']},"
        f"{'' if d['witness_cap'] is None else d['witness_cap']},{d['method']}"
    )
    return head + "\n" + row + "\n"


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


def lambda_witness_cap(sq: LatinSquare) -> int:
    """max_monotone of the square: a certified upper bound for its order."""
    return max_monotone(sq)


def _grid_max_monotone(g: Grid, cache: dict) -> int:
    best = 0
    for lines in (g, zip(*g)):
        for line in lines:
            v = cache.get(line)
            if v is None:
                v = perm.longest_monotone(line)
                cache[line] = v
            if v > best:
                best = v
    return best


def _scan_tasks(n: int, jobs: int) -> list[EnumerationTask]:
    # One task keeps a single leaf cache for the whole scan; split only for
    # more than one worker.
    if jobs > 1:
        return partition_tasks(n, EMPTY_SPEC, default_split_depth(n))
    return [EnumerationTask(n, EMPTY_SPEC, ())]


def _lambda_worker(task: EnumerationTask) -> tuple[int | None, Grid | None]:
    cache: dict = {}
    best: list = [None, None]

    def visit(g: Grid) -> None:
        m = _grid_max_monotone(g, cache)
        if best[0] is None or m < best[0]:
            best[0] = m
            best[1] = g

    _run_search(task.order, task.spec, task.prefix, on_leaf=visit)
    return best[0], best[1]


def compute_lambda_exhaustive(n: int, *, jobs: int = 1) -> LambdaReport:
    """
    Exact minimax: the smallest max_monotone over all order-n squares, with
    the lexicographically first square attaining it as witness.  Full scan,
    feasible for n <= LAMBDA_EXHAUSTIVE_BOUND.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > LAMBDA_EXHAUSTIVE_BOUND:
        raise FeasibilityError(
            f"exhaustive minimax at order {n} exceeds the bound {LAMBDA_EXHAUSTIVE_BOUND}"
        )
    lower = lambda_lower_bound(n) if n >= 2 else 1

    value: int | None = None
    grid: Grid | None = None
    for v, g in map_tasks(_lambda_worker, _scan_tasks(n, jobs), jobs):
        if v is not None and (value is None or v < value):
            value, grid = v, g

    assert value is not None and grid is not None
    if value < lower:
        raise AssertionError(
            f"minimax {value} at order {n} is below the proven lower bound {lower}"
        )
    return LambdaReport(n, lower, value, _trusted_square(grid), "exhaustive")


def lambda_bound_report(n: int) -> LambdaReport:
    """
    Bounds without a full scan: the proven lower bound, capped by the
    modular-square witness when n is a perfect square.  exact_value is set
    only when the two meet.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lower = lambda_lower_bound(n)
    root = isqrt(n)
    if root * root == n and root >= 2:
        witness = connolly_square(root)
        cap = max_monotone(witness)
        exact = cap if cap == lower else None
        return LambdaReport(n, lower, exact, witness, "witness-capped")
    return LambdaReport(n, lower, None, None, "bound-only")


# ---------------------------------------------------------------------------
# full-length pattern counts
# ---------------------------------------------------------------------------

def full_length_count(n: int, total: int | None = None, *, max_order: int | None = None) -> int:
    """
    Number of order-n squares avoiding any fixed length-n pattern in rows and
    columns: ((n!-n)/n!)^2 times the total count, an exact integer.  The
    total is enumerated unless supplied by the caller (e.g. from a cache).
    """
    fact = math.factorial(n)
    if total is None:
        total = count_squares(n, EMPTY_SPEC, max_order=max_order).count
    num = (fact - n) ** 2 * total
    q, r = divmod(num, fact * fact)
    if r:
        raise ArithmeticError(f"(n!-n)^2 * L_n not divisible by (n!)^2 at n={n}")
    return q


def column_avoider_count(n: int, total: int | None = None, *, max_order: int | None = None) -> int:
    """(n!-n)/n! times the total count: squares avoiding a full-length pattern in columns only."""
    fact = math.factorial(n)
    if total is None:
        total = count_squares(n, EMPTY_SPEC, max_order=max_order).count
    q, r = divmod((fact - n) * total, fact)
    if r:
        raise ArithmeticError(f"(n!-n) * L_n not divisible by n! at n={n}")
    return q


# ---------------------------------------------------------------------------
# Wilf classes
# ---------------------------------------------------------------------------

def _pattern_bits(k: int) -> dict[Perm, int]:
    return {p: i for i, p in enumerate(itertools.permutations(range(1, k + 1)))}


def _grid_mask(g: Grid, k: int, bit_of: dict[Perm, int], cache: dict) -> int:
    """Bitmask (bits from bit_of) of the length-k patterns some row or column of g contains."""
    m = 0
    for lines in (g, zip(*g)):
        for line in lines:
            lm = cache.get(line)
            if lm is None:
                lm = 0
                for idx in itertools.combinations(range(len(line)), k):
                    lm |= 1 << bit_of[perm.pattern_of([line[i] for i in idx])]
                cache[line] = lm
            m |= lm
    return m


def _wilf_worker(task: EnumerationTask, k: int) -> Counter:
    bit_of = _pattern_bits(k)
    cache: dict = {}
    tally: Counter = Counter()

    def visit(g: Grid) -> None:
        tally[_grid_mask(g, k, bit_of, cache)] += 1

    _run_search(task.order, task.spec, task.prefix, on_leaf=visit)
    return tally


def wilf_classes(
    k: int,
    n: int,
    *,
    mode: str = "filter",
    jobs: int = 1,
    force: bool = False,
) -> WilfReport:
    """
    Count the avoiders of every length-k pattern at order n and group the
    patterns by equal count.

    mode="filter" enumerates the squares once and tests all k! patterns per
    square; mode="pruned" runs one pruned search per pattern (slower, kept
    for cross-validation).  Classes are reported largest count first.
    """
    if k < 1 or n < 1:
        raise ValueError("pattern length and order must be >= 1")
    if mode not in ("filter", "pruned"):
        raise ValueError(f"unknown mode {mode!r}")
    if not force and (k > WILF_MAX_PATTERN_LENGTH or n > WILF_MAX_ORDER):
        raise FeasibilityError(
            f"wilf computation at pattern length {k}, order {n} exceeds the default "
            f"box ({WILF_MAX_PATTERN_LENGTH}, {WILF_MAX_ORDER}); pass force to override"
        )

    patterns = list(itertools.permutations(range(1, k + 1)))
    counts: dict[Perm, int] = {}

    if mode == "pruned" or k > n:
        # patterns longer than n are avoided by every square; pruned search
        # handles that uniformly
        for p in patterns:
            counts[p] = count_squares(n, AvoidanceSpec.both(p), jobs=jobs).count
    else:
        bit_of = _pattern_bits(k)
        tally: Counter = Counter()
        for part in map_tasks(partial(_wilf_worker, k=k), _scan_tasks(n, jobs), jobs):
            tally.update(part)
        for p, b in bit_of.items():
            counts[p] = sum(freq for m, freq in tally.items() if not (m >> b) & 1)

    by_count: dict[int, list[Perm]] = {}
    for p in patterns:
        by_count.setdefault(counts[p], []).append(p)
    classes = tuple(
        (c, tuple(sorted(by_count[c])))
        for c in sorted(by_count, reverse=True)
    )
    return WilfReport(k, n, counts, classes, mode)


# ---------------------------------------------------------------------------
# structural verifications
# ---------------------------------------------------------------------------

def verify_full_length_counts(
    n: int,
    patterns: Sequence[Sequence[int]] | None = None,
    *,
    jobs: int = 1,
) -> dict:
    """
    Check, by direct enumeration, that the column-only and row+column
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

    total = count_squares(n, EMPTY_SPEC, jobs=jobs).count
    expected_cols = column_avoider_count(n, total)
    expected_full = full_length_count(n, total)
    checks = []
    ok = True
    for p in pats:
        ell = count_column_avoiders(n, p, jobs=jobs).count
        full = count_squares(n, AvoidanceSpec.both(p), jobs=jobs).count
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
    """
    if n > 5:
        raise FeasibilityError("triple-containment check enumerates all squares; n <= 5")
    bit_of = _pattern_bits(3)
    cache: dict = {}
    triples = [
        tuple(bit_of[p] for p in ((1, 2, 3), (2, 3, 1), (3, 1, 2))),
        tuple(bit_of[p] for p in ((1, 3, 2), (2, 1, 3), (3, 2, 1))),
    ]
    bad: list = []
    seen = [0]

    def visit(g: Grid) -> None:
        seen[0] += 1
        m = _grid_mask(g, 3, bit_of, cache)
        for bits in triples:
            flags = [(m >> b) & 1 for b in bits]
            if len(set(flags)) > 1 and len(bad) < 5:
                bad.append({"grid": [list(r) for r in g], "flags": flags})

    _run_search(n, EMPTY_SPEC, on_leaf=visit)
    return {"order": n, "squares": seen[0], "violations": bad, "ok": not bad}


def _is_cyclic_decreasing(line: tuple[int, ...]) -> bool:
    n = len(line)
    return all(line[i + 1] == (line[i] - 2) % n + 1 for i in range(n - 1))


def verify_cyclic_structure(n: int) -> dict:
    """
    Check that the squares avoiding 1-2-3 in rows and columns are exactly n
    in number and that each has every column (and row) cyclic decreasing,
    each entry one less than the one above it, wrapping n below 1.
    """
    squares: list[Grid] = []
    _run_search(n, AvoidanceSpec.both((1, 2, 3)), on_leaf=squares.append)
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
