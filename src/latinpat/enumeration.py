"""
Exhaustive backtracking enumeration of Latin squares with online
pattern-avoidance pruning.

The search fills the grid row-major, cell by cell, with per-row and
per-column occupancy bitmasks.  After each placement the completed prefix of
the cell's row (and column) is tested against the avoidance spec: pattern
containment in a prefix is monotone under extension, so a containing prefix
cuts the whole subtree.  Symbol-pattern constraints are not prefix-monotone
in this fill order and are checked at the leaves instead.

Candidate symbols are tried in increasing order, so squares are produced in
lexicographic order of their row-major grids; counts are exact Python ints.
The search space can be partitioned into disjoint prefix subtrees for
parallel workers; merging per-task results in task order keeps every output
deterministic regardless of worker count.
"""
from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

from .perm import PatternChecker, as_perm
from .square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    Grid,
    LatinSquare,
    _trusted_square,
)

#: hard default ceiling for enumeration whose spec prunes nothing
DEFAULT_UNRESTRICTED_BOUND = 6

#: ceiling for the independent reduced-square cross-check search
REDUCED_SEARCH_BOUND = 6

T = TypeVar("T")
R = TypeVar("R")


class FeasibilityError(Exception):
    """A request exceeds the configured desk-scale bounds."""


@dataclass(frozen=True)
class CountResult:
    order: int
    spec: AvoidanceSpec
    count: int
    nodes_explored: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "spec": self.spec.to_dict(),
            "count": self.count,
            "nodes_explored": self.nodes_explored,
        }


@dataclass(frozen=True)
class EnumerationTask:
    """A disjoint chunk of the search space: the subtree under one prefix."""

    order: int
    spec: AvoidanceSpec
    prefix: tuple[int, ...]


def _spec_prunes(n: int, spec: AvoidanceSpec) -> bool:
    # Symbol patterns are leaf checks only, so they never shrink the tree.
    return any(len(p) <= n for p in spec.row_patterns + spec.col_patterns)


def check_enumeration_bound(n: int, spec: AvoidanceSpec, max_order: int | None = None) -> None:
    """Refuse unrestricted enumeration beyond the configured order bound."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    bound = DEFAULT_UNRESTRICTED_BOUND if max_order is None else max_order
    if not _spec_prunes(n, spec) and n > bound:
        raise FeasibilityError(
            f"unrestricted enumeration at order {n} exceeds the bound {bound}; "
            "raise max_order to override"
        )


def _run_search(
    n: int,
    spec: AvoidanceSpec,
    prefix: Sequence[int] = (),
    *,
    stop_depth: int | None = None,
    on_leaf: Callable[[Grid], None] | None = None,
    on_prefix: Callable[[tuple[int, ...]], None] | None = None,
) -> tuple[int, int]:
    """
    Core backtracker.  Returns (hits, nodes).

    With stop_depth=None, hits counts completed squares (on_leaf sees each
    grid).  With stop_depth=d, the search stops at depth d and hits counts
    the surviving prefixes (on_prefix sees each one).  A node is a cell
    placement that passed the occupancy masks, counted before pattern checks.
    """
    total_cells = n * n
    full = (1 << n) - 1
    grid = [[0] * n for _ in range(n)]
    row_free = [full] * n
    col_free = [full] * n

    row_checker = PatternChecker(spec.row_patterns) if spec.row_patterns else None
    col_checker = PatternChecker(spec.col_patterns) if spec.col_patterns else None
    sym_checker = PatternChecker(spec.symbol_patterns) if spec.symbol_patterns else None
    row_min = min((len(p) for p in spec.row_patterns), default=0)
    col_min = min((len(p) for p in spec.col_patterns), default=0)

    stop_at = total_cells if stop_depth is None else stop_depth
    if not 0 <= stop_at <= total_cells:
        raise ValueError(f"stop depth {stop_depth} outside 0..{total_cells}")

    nodes = 0
    hits = 0

    if len(prefix) > stop_at:
        raise ValueError("prefix longer than the search depth")
    for k, s in enumerate(prefix):
        i, j = divmod(k, n)
        bit = 1 << (s - 1)
        if not (row_free[i] & bit and col_free[j] & bit):
            raise ValueError(
                f"prefix is not Latin: symbol {s} repeats in row {i + 1} or column {j + 1}"
            )
        grid[i][j] = s
        row_free[i] ^= bit
        col_free[j] ^= bit
        nodes += 1
        if row_checker and j + 1 >= row_min:
            if not row_checker.avoids_all(tuple(grid[i][: j + 1])):
                return 0, nodes
        if col_checker and i + 1 >= col_min:
            if not col_checker.avoids_all(tuple(grid[r][j] for r in range(i + 1))):
                return 0, nodes

    def accept() -> None:
        nonlocal hits
        if stop_depth is not None:
            hits += 1
            if on_prefix is not None:
                on_prefix(tuple(grid[k // n][k % n] for k in range(stop_at)))
            return
        if sym_checker:
            # symbol k's permutation: row index -> column holding k
            sym = [[0] * n for _ in range(n)]
            for i in range(n):
                row = grid[i]
                for j in range(n):
                    sym[row[j] - 1][i] = j + 1
            for p in sym:
                if not sym_checker.avoids_all(tuple(p)):
                    return
        hits += 1
        if on_leaf is not None:
            on_leaf(tuple(tuple(r) for r in grid))

    def descend(k: int) -> None:
        nonlocal nodes
        if k == stop_at:
            accept()
            return
        i, j = divmod(k, n)
        row = grid[i]
        avail = row_free[i] & col_free[j]
        while avail:
            bit = avail & -avail
            avail ^= bit
            nodes += 1
            row[j] = bit.bit_length()
            if row_checker and j + 1 >= row_min:
                if not row_checker.avoids_all(tuple(row[: j + 1])):
                    continue
            if col_checker and i + 1 >= col_min:
                if not col_checker.avoids_all(tuple(grid[r][j] for r in range(i + 1))):
                    continue
            row_free[i] ^= bit
            col_free[j] ^= bit
            descend(k + 1)
            row_free[i] ^= bit
            col_free[j] ^= bit

    descend(len(prefix))
    return hits, nodes


def _count_worker(task: EnumerationTask) -> tuple[int, int]:
    return _run_search(task.order, task.spec, task.prefix)


def _collect_worker(task: EnumerationTask) -> list[Grid]:
    grids: list[Grid] = []
    _run_search(task.order, task.spec, task.prefix, on_leaf=grids.append)
    return grids


def _worker_count(jobs: int, num_tasks: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, num_tasks, os.cpu_count() or 1))


def _run_chunk(worker: Callable[[T], R], chunk: list[T]) -> list[R]:
    return [worker(task) for task in chunk]


def map_tasks(
    worker: Callable[[T], R],
    tasks: Sequence[T],
    jobs: int,
    progress: Callable[[int, int], None] | None = None,
) -> Iterator[R]:
    """
    Yield worker(task) for every task, in task order, whatever the worker
    count.  One worker runs the tasks in this process; more run them in a
    process pool, in chunks, with a bounded number of chunks in flight so
    results never pile up ahead of a slow consumer.  Closing the iterator
    early cancels the queued chunks.  progress(done, total) follows each task.
    """
    workers = _worker_count(jobs, len(tasks))
    total = len(tasks)
    if workers == 1:
        for done, task in enumerate(tasks, start=1):
            result = worker(task)
            if progress is not None:
                progress(done, total)
            yield result
        return
    size = max(1, total // (workers * 4))
    chunks = (list(tasks[i:i + size]) for i in range(0, total, size))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        in_flight = deque(pool.submit(_run_chunk, worker, c) for c in islice(chunks, 2 * workers))
        done = 0
        while in_flight:
            results = in_flight.popleft().result()
            chunk = next(chunks, None)
            if chunk is not None:
                in_flight.append(pool.submit(_run_chunk, worker, chunk))
            for result in results:
                done += 1
                if progress is not None:
                    progress(done, total)
                yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _partition(n: int, spec: AvoidanceSpec, split_depth: int) -> tuple[list[EnumerationTask], int]:
    if not 0 <= split_depth <= n * n:
        raise ValueError(f"split_depth {split_depth} outside 0..{n * n}")
    prefixes: list[tuple[int, ...]] = []
    _, nodes = _run_search(n, spec, stop_depth=split_depth, on_prefix=prefixes.append)
    tasks = [EnumerationTask(n, spec, p) for p in prefixes]
    return tasks, nodes


def partition_tasks(n: int, spec: AvoidanceSpec, split_depth: int) -> list[EnumerationTask]:
    """
    Split the search space into tasks with pairwise-disjoint subtree domains
    covering the whole space; per-task counts sum to the full count.
    """
    return _partition(n, spec, split_depth)[0]


def default_split_depth(n: int) -> int:
    """Partition boundary used by parallel runs: the whole first row."""
    return n


def count_squares(
    n: int,
    spec: AvoidanceSpec = EMPTY_SPEC,
    *,
    jobs: int = 1,
    split_depth: int | None = None,
    max_order: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> CountResult:
    """
    Count order-n Latin squares satisfying the avoidance spec.

    With split_depth set (or jobs > 1), the space is partitioned into prefix
    tasks and per-task counts are summed in task order, so the result is
    byte-identical for any worker count.
    """
    check_enumeration_bound(n, spec, max_order)
    t0 = time.perf_counter()
    if split_depth is None and jobs > 1:
        split_depth = default_split_depth(n)

    if split_depth is None:
        tasks, nodes = [EnumerationTask(n, spec, ())], 0
    else:
        tasks, nodes = _partition(n, spec, split_depth)
    count = 0
    for c, nd in map_tasks(_count_worker, tasks, jobs, progress):
        count += c
        nodes += nd
    return CountResult(n, spec, count, nodes, time.perf_counter() - t0)


def count_column_avoiders(n: int, pattern: Sequence[int], **kwargs) -> CountResult:
    """Squares avoiding the pattern in the columns only."""
    return count_squares(n, AvoidanceSpec.columns_only(as_perm(pattern)), **kwargs)


def enumerate_squares(
    n: int,
    spec: AvoidanceSpec,
    visitor: Callable[[LatinSquare], None],
    *,
    jobs: int = 1,
    max_order: int | None = None,
) -> None:
    """
    Invoke visitor exactly once per satisfying square, in lexicographic order
    of the row-major grid.  Parallel runs buffer per task and replay in task
    order, so the visit order never depends on the worker count.
    """
    check_enumeration_bound(n, spec, max_order)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        _run_search(n, spec, on_leaf=lambda g: visitor(_trusted_square(g)))
        return
    tasks, _ = _partition(n, spec, default_split_depth(n))
    with closing(map_tasks(_collect_worker, tasks, jobs)) as results:
        for grids in results:
            for g in grids:
                visitor(_trusted_square(g))


def enumerate_with_first_row(
    n: int,
    first_row: Sequence[int],
    spec: AvoidanceSpec = EMPTY_SPEC,
    *,
    max_order: int | None = None,
) -> list[LatinSquare]:
    """All satisfying squares whose first row equals first_row, in order."""
    first_row = as_perm(first_row)
    if len(first_row) != n:
        raise ValueError(f"first row has length {len(first_row)}, expected {n}")
    check_enumeration_bound(n, spec, max_order)
    out: list[LatinSquare] = []
    _run_search(n, spec, first_row, on_leaf=lambda g: out.append(_trusted_square(g)))
    return out


# ---------------------------------------------------------------------------
# independent reduced-square cross-check
# ---------------------------------------------------------------------------

def count_reduced_squares(n: int) -> int:
    """
    Number of reduced squares (first row and first column in natural order),
    by a row-at-a-time search that shares no code with the main engine.
    The identity n! * (n-1)! * R_n recovers the full count.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > REDUCED_SEARCH_BOUND:
        raise FeasibilityError(
            f"reduced-square search at order {n} exceeds the bound {REDUCED_SEARCH_BOUND}"
        )
    if n == 1:
        return 1

    col_used = [{j + 1} for j in range(n)]  # first row is 1..n

    def fill_rows(i: int) -> int:
        if i == n:
            return 1
        total = 0
        row = [0] * n
        row[0] = i + 1  # first column is 1..n
        used = {i + 1}

        def fill_cols(j: int) -> None:
            nonlocal total
            if j == n:
                for jj in range(1, n):
                    col_used[jj].add(row[jj])
                total += fill_rows(i + 1)
                for jj in range(1, n):
                    col_used[jj].remove(row[jj])
                return
            for v in range(1, n + 1):
                if v not in used and v not in col_used[j]:
                    row[j] = v
                    used.add(v)
                    fill_cols(j + 1)
                    used.remove(v)

        fill_cols(1)
        return total

    return fill_rows(1)
