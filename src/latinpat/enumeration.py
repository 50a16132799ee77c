"""
Exhaustive backtracking enumeration of Latin squares with online
pattern-avoidance pruning.

The search fills the grid row-major, cell by cell, with per-row and
per-column occupancy bitmasks.  Row and column patterns are compiled once
per call into prefix automata (perm.prefix_automaton): each row and each
column keeps one automaton state, and a placement costs one table lookup
per line.  A line's state goes DEAD as soon as its prefix contains a
pattern or can no longer be completed to an avoiding permutation of 1..n,
and nothing below a dead prefix is searched.  Symbol-pattern constraints
are checked at the leaves, by running each symbol permutation through its
automaton.  A spec with no
row or column patterns runs a loop that keeps no automaton states.

A node is a cell placement that passed the occupancy masks, counted before
the automaton check, so nodes_explored counts the placements tried below
live prefixes.

Candidate symbols are tried in increasing order, so squares are produced in
lexicographic order of their row-major grids; counts are exact Python ints.
Every scan is cut at the first row into disjoint prefix subtrees, one task
each, whatever the worker count; merging per-task results in task order
keeps every output, node counts included, the same for any worker count.
The automata are compiled once per call and shared by all of that call's
tasks, so the split costs no extra containment checks.
"""
from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

from .perm import DEAD, PrefixAutomaton, as_perm, prefix_automaton
from .square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    Grid,
    LatinSquare,
    _trusted_square,
)

#: version of the engine's answers, nodes_explored included: cached counts
#: are keyed by it, so a change to any answer must raise it
ENGINE_VERSION = 2

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


Automata = tuple[PrefixAutomaton | None, PrefixAutomaton | None, PrefixAutomaton | None]


def _spec_automata(n: int, spec: AvoidanceSpec) -> Automata:
    """
    The (row, column, symbol) prefix automata of a spec at order n; None
    where it has no pattern of length at most n.
    """
    automata = []
    for patterns in (spec.row_patterns, spec.col_patterns, spec.symbol_patterns):
        short = [p for p in patterns if len(p) <= n]
        automata.append(prefix_automaton(n, short) if short else None)
    return tuple(automata)


def _free_automaton(n: int) -> PrefixAutomaton:
    # One live state that takes every symbol: the lines of a side with no
    # patterns, whose repeats the occupancy masks already exclude.
    return PrefixAutomaton(((DEAD,) * (n + 1), (DEAD,) + (1,) * n), (0, (1 << n) - 1), 1)


def _run_search(
    n: int,
    spec: AvoidanceSpec,
    prefix: Sequence[int] = (),
    *,
    stop_depth: int | None = None,
    on_leaf: Callable[[Grid], None] | None = None,
    on_prefix: Callable[[tuple[int, ...]], None] | None = None,
    automata: Automata | None = None,
) -> tuple[int, int]:
    """
    Core backtracker.  Returns (hits, nodes).

    With stop_depth=None, hits counts completed squares (on_leaf sees each
    grid).  With stop_depth=d, the search stops at depth d and hits counts
    the surviving prefixes (on_prefix sees each one).  A node is a cell
    placement that passed the occupancy masks, counted before the automaton
    check; the cells of prefix are placed and checked like any other.
    automata, from _spec_automata(n, spec), lets several searches share one
    compilation.

    Each row and each column keeps its prefix automaton state, and a
    placement survives only while both stay alive.  A spec without row or
    column patterns runs a loop with no states at all.
    """
    total_cells = n * n
    full = (1 << n) - 1
    grid = [[0] * n for _ in range(n)]
    row_free = [full] * n
    col_free = [full] * n

    row_auto, col_auto, sym_auto = automata or _spec_automata(n, spec)

    stop_at = total_cells if stop_depth is None else stop_depth
    if not 0 <= stop_at <= total_cells:
        raise ValueError(f"stop depth {stop_depth} outside 0..{total_cells}")

    nodes = 0
    hits = 0

    forced = len(prefix)
    if forced > stop_at:
        raise ValueError("prefix longer than the search depth")

    def accept() -> None:
        nonlocal hits
        if stop_depth is not None:
            hits += 1
            if on_prefix is not None:
                on_prefix(tuple(grid[k // n][k % n] for k in range(stop_at)))
            return
        if sym_auto:
            # symbol k's permutation: row index -> column holding k
            sym = [[0] * n for _ in range(n)]
            for i in range(n):
                row = grid[i]
                for j in range(n):
                    sym[row[j] - 1][i] = j + 1
            for p in sym:
                if not sym_auto.run(p):
                    return
        hits += 1
        if on_leaf is not None:
            on_leaf(tuple(tuple(r) for r in grid))

    def forced_bit(k: int, i: int, j: int, avail: int) -> int:
        s = prefix[k]
        bit = 1 << (s - 1)
        if not avail & bit:
            raise ValueError(
                f"prefix is not Latin: symbol {s} repeats in row {i + 1} or column {j + 1}"
            )
        return bit

    def descend(k: int) -> None:
        nonlocal nodes
        if k == stop_at:
            accept()
            return
        i, j = divmod(k, n)
        row = grid[i]
        avail = row_free[i] & col_free[j]
        if k < forced:
            avail = forced_bit(k, i, j, avail)
        while avail:
            bit = avail & -avail
            avail ^= bit
            nodes += 1
            row[j] = bit.bit_length()
            row_free[i] ^= bit
            col_free[j] ^= bit
            descend(k + 1)
            row_free[i] ^= bit
            col_free[j] ^= bit

    if row_auto is None and col_auto is None:
        descend(0)
        return hits, nodes

    row_auto = row_auto or _free_automaton(n)
    col_auto = col_auto or _free_automaton(n)
    row_next, row_live = row_auto.next, row_auto.live
    col_next, col_live = col_auto.next, col_auto.live
    row_state = [row_auto.root] * n
    col_state = [col_auto.root] * n

    def descend_live(k: int) -> None:
        nonlocal nodes
        if k == stop_at:
            accept()
            return
        i, j = divmod(k, n)
        row = grid[i]
        avail = row_free[i] & col_free[j]
        if k < forced:
            avail = forced_bit(k, i, j, avail)
        nodes += avail.bit_count()
        rs = row_state[i]
        cs = col_state[j]
        avail &= row_live[rs] & col_live[cs]
        r_next = row_next[rs]
        c_next = col_next[cs]
        while avail:
            bit = avail & -avail
            avail ^= bit
            s = bit.bit_length()
            row[j] = s
            row_state[i] = r_next[s]
            col_state[j] = c_next[s]
            row_free[i] ^= bit
            col_free[j] ^= bit
            descend_live(k + 1)
            row_free[i] ^= bit
            col_free[j] ^= bit
        row_state[i] = rs
        col_state[j] = cs

    descend_live(0)
    return hits, nodes


def _count_worker(task: EnumerationTask, automata: Automata) -> tuple[int, int]:
    return _run_search(task.order, task.spec, task.prefix, automata=automata)


def _collect_worker(task: EnumerationTask, automata: Automata) -> list[Grid]:
    grids: list[Grid] = []
    _run_search(task.order, task.spec, task.prefix, on_leaf=grids.append, automata=automata)
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


def _partition(
    n: int, spec: AvoidanceSpec, split_depth: int, automata: Automata | None = None
) -> tuple[list[EnumerationTask], int]:
    if not 0 <= split_depth <= n * n:
        raise ValueError(f"split_depth {split_depth} outside 0..{n * n}")
    prefixes: list[tuple[int, ...]] = []
    _, nodes = _run_search(
        n, spec, stop_depth=split_depth, on_prefix=prefixes.append, automata=automata
    )
    tasks = [EnumerationTask(n, spec, p) for p in prefixes]
    return tasks, nodes


def partition_tasks(n: int, spec: AvoidanceSpec, split_depth: int) -> list[EnumerationTask]:
    """
    Split the search space into tasks with pairwise-disjoint subtree domains
    covering the whole space; per-task counts sum to the full count.
    """
    return _partition(n, spec, split_depth)[0]


def default_split_depth(n: int) -> int:
    """Partition boundary of every scan: the whole first row."""
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

    The space is always partitioned into prefix tasks, at split_depth cells
    (default: the first row; 0 gives one task), and per-task counts are
    summed in task order, so the result, nodes_explored included, is
    byte-identical for any worker count.
    """
    check_enumeration_bound(n, spec, max_order)
    t0 = time.perf_counter()
    if split_depth is None:
        split_depth = default_split_depth(n)
    automata = _spec_automata(n, spec)
    tasks, nodes = _partition(n, spec, split_depth, automata)
    count = 0
    for c, nd in map_tasks(partial(_count_worker, automata=automata), tasks, jobs, progress):
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
    of the row-major grid.  One job streams squares straight from the search;
    more buffer per first-row task and replay in task order, so the visit
    order never depends on the worker count.
    """
    check_enumeration_bound(n, spec, max_order)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        # a first-row task of unrestricted order 6 alone holds ~1.13M squares
        _run_search(n, spec, on_leaf=lambda g: visitor(_trusted_square(g)))
        return
    automata = _spec_automata(n, spec)
    tasks, _ = _partition(n, spec, default_split_depth(n), automata)
    worker = partial(_collect_worker, automata=automata)
    with closing(map_tasks(worker, tasks, jobs)) as results:
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
