"""
Exhaustive backtracking enumeration of Latin squares with online
pattern-avoidance pruning.

The search fills the grid row-major with per-row and per-column occupancy
bitmasks.  Row and column patterns are compiled once per call into prefix
automata (perm.prefix_automaton): each row and each column keeps one
automaton state, and a placement costs one table lookup per line.  A
line's state goes DEAD as soon as its prefix contains a pattern or can no
longer be completed to an avoiding permutation of 1..n, and nothing below
a dead prefix is searched.  A side with no patterns gets a one-state
automaton that takes every symbol.  Symbol lines (row index -> column of
the symbol) keep one state per symbol too, stepped as each row is placed.

The grid is walked a whole row at a time, after the transfer-matrix method
(Stanley, EC1 4.7).  The rows that can fill row i depend only on the
column state, every column's free symbols and automaton state.  A
cell-by-cell search over that one row finds them the first time the state
is seen, and the per-call row table keeps them, with the column state each
leads to and the nodes the row search counted; every later visit replays
the entry.  A plain count adds up the number of last rows instead of
visiting each square.

A node is a cell placement that passed the occupancy masks, counted before
the automaton check, so nodes_explored counts the placements tried below
live prefixes.  A replayed entry adds the nodes its row search counted, so
nodes_explored means what it did when every row was searched cell by cell.

Candidate symbols are tried in increasing order, so squares are produced in
lexicographic order of their row-major grids; counts are exact Python ints.
enumerate_squares streams every square from one search in this process.
Every other scan (count_squares, render_squares, the Wilf filter) is set
up by _pooled_scan: cut at the first row into disjoint prefix subtrees,
one task each, whatever the worker count; merging per-task results in task
order keeps every output, node counts included, the same for any worker
count.  The automata and the row table are built once per call and shared
by all of that call's tasks, so the split costs no extra containment
checks, and at one worker no column state's row search runs twice.  A pool
process gets the call's worker, and with it the table, once when it
starts; the table then grows across every task that process runs.
"""
from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
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
ENGINE_VERSION = 3

#: hard default ceiling for enumeration whose spec prunes nothing
DEFAULT_UNRESTRICTED_BOUND = 6

#: ceiling for the independent reduced-square cross-check search
REDUCED_SEARCH_BOUND = 6

#: most column states one call's row table stores (a few hundred bytes
#: each); states past it are searched again on every visit
ROW_TABLE_BUDGET = 1 << 16

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
    # A symbol-only count equals the rows-only count of its patterns (symbol
    # lines are the rows of a conjugate square), and this gate cannot size
    # that tree, so symbol-only specs keep the unrestricted bound.
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


def _free_automaton(n: int) -> PrefixAutomaton:
    # One live state that takes every symbol: the lines of a side with no
    # patterns, whose repeats the occupancy masks already exclude.
    return PrefixAutomaton(((DEAD,) * (n + 1), (DEAD,) + (1,) * n), (0, (1 << n) - 1), 1)


class Automata:
    """
    One call's compiled search, shared by all of its tasks: the row, column
    and symbol prefix automata of the spec, and the row table.

    A row or column side with no pattern of length at most n gets
    _free_automaton(n); a symbol side with none gets None.  A column state
    is every column's free-symbol mask and automaton state, packed into one
    int, width bits per column.  The row table maps the column state at the
    start of a row to one flat tuple (nodes, row, next, row, next, ...): the
    nodes the single-row search counted from that state, then each row that
    fills it, in increasing order, with the column state it leads to.
    _run_search fills it on first visit, up to ROW_TABLE_BUDGET states;
    rows and keys hold the one object kept for each distinct row tuple and
    next state.  At order 5 with no patterns it holds 4,321 states in about
    1.2 MB.
    """

    def __init__(self, n: int, spec: AvoidanceSpec):
        compiled = []
        for patterns in (spec.row_patterns, spec.col_patterns, spec.symbol_patterns):
            short = [p for p in patterns if len(p) <= n]
            compiled.append(prefix_automaton(n, short) if short else None)
        row, col, self.sym = compiled
        self.row = row or _free_automaton(n)
        self.col = col or _free_automaton(n)
        self.width = n + (len(self.col.live) - 1).bit_length()
        column = (self.col.root << n) | ((1 << n) - 1)
        self.root = sum(column << (j * self.width) for j in range(n))
        self.table: dict[int, tuple] = {}
        self.rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.keys: dict[int, int] = {}


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
    automata, an Automata(n, spec), lets several searches share one
    compilation and one row table.

    The grid is walked a whole row at a time.  fill_row, a cell-by-cell
    search over a single row, finds the rows that can follow a column
    state, the column state each leads to, and the nodes it counted.  The
    first visit to a column state stores that in the row table; later
    visits add the stored nodes and loop over the stored rows, so
    nodes_explored is the same as a cell-by-cell search's.  Rows holding
    cells of prefix, and a row cut by stop_depth, run fill_row with those
    cells given or that stop, and are not stored.  Placing a whole row
    steps the symbol states, and skips the row if one goes DEAD.  A plain
    count (no on_leaf, no symbol patterns) adds the number of last rows
    instead of visiting each square.
    """
    total_cells = n * n
    stop_at = total_cells if stop_depth is None else stop_depth
    if not 0 <= stop_at <= total_cells:
        raise ValueError(f"stop depth {stop_depth} outside 0..{total_cells}")
    forced = len(prefix)
    if forced > stop_at:
        raise ValueError("prefix longer than the search depth")

    auto = automata or Automata(n, spec)
    table, row_objs, key_objs = auto.table, auto.rows, auto.keys
    sym_next = auto.sym and auto.sym.next
    # sym_at[i]: each symbol's state before row i, rewritten in place
    sym_at = [[auto.sym.root] * n for _ in range(n + 1)] if sym_next else None
    row_next, row_live, row_root = auto.row.next, auto.row.live, auto.row.root
    col_next, col_live = auto.col.next, auto.col.live
    width = auto.width
    full = (1 << n) - 1
    state_mask = (1 << (width - n)) - 1

    stop_row, stop_col = divmod(stop_at, n)
    table_from = -(-forced // n)  # the first row with no cell of prefix
    # a plain count needs only how many rows end each square, not the squares
    tally_row = n - 1 if stop_depth is None and on_leaf is None and not sym_next else -1
    grid: list[tuple[int, ...]] = [()] * n
    nodes = 0
    hits = 0

    def fill_row(key: int, cells: Sequence[int], stop: int, i: int) -> list:
        # [nodes, row, next, row, next, ...]: the first `stop` cells of row i
        # after column state key, cells given first, extended one column at
        # a time, so the rows stay in order
        count = 0
        frontier = [((), full, row_root, key >> (stop * width) << (stop * width))]
        for j in range(stop):
            shift = j * width
            free = (key >> shift) & full
            cs = (key >> (shift + n)) & state_mask
            c_live = col_live[cs]
            c_next = col_next[cs]
            longer = []
            for row, row_free, rs, acc in frontier:
                avail = row_free & free
                if j < len(cells):
                    s = cells[j]
                    bit = 1 << (s - 1)
                    if not avail & bit:
                        raise ValueError(
                            f"prefix is not Latin: symbol {s} repeats in row {i + 1} or column {j + 1}"
                        )
                    avail = bit
                count += avail.bit_count()
                avail &= row_live[rs] & c_live
                r_next = row_next[rs]
                while avail:
                    bit = avail & -avail
                    avail ^= bit
                    s = bit.bit_length()
                    column = (c_next[s] << n) | (free ^ bit)
                    longer.append((row + (s,), row_free ^ bit, r_next[s], acc | (column << shift)))
            frontier = longer
        entry = [count]
        for row, _, _, acc in frontier:
            entry += (row, acc)
        return entry

    def accept(i: int, tail: tuple[int, ...] = ()) -> None:
        # rows 0..i-1 are placed, then the cells of tail
        nonlocal hits
        hits += 1
        if stop_depth is not None:
            if on_prefix is not None:
                on_prefix(tuple(s for row in grid[:i] for s in row) + tail)
        elif on_leaf is not None:
            on_leaf(tuple(grid))

    def walk(i: int, key: int) -> None:
        nonlocal hits, nodes
        if i == stop_row and not stop_col:
            accept(i)
            return
        if table_from <= i < stop_row:
            entry = table.get(key)
            if entry is None:
                entry = fill_row(key, (), n, i)
                if len(table) < ROW_TABLE_BUDGET:
                    for k in range(1, len(entry), 2):
                        entry[k] = row_objs.setdefault(entry[k], entry[k])
                        entry[k + 1] = key_objs.setdefault(entry[k + 1], entry[k + 1])
                    entry = table[key] = tuple(entry)
        else:
            start = i * n
            if i == stop_row:
                entry = fill_row(key, prefix[start:start + n], stop_col, i)
                nodes += entry[0]
                for k in range(1, len(entry), 2):
                    accept(i, entry[k])
                return
            entry = fill_row(key, prefix[start:start + n], n, i)
        nodes += entry[0]
        if i == tally_row:
            hits += len(entry) >> 1
            return
        for k in range(1, len(entry), 2):
            if sym_next:
                # symbol s's line gains the column that holds s in this row;
                # a row is a permutation, so every entry of new is written
                old, new = sym_at[i], sym_at[i + 1]
                for j, s in enumerate(entry[k], 1):
                    new[s - 1] = sym_next[old[s - 1]][j]
                if DEAD in new:
                    continue
            grid[i] = entry[k]
            walk(i + 1, entry[k + 1])

    try:
        walk(0, auto.root)
    finally:
        # walk's closure refers to itself, and through it to the row table:
        # break the cycle so the table goes with the call, not at the next
        # full garbage collection
        del walk
    return hits, nodes


def _count_worker(task: EnumerationTask, automata: Automata) -> tuple[int, int]:
    return _run_search(task.order, task.spec, task.prefix, automata=automata)


def _render_worker(task: EnumerationTask, automata: Automata, render: Callable[[Grid], str]) -> str:
    texts: list[str] = []
    _run_search(
        task.order, task.spec, task.prefix, on_leaf=lambda g: texts.append(render(g)), automata=automata
    )
    return "".join(texts)


def _worker_count(jobs: int, num_tasks: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, num_tasks, os.cpu_count() or 1))


#: the worker of this pool process, set once by _install_worker when the
#: process starts; unset in any process that is not a pool worker
_pool_worker: Callable | None = None


def _install_worker(worker: Callable[[T], R]) -> None:
    global _pool_worker
    _pool_worker = worker


def _run_chunk(chunk: list[T]) -> list[R]:
    return [_pool_worker(task) for task in chunk]


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
    results never pile up ahead of a slow consumer.  Each pool process
    receives worker once, when it starts, and chunks carry only their
    tasks, so state the worker holds (such as a call's row table) lives on
    in its process across chunks.  Closing the iterator early cancels the
    queued chunks.  progress(done, total) follows each task.
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
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_install_worker, initargs=(worker,))
    try:
        in_flight = deque(pool.submit(_run_chunk, c) for c in islice(chunks, 2 * workers))
        done = 0
        while in_flight:
            results = in_flight.popleft().result()
            chunk = next(chunks, None)
            if chunk is not None:
                in_flight.append(pool.submit(_run_chunk, chunk))
            for result in results:
                done += 1
                if progress is not None:
                    progress(done, total)
                yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def partition_tasks(n: int, spec: AvoidanceSpec, split_depth: int) -> list[EnumerationTask]:
    """
    Split the search space into tasks with pairwise-disjoint subtree domains
    covering the whole space; per-task counts sum to the full count.
    """
    prefixes: list[tuple[int, ...]] = []
    _run_search(n, spec, stop_depth=split_depth, on_prefix=prefixes.append)
    return [EnumerationTask(n, spec, p) for p in prefixes]


def default_split_depth(n: int) -> int:
    """Partition boundary of every scan: the whole first row."""
    return n


def _pooled_scan(
    n: int,
    spec: AvoidanceSpec,
    worker: Callable[..., R],
    jobs: int,
    *,
    split_depth: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[int, Iterator[R]]:
    """
    Set up a scan that runs as prefix tasks: build the call's Automata, split
    at split_depth cells (default: the first row) and return the split's
    nodes with map_tasks of worker, given automata=, over the tasks.
    """
    if split_depth is None:
        split_depth = default_split_depth(n)
    automata = Automata(n, spec)
    prefixes: list[tuple[int, ...]] = []
    _, nodes = _run_search(
        n, spec, stop_depth=split_depth, on_prefix=prefixes.append, automata=automata
    )
    tasks = [EnumerationTask(n, spec, p) for p in prefixes]
    return nodes, map_tasks(partial(worker, automata=automata), tasks, jobs, progress)


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
    nodes, results = _pooled_scan(
        n, spec, _count_worker, jobs, split_depth=split_depth, progress=progress
    )
    count = 0
    for c, nd in results:
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
    max_order: int | None = None,
) -> None:
    """
    Invoke visitor exactly once per satisfying square, in lexicographic order
    of the row-major grid, streamed straight from the search in this
    process.  A visitor that raises stops the search.
    """
    check_enumeration_bound(n, spec, max_order)
    _run_search(n, spec, on_leaf=lambda g: visitor(_trusted_square(g)))


def render_squares(
    n: int,
    spec: AvoidanceSpec,
    render: Callable[[Grid], str],
    *,
    jobs: int = 1,
    max_order: int | None = None,
) -> Iterator[str]:
    """
    Yield the satisfying squares as text: for each first-row task, in task
    order, the concatenation of render(grid) over the task's squares in
    lexicographic order.  render runs where the task runs, in a pool process
    when jobs > 1, so the caller receives one string per task instead of
    every grid.  It must be picklable, and a pool process keeps its copy,
    with anything it caches, across all of its tasks.  Closing the iterator
    early cancels the queued tasks.
    """
    check_enumeration_bound(n, spec, max_order)
    return _pooled_scan(n, spec, partial(_render_worker, render=render), jobs)[1]


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
