"""
Exhaustive search of Latin squares with online pattern-avoidance pruning.

Each distinct set of line patterns is compiled once per call into a prefix
automaton (perm.prefix_automaton), which tests a prefix only for the
occurrences that end at its new entry; sides with the same set share it.
Each row and each column keeps one automaton state, and a placement costs
one table lookup per line.  A line's state goes DEAD as soon as its prefix
contains a pattern or can no longer be completed to an avoiding
permutation of 1..n, and nothing below a dead prefix is searched.  A side
with no patterns gets a one-state automaton that takes every symbol.
Symbol lines (row index -> column of the symbol) keep one state per symbol
too: placing a row appends one column to every symbol's line.

The grid is filled a whole row at a time.  The search state after a row
is one int, the key: every column's free symbols and automaton state,
with each symbol line's state packed above them.  fill_row, the one
single-row search and the one transition, finds the rows that can follow
a key cell by cell, steps the symbol lines for each, and returns the key
after each row that kills no line; a row is not kept, because cell j
holds the one symbol column j's free mask lost, so Automata.row_cells
decodes it from the keys before and after it where a tuple is needed.
Two engines expand the same keys:

- count_squares sweeps forward by the transfer-matrix method (Stanley,
  EC1 4.7), in this process: layer i maps each key after i rows to the
  number of partial squares reaching it, each key is expanded once, and
  the count is the sum of the last layer.  Its nodes_explored is its own
  work, fill_row's nodes summed once per expanded key, the one counter
  that WORK_BUDGET bounds.  When only the columns carry patterns,
  permuting the columns maps avoiders to avoiders, so a partial square's
  completions depend only on the multiset of its column fields: the sweep
  sorts each next key's fields (Automata.canon) and keeps one key per
  column-order class.  A spec with patterns on the rows only, or on the
  symbol lines only, is counted as its transpose or its conjugate, which
  have them on the columns.  With no pattern this takes order 6 from
  56,033,196 cell placements to 103,588 (0.09 s) and answers L7 in
  16,610,304 (9 to 13 s on a 2-vCPU host).  Walks, and their sizing
  sweeps, keep ordered keys.
- The row walk (_walk) visits every square, for enumerate_squares (which
  analysis walks) and render_squares.  A square's last row is forced by
  the rows above it, so the walk steps through rows 0 to n - 4 only and
  yields once per key it reaches at row n - 3, its leaf row (row 0 at
  orders 1 to 3); its consumer loops over that key's rows, each with the
  endings of the key it leads to, the (row n - 2, row n - 1) pairs that
  complete it.  Its per-call row table keeps one entry per key, so each
  key's row search runs once, as in the sweep: above the leaf the key's
  rows, decoded, and next keys; at the leaf its rows and their endings;
  at row n - 2 what its consumer keeps of its endings; at row n - 1 its
  forced last row.  render_squares keeps each ending's finished text, so
  an output line is one concatenation, and at order 5 with no patterns
  enumerate takes about 0.09 s at one job.  reduced_squares, which feeds
  the Wilf filter, shares neither.

Candidate symbols are tried in increasing order, so squares are produced in
lexicographic order of their row-major grids; counts are exact Python ints.
The walk is a generator of grids, so a consumer may stop at any square.
enumerate_squares is an iterator over one walk, or over one first-row task
of it.  render_squares splits its walk into first-row tasks: a task is a
first row, as a tuple, that the root's fill_row lets through, whatever the
worker count; it walks the squares with that first row.  map_tasks runs
the tasks, in worker processes when jobs > 1, each of which streams
its tasks' pieces down its own pipe, and yields the pieces in task order,
so every output is the same for any worker count.  The automata and the row
table are built once per call; a worker process gets them once and grows
the table across its tasks.

Every order bound is here, in one feasibility rule (must_size): above
UNSIZED_ORDER, unless forced, a search runs only while its compile and its
sweep stay inside WORK_BUDGET and STATE_BUDGET, and a walk sweeps first;
a walk whose sweep counts no square yields nothing without walking.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import islice
from math import inf
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .perm import DEAD, FeasibilityError, PrefixAutomaton, as_perm, prefix_automaton
from .square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    Grid,
    LatinSquare,
    _trusted_square,
)

#: version of the engine's answers, nodes_explored included: cached counts
#: are keyed by it, so a change to any answer must raise it
ENGINE_VERSION = 6

#: highest order at which every search runs unsized
UNSIZED_ORDER = 6

#: most cell placements a sized compile, or a sized sweep, may try: about
#: 30 s of row search on a 2-vCPU host
WORK_BUDGET = 1 << 26

#: most keys one row layer of a sized sweep may hold
STATE_BUDGET = 1 << 20

#: most keys one row walk's table stores (a few hundred bytes each), of
#: every row, last rows included; keys past it are searched, and their
#: endings finished, again on every visit
ROW_TABLE_BUDGET = 1 << 16

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class CountResult:
    order: int
    spec: AvoidanceSpec
    count: int
    nodes_explored: int

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "spec": self.spec.to_dict(),
            "count": self.count,
            "nodes_explored": self.nodes_explored,
        }


def must_size(n: int, force: bool = False) -> bool:
    """
    The feasibility rule: whether a search at order n is sized, as it is
    above UNSIZED_ORDER unless forced.  A search that cannot be sized, the
    reduced-square search, is refused where this rule would size it.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return n > UNSIZED_ORDER and not force


def _free_automaton(n: int) -> PrefixAutomaton:
    # One live state that takes every symbol: the lines of a side with no
    # patterns, whose repeats the occupancy masks already exclude.
    return PrefixAutomaton(((DEAD,) * (n + 1), (DEAD,) + (1,) * n), (0, (1 << n) - 1), 1)


class _Columns(dict):
    """
    One column's packed field (free mask, automaton state) -> (free mask,
    live mask, placed), where placed[s] is the field after symbol s; made
    on first lookup.
    """

    def __init__(self, n: int, col: PrefixAutomaton):
        super().__init__()
        self.n, self.col = n, col

    def __missing__(self, field: int) -> tuple:
        n = self.n
        free, cs = field & ((1 << n) - 1), field >> n
        c_next = self.col.next[cs]
        placed = (0,) + tuple((c_next[s] << n) | (free & ~(1 << (s - 1))) for s in range(1, n + 1))
        value = self[field] = (free, self.col.live[cs], placed)
        return value


class _Candidates(dict):
    """A symbol mask -> ((s, bit), ...) for each set bit, lowest first; made on first lookup."""

    def __missing__(self, mask: int) -> tuple:
        bits = range(1, mask.bit_length() + 1)
        value = self[mask] = tuple((s, 1 << (s - 1)) for s in bits if mask >> (s - 1) & 1)
        return value


class _RowCells(dict):
    """
    The free-mask bits a row cleared in the column state -> its cells, one
    shared tuple per row; made on first lookup.  Cell j holds the one
    symbol that column j's free mask lost.
    """

    def __init__(self, n: int, width: int):
        super().__init__()
        self.n, self.width = n, width

    def __missing__(self, cleared: int) -> tuple:
        full, cells, rest = (1 << self.n) - 1, [], cleared
        while rest:
            cells.append((rest & full).bit_length())
            rest >>= self.width
        value = self[cleared] = tuple(cells)
        return value


def _sort_columns(size: int, step: int, key: int) -> int:
    # key's n column fields, step bytes each (size bytes in all), sorted so
    # that the smallest is column 0: one key per column-order class
    if step == 1:
        return int.from_bytes(bytes(sorted(key.to_bytes(size, "little"))), "little")
    data = key.to_bytes(size, "big")
    return int.from_bytes(b"".join(sorted([data[i:i + step] for i in range(0, size, step)], reverse=True)), "big")


class Automata:
    """
    One call's compiled search, shared by all of its first-row tasks: the
    row, column and symbol prefix automata of the spec, and the row table.

    Each side's automaton accepts the prefixes that avoid its patterns of
    length at most n.  Each distinct set of those is compiled once, so
    sides with the same set share one automaton (row is col for a both()
    spec).  A row or column side with no such pattern gets
    _free_automaton(n); a symbol side with none gets None.  A key, the
    search state between rows, packs every column's free-symbol mask and
    automaton state, width bits per column, into its low col_bits bits,
    and each symbol line's automaton state above them (sym_mask bits at the
    shift sym_steps gives); root is the key before row 0.  canon is the
    sweep's canonicaliser: None, the identity, unless canonical, which a
    spec with no row or symbol pattern of length at most n allows; then it
    sorts a key's column fields, padded to whole bytes (width a multiple
    of 8), so the smallest is column 0.  The row table maps each key the
    walk (see _walk) reaches to one entry, by the key's row: above row
    n - 3, the walk's leaf, one flat tuple (row, next, row, next, ...),
    each row fill_row let through from that key, in increasing order, with
    the key it leads to; at the leaf, (row, endings, row, endings, ...),
    each such row that some ending completes with the endings of the key
    it leads to, as the walk's consumer keeps them; at row n - 2 (row 1
    at orders 1 and 2) those endings, one tuple shared by every leaf entry
    that leads there: of (row n - 2, row n - 1) tuples for
    enumerate_squares, of their finished texts for render_squares; at row
    n - 1, from order 3 up, the forced last row, or () when the automata
    reject it.  Keys at different rows never collide, as each
    column's free mask loses one bit per row.  _walk fills the table on
    first visit, up to ROW_TABLE_BUDGET keys, and a first-row task picks
    its row out of the root's entry.  keys holds the one object kept for
    each distinct next key, and row_cells[(key ^ next) & free_bits] the one
    tuple for each row.  At order 5 with no patterns the table holds 4,321
    keys, the keys the ordered sweep expands, in about 1.4 MB (1.8 MB with
    render_squares's texts); at order 6 a full table of 65,536 keys, with
    render_squares's texts, grew the resident memory by about 37 MB.
    """

    def __init__(self, n: int, spec: AvoidanceSpec, max_work: float = inf, canonical: bool = False):
        compiled: dict[tuple, PrefixAutomaton] = {}
        sides = []
        for patterns in (spec.row_patterns, spec.col_patterns, spec.symbol_patterns):
            short = tuple(p for p in patterns if len(p) <= n)
            if short and short not in compiled:
                compiled[short] = prefix_automaton(n, short, max_work=max_work)
            sides.append(compiled.get(short))
        row, col, self.sym = sides
        if canonical and (row or self.sym):
            raise ValueError("column order is a symmetry only of a spec with no row or symbol pattern")
        self.n = n
        self.row = row or _free_automaton(n)
        self.col = col or _free_automaton(n)
        self.width = n + (len(self.col.live) - 1).bit_length()
        self.canon = None
        if canonical:
            # whole-byte fields, so the sort reads them as bytes
            step = -(-self.width // 8)
            self.width = 8 * step
            self.canon = partial(_sort_columns, n * step, step)
        self.full = (1 << n) - 1
        self.col_bits = n * self.width
        column = (self.col.root << n) | self.full
        self.root = sum(column << (j * self.width) for j in range(n))
        if self.sym:
            sym_width = (len(self.sym.next) - 1).bit_length()
            shifts = range(self.col_bits, self.col_bits + n * sym_width, sym_width)
            self.root |= sum(self.sym.root << shift for shift in shifts)
            self.sym_mask = (1 << sym_width) - 1
            # symbol s's (shift, steps): steps[state][j] is the line's next
            # state after column j, shifted into place (0 if DEAD)
            self.sym_steps = [
                (shift, [tuple(t << shift for t in row) for row in self.sym.next]) for shift in shifts
            ]
        self.table: dict[int, tuple] = {}
        self.keys: dict[int, int] = {}
        self.columns = _Columns(n, self.col)
        self.candidates = _Candidates()
        self.free_bits = sum(self.full << (j * self.width) for j in range(n))
        self.row_cells = _RowCells(n, self.width)


def fill_row(auto: Automata, key: int) -> list[int]:
    """
    The single-row search, the search's one transition: every way to fill
    a row after key, extended one column at a time so the rows come out in
    increasing order.  Returns [nodes, next, next, ...]: the placements
    that passed the occupancy masks, counted before the automaton check,
    then the key after each row.  Each complete row steps the symbol
    lines, and a row that leaves one DEAD is dropped, its nodes already
    counted.  No row is kept: auto.row_cells[(key ^ next) &
    auto.free_bits] decodes one.
    """
    n, width = auto.n, auto.width
    row_next, row_live = auto.row.next, auto.row.live
    columns, candidates = auto.columns, auto.candidates
    field_mask = (1 << width) - 1
    nodes = 0
    # (symbols still free in the row, row automaton state, next key so far)
    frontier = [(auto.full, auto.row.root, 0)]
    for j in range(n - 1):
        shift = j * width
        free, c_live, placed = columns[(key >> shift) & field_mask]
        longer = []
        for row_free, rs, acc in frontier:
            avail = row_free & free
            nodes += avail.bit_count()
            r_next = row_next[rs]
            for s, bit in candidates[avail & row_live[rs] & c_live]:
                longer.append((row_free ^ bit, r_next[s], acc | placed[s] << shift))
        frontier = longer
    # one free symbol is left in each row: no branching
    shift = (n - 1) * width
    free, c_live, placed = columns[(key >> shift) & field_mask]
    found = [0]
    for row_free, rs, acc in frontier:
        avail = row_free & free
        if avail:
            nodes += 1
            if avail & row_live[rs] & c_live:
                found.append(acc | placed[avail.bit_length()] << shift)
    found[0] = nodes
    if auto.sym is None:
        return found
    # symbol s's line gains the column that holds s in this row:
    # steps[s - 1][j] is its state after column j, in place in the key
    sym_mask = auto.sym_mask
    steps = [table[(key >> shift) & sym_mask] for shift, table in auto.sym_steps]
    cells_of, free_bits = auto.row_cells, auto.free_bits
    kept = [nodes]
    for nxt in islice(found, 1, None):
        for j, s in enumerate(cells_of[(key ^ nxt) & free_bits], 1):
            step = steps[s - 1][j]
            if not step:
                break
            nxt |= step
        else:
            kept.append(nxt)
    return kept


def _sweep(auto: Automata, progress: Callable[[int, int, int], None] | None, sized: bool) -> tuple[int, int]:
    """
    Count by the transfer-matrix method: (squares, nodes).  Layer i maps
    each key after i rows to the number of partial squares that reach it.
    Each key is expanded once by fill_row, and nodes sums those searches'
    nodes: the sweep's own work.  With auto.canon, each next key is
    canonicalised before it joins its layer, so a layer holds one key per
    column-order class and its value counts every partial square of the
    class; a sweep without it adds each next key as it is.  A sized sweep
    raises FeasibilityError once nodes pass WORK_BUDGET or a layer
    STATE_BUDGET keys.
    """
    n, canon = auto.n, auto.canon
    layer = {auto.root: 1}
    nodes = 0
    for i in range(n):
        after: dict[int, int] = {}
        get = after.get
        for key, paths in layer.items():
            found = fill_row(auto, key)
            nodes += found[0]
            for nxt in islice(found, 1, None) if canon is None else map(canon, islice(found, 1, None)):
                after[nxt] = get(nxt, 0) + paths
            if sized and (nodes > WORK_BUDGET or len(after) > STATE_BUDGET):
                raise FeasibilityError(
                    f"order-{n} sweep passed its bound in row {i + 1}, at {nodes:,} cell placements "
                    f"(bound {WORK_BUDGET:,}) and {len(after):,} states (bound {STATE_BUDGET:,}); force lifts it")
        layer = after
        if progress is not None:
            progress(i + 1, n, len(layer))
    return sum(layer.values()), nodes


def _walk(auto: Automata, first_row: tuple[int, ...] | None, prefix: T, step: Callable[[T, tuple], T],
          finish: Callable[[list], tuple]) -> Iterator[tuple[T, tuple]]:
    """
    The row walk over auto's order and spec, the one search core of
    enumerate_squares and render_squares.  It steps through rows 0 to
    leaf - 1, where leaf is row n - 3 (row 0 at orders 1 to 3), and yields
    (prefix, entry) once for each key it reaches at row leaf, in
    lexicographic order: prefix is step(...step(prefix, row 0)..., row
    leaf - 1), made once per row step, and entry is (row, endings, row,
    endings, ...), never empty: each row leaf that fill_row lets through
    from the key and that some ending completes, in increasing order, with
    finish(those endings).  An ending is the tuple of the rows after row
    leaf, in increasing order: (row n - 2, row n - 1), or (row 1,) at order
    2 and () at order 1.  With first_row given (a tuple), the walk is one
    first-row task and visits only the squares with that first row.  Walks
    that share auto share its row table, so they must share finish too.

    The walk keeps an explicit stack of one iterator of row positions per
    row above the leaf.  The first visit to a key stores its entry in the
    row table, while the table has room: above row leaf the rows fill_row
    finds and the keys they lead to, at row leaf the entry it yields, at
    row leaf + 1 finish(endings), shared by every leaf entry that leads
    there, and at row n - 1, below it, the forced last row, or () when the
    automata reject it.  Later visits replay the stored entry, so while
    the table has room fill_row runs once per key, once per key the
    ordered sweep expands.
    """
    n = auto.n
    leaf = max(n - 3, 0)
    table, key_objs = auto.table, auto.keys
    cells_of, free_bits = auto.row_cells, auto.free_bits

    def last_row(key: int) -> tuple[int, ...]:
        # the forced row after a key at row n - 1, or () if none passes
        row = table.get(key)
        if row is None:
            found = fill_row(auto, key)
            row = cells_of[(key ^ found[1]) & free_bits] if len(found) > 1 else ()
            if len(table) < ROW_TABLE_BUDGET:
                table[key] = row
        return row

    def endings(key: int) -> tuple:
        # finish(every ending of a key at row leaf + 1)
        entry = table.get(key)
        if entry is None:
            if not key & free_bits:
                # order 1: row 0 completed the square
                found = [()]
            else:
                found = []
                for nxt in islice(fill_row(auto, key), 1, None):
                    row = cells_of[(key ^ nxt) & free_bits]
                    if not nxt & free_bits:
                        found.append((row,))
                    elif last := last_row(nxt):
                        found.append((row, last))
            entry = finish(found)
            if len(table) < ROW_TABLE_BUDGET:
                table[key] = entry
        return entry

    prefixes = [prefix] * (leaf + 1)
    # entries[i], picks[i]: row i's table entry and an iterator of the
    # positions in it of the rows still to try
    entries: list = [None] * leaf
    picks: list = [None] * leaf
    i, key = 0, auto.root
    while i >= 0:
        if key is not None:
            # the walk has just reached row i at key
            entry = table.get(key)
            if i == leaf:
                if entry is None:
                    entry = []
                    for nxt in islice(fill_row(auto, key), 1, None):
                        if ends := endings(nxt):
                            entry += (cells_of[(key ^ nxt) & free_bits], ends)
                    entry = tuple(entry)
                    if len(table) < ROW_TABLE_BUDGET:
                        table[key] = entry
                if not i and first_row is not None:
                    # a first-row task at orders 1 to 3: that row's pair only
                    k = entry.index(first_row) if first_row in entry else len(entry)
                    entry = entry[k:k + 2]
                if entry:
                    yield prefixes[i], entry
                i, key = i - 1, None
                continue
            if entry is None:
                # [row, next, row, next, ...]
                entry = []
                for nxt in islice(fill_row(auto, key), 1, None):
                    entry += (cells_of[(key ^ nxt) & free_bits], nxt)
                if len(table) < ROW_TABLE_BUDGET:
                    for k in range(1, len(entry), 2):
                        entry[k] = key_objs.setdefault(entry[k], entry[k])
                    entry = table[key] = tuple(entry)
            if i or first_row is None:
                picks[i] = iter(range(0, len(entry), 2))
            else:
                # a first-row task: that row only, or none if fill_row dropped it
                picks[i] = iter((entry.index(first_row),) if first_row in entry else ())
            entries[i], key = entry, None
        entry = entries[i]
        for k in picks[i]:
            prefixes[i + 1] = step(prefixes[i], entry[k])
            i, key = i + 1, entry[k + 1]
            break
        else:
            i -= 1


def _add_row(grid: Grid, row: tuple[int, ...]) -> Grid:
    return grid + (row,)


def _run_search(auto: Automata, first_row: tuple[int, ...] | None = None) -> Iterator[Grid]:
    """
    The squares of the row walk (_walk) as grids, in lexicographic order;
    with first_row, those of that one first-row task.
    """
    for grid, entry in _walk(auto, first_row, (), _add_row, tuple):
        pairs = iter(entry)
        for row, endings in zip(pairs, pairs):
            upper = grid + (row,)
            for ending in endings:
                yield upper + ending


#: most squares _render_worker renders into one piece of text: enough to
#: make one piece of every order-5 first-row task, few enough that a
#: first-row task at order 6 (over a million squares) is never held whole
RENDER_PIECE_SQUARES = 10_000


def _render_worker(first_row: tuple[int, ...], automata: Automata, render) -> Iterator[str]:
    # A line is its rows' texts joined by render.sep between render.head
    # and render.tail.  The walk grows the text of the rows above its leaf
    # row once per row step, and the table stores the text of each ending,
    # each of its rows after render.sep and then the tail, so a line is one
    # concatenation.  Pieces are cut at exactly RENDER_PIECE_SQUARES lines.
    sep, tail = render.sep, render.tail

    def texts(endings: list) -> tuple[str, ...]:
        return tuple("".join([sep + render[row] for row in ending]) + tail for ending in endings)

    piece, room = [], RENDER_PIECE_SQUARES
    for prefix, entry in _walk(automata, first_row, render.head, lambda text, row: text + render[row] + sep, texts):
        pairs = iter(entry)
        for row, lines in zip(pairs, pairs):
            upper = prefix + render[row]
            while len(lines) >= room:
                piece += (upper, upper.join(lines[:room]))
                yield "".join(piece)
                piece, lines, room = [], lines[room:], RENDER_PIECE_SQUARES
            if lines:
                piece += (upper, upper.join(lines))
                room -= len(lines)
    if piece:
        yield "".join(piece)


def _worker_count(jobs: int, num_tasks: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, num_tasks, os.cpu_count() or 1))


def _stream_tasks(worker: Callable[[T], Iterable[R]], tasks: Sequence[T], next_task, conn) -> None:
    # one worker process of map_tasks: while a task is left, take the next
    # index off the shared counter and send it, each piece, then None; once
    # none is left, send None.  An exception is sent as itself.
    try:
        while True:
            with next_task.get_lock():
                t = next_task.value
                next_task.value = t + 1
            if t >= len(tasks):
                return conn.send(None)
            conn.send(t)
            for piece in worker(tasks[t]):
                conn.send(piece)
            conn.send(None)
    except Exception as exc:
        conn.send(exc)


def _receive(proc, conn):
    # the next message from a worker process; its exception or death is raised
    try:
        message = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"worker process exited with code {proc.exitcode}") from None
    if isinstance(message, Exception):
        raise message
    return message


def map_tasks(worker: Callable[[T], Iterable[R]], tasks: Sequence[T], jobs: int) -> Iterator[R]:
    """
    Yield the pieces worker(task) yields for every task, in task order, at
    any worker count; no piece may be None or an exception.  One worker runs
    here.  More are processes that each keep one copy of worker (and its
    state, such as a call's row table), take the next task whenever they
    finish one, and stream each piece down their own pipe, whose send
    blocks while it is full.  A worker's exception is raised here, a dead
    worker's exit code is named in a RuntimeError, and every worker is
    ended and reaped on any exit.
    """
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        for task in tasks:
            yield from worker(task)
        return
    # imported here, where workers start, so a run that starts none skips them
    import socket
    from multiprocessing import Pipe, Process, Value
    from multiprocessing.connection import wait

    running = []  # (process, this end of its pipe) for each worker
    next_task = Value("i", 0)
    try:
        for _ in range(workers):
            # Pipe() is a socket pair on POSIX.  Asking for a 4 MB send buffer
            # in place of about 200 KB (Linux caps the request at
            # net.core.wmem_max, then doubles it) lets a worker run dozens of
            # order-5 tasks or a few order-6 pieces ahead of the reader, so a
            # brief stall of one worker does not stop the others
            conn, child_end = Pipe()
            with socket.fromfd(child_end.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
            proc = Process(target=_stream_tasks, args=(worker, tasks, next_task, child_end), daemon=True)
            proc.start()
            running.append((proc, conn))
            # no other process holds the child's end, so its death reads as EOF
            child_end.close()
        idle = {conn: proc for proc, conn in running}  # next message: a task's index
        owner = {}  # task -> (process, pipe end), once its index is read
        for t in range(len(tasks)):
            # every task below t is read, so a worker has taken t or is about to
            while t not in owner:
                for conn in wait(list(idle)):
                    proc = idle.pop(conn)
                    # a worker with no task left sends None, which no t looks up
                    owner[_receive(proc, conn)] = proc, conn
            proc, conn = owner.pop(t)
            while (piece := _receive(proc, conn)) is not None:
                yield piece
            idle[conn] = proc
    finally:
        for proc, _ in running:
            proc.terminate()
            proc.join()


def _first_row_tasks(auto: Automata) -> list[tuple[int, ...]]:
    """
    The scan tasks of auto's search: each first row the root's fill_row lets
    through (the row, column and symbol automata alike), in increasing order.
    """
    root = auto.root
    return [auto.row_cells[(root ^ nxt) & auto.free_bits] for nxt in islice(fill_row(auto, root), 1, None)]


def partition_tasks(n: int, spec: AvoidanceSpec, split_depth: int) -> list[tuple[int, ...]]:
    """
    Split the search space into first-row tasks, each the row tuple,
    pairwise disjoint and covering the whole space; per-task counts sum to
    the full count.  split_depth must be default_split_depth(n), the only
    split scans make.
    """
    if split_depth != default_split_depth(n):
        raise ValueError(f"scans split at the whole first row, depth {default_split_depth(n)}; got {split_depth}")
    return _first_row_tasks(Automata(n, spec))


def default_split_depth(n: int) -> int:
    """Partition boundary of every scan: the whole first row."""
    return n


def _column_spec(n: int, spec: AvoidanceSpec) -> AvoidanceSpec | None:
    """
    A columns-only spec with spec's count at order n, when spec's patterns
    of length at most n lie on one line family or none; else None.  A
    rows-only spec counts as its transpose does, and a symbols-only spec
    as the conjugate (r, c, s) -> (s, r, c) does, whose rows are spec's
    symbol lines; either transform is a bijection on the order-n squares.
    """
    families = [short for side in (spec.row_patterns, spec.col_patterns, spec.symbol_patterns)
                if (short := tuple(p for p in side if len(p) <= n))]
    if len(families) > 1:
        return None
    return AvoidanceSpec(col_patterns=families[0] if families else ())


def _sized_search(n: int, spec: AvoidanceSpec, force: bool, walk: bool, progress=None) -> tuple:
    """
    Every search's start: spec's automata at order n and, for a count or a
    sized walk (must_size), the sweep's (squares, nodes), else None.  A
    count whose spec reduces to columns only (_column_spec) sweeps that
    spec over canonical keys; a walk, and its sizing sweep, keep ordered
    keys, so squares come out in order and a walk is sized by its own tree.
    """
    sized = must_size(n, force)
    max_work = WORK_BUDGET if sized else inf
    columns = None if walk else _column_spec(n, spec)
    auto = Automata(n, spec, max_work) if columns is None else Automata(n, columns, max_work, canonical=True)
    return auto, _sweep(auto, progress, sized) if sized or not walk else None


def count_squares(
    n: int,
    spec: AvoidanceSpec = EMPTY_SPEC,
    *,
    force: bool = False,
    progress: Callable[[int, int, int], None] | None = None,
) -> CountResult:
    """
    Count order-n Latin squares satisfying the avoidance spec, by a forward
    sweep over row layers in this process (_sweep), sized unless force.  A
    spec whose patterns of length at most n lie on one family, or none, is
    swept as its columns-only form (_column_spec) over canonical keys, one
    per column-order class; any other spec over ordered keys.
    nodes_explored is the sweep's work, the one figure WORK_BUDGET bounds:
    the cell placements that passed the occupancy masks, counted before the
    automaton check, summed once over each key the sweep expands.
    progress(rows_done, rows_total, states) follows each row layer, states
    being the keys of that layer.
    """
    _, (count, nodes) = _sized_search(n, spec, force, walk=False, progress=progress)
    return CountResult(n, spec, count, nodes)


def enumerate_squares(
    n: int,
    spec: AvoidanceSpec = EMPTY_SPEC,
    *,
    first_row: Sequence[int] | None = None,
    force: bool = False,
) -> Iterator[LatinSquare]:
    """
    An iterator over the satisfying squares, in lexicographic order of the
    row-major grid, each as the walk in this process yields it; with
    first_row, only those whose first row equals it.  first_row and the
    spec are checked, the automata compiled and the walk sized unless
    force, at the call, not at the first next().  When the sizing sweep
    counts no square, the iterator is empty and nothing is walked.
    """
    if first_row is not None:
        first_row = as_perm(first_row)
        if len(first_row) != n:
            raise ValueError(f"first row has length {len(first_row)}, expected {n}")
    auto, swept = _sized_search(n, spec, force, walk=True)
    if swept and not swept[0]:
        return iter(())
    return map(_trusted_square, _run_search(auto, first_row))


def render_squares(
    n: int,
    spec: AvoidanceSpec,
    render,
    *,
    jobs: int = 1,
    force: bool = False,
) -> Iterator[str]:
    """
    Yield the satisfying squares as text, one line each, in lexicographic
    order: pieces of at most RENDER_PIECE_SQUARES lines of one first-row
    task, in task order, at any jobs.  A line is render.head, then
    render[row] for each row joined by render.sep, then render.tail.
    render runs where the task runs, in a worker process when jobs > 1
    that keeps its copy, with anything it caches, across its tasks; render
    must be picklable.  No process holds a whole order-6 task, and closing
    the iterator early terminates the workers.  The walk is sized before
    any worker starts, and when its sweep counts no square there is no
    task, so no worker starts.
    """
    automata, swept = _sized_search(n, spec, force, walk=True)
    tasks = [] if swept and not swept[0] else _first_row_tasks(automata)
    worker = partial(_render_worker, automata=automata, render=render)
    return map_tasks(worker, tasks, jobs)


# ---------------------------------------------------------------------------
# independent reduced-square cross-check
# ---------------------------------------------------------------------------

def reduced_squares(n: int, force: bool = False) -> Iterator[Grid]:
    """
    Every reduced square of order n (first row and first column 1..n), in
    row-major lexicographic order, by a backtracking search that shares no
    code with the main engine.  Bit s of cols[j] marks symbol s in column j.
    Rows are filled cell by cell until n-1 are placed; then each column
    misses one symbol, and those symbols are the last row.  The search
    cannot be sized, so above UNSIZED_ORDER it is refused unless force.
    """
    if must_size(n, force):
        raise FeasibilityError(f"order-{n} reduced-square search exceeds the bound {UNSIZED_ORDER}; force lifts it")
    if n == 1:
        return iter([((1,),)])
    symbols = [(1 << s, s) for s in range(1, n + 1)]
    full = (2 << n) - 2

    def rows(i: int, cols: list[int]) -> list[tuple[int, ...]]:
        found = []
        row = [i + 1] * n

        def fill(j: int, taken: int) -> None:
            if j == n:
                found.append(tuple(row))
                return
            free = ~(taken | cols[j])
            for bit, s in symbols:
                if free & bit:
                    row[j] = s
                    fill(j + 1, taken | bit)

        fill(1, 2 << i)
        return found

    def extend(grid: Grid, cols: list[int]) -> Iterator[Grid]:
        if len(grid) == n - 1:
            yield grid + (tuple((full ^ c).bit_length() - 1 for c in cols),)
            return
        for row in rows(len(grid), cols):
            yield from extend(grid + (row,), [c | 1 << s for c, s in zip(cols, row)])

    return extend((tuple(range(1, n + 1)),), [2 << j for j in range(n)])


def count_reduced_squares(n: int) -> int:
    """Number of reduced squares R_n, from reduced_squares; n! (n-1)! R_n is the full count."""
    return sum(1 for _ in reduced_squares(n))
