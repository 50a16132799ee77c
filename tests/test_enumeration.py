import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from functools import partial
from itertools import islice, repeat

import pytest

from latinpat import analysis, cli, construct, enumeration
from latinpat.cli import main
from latinpat.enumeration import (
    FeasibilityError,
    _run_search,
    _worker_count,
    count_reduced_squares,
    count_squares,
    enumerate_squares,
    fill_row,
    map_tasks,
    partition_tasks,
    render_squares,
)
from latinpat.square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    avoids_spec,
    latin_square,
)

from conftest import S3, S4, collect_squares, naive_squares, perms


# ---------------------------------------------------------------------------
# baseline counts
# ---------------------------------------------------------------------------

def test_order_one():
    squares = collect_squares(1)
    assert squares == [latin_square([[1]])]


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 12), (4, 576)])
def test_unrestricted_counts(n, expected):
    result = count_squares(n)
    assert result.count == expected
    assert result.nodes_explored > 0
    assert result.order == n


def test_reduced_square_counts():
    assert [count_reduced_squares(n) for n in range(1, 6)] == [1, 1, 1, 4, 56]
    with pytest.raises(FeasibilityError):
        count_reduced_squares(7)


def test_reduced_squares():
    found = {n: list(enumeration.reduced_squares(n)) for n in range(1, 7)}
    assert [len(found[n]) for n in range(1, 7)] == [1, 1, 1, 4, 56, 9408]
    for n, grids in found.items():
        ident = tuple(range(1, n + 1))
        assert all(a < b for a, b in zip(grids, grids[1:]))
        for g in grids:
            assert g[0] == ident and tuple(row[0] for row in g) == ident
            assert all(sorted(line) == list(ident) for line in (*g, *zip(*g)))
    for n in range(1, 5):
        ident = tuple(range(1, n + 1))
        naive = [g for g in naive_squares(n) if g[0] == ident and tuple(row[0] for row in g) == ident]
        assert found[n] == naive


def test_reduced_identity_cross_check():
    for n in range(1, 5):
        ln = count_squares(n).count
        assert ln == math.factorial(n) * math.factorial(n - 1) * count_reduced_squares(n)


# ---------------------------------------------------------------------------
# pruned enumeration
# ---------------------------------------------------------------------------

def test_length3_avoider_counts():
    for q in S3:
        for n in range(2, 6):
            assert count_squares(n, AvoidanceSpec.both(q)).count == n


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("q", [(1, 2, 3), (1, 3, 2), (2, 3, 1)])
def test_length3_avoider_counts_at_larger_orders(q, n):
    assert count_squares(n, AvoidanceSpec.both(q)).count == n


def test_length3_avoiders_are_the_cyclic_squares():
    for q in S3:
        got = collect_squares(4, AvoidanceSpec.both(q))
        assert set(got) == set(construct.all_s3_avoiders(4, q))


def test_columns_only_count_is_factorial():
    assert count_squares(4, AvoidanceSpec.columns_only((1, 3, 2))).count == 24
    assert count_squares(4, AvoidanceSpec.columns_only((1, 2, 3))).count == 24


def test_trivial_pattern_counts():
    assert count_squares(1, AvoidanceSpec.columns_only((1,))).count == 0
    # single-entry and length-2 patterns wipe out everything at n >= 2
    assert count_squares(3, AvoidanceSpec.both((1,))).count == 0
    assert count_squares(3, AvoidanceSpec.both((1, 2), (2, 1))).count == 0


def test_pruned_equals_filtered_order3(squares3):
    patterns = S3 + S4
    for q in patterns:
        for spec in (AvoidanceSpec.both(q), AvoidanceSpec.columns_only(q)):
            pruned = count_squares(3, spec).count
            filtered = sum(1 for sq in squares3 if avoids_spec(sq, spec))
            assert pruned == filtered, (q, spec)


def test_symbol_spec_matches_filter(squares4):
    spec = AvoidanceSpec(symbol_patterns=((1, 2, 3),))
    pruned = count_squares(4, spec).count
    filtered = sum(1 for sq in squares4 if avoids_spec(sq, spec))
    assert pruned == filtered
    mixed = AvoidanceSpec(
        row_patterns=((1, 2, 3),), symbol_patterns=((3, 2, 1),)
    )
    assert count_squares(4, mixed).count == sum(
        1 for sq in squares4 if avoids_spec(sq, mixed)
    )


def test_full_length_relabel_invariance_order4():
    counts = {q: count_squares(4, AvoidanceSpec.both(q)).count for q in S4}
    assert set(counts.values()) == {400}


def test_row_equivalence_class_structure(squares4):
    # squares related by a row permutation share their row set; each class
    # has 4! members, of which all but 4 column-avoid any full-length pattern
    classes = {}
    for sq in squares4:
        classes.setdefault(frozenset(sq.grid), []).append(sq)
    assert all(len(members) == 24 for members in classes.values())
    spec = AvoidanceSpec.columns_only((1, 2, 3, 4))
    for members in classes.values():
        avoiding = sum(1 for sq in members if avoids_spec(sq, spec))
        assert avoiding == 20


# ---------------------------------------------------------------------------
# ordering and determinism
# ---------------------------------------------------------------------------

def test_visitor_order_is_lexicographic(squares3):
    grids = [sq.grid for sq in squares3]
    assert grids == sorted(grids)
    assert grids[0] == ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def _walk_task(first_row: tuple, automata: enumeration.Automata):
    yield sum(1 for _ in _run_search(automata, first_row))


def walk_count(n, spec, jobs=1):
    """
    The number of squares the row walk yields split at the first row, as
    scans run: one Automata, then one task per first row, summed in task
    order.
    """
    automata = enumeration.Automata(n, spec)
    tasks = enumeration._first_row_tasks(automata)
    return sum(map_tasks(partial(_walk_task, automata=automata), tasks, jobs))


def test_parallel_count_matches_serial():
    assert walk_count(4, EMPTY_SPEC, jobs=4) == walk_count(4, EMPTY_SPEC) == 576


@pytest.mark.parametrize("n,spec,cli_args,nodes", [
    (4, EMPTY_SPEC, [], 167),
    (5, AvoidanceSpec.both((1, 2, 3)), ["--avoid", "123"], 2528),
    (
        5,
        AvoidanceSpec(row_patterns=((1, 3, 2),), symbol_patterns=((1, 2, 3),)),
        ["--avoid-rows", "132", "--avoid-symbols", "123"],
        4035,
    ),
])
def test_nodes_explored_same_for_library_jobs_and_cli(n, spec, cli_args, nodes, capsys):
    assert count_squares(n, spec).nodes_explored == nodes
    for jobs in ("1", "2"):
        assert main(["count", "--order", str(n), "--jobs", jobs, "--no-cache", *cli_args]) == 0
        assert json.loads(capsys.readouterr().out)["nodes_explored"] == nodes


# (count, (nodes_explored, first-row nodes)) at order 5: the sweep's
# work, fill_row's nodes once per key it expands, over canonical keys for a
# spec with patterns on one family or none (ENGINE_VERSION 6); then the
# nodes of the first row's own search, from the ordered root
ROWS_132_SYMBOLS_123 = AvoidanceSpec(row_patterns=((1, 3, 2),), symbol_patterns=((1, 2, 3),))
GOLDEN_5 = [
    (EMPTY_SPEC, 161280, (2070, 325)),
    (AvoidanceSpec.both((1, 2, 3, 4)), 26928, (236226, 300)),
    (ROWS_132_SYMBOLS_123, 5, (4035, 165)),
]

# number of first-row tasks and sha256 of their JSON list from
# partition_tasks(5, spec, 5), in the order of GOLDEN_5
GOLDEN_PREFIXES_5 = [
    (120, "c58916347faeef01f564a5117e919eb2f7254ab6aa46d730b9d14d16bd339ce1"),
    (103, "6db33b6291a863c087fcedb0a0fed9a38fb72dbb6d82a5f4221789f0530f6540"),
    (42, "bb995cf7f6c3d0366984c7aef11c95e49f13e2d8822aa3fc54a5a9fd3e18c0c9"),
]

# the same at order 4, from the same engine
GOLDEN_4 = [
    (EMPTY_SPEC, 576, (167, 64)),
    (AvoidanceSpec.both((1, 2, 3)), 4, (371, 48)),
    (AvoidanceSpec.columns_only((2, 3, 1)), 24, (93, 64)),
    (AvoidanceSpec.rows_only((1, 2)), 0, (7, 10)),
    (AvoidanceSpec(symbol_patterns=((1, 3, 2),)), 24, (90, 64)),
    (ROWS_132_SYMBOLS_123, 4, (462, 48)),
]


def assert_split_matches_unsplit(n, spec, count, nodes, jobs):
    # every first-row task's walk together is the unsplit walk; the whole
    # search's nodes are pinned through the sweep's nodes_explored
    _, first_row = nodes
    automata = enumeration.Automata(n, spec)
    assert sum(1 for _ in _run_search(automata)) == count
    assert fill_row(automata, automata.root)[0] == first_row
    assert walk_count(n, spec, jobs) == count


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("spec,count,nodes", GOLDEN_5)
def test_golden_counts_and_nodes_order_5(spec, count, nodes, jobs):
    assert_split_matches_unsplit(5, spec, count, nodes, jobs)


@pytest.mark.parametrize("spec,count,nodes", GOLDEN_4)
def test_golden_counts_and_nodes_order_4(spec, count, nodes):
    for jobs in (1, 2):
        assert_split_matches_unsplit(4, spec, count, nodes, jobs)


@pytest.mark.parametrize("n,spec,count,nodes", [(5, *g) for g in GOLDEN_5] + [(4, *g) for g in GOLDEN_4])
def test_sweep_matches_the_walk_from_the_root(n, spec, count, nodes):
    # walk the distinct keys each row reaches from the root, a set per row,
    # and recount the sweep's work: fill_row's nodes once per key, whatever
    # number of partial squares reach it; a spec with patterns on one
    # family or none is walked as its columns-only form, each next key
    # with its column fields sorted
    columns = enumeration._column_spec(n, spec)
    auto = enumeration.Automata(n, spec) if columns is None else enumeration.Automata(n, columns, canonical=True)
    canon = auto.canon or (lambda key: key)
    keys, work = {auto.root}, 0
    for _ in range(n):
        after = set()
        for key in keys:
            found = fill_row(auto, key)
            work += found[0]
            after.update(map(canon, islice(found, 1, None)))
        keys = after
    result = count_squares(n, spec)
    assert (result.count, result.nodes_explored) == (count, nodes[0])
    assert work == nodes[0]


def test_one_family_specs_reduce_to_columns_only():
    # patterns longer than n are dropped first; a rows-only or symbols-only
    # spec moves to the columns; a spec on two families keeps ordered keys,
    # and canonical keys are refused for it
    p, long = (1, 3, 2), (1, 2, 3, 4, 5)
    cols = AvoidanceSpec.columns_only(p)
    for spec in (cols, AvoidanceSpec.rows_only(p), AvoidanceSpec(symbol_patterns=(p,)),
                 AvoidanceSpec(row_patterns=(long,), symbol_patterns=(p,))):
        assert enumeration._column_spec(4, spec) == cols
    assert enumeration._column_spec(4, AvoidanceSpec.rows_only(long)) == EMPTY_SPEC
    for spec in (AvoidanceSpec.both(p), ROWS_132_SYMBOLS_123):
        assert enumeration._column_spec(4, spec) is None
        with pytest.raises(ValueError, match="symmetry"):
            enumeration.Automata(4, spec, canonical=True)


@pytest.mark.parametrize("spec,count,nodes", GOLDEN_5)
def test_work_budget_bounds_nodes_explored(monkeypatch, budgets, spec, count, nodes):
    # the budget and the report are one counter: with order 5 sized, a
    # count passes at a budget of its nodes_explored and is refused by
    # its sweep one placement below it
    monkeypatch.setattr(enumeration, "UNSIZED_ORDER", 4)
    budgets(nodes[0])
    result = count_squares(5, spec)
    assert (result.count, result.nodes_explored) == (count, nodes[0])
    budgets(nodes[0] - 1)
    with pytest.raises(FeasibilityError, match="sweep"):
        count_squares(5, spec)


@pytest.mark.parametrize("n,spec,tasks", [
    (7, AvoidanceSpec.both((1, 2, 3), (3, 2, 1)), 0),
    # every row of order 4 would be 2143, 3412, 2413 or 3142, none of
    # which starts with 1: four first-row tasks, and no square
    (4, AvoidanceSpec.rows_only((1, 2, 3), (3, 2, 1)), 4),
])
def test_sized_walk_that_counts_nothing_does_not_walk(monkeypatch, n, spec, tasks):
    # a sized walk whose sweep counted no square yields nothing without
    # walking, and render_squares runs no task, so it starts no process
    def refuse(*args, **kwargs):
        raise AssertionError("walked or started a process")

    monkeypatch.setattr(enumeration, "UNSIZED_ORDER", 3)
    monkeypatch.setattr(enumeration, "_walk", refuse)
    monkeypatch.setattr(multiprocessing, "Process", refuse)
    assert len(partition_tasks(n, spec, n)) == tasks
    assert count_squares(n, spec).count == 0
    assert list(enumerate_squares(n, spec)) == []
    assert list(render_squares(n, spec, cli._SquareLines(n), jobs=2)) == []


def test_golden_partition_prefixes():
    for (spec, _, _), (size, digest) in zip(GOLDEN_5, GOLDEN_PREFIXES_5):
        prefixes = [list(t) for t in partition_tasks(5, spec, 5)]
        assert len(prefixes) == size
        assert hashlib.sha256(json.dumps(prefixes).encode()).hexdigest() == digest


def test_each_distinct_line_set_compiles_once(monkeypatch):
    # Automata compiles each distinct set of patterns of length <= n once,
    # and the first-row tasks of one call share it, so splitting compiles
    # no more than the unsplit walk
    calls = [0]
    compile_ = enumeration.prefix_automaton

    def counted(n, patterns, max_work=math.inf):
        calls[0] += 1
        return compile_(n, patterns, max_work=max_work)

    monkeypatch.setattr(enumeration, "prefix_automaton", counted)

    def compiles(run):
        calls[0] = 0
        run()
        return calls[0]

    spec = AvoidanceSpec.both((1, 2, 3, 4))
    assert compiles(lambda: list(_run_search(enumeration.Automata(5, spec)))) == 1
    assert compiles(lambda: walk_count(5, spec)) == 1
    auto = enumeration.Automata(5, spec)
    assert auto.row is auto.col
    rows_132_cols_123 = AvoidanceSpec(row_patterns=((1, 3, 2),), col_patterns=((1, 2, 3),))
    assert compiles(lambda: enumeration.Automata(5, rows_132_cols_123)) == 2
    p = (1, 3, 2)
    every_family = AvoidanceSpec(row_patterns=(p,), col_patterns=(p,), symbol_patterns=(p,))
    assert compiles(lambda: enumeration.Automata(5, every_family)) == 1
    # 12345 is longer than the order, so both sides are the set {123}
    long_row = AvoidanceSpec(row_patterns=((1, 2, 3), (1, 2, 3, 4, 5)), col_patterns=((1, 2, 3),))
    assert compiles(lambda: enumeration.Automata(4, long_row)) == 1


def test_one_row_table_per_call(monkeypatch):
    # every task of a call walks the one row table built for that call
    made = []

    class Recording(enumeration.Automata):
        def __init__(self, n, spec):
            super().__init__(n, spec)
            made.append(self)

    monkeypatch.setattr(enumeration, "Automata", Recording)

    def entries_built(call):
        made.clear()
        call()
        assert len(made) == 1
        return len(made[0].table)

    spec = AvoidanceSpec.both((1, 2, 3, 4))
    unsplit = entries_built(lambda: list(_run_search(enumeration.Automata(5, spec))))
    assert entries_built(lambda: walk_count(5, spec)) == unsplit > 0
    # the Wilf filter takes its reduced squares from reduced_squares, not the engine
    made.clear()
    analysis.wilf_classes(4, 5)
    assert made == []


def test_row_table_budget_keeps_answers(monkeypatch):
    # states past the budget are searched again on each visit, not stored,
    # and the walk yields the same squares in the same order
    spec, count, _ = GOLDEN_5[1]
    uncapped = list(_run_search(enumeration.Automata(5, spec)))
    assert len(uncapped) == count
    monkeypatch.setattr(enumeration, "ROW_TABLE_BUDGET", 50)
    automata = enumeration.Automata(5, spec)
    assert list(_run_search(automata)) == uncapped
    assert len(automata.table) == 50


def test_parallel_enumerate_order(squares4):
    # the pool path of the CLI's parallel enumerate: one string per task
    lines = cli._SquareLines(4)
    got = list(render_squares(4, EMPTY_SPEC, lines, jobs=4))
    assert len(got) == 24
    assert "".join(got) == "".join(lines(sq.grid) for sq in squares4)


# sha256 of `latinpat enumerate --order 5`'s stdout
ENUMERATE_5_SHA256 = "8ba4bd79604dc07ff386ecf08a29bb1cea3500fb2ec63f4a4b3006ad072b16a6"


def test_render_squares_yields_bounded_pieces(monkeypatch):
    # a task's lines leave its worker in pieces of at most
    # RENDER_PIECE_SQUARES squares, so no piece holds a whole large task;
    # each of the 120 first-row tasks at order 5 has 1,344 squares
    monkeypatch.setattr(enumeration, "RENDER_PIECE_SQUARES", 100)
    pieces = list(render_squares(5, EMPTY_SPEC, cli._SquareLines(5), jobs=1))
    assert [p.count("\n") for p in pieces] == ([100] * 13 + [44]) * 120
    assert hashlib.sha256("".join(pieces).encode()).hexdigest() == ENUMERATE_5_SHA256


def test_capped_row_table_renders_the_same_bytes(monkeypatch):
    # keys past the budget have their entries, ending texts included, made
    # again on every visit, and the lines come out the same at any jobs
    made = []

    class Recording(enumeration.Automata):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(enumeration, "Automata", Recording)
    monkeypatch.setattr(enumeration, "ROW_TABLE_BUDGET", 50)
    for jobs in (1, 2):
        text = "".join(render_squares(5, EMPTY_SPEC, cli._SquareLines(5), jobs=jobs))
        assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_5_SHA256, jobs
    assert len(made[0].table) == 50


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enumerate_leaves_no_cycle_holding_its_table(monkeypatch, capsys, jobs):
    # a call's Automata and row table are freed by reference
    # counting when the call returns, not at the next full collection; at
    # one job this process walks with them
    made = []

    class Recording(enumeration.Automata):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(enumeration, "Automata", Recording)
    gc.collect()
    gc.disable()
    try:
        assert main(["enumerate", "--order", "5", "--jobs", jobs]) == 0
        assert len(made) == 1
        assert made[0]() is None
    finally:
        gc.enable()
    assert capsys.readouterr().out.count("\n") == 161280


def test_symbol_dead_first_rows_start_no_pool(monkeypatch):
    # every first row kills a symbol line of 12, so there are no tasks and
    # no worker process
    def no_pool(*args, **kwargs):
        raise AssertionError("a spec with no tasks started a worker process")

    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    spec = AvoidanceSpec(symbol_patterns=((1, 2),))
    assert list(render_squares(4, spec, repr, jobs=2)) == []


def test_fill_row_steps_symbol_lines_at_the_root():
    # symbol lines are stepped inside fill_row: at order 4 only 4321 avoids
    # 12, so every symbol line must start in the last column and no first
    # row survives, though its 64 placements are counted as with no spec
    a = enumeration.Automata(4, AvoidanceSpec(symbol_patterns=((1, 2),)))
    assert fill_row(a, a.root) == [64]
    a = enumeration.Automata(5, ROWS_132_SYMBOLS_123)
    found = fill_row(a, a.root)
    assert (found[0], len(found) - 1) == (165, 42)


def test_worker_count_is_clamped_to_tasks_and_cpus():
    # computed only: no pool of this size is ever started
    assert 1 <= _worker_count(10**6, 3) <= 3
    assert _worker_count(10**6, 10**6) <= (os.cpu_count() or 1)
    assert _worker_count(1, 100) == 1
    assert _worker_count(4, 0) == 1


def _abs_twice(task: int):
    yield abs(task)
    yield abs(task)


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        _worker_count(jobs, 10)
    with pytest.raises(ValueError, match="jobs"):
        list(map_tasks(_abs_twice, [1, 2], jobs))


def test_map_tasks_keeps_task_order():
    want = [m for m in range(40, 0, -1) for _ in range(2)]
    for jobs in (1, 2):
        assert list(map_tasks(_abs_twice, list(range(-40, 0)), jobs)) == want


class CountingWorker:
    """Counts its own calls: each worker process has one copy."""

    def __init__(self):
        self.calls = 0

    def __call__(self, task: int):
        self.calls += 1
        yield os.getpid(), self.calls


@pytest.fixture
def two_cpus(monkeypatch):
    # _worker_count caps jobs at the CPU count: let jobs=2 start 2 processes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_map_tasks_installs_the_worker_once_per_process(two_cpus):
    # each worker process keeps one copy of the worker across the tasks it
    # takes, so in task order its calls count 1, 2, ...; which process takes
    # which task depends on timing, so only the counts are checked
    results = list(map_tasks(CountingWorker(), list(range(40)), 2))
    by_pid = {}
    for pid, calls in results:
        by_pid.setdefault(pid, []).append(calls)
    assert len(results) == 40
    assert 1 <= len(by_pid) <= 2 and os.getpid() not in by_pid
    assert all(calls == list(range(1, len(calls) + 1)) for calls in by_pid.values())


def _slow_task_zero(task: int):
    if task == 0:
        time.sleep(1)
    yield task, os.getpid()


def test_map_tasks_gives_the_next_task_to_a_free_worker(two_cpus):
    # while one process sleeps on task 0, the other takes every later task
    # instead of waiting for its turn; the pieces still come in task order
    results = list(map_tasks(_slow_task_zero, list(range(10)), 2))
    assert [task for task, _ in results] == list(range(10))
    slow = results[0][1]
    assert all(pid != slow for _, pid in results[1:])


def _fail_on_five(task: int):
    if task == 5:
        raise ValueError("task 5 failed")
    yield task


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_tasks_raises_a_worker_exception_in_task_order(two_cpus, jobs):
    got = []
    with pytest.raises(ValueError, match="^task 5 failed$"):
        for piece in map_tasks(_fail_on_five, list(range(10)), jobs):
            got.append(piece)
    assert got == [0, 1, 2, 3, 4]
    assert multiprocessing.active_children() == []


def _endless(task: int):
    yield from repeat(task)


def test_map_tasks_closed_early_leaves_no_child(two_cpus):
    # both workers block on a full pipe; closing the iterator ends them
    pieces = map_tasks(_endless, [0, 1, 2, 3], 2)
    assert [next(pieces) for _ in range(3)] == [0, 0, 0]
    closer = threading.Thread(target=pieces.close, daemon=True)
    closer.start()
    closer.join(timeout=60)
    assert not closer.is_alive()
    assert multiprocessing.active_children() == []


def test_render_worker_survives_pickling():
    # a spawn or forkserver worker process receives its worker pickled
    automata = enumeration.Automata(5, ROWS_132_SYMBOLS_123)
    worker = partial(enumeration._render_worker, automata=automata, render=cli._SquareLines(5))
    copy = pickle.loads(pickle.dumps(worker))
    tasks = enumeration._first_row_tasks(automata)
    assert len(tasks) == 42
    want = [list(worker(t)) for t in tasks]
    assert any(want)
    assert [list(copy(t)) for t in tasks] == want


# ---------------------------------------------------------------------------
# task partitioning
# ---------------------------------------------------------------------------

def test_partition_first_row():
    # one task per first-row permutation; by relabeling symmetry each
    # subtree holds 576/24 = 24 squares
    tasks = partition_tasks(4, EMPTY_SPEC, 4)
    assert len(tasks) == 24
    per_task = [len(list(enumerate_squares(4, first_row=t))) for t in tasks]
    assert per_task == [24] * 24
    assert sum(per_task) == 576


@pytest.mark.parametrize("depth", [4])
def test_partition_counts_sum(depth):
    spec = AvoidanceSpec.columns_only((1, 2, 3))
    per_task = [len(list(enumerate_squares(4, spec, first_row=t))) for t in partition_tasks(4, spec, depth)]
    assert sum(per_task) == count_squares(4, spec).count == walk_count(4, spec) == 24


def test_partition_prefixes_consistent():
    # the first rows that avoid 123, each a permutation, in increasing order
    prefixes = partition_tasks(3, AvoidanceSpec.both((1, 2, 3)), 3)
    assert prefixes == [p for p in perms(3) if p != (1, 2, 3)]


def test_partition_depth_bounds():
    # scans split at the whole first row only
    for depth in (-1, 0, 3, 10):
        with pytest.raises(ValueError):
            partition_tasks(4, EMPTY_SPEC, depth)


# ---------------------------------------------------------------------------
# first-row enumeration
# ---------------------------------------------------------------------------

def test_enumerate_with_first_row_unique_completion():
    got = list(enumerate_squares(4, AvoidanceSpec.columns_only((1, 2, 3)), first_row=(2, 1, 3, 4)))
    assert len(got) == 1
    assert got[0].grid == ((2, 1, 3, 4), (1, 4, 2, 3), (4, 3, 1, 2), (3, 2, 4, 1))


def test_enumerate_with_first_row_pruned_to_empty():
    assert list(enumerate_squares(4, AvoidanceSpec.rows_only((1, 2, 3)), first_row=(1, 2, 3, 4))) == []


def test_every_first_row_completes_once():
    for sigma in perms(4):
        got = list(enumerate_squares(4, AvoidanceSpec.columns_only((1, 2, 3)), first_row=sigma))
        assert len(got) == 1


def test_first_row_length_mismatch():
    for first_row in ((1, 2, 3), (1, 2, 2, 4)):
        with pytest.raises(ValueError):
            enumerate_squares(4, EMPTY_SPEC, first_row=first_row)


def test_enumerate_squares_checks_at_the_call():
    # the order gate and the first-row checks run before any next()
    with pytest.raises(FeasibilityError):
        enumerate_squares(7)
    with pytest.raises(ValueError):
        enumerate_squares(4, first_row=(1, 2, 3))


@pytest.mark.parametrize("spec", [EMPTY_SPEC, AvoidanceSpec.columns_only((1, 2, 3)), AvoidanceSpec.rows_only((1, 2, 3))],
                         ids=["empty", "cols-123", "rows-123"])
def test_first_row_walks_concatenate_to_the_whole(spec):
    # the walk's leaf row is the root at orders 1 to 3, where a first-row
    # task takes its row's pair out of the root's entry, or nothing when
    # fill_row dropped the row (123 with rows-123 at order 3); an order-1
    # ending is empty, so its text is the tail alone
    for n in (1, 2, 3, 4):
        whole = list(enumerate_squares(n, spec))
        assert [sq.grid for sq in whole] == [g for g in naive_squares(n) if avoids_spec(latin_square(g), spec)]
        by_first_row = [sq for row in perms(n) for sq in enumerate_squares(n, spec, first_row=row)]
        assert by_first_row == whole, n
        lines = cli._SquareLines(n)
        for jobs in (1, 2):
            assert "".join(render_squares(n, spec, lines, jobs=jobs)) == "".join(lines(sq.grid) for sq in whole), (n, jobs)


@pytest.mark.parametrize("n,spec,count", [(n, EMPTY_SPEC, c) for n, c in ((1, 1), (2, 2), (3, 12))]
                         + [(4, *g[:2]) for g in GOLDEN_4] + [(5, *g[:2]) for g in GOLDEN_5])
def test_walk_searches_each_key_once(monkeypatch, n, spec, count):
    # while its row table has room, a full walk runs fill_row once for each
    # key it reaches, as often as the ordered sweep, which expands each key
    # once: 4,321 times at order 5 with no pattern
    calls = [0]
    search = enumeration.fill_row

    def counted(auto, key):
        calls[0] += 1
        return search(auto, key)

    monkeypatch.setattr(enumeration, "fill_row", counted)
    assert enumeration._sweep(enumeration.Automata(n, spec), None, False)[0] == count
    swept, calls[0] = calls[0], 0
    assert sum(1 for _ in _run_search(enumeration.Automata(n, spec))) == count
    assert calls[0] == swept
    if (n, spec) == (5, EMPTY_SPEC):
        assert swept == 4321


# ---------------------------------------------------------------------------
# feasibility bounds
# ---------------------------------------------------------------------------

def test_unrestricted_bound_refusal(budgets):
    # 1234 in rows and columns passes STATE_BUDGET in row 2 at order 7
    with pytest.raises(FeasibilityError, match="row 2"):
        count_squares(7, AvoidanceSpec.both((1, 2, 3, 4)))
    # force lifts the sizing: with the budgets cut, a sized order-7 count is
    # refused and a forced one answers
    budgets(10_000)
    with pytest.raises(FeasibilityError):
        count_squares(7, AvoidanceSpec.both((1, 2, 3)))
    assert count_squares(7, AvoidanceSpec.both((1, 2, 3)), force=True).count == 7


def test_pruned_enumeration_allows_larger_orders():
    # a pruning spec lifts the order bound; forbidding any ascent collapses
    # the tree instantly (rows would all have to be n..1, which is not Latin)
    assert count_squares(7, AvoidanceSpec.both((1, 2))).count == 0


def test_symbol_only_spec_is_sized():
    # a symbol-only spec is sized by its sweep like any other, not refused
    # by its order: no symbol line of order 7 avoids 12
    assert count_squares(7, AvoidanceSpec(symbol_patterns=((1, 2),))).count == 0


def test_refusal_follows_the_measured_size(budgets):
    # with both budgets cut to 10,000, the unrestricted order-7 count, the
    # full-length pattern at order 8 and remark 4 at order 12 are refused,
    # while both(12) at order 8, whose compile and sweep stay small, answers
    budgets(10_000)
    full_length = AvoidanceSpec.both(tuple(range(1, 9)))
    for search, where in ((lambda: count_squares(7), "sweep"), (lambda: count_squares(8, full_length), "compile"),
                          (lambda: analysis.verify_cyclic_structure(12), "compile")):
        with pytest.raises(FeasibilityError, match=where):
            search()
    assert count_squares(8, AvoidanceSpec.both((1, 2))).count == 0


def test_each_budget_refuses_alone(monkeypatch):
    # both(123) at order 7 compiles in 35,826 placements, sweeps in 131,373
    # and holds at most 429 keys in a layer, so either budget alone, cut
    # below the sweep's figure, refuses it in the sweep
    spec = AvoidanceSpec.both((1, 2, 3))
    for budget, value in (("WORK_BUDGET", 100_000), ("STATE_BUDGET", 100)):
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, budget, value)
            with pytest.raises(FeasibilityError, match="sweep"):
                count_squares(7, spec)


def test_orders_up_to_6_are_unsized(budgets):
    budgets(1)
    assert count_squares(5).count == 161280
    assert count_squares(6, AvoidanceSpec.both((1, 2, 3))).count == 6


def test_invalid_order():
    with pytest.raises(ValueError):
        count_squares(0)
