import math
import os

import pytest

from latinpat import construct
from latinpat.enumeration import (
    EnumerationTask,
    FeasibilityError,
    _worker_count,
    count_column_avoiders,
    count_reduced_squares,
    count_squares,
    enumerate_squares,
    enumerate_with_first_row,
    map_tasks,
    partition_tasks,
)
from latinpat.square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    avoids_spec,
    latin_square,
)

from conftest import S3, S4, collect_squares, perms


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


def test_length3_avoiders_are_the_cyclic_squares():
    for q in S3:
        got = collect_squares(4, AvoidanceSpec.both(q))
        assert set(got) == set(construct.all_s3_avoiders(4, q))


def test_columns_only_count_is_factorial():
    assert count_squares(4, AvoidanceSpec.columns_only((1, 3, 2))).count == 24
    assert count_column_avoiders(4, (1, 2, 3)).count == 24


def test_trivial_pattern_counts():
    assert count_column_avoiders(1, (1,)).count == 0
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


def test_parallel_count_matches_serial():
    serial = count_squares(4, split_depth=4)
    parallel = count_squares(4, jobs=4, split_depth=4)
    assert parallel.count == serial.count == 576
    assert parallel.nodes_explored == serial.nodes_explored


def test_parallel_enumerate_order(squares4):
    got = []
    enumerate_squares(4, EMPTY_SPEC, got.append, jobs=4)
    assert got == squares4


def test_worker_count_is_clamped_to_tasks_and_cpus():
    # computed only: no pool of this size is ever started
    assert 1 <= _worker_count(10**6, 3) <= 3
    assert _worker_count(10**6, 10**6) <= (os.cpu_count() or 1)
    assert _worker_count(1, 100) == 1
    assert _worker_count(4, 0) == 1


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        _worker_count(jobs, 10)
    with pytest.raises(ValueError, match="jobs"):
        list(map_tasks(abs, [1, 2], jobs))
    with pytest.raises(ValueError, match="jobs"):
        count_squares(3, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        enumerate_squares(3, EMPTY_SPEC, lambda sq: None, jobs=jobs)


def test_map_tasks_keeps_task_order_and_reports_progress():
    seen = []
    got = list(map_tasks(abs, list(range(-40, 0)), 2, lambda done, total: seen.append((done, total))))
    assert got == list(range(40, 0, -1))
    assert seen == [(i, 40) for i in range(1, 41)]


# ---------------------------------------------------------------------------
# task partitioning
# ---------------------------------------------------------------------------

def test_partition_zero_depth():
    tasks = partition_tasks(3, EMPTY_SPEC, 0)
    assert tasks == [EnumerationTask(3, EMPTY_SPEC, ())]


def test_partition_first_row():
    # one task per first-row permutation; by relabeling symmetry each
    # subtree holds 576/24 = 24 squares
    tasks = partition_tasks(4, EMPTY_SPEC, 4)
    assert len(tasks) == 24
    per_task = [len(enumerate_with_first_row(4, t.prefix)) for t in tasks]
    assert per_task == [24] * 24
    assert sum(per_task) == 576


@pytest.mark.parametrize("depth", [0, 2, 4, 7])
def test_partition_counts_sum(depth):
    spec = AvoidanceSpec.columns_only((1, 2, 3))
    total = count_squares(4, spec).count
    split = count_squares(4, spec, split_depth=depth).count
    assert split == total == 24


def test_partition_prefixes_consistent():
    for task in partition_tasks(3, AvoidanceSpec.both((1, 2, 3)), 5):
        assert len(task.prefix) == 5
        assert len(set(task.prefix[:3])) == 3  # first row has no repeats


def test_partition_depth_bounds():
    with pytest.raises(ValueError):
        partition_tasks(3, EMPTY_SPEC, 10)
    with pytest.raises(ValueError):
        partition_tasks(3, EMPTY_SPEC, -1)


# ---------------------------------------------------------------------------
# first-row enumeration
# ---------------------------------------------------------------------------

def test_enumerate_with_first_row_unique_completion():
    got = enumerate_with_first_row(4, (2, 1, 3, 4), AvoidanceSpec.columns_only((1, 2, 3)))
    assert len(got) == 1
    assert got[0].grid == ((2, 1, 3, 4), (1, 4, 2, 3), (4, 3, 1, 2), (3, 2, 4, 1))


def test_enumerate_with_first_row_pruned_to_empty():
    assert enumerate_with_first_row(4, (1, 2, 3, 4), AvoidanceSpec.rows_only((1, 2, 3))) == []


def test_every_first_row_completes_once():
    for sigma in perms(4):
        got = enumerate_with_first_row(4, sigma, AvoidanceSpec.columns_only((1, 2, 3)))
        assert len(got) == 1


def test_first_row_length_mismatch():
    with pytest.raises(ValueError):
        enumerate_with_first_row(4, (1, 2, 3), EMPTY_SPEC)


# ---------------------------------------------------------------------------
# feasibility bounds
# ---------------------------------------------------------------------------

def test_unrestricted_bound_refusal():
    with pytest.raises(FeasibilityError):
        count_squares(7)
    with pytest.raises(FeasibilityError):
        count_squares(2, max_order=1)
    assert count_squares(2, max_order=2).count == 2


def test_pruned_enumeration_allows_larger_orders():
    # a pruning spec lifts the order bound; forbidding any ascent collapses
    # the tree instantly (rows would all have to be n..1, which is not Latin)
    assert count_squares(7, AvoidanceSpec.both((1, 2))).count == 0


def test_symbol_only_spec_counts_as_unrestricted():
    with pytest.raises(FeasibilityError):
        count_squares(7, AvoidanceSpec(symbol_patterns=((1, 2, 3),)))


def test_invalid_order():
    with pytest.raises(ValueError):
        count_squares(0)
