import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latinpat import cli
from latinpat.cli import main
from latinpat.construct import connolly_square
from latinpat.enumeration import count_squares, enumerate_squares
from latinpat.square import EMPTY_SPEC, serialize_square, square_to_json

from conftest import naive_cache_lookup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_avoid_both(capsys):
    code, out, _ = run(capsys, "count", "--order", "4", "--avoid", "123", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["spec"]["rows"] == [[1, 2, 3]]
    assert payload["spec"]["cols"] == [[1, 2, 3]]


def test_count_avoid_cols_only(capsys):
    code, out, _ = run(capsys, "count", "--order", "4", "--avoid-cols", "123", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["count"] == 24


def test_count_csv_and_table(capsys):
    code, out, _ = run(capsys, "count", "--order", "3", "--jobs", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "order,count,nodes_explored"
    assert out.splitlines()[1].startswith("3,12,")
    code, out, _ = run(capsys, "count", "--order", "3", "--jobs", "1", "--format", "table")
    assert code == 0
    assert "count: 12" in out


def test_count_jobs_do_not_change_output(capsys):
    _, out1, _ = run(capsys, "count", "--order", "4", "--avoid", "132", "--jobs", "1")
    _, out2, _ = run(capsys, "count", "--order", "4", "--avoid", "132", "--jobs", "3")
    assert out1 == out2


def test_count_invalid_order(capsys):
    code, _, err = run(capsys, "count", "--order", "0")
    assert code == 2
    assert "order" in err


def test_count_invalid_pattern(capsys):
    code, _, err = run(capsys, "count", "--order", "3", "--avoid", "122")
    assert code == 2


def test_count_feasibility_refusal(capsys):
    # 1234 in rows and columns passes STATE_BUDGET in row 2 at order 7
    code, _, err = run(capsys, "count", "--order", "7", "--avoid", "1234", "--jobs", "1")
    assert code == 3
    assert "bound" in err


def test_count_progress_lines(capsys):
    code, _, err = run(
        capsys, "count", "--order", "3", "--jobs", "1", "--progress", "json"
    )
    assert code == 0
    events = [json.loads(line) for line in err.strip().splitlines()]
    # one event per swept row; states counts the keys of that row's layer,
    # one per column-order class with no pattern: every first row leaves
    # the same multiset of column fields, and so does every second row
    assert len(events) == 3
    assert events[-1]["rows_done"] == events[-1]["rows_total"] == 3
    assert [e["states"] for e in events] == [1, 1, 1]


@pytest.mark.parametrize("argv", [
    ["wilf", "--length", "3", "--order", "3", "--progress", "json"],
    ["lambda", "--order", "3", "--exhaustive", "--timings"],
    ["count", "--order", "3", "--timings"],
], ids=["wilf-progress", "lambda-timings", "count-timings"])
def test_flag_the_command_would_ignore_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_streams_squares(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert first == {"grid": [[1, 2, 3], [2, 3, 1], [3, 1, 2]], "order": 3}


def test_enumerate_progress_done_event(capsys):
    _, plain, _ = run(capsys, "enumerate", "--order", "3", "--jobs", "1")
    code, out, err = run(capsys, "enumerate", "--order", "3", "--jobs", "1", "--progress", "json")
    assert code == 0
    assert out == plain
    assert [json.loads(line) for line in err.splitlines()] == [{"event": "done", "squares": 12}]


def test_enumerate_with_spec(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "4", "--avoid", "123", "--jobs", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def _square_json_lines(n):
    return [json.dumps(square_to_json(sq), sort_keys=True) for sq in enumerate_squares(n, EMPTY_SPEC)]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_enumerate_lines_are_square_json(order, jobs, capsys):
    # the lines built from per-row strings are the square_to_json dumps
    code, out, _ = run(capsys, "enumerate", "--order", str(order), "--jobs", jobs)
    assert code == 0
    assert out.endswith("\n")
    assert out.split("\n")[:-1] == _square_json_lines(order)


def test_enumerate_order_5_bytes(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "5", "--jobs", "1")
    assert code == 0
    want = "".join(line + "\n" for line in _square_json_lines(5))
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == hashlib.sha256(want.encode()).hexdigest()
    # the bytes of the cell-by-cell engine and per-square dumps
    assert digest == "8ba4bd79604dc07ff386ecf08a29bb1cea3500fb2ec63f4a4b3006ad072b16a6"


def test_enumerate_order_5_same_output_and_progress_at_jobs_1_and_2(capsys):
    # --jobs 2 renders whole tasks in the pool and reports progress as each
    # task's lines arrive; stdout and stderr must still match --jobs 1
    one, two = (run(capsys, "enumerate", "--order", "5", "--progress", "json", "--jobs", j) for j in "12")
    assert one == two
    assert one[0] == 0
    events = [json.loads(line) for line in one[2].splitlines()]
    assert events[:-1] == [{"event": "progress", "squares": k * 10000} for k in range(1, 17)]
    assert events[-1] == {"event": "done", "squares": 161280}


def test_enumerate_symbol_spec_same_output_at_jobs_1_and_2(capsys):
    argv = ("enumerate", "--order", "5", "--avoid-rows", "132", "--avoid-symbols", "123")
    one, two = (run(capsys, *argv, "--jobs", j) for j in "12")
    assert one == two
    assert one[0] == 0 and one[1]


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_prop2_bytes(capsys):
    code, out, _ = run(capsys, "construct", "prop2", "--first-row", "2134", "--pattern", "123")
    assert code == 0
    assert out == "2 1 3 4\n1 4 2 3\n4 3 1 2\n3 2 4 1\n"


def test_construct_connolly_bytes(capsys):
    code, out, _ = run(capsys, "construct", "connolly", "--root", "3")
    assert code == 0
    assert out == serialize_square(connolly_square(3))


def test_construct_s3_order1(capsys):
    code, out, _ = run(capsys, "construct", "s3", "--order", "1", "--pattern", "321", "--start", "1")
    assert code == 0
    assert out == "1\n"


def test_construct_s3_json(capsys):
    code, out, _ = run(
        capsys, "construct", "s3", "--order", "4", "--pattern", "123", "--start", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"][0] == [2, 1, 4, 3]


def test_construct_invalid_args(capsys):
    assert run(capsys, "construct", "s3", "--order", "4", "--pattern", "1234", "--start", "1")[0] == 2
    assert run(capsys, "construct", "s3", "--order", "4", "--pattern", "123", "--start", "9")[0] == 2
    assert run(capsys, "construct", "connolly", "--root", "0")[0] == 2


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------

def test_lambda_exhaustive_small(capsys):
    code, out, _ = run(capsys, "lambda", "--order", "3", "--exhaustive", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_value"] == 3
    assert payload["method"] == "exhaustive"


def test_lambda_bounds_with_witness(capsys):
    code, out, _ = run(capsys, "lambda", "--order", "9", "--bounds")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound"] == 4
    assert payload["witness_cap"] == 4
    assert payload["exact_value"] == 4


def test_lambda_exhaustive_refusal(capsys, budgets):
    # order 7 is sized; with the budgets cut to 10,000 it is refused at
    # once (with the real budgets, about 10 s in), before any stdout
    budgets(10_000)
    assert run(capsys, "lambda", "--order", "7", "--exhaustive", "--no-cache")[:2] == (3, "")


# ---------------------------------------------------------------------------
# wilf
# ---------------------------------------------------------------------------

def test_wilf_small_csv(capsys):
    code, out, _ = run(
        capsys, "wilf", "--length", "3", "--order", "4", "--jobs", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pattern,count,class_id"
    assert lines[1:] == [f"{p},4,1" for p in ("123", "132", "213", "231", "312", "321")]


def test_wilf_trivial_pattern(capsys):
    code, out, _ = run(capsys, "wilf", "--length", "1", "--order", "3", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["num_classes"] == 1
    assert payload["counts"]["1"] == 0


def test_wilf_feasibility(capsys):
    # the filter stops at order 6, pruned mode's counts are sized, and both
    # stop at pattern length 4
    assert run(capsys, "wilf", "--length", "4", "--order", "6", "--mode", "filter")[0] == 0
    for mode in ("filter", "pruned"):
        assert run(capsys, "wilf", "--length", "4", "--order", "7", "--mode", mode, "--no-cache")[:2] == (3, "")
        assert run(capsys, "wilf", "--length", "5", "--order", "5", "--mode", mode, "--no-cache")[:2] == (3, "")


# ---------------------------------------------------------------------------
# check / rect-check
# ---------------------------------------------------------------------------

def test_check_pattern_contained(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    f.write_text(serialize_square(connolly_square(3)))
    code, out, _ = run(capsys, "check", "--square", str(f), "--pattern", "123")
    assert code == 0
    payload = json.loads(out)
    assert payload["contained"] is True
    assert payload["witness"]["line_kind"] == "row"
    assert payload["witness"]["positions"] == [1, 2, 3]


def test_check_pattern_avoided(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    f.write_text("3 2 1\n2 1 3\n1 3 2\n")  # cyclic decreasing square
    code, out, _ = run(capsys, "check", "--square", str(f), "--pattern", "123")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"contained": False, "order": 3, "pattern": "123", "witness": None}


def test_check_trivial_pattern(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    f.write_text("1 2\n2 1\n")
    code, out, _ = run(capsys, "check", "--square", str(f), "--pattern", "1")
    assert json.loads(out)["contained"] is True


def test_rect_check_witness(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    sq.write_text(serialize_square(connolly_square(3)))
    rect = tmp_path / "rect.txt"
    rect.write_text("3 4 2\n1 3 4\n")
    code, out, _ = run(capsys, "rect-check", "--square", str(sq), "--rectangle", str(rect))
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == {"rows": [2, 7], "cols": [1, 5, 9]}


def test_rect_check_json_rectangle_with_wrong_shape_is_invalid(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    sq.write_text(serialize_square(connolly_square(3)))
    rect = tmp_path / "rect.json"
    rect.write_text(json.dumps({"grid": [[3, 4, 2], [1, 3, 4]], "rows": 3}))
    code, _, err = run(capsys, "rect-check", "--square", str(sq), "--rectangle", str(rect))
    assert code == 2
    assert "rows" in err


def test_rect_check_json_rectangle_witness(tmp_path, capsys):
    # the JSON form with its shape and alphabet declared finds the text form's witness
    sq = tmp_path / "sq.txt"
    sq.write_text(serialize_square(connolly_square(3)))
    rect = tmp_path / "rect.json"
    rect.write_text(json.dumps({"grid": [[3, 4, 2], [1, 3, 4]], "rows": 2, "cols": 3, "alphabet_bound": 4}))
    code, out, _ = run(capsys, "rect-check", "--square", str(sq), "--rectangle", str(rect))
    assert code == 0
    assert json.loads(out)["witness"] == {"rows": [2, 7], "cols": [1, 5, 9]}


@pytest.mark.parametrize("bound", ["5", [1], 2.5, True])
def test_rect_check_malformed_alphabet_bound_is_invalid(tmp_path, capsys, bound):
    sq = tmp_path / "sq.txt"
    sq.write_text(serialize_square(connolly_square(3)))
    rect = tmp_path / "rect.json"
    rect.write_text(json.dumps({"grid": [[1, 2]], "alphabet_bound": bound}))
    code, _, err = run(capsys, "rect-check", "--square", str(sq), "--rectangle", str(rect))
    assert code == 2
    assert "alphabet_bound" in err


def test_check_json_square_input(tmp_path, capsys):
    sq = tmp_path / "sq.json"
    sq.write_text(json.dumps({"order": 2, "grid": [[1, 2], [2, 1]]}))
    code, out, _ = run(capsys, "check", "--square", str(sq), "--pattern", "12")
    assert code == 0
    assert json.loads(out)["contained"] is True


def test_check_missing_file(capsys):
    assert run(capsys, "check", "--square", "/nonexistent", "--pattern", "1")[0] == 2


def test_check_invalid_square(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1 2\n1 2\n")
    code, _, err = run(capsys, "check", "--square", str(f), "--pattern", "12")
    assert code == 2
    assert "column 1 repeats symbol 1" in err


@pytest.mark.parametrize("rectangle", [True, False], ids=["rectangle", "no-pattern"])
def test_check_takes_only_a_pattern(tmp_path, rectangle):
    # rectangles go to rect-check; check requires --pattern and takes no --rectangle
    sq = tmp_path / "sq.txt"
    sq.write_text(serialize_square(connolly_square(3)))
    rect = tmp_path / "rect.txt"
    rect.write_text("3 4 2\n1 3 4\n")
    extra = ["--rectangle", str(rect)] if rectangle else []
    with pytest.raises(SystemExit) as exc:
        main(["check", "--square", str(sq), *extra])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_subcommands(capsys):
    code, out, _ = run(capsys, "verify", "theorem6", "--order", "3", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run(capsys, "verify", "corollary6", "--order", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run(capsys, "verify", "remark4", "--order", "4")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4 and report["ok"] is True

    code, out, _ = run(capsys, "verify", "es", "--p", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["permutations"] == 120


def test_verify_es_feasibility(capsys):
    assert run(capsys, "verify", "es", "--p", "3", "--q", "3")[0] == 3


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path, capsys):
    args = ["count", "--order", "4", "--jobs", "1", "--cache-dir", str(tmp_path)]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert (tmp_path / "cache.jsonl").exists()
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2

    entry = json.loads((tmp_path / "cache.jsonl").read_text().splitlines()[0])
    assert entry["key"]["op"] == "count"
    assert entry["value"]["count"] == 576
    assert "timestamp" in entry and "tool_version" not in entry


def test_cache_dir_made_only_when_an_entry_is_stored(tmp_path, capsys):
    # bad input exits 2 before anything is computed, so no cache directory
    directory = tmp_path / "D"
    for argv in (["count", "--order", "0"], ["wilf", "--length", "0", "--order", "3"]):
        assert run(capsys, *argv, "--cache-dir", str(directory))[0] == 2
        assert not directory.exists()
    assert run(capsys, "count", "--order", "3", "--cache-dir", str(directory))[0] == 0
    assert (directory / "cache.jsonl").exists()


def test_cache_verify_ok_and_tampered(tmp_path, capsys):
    args = ["count", "--order", "3", "--jobs", "1", "--cache-dir", str(tmp_path)]
    run(capsys, *args)
    code, out, err = run(capsys, *args, "--verify-cache")
    assert code == 0
    assert "verified" in err

    path = tmp_path / "cache.jsonl"
    entry = json.loads(path.read_text().splitlines()[0])
    entry["value"]["count"] = 13
    path.write_text(json.dumps(entry) + "\n")
    code, _, err = run(capsys, *args, "--verify-cache")
    assert code == 1
    assert "cache verification failed" in err


def test_cache_env_var_and_no_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LATINPAT_CACHE_DIR", str(tmp_path))
    run(capsys, "count", "--order", "3", "--jobs", "1")
    assert (tmp_path / "cache.jsonl").exists()

    before = (tmp_path / "cache.jsonl").read_text()
    run(capsys, "count", "--order", "2", "--jobs", "1", "--no-cache")
    assert (tmp_path / "cache.jsonl").read_text() == before


def test_cache_entry_from_an_older_engine_is_recomputed(tmp_path, capsys):
    # an entry in the key layout that had no engine version, holding the
    # old engine's nodes_explored, must not be served as a hit
    digest = hashlib.sha256(json.dumps(EMPTY_SPEC.to_dict(), sort_keys=True).encode()).hexdigest()
    stale = {"count": 12, "nodes_explored": 1, "order": 3, "spec": EMPTY_SPEC.to_dict()}
    cli.CacheStore(tmp_path).store({"op": "count", "order": 3, "spec": digest}, stale)
    code, out, _ = run(capsys, "count", "--order", "3", "--jobs", "1", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out) == count_squares(3).to_dict()
    assert json.loads(out)["nodes_explored"] != 1


def _stale_engine_entry_is_recomputed(tmp_path, capsys, engine, nodes):
    # an order-3 count stored by an older engine is recomputed, and the fresh
    # entry is stored under the current engine and served from then on
    digest = hashlib.sha256(json.dumps(EMPTY_SPEC.to_dict(), sort_keys=True).encode()).hexdigest()
    stale = {"count": 12, "nodes_explored": nodes, "order": 3, "spec": EMPTY_SPEC.to_dict()}
    cli.CacheStore(tmp_path).store({"engine": engine, "op": "count", "order": 3, "spec": digest}, stale)
    code, out, _ = run(capsys, "count", "--order", "3", "--jobs", "1", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["nodes_explored"] == 25
    assert run(capsys, "count", "--order", "3", "--jobs", "1", "--cache-dir", str(tmp_path))[1] == out
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 2


def test_engine_4_count_entry_is_recomputed(tmp_path, capsys):
    # engine 4 weighted each key's row search by the partial squares
    # reaching it (93 nodes at order 3)
    _stale_engine_entry_is_recomputed(tmp_path, capsys, 4, 93)


def test_engine_5_count_entry_is_recomputed(tmp_path, capsys):
    # engine 5 swept ordered keys (75 nodes at order 3); engine 6 sweeps
    # one key per column-order class (25 nodes)
    _stale_engine_entry_is_recomputed(tmp_path, capsys, 5, 75)


@pytest.mark.parametrize("key, argv", [
    ({"op": "wilf", "length": 3, "order": 3, "mode": "filter"}, ["wilf", "--length", "3", "--order", "3"]),
    ({"op": "lambda-exhaustive", "order": 3}, ["lambda", "--order", "3", "--exhaustive"]),
], ids=["wilf", "lambda"])
def test_unversioned_entry_is_recomputed(tmp_path, capsys, key, argv):
    # the key layout before every key carried the engine version
    cli.CacheStore(tmp_path).store(key, {"stale": True})
    argv = argv + ["--jobs", "1"]
    _, fresh, _ = run(capsys, *argv, "--no-cache")
    code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == fresh
    assert "stale" not in out


def test_cache_respects_spec_digest(tmp_path, capsys):
    run(capsys, "count", "--order", "4", "--avoid", "123", "--jobs", "1",
        "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, "count", "--order", "4", "--avoid", "321", "--jobs", "1",
                       "--cache-dir", str(tmp_path))
    assert json.loads(out)["count"] == 4
    lines = (tmp_path / "cache.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2  # different specs cache separately


@pytest.mark.parametrize("argv", [
    ["count", "--order", "3"],
    ["wilf", "--length", "3", "--order", "3"],
    ["lambda", "--order", "3", "--exhaustive"],
], ids=["count", "wilf", "lambda"])
def test_cache_hit_prints_the_computed_bytes(tmp_path, capsys, argv):
    # a hit is the stored dict with its keys sorted, so in every format it
    # must print as the miss that stored it did
    for fmt in ("json", "csv", "table"):
        args = argv + ["--jobs", "1", "--format", fmt]
        _, fresh, _ = run(capsys, *args, "--no-cache")
        _, miss, _ = run(capsys, *args, "--cache-dir", str(tmp_path / fmt))
        code, hit, err = run(capsys, *args, "--cache-dir", str(tmp_path / fmt))
        assert code == 0 and err == ""
        assert hit == miss == fresh, fmt
        assert len((tmp_path / fmt / "cache.jsonl").read_text().splitlines()) == 1


DIGEST = "ab" * 32
COUNT_1 = {"engine": 2, "op": "count", "order": 1, "spec": DIGEST}
COUNT_10 = {"engine": 2, "op": "count", "order": 10, "spec": DIGEST}
COUNT_1_OLD = {"op": "count", "order": 1, "spec": DIGEST}
WILF_1 = {"length": 3, "mode": "filter", "op": "wilf", "order": 1}
WILF_10 = {"length": 3, "mode": "filter", "op": "wilf", "order": 10}
WILF_1_PRUNED = {"length": 3, "mode": "pruned", "op": "wilf", "order": 1}
LAMBDA_1 = {"op": "lambda-exhaustive", "order": 1}
LAMBDA_10 = {"op": "lambda-exhaustive", "order": 10}
ABSENT = {"op": "lambda-exhaustive", "order": 2}
CACHE_KEYS = [COUNT_1, COUNT_10, COUNT_1_OLD, WILF_1, WILF_10, WILF_1_PRUNED, LAMBDA_1, LAMBDA_10, ABSENT]


def _tear(path, nbytes):
    """Cut the file's last nbytes, as a writer that died mid-line leaves it."""
    path.write_bytes(path.read_bytes()[:-nbytes])


def _write_cache(store, steps):
    # ("store", key, value) appends through the store, ("raw", text) appends
    # text as it is, ("tear", n) cuts the last n bytes
    for step in steps:
        if step[0] == "store":
            store.store(step[1], step[2])
        elif step[0] == "raw":
            with store.path.open("a") as fh:
                fh.write(step[1])
        else:
            _tear(store.path, step[1])


# each layout: its steps, and the values some keys must map to
CACHE_LAYOUTS = {
    "missing": ([], [(COUNT_1, None)]),
    "empty": ([("raw", "")], [(COUNT_1, None)]),
    "duplicates": ([
        ("store", COUNT_1, {"v": 1}), ("store", WILF_1, {"v": 2}), ("store", COUNT_1, {"v": 3}),
        ("store", LAMBDA_1, {"v": 4}), ("store", COUNT_1, {"v": 5}), ("store", WILF_1, {"v": 6}),
    ], [(COUNT_1, {"v": 5}), (WILF_1, {"v": 6}), (LAMBDA_1, {"v": 4})]),
    "prefix keys": ([
        ("store", COUNT_10, {"v": 1}), ("store", COUNT_1, {"v": 2}), ("store", COUNT_1_OLD, {"v": 3}),
        ("store", WILF_1, {"v": 4}), ("store", WILF_10, {"v": 5}), ("store", WILF_1_PRUNED, {"v": 6}),
        ("store", LAMBDA_1, {"v": 7}), ("store", LAMBDA_10, {"v": 8}), ("store", COUNT_10, {"v": 9}),
    ], [(COUNT_1, {"v": 2}), (COUNT_10, {"v": 9}), (COUNT_1_OLD, {"v": 3}), (WILF_1, {"v": 4}),
        (WILF_10, {"v": 5}), (WILF_1_PRUNED, {"v": 6}), (LAMBDA_1, {"v": 7}), (LAMBDA_10, {"v": 8})]),
    "blank, garbage and torn": ([
        ("store", COUNT_1, {"v": 1}), ("raw", "\n\n"), ("raw", "not json {\n"),
        ("store", WILF_10, {"v": 2}), ("raw", "   \n"),
        ("raw", '{"key": ' + json.dumps(WILF_10, sort_keys=True) + ', "value": \n'),
        ("store", LAMBDA_1, {"v": 3}), ("store", COUNT_1, {"v": 4}), ("tear", 20),
    ], [(COUNT_1, {"v": 1}), (WILF_10, {"v": 2}), (LAMBDA_1, {"v": 3})]),
}


@pytest.mark.parametrize("layout", list(CACHE_LAYOUTS))
def test_cache_lookup_matches_the_full_parse(tmp_path, layout):
    steps, expected = CACHE_LAYOUTS[layout]
    store = cli.CacheStore(tmp_path)
    _write_cache(store, steps)
    for key in CACHE_KEYS:
        assert store.lookup(key) == naive_cache_lookup(store.path, key), key
    for key, value in expected:
        assert store.lookup(key) == value, key


def test_cache_lookup_serves_only_lines_in_the_stored_form(tmp_path):
    # hand-edited lines that a full parse would read; the lookup leaves them
    # to be recomputed
    store = cli.CacheStore(tmp_path)
    stored_form = json.dumps({"key": COUNT_1, "value": {"v": 4}}, sort_keys=True)
    store.path.write_text("\n".join([
        json.dumps({"value": {"v": 1}, "key": COUNT_1}),
        "  " + json.dumps({"key": COUNT_1, "value": {"v": 2}}, sort_keys=True),
        json.dumps({"key": COUNT_1, "value": {"v": 3}}, sort_keys=True, separators=(",", ":")),
        "xx" + stored_form,
        stored_form.replace(', "value"', ', "key": ' + json.dumps(COUNT_10, sort_keys=True) + ', "value"'),
    ]) + "\n")
    assert naive_cache_lookup(store.path, COUNT_1) == {"v": 3}
    assert naive_cache_lookup(store.path, COUNT_10) == {"v": 4}
    assert store.lookup(COUNT_1) is None
    assert store.lookup(COUNT_10) is None


def test_cache_hit_parses_only_its_own_line(tmp_path, monkeypatch):
    store = cli.CacheStore(tmp_path)
    for order in range(1000):
        store.store({"op": "lambda-exhaustive", "order": order}, {"v": order})
    parsed = []
    loads = json.loads

    def counting_loads(*a, **kw):
        parsed.append(a[0])
        return loads(*a, **kw)

    monkeypatch.setattr(cli.json, "loads", counting_loads)
    assert store.lookup({"op": "lambda-exhaustive", "order": 500}) == {"v": 500}
    assert len(parsed) == 1


def test_store_after_a_torn_last_line_starts_a_new_line(tmp_path, capsys):
    store = cli.CacheStore(tmp_path)
    store.store(COUNT_1, {"v": 1})
    _tear(store.path, 20)
    store.store(WILF_1, {"v": 2})
    assert store.path.read_bytes().endswith(b"\n")
    assert store.lookup(WILF_1) == {"v": 2}
    assert store.lookup(COUNT_1) is None
    assert capsys.readouterr().err == "cache: skipped 1 unreadable entries for this key\n"


def test_unreadable_entries_are_reported_and_never_served(tmp_path, capsys):
    args = ["count", "--order", "3", "--jobs", "1", "--cache-dir", str(tmp_path)]
    _, first, _ = run(capsys, *args)
    path = tmp_path / "cache.jsonl"
    entry = path.read_bytes()
    damaged = entry.replace(b'"count": 12', b'"count": 13')
    assert damaged != entry
    path.write_bytes(entry + damaged[:-30] + b"\n" + damaged[:-20])
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out == first
    assert err == "cache: skipped 2 unreadable entries for this key\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

JOBS_COMMANDS = [
    ["count", "--order", "3"],
    ["enumerate", "--order", "3"],
    ["lambda", "--order", "4", "--exhaustive", "--no-cache"],
    ["lambda", "--order", "4", "--bounds"],
    ["wilf", "--length", "3", "--order", "3", "--no-cache"],
    ["verify", "theorem6", "--order", "3"],
]


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_invalid(capsys, jobs):
    for argv in JOBS_COMMANDS:
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert (code, out) == (2, ""), argv
        assert "jobs" in err, argv


def test_lambda_exhaustive_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("lambda --exhaustive started a worker process")

    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    code, out, _ = run(capsys, "lambda", "--order", "5", "--exhaustive", "--jobs", "2", "--no-cache")
    assert code == 0
    assert json.loads(out)["exact_value"] == 3


def test_count_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("count started a worker process")

    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    code, out, _ = run(capsys, "count", "--order", "5", "--avoid", "1234", "--jobs", "2", "--no-cache")
    assert code == 0
    assert json.loads(out)["count"] == 26928


def test_wilf_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("wilf started a worker process")

    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "wilf", "--length", "4", "--order", "5", "--jobs", jobs, "--no-cache")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["num_classes"] == 8


def test_enumerate_refusal_starts_no_process(capsys, monkeypatch):
    # an order-7 walk is sized by its sweep before any worker starts
    def no_pool(*args, **kwargs):
        raise AssertionError("enumerate started a worker process")

    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    code, out, err = run(capsys, "enumerate", "--order", "7", "--jobs", "2")
    assert (code, out) == (3, "")
    assert "bound" in err


def test_cli_import_loads_no_process_modules():
    # map_tasks imports multiprocessing and socket where it starts workers,
    # so a run that starts none does not load them
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, latinpat.cli; print(sorted({'multiprocessing', 'socket'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enumerate_into_closed_pipe_exits_quietly(jobs):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "latinpat", "enumerate", "--order", "5", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert json.loads(first)["order"] == 5


KILLED_WORKER = """
import os, sys
import dying
from latinpat import cli, enumeration
os.cpu_count = lambda: 2
enumeration._render_worker = dying.render_worker
sys.exit(cli.main(["enumerate", "--order", "4", "--jobs", "2"]))
"""


def test_killed_worker_exits_1(tmp_path):
    # every task but the first kills its worker process once it has sent
    # the task's index: task 0's lines are written, then task 1's worker is
    # found dead, an error that names its exit code and never a hang; the
    # timeout turns a hang into a failure
    (tmp_path / "dying.py").write_text(
        "import os, signal\n"
        "from latinpat.enumeration import _render_worker\n\n"
        "def render_worker(first_row, automata, render):\n"
        "    if first_row != (1, 2, 3, 4):\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return _render_worker(first_row, automata, render)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tmp_path)])}
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.count(b"\n") == 24
    assert b"exited with code -9" in proc.stderr


def test_json_square_without_grid_is_invalid(tmp_path, capsys):
    f = tmp_path / "sq.json"
    f.write_text(json.dumps({"order": 2}))
    code, _, err = run(capsys, "check", "--square", str(f), "--pattern", "12")
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize("grid", [
    5, [[1, 2], [2, None]], [1, 2], [[1.5, 2], [2, 1]], ["12", "21"], [[True, 2], [2, 1]],
])
def test_json_square_with_malformed_grid_is_invalid(tmp_path, capsys, grid):
    f = tmp_path / "sq.json"
    f.write_text(json.dumps({"grid": grid}))
    code, _, err = run(capsys, "check", "--square", str(f), "--pattern", "12")
    assert code == 2
    assert "grid" in err


def test_internal_key_error_is_not_invalid_input(capsys, monkeypatch):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_verify", broken)
    code, _, err = run(capsys, "verify", "es", "--p", "1", "--q", "1")
    assert code == 1
    assert "internal error" in err


# ---------------------------------------------------------------------------
# stdout goldens, recorded before the renderers were merged; tables since
# walk every dict in sorted key order
# ---------------------------------------------------------------------------

GOLDEN = {
    ("count", "--order", "3", "--format", "json"):
        '{"count": 12, "nodes_explored": 25, "order": 3, "spec": {"cols": [], "rows": [], "symbols": []}}\n',
    ("count", "--order", "3", "--format", "csv"):
        "order,count,nodes_explored\n3,12,25\n",
    ("count", "--order", "3", "--format", "table"):
        "count: 12\nnodes_explored: 25\norder: 3\nspec:\n  cols:\n  rows:\n  symbols:\n",
    ("wilf", "--length", "3", "--order", "4", "--format", "json"):
        '{"classes": [{"count": 4, "patterns": ["123", "132", "213", "231", "312", "321"]}], '
        '"counts": {"123": 4, "132": 4, "213": 4, "231": 4, "312": 4, "321": 4}, '
        '"mode": "filter", "num_classes": 1, "order": 4, "pattern_length": 3}\n',
    ("wilf", "--length", "3", "--order", "4", "--format", "csv"):
        "pattern,count,class_id\n123,4,1\n132,4,1\n213,4,1\n231,4,1\n312,4,1\n321,4,1\n",
    ("wilf", "--length", "3", "--order", "4", "--format", "table"):
        "classes:\n    count: 4\n    patterns:\n"
        "      - 123\n      - 132\n      - 213\n      - 231\n      - 312\n      - 321\n"
        "counts:\n  123: 4\n  132: 4\n  213: 4\n  231: 4\n  312: 4\n  321: 4\n"
        "mode: filter\nnum_classes: 1\norder: 4\npattern_length: 3\n",
    ("lambda", "--order", "3", "--exhaustive", "--format", "json"):
        '{"exact_value": 3, "lower_bound": 2, "method": "exhaustive", "order": 3, '
        '"witness": {"grid": [[1, 2, 3], [2, 3, 1], [3, 1, 2]], "order": 3}, "witness_cap": 3}\n',
    ("lambda", "--order", "3", "--exhaustive", "--format", "csv"):
        "order,lower_bound,exact_value,witness_cap,method\n3,2,3,3,exhaustive\n",
    ("lambda", "--order", "3", "--exhaustive", "--format", "table"):
        "exact_value: 3\nlower_bound: 2\nmethod: exhaustive\norder: 3\n"
        "witness:\n  grid:\n    1 2 3\n    2 3 1\n    3 1 2\n  order: 3\nwitness_cap: 3\n",
    ("lambda", "--order", "9", "--bounds", "--format", "csv"):
        "order,lower_bound,exact_value,witness_cap,method\n9,4,4,4,witness-capped\n",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_golden(capsys, argv, jobs):
    code, out, _ = run(capsys, *argv, "--jobs", jobs)
    assert code == 0
    assert out == GOLDEN[argv]


def test_check_and_rect_check_table_golden(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    sq.write_text(serialize_square(connolly_square(3)))
    rect = tmp_path / "rect.txt"
    rect.write_text("3 4 2\n1 3 4\n")
    code, out, _ = run(capsys, "check", "--square", str(sq), "--pattern", "123", "--format", "table")
    assert code == 0
    assert out == (
        "contained: True\norder: 9\npattern: 123\nwitness:\n  line_index: 1\n"
        "  line_kind: row\n  positions:\n    - 1\n    - 2\n    - 3\n"
    )
    code, out, _ = run(
        capsys, "rect-check", "--square", str(sq), "--rectangle", str(rect), "--format", "table"
    )
    assert code == 0
    assert out == (
        "contained: True\norder: 9\npattern_cols: 3\npattern_rows: 2\nwitness:\n"
        "  cols:\n    - 1\n    - 5\n    - 9\n  rows:\n    - 2\n    - 7\n"
    )
