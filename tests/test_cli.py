import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latinpat import cli
from latinpat.cli import main
from latinpat.construct import connolly_square
from latinpat.square import serialize_square


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
    code, _, err = run(capsys, "count", "--order", "7", "--jobs", "1")
    assert code == 3
    assert "bound" in err


def test_count_progress_lines(capsys):
    code, _, err = run(
        capsys, "count", "--order", "3", "--jobs", "1", "--progress", "json"
    )
    assert code == 0
    events = [json.loads(line) for line in err.strip().splitlines()]
    assert events[-1]["tasks_done"] == events[-1]["tasks_total"] == 6


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


def test_enumerate_with_spec(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "4", "--avoid", "123", "--jobs", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


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


def test_lambda_exhaustive_refusal(capsys):
    assert run(capsys, "lambda", "--order", "6", "--exhaustive")[0] == 3


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
    assert run(capsys, "wilf", "--length", "4", "--order", "6")[0] == 3


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
    assert "tool_version" in entry and "timestamp" in entry


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


def test_cache_respects_spec_digest(tmp_path, capsys):
    run(capsys, "count", "--order", "4", "--avoid", "123", "--jobs", "1",
        "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, "count", "--order", "4", "--avoid", "321", "--jobs", "1",
                       "--cache-dir", str(tmp_path))
    assert json.loads(out)["count"] == 4
    lines = (tmp_path / "cache.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2  # different specs cache separately


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_invalid(capsys, jobs):
    code, out, err = run(capsys, "count", "--order", "3", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "jobs" in err


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


def test_json_square_without_grid_is_invalid(tmp_path, capsys):
    f = tmp_path / "sq.json"
    f.write_text(json.dumps({"order": 2}))
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
# stdout goldens, recorded before the renderers were merged
# ---------------------------------------------------------------------------

GOLDEN = {
    ("count", "--order", "3", "--format", "json"):
        '{"count": 12, "nodes_explored": 111, "order": 3, "spec": {"cols": [], "rows": [], "symbols": []}}\n',
    ("count", "--order", "3", "--format", "csv"):
        "order,count,nodes_explored\n3,12,111\n",
    ("count", "--order", "3", "--format", "table"):
        "order: 3\nspec:\n  rows:\n  cols:\n  symbols:\ncount: 12\nnodes_explored: 111\n",
    ("wilf", "--length", "3", "--order", "4", "--format", "json"):
        '{"classes": [{"count": 4, "patterns": ["123", "132", "213", "231", "312", "321"]}], '
        '"counts": {"123": 4, "132": 4, "213": 4, "231": 4, "312": 4, "321": 4}, '
        '"mode": "filter", "num_classes": 1, "order": 4, "pattern_length": 3}\n',
    ("wilf", "--length", "3", "--order", "4", "--format", "csv"):
        "pattern,count,class_id\n123,4,1\n132,4,1\n213,4,1\n231,4,1\n312,4,1\n321,4,1\n",
    ("wilf", "--length", "3", "--order", "4", "--format", "table"):
        "pattern_length: 3\norder: 4\nmode: filter\nnum_classes: 1\ncounts:\n"
        "  123: 4\n  132: 4\n  213: 4\n  231: 4\n  312: 4\n  321: 4\n"
        "classes:\n    count: 4\n    patterns:\n"
        "      - 123\n      - 132\n      - 213\n      - 231\n      - 312\n      - 321\n",
    ("lambda", "--order", "3", "--exhaustive", "--format", "json"):
        '{"exact_value": 3, "lower_bound": 2, "method": "exhaustive", "order": 3, '
        '"witness": {"grid": [[1, 2, 3], [2, 3, 1], [3, 1, 2]], "order": 3}, "witness_cap": 3}\n',
    ("lambda", "--order", "3", "--exhaustive", "--format", "csv"):
        "order,lower_bound,exact_value,witness_cap,method\n3,2,3,3,exhaustive\n",
    ("lambda", "--order", "3", "--exhaustive", "--format", "table"):
        "order: 3\nlower_bound: 2\nexact_value: 3\nwitness_cap: 3\nmethod: exhaustive\n"
        "witness:\n  order: 3\n  grid:\n    1 2 3\n    2 3 1\n    3 1 2\n",
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
        "order: 9\npattern: 123\ncontained: True\nwitness:\n  line_kind: row\n"
        "  line_index: 1\n  positions:\n    - 1\n    - 2\n    - 3\n"
    )
    code, out, _ = run(
        capsys, "rect-check", "--square", str(sq), "--rectangle", str(rect), "--format", "table"
    )
    assert code == 0
    assert out == (
        "order: 9\npattern_rows: 2\npattern_cols: 3\ncontained: True\nwitness:\n"
        "  rows:\n    - 2\n    - 7\n  cols:\n    - 1\n    - 5\n    - 9\n"
    )
