import json
import math

import pytest

from latinpat import analysis
from latinpat.analysis import (
    column_avoider_count,
    compute_lambda_exhaustive,
    full_length_count,
    lambda_bound_report,
    lambda_lower_bound,
    verify_cyclic_structure,
    verify_erdos_szekeres,
    verify_full_length_counts,
    verify_triple_containment,
    wilf_classes,
)
from latinpat.cli import _lambda_csv, _wilf_csv, main
from latinpat.construct import connolly_square
from latinpat.enumeration import FeasibilityError, count_reduced_squares
from latinpat.perm import longest_monotone
from latinpat.square import LatinSquare, latin_square, max_monotone, square_to_json

from conftest import (
    S3,
    naive_contains,
    naive_length3_avoiders,
    naive_minimax,
    naive_triple_containment,
    naive_wilf_counts,
)


def brute_lower_bound(n):
    m = 2
    while m * (m - 1) + 2 <= n:
        m += 1
    return m


# ---------------------------------------------------------------------------
# monotone lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_values():
    assert lambda_lower_bound(2) == 2
    assert lambda_lower_bound(4) == 3
    assert lambda_lower_bound(9) == 4
    assert lambda_lower_bound(16) == 5
    with pytest.raises(ValueError):
        lambda_lower_bound(1)


def test_lower_bound_matches_inversion_small_range():
    for n in range(2, 10_001):
        assert lambda_lower_bound(n) == brute_lower_bound(n)


# ---------------------------------------------------------------------------
# exhaustive minimax
# ---------------------------------------------------------------------------

def test_lambda_exhaustive_small_orders():
    for n, expected in [(1, 1), (2, 2), (3, 3), (4, 3)]:
        report = compute_lambda_exhaustive(n)
        assert report["exact_value"] == report["witness_cap"] == expected
        assert report["method"] == "exhaustive"
        assert max_monotone(LatinSquare(report["witness"]["grid"])) == expected
        if n >= 2:
            assert report["exact_value"] >= report["lower_bound"]


def test_lambda_exhaustive_bound_is_not_tight_at_3():
    report = compute_lambda_exhaustive(3)
    assert report["lower_bound"] == 2
    assert report["exact_value"] == 3


def test_lambda_exhaustive_bound_tight_at_4():
    report = compute_lambda_exhaustive(4)
    assert report["lower_bound"] == 3
    assert report["exact_value"] == 3


def test_lambda_exhaustive_refuses_large_order(budgets):
    # order 7 is sized; with the budgets cut to 10,000 it is refused at
    # once (with the real budgets, at m = 4, about 10 s in)
    budgets(10_000)
    with pytest.raises(FeasibilityError):
        compute_lambda_exhaustive(7)


def test_lambda_exhaustive_order6():
    # order 6 runs unsized: λ(6) = 3, the lower bound
    report = compute_lambda_exhaustive(6)
    assert (report["lower_bound"], report["exact_value"]) == (3, 3)
    assert max_monotone(LatinSquare(report["witness"]["grid"])) == 3


def _cli_lambda(capsys, n, jobs):
    # stdout of the CLI's lambda --exhaustive, which searches serially at any --jobs
    assert main(["lambda", "--order", str(n), "--exhaustive", "--jobs", str(jobs), "--no-cache"]) == 0
    return capsys.readouterr().out


def _value_and_witness(report):
    return report["exact_value"], tuple(map(tuple, report["witness"]["grid"]))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lambda_exhaustive_matches_naive_minimax(capsys, n, jobs):
    assert _value_and_witness(compute_lambda_exhaustive(n)) == naive_minimax(n)
    assert _value_and_witness(json.loads(_cli_lambda(capsys, n, jobs))) == naive_minimax(n)


# The lexicographically first order-5 square with no line monotone beyond 3,
# recorded from the full leaf scan over all 161280 squares; naive_minimax(5)
# confirms it but takes most of a minute.
LAMBDA_5_WITNESS = ((1, 2, 5, 4, 3), (3, 1, 4, 5, 2), (5, 3, 1, 2, 4), (4, 5, 2, 3, 1), (2, 4, 3, 1, 5))


@pytest.mark.parametrize("jobs", [1, 2])
def test_lambda_exhaustive_order5_witness(capsys, jobs):
    assert _value_and_witness(compute_lambda_exhaustive(5)) == (3, LAMBDA_5_WITNESS)
    assert _value_and_witness(json.loads(_cli_lambda(capsys, 5, jobs))) == (3, LAMBDA_5_WITNESS)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lambda_exhaustive_json_same_for_jobs(capsys, n):
    want = json.dumps(compute_lambda_exhaustive(n), sort_keys=True) + "\n"
    assert _cli_lambda(capsys, n, 1) == _cli_lambda(capsys, n, 2) == want


@pytest.mark.parametrize("n, value", [(2, 2), (3, 3), (4, 3), (5, 3)])
def test_lambda_exhaustive_checks_the_lower_bound(monkeypatch, n, value):
    monkeypatch.setattr(analysis, "lambda_lower_bound", lambda order: value + 1)
    with pytest.raises(AssertionError, match="below the proven lower bound"):
        compute_lambda_exhaustive(n)


# ---------------------------------------------------------------------------
# witness caps and bound reports
# ---------------------------------------------------------------------------

def test_witness_caps():
    assert max_monotone(connolly_square(3)) == 4
    assert max_monotone(connolly_square(4)) == 5
    assert max_monotone(latin_square([[1, 2], [2, 1]])) == 2


def test_bound_report_perfect_squares():
    for root in (2, 3, 4):
        report = lambda_bound_report(root * root)
        assert report["method"] == "witness-capped"
        assert report["lower_bound"] == root + 1
        assert report["exact_value"] == root + 1
        assert report["witness_cap"] == root + 1
        assert report["witness"] == square_to_json(connolly_square(root))


def test_bound_report_non_square():
    report = lambda_bound_report(10)
    assert report["method"] == "bound-only"
    assert report["lower_bound"] == 4
    assert report["exact_value"] is None
    assert report["witness_cap"] is None
    assert report["witness"] is None


def test_four_extremal_lines_reach_bound(squares3, squares4):
    # the row/column starting with n and the row/column starting with 1 all
    # carry a monotone run of the guaranteed length
    from conftest import collect_squares

    for squares in (collect_squares(2), squares3, squares4):
        n = squares[0].order
        m = lambda_lower_bound(n)
        for sq in squares:
            lines = []
            for anchor in (1, n):
                lines.append(next(r for r in sq.grid if r[0] == anchor))
                lines.append(next(c for c in zip(*sq.grid) if c[0] == anchor))
            assert all(longest_monotone(line) >= m for line in lines)


# ---------------------------------------------------------------------------
# full-length counting formulas
# ---------------------------------------------------------------------------

def test_full_length_count_small():
    assert full_length_count(1) == 0
    assert full_length_count(2) == 0
    assert full_length_count(3) == 3  # (6-3)^2/36 * 12
    assert full_length_count(4) == 400


def test_full_length_count_with_supplied_total():
    # totals may come from a cache instead of a fresh enumeration
    assert full_length_count(5, total=161280) == 148120
    assert column_avoider_count(5, total=161280) == 154560
    assert column_avoider_count(4) == 480


def _squared_factor_count(n, total):
    # Theorem 6's closed form as one division: ((n!-n)/n!)^2 * total
    fact = math.factorial(n)
    q, r = divmod((fact - n) ** 2 * total, fact * fact)
    if r:
        raise ArithmeticError(f"not an integer at n={n}")
    return q


@pytest.mark.parametrize("n, total", [(1, 1), (2, 2), (3, 12), (4, 576), (5, 161_280), (6, 812_851_200)])
def test_full_length_count_closed_form(n, total):
    assert full_length_count(n, total) == _squared_factor_count(n, total)


def test_full_length_count_divides_like_the_squared_factor():
    # applying (n!-n)/n! twice divides exactly on the same totals as its square
    for n in (3, 4, 5, 6):
        for total in range(1200):
            try:
                expected = _squared_factor_count(n, total)
            except ArithmeticError:
                with pytest.raises(ArithmeticError):
                    full_length_count(n, total)
            else:
                assert full_length_count(n, total) == expected
    with pytest.raises(ArithmeticError):
        column_avoider_count(3, 1)
    with pytest.raises(ArithmeticError):
        full_length_count(3, 1)


def test_verify_full_length_counts():
    for n in (2, 3, 4):
        report = verify_full_length_counts(n)
        assert report["ok"], report
    r4 = verify_full_length_counts(4, patterns=[(1, 2, 3, 4)])
    check = r4["checks"][0]
    assert check["column_avoiders"] == 480
    assert check["full_avoiders"] == 400


def test_verify_full_length_rejects_short_pattern():
    with pytest.raises(ValueError):
        verify_full_length_counts(4, patterns=[(1, 2, 3)])


# ---------------------------------------------------------------------------
# Wilf classes
# ---------------------------------------------------------------------------

def test_wilf_length3_order4_single_class():
    report = wilf_classes(3, 4)
    assert report["num_classes"] == len(report["classes"]) == 1
    assert report["classes"][0]["count"] == 4
    assert len(report["classes"][0]["patterns"]) == 6


def test_wilf_filter_matches_pruned():
    f = wilf_classes(3, 4, mode="filter")
    p = wilf_classes(3, 4, mode="pruned")
    assert f["counts"] == p["counts"]
    f4 = wilf_classes(4, 4, mode="filter")
    p4 = wilf_classes(4, 4, mode="pruned")
    assert f4["counts"] == p4["counts"]
    assert set(f4["counts"].values()) == {400}
    f35 = wilf_classes(3, 5, mode="filter")
    assert f35["counts"] == wilf_classes(3, 5, mode="pruned")["counts"]
    assert set(f35["counts"].values()) == {5}
    f45 = wilf_classes(4, 5, mode="filter")
    assert f45["counts"] == wilf_classes(4, 5, mode="pruned")["counts"]
    assert len(f45["classes"]) == 8
    # patterns longer than the order: the filter scan gives them the full count
    for k, n, total in ((4, 3, 12), (5, 4, 576)):
        f = wilf_classes(k, n, mode="filter", force=True)
        p = wilf_classes(k, n, mode="pruned", force=True)
        assert f["counts"] == p["counts"]
        assert set(f["counts"].values()) == {total}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_wilf_filter_matches_naive_oracle(k, n):
    # each pattern's count from every square, against the filter's count
    # from the reduced squares times their row and column orders
    naive = {"".join(map(str, p)): c for p, c in naive_wilf_counts(k, n).items()}
    assert wilf_classes(k, n, mode="filter", force=True)["counts"] == naive


def test_wilf_filter_streams_its_reduced_squares(monkeypatch):
    # the filter builds a line's bitsets when a square first needs them, so
    # squares are still being generated after the first line's bitsets
    calls = []
    avoiding_orders = analysis._avoiding_orders
    reduced_squares = analysis.reduced_squares

    def counting(*args):
        calls.append(None)
        return avoiding_orders(*args)

    requested_after = []

    def recording(n, force=False):
        for g in reduced_squares(n, force):
            requested_after.append(len(calls))
            yield g

    monkeypatch.setattr(analysis, "_avoiding_orders", counting)
    monkeypatch.setattr(analysis, "reduced_squares", recording)
    report = wilf_classes(4, 5)
    assert len(requested_after) == 56 and report["num_classes"] == 8
    assert max(requested_after) > 0


def test_wilf_pattern_longer_than_order():
    report = wilf_classes(4, 3)
    assert set(report["counts"].values()) == {12}
    assert len(report["classes"]) == 1


def test_wilf_trivial_pattern():
    report = wilf_classes(1, 3)
    assert report["counts"] == {"1": 0}


def test_wilf_feasibility_box():
    # the filter's reduced-square search cannot be sized, so it stops at
    # order 6; pruned mode's counts are sized, and order 7 passes their
    # budgets; both modes stop at pattern length 4
    assert wilf_classes(4, 6)["counts"]["1234"] == 4283222
    for mode in ("filter", "pruned"):
        with pytest.raises(FeasibilityError):
            wilf_classes(4, 7, mode=mode)
        with pytest.raises(FeasibilityError):
            wilf_classes(5, 5, mode=mode)


def test_wilf_report_serialization():
    report = wilf_classes(3, 4)
    assert report["num_classes"] == 1
    assert report["counts"]["123"] == 4
    lines = _wilf_csv(report).strip().split("\n")
    assert lines[0] == "pattern,count,class_id"
    assert "123,4,1" in lines


# ---------------------------------------------------------------------------
# structural verifications
# ---------------------------------------------------------------------------

def test_triple_containment_small_orders():
    for n in (2, 3, 4):
        report = verify_triple_containment(n)
        assert report["ok"], report
        assert report["violations"] == []


def test_triple_containment_reports_a_split_triple(monkeypatch):
    # no square splits a triple, so fake a containment test that finds 123
    # and 132 alone: each square then splits both triples
    monkeypatch.setattr(analysis.perm, "contains", lambda line, p: p in {(1, 2, 3), (1, 3, 2)})
    report = verify_triple_containment(3)
    assert report["squares"] == 12 and not report["ok"]
    assert [v["flags"] for v in report["violations"]] == [[1, 0, 0], [1, 0, 0]] * 2 + [[1, 0, 0]]
    assert report["violations"][0]["grid"] == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_triple_containment_matches_naive_oracle(n):
    assert verify_triple_containment(n) == naive_triple_containment(n)


def test_triple_containment_counts_all_order5_squares():
    # the total comes from the sweep; check it against the reduced-square search
    report = verify_triple_containment(5)
    assert report["squares"] == 120 * 24 * count_reduced_squares(5)
    assert report["ok"] and report["violations"] == []


def test_triple_containment_tests_candidates_in_order_once(monkeypatch):
    # fake a containment test that finds 123 and 321 alone: every square
    # then splits both triples, so the report shows which squares were
    # tested, in what order, and how often
    monkeypatch.setattr(analysis.perm, "contains", lambda line, p: p in {(1, 2, 3), (3, 2, 1)})
    candidates = naive_length3_avoiders(4)
    assert len(candidates) == 8
    # the first candidates avoid several patterns each, so a union without
    # dedupe would list them more than once per triple
    assert all(
        sum(not any(naive_contains(line, p) for line in g + tuple(zip(*g))) for p in S3) > 1
        for g in candidates[:3]
    )
    report = verify_triple_containment(4)
    assert report["squares"] == 576 and not report["ok"]
    grids = [tuple(map(tuple, v["grid"])) for v in report["violations"]]
    assert grids == [candidates[0]] * 2 + [candidates[1]] * 2 + [candidates[2]]
    assert [v["flags"] for v in report["violations"]] == [[1, 0, 0], [0, 0, 1]] * 2 + [[1, 0, 0]]


def test_cyclic_structure():
    for n in (2, 3, 4, 5):
        report = verify_cyclic_structure(n)
        assert report["ok"], report
        assert report["count"] == n


def test_verify_erdos_szekeres():
    assert verify_erdos_szekeres(2, 2)["ok"]
    assert verify_erdos_szekeres(2, 3)["ok"]
    assert verify_erdos_szekeres(1, 1)["ok"]
    with pytest.raises(FeasibilityError):
        verify_erdos_szekeres(3, 3)
    with pytest.raises(ValueError):
        verify_erdos_szekeres(0, 2)


def test_lambda_report_serialization():
    report = compute_lambda_exhaustive(3)
    assert report["exact_value"] == 3
    assert report["witness"]["order"] == 3
    assert _lambda_csv(lambda_bound_report(9)).splitlines()[1] == "9,4,4,4,witness-capped"
