"""
Acceptance suite: every exit criterion for the artifact, one test per
criterion, each printing a PASS line (run with `pytest -v -s` to see them).

All tolerances are exact.  Derived golden values are computed by the
library's independent slow paths (reduced-square search, filter-vs-pruned
double counting, brute-force oracles) before being asserted, or were frozen
from a committed derivation script (demos/derive_lambda5.py).
"""
import math
import subprocess
import sys

from latinpat import perm
from latinpat.analysis import (
    compute_lambda_exhaustive,
    full_length_count,
    lambda_lower_bound,
    verify_triple_containment,
    wilf_classes,
)
from latinpat.construct import (
    all_s3_avoiders,
    avoider_complement_map,
    avoider_reverse_map,
    complete_columns_avoiding,
    connolly_square,
)
from latinpat.enumeration import (
    Automata,
    _run_search,
    count_reduced_squares,
    count_squares,
)
from latinpat.perm import count_avoiding_permutations
from latinpat.rectpat import contains_rectangle
from latinpat.square import (
    EMPTY_SPEC,
    AvoidanceSpec,
    LatinSquare,
    avoids_spec,
    latin_rectangle,
    max_monotone,
    serialize_square,
)

from conftest import S3, S4, collect_squares, naive_contains, perms

# Derived by demos/derive_lambda5.py (pruned existence search: no order-5
# square avoids 123 and 321 in every line, and one avoids 1234 and 4321);
# certified below by the proven lower bound plus a witness.
LAMBDA_5 = 3

# Avoider counts for the eight pattern classes of length 4 at order 5,
# derived by the one-pass filter count and cross-validated against three
# independent pruned searches in this test.
WILF5_GOLDEN = {
    frozenset({(2, 4, 1, 3), (3, 1, 4, 2)}): 27797,
    frozenset({(2, 1, 4, 3), (3, 4, 1, 2)}): 27067,
    frozenset({(1, 2, 3, 4), (4, 3, 2, 1)}): 26928,
    frozenset({(1, 4, 3, 2), (2, 3, 4, 1), (3, 2, 1, 4), (4, 1, 2, 3)}): 26798,
    frozenset({(1, 2, 4, 3), (2, 1, 3, 4), (3, 4, 2, 1), (4, 3, 1, 2)}): 26639,
    frozenset({(1, 3, 4, 2), (2, 4, 3, 1), (3, 1, 2, 4), (4, 2, 1, 3)}): 26616,
    frozenset({(1, 4, 2, 3), (2, 3, 1, 4), (3, 2, 4, 1), (4, 1, 3, 2)}): 26492,
    frozenset({(1, 3, 2, 4), (4, 2, 3, 1)}): 24395,
}

FIGURE_COMPLETION = "2 1 3 4\n1 4 2 3\n4 3 1 2\n3 2 4 1\n"
MODULAR_ORDER9 = (
    "3 6 9 2 5 8 1 4 7\n"
    "6 9 2 5 8 1 4 7 3\n"
    "9 2 5 8 1 4 7 3 6\n"
    "2 5 8 1 4 7 3 6 9\n"
    "5 8 1 4 7 3 6 9 2\n"
    "8 1 4 7 3 6 9 2 5\n"
    "1 4 7 3 6 9 2 5 8\n"
    "4 7 3 6 9 2 5 8 1\n"
    "7 3 6 9 2 5 8 1 4\n"
)


def _ok(name):
    print(f"ACCEPTANCE PASS: {name}")


# ---------------------------------------------------------------------------
# 1. every length-3 pattern admits exactly n avoiders, and they are the
#    constructed cyclic squares
# ---------------------------------------------------------------------------

def test_criterion_1_length3_avoider_counts():
    for q in S3:
        for n in range(2, 7):
            got = count_squares(n, AvoidanceSpec.both(q)).count
            assert got == n, (q, n, got)
    for q in S3:
        for n in range(2, 6):
            enumerated = set(collect_squares(n, AvoidanceSpec.both(q)))
            assert enumerated == set(all_s3_avoiders(n, q)), (q, n)
    _ok("criterion 1: length-3 avoider count is n (n=2..6) and matches the constructions (n<=5)")


# ---------------------------------------------------------------------------
# 2. columns-only avoidance counts n!
# ---------------------------------------------------------------------------

def test_criterion_2_columns_only_factorial():
    for q in S3:
        for n, expected in ((3, 6), (4, 24), (5, 120)):
            got = count_squares(n, AvoidanceSpec.columns_only(q)).count
            assert got == expected, (q, n, got)
    _ok("criterion 2: columns-only avoider count is n! (n=3..5, all length-3 patterns)")


# ---------------------------------------------------------------------------
# 3. unrestricted baselines with the independent reduced-square cross-check
# ---------------------------------------------------------------------------

def test_criterion_3_baseline_counts():
    totals = {n: count_squares(n).count for n in (3, 4, 5)}
    assert totals == {3: 12, 4: 576, 5: 161280}
    reduced = {n: count_reduced_squares(n) for n in (3, 4, 5)}
    assert reduced[4] == 4 and reduced[5] == 56
    for n in (3, 4, 5):
        assert totals[n] == math.factorial(n) * math.factorial(n - 1) * reduced[n]
    _ok("criterion 3: L_3=12, L_4=576, L_5=161280, cross-checked via reduced squares")


# ---------------------------------------------------------------------------
# 4. full-length pattern counting identity
# ---------------------------------------------------------------------------

def test_criterion_4_full_length_identity():
    l4 = count_squares(4).count
    assert count_squares(4, AvoidanceSpec.columns_only((1, 2, 3, 4))).count == 480
    assert (math.factorial(4) - 4) * l4 // math.factorial(4) == 480
    assert count_squares(4, AvoidanceSpec.both((1, 2, 3, 4))).count == 400
    assert full_length_count(4, l4) == 400

    l5 = count_squares(5).count
    assert count_squares(5, AvoidanceSpec.both((1, 2, 3, 4, 5))).count == 148120
    assert full_length_count(5, l5) == 148120

    # one filter sweep confirms every full-length pattern shares that count
    # (the relabeling bijection makes them all equal)
    patterns5 = perms(5)
    bit_of = {p: i for i, p in enumerate(patterns5)}
    contained = [0] * len(patterns5)
    tally = {}
    for g in _run_search(Automata(5, EMPTY_SPEC)):
        mask = 0
        for line in g:
            mask |= 1 << bit_of[line]
        for line in zip(*g):
            mask |= 1 << bit_of[line]
        tally[mask] = tally.get(mask, 0) + 1
    for p, b in bit_of.items():
        avoid = sum(f for m, f in tally.items() if not (m >> b) & 1)
        assert avoid == 148120, p
    _ok("criterion 4: 480/400 at order 4, 148120 at order 5, identical for every full-length pattern")


# ---------------------------------------------------------------------------
# 5. eight classes of length-4 patterns at order 5
# ---------------------------------------------------------------------------

def test_criterion_5_eight_wilf_classes():
    report = wilf_classes(4, 5, mode="filter")
    assert report["num_classes"] == 8
    got = {frozenset(tuple(map(int, p)) for p in c["patterns"]): c["count"] for c in report["classes"]}
    assert got == WILF5_GOLDEN

    # classes are exactly the orbits under reverse/complement, nothing more
    orbits = {perm.symmetry_orbit(p) for p in S4}
    assert set(got) == orbits

    # pruned cross-validation on one representative per extreme class
    for p in ((1, 2, 3, 4), (1, 3, 2, 4), (2, 4, 1, 3)):
        direct = count_squares(5, AvoidanceSpec.both(p)).count
        assert direct == report["counts"]["".join(map(str, p))], p
    _ok("criterion 5: exactly 8 classes at (length 4, order 5), equal to the symmetry orbits")


# ---------------------------------------------------------------------------
# 6. monotone minimax values
# ---------------------------------------------------------------------------

def test_criterion_6_lambda_values():
    assert compute_lambda_exhaustive(2)["exact_value"] == 2
    assert compute_lambda_exhaustive(3)["exact_value"] == 3
    assert compute_lambda_exhaustive(4)["exact_value"] == 3

    report5 = compute_lambda_exhaustive(5)
    assert report5["exact_value"] == LAMBDA_5
    # certification: the proven lower bound meets the witness cap
    assert lambda_lower_bound(5) == LAMBDA_5
    assert max_monotone(LatinSquare(report5["witness"]["grid"])) == LAMBDA_5

    assert lambda_lower_bound(9) == 4 and max_monotone(connolly_square(3)) == 4
    assert lambda_lower_bound(16) == 5 and max_monotone(connolly_square(4)) == 5

    # closed form agrees with the inversion of (m-1)(m-2)+2 <= n everywhere
    m = 2
    for n in range(2, 10**6 + 1):
        while m * (m - 1) + 2 <= n:
            m += 1
        assert lambda_lower_bound(n) == m, n
    _ok("criterion 6: minimax 2,3,3,3 for orders 2..5; 4 and 5 certified at orders 9 and 16; bound inversion to 10^6")


# ---------------------------------------------------------------------------
# 7. figure-level goldens, byte for byte
# ---------------------------------------------------------------------------

def test_criterion_7_goldens():
    built = complete_columns_avoiding((2, 1, 3, 4), (1, 2, 3))
    assert serialize_square(built) == FIGURE_COMPLETION

    modular = connolly_square(3)
    assert serialize_square(modular) == MODULAR_ORDER9

    out = subprocess.run(
        [sys.executable, "-m", "latinpat", "construct", "prop2",
         "--first-row", "2134", "--pattern", "123"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == FIGURE_COMPLETION

    out = subprocess.run(
        [sys.executable, "-m", "latinpat", "construct", "connolly", "--root", "3"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == MODULAR_ORDER9

    witness = contains_rectangle(modular, latin_rectangle([[3, 4, 2], [1, 3, 4]]))
    assert witness == ((2, 7), (1, 5, 9))
    _ok("criterion 7: worked-example goldens reproduced byte for byte, witness rows 2,7 cols 1,5,9")


# ---------------------------------------------------------------------------
# 8. property suites
# ---------------------------------------------------------------------------

def test_criterion_8a_pruned_equals_filtered(squares3, squares4):
    patterns = S3 + S4
    for n, squares in ((3, squares3), (4, squares4)):
        for q in patterns:
            for spec in (AvoidanceSpec.both(q), AvoidanceSpec.columns_only(q)):
                pruned = count_squares(n, spec).count
                filtered = sum(1 for sq in squares if avoids_spec(sq, spec))
                assert pruned == filtered, (n, q, spec)
    _ok("criterion 8a: pruned counts equal filter counts for all length-3/4 patterns, n<=4")


def test_criterion_8b_contains_matches_naive_oracle():
    patterns = [q for k in (1, 2, 3, 4) for q in perms(k)]
    for m in range(1, 8):
        for host in perms(m):
            for q in patterns:
                assert perm.contains(host, q) == naive_contains(host, q), (host, q)
    _ok("criterion 8b: containment agrees with the all-subsequences oracle up to length 7")


def test_criterion_8c_catalan_cross_check():
    expected = [1, 2, 5, 14, 42, 132]
    for q in S3:
        got = [count_avoiding_permutations(m, q) for m in range(1, 7)]
        assert got == expected, q
    _ok("criterion 8c: length-3 avoidance counts are the Catalan numbers for m=1..6")


def test_criterion_8d_triple_containment():
    for n in (2, 3, 4):
        assert verify_triple_containment(n)["ok"]
    _ok("criterion 8d: containment indicators identical within {123,231,312} and {132,213,321}, n<=4")


def test_criterion_8e_bijections_preserve_avoider_sets(squares4):
    for q in S3 + S4:
        spec = AvoidanceSpec.both(q)
        avoiders = {sq for sq in squares4 if avoids_spec(sq, spec)}
        comp_image = {avoider_complement_map(sq) for sq in avoiders}
        rev_image = {avoider_reverse_map(sq) for sq in avoiders}
        comp_target = {
            sq for sq in squares4
            if avoids_spec(sq, AvoidanceSpec.both(perm.complement(q)))
        }
        rev_target = {
            sq for sq in squares4
            if avoids_spec(sq, AvoidanceSpec.both(perm.reverse(q)))
        }
        assert comp_image == comp_target, q
        assert rev_image == rev_target, q
    _ok("criterion 8e: complement and rotation bijections map avoider sets onto avoider sets, n=4")


def test_criterion_8f_jobs_determinism():
    for argv in (
        ["count", "--order", "4", "--avoid", "123"],
        ["count", "--order", "5", "--avoid-cols", "132"],
        ["enumerate", "--order", "4", "--avoid", "123"],
    ):
        outs = []
        for jobs in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "latinpat", *argv, "--jobs", jobs],
                capture_output=True, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv
    _ok("criterion 8f: --jobs 1 and --jobs 8 produce identical output bytes")
