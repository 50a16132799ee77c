import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinpat import perm
from latinpat.perm import (
    as_perm,
    avoids,
    catalan,
    check_erdos_szekeres,
    complement,
    compose,
    contains,
    count_avoiding_permutations,
    direct_sum,
    erdos_szekeres_lambda,
    find_occurrence,
    format_perm,
    identity,
    inverse,
    longest_monotone,
    parse_perm,
    pattern_of,
    reverse,
)

from conftest import S3, S4, naive_contains, naive_first_occurrence, naive_longest_monotone, perms


def rand_perm(max_len=7):
    return st.integers(1, max_len).flatmap(
        lambda m: st.permutations(list(range(1, m + 1))).map(tuple)
    )


# ---------------------------------------------------------------------------
# validation and parsing
# ---------------------------------------------------------------------------

def test_as_perm_accepts_rearrangements():
    assert as_perm([2, 1, 3]) == (2, 1, 3)
    assert as_perm((1,)) == (1,)


@pytest.mark.parametrize("bad", [(), (0, 1), (1, 1), (1, 3), (2, 3, 4)])
def test_as_perm_rejects(bad):
    with pytest.raises(ValueError):
        as_perm(bad)


def test_parse_perm_forms():
    assert parse_perm("2 1 3 4") == (2, 1, 3, 4)
    assert parse_perm("2134") == (2, 1, 3, 4)
    assert parse_perm("1") == (1,)


def test_parse_format_round_trip():
    for p in perms(4):
        assert parse_perm(format_perm(p)) == p


@pytest.mark.parametrize("bad", ["", "1 2 2", "abc", "0 1"])
def test_parse_perm_rejects(bad):
    with pytest.raises(ValueError):
        parse_perm(bad)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def test_contains_worked_examples():
    assert contains((1, 3, 2, 5, 4), (1, 2, 3))       # subsequence 1 3 5
    assert not contains((1, 3, 2, 5, 4), (3, 2, 1))
    assert not contains((4, 3, 2, 1), (1, 2))


def test_single_entry_pattern_always_contained():
    for m in range(1, 6):
        for p in perms(m):
            assert contains(p, (1,))


def test_contains_matches_naive_oracle_small():
    patterns = [q for k in (1, 2, 3, 4) for q in perms(k)]
    for m in range(1, 6):
        for host in perms(m):
            for q in patterns:
                assert contains(host, q) == naive_contains(host, q), (host, q)


@settings(max_examples=150)
@given(rand_perm(8), st.sampled_from([q for k in (2, 3, 4) for q in perms(k)]))
def test_contains_matches_naive_oracle_random(host, q):
    assert contains(host, q) == naive_contains(host, q)


@settings(max_examples=150)
@given(rand_perm(7), st.sampled_from(S3 + S4))
def test_containment_respects_symmetries(host, q):
    c = contains(host, q)
    assert c == contains(reverse(host), reverse(q))
    assert c == contains(complement(host), complement(q))
    assert c == contains(inverse(host), inverse(q))


def test_find_occurrence_positions():
    assert find_occurrence((1, 3, 2, 5, 4), (1, 2, 3)) == (1, 2, 4)
    assert find_occurrence((1, 3, 2, 5, 4), (3, 2, 1)) is None
    pos = find_occurrence((3, 6, 9, 2, 5, 8, 1, 4, 7), (1, 2, 3))
    assert pos == (1, 2, 3)


def test_find_occurrence_is_lexicographically_first():
    for m in range(1, 7):
        for host in perms(m):
            for q in S3 + S4:
                assert find_occurrence(host, q) == naive_first_occurrence(host, q), (host, q)


@settings(max_examples=100)
@given(rand_perm(7), st.sampled_from(S3))
def test_find_occurrence_consistent_with_contains(host, q):
    pos = find_occurrence(host, q)
    if pos is None:
        assert not contains(host, q)
    else:
        assert contains(host, q)
        assert pattern_of([host[i - 1] for i in pos]) == q


# ---------------------------------------------------------------------------
# symmetries and composition
# ---------------------------------------------------------------------------

def test_complement_examples():
    assert complement((1, 2, 3, 4)) == (4, 3, 2, 1)
    assert complement((2, 4, 1, 3)) == (3, 1, 4, 2)


def test_reverse_examples():
    assert reverse((1, 2, 3, 4)) == (4, 3, 2, 1)
    assert reverse((2, 4, 1, 3)) == (3, 1, 4, 2)


def test_inverse_examples():
    assert inverse(identity(5)) == identity(5)
    assert inverse((2, 3, 1, 4)) == (3, 1, 2, 4)


@settings(max_examples=100)
@given(rand_perm())
def test_involutions_and_inverse(p):
    assert complement(complement(p)) == p
    assert reverse(reverse(p)) == p
    assert compose(inverse(p), p) == identity(len(p))
    assert compose(p, inverse(p)) == identity(len(p))


def test_compose_examples():
    assert compose((2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    assert compose(identity(4), (2, 1, 4, 3)) == (2, 1, 4, 3)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_direct_sum():
    assert direct_sum((1,), (1,)) == (1, 2)
    assert direct_sum((2, 1), (1, 3, 2)) == (2, 1, 3, 5, 4)
    assert len(direct_sum(identity(3), (2, 1, 3))) == 6


# ---------------------------------------------------------------------------
# monotone subsequences
# ---------------------------------------------------------------------------

def test_longest_monotone_examples():
    assert longest_monotone((5, 4, 3, 2, 1)) == 5
    assert longest_monotone((3, 6, 9, 2, 5, 8, 1, 4, 7)) == 3
    assert longest_monotone((1, 3, 2, 5, 4)) == 3


def test_longest_monotone_matches_naive_oracle():
    for m in range(1, 7):
        for p in perms(m):
            assert longest_monotone(p) == naive_longest_monotone(p)


@settings(max_examples=80)
@given(rand_perm(10))
def test_longest_monotone_matches_naive_random(p):
    assert longest_monotone(p) == naive_longest_monotone(p)


def test_lambda_examples():
    assert erdos_szekeres_lambda(1) == 1
    assert erdos_szekeres_lambda(5) == 3
    assert erdos_szekeres_lambda(10) == 4
    with pytest.raises(ValueError):
        erdos_szekeres_lambda(0)


def test_monotone_guarantee_exhaustive():
    for m in range(1, 8):
        bound = erdos_szekeres_lambda(m)
        assert all(longest_monotone(p) >= bound for p in perms(m))


def test_check_erdos_szekeres():
    for p in perms(5):
        assert check_erdos_szekeres(p, 2, 2)
    assert check_erdos_szekeres(identity(5), 2, 2)
    with pytest.raises(ValueError):
        check_erdos_szekeres((1, 2, 3), 2, 2)


# ---------------------------------------------------------------------------
# brute-force counting
# ---------------------------------------------------------------------------

def test_catalan_counts_for_length3_patterns():
    for q in S3:
        for m in range(1, 6):
            assert count_avoiding_permutations(m, q) == catalan(m)


def test_catalan_count_larger_length():
    assert count_avoiding_permutations(8, (2, 3, 1)) == catalan(8)


def test_count_avoiding_worked_examples():
    assert count_avoiding_permutations(5, (1, 2, 3)) == 42
    assert count_avoiding_permutations(4, (2, 4, 1, 3)) == 23
    assert count_avoiding_permutations(3, (1,)) == 0


def test_count_avoiding_bound():
    with pytest.raises(ValueError):
        count_avoiding_permutations(10, (1, 2, 3))


def test_avoids_is_negation():
    assert avoids((4, 3, 2, 1), (1, 2))
    assert not avoids((1, 2), (1, 2))
