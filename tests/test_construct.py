import pytest

from latinpat import perm
from latinpat.construct import (
    BOTTOM_ANCHORED,
    all_s3_avoiders,
    avoider_complement_map,
    avoider_relabel_map,
    avoider_reverse_map,
    complete_columns_avoiding,
    connolly_square,
    construct_s3_avoider,
)
from latinpat.enumeration import count_squares, enumerate_squares
from latinpat.square import (
    AvoidanceSpec,
    avoids_spec,
    column_permutations,
    latin_square,
    max_monotone,
    row_permutations,
)

from conftest import S3, collect_squares, perms


# ---------------------------------------------------------------------------
# column-avoiding completion
# ---------------------------------------------------------------------------

def test_worked_completion():
    got = complete_columns_avoiding((2, 1, 3, 4), (1, 2, 3))
    assert got.grid == ((2, 1, 3, 4), (1, 4, 2, 3), (4, 3, 1, 2), (3, 2, 4, 1))


def test_order_one_completion():
    for q in S3:
        assert complete_columns_avoiding((1,), q).grid == ((1,),)


def test_anchor_row_placement():
    for q in S3:
        sq = complete_columns_avoiding((3, 1, 4, 2, 5), q)
        anchor = sq.grid[-1] if q in BOTTOM_ANCHORED else sq.grid[0]
        assert anchor == (3, 1, 4, 2, 5)


def test_completion_avoids_pattern_in_columns():
    for q in S3:
        for n in (2, 3, 4, 5, 6):
            sigma = tuple(range(n, 0, -1))
            sq = complete_columns_avoiding(sigma, q)
            assert avoids_spec(sq, AvoidanceSpec.columns_only(q)), (q, n)


def test_completion_is_the_unique_one():
    # cross-check against the search engine for every anchor row
    for q in S3:
        for n in (2, 3, 4, 5):
            for sigma in perms(n):
                built = complete_columns_avoiding(sigma, q)
                found = list(enumerate_squares(n, AvoidanceSpec.columns_only(q), first_row=built.grid[0]))
                assert found == [built], (q, sigma)


def test_321_columns_are_increasing_cyclic():
    for sigma in perms(5):
        sq = complete_columns_avoiding(sigma, (3, 2, 1))
        for col in column_permutations(sq):
            top = col[0]
            expected = tuple((top - 1 + r) % 5 + 1 for r in range(5))
            assert col == expected


def test_123_columns_are_decreasing_cyclic():
    for sigma in perms(4):
        sq = complete_columns_avoiding(sigma, (1, 2, 3))
        for col in column_permutations(sq):
            top = col[0]
            expected = tuple((top - 1 - r) % 4 + 1 for r in range(4))
            assert col == expected


def test_rejects_bad_pattern():
    with pytest.raises(ValueError):
        complete_columns_avoiding((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        complete_columns_avoiding((1, 2, 2), (1, 2, 3))


# ---------------------------------------------------------------------------
# the n avoiders of a length-3 pattern
# ---------------------------------------------------------------------------

def test_s3_avoider_instance():
    got = construct_s3_avoider(4, (1, 2, 3), 2)
    assert got.grid == ((2, 1, 4, 3), (1, 4, 3, 2), (4, 3, 2, 1), (3, 2, 1, 4))
    assert construct_s3_avoider(1, (1, 2, 3), 1).grid == ((1,),)


def test_s3_avoider_avoids_everywhere():
    for q in S3:
        for n in range(1, 8):
            for i in range(1, n + 1):
                sq = construct_s3_avoider(n, q, i)
                assert sq.grid[0][0] == i
                assert avoids_spec(sq, AvoidanceSpec.both(q)), (q, n, i)


def test_s3_avoider_start_range():
    with pytest.raises(ValueError):
        construct_s3_avoider(4, (1, 2, 3), 0)
    with pytest.raises(ValueError):
        construct_s3_avoider(4, (1, 2, 3), 5)


def test_all_s3_avoiders_distinct_and_complete():
    for q in S3:
        for n in (1, 3, 4):
            squares = all_s3_avoiders(n, q)
            assert len(squares) == n
            assert len(set(squares)) == n
            enumerated = set(collect_squares(n, AvoidanceSpec.both(q)))
            assert set(squares) == enumerated


# ---------------------------------------------------------------------------
# the modular minimax square
# ---------------------------------------------------------------------------

def test_connolly_small():
    assert connolly_square(1).grid == ((1,),)
    assert connolly_square(2).grid == (
        (2, 4, 1, 3),
        (4, 1, 3, 2),
        (1, 3, 2, 4),
        (3, 2, 4, 1),
    )


def test_connolly_order9():
    sq = connolly_square(3)
    assert sq.order == 9
    assert sq.grid[0] == (3, 6, 9, 2, 5, 8, 1, 4, 7)
    assert max_monotone(sq) == 4


def test_connolly_latin_and_monotone_cap():
    # constructor validates Latin-ness; the cap is root+1
    for root in range(2, 7):
        sq = connolly_square(root)
        assert sq.order == root * root
        assert max_monotone(sq) == root + 1


def test_connolly_first_line_monotone_is_root():
    for root in (2, 3, 4):
        sq = connolly_square(root)
        assert perm.longest_monotone(row_permutations(sq)[0]) == root
        assert perm.longest_monotone(column_permutations(sq)[0]) == root


def test_connolly_rejects_bad_root():
    with pytest.raises(ValueError):
        connolly_square(0)


# ---------------------------------------------------------------------------
# avoider-set bijections
# ---------------------------------------------------------------------------

def test_maps_are_involutions(squares4):
    for sq in squares4[::19]:
        assert avoider_complement_map(avoider_complement_map(sq)) == sq
        assert avoider_reverse_map(avoider_reverse_map(sq)) == sq


def test_complement_map_swaps_1234_and_4321(squares4):
    spec = AvoidanceSpec.both((1, 2, 3, 4))
    spec_c = AvoidanceSpec.both((4, 3, 2, 1))
    for sq in squares4:
        assert avoids_spec(sq, spec) == avoids_spec(avoider_complement_map(sq), spec_c)


def test_bijection_forces_equal_counts():
    a = count_squares(4, AvoidanceSpec.both((1, 2, 3, 4))).count
    b = count_squares(4, AvoidanceSpec.both((4, 3, 2, 1))).count
    assert a == b == 400


def test_relabel_map_identity_and_inverse(squares4):
    pi = (2, 4, 1, 3)
    rho = (3, 1, 2, 4)
    for sq in squares4[::37]:
        assert avoider_relabel_map(sq, pi, pi) == sq
        roundtrip = avoider_relabel_map(avoider_relabel_map(sq, pi, rho), rho, pi)
        assert roundtrip == sq


def test_relabel_map_carries_column_avoiders(squares4):
    pi = (1, 2, 3, 4)
    rho = (2, 4, 1, 3)
    spec_pi = AvoidanceSpec.columns_only(pi)
    spec_rho = AvoidanceSpec.columns_only(rho)
    image = {avoider_relabel_map(sq, pi, rho) for sq in squares4 if avoids_spec(sq, spec_pi)}
    target = {sq for sq in squares4 if avoids_spec(sq, spec_rho)}
    assert image == target
    assert len(image) == 480


def test_relabel_map_length_mismatch():
    sq = latin_square([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        avoider_relabel_map(sq, (1, 2, 3), (1, 2, 3))
