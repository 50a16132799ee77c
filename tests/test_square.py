import json

import pytest

from latinpat import construct, perm, square
from latinpat.square import (
    AvoidanceSpec,
    EMPTY_SPEC,
    avoids_spec,
    column_permutations,
    latin_rectangle,
    latin_square,
    load_square,
    max_monotone,
    parse_square,
    reflect_vertical,
    relabel,
    rotate180,
    row_permutations,
    serialize_square,
    square_from_json,
    square_to_json,
    symbol_permutations,
    transpose,
)

from conftest import S3

FIG1 = latin_square([[2, 1, 3, 4], [1, 4, 2, 3], [4, 3, 1, 2], [3, 2, 4, 1]])
CYCLIC3 = latin_square([[3, 2, 1], [2, 1, 3], [1, 3, 2]])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_order_one():
    sq = latin_square([[1]])
    assert sq.order == 1
    assert row_permutations(sq) == ((1,),)


def test_rejects_row_violation():
    with pytest.raises(ValueError, match="row 2"):
        latin_square([[1, 2], [2, 2]])


def test_rejects_column_repeat_with_index():
    with pytest.raises(ValueError, match="column 1 repeats symbol 1"):
        latin_square([[1, 2], [1, 2]])


def test_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        latin_square([[1, 2], [2]])
    with pytest.raises(ValueError):
        latin_square([])


def test_rectangle_validation():
    r = latin_rectangle([[6, 8, 3], [1, 6, 8]])
    assert (r.rows, r.cols, r.alphabet_bound) == (2, 3, 8)
    with pytest.raises(ValueError, match="row 1"):
        latin_rectangle([[1, 1, 2]])
    with pytest.raises(ValueError, match="column 2"):
        latin_rectangle([[1, 2], [3, 2]])
    with pytest.raises(ValueError, match="outside"):
        latin_rectangle([[1, 5]], alphabet_bound=3)
    with pytest.raises(ValueError, match="alphabet_bound"):
        latin_rectangle([[1, 2]], alphabet_bound="5")


def test_builders_check_each_entry_once(monkeypatch):
    calls = [0]
    entry = square._entry

    def counted(x):
        calls[0] += 1
        return entry(x)

    monkeypatch.setattr(square, "_entry", counted)
    assert latin_square([[1, 2], [2, 1]]).grid == ((1, 2), (2, 1))
    assert calls[0] == 4
    calls[0] = 0
    assert latin_rectangle([[1, 2, 3], [2, 3, 1]], alphabet_bound=3).alphabet_bound == 3
    assert calls[0] == 7  # six entries and the bound


# ---------------------------------------------------------------------------
# line permutations
# ---------------------------------------------------------------------------

def test_row_and_column_permutations():
    assert row_permutations(FIG1)[1] == (1, 4, 2, 3)
    assert column_permutations(FIG1)[1] == (1, 4, 3, 2)
    fig4 = construct.connolly_square(3)
    assert row_permutations(fig4)[0] == (3, 6, 9, 2, 5, 8, 1, 4, 7)
    assert column_permutations(fig4)[0] == (3, 6, 9, 2, 5, 8, 1, 4, 7)


def test_symbol_permutations():
    assert symbol_permutations(FIG1)[0] == (2, 1, 3, 4)
    for sp in symbol_permutations(FIG1):
        assert perm.is_perm(sp)
    assert symbol_permutations(latin_square([[1]])) == ((1,),)


def test_symbol_permutations_transpose_inverts(squares3):
    for sq in squares3:
        direct = symbol_permutations(sq)
        flipped = symbol_permutations(transpose(sq))
        for k in range(sq.order):
            assert flipped[k] == perm.inverse(direct[k])


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def test_relabel():
    assert relabel(FIG1, (1, 2, 3, 4)) == FIG1
    rho = (3, 1, 4, 2)
    assert relabel(relabel(FIG1, rho), perm.inverse(rho)) == FIG1
    with pytest.raises(ValueError):
        relabel(FIG1, (1, 2, 3))


def test_rotate180():
    assert rotate180(rotate180(FIG1)) == FIG1
    n = FIG1.order
    rows = row_permutations(FIG1)
    rot_rows = row_permutations(rotate180(FIG1))
    for i in range(n):
        assert rot_rows[i] == perm.reverse(rows[n - 1 - i])
    two = latin_square([[1, 2], [2, 1]])
    assert rotate180(two) == two


def test_reflect_vertical():
    assert reflect_vertical(reflect_vertical(FIG1)) == FIG1
    for orig, refl in zip(row_permutations(FIG1), row_permutations(reflect_vertical(FIG1))):
        assert refl == perm.reverse(orig)


def test_reflection_swaps_row_pattern():
    # a square avoiding 123 everywhere reflects to one avoiding 321 in rows
    # while still avoiding 123 in columns
    for n in (3, 4, 5):
        sq = construct.construct_s3_avoider(n, (1, 2, 3), 2)
        refl = reflect_vertical(sq)
        assert avoids_spec(refl, AvoidanceSpec(row_patterns=((3, 2, 1),)))
        assert avoids_spec(refl, AvoidanceSpec(col_patterns=((1, 2, 3),)))


def test_transpose():
    assert transpose(transpose(FIG1)) == FIG1
    assert column_permutations(FIG1) == row_permutations(transpose(FIG1))
    fig4 = construct.connolly_square(3)
    assert transpose(fig4) == fig4


# ---------------------------------------------------------------------------
# avoidance predicate and monotone statistics
# ---------------------------------------------------------------------------

def test_avoids_spec_examples():
    assert avoids_spec(CYCLIC3, AvoidanceSpec.both((1, 2, 3)))
    assert avoids_spec(FIG1, EMPTY_SPEC)
    bad = latin_square([[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    assert not avoids_spec(bad, AvoidanceSpec.rows_only((1, 2, 3)))


def test_avoids_spec_symbol_mode():
    # FIG1's symbol-1 permutation is 2134, which contains 134 ~ 123
    assert not avoids_spec(FIG1, AvoidanceSpec(symbol_patterns=((1, 2, 3),)))
    assert avoids_spec(latin_square([[1]]), AvoidanceSpec(symbol_patterns=((1, 2),)))


def test_spec_normalization_and_helpers():
    s = AvoidanceSpec.both((1, 2, 3), (1, 2, 3))
    assert s.row_patterns == ((1, 2, 3),)
    assert s.col_patterns == ((1, 2, 3),)
    assert AvoidanceSpec.columns_only((1, 3, 2)).row_patterns == ()
    assert EMPTY_SPEC.is_empty()
    with pytest.raises(ValueError):
        AvoidanceSpec(row_patterns=((1, 1),))


def test_max_monotone():
    assert max_monotone(latin_square([[1]])) == 1
    assert max_monotone(latin_square([[1, 2], [2, 1]])) == 2
    assert max_monotone(construct.connolly_square(3)) == 4


def test_max_monotone_rotation_invariant(squares4):
    for sq in squares4[:100]:
        assert max_monotone(sq) == max_monotone(rotate180(sq))


def test_complement_rotation_avoidance_equivalence(squares4):
    # relabel-by-complement flips a pattern to its complement; rotation
    # flips it to its reverse
    comp_map = construct.avoider_complement_map
    for q in S3 + [(1, 2, 3, 4), (2, 4, 1, 3)]:
        spec = AvoidanceSpec.both(q)
        spec_c = AvoidanceSpec.both(perm.complement(q))
        spec_r = AvoidanceSpec.both(perm.reverse(q))
        for sq in squares4[::7]:
            assert avoids_spec(sq, spec) == avoids_spec(comp_map(sq), spec_c)
            assert avoids_spec(sq, spec) == avoids_spec(rotate180(sq), spec_r)


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------

def test_text_round_trip():
    text = serialize_square(FIG1)
    assert text == "2 1 3 4\n1 4 2 3\n4 3 1 2\n3 2 4 1\n"
    assert parse_square(text) == FIG1


def test_parse_rejects_bad_grids():
    with pytest.raises(ValueError, match="column 1 repeats symbol 1"):
        parse_square("1 2\n1 2\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_square("1 x\n2 1\n")
    with pytest.raises(ValueError):
        parse_square("")


def test_parse_connolly_text():
    text = serialize_square(construct.connolly_square(3))
    assert parse_square(text) == construct.connolly_square(3)


def test_json_round_trip():
    obj = square_to_json(FIG1)
    assert obj["order"] == 4
    assert square_from_json(obj) == FIG1
    assert load_square(json.dumps(obj)) == FIG1
    assert load_square(serialize_square(FIG1)) == FIG1
    with pytest.raises(ValueError, match="declared order"):
        square_from_json({"order": 3, "grid": [[1, 2], [2, 1]]})
