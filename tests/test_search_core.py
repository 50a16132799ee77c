"""
The compiled prefix automata and the search that runs on them, against
brute force: permutations filtered by naive containment, and the full
enumeration filtered line by line; symbol-line counts against the row
counts they equal by conjugacy; and counts over column-order classes
against the plain sweep and brute force.
"""
import itertools
import json

import pytest

from latinpat import cli, enumeration
from latinpat.enumeration import count_squares, enumerate_squares, render_squares
from latinpat.perm import DEAD, FeasibilityError, prefix_automaton
from latinpat.square import EMPTY_SPEC, AvoidanceSpec

from conftest import S3, S4, monotone_pair, naive_contains, naive_squares, perms, reference_prefix_automaton

PATTERN_SETS = [(p,) for p in S3 + S4] + list(itertools.combinations(S3, 2))


@pytest.mark.parametrize("patterns", PATTERN_SETS)
def test_prefix_state_is_alive_iff_some_avoider_extends_it(patterns):
    for n in range(1, 7):
        auto = prefix_automaton(n, patterns)
        every = perms(n)
        avoiders = [q for q in every if not any(naive_contains(q, p) for p in patterns)]
        alive = {q[:k] for q in avoiders for k in range(n + 1)}
        prefixes = {q[:k] for q in every for k in range(n + 1)}
        for prefix in prefixes:
            assert (auto.run(prefix) != DEAD) == (prefix in alive), (n, patterns, prefix)
        for state, row in enumerate(auto.next):
            assert auto.live[state] == sum(1 << (s - 1) for s in range(1, n + 1) if row[s] != DEAD)
        # a repeated symbol is never alive
        assert all(auto.run((s, s)) == DEAD for s in range(1, n + 1))


@pytest.mark.parametrize("patterns", PATTERN_SETS)
def test_prefix_automaton_equals_reference_compile(patterns):
    for n in range(1, 7):
        assert prefix_automaton(n, patterns) == reference_prefix_automaton(n, patterns), n


@pytest.mark.parametrize("m", [2, 3])
def test_monotone_pair_automaton_equals_reference_compile(m):
    # the pattern pairs lambda's search compiles
    patterns = monotone_pair(m)
    for n in range(1, 8):
        assert prefix_automaton(n, patterns) == reference_prefix_automaton(n, patterns), n


def test_prefix_automaton_work_bound():
    # the compile counts n cell placements for each prefix it reaches: with
    # no pattern at order 3 it reaches the 1 + 3 + 6 + 6 distinct-symbol
    # prefixes, 48 placements, so a bound of 47 refuses it and 48 does not
    assert prefix_automaton(3, [], max_work=48) == prefix_automaton(3, [])
    with pytest.raises(FeasibilityError):
        prefix_automaton(3, [], max_work=47)


# every pattern the cross-checks use, one bit each
PATTERNS = S3 + S4


def _line_masks(n):
    # permutation of 1..n -> bit k set when it contains PATTERNS[k]
    return {
        q: sum(1 << k for k, p in enumerate(PATTERNS) if naive_contains(q, p))
        for q in perms(n)
    }


def _square_masks(grids, masks):
    # per grid, the masks of its rows, its columns and its symbol lines,
    # each the union over the lines; symbol v's line maps each row index to
    # the column holding v, so the symbol lines are the columns of the grid
    # of inverse rows
    inverse = {q: tuple(q.index(v) + 1 for v in range(1, len(q) + 1)) for q in masks}
    out = []
    for g in grids:
        sides = []
        for lines in (g, zip(*g), zip(*map(inverse.__getitem__, g))):
            m = 0
            for line in lines:
                m |= masks[line]
            sides.append(m)
        out.append(tuple(sides))
    return out


def _filtered(grids, square_masks, spec):
    r, c, s = (
        sum(1 << PATTERNS.index(p) for p in side)
        for side in (spec.row_patterns, spec.col_patterns, spec.symbol_patterns)
    )
    return [g for g, (mr, mc, ms) in zip(grids, square_masks) if not (mr & r or mc & c or ms & s)]


def _spec_kinds(p):
    partner = (p[1], p[0]) + p[2:]  # another pattern of the same length
    return [
        AvoidanceSpec.rows_only(p),
        AvoidanceSpec.columns_only(p),
        AvoidanceSpec.both(p),
        AvoidanceSpec(symbol_patterns=(p,)),
        AvoidanceSpec(row_patterns=(p,), symbol_patterns=(p,)),
        AvoidanceSpec(col_patterns=(p,), symbol_patterns=(p,)),
        AvoidanceSpec(symbol_patterns=(p, partner)),
    ]


def _grids(n, spec=EMPTY_SPEC, jobs=1):
    if jobs > 1:
        # the pool path of the CLI's parallel enumerate
        text = "".join(render_squares(n, spec, cli._SquareLines(n), jobs=jobs))
        return [tuple(map(tuple, json.loads(line)["grid"])) for line in text.splitlines()]
    return [sq.grid for sq in enumerate_squares(n, spec)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_equals_filtered_full_enumeration(n):
    grids = _grids(n)
    square_masks = _square_masks(grids, _line_masks(n))
    lines = cli._SquareLines(n)
    for p in S3 + S4:
        for spec in _spec_kinds(p):
            want = _filtered(grids, square_masks, spec)
            assert _grids(n, spec) == want, (n, spec)
            assert count_squares(n, spec).count == len(want), (n, spec)
            # the render path: first-row tasks sharing one compilation, each
            # line its rows' text plus a stored ending's; at orders 1 and 2
            # the endings hang below row 0, the first-row task's own row
            text = "".join(lines(sq.grid) for sq in enumerate_squares(n, spec))
            for jobs in (1, 2):
                assert "".join(render_squares(n, spec, cli._SquareLines(n), jobs=jobs)) == text, (n, spec, jobs)


def test_symbol_specs_equal_filtered_full_enumeration_order5():
    grids = _grids(5)
    square_masks = _square_masks(grids, _line_masks(5))
    for p in S3:
        for spec in _spec_kinds(p):
            if not spec.symbol_patterns:
                continue
            want = _filtered(grids, square_masks, spec)
            assert _grids(5, spec) == want, spec
            assert _grids(5, spec, jobs=2) == want, spec
            assert count_squares(5, spec).count == len(want), spec


@pytest.mark.parametrize(
    "n,patterns", [(n, S3) for n in range(1, 6)] + [(n, S4) for n in range(1, 5)] + [(6, [(1, 2, 3)])]
)
def test_symbol_count_equals_row_count_of_conjugate(n, patterns):
    # a symbol line of a square is a row of one of its conjugates, and
    # conjugation is a bijection on the order-n squares; count_squares
    # takes this for granted, so the plain sweep checks it, stepping the
    # symbol lines on one side and the row automaton on the other
    for p in patterns:
        rows = AvoidanceSpec.rows_only(p)
        symbols = _plain_count(n, AvoidanceSpec(symbol_patterns=(p,)))
        assert symbols == _plain_count(n, rows) == count_squares(n, rows).count, (n, p)


def _plain_count(n, spec):
    # the sweep over ordered keys of the spec as given
    return enumeration._sweep(enumeration.Automata(n, spec), None, False)[0]


# specs with patterns on one family or none, which count_squares sweeps as
# their columns-only form over canonical keys
ONE_FAMILY_SPECS = [EMPTY_SPEC] + [
    spec
    for p in S3 + [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (2, 4, 1, 3)]
    for spec in (AvoidanceSpec.columns_only(p), AvoidanceSpec.rows_only(p), AvoidanceSpec(symbol_patterns=(p,)))
]


def _naive_count(n, spec):
    # every order-n square, each line tested with naive_contains; symbol v's
    # line maps each row index to the column holding v
    def avoids(lines, patterns):
        return not any(naive_contains(line, p) for line in lines for p in patterns)

    return sum(
        avoids(g, spec.row_patterns) and avoids(zip(*g), spec.col_patterns)
        and avoids([tuple(row.index(v) + 1 for row in g) for v in range(1, n + 1)], spec.symbol_patterns)
        for g in naive_squares(n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quotient_count_equals_the_plain_sweep(n):
    # the sweep over column-order classes against the sweep over ordered
    # keys of the spec as given, and at n <= 4 against brute force
    for spec in ONE_FAMILY_SPECS:
        plain = _plain_count(n, spec)
        assert count_squares(n, spec).count == plain, (n, spec)
        if n <= 4:
            assert plain == _naive_count(n, spec), (n, spec)
