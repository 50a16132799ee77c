#!/usr/bin/env python3
"""
Avoiding length-3 patterns.

For any length-3 pattern there are exactly n Latin squares of order n whose
rows and columns all avoid it, and they have a rigid cyclic structure: pick
the top-left entry and the rest of the square is forced.  This script counts
them by exhaustive search, rebuilds them in closed form, and shows the two
agree.  It also shows the much looser columns-only variant, where every
choice of first row completes uniquely, giving n! squares.
"""
from latinpat import (
    AvoidanceSpec,
    all_s3_avoiders,
    complete_columns_avoiding,
    count_squares,
    enumerate_squares,
    serialize_square,
)

PATTERN = (1, 2, 3)

print(f"How many order-n squares avoid {PATTERN} in every row and column?")
for n in range(2, 7):
    result = count_squares(n, AvoidanceSpec.both(PATTERN))
    print(f"  n={n}: {result.count}   ({result.nodes_explored} cell placements swept)")

print("\nThe four avoiders of order 4, by search:")
found = list(enumerate_squares(4, AvoidanceSpec.both(PATTERN)))
for sq in found:
    print(serialize_square(sq))

print("The same four squares, written down directly (cyclic decreasing lines):")
for sq in all_s3_avoiders(4, PATTERN):
    print(serialize_square(sq))

assert set(found) == set(all_s3_avoiders(4, PATTERN))
print("search and construction agree.\n")

print("Columns-only avoidance is counted by first rows: n! squares.")
for n in (3, 4, 5):
    print(f"  n={n}: {count_squares(n, AvoidanceSpec.columns_only(PATTERN)).count}")

print("\nEach first row completes uniquely; for example 3 1 4 2:")
print(serialize_square(complete_columns_avoiding((3, 1, 4, 2), PATTERN)))
