#!/usr/bin/env python3
"""
Two-dimensional patterns.

Picking p rows and q columns of a Latin square induces a sub-rectangle, and
containment asks whether some sub-rectangle matches a target grid up to an
increasing relabeling of its entries (equal entries stay equal).  Row and
column patterns are the 1xk and kx1 special cases, so this strictly
generalizes the one-dimensional notion.
"""
from latinpat import (
    AvoidanceSpec,
    connolly_square,
    contains_rectangle,
    enumerate_squares,
    extract_subrectangle,
    latin_rectangle,
    rect_order_isomorphic,
    rotate_rect_90,
    serialize_square,
)

sq = connolly_square(3)
print("the order-9 modular square:")
print(serialize_square(sq))

target = latin_rectangle([[3, 4, 2], [1, 3, 4]])
print("target rectangle:")
print(serialize_square(target))

witness = contains_rectangle(sq, target)
rows, cols = witness
print(f"found at rows {rows}, columns {cols}:")
sub = extract_subrectangle(sq, rows, cols)
print(serialize_square(sub))
assert rect_order_isomorphic(sub, target)
print("which is order isomorphic to the target (6,8,3 / 1,6,8 -> 3,4,2 / 1,3,4).\n")

row_rect = latin_rectangle([[1, 2, 3]])
col_rect = rotate_rect_90(row_rect)
print("avoiding the 1x3 increasing rectangle and its rotation is the same as")
print("avoiding 123 in all rows and columns; at order 4 both give 4 squares:")

avoiders = list(enumerate_squares(4, AvoidanceSpec.both((1, 2, 3))))
rect_avoiders = [
    s for s in enumerate_squares(4)
    if contains_rectangle(s, row_rect) is None and contains_rectangle(s, col_rect) is None
]
print(f"  pattern route: {len(avoiders)}, rectangle route: {len(rect_avoiders)}")
assert set(avoiders) == set(rect_avoiders)
