#!/usr/bin/env python3
"""
Which patterns are equally hard to avoid?

All six length-3 patterns admit the same number of avoiding squares at every
order.  For length-4 patterns the picture fractures: complement and reverse
(a 180-degree rotation of the square) still pair patterns up, but nothing
else does, and at order 5 the 24 patterns fall into exactly eight classes.

The counts come from the reduced squares (first row and first column in
natural order), each multiplied out over its row and column orders: 56
reduced squares stand for all 161280 at order 5.
"""
import latinpat.cli
from latinpat import wilf_classes

print("length 3 at order 4: one class")
report = wilf_classes(3, 4)
for cls in report["classes"]:
    print(f"  count {cls['count']}: {', '.join(cls['patterns'])}")

print("\nlength 4 at order 4: full-length patterns all relabel into each other")
report = wilf_classes(4, 4)
for cls in report["classes"]:
    print(f"  count {cls['count']}: {len(cls['patterns'])} patterns")

print("\nlength 4 at order 5: the eight classes")
report = wilf_classes(4, 5)
for cls in report["classes"]:
    print(f"  count {cls['count']}: {', '.join(cls['patterns'])}")
print("\nCSV form:")
latinpat.cli.main(["wilf", "--length", "4", "--order", "5", "--format", "csv", "--no-cache"])
