#!/usr/bin/env python3
"""
Derivation script for the order-5 monotone minimax value frozen in the
acceptance suite (tests/test_acceptance.py, LAMBDA_5).

The minimax is at most m exactly when some order-5 square avoids
12...(m+1) and (m+1)...1 in all ten lines.  The pruned search answers that
for m = 2, 3, ... and stops at the first m with a square: it finds none
avoiding 123 and 321, then finds the lexicographically first one avoiding
1234 and 4321.  The result is certified two independent ways: the proven
lower bound says the minimax is at least 3, and the witness square printed
below has no line monotone beyond 3, capping it from above.
"""
import time

from latinpat import LatinSquare, compute_lambda_exhaustive, lambda_lower_bound, max_monotone, serialize_square

t0 = time.perf_counter()
report = compute_lambda_exhaustive(5)
elapsed = time.perf_counter() - t0
witness = LatinSquare(report["witness"]["grid"])

print(f"order-5 minimax of max line-monotone length: {report['exact_value']}")
print(f"(pruned existence search over order-5 squares, {elapsed:.3f}s)\n")

print("lexicographically first square attaining it:")
print(serialize_square(witness))

lower = lambda_lower_bound(5)
cap = max_monotone(witness)
print(f"certification: lower bound {lower} <= value <= witness cap {cap}")
assert lower == report["exact_value"] == cap == 3

print("\nvalues for the orders where the search is allowed:")
for n in (2, 3, 4, 5):
    print(f"  order {n}: {compute_lambda_exhaustive(n)['exact_value']}")
