#!/usr/bin/env python3
"""
Monotone subsequences in rows and columns.

Every permutation of length n has a monotone run of length isqrt(n-1)+1.
Latin squares force a bit more: some row or column always carries a monotone
subsequence of length floor(3/2 + sqrt(n - 7/4)).  At perfect-square orders
that bound is tight, witnessed by a modular construction whose lines are all
cyclic shifts of a single carefully chopped sequence.
"""
from latinpat import (
    compute_lambda_exhaustive,
    connolly_square,
    lambda_bound_report,
    lambda_lower_bound,
    max_monotone,
    serialize_square,
)

print("guaranteed monotone length (lower bound) by order:")
row = ", ".join(f"{n}:{lambda_lower_bound(n)}" for n in range(2, 18))
print(f"  {row}\n")

print("exact values by pruned existence search:")
for n in (2, 3, 4, 5):
    report = compute_lambda_exhaustive(n)
    tight = "tight" if report["exact_value"] == report["lower_bound"] else "bound not tight"
    print(f"  order {n}: {report['exact_value']}  (lower bound {report['lower_bound']}, {tight})")

print("\nthe order-9 modular square:")
sq = connolly_square(3)
print(serialize_square(sq))
print(f"no line has a monotone subsequence longer than {max_monotone(sq)},")
print("so together with the lower bound the order-9 value is exactly 4.\n")

print("bound reports at perfect squares:")
for n in (9, 16, 25):
    r = lambda_bound_report(n)
    print(f"  order {n}: lower {r['lower_bound']}, witness cap {r['witness_cap']} -> exact {r['exact_value']}")

r = lambda_bound_report(12)
print(f"  order 12: lower {r['lower_bound']}, no witness -> interval [{r['lower_bound']}, ?]")
