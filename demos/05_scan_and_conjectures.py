#!/usr/bin/env python3
"""Colength-scale scans and the three conjecture checks.

For a fixed colength l, split the strongly stable ideals by their pure x
exponent m1 and maximize T over each class.  The published table lists
these maxima for N=3, l = 10..35; reproduce a slice here, then run the
monotonicity, necessary-condition, and tetrahedral-maximum checks on it.

The full range takes a few seconds at 2 workers (see the README's
Performance section); this demo stays at l <= 14 so it finishes in well
under one.  Pass a cache directory via
BORELTANGENT_CACHE or the functions' cache_dir= to make reruns instant.
"""

from boreltangent import (
    check_monotonicity,
    check_necessary_condition,
    check_tetrahedral_max,
    format_ideal,
    reproduce_published_table,
    scan_colength,
)

print("T_max per m1 class at colength 12:")
for m1, record in sorted(scan_colength(3, 12).items()):
    print(f"  m1={m1}: {record.ideal_count:3d} ideals, T_max = {record.t_max}, "
          f"argmax {[format_ideal(i) for i in record.argmax]}")

print("\npublished-table cells for l = 10..14:")
for cell in reproduce_published_table(10, 14):
    status = "PASS" if cell.ok else "FAIL"
    print(f"  l={cell.l} m1={cell.m1}: expected {cell.expected}, "
          f"computed {cell.computed}  {status}")

print("\nmonotonicity in m1 (strict everywhere in the table range):")
for l in (12, 13, 14):
    verdict = check_monotonicity(3, l)
    seq = "  ".join(f"m1={m1}:{t}" for m1, t in verdict.sequence)
    print(f"  l={l}: {seq}  strict={verdict.strictly_increasing}")

print("\nnecessary condition (the global argmax has m1 = k):")
for l in (10, 12, 14):
    verdict = check_necessary_condition(3, l)
    print(f"  l={l}: k={verdict.k}, max {verdict.t_max} at m1 in "
          f"{verdict.argmax_m1}, holds={verdict.holds}")

print("\ntetrahedral maxima (is m^k the most singular point?):")
for nvars, k in ((3, 2), (3, 3)):
    verdict = check_tetrahedral_max(nvars, k)
    print(f"  N={nvars} k={k} (l={verdict.l}): max {verdict.t_max}, "
          f"m^k attains={verdict.power_attains}, unique={verdict.unique}")
