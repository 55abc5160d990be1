#!/usr/bin/env python3
"""Build problem instances and measure how hard they are to solve.

Walks through the instance model: clients with partial arm access, aggregate
arm means, separation gaps, the arm partition, and the bracket on the
hardness constant that multiplies log(1/delta) in any algorithm's stopping
time.
"""

import numpy as np

from hetbai import (
    arm_stats,
    c_star_interval,
    confusion_pairs,
    gen_hardness_instance,
    gen_overlap_instance,
    partition_arms,
    to_json,
    validate,
)

print("=" * 70)
print("Synthetic 5-arm / 5-client instances, one per overlap layout")
print("=" * 70)
for pattern in (1, 2, 3, 4):
    v = gen_overlap_instance(pattern, seed=11)
    stats = arm_stats(v)
    lower, upper = c_star_interval(v)
    print(f"\nlayout {pattern}: arm sets = {[list(s) for s in v.arm_sets]}")
    print(f"  aggregate means : {np.round(stats.global_means, 3)}")
    print(f"  separation gaps : {np.round(stats.gaps, 3)}")
    print(f"  best arms       : {[a + 1 for a in stats.best_arms]} (1-based)")
    print(f"  hardness const  : between {lower:.2f} and {upper:.2f}")

print()
print("=" * 70)
print("Structure: partition into co-residence classes, confusion pairs")
print("=" * 70)
v = gen_overlap_instance(1, seed=11)
part = partition_arms(v)
print(f"cyclic pairs connect every arm: classes = {part.classes}")
pairs = confusion_pairs(v)
print(f"confusion pairs (best vs challenger, 0-based): {pairs}")

print()
print("=" * 70)
print("A scaled-difficulty family: arm i has mean i / sqrt(rho)")
print("=" * 70)
for rho in (1.0, 25.0, 400.0):
    v = gen_hardness_instance(rho, 3, 2, [(0, 1), (1, 2)])
    lower, upper = c_star_interval(v)
    print(f"rho = {rho:6.0f}: gaps {np.round(arm_stats(v).gaps, 3)}, "
          f"hardness in [{lower:8.1f}, {upper:8.1f}]  (scales linearly in rho)")

print()
print("Instances serialize to a small JSON document (1-based indices):")
print(to_json(gen_hardness_instance(4.0, 2, 1, [(0, 1)])))

report = validate(gen_overlap_instance(2, seed=0))
print(f"\nvalidation: admissible={report.admissible}, violations={list(report.violations)}")
