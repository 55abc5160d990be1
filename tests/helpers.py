"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from hetbai import Allocation, ArmStats, ProblemInstance, validate
from hetbai.allocation import ZERO_WEIGHT


def make_instance(arm_sets, means_map, num_arms=None) -> ProblemInstance:
    return ProblemInstance.from_means(arm_sets, means_map, num_arms=num_arms)


def symmetric_two_arm() -> ProblemInstance:
    """K=2, M=2, both clients see both arms, means (1, 0) everywhere."""
    return make_instance(
        [(0, 1), (0, 1)], {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.0}
    )


def single_client_two_arm() -> ProblemInstance:
    """K=2, M=1, means (1, 0)."""
    return make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 0.0})


def chain_three_arm() -> ProblemInstance:
    """K=3, M=2 chain with global means (3, 2, 0); non-uniform optimum."""
    return make_instance(
        [(0, 1), (1, 2)], {(0, 0): 3.0, (0, 1): 2.0, (1, 1): 2.0, (1, 2): 0.0}
    )


def synthetic_stats_gap_1_2(instance: ProblemInstance) -> ArmStats:
    """Hand-made stats with gaps (1, 2) for a K=2, M=1 instance.

    Unequal gaps cannot arise from real means when K=2 (both arms share the
    same separation), so formula-level examples inject these stats directly.
    """
    return ArmStats(
        global_means=np.array([1.0, 0.0]),
        multiplicities=np.array([1, 1]),
        gaps=np.array([1.0, 2.0]),
        best_arms=np.array([0]),
    )


def random_admissible_instance(
    rng: np.random.Generator, max_arms: int = 4, max_clients: int = 3
) -> ProblemInstance:
    """Random structurally valid, admissible instance (ties resampled away)."""
    while True:
        K = int(rng.integers(2, max_arms + 1))
        M = int(rng.integers(1, max_clients + 1))
        sets = []
        for _ in range(M):
            size = int(rng.integers(2, K + 1))
            sets.append(tuple(sorted(rng.choice(K, size=size, replace=False).tolist())))
        if set().union(*sets) != set(range(K)):
            continue
        means = {(m, i): float(rng.normal(0.0, 1.0)) for m, s in enumerate(sets) for i in s}
        instance = make_instance(sets, means, num_arms=K)
        if validate(instance).admissible:
            return instance


def random_positive_allocation(rng: np.random.Generator, instance: ProblemInstance) -> Allocation:
    rows = []
    for s in instance.arm_sets:
        w = rng.dirichlet(np.ones(len(s)))
        w = np.maximum(w, 1e-9)
        w = w / w.sum()
        rows.append(w)
    return Allocation.from_rows(instance, rows)


def loop_arm_stats(instance: ProblemInstance) -> ArmStats:
    """Reference for the slot reductions: arm statistics by a per-client loop."""
    K = instance.num_arms
    sums = np.zeros(K)
    mult = np.zeros(K, dtype=np.int64)
    for arms, mus in zip(instance.arm_sets, instance.means):
        for i, mu in zip(arms, mus):
            sums[i] += mu
            mult[i] += 1
    global_means = sums / mult
    best_arms = np.empty(instance.num_clients, dtype=np.int64)
    gaps = np.full(K, np.inf)
    for m, arms in enumerate(instance.arm_sets):
        idx = np.array(arms)
        mus = global_means[idx]
        best_arms[m] = arms[int(np.argmax(mus))]
        for k, i in enumerate(arms):
            others = np.delete(mus, k)
            gaps[i] = min(gaps[i], abs(mus[k] - others.max()))
    return ArmStats(global_means=global_means, multiplicities=mult, gaps=gaps, best_arms=best_arms)


def loop_z_statistic(instance: ProblemInstance, counts) -> float:
    """Reference for the slot reductions: ``Z`` by a loop over the confusion pairs."""
    stats = loop_arm_stats(instance)
    if not stats.is_admissible():
        return 0.0
    recip = np.zeros(instance.num_arms)
    for m, arms in enumerate(instance.arm_sets):
        n = np.asarray(counts[m], dtype=float)
        with np.errstate(divide="ignore"):
            contrib = np.where(n > 0, 1.0 / n, np.inf)
        for k, i in enumerate(arms):
            recip[i] += contrib[k]
    T = recip / stats.multiplicities.astype(float) ** 2
    best = math.inf
    for m, arms in enumerate(instance.arm_sets):
        i1 = int(stats.best_arms[m])
        for i2 in arms:
            if i2 != i1:
                denom = T[i1] + T[i2]
                gap = stats.global_means[i1] - stats.global_means[i2]
                best = min(best, 0.0 if math.isinf(denom) else (gap * gap / 2.0) / denom)
    return float(best)


def random_structural_instance(rng: np.random.Generator, max_arms: int = 6, max_clients: int = 5) -> ProblemInstance:
    """Random structurally valid instance, admissible or not.

    Half of the instances draw means from {0, 0.5, 1}, which produces tied
    tops and zero means (the empirical mean of an arm never pulled).
    """
    while True:
        K = int(rng.integers(2, max_arms + 1))
        M = int(rng.integers(1, max_clients + 1))
        sets = []
        for _ in range(M):
            size = int(rng.integers(2, K + 1))
            sets.append(tuple(sorted(rng.choice(K, size=size, replace=False).tolist())))
        if set().union(*sets) == set(range(K)):
            break
    coarse = rng.random() < 0.5
    means = {
        (m, i): float(rng.choice([0.0, 0.5, 1.0]) if coarse else rng.normal(0.0, 1.0))
        for m, s in enumerate(sets)
        for i in s
    }
    return make_instance(sets, means, num_arms=K)


def wide_gap_instance(rng: np.random.Generator) -> ProblemInstance:
    """Random admissible instance whose consecutive aggregate means are 1 to 1e-12 apart.

    The matrix ``H`` then scales its rows by up to ``1e24``, which leaves the
    small entries of a plain symmetric eigensolver's vector with no relative
    accuracy.
    """
    while True:
        K = int(rng.integers(3, 7))
        M = int(rng.integers(2, 6))
        sets = [
            tuple(sorted(rng.choice(K, size=int(rng.integers(2, K + 1)), replace=False).tolist()))
            for _ in range(M)
        ]
        if set().union(*sets) != set(range(K)):
            continue
        levels = np.cumsum(10.0 ** -rng.uniform(0.0, 12.0, size=K))
        means = {(m, i): float(levels[i]) for m, s in enumerate(sets) for i in s}
        instance = make_instance(sets, means, num_arms=K)
        if validate(instance).admissible:
            return instance


# --- Reference per-client loops for the slot-array rate functionals ---


def loop_reciprocal_sums(instance: ProblemInstance, allocation: Allocation):
    """Per-arm sum of reciprocal weights over owning clients; None on a zero."""
    recip = np.zeros(instance.num_arms)
    for arms, row in zip(allocation.arm_sets, allocation.weights):
        for i, w in zip(arms, row):
            if w <= ZERO_WEIGHT:
                return None
            recip[i] += 1.0 / w
    return recip


def loop_g_tilde(instance: ProblemInstance, stats: ArmStats, allocation: Allocation) -> float:
    recip = loop_reciprocal_sums(instance, allocation)
    if recip is None:
        return 0.0
    mult = stats.multiplicities.astype(float)
    values = (stats.gaps**2 / 2.0) * mult**2 / recip
    return float(values.min())


def loop_g_tilde_per_class(instance, stats, partition, allocation) -> np.ndarray:
    recip = loop_reciprocal_sums(instance, allocation)
    out = np.zeros(len(partition.classes))
    if recip is None:
        return out
    mult = stats.multiplicities.astype(float)
    values = stats.gaps**2 * mult**2 / recip
    for j, cls in enumerate(partition.classes):
        out[j] = values[np.array(cls)].min()
    return out


def loop_g_exact(instance, stats, pairs, allocation) -> float:
    recip = loop_reciprocal_sums(instance, allocation)
    if recip is None:
        return 0.0
    mult = stats.multiplicities.astype(float)
    T = recip / mult**2
    best = math.inf
    for i1, i2 in pairs.pairs:
        gap = stats.global_means[i1] - stats.global_means[i2]
        best = min(best, (gap * gap / 2.0) / (T[i1] + T[i2]))
    return float(best)


def loop_pseudo_balance(instance, stats, partition, allocation) -> float:
    """The ``pseudo_balanced`` half of ``balance_residuals``, by the per-client loop."""
    recip = loop_reciprocal_sums(instance, allocation)
    mult = stats.multiplicities.astype(float)
    values = stats.gaps**2 * mult**2 / recip
    pseudo = 0.0
    for cls in partition.classes:
        vals = values[np.array(cls)]
        if len(vals) > 1:
            pseudo = max(pseudo, float((vals.max() - vals.min()) / vals.mean()))
    return pseudo


def loop_closest_alternative(instance, stats, allocation, pair) -> ProblemInstance:
    i1, i2 = pair
    gap = float(stats.global_means[i1] - stats.global_means[i2])
    denom = 0.0
    for i in (i1, i2):
        mult_sq = float(stats.multiplicities[i]) ** 2
        for m, arms in enumerate(instance.arm_sets):
            if i in arms:
                denom += 1.0 / (allocation.weight(m, i) * mult_sq)
    updates = {}
    for m, arms in enumerate(instance.arm_sets):
        if i1 in arms:
            w = allocation.weight(m, i1)
            updates[(m, i1)] = instance.mean(m, i1) - gap / (stats.multiplicities[i1] * w * denom)
        if i2 in arms:
            w = allocation.weight(m, i2)
            updates[(m, i2)] = instance.mean(m, i2) + gap / (stats.multiplicities[i2] * w * denom)
    return instance.with_means(updates)


def loop_transport_cost(instance, allocation, alternative) -> float:
    total = 0.0
    for m, (arms, mus) in enumerate(zip(instance.arm_sets, instance.means)):
        for i, mu in zip(arms, mus):
            diff = mu - alternative.mean(m, i)
            total += allocation.weight(m, i) * diff * diff / 2.0
    return total
