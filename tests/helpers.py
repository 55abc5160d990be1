"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass, field

import mpmath
import numpy as np

from hetbai import (
    Allocation,
    ArmStats,
    CommSchedule,
    ProblemInstance,
    RunRecord,
    SlotIndex,
    arm_stats,
    f_inverse,
    gen_overlap_instance,
    should_stop,
    slot_index,
    slot_server_vector,
    slot_stats,
    slot_z_statistic,
    track_pulls,
    uniform_pulls,
    validate,
)
from hetbai.allocation import CERTIFICATE_TOL, ZERO_WEIGHT
from hetbai.instance import _MEAN_FIELDS, _TOP_FIELDS, _is_integer, _json_mean


def make_instance(arm_sets, means_map, num_arms=None) -> ProblemInstance:
    return ProblemInstance.from_means(arm_sets, means_map, num_arms=num_arms)


def mean_of(instance: ProblemInstance, client: int, arm: int) -> float:
    """Mean of ``arm`` at ``client``; raises if the client lacks the arm."""
    try:
        k = instance.arm_sets[client].index(arm)
    except ValueError:
        raise ValueError(f"arm {arm + 1} not accessible to client {client + 1}") from None
    return instance.means[client][k]


def means_map(instance: ProblemInstance) -> dict[tuple[int, int], float]:
    return {
        (m, i): mu
        for m, (arms, mus) in enumerate(zip(instance.arm_sets, instance.means))
        for i, mu in zip(arms, mus)
    }


def with_means(instance: ProblemInstance, new_means) -> ProblemInstance:
    """Copy of ``instance`` with some (client, arm) means replaced."""
    merged = means_map(instance)
    for key, mu in new_means.items():
        if key not in merged:
            m, i = key
            raise ValueError(f"arm {i + 1} not accessible to client {m + 1}")
        merged[key] = float(mu)
    return ProblemInstance.from_means(instance.arm_sets, merged, num_arms=instance.num_arms)


def empirical_slots(instance: ProblemInstance, counts=None):
    """Slot index, slot stats and (when given) slot-ordered counts of an empirical instance."""
    index = slot_index(instance)
    stats = slot_stats(index, index.flatten(instance.means))
    return (index, stats) if counts is None else (index, stats, index.flatten(counts))


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


def loop_multiplicities(instance: ProblemInstance) -> np.ndarray:
    """Reference for the slot index: the number of clients owning each arm, as floats."""
    mult = np.zeros(instance.num_arms)
    for arms in instance.arm_sets:
        for i in arms:
            mult[i] += 1
    return mult


def loop_arm_stats(instance: ProblemInstance) -> ArmStats:
    """Reference for the slot reductions: arm statistics by a per-client loop."""
    K = instance.num_arms
    sums = np.zeros(K)
    for arms, mus in zip(instance.arm_sets, instance.means):
        for i, mu in zip(arms, mus):
            sums[i] += mu
    global_means = sums / loop_multiplicities(instance)
    best_arms = np.empty(instance.num_clients, dtype=np.int64)
    gaps = np.full(K, np.inf)
    for m, arms in enumerate(instance.arm_sets):
        idx = np.array(arms)
        mus = global_means[idx]
        best_arms[m] = arms[int(np.argmax(mus))]
        for k, i in enumerate(arms):
            others = np.delete(mus, k)
            gaps[i] = min(gaps[i], abs(mus[k] - others.max()))
    return ArmStats(global_means=global_means, gaps=gaps, best_arms=best_arms)


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
    T = recip / loop_multiplicities(instance) ** 2
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


def class_instance(rng):
    """Random instance whose ``K`` arms, shuffled, form 1 to ``K // 2`` groups of clients' arm sets.

    A group's arm sets may leave it one class or split it into several;
    classes of one size are common, and arm-set sizes vary within and
    across groups.
    """
    K = int(rng.integers(4, 10))
    groups = np.array_split(rng.permutation(K), int(rng.integers(1, K // 2 + 1)))
    sets = []
    for group in groups:
        covered: set[int] = set()
        while covered != set(group.tolist()):
            size = int(rng.integers(2, len(group) + 1))
            arms = tuple(sorted(rng.choice(group, size=size, replace=False).tolist()))
            sets.append(arms)
            covered.update(arms)
    order = rng.permutation(len(sets))
    sets = [sets[k] for k in order]
    return make_instance(sets, {(m, i): 0.0 for m, s in enumerate(sets) for i in s}, num_arms=K)


def admissible_class_instance(rng):
    """A :func:`class_instance` layout with normal means, redrawn until :func:`validate` admits."""
    layout = class_instance(rng)
    while True:
        means = {(m, i): float(rng.normal()) for m, s in enumerate(layout.arm_sets) for i in s}
        instance = with_means(layout, means)
        if validate(instance).admissible:
            return instance


def layout_instance(arm_sets, num_arms: int) -> ProblemInstance:
    """A structurally valid instance on ``arm_sets``, every mean 0.0 (a layout, not admissible)."""
    sets = tuple(tuple(sorted(s)) for s in arm_sets)
    zeros = tuple((0.0,) * len(s) for s in sets)
    return ProblemInstance(num_arms=num_arms, num_clients=len(sets), arm_sets=sets, means=zeros)


def path_sets(arms) -> list[tuple[int, ...]]:
    """One two-arm client per consecutive pair of ``arms``: the path through them in order."""
    return [tuple(sorted(pair)) for pair in zip(arms, arms[1:])]


def shuffled_chains(num_arms: int, rng: np.random.Generator) -> list[list[int]]:
    """The arms, shuffled, cut into chains of 2 to 4 arms (the last one of 2 to 5)."""
    ends = np.cumsum(rng.integers(2, 5, size=num_arms // 2))
    cuts = ends[ends <= num_arms - 2].tolist()
    arms = rng.permutation(num_arms).tolist()
    return [arms[a:b] for a, b in zip([0, *cuts], [*cuts, num_arms])]


def adversarial_layouts(num_arms: int, rng: np.random.Generator):
    """``(name, arm_sets)`` of two-arm clients that chain the arms far apart.

    A shuffled path; the least arm at one end with the rest descending, where
    min-label propagation moves a label one arm per round; a zigzag path
    (least, greatest, next least, ...); a star centred on the greatest arm; a
    shuffled heap-ordered tree (arm ``q[v]`` under ``q[(v - 1) // 2]``); and
    shuffled chains of 2 to 4 arms.
    """
    K = num_arms
    yield "shuffled path", path_sets(rng.permutation(K).tolist())
    yield "least end, rest descending", path_sets([0, *range(K - 1, 0, -1)])
    yield "zigzag path", path_sets([K - 1 - v // 2 if v % 2 else v // 2 for v in range(K)])
    yield "star on the greatest arm", [(i, K - 1) for i in range(K - 1)]
    q = rng.permutation(K).tolist()
    yield "shuffled heap tree", [tuple(sorted((q[v], q[(v - 1) // 2]))) for v in range(1, K)]
    yield "shuffled chains", [s for chain in shuffled_chains(K, rng) for s in path_sets(chain)]


def long_path(num_arms: int, seed: int = 1) -> ProblemInstance:
    """Client ``m`` owns arms ``m`` and ``m + 1``; arm means are sorted normal draws, descending.

    Both owners of an arm see its mean, so client ``m``'s best arm is ``m``:
    one class of ``num_arms`` arms that :func:`validate` admits.
    """
    mu = np.sort(np.random.default_rng(seed).normal(size=num_arms))[::-1].tolist()
    pairs = [(m, m + 1) for m in range(num_arms - 1)]
    return ProblemInstance(
        num_arms=num_arms,
        num_clients=num_arms - 1,
        arm_sets=tuple(pairs),
        means=tuple((mu[a], mu[b]) for a, b in pairs),
    )


def traced_peak(call, *args) -> int:
    """Peak bytes traced by ``tracemalloc`` (numpy buffers included) while ``call(*args)`` runs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nan_eigh(a: np.ndarray, signature: str) -> tuple[np.ndarray, np.ndarray]:
    """An ``eigh_lo`` that did not converge: LAPACK's gufunc returns NaNs, not an error."""
    return np.full(a.shape[:-1], np.nan), np.full(a.shape, np.nan)


def loop_perron(block: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference for the stacked polish: one block, 1-D vectors and ``numpy.linalg.norm``.

    The same rule as the library's ``_perron_polish``, written for one block.
    """
    x = np.abs(start)
    y = block @ x
    while True:
        x = y / float(np.linalg.norm(y))
        y = block @ x
        lam = float(x @ y)
        if lam > 0.0 and x.min() > 0.0:
            if float(np.max(np.abs(y - lam * x) / (lam * x))) <= CERTIFICATE_TOL:
                return x, lam


def random_overlap_instance(rng: np.random.Generator, min_gap: float = 0.25) -> ProblemInstance:
    """Synthetic instance on a random overlap layout, redrawn until every gap is ``>= min_gap``."""
    while True:
        v = gen_overlap_instance(int(rng.integers(1, 5)), int(rng.integers(2**31)))
        if loop_arm_stats(v).gaps.min() >= min_gap:
            return v


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
    mult = loop_multiplicities(instance)
    values = (stats.gaps**2 / 2.0) * mult**2 / recip
    return float(values.min())


def loop_g_tilde_per_class(instance, stats, partition, allocation) -> np.ndarray:
    recip = loop_reciprocal_sums(instance, allocation)
    out = np.zeros(len(partition.classes))
    if recip is None:
        return out
    mult = loop_multiplicities(instance)
    values = stats.gaps**2 * mult**2 / recip
    for j, cls in enumerate(partition.classes):
        out[j] = values[np.array(cls)].min()
    return out


def loop_g_exact(instance, stats, pairs, allocation) -> float:
    recip = loop_reciprocal_sums(instance, allocation)
    if recip is None:
        return 0.0
    mult = loop_multiplicities(instance)
    T = recip / mult**2
    best = math.inf
    for i1, i2 in pairs:
        gap = stats.global_means[i1] - stats.global_means[i2]
        best = min(best, (gap * gap / 2.0) / (T[i1] + T[i2]))
    return float(best)


def loop_pseudo_balance(instance, stats, partition, allocation) -> float:
    """The ``pseudo_balanced`` half of ``balance_residuals``, by the per-client loop."""
    recip = loop_reciprocal_sums(instance, allocation)
    mult = loop_multiplicities(instance)
    values = stats.gaps**2 * mult**2 / recip
    pseudo = 0.0
    for cls in partition.classes:
        vals = values[np.array(cls)]
        if len(vals) > 1:
            pseudo = max(pseudo, float((vals.max() - vals.min()) / vals.mean()))
    return pseudo


def weight_of(allocation: Allocation, client: int, arm: int) -> float:
    """Weight of ``arm`` at ``client``; 0.0 when the client does not own the arm."""
    arms = allocation.arm_sets[client]
    return allocation.weights[client][arms.index(arm)] if arm in arms else 0.0


def loop_balanced(allocation: Allocation) -> float:
    """The ``balanced`` half of ``balance_residuals``, over every pair of clients."""
    balanced = 0.0
    M = len(allocation.arm_sets)
    for m1 in range(M):
        for m2 in range(m1 + 1, M):
            common = sorted(set(allocation.arm_sets[m1]) & set(allocation.arm_sets[m2]))
            for i1, i2 in itertools.permutations(common, 2):
                r1 = weight_of(allocation, m1, i1) / weight_of(allocation, m1, i2)
                r2 = weight_of(allocation, m2, i1) / weight_of(allocation, m2, i2)
                balanced = max(balanced, abs(r1 - r2))
    return balanced


# --- Grid oracle for the relaxed rate ---


_MAX_GRID_POINTS = 10_000_000  # largest grid brute_force_g_tilde_max enumerates
_GRID_CHUNK = 1_000_000  # grid points it scores per array pass


def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All probability vectors of length ``dim`` on the grid k/steps."""
    points = []
    for cuts in itertools.combinations(range(steps + dim - 1), dim - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + dim - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) / steps


def brute_force_g_tilde_max(
    instance: ProblemInstance,
    grid_step: float,
    stats: ArmStats | None = None,
) -> tuple[Allocation, float]:
    """Exhaustive grid maximization of the relaxed rate (test oracle).

    Enumerates the product of per-client simplex grids with the given step
    and returns the first grid point attaining the maximum.  Guarded against
    grids with more than ``_MAX_GRID_POINTS`` points.
    """
    stats = arm_stats(instance) if stats is None else stats
    steps = round(1.0 / grid_step)
    if steps < 1 or abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must evenly divide 1")
    grids = [_simplex_grid(len(s), steps) for s in instance.arm_sets]
    counts = [len(g) for g in grids]
    total = math.prod(counts)
    if total > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid would have {total} points (> {_MAX_GRID_POINTS}); use a smaller instance or step"
        )
    mult_sq = slot_index(instance).squared_multiplicities
    half_gap_sq = stats.gaps**2 / 2.0
    owners = [
        [(m, instance.arm_sets[m].index(i)) for m in range(instance.num_clients) if i in instance.arm_sets[m]]
        for i in range(instance.num_arms)
    ]
    best_value = -1.0
    best_flat = 0
    for lo in range(0, total, _GRID_CHUNK):
        flat = np.arange(lo, min(lo + _GRID_CHUNK, total))
        idx = np.unravel_index(flat, counts)
        value = np.full(len(flat), np.inf)
        with np.errstate(divide="ignore"):
            for i in range(instance.num_arms):
                recip = np.zeros(len(flat))
                for m, k in owners[i]:
                    recip += 1.0 / grids[m][idx[m], k]
                value = np.minimum(value, half_gap_sq[i] * mult_sq[i] / recip)
        k = int(np.argmax(value))
        if value[k] > best_value:
            best_value = float(value[k])
            best_flat = int(flat[k])
    best_idx = np.unravel_index(best_flat, counts)
    rows = [tuple(float(w) for w in grids[m][best_idx[m]]) for m in range(instance.num_clients)]
    return Allocation(arm_sets=instance.arm_sets, weights=tuple(rows)), best_value


# --- mpmath root of the threshold offset ---


def f_root_oracle(delta: float, kprime: int) -> float:
    """Root ``x`` of ``Q(K', x) = delta`` at 60 digits: the regularized upper incomplete gamma.

    Above ``delta = 1/2`` it solves the lower tail ``P(K', x) = 1 - delta``
    instead, so neither side cancels.  Bisection to eight digits from a
    doubling bracket, then Newton's method on mpmath's own functions.
    """
    with mpmath.workdps(60):
        d, k = mpmath.mpf(float(delta)), mpmath.mpf(kprime)
        if d > 0.5:
            rising = lambda x: mpmath.gammainc(k, 0, x, regularized=True) - (1 - d)
        else:
            rising = lambda x: d - mpmath.gammainc(k, x, mpmath.inf, regularized=True)
        lo = hi = k
        while rising(hi) < 0:
            hi *= 2
        while rising(lo) > 0:
            lo /= 2
        while hi - lo > hi * mpmath.mpf(10) ** -8:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rising(mid) < 0 else (lo, mid)
        density = lambda x: mpmath.exp((k - 1) * mpmath.log(x) - x - mpmath.loggamma(k))
        return float(mpmath.findroot(rising, (lo + hi) / 2, df=density, solver="newton"))


# --- Reference per-pull client rules and episode loop ---


@dataclass
class ClientState:
    """Mutable per-client bookkeeping of the per-pull reference loop."""

    client: int
    arm_set: tuple[int, ...]
    num_arms: int
    counts: np.ndarray
    reward_sums: np.ndarray
    global_vec: np.ndarray
    t: int = 0
    _pos: dict[int, int] = field(default_factory=dict, repr=False)

    @classmethod
    def fresh(cls, instance: ProblemInstance, client: int) -> "ClientState":
        arms = instance.arm_sets[client]
        return cls(
            client=client,
            arm_set=arms,
            num_arms=instance.num_arms,
            counts=np.zeros(len(arms), dtype=np.int64),
            reward_sums=np.zeros(len(arms)),
            global_vec=np.ones(instance.num_arms),
            _pos={i: k for k, i in enumerate(arms)},
        )

    def weights(self) -> np.ndarray:
        """Sampling target from the cached global vector, normalized locally."""
        g = self.global_vec[np.array(self.arm_set)]
        return g / g.sum()

    def empirical_means(self) -> np.ndarray:
        """Per-arm empirical means, zero for arms never pulled."""
        out = np.zeros(len(self.arm_set))
        np.divide(self.reward_sums, self.counts, out=out, where=self.counts > 0)
        return out


def select_arm(state: ClientState, t: int, weights: np.ndarray, rng: np.random.Generator) -> int:
    """Reference D-tracking choice at time ``t``, one pull at a time."""
    counts = state.counts
    if counts.min() < math.sqrt((t - 1) / len(state.arm_set)):
        scores = counts
    else:
        scores = counts - t * np.asarray(weights)
    candidates = np.flatnonzero(scores == scores.min())
    k = int(candidates[0]) if len(candidates) == 1 else int(candidates[rng.integers(len(candidates))])
    return state.arm_set[k]


def observe(state: ClientState, arm: int, reward: float) -> ClientState:
    """Record one pull; returns the (mutated) state."""
    k = state._pos.get(arm)
    if k is None:
        raise ValueError(f"arm {arm + 1} not accessible to client {state.client + 1}")
    state.counts[k] += 1
    state.reward_sums[k] += reward
    state.t += 1
    return state


def uniform_select(state: ClientState, rng: np.random.Generator) -> int:
    return state.arm_set[int(rng.integers(len(state.arm_set)))]


def block_run_episode(
    instance: ProblemInstance, policy: str, delta: float, lam: float, seed: int, trace=None
) -> RunRecord:
    """Reference for the lockstep batch: one episode, one block per instant, 1-D arrays.

    The per-episode kernel the batch replaced: the same streams and block
    rule, rewards from ``Generator.normal``, and the server of
    :func:`reference_server_step` on a stack of one, with its per-client
    weights.  ``trace`` receives ``(t, z, beta, stopped)`` tuples.
    """
    index = slot_index(instance)
    slot_means = index.flatten(instance.means)
    true_best = tuple(int(a) for a in reference_slot_stats(index, slot_means).best_arms)
    kprime = index.num_slots
    offset = f_inverse(delta, kprime)
    schedule = CommSchedule(lam)
    sizes = [len(arms) for arms in instance.arm_sets]
    select_rngs = [np.random.default_rng((seed, m, 0)) for m in range(instance.num_clients)]
    reward_rng = np.random.default_rng((seed, 0, 1))
    tracked = [[0] * size for size in sizes]
    weights = [[1.0 / size] * size for size in sizes]
    counts = np.zeros(kprime, dtype=np.int64)
    sums = np.zeros(kprime)
    t = 0
    for instant in schedule:
        if policy == "uniform":
            block = np.concatenate(
                [uniform_pulls(size, instant - t, rng) for size, rng in zip(sizes, select_rngs)]
            )
        else:
            for row, w, rng in zip(tracked, weights, select_rngs):
                track_pulls(row, w, t, instant, rng)
            block = np.array([c for row in tracked for c in row]) - counts
        sums += reward_rng.normal(block * slot_means, np.sqrt(block))
        counts += block
        t = instant
        stats, z, stop, beta, broadcast = reference_server_step(
            index, instance.num_arms, counts[None], sums[None], t, np.array([offset])
        )
        if trace is not None:
            trace.append((t, float(z[0]), float(beta[0]), bool(stop[0])))
        if stop[0]:
            recommendation = tuple(int(a) for a in stats.best_arms[0])
            return RunRecord(
                policy=policy, lam=lam, delta=delta, seed=seed, tau=t,
                rounds=schedule.round_exponent(t), correct=recommendation == true_best,
                recommendation=recommendation,
            )
        if policy != "uniform":
            weights = broadcast[0]
    raise AssertionError("unreachable: the schedule is unbounded")


# --- Reference server step ---
#
# Stats, Z(t), the stop rule, the broadcast global vector and the client
# weights, written against the plain slot arrays of an index (the stack of
# ``rows`` copies is built here, not taken from the index's caches), with
# plain numpy reductions, and the global vector and the weights one class
# block, row and client at a time.  The library must match it bit for bit.


def _reference_stack(index: SlotIndex, rows: int) -> tuple:
    """``(slot_arm, slot_client, client starts, multiplicities)`` of ``rows`` disjoint copies."""
    copies = np.arange(rows)[:, None]
    slot_arm = (index.slot_arm + index.num_arms * copies).ravel()
    slot_client = (index.slot_client + index.num_clients * copies).ravel()
    starts = (index.starts[:-1] + index.num_slots * copies).ravel()
    return slot_arm, slot_client, starts, np.tile(index.multiplicities, rows)


def reference_slot_stats(index: SlotIndex, slot_means) -> ArmStats:
    """``slot_stats`` of one ``(K',)`` or ``B`` stacked ``(B, K')`` configurations."""
    means = np.asarray(slot_means, dtype=float)
    rows = means.size // index.num_slots
    slot_arm, slot_client, starts, mult = _reference_stack(index, rows)
    global_means = (
        np.bincount(slot_arm, weights=means.ravel(), minlength=rows * index.num_arms) / mult
    )
    g = global_means[slot_arm]
    other = np.maximum.reduceat(g, starts)[slot_client]
    first = np.minimum.reduceat(np.where(g == other, np.arange(len(g)), len(g)), starts)
    rest = g.copy()
    rest[first] = -np.inf
    other[first] = np.maximum.reduceat(rest, starts)
    order = np.argsort(slot_arm, kind="stable")
    gaps = np.minimum.reduceat(np.abs(g - other)[order], np.cumsum(mult) - mult)
    top_arms = slot_arm[first]
    best_arms = top_arms % index.num_arms
    if means.ndim > 1:
        global_means = global_means.reshape(rows, index.num_arms)
        gaps = gaps.reshape(rows, index.num_arms)
        best_arms = best_arms.reshape(rows, index.num_clients)
    return ArmStats(global_means=global_means, gaps=gaps, best_arms=best_arms, top_arms=top_arms)


def reference_z_statistic(index: SlotIndex, stats: ArmStats, slot_counts):
    """``slot_z_statistic``: the confusion-pair minimum on the counts, 0 on an inadmissible row."""
    counts = np.asarray(slot_counts)
    shape = counts.shape
    rows = counts.size // index.num_slots
    slot_arm, slot_client, _, mult = _reference_stack(index, rows)
    best = stats.top_arms[slot_client].reshape(shape)
    own = slot_arm.reshape(shape)
    values = counts.ravel()
    recip = np.full(values.shape, np.inf)
    np.divide(1.0, values, out=recip, where=values > 0)
    T = np.bincount(slot_arm, weights=recip, minlength=rows * index.num_arms) / (
        mult.astype(float) ** 2
    )
    means = stats.global_means.ravel()
    gap = means[best] - means[own]
    rates = gap * gap / 2.0 / (T[best] + T[own])
    z = np.minimum.reduce(rates, axis=-1, initial=np.inf, where=best != own)
    admissible = stats.gaps.min(axis=-1) > 0.0
    if counts.ndim == 1:
        return float(z) if admissible else 0.0
    return np.where(admissible, z, 0.0)


def reference_classes(arm_sets) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(arms, co-ownership)`` of every arm class, without the library's partition or counts.

    Clients' arm sets are merged while they overlap; the classes come sorted
    by least arm, each with its arms in increasing order, and every count
    is added one (client, arm, arm) triple at a time.
    """
    classes: list[set[int]] = []
    for arms in arm_sets:
        merged = set(arms).union(*(c for c in classes if c & set(arms)))
        classes = [c for c in classes if not c & merged] + [merged]
    out = []
    for cls in sorted(sorted(c) for c in classes):
        position = {i: k for k, i in enumerate(cls)}
        co = np.zeros((len(cls), len(cls)))
        for arms in arm_sets:
            for i1 in arms:
                for i2 in arms:
                    if i1 in position:
                        co[position[i1], position[i2]] += 1.0
        out.append((np.array(cls), co))
    return out


def reference_global_vector(index: SlotIndex, stats: ArmStats) -> np.ndarray:
    """``slot_global_vector`` of admissible (stacked) stats: per class and row, eigh and polish.

    The classes and their co-ownership are :func:`reference_classes` of the
    index's slot arrays; the polish is :func:`loop_perron`, one block at a time.
    """
    scale = 1.0 / (stats.gaps**2 * (index.multiplicities.astype(float) ** 2))
    rows = scale.reshape(-1, index.num_arms)
    entries = np.zeros(rows.shape)
    arm_sets = [index.slot_arm[a:b].tolist() for a, b in zip(index.starts[:-1], index.starts[1:])]
    for arms, co in reference_classes(arm_sets):
        for row, d in zip(entries, rows[:, arms]):
            root = np.sqrt(d)
            _, vectors = np.linalg.eigh(root[:, None] * co * root[None, :])
            row[arms] = loop_perron(d[:, None] * co, root * vectors[:, -1])[0]
    return entries.reshape(scale.shape)


def reference_server_vector(index: SlotIndex, stats: ArmStats) -> np.ndarray:
    """``slot_server_vector``: the global vector of each admissible row, all-ones on the others."""
    admissible = stats.gaps.min(axis=-1) > 0.0
    if admissible.all():
        return reference_global_vector(index, stats)
    out = np.ones(stats.gaps.shape)
    if admissible.any():
        out[admissible] = reference_global_vector(index, stats.rows(admissible))
    return out


def reference_client_weights(index: SlotIndex, gvec: np.ndarray) -> list:
    """Per row of ``(B, K)`` global vectors, each client's ``g / g.sum()`` as a list."""
    clients = [index.slot_arm[a:b] for a, b in zip(index.starts[:-1], index.starts[1:])]
    return [[(row[arms] / row[arms].sum()).tolist() for arms in clients] for row in gvec]


def reference_server_step(index: SlotIndex, num_arms: int, counts, sums, t: int, offsets):
    """One server step of ``B`` stacked rows: ``(stats, z, stop, beta, weights)``.

    Stats and ``Z(t)`` of the empirical means (0 where a slot is unpulled),
    the stop flags and thresholds ``K' log(t^2 + t) + offset`` (no stop
    before ``t = num_arms``), and the per-client weights of the rows that run
    on, in row order (``None`` when every row stops).
    """
    means = np.zeros(counts.shape)
    np.divide(sums, counts, out=means, where=counts > 0)
    stats = reference_slot_stats(index, means)
    z = reference_z_statistic(index, stats, counts)
    beta = index.num_slots * math.log(t * t + t) + offsets
    stop = (z > beta) & (t >= num_arms)
    keep = ~stop
    weights = None
    if keep.any():
        weights = reference_client_weights(index, reference_server_vector(index, stats.rows(keep)))
    return stats, z, stop, beta, weights


def loop_run_episode(instance: ProblemInstance, policy: str, delta: float, lam: float, seed: int) -> RunRecord:
    """Reference episode: one select, one reward draw and one observe per client per step.

    Streams: ``(seed, m, 0)`` selects and ``(seed, m, 1)`` draws client
    ``m``'s rewards, one ``normal(mu, 1)`` per pull.
    """
    index = slot_index(instance)
    true_best = tuple(int(a) for a in slot_stats(index, index.flatten(instance.means)).best_arms)
    kprime = index.num_slots
    offset = f_inverse(delta, kprime)
    schedule = CommSchedule(lam)
    clients = [ClientState.fresh(instance, m) for m in range(instance.num_clients)]
    select_rngs = [np.random.default_rng((seed, m, 0)) for m in range(instance.num_clients)]
    reward_rngs = [np.random.default_rng((seed, m, 1)) for m in range(instance.num_clients)]
    mean_rows = [np.asarray(row) for row in instance.means]
    weights = [state.weights() for state in clients]
    uniform = policy == "uniform"
    t = 0
    for instant in schedule:
        while t < instant:
            t += 1
            for m, state in enumerate(clients):
                if uniform:
                    arm = uniform_select(state, select_rngs[m])
                else:
                    arm = select_arm(state, t, weights[m], select_rngs[m])
                reward = reward_rngs[m].normal(mean_rows[m][state._pos[arm]], 1.0)
                observe(state, arm, float(reward))
        counts = np.concatenate([state.counts for state in clients])
        means = np.zeros(kprime)
        np.divide(
            np.concatenate([state.reward_sums for state in clients]), counts,
            out=means, where=counts > 0,
        )
        stats = slot_stats(index, means)
        z = slot_z_statistic(index, stats, counts)
        stop, _ = should_stop(z, t, offset, kprime, instance.num_arms)
        if stop:
            recommendation = tuple(int(a) for a in stats.best_arms)
            return RunRecord(
                policy=policy, lam=lam, delta=delta, seed=seed, tau=t,
                rounds=schedule.round_exponent(t), correct=recommendation == true_best,
                recommendation=recommendation,
            )
        if not uniform:
            gvec = slot_server_vector(index, stats)
            for m, state in enumerate(clients):
                state.global_vec = gvec
                weights[m] = state.weights()
    raise AssertionError("unreachable: the schedule is unbounded")


# --- Reference per-row ratings ingest ---


def loop_parse_ratings(path: str) -> tuple[list[tuple[str, str, float]], list[tuple[int, str]]]:
    """``(client, arm, rating)`` rows and ``(line, reason)`` skips, one row object at a time."""
    rows: list[tuple[str, str, float]] = []
    skipped: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["client", "arm", "rating"]:
            raise ValueError(f"expected header 'client,arm,rating', got {header}")
        last = reader.line_num  # physical lines read so far
        for row in reader:  # a record starts on the line after the previous one ends
            line, last = last + 1, reader.line_num
            if not row:
                continue
            if len(row) != 3:
                skipped.append((line, f"expected 3 fields, got {len(row)}"))
                continue
            client, arm, raw = row[0].strip(), row[1].strip(), row[2].strip()
            if not client or not arm:
                skipped.append((line, "empty client or arm label"))
                continue
            if last > line and any(c in client or c in arm for c in "\r\n"):
                skipped.append((line, "line break in client or arm label"))
                continue
            try:
                rating = float(raw)
            except ValueError:
                skipped.append((line, f"non-numeric rating {raw!r}"))
                continue
            if not math.isfinite(rating):
                skipped.append((line, f"non-finite rating {raw!r}"))
                continue
            rows.append((client, arm, rating))
    if not rows:
        raise ValueError(f"no valid rating rows in {path}")
    return rows, skipped


def left_to_right_sum(values) -> float:
    """``0.0 + x_1 + x_2 + ...``, one rounding per term: what ``sum`` computes before Python 3.12."""
    total = 0.0
    for x in values:
        total += x
    return total


def loop_build_instance(rows, min_samples=10):
    """``(client_labels, arm_labels, dropped, arm_sets, means)`` by per-pair lists of ratings.

    Ratings are normalized onto [0, 100].  Raises ``ValueError`` where
    ``build_instance`` does, before its admissibility check.
    """
    lo, hi = 0.0, 100.0
    samples: dict[tuple[str, str], list[float]] = {}
    for client, arm, rating in rows:
        samples.setdefault((client, arm), []).append(rating)
    dropped: list[str] = []
    surviving = {}
    for key in sorted(samples):
        values = samples[key]
        if len(values) < min_samples:
            dropped.append(
                f"pair {key[0]}/{key[1]}: {len(values)} samples (fewer than {min_samples})"
            )
        else:
            surviving[key] = values
    arms_of: dict[str, list[str]] = {}
    for c, a in surviving:
        arms_of.setdefault(c, []).append(a)
    arms_before = {a for _, a in surviving}
    for c in sorted(arms_of):
        if len(arms_of[c]) < 2:
            dropped.append(f"client {c}: fewer than 2 arms after filtering")
            for a in arms_of[c]:
                del surviving[(c, a)]
    for a in sorted(arms_before - {a for _, a in surviving}):
        dropped.append(f"arm {a}: no owning client after filtering")
    if not surviving:
        raise ValueError("no (client, arm) pairs survive filtering; " + "; ".join(dropped))
    client_labels = tuple(sorted({c for c, _ in surviving}))
    arm_labels = tuple(sorted({a for _, a in surviving}))
    flat = [x for values in surviving.values() for x in values]
    rmin, rmax = min(flat), max(flat)
    if rmax == rmin:
        raise ValueError("all surviving ratings are identical; cannot normalize")
    scale = (hi - lo) / (rmax - rmin)
    client_index = {c: m for m, c in enumerate(client_labels)}
    arm_index = {a: i for i, a in enumerate(arm_labels)}
    arm_sets: list[list[int]] = [[] for _ in client_labels]
    means: dict[tuple[int, int], float] = {}
    for (c, a), values in surviving.items():
        normalized = [lo + (x - rmin) * scale for x in values]
        means[(client_index[c], arm_index[a])] = left_to_right_sum(normalized) / len(normalized)
        arm_sets[client_index[c]].append(arm_index[a])
    return client_labels, arm_labels, tuple(dropped), arm_sets, means


# --- Reference per-entry instance documents and structural check ---


def loop_to_json(instance: ProblemInstance) -> str:
    """The instance document as one ``json.dumps`` of a dict with one dict per mean record."""
    doc = {
        "K": instance.num_arms,
        "M": instance.num_clients,
        "arm_sets": [[i + 1 for i in s] for s in instance.arm_sets],
        "means": [
            {"client": m + 1, "arm": i + 1, "mu": mu}
            for m, (arms, mus) in enumerate(zip(instance.arm_sets, instance.means))
            for i, mu in zip(arms, mus)
        ],
    }
    return json.dumps(doc)


def loop_from_json(text: str) -> ProblemInstance:
    """The instance of a document, one record at a time into a ``(client, arm) -> mu`` dict."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid instance JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("instance JSON must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise ValueError(f"missing instance fields: {sorted(missing)}")
    K, M = doc["K"], doc["M"]
    if not _is_integer(K) or not _is_integer(M):
        raise ValueError("K and M must be integers")
    if not isinstance(doc["arm_sets"], list) or len(doc["arm_sets"]) != M:
        raise ValueError("arm_sets must be a list with one entry per client")
    sets = []
    for s in doc["arm_sets"]:
        if not isinstance(s, list) or not all(_is_integer(i) for i in s):
            raise ValueError("each arm set must be a list of integers")
        sets.append(tuple(i - 1 for i in s))
    means: dict[tuple[int, int], float] = {}
    if not isinstance(doc["means"], list):
        raise ValueError("means must be a list of records")
    for rec in doc["means"]:
        if type(rec) is not dict:
            raise ValueError("each means entry must be an object")
        if rec.keys() != _MEAN_FIELDS:
            unknown = rec.keys() - _MEAN_FIELDS
            if unknown:
                raise ValueError(f"unknown mean fields: {sorted(unknown)}")
            raise ValueError(f"missing mean fields: {sorted(_MEAN_FIELDS - rec.keys())}")
        client, arm, mu = rec["client"], rec["arm"], rec["mu"]
        if not _is_integer(client) or not _is_integer(arm):
            raise ValueError("mean record client/arm must be integers")
        key = (client - 1, arm - 1)
        if key in means:
            raise ValueError(f"duplicate mean for client {client}, arm {arm}")
        means[key] = mu if type(mu) is float else _json_mean(mu)
    return ProblemInstance.from_means(sets, means, num_arms=K)


def loop_structural_violations(instance: ProblemInstance) -> list[str]:
    """Structural violations by one pass over the entries and one over ``range(K)``.

    Uncovered arms are reported one run of consecutive arms at a time.
    """
    v: list[str] = []
    if instance.num_arms < 1:
        v.append("instance has no arms")
    if instance.num_clients < 1:
        v.append("instance has no clients")
    covered: set[int] = set()
    for m, (arms, mus) in enumerate(zip(instance.arm_sets, instance.means)):
        if len(arms) < 2:
            v.append(f"client {m + 1}: fewer than 2 accessible arms")
        for i in arms:
            if not (0 <= i < instance.num_arms):
                v.append(f"client {m + 1}: arm index {i + 1} outside 1..{instance.num_arms}")
        for i, mu in zip(arms, mus):
            if not math.isfinite(mu):
                v.append(f"client {m + 1}: non-finite mean for arm {i + 1}")
        covered.update(arms)
    uncovered = [i for i in range(instance.num_arms) if i not in covered]
    for _, run in itertools.groupby(enumerate(uncovered), key=lambda pair: pair[1] - pair[0]):
        first, *rest = (i + 1 for _, i in run)
        v.append(
            f"arms {first}..{rest[-1]} not accessible to any client"
            if rest
            else f"arm {first} not accessible to any client"
        )
    return v
