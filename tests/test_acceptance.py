"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4b checks the ratio ``log(1/delta) / f_inverse(delta)``
against the two-sided bracket that the tail series of ``f`` forces; the
comment on ``test_criterion_4b`` derives it.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from hetbai import (
    CommSchedule,
    SweepConfig,
    aggregate,
    arm_stats,
    balance_residuals,
    brute_force_g_tilde_max,
    build_instance,
    c_star_interval,
    confusion_pairs,
    f_eval,
    f_inverse,
    g_exact,
    g_tilde,
    g_tilde_per_class,
    gen_hardness_instance,
    h_matrix,
    optimal_allocation,
    parse_ratings,
    partition_arms,
    run_episode,
    slot_index,
    sweep,
)

from helpers import (
    chain_three_arm,
    make_instance,
    random_admissible_instance,
    random_positive_allocation,
    single_client_two_arm,
    symmetric_two_arm,
    weight_of,
)
from test_ingest import MINI_RATINGS


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def pair_rate_by_scalar_search(instance, stats, allocation, pair):
    """Numerical minimization over the tied-mean boundary for one pair."""
    terms = []
    for i in pair:
        recip = sum(
            1.0 / weight_of(allocation, m, i)
            for m, arms in enumerate(instance.arm_sets)
            if i in arms
        )
        terms.append((float(stats.global_means[i]), float(slot_index(instance).multiplicities[i]) ** 2 / (2.0 * recip)))
    lo = min(mu for mu, _ in terms)
    hi = max(mu for mu, _ in terms)
    if lo == hi:
        return 0.0
    res = optimize.minimize_scalar(
        lambda c: sum(scale * (c - mu) ** 2 for mu, scale in terms),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return float(res.fun)


def test_criterion_1_sandwich_and_pairwise_oracle():
    rng = np.random.default_rng(1001)
    worst_ratio = 0.0
    for _ in range(200):
        v = random_admissible_instance(rng, max_arms=4, max_clients=3)
        stats = arm_stats(v)
        pairs = confusion_pairs(v, stats)
        alloc = random_positive_allocation(rng, v)
        gt = g_tilde(v, stats, alloc)
        ge = g_exact(v, stats, alloc)
        assert gt / 2.0 * (1.0 - 1e-9) <= ge <= gt * (1.0 + 1e-9)
        oracle = min(pair_rate_by_scalar_search(v, stats, alloc, p) for p in pairs)
        assert math.isclose(ge, oracle, rel_tol=1e-6)
        worst_ratio = max(worst_ratio, abs(ge - oracle) / max(ge, 1e-300))
    report("criterion 1 (sandwich + pairwise oracle)", True, f"worst oracle gap {worst_ratio:.2e}")


ORACLE_TRACTABLE = [
    ("K2M1", single_client_two_arm()),
    ("K2M2-sym", symmetric_two_arm()),
    (
        "K2M2-asym",
        make_instance(
            [(0, 1), (0, 1)],
            {(0, 0): 1.3, (0, 1): 0.2, (1, 0): 0.7, (1, 1): -0.4},
        ),
    ),
    ("K3M1", make_instance([(0, 1, 2)], {(0, 0): 2.0, (0, 1): 0.7, (0, 2): 0.0})),
    ("K3M2-chain", chain_three_arm()),
    (
        "K3M2-nested",
        make_instance(
            [(0, 1, 2), (0, 1)],
            {(0, 0): 2.0, (0, 1): 0.7, (0, 2): 0.0, (1, 0): 1.6, (1, 1): 0.9},
        ),
    ),
]


def test_criterion_2_allocation_optimality():
    worst_gap = -math.inf
    for name, v in ORACLE_TRACTABLE:
        stats = arm_stats(v)
        part = partition_arms(v)
        gvec, alloc = optimal_allocation(v, stats)
        value = g_tilde(v, stats, alloc)
        _, grid_value = brute_force_g_tilde_max(v, 0.01)
        assert value >= grid_value - 1e-3, (name, value, grid_value)
        worst_gap = max(worst_gap, grid_value - value)
        balanced, pseudo = balance_residuals(v, stats, alloc)
        assert balanced <= 1e-12, (name, balanced)
        assert pseudo <= 1e-8, (name, pseudo)
        H = h_matrix(v, stats)
        rates = g_tilde_per_class(v, stats, alloc)
        for j, cls in enumerate(part.classes):
            idx = np.array(cls)
            G_j = gvec[idx]
            resid = float(np.max(np.abs(H[np.ix_(idx, idx)] @ G_j - G_j / rates[j])))
            assert resid <= 1e-8, (name, j, resid)
    report(
        "criterion 2 (eigenvector allocation optimal, balanced, eigen-consistent)",
        True,
        f"{len(ORACLE_TRACTABLE)} instances, worst grid-vs-eigen gap {worst_gap:.2e}",
    )


def test_criterion_3_hardness_family_bounds():
    K, M = 3, 2
    for rho in (1.0, 10.0, 100.0):
        v = gen_hardness_instance(rho, K, M, [(0, 1), (1, 2)])
        lower, upper = c_star_interval(v)
        outer_lo = 4.0 * rho / (M * K * K)
        outer_hi = 4.0 * K * rho
        assert outer_lo <= lower <= upper <= outer_hi, (rho, lower, upper)
    report("criterion 3 (hardness-family interval containment)", True)


def test_criterion_4a_f_round_trip_and_exact_base_case():
    for kprime in (1, 2, 5, 20):
        for delta in (0.5, 0.1, 1e-5, 1e-20):
            x = f_inverse(delta, kprime)
            assert abs(f_eval(x, kprime) - delta) <= 1e-10 * delta, (kprime, delta)
    for delta in (0.5, 0.1, 1e-5, 1e-20):
        assert f_inverse(delta, 1) == math.log(1.0 / delta)
    for kprime in (1, 2, 5, 20):
        ratios = [
            math.log(1.0 / d) / f_inverse(d, kprime)
            for d in (1e-5, 1e-10, 1e-20, 1e-40)
        ]
        assert all(b >= a for a, b in zip(ratios, ratios[1:])), kprime
    report("criterion 4a (f round trip, exact base case, monotone ratio)", True)


def _last_term_root(delta: float, kprime: int, log_weight: float = 0.0) -> float:
    """Root ``x >= K' - 1`` of ``(K'-1) log x - x - lgamma(K') + log_weight = log delta``.

    That is ``weight * x^(K'-1) e^(-x) / (K'-1)! = delta``: ``log_weight = 0``
    gives the lower end ``l`` and ``log_weight = log K'`` the upper end ``u``
    of the bracket on ``f_inverse(delta, K')``.
    """
    if kprime == 1:
        return math.log(1.0 / delta) + log_weight

    def excess(x):
        return (kprime - 1) * math.log(x) - x - math.lgamma(kprime) + log_weight - math.log(delta)

    lo = hi = float(kprime - 1)
    assert excess(lo) > 0.0, (delta, kprime)
    while excess(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(excess, lo, hi, xtol=1e-12)


def test_criterion_4b_ratio_floor_at_large_kprime():
    # f(x, K') = sum_{i<K'} x^i e^(-x) / i! is decreasing in x, and the
    # ratio log(1/delta)/f_inverse(delta) tends to 1 as delta -> 0, but at a
    # fixed delta it falls further below 1 as K' grows.  How far below 1 it
    # may sit is set by the last term T(x) = x^(K'-1) e^(-x) / (K'-1)!,
    # which is decreasing for x >= K' - 1:
    #   lower end: f(x) >= T(x), so T(f_inverse) <= delta and
    #     f_inverse >= l, the root >= K' - 1 of T(x) = delta;
    #   upper end: for x >= K' - 1 the terms x^i/i! grow with i (ratio x/i >= 1),
    #     so f(x) <= K' T(x), K' T(f_inverse) >= delta and
    #     f_inverse <= u, the root >= K' - 1 of K' T(x) = delta.
    # f_inverse and both roots lie right of K' - 1, where T is decreasing,
    # because f(K' - 1) >= T(K' - 1) > delta for both deltas (the second
    # inequality is asserted in _last_term_root).  Hence
    #   log(1/delta)/u <= log(1/delta)/f_inverse <= log(1/delta)/l,
    # with l = u = log(1/delta) exactly at K' = 1.  The floor log(1/delta)/u
    # must rise as delta falls, which is the ratio -> 1 promise.
    # A fixed floor of 0.8 at delta = 1e-40 is out of reach for K' >= 8: there
    # log(1/delta)/l is already below 0.8.
    kprimes = (1, 2, 5, 20)
    floors = {}
    rows = []
    ok = True
    for delta in (1e-40, 1e-300):
        base = math.log(1.0 / delta)
        for k in kprimes:
            ratio = base / f_inverse(delta, k)
            floor = base / _last_term_root(delta, k, math.log(k))
            ceiling = base / _last_term_root(delta, k)
            ok = ok and floor <= ratio <= ceiling
            floors[delta, k] = floor
            rows.append(f"delta={delta:g} K'={k}: {floor:.4f} <= {ratio:.4f} <= {ceiling:.4f}")
    rising = all(floors[1e-300, k] > floors[1e-40, k] for k in kprimes if k > 1)
    report(
        "criterion 4b (log(1/delta)/u <= log(1/delta)/f_inverse <= log(1/delta)/l "
        "at delta=1e-40, 1e-300; floor rises as delta falls)",
        ok and rising,
        "; ".join(rows),
    )


def _cyclic_pairs_instance():
    """K=M=3 analogue of the mid-overlap layout: cyclic pairs, banded means."""
    rng = np.random.default_rng(2024)
    sets = [(0, 1), (1, 2), (0, 2)]
    means = {}
    for m, s in enumerate(sets):
        for i in s:
            lo = 6.0 - i
            means[(m, i)] = float(rng.uniform(lo, lo + 1.0))
    return make_instance(sets, means, num_arms=3)


def test_criterion_5_delta_pac():
    v = _cyclic_pairs_instance()
    delta, n = 0.1, 200
    records = sweep(
        SweepConfig(instance=v, deltas=(delta,), policy="het-ts", lam=0.5,
                    repetitions=n, base_seed=50_000)
    )
    errors = sum(not r.correct for r in records)
    bound = delta + 3.0 * math.sqrt(delta * (1 - delta) / n)
    rate = errors / n
    report(
        "criterion 5 (delta-PAC at delta=0.1, 200 episodes)",
        rate <= bound,
        f"error rate {rate:.3f} <= {bound:.3f}",
    )


@pytest.fixture(scope="module")
def slope_sweep():
    v = chain_three_arm()
    stats = arm_stats(v)
    _, alloc = optimal_allocation(v, stats)
    g_star = g_tilde(v, stats, alloc)
    lam = 0.1
    deltas = tuple(math.exp(-e) for e in (8, 12, 16, 20))
    records = sweep(
        SweepConfig(instance=v, deltas=deltas, policy="het-ts", lam=lam,
                    repetitions=50, base_seed=90_000)
    )
    rows = aggregate(records)
    by_delta = {row.delta: row for row in rows}
    ordered = [by_delta[d] for d in deltas]
    return g_star, lam, deltas, ordered


def test_criterion_6_stopping_time_slope(slope_sweep):
    g_star, lam, deltas, rows = slope_sweep
    xs = [math.log(1.0 / d) for d in deltas]
    taus = [row.mean_tau for row in rows]
    assert all(b >= a for a, b in zip(taus, taus[1:])), "mean tau must grow with log(1/delta)"
    slope = float(np.polyfit(xs, taus, 1)[0])
    low = 0.8 * (1.0 / g_star)
    high = 1.3 * 2.0 * (1.0 + lam) * (2.0 / g_star)
    report(
        "criterion 6 (stopping-time slope within hardness band)",
        low <= slope <= high,
        f"slope {slope:.2f} in [{low:.2f}, {high:.2f}]",
    )


def test_criterion_7_rounds_scaling(slope_sweep):
    _, lam, deltas, rows = slope_sweep
    worst = 0.0
    for row in rows:
        expected = math.log(row.mean_tau) / math.log(1.0 + lam)
        worst = max(worst, abs(row.mean_rounds - expected))
    report(
        "criterion 7 (rounds track log_(1+lambda) of mean stopping time)",
        worst <= 3.0,
        f"worst deviation {worst:.2f} rounds",
    )


def test_criterion_8_uniform_baseline_and_ingest():
    sets = [(0, 1, 2)] * 3
    means = {(m, i): (4.0, 3.0, 0.0)[i] for m in range(3) for i in range(3)}
    v = make_instance(sets, means, num_arms=3)
    delta = math.exp(-10)
    het = sweep(SweepConfig(instance=v, deltas=(delta,), policy="het-ts", lam=0.1,
                            repetitions=50, base_seed=7_000))
    uni = sweep(SweepConfig(instance=v, deltas=(delta,), policy="uniform", lam=0.1,
                            repetitions=50, base_seed=7_000))
    mean_het = float(np.mean([r.tau for r in het]))
    mean_uni = float(np.mean([r.tau for r in uni]))
    assert mean_uni > mean_het, (mean_uni, mean_het)

    result = build_instance(parse_ratings(MINI_RATINGS), min_samples=10)
    expected = make_instance(
        [(0, 1), (0, 1)],
        {(0, 0): 50.0, (0, 1): 20.0, (1, 0): 90.0, (1, 1): 50.0},
    )
    assert result.instance == expected
    assert result.client_labels == ("north", "south")
    assert result.arm_labels == ("alpha", "beta")
    report(
        "criterion 8 (uniform baseline slower; ingest reproduces fixture exactly)",
        True,
        f"mean tau uniform {mean_uni:.0f} > het-ts {mean_het:.0f}",
    )


def test_criterion_9_schedule_and_determinism():
    # every recorded stopping time is a schedule instant
    for lam in (0.1, 0.5):
        sched = CommSchedule(lam)
        for seed in range(3):
            rec = run_episode(symmetric_two_arm(), "het-ts", 0.1, lam, seed)
            assert sched.is_instant(rec.tau)
            assert rec.rounds == sched.round_exponent(rec.tau)
    # deduplicated consecutive ratios stay below 2 + lambda (exact arithmetic)
    for lam in (0.01, 0.5, 1.0):
        instants = CommSchedule(lam).instants(10_000)
        bn, bd = float(2.0 + lam).as_integer_ratio()
        assert all(b * bd <= bn * a for a, b in zip(instants, instants[1:])), lam
    # identical seeds give bitwise-identical records under 1 and 8 workers
    base = dict(
        instance=chain_three_arm(), deltas=(0.1, 0.05), policy="het-ts",
        lam=0.5, repetitions=2, base_seed=31,
    )
    serial = sweep(SweepConfig(workers=1, **base))
    parallel = sweep(SweepConfig(workers=8, **base))
    assert serial == parallel
    report("criterion 9 (schedule membership, ratio bound, worker determinism)", True)
