import itertools
import math
import re

import numpy as np
import pytest
from scipy import special, stats as sps

from hetbai import policy
from hetbai import (
    Allocation,
    CommSchedule,
    arm_stats,
    f_eval,
    f_inverse,
    g_exact,
    should_stop,
    slot_server_vector,
    slot_z_statistic,
    track_pulls,
    uniform_pulls,
)

from helpers import (
    ClientState,
    empirical_slots,
    f_root_oracle,
    loop_z_statistic,
    make_instance,
    observe,
    random_admissible_instance,
    random_structural_instance,
    select_arm,
    symmetric_two_arm,
)


def exact_ratio_leq(numer: int, denom: int, bound: float) -> bool:
    """numer/denom <= bound, exactly, for arbitrarily large integers."""
    bn, bd = float(bound).as_integer_ratio()
    return numer * bd <= bn * denom


def _cut(m: int, e: int, bits: int, up: bool) -> tuple[int, int]:
    """``m * 2**e`` rounded down (up, if ``up``) to ``bits`` significant bits, as ``(m, e)``."""
    extra = m.bit_length() - bits
    if extra <= 0:
        return m, e
    return (-((-m) >> extra) if up else m >> extra), e + extra


def _power_bound(num: int, r: int, bits: int, up: bool) -> tuple[int, int]:
    """``(m, e)`` with ``m * 2**e`` at most (at least, if ``up``) ``num**r``.

    Binary powering with every product rounded the same way to ``bits``
    bits; all factors are positive, so the bound holds, and it is exact
    once ``bits`` covers ``num**r``.
    """
    acc, base = (1, 0), (num, 0)
    while r:
        if r & 1:
            acc = _cut(acc[0] * base[0], acc[1] + base[1], bits, up)
        r >>= 1
        if r:
            base = _cut(base[0] * base[0], 2 * base[1], bits, up)
    return acc


def _q_power_bounds(lam: float, r: int):
    """Ever tighter ``(m_lo, e_lo, m_hi, e_hi)``: ``m_lo 2**e_lo <= q^r <= m_hi 2**e_hi``."""
    num, den = (1.0 + lam).as_integer_ratio()  # den is a power of two
    shift = (den.bit_length() - 1) * r
    bits = 64
    while True:
        lo, hi = _power_bound(num, r, bits, False), _power_bound(num, r, bits, True)
        yield lo[0], lo[1] - shift, hi[0], hi[1] - shift
        bits *= 2


def _scaled_minus(m: int, e: int, n: int) -> int:
    """``m * 2**e - n`` scaled by a power of two: its sign is exact."""
    return (m << e) - n if e >= 0 else m - (n << -e)


def _scaled_ceil(m: int, e: int) -> int:
    return m << e if e >= 0 else -((-m) >> -e)


def q_power_exceeds(lam: float, r: int, n: int) -> bool:
    """Whether ``q^r > n`` for ``q = 1 + lam`` as a float, exactly."""
    for lo, le, hi, he in _q_power_bounds(lam, r):
        if _scaled_minus(lo, le, n) > 0:
            return True
        if _scaled_minus(hi, he, n) <= 0:
            return False


def q_power_ceil(lam: float, r: int) -> int:
    """``ceil(q^r)`` for ``q = 1 + lam`` as a float, exactly."""
    for lo, le, hi, he in _q_power_bounds(lam, r):
        if _scaled_ceil(lo, le) == _scaled_ceil(hi, he):
            return _scaled_ceil(lo, le)


def exact_schedule(lam: float, count: int) -> tuple[list[int], list[int]]:
    """The first ``count`` distinct ``ceil(q^r)`` and the least ``r`` of each, in integers.

    A float estimate only says where to start looking: each exponent is
    proved least by exact comparisons, ``q^(r-1) <= last < q^r``.
    """
    instants, exponents, last, r = [], [], 1, 0
    while len(instants) < count:
        r = max(r + 1, math.floor(math.log(last) / math.log(1.0 + lam)))
        while not q_power_exceeds(lam, r, last):
            r += 1
        while q_power_exceeds(lam, r - 1, last):  # stops at the last exponent, q^r0 <= last
            r -= 1
        last = q_power_ceil(lam, r)
        instants.append(last)
        exponents.append(r)
    return instants, exponents


class TestCommSchedule:
    def test_powers_of_two(self):
        assert CommSchedule(1.0).instants(5) == [2, 4, 8, 16, 32]

    def test_lambda_half(self):
        assert CommSchedule(0.5).instants(8) == [2, 3, 4, 6, 8, 12, 18, 26]

    def test_lambda_hundredth_dedups(self):
        sched = CommSchedule(0.01)
        assert sched.instants(2) == [2, 3]
        # ceil(1.01^r) == 2 for r = 1..69; the first exponent producing 3 is 70
        assert sched.round_exponent(2) == 1
        assert sched.round_exponent(3) == 70

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            CommSchedule(0.0)
        with pytest.raises(ValueError):
            CommSchedule(-0.5)
        # the wording and the rule of input_violations: an int too large for a
        # float is not finite, and a bool is not a number
        message = f"lambda must be a positive finite number, got {10**400!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CommSchedule(10**400)
        with pytest.raises(ValueError, match="^lambda must be a number, got True$"):
            CommSchedule(True)

    def test_rejects_lambda_that_vanishes_against_one(self):
        # 1 + 2**-53 rounds to 1, so no power would ever pass the first instant
        for lam in (1e-17, 2.0**-53):
            with pytest.raises(ValueError, match=f"got {lam!r}"):
                CommSchedule(lam)
        assert CommSchedule(2.0**-52).lam == 2.0**-52  # representable, only slow

    def test_strictly_increasing_and_ratio_bounded(self):
        for lam in (0.01, 0.5, 1.0):
            instants = CommSchedule(lam).instants(2000)
            assert all(b > a for a, b in zip(instants, instants[1:]))
            for a, b in zip(instants, instants[1:]):
                assert exact_ratio_leq(b, a, 2.0 + lam)

    def test_round_lookup(self):
        sched = CommSchedule(0.5)
        assert sched.is_instant(6)
        assert not sched.is_instant(5)
        with pytest.raises(ValueError):
            sched.round_exponent(5)

    @pytest.mark.parametrize(
        "lam, count",
        [(1e-4, 200), (3e-4, 300), (1e-3, 600), (0.003, 800), (0.01, 1500), (0.0137, 800),
         (0.05, 400), (0.1, 400), (0.2, 300), (1 / 3, 300), (0.5, 600), (0.7, 200), (1.0, 300),
         (2.0, 200), (3.0, 150), (7.3, 150), (10.0, 150)],
    )
    def test_instants_and_exponents_equal_exact_reference(self, lam, count):
        # instants from 2 to past 2**300: the float estimates, where they decide,
        # and the exact powers past them
        sched = CommSchedule(lam)
        instants = sched.instants(count)
        exponents = [sched.round_exponent(t) for t in instants]
        assert (instants, exponents) == exact_schedule(lam, count)

    @pytest.mark.parametrize("lam, count", [(1e-3, 120), (0.01, 400), (0.5, 300), (1.0, 100)])
    def test_exact_fallback_equals_reference(self, monkeypatch, lam, count):
        # a wide error bound leaves most estimates undecided, so the exact powers run
        monkeypatch.setattr(policy, "_ESTIMATE_ERROR", 2.0**-10)
        sched = CommSchedule(lam)
        instants = sched.instants(count)
        exponents = [sched.round_exponent(t) for t in instants]
        assert (instants, exponents) == exact_schedule(lam, count)

    def test_iteration_is_lazy_and_unbounded(self):
        it = iter(CommSchedule(1.0))
        assert [next(it) for _ in range(4)] == [2, 4, 8, 16]


class TestSelectArm:
    """D-tracking through :func:`track_pulls`, one step or one block at a time."""

    def test_first_step_uniform_over_all_arms(self):
        seen = set()
        for seed in range(40):
            counts = track_pulls([0, 0], [0.5, 0.5], 0, 1, np.random.default_rng(seed))
            seen.add(counts.index(1))
        assert seen == {0, 1}

    def test_forced_branch_picks_least_pulled(self):
        # min count 3 < sqrt(100/2) ~ 7.07 forces exploration
        counts = track_pulls([3, 97], [0.5, 0.5], 100, 101, np.random.default_rng(0))
        assert counts == [4, 97]

    def test_tracking_branch_follows_deficit(self):
        # 50 - 101*0.8 < 50 - 101*0.2
        counts = track_pulls([50, 50], [0.8, 0.2], 100, 101, np.random.default_rng(0))
        assert counts == [51, 50]

    def test_forced_exploration_keeps_counts_above_floor(self):
        counts = [0, 0, 0]
        rng = np.random.default_rng(1)
        weights = [0.9, 0.05, 0.05]
        for t in range(1, 5001):
            forced = min(counts) < math.sqrt((t - 1) / 3)
            before = list(counts)
            track_pulls(counts, weights, t - 1, t, rng)
            if forced:
                k = next(k for k in range(3) if counts[k] != before[k])
                assert before[k] == min(before)
            assert min(counts) >= math.sqrt((t - 1) / 3) - 1

    def test_tracking_converges_to_target(self):
        weights = [0.8, 0.2]
        horizon = 100_000
        counts = track_pulls([0, 0], weights, 0, horizon, np.random.default_rng(2))
        fractions = np.array(counts) / horizon
        assert np.max(np.abs(fractions - weights)) <= 0.05

    def test_block_is_deterministic(self):
        runs = [
            track_pulls([0, 0, 0], [1 / 3] * 3, 0, 500, np.random.default_rng(4)) for _ in range(2)
        ]
        assert runs[0] == runs[1] and sum(runs[0]) == 500

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.25] * 4, []])
    def test_rejects_weights_of_another_length(self, weights):
        # with fewer weights than counts the last arms would never be tracked
        message = f"got {len(weights)} weights for 3 counts"
        with pytest.raises(ValueError, match=message):
            track_pulls([5.0, 5.0, 5.0], weights, 15, 40, np.random.default_rng(0))


def per_pull_block(counts, weights, t, stop, rng) -> list[int]:
    """The block advance by the per-pull reference: ``select_arm`` and ``observe`` each step."""
    v = make_instance([tuple(range(len(counts)))], {(0, k): 0.0 for k in range(len(counts))})
    state = ClientState.fresh(v, 0)
    state.counts = np.array(counts, dtype=np.int64)
    for s in range(t + 1, stop + 1):
        observe(state, select_arm(state, s, np.asarray(weights), rng), 0.0)
    return state.counts.tolist()


class TestBlockAdvanceMatchesPerPullLoop:
    def test_counts_and_stream_bitwise_equal(self):
        # Random block advances against the per-pull reference: the same
        # final counts and the same next draw from the tie-breaking stream,
        # written into the list passed, each entry keeping its type.  Sizes
        # 2-12 and 40 cover every arm-set size the suite's episodes compile.
        rng = np.random.default_rng(2024)
        forced_starts = 0
        for case in range(1000):
            size = 40 if case % 200 == 199 else int(rng.integers(2, 13))
            kind = case % 3
            if kind == 0:
                weights = np.full(size, 1.0 / size)
            elif kind == 1:
                weights = rng.dirichlet(np.full(size, 0.5))
            else:  # repeated values, so scores tie exactly
                g = rng.choice([1.0, 2.0, 3.0], size=size)
                weights = g / g.sum()
            t = int(rng.integers(0, 4000))
            # a skewed split starves some arm below sqrt((t-1)/|S|) in about a third of the cases
            split = rng.dirichlet(np.full(size, 0.3 if case % 2 else 5.0))
            start = rng.multinomial(t, split).tolist()
            forced_starts += t > 0 and min(start) < math.sqrt((t - 1) / size)
            stop = t + int(rng.integers(1, 301))
            seed = int(rng.integers(2**32))
            ref_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = per_pull_block(start, weights, t, stop, ref_rng)
            number = int if case // 2 % 2 else float
            counts = [number(c) for c in start]
            got = track_pulls(counts, weights.tolist(), t, stop, block_rng)
            assert got is counts and got == expected, (case, size, t, stop)
            assert {type(c) for c in got} == {number}, case
            assert block_rng.integers(2**62) == ref_rng.integers(2**62), case
        assert 250 <= forced_starts <= 750
        # Exact score ties placed at the first step, at every size the tree
        # covers and the first one it leaves to the scan: the least score on
        # each pair of arms (the first and last among them), which draws; on a
        # pair with a strictly smaller later arm, which does not; on every arm.
        for size in range(2, policy._TREE_ARMS + 2):
            # sixteenths, so s * weight is a whole number at s = 1600
            weights = (rng.multinomial(16 - size, np.full(size, 1.0 / size)) + 1) / 16
            s = 1600
            pairs = itertools.combinations(range(size), 2)
            placed = [((i, j), [-1.0 if k in (i, j) else 1.0 for k in range(size)], True) for i, j in pairs]
            for i, j, h in itertools.combinations(range(size), 3):
                scores = [-1.0 if k in (i, j) else -2.0 if k == h else 1.0 for k in range(size)]
                placed.append(((i, j), scores, False))
            placed.append((tuple(range(size)), None, True))
            for tied, scores, draws in placed:
                if scores is None:  # uniform weights and equal counts
                    w = np.full(size, 1.0 / size)
                    start = [float(s // size)] * size
                    t = s // size * size
                else:
                    w, start, t = weights, (s * weights + scores).tolist(), s - 1
                for stop in (t + 1, t + 40):
                    seed = int(rng.integers(2**32))
                    ref_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    expected = per_pull_block(start, w, t, stop, ref_rng)
                    counts = list(start)
                    got = track_pulls(counts, w.tolist(), t, stop, block_rng)
                    assert got is counts and got == expected, (size, tied, stop)
                    if stop == t + 1:  # the one step drew exactly when the least score tied
                        state = block_rng.bit_generator.state
                        assert (state != np.random.default_rng(seed).bit_generator.state) == draws
                    assert block_rng.integers(2**62) == ref_rng.integers(2**62), (size, tied, stop)

    def test_long_blocks_late_starts_and_skip_bounds_inside(self):
        # Long blocks, starts near 10**6, and starved arms whose skip bound
        # low^2 * |S| falls inside the block, so the forced check fires mid-block;
        # some of those blocks end 1-3 steps past the bound, where it first can.
        rng = np.random.default_rng(2025)
        forced_inside = 0
        for case in range(15):
            size = int(rng.integers(2, 7))
            weights = rng.dirichlet(np.full(size, 0.5))
            if case % 4 == 3:  # repeated values, so scores tie exactly
                g = rng.choice([1.0, 2.0], size=size)
                weights = g / g.sum()
            kind = case % 3
            if kind < 2:
                t = int(rng.integers(0, 4000)) if kind == 0 else 10**6 - int(rng.integers(0, 500))
                start = rng.multinomial(t, weights).tolist()
                stop = t + int(rng.integers(1000, 3001))
            else:  # arm 0 just above the forced threshold and (almost) never tracked
                weights = np.concatenate(([1e-4], weights[1:] / weights[1:].sum() * (1 - 1e-4)))
                t = int(rng.integers(1000, 200_000))
                low = math.isqrt(t // size) + 1
                start = [low] + rng.multinomial(t - low, weights[1:] / weights[1:].sum()).tolist()
                stop = low * low * size + (1, 2, 3, 500, 1500)[case // 3]
            bound = min(start) ** 2 * size
            seed = int(rng.integers(2**32))
            ref_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = per_pull_block(start, weights, t, stop, ref_rng)
            got = track_pulls([float(c) for c in start], weights.tolist(), t, stop, block_rng)
            assert got == expected, (case, size, t, stop)
            assert block_rng.integers(2**62) == ref_rng.integers(2**62), case
            forced_inside += t < bound < stop and got[0] > start[0] and kind == 2
        assert forced_inside == 4, forced_inside  # every starved case ending 2+ steps past


class TestObserve:
    """The per-pull reference that the block advance is checked against."""

    def test_single_observation(self):
        state = ClientState.fresh(symmetric_two_arm(), 0)
        observe(state, 0, 1.7)
        assert state.empirical_means()[0] == 1.7

    def test_two_observations_average(self):
        state = ClientState.fresh(symmetric_two_arm(), 0)
        observe(state, 1, 1.0)
        observe(state, 1, 3.0)
        assert state.empirical_means()[1] == 2.0

    def test_unpulled_arm_has_zero_mean(self):
        state = ClientState.fresh(symmetric_two_arm(), 0)
        assert state.empirical_means().tolist() == [0.0, 0.0]

    def test_rejects_foreign_arm(self):
        state = ClientState.fresh(symmetric_two_arm(), 0)
        with pytest.raises(ValueError, match="not accessible"):
            observe(state, 7, 0.0)

    def test_counts_sum_to_time(self):
        rng = np.random.default_rng(0)
        tracked, uniform, t = [0, 0, 0], np.zeros(3, dtype=np.int64), 0
        for stop in (1, 2, 3, 7, 50, 199):
            track_pulls(tracked, [0.5, 0.3, 0.2], t, stop, rng)
            uniform += uniform_pulls(3, stop - t, rng)
            t = stop
            assert sum(tracked) == uniform.sum() == t


class TestServerGlobalVector:
    def test_tied_empirical_means_fall_back_to_ones(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0})
        np.testing.assert_array_equal(slot_server_vector(*empirical_slots(v)), np.ones(2))

    def test_admissible_instance_uses_eigenvector(self):
        np.testing.assert_allclose(
            slot_server_vector(*empirical_slots(symmetric_two_arm())),
            [0.7071067811865475] * 2,
            atol=1e-10,
        )

    def test_unpulled_zero_means_fall_back_to_ones(self):
        # two arms never pulled share the empirical mean 0 at the top
        v = make_instance([(0, 1, 2)], {(0, 0): 0.0, (0, 1): 0.0, (0, 2): -1.5})
        np.testing.assert_array_equal(slot_server_vector(*empirical_slots(v)), np.ones(3))


class TestZStatistic:
    def test_single_client_closed_form(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 0.0})
        z = slot_z_statistic(*empirical_slots(v, [np.array([10, 10])]))
        assert math.isclose(z, 2.5, rel_tol=1e-12)

    def test_zero_count_gives_zero(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 0.0})
        assert slot_z_statistic(*empirical_slots(v, [np.array([20, 0])])) == 0.0

    def test_inadmissible_gives_zero(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0})
        assert slot_z_statistic(*empirical_slots(v, [np.array([10, 10])])) == 0.0

    def test_matches_pair_loop_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            v = random_structural_instance(rng)
            counts = [rng.integers(0, 4, size=len(s)) for s in v.arm_sets]
            assert slot_z_statistic(*empirical_slots(v, counts)) == loop_z_statistic(v, counts)

    def test_matches_time_scaled_rate(self):
        # algebraic identity: z on raw counts equals t * g_exact evaluated at
        # the pull fractions counts/t, for lockstep counts (common t)
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = random_admissible_instance(rng)
            t = int(rng.integers(20, 200))
            counts = []
            for s in v.arm_sets:
                split = rng.multinomial(t - len(s), np.full(len(s), 1.0 / len(s)))
                counts.append(split.astype(np.int64) + 1)  # keep all counts positive
            stats = arm_stats(v)
            fractions = Allocation(
                arm_sets=v.arm_sets,
                weights=tuple(tuple(float(x) for x in c / t) for c in counts),
            )
            z = slot_z_statistic(*empirical_slots(v, counts))
            assert math.isclose(z, t * g_exact(v, stats, fractions), rel_tol=1e-12)


class TestFMachinery:
    def test_single_term_is_exponential(self):
        for delta in (0.5, 0.1, 1e-5):
            assert f_inverse(delta, 1) == math.log(1.0 / delta)
            assert math.isclose(f_eval(math.log(1.0 / delta), 1), delta, rel_tol=1e-12)

    def test_two_terms_at_one(self):
        assert math.isclose(f_eval(1.0, 2), 2.0 / math.e, rel_tol=1e-12)

    def test_inverse_at_tenth(self):
        assert math.isclose(f_inverse(0.1, 2), 3.8897201698674286, rel_tol=1e-9)

    def test_matches_incomplete_gamma(self):
        # independent route: f(x, K') is the regularized upper incomplete gamma
        for k in (1, 2, 5, 20):
            for x in (0.3, 1.0, 4.0, 25.0, 80.0):
                assert math.isclose(f_eval(x, k), float(special.gammaincc(k, x)), rel_tol=1e-12)

    def test_strictly_decreasing_into_unit_interval(self):
        # for small x and large K' the value saturates to 1.0 in float64, so
        # test the representable range per K'
        for k, x_lo in ((1, 0.05), (3, 0.5), (10, 3.0)):
            xs = np.linspace(x_lo, 60.0, 400)
            values = [f_eval(x, k) for x in xs]
            assert all(0.0 < v < 1.0 for v in values)
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_round_trip(self):
        for k in (1, 2, 5, 20):
            for delta in (0.5, 0.1, 1e-5, 1e-20, 1e-40):
                x = f_inverse(delta, k)
                assert x >= math.log(1.0 / delta)
                assert abs(f_eval(x, k) - delta) <= 1e-10 * delta

    def test_ratio_monotone_toward_one(self):
        # log(1/d)/f_inverse(d) climbs toward 1 as d shrinks; the 0.8 floor at
        # d=1e-40 holds only for small K' (K'=7 gives 0.808, K'=8 gives 0.787)
        for k in (2, 5, 20):
            ratios = [
                math.log(1.0 / d) / f_inverse(d, k) for d in (1e-5, 1e-10, 1e-20, 1e-40)
            ]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] <= 1.0
        for k in (1, 2, 5, 7):
            assert math.log(1e40) / f_inverse(1e-40, k) >= 0.8

    def test_large_kprime_against_incomplete_gamma(self):
        # exp(-x) underflows past x ~ 745, so the tail is evaluated in log
        # space; Q(K', x) = delta is the independent route
        for k in (2, 20, 700, 1000, 3000, 10_000):
            for delta in (0.1, 1e-6, 1e-40, 1e-300):
                x = f_inverse(delta, k)
                assert math.isclose(float(special.gammaincc(k, x)), delta, rel_tol=1e-9), (k, delta)
                assert math.isclose(x, float(special.gammainccinv(k, delta)), rel_tol=1e-9), (k, delta)
                assert math.isclose(f_eval(x, k), delta, rel_tol=1e-9), (k, delta)
        assert math.isclose(f_inverse(0.1, 1000), 1040.734, rel_tol=1e-6)
        assert math.isclose(f_inverse(1e-6, 3000), 3267.591, rel_tol=1e-6)
        assert math.isclose(f_inverse(1e-300, 10_000), 14175.24, rel_tol=1e-6)

    def test_kept_roots_follow_the_argument_type(self):
        # 1.0 / delta is a float32 for a float32 delta: an equal float delta has its own root
        d32 = np.float32(0.3)
        for order in ([float(d32), d32], [d32, float(d32)]):
            roots = [f_inverse(d, 1) for d in order]
            assert roots == [math.log(1.0 / d) for d in order]
        assert math.log(1.0 / d32) != math.log(1.0 / float(d32))

    def test_rejects_delta_whose_reciprocal_overflows(self):
        # 1/delta is taken in delta's own type; where it overflows, log(1/delta) is inf and
        # the threshold inf or nan, so no episode could stop
        for delta in (1e-310, 2.0**-1024, np.float32(1e-40), np.float32(2.0**-128)):
            with pytest.raises(ValueError, match="too small: 1/delta overflows"):
                f_inverse(delta, 3)
        for smallest in (np.nextafter(2.0**-1024, 1.0), np.nextafter(np.float32(2.0**-128), 1)):
            assert math.isfinite(f_inverse(smallest, 3))

    @pytest.mark.parametrize("k", [2, 3, 5, 10, 100, 1000, 10_000, 100_000])
    def test_newton_starts_right_of_the_root(self, k, monkeypatch):
        # f <= K' T(x) for x >= K' - 1 puts the start's log-tail at least
        # (K' + 1) log(log(1/delta) + 3) + 2 nats below log(delta) (f_inverse's docstring)
        class Started(Exception):
            pass

        real = policy._log_poisson

        def log_tail(x, first, log_factorials):
            raise Started(real(x, first, log_factorials))

        monkeypatch.setattr(policy, "_log_poisson", log_tail)
        # above 1/2 the root is solved on the complement, from the left (test_near_one_*)
        for delta in (np.nextafter(2.0**-1024, 1.0), 1e-300, 1e-40, 1e-6, 0.1, 0.5):
            with pytest.raises(Started) as start:
                policy.f_inverse.__wrapped__(delta, k)  # past the kept roots
            bound = math.log(delta) - (k + 1) * math.log(math.log(1.0 / delta) + 3.0) - 2.0
            assert start.value.args[0] < bound, (k, delta)

    @pytest.mark.parametrize("k", [1, 2, 10, 1000, 10_000, 100_000])
    def test_near_one_matches_mpmath_root(self, k, monkeypatch):
        # Every root, not only those near delta = 1.  Near 1, log(delta) drowns in the
        # rounding of log f: solving there overshot the root (762.07 at K' = 1000,
        # delta = 1 - 2**-53) or stepped to a negative x, so the complement's Newton
        # steps climb onto the root from the left; at and below 1/2 they fall onto it
        # from the right.  Either way they stop at the rounding floor of the log sum:
        # a stop on |log f - log delta| <= 1e-12, finer than that floor from K' = 10**4
        # on, spent all 100 iterations there.
        steps = []
        log_poisson = policy._log_poisson

        def spy(x, first, log_factorials):
            steps.append(x)
            return log_poisson(x, first, log_factorials)

        monkeypatch.setattr(policy, "_log_poisson", spy)
        tail = (np.nextafter(2.0**-1024, 1.0), 1e-300, 1e-40, 1e-6, 0.1, 0.5)
        head = (np.nextafter(0.5, 1.0), 0.6, 0.9, 1 - 1e-5, 1 - 1e-9, 1 - 1e-13, 1 - 2**-53)
        for delta in tail + head:
            steps.clear()
            x = policy.f_inverse.__wrapped__(delta, k)  # past the kept roots
            assert abs(x - f_root_oracle(delta, k)) <= 1e-12 * x, (k, delta)
            assert len(steps) <= 20, (k, delta, len(steps))
            if delta in tail:
                if k == 1:
                    assert x == math.log(1.0 / delta) and not steps, delta
                    continue
                assert all(b < a for a, b in zip(steps, steps[1:])), (k, delta)
            else:
                assert all(b > a for a, b in zip(steps, steps[1:])), (k, delta)
                assert 0.0 < steps[0] and steps[-1] < k, (k, delta)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            f_eval(0.0, 2)
        with pytest.raises(ValueError):
            f_eval(1.0, 0)
        with pytest.raises(ValueError):
            f_inverse(0.0, 2)
        with pytest.raises(ValueError):
            f_inverse(1.5, 2)
        with pytest.raises(ValueError, match="^kprime must be at least 1$"):
            f_inverse(0.1, 0)


class TestShouldStop:
    def test_threshold_value(self):
        stop, beta = should_stop(2.5, 20, f_inverse(0.1, 2), 2, num_arms=2)
        assert math.isclose(beta, 2 * math.log(420) + 3.8897201698674286, rel_tol=1e-9)
        assert not stop  # 2.5 < 15.97

    def test_fires_above_threshold(self):
        stop, beta = should_stop(16.5, 20, f_inverse(0.1, 2), 2, num_arms=2)
        assert stop

    def test_never_fires_before_k_arms(self):
        stop, _ = should_stop(1e9, 1, f_inverse(0.1, 2), 2, num_arms=2)
        assert not stop


class TestRecommend:
    """The recommendation is each client's argmax of the aggregate means (``best_arms``)."""

    def test_clear_winner(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 0.0})
        assert empirical_slots(v)[1].best_arms.tolist() == [0]

    def test_symmetric_truth(self):
        assert empirical_slots(symmetric_two_arm())[1].best_arms.tolist() == [0, 0]

    def test_tie_breaks_to_smallest_index(self):
        v = make_instance([(0, 1, 2)], {(0, 0): 0.5, (0, 1): 1.0, (0, 2): 1.0})
        assert empirical_slots(v)[1].best_arms.tolist() == [1]


class TestUniformSelect:
    def test_frequencies_chi_square(self):
        counts = uniform_pulls(4, 100_000, np.random.default_rng(0))
        assert counts.sum() == 100_000
        _, p = sps.chisquare(counts)
        assert p > 0.001
        assert np.max(np.abs(counts / 100_000 - 0.25)) <= 0.02

    def test_reproducible_for_fixed_seed(self):
        a = uniform_pulls(2, 10, np.random.default_rng(5))
        b = uniform_pulls(2, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
