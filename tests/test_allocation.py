import math
import re
import time

import mpmath
import numpy as np
import pytest
from scipy import optimize

from hetbai import (
    Allocation,
    PowerIterationError,
    allocation_from_global,
    arm_stats,
    balance_residuals,
    c_star_interval,
    confusion_pairs,
    g_exact,
    g_tilde,
    g_tilde_per_class,
    gen_hardness_instance,
    h_matrix,
    optimal_allocation,
    partition_arms,
    run_episode,
    slot_index,
    slot_stats,
    validate,
)
from hetbai.simulator import StepCapExceeded
from hetbai.allocation import ZERO_WEIGHT, _client_weights, _perron_polish

from helpers import (
    brute_force_g_tilde_max,
    chain_three_arm,
    loop_balanced,
    loop_g_exact,
    loop_g_tilde,
    loop_g_tilde_per_class,
    loop_pseudo_balance,
    make_instance,
    means_map,
    nan_eigh,
    random_admissible_instance,
    random_overlap_instance,
    random_positive_allocation,
    single_client_two_arm,
    symmetric_two_arm,
    synthetic_stats_gap_1_2,
    weight_of,
    wide_gap_instance,
    with_means,
)


def perron_reference(co: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Positive unit eigenvector of ``diag(scale) @ co`` from a 60-digit symmetric solve."""
    with mpmath.workdps(60):
        root = [mpmath.sqrt(mpmath.mpf(float(d))) for d in scale]
        n = len(root)
        S = mpmath.matrix(n, n)
        for a in range(n):
            for b in range(n):
                S[a, b] = root[a] * mpmath.mpf(float(co[a, b])) * root[b]
        values, vectors = mpmath.eigsy(S)
        top = max(range(n), key=lambda j: values[j])
        x = [abs(root[a] * vectors[a, top]) for a in range(n)]
        norm = mpmath.sqrt(mpmath.fsum(v * v for v in x))
        return np.array([float(v / norm) for v in x])


def pairwise_rate_oracle(instance, stats, allocation, pair):
    """Independent oracle for one confusion pair's rate.

    Minimizes over the tied aggregate value c: moving both arms' aggregate
    means to a common c costs (c - mu)^2 * mult^2 / (2 * sum(1/w)) per arm
    (weighted least squares along the owning clients), and the pair rate is
    the minimum total cost.  Solved by bounded scalar search, not the
    closed form under test.
    """
    i1, i2 = pair
    cost_terms = []
    for i in (i1, i2):
        recip = sum(
            1.0 / weight_of(allocation, m, i)
            for m, arms in enumerate(instance.arm_sets)
            if i in arms
        )
        mult_sq = float(slot_index(instance).multiplicities[i]) ** 2
        mu = float(stats.global_means[i])
        cost_terms.append((mu, mult_sq / (2.0 * recip)))
    lo = min(t[0] for t in cost_terms)
    hi = max(t[0] for t in cost_terms)
    if lo == hi:
        return 0.0

    def cost(c):
        return sum(scale * (c - mu) ** 2 for mu, scale in cost_terms)

    res = optimize.minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12})
    return float(res.fun)


class TestHMatrix:
    def test_symmetric_two_by_two(self):
        v = symmetric_two_arm()
        H = h_matrix(v, arm_stats(v))
        np.testing.assert_allclose(H, [[0.5, 0.5], [0.5, 0.5]])

    def test_unequal_gaps_synthetic_stats(self):
        v = single_client_two_arm()
        H = h_matrix(v, synthetic_stats_gap_1_2(v))
        np.testing.assert_allclose(H, [[1.0, 1.0], [0.25, 0.25]])

    def test_disjoint_classes_block_diagonal(self):
        v = make_instance(
            [(0, 1), (2, 3)], {(0, 0): 1.0, (0, 1): 0.0, (1, 2): 1.0, (1, 3): 0.0}
        )
        H = h_matrix(v, arm_stats(v))
        assert np.all(H[np.ix_([0, 1], [2, 3])] == 0.0)
        assert np.all(H[np.ix_([2, 3], [0, 1])] == 0.0)

    def test_rejects_zero_gap(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0})
        with pytest.raises(ValueError, match="inadmissible"):
            h_matrix(v)

    def test_blocks_similar_to_symmetric(self):
        # Each block is D @ N with D positive diagonal and N symmetric, so
        # D^(-1/2) B D^(1/2) is symmetric: real spectrum, simple positive top
        # eigenvector.  (B itself does not commute with its transpose in
        # general, e.g. [[1, 1], [0.25, 0.25]].)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = random_admissible_instance(rng)
            H = h_matrix(v, arm_stats(v))
            stats = arm_stats(v)
            for cls in partition_arms(v).classes:
                idx = np.array(cls)
                B = H[np.ix_(idx, idx)]
                mult_sq = slot_index(v).squared_multiplicities[idx]
                scale = 1.0 / (stats.gaps[idx] ** 2 * mult_sq)
                root = np.sqrt(scale)
                conjugated = (1.0 / root)[:, None] * B * root[None, :]
                np.testing.assert_allclose(conjugated, conjugated.T, atol=1e-10)


def perron(block, start=None) -> tuple[np.ndarray, float]:
    """``_perron_polish`` of one block, from an all-ones start by default."""
    block = np.asarray(block, dtype=float)
    start = np.ones(len(block)) if start is None else np.asarray(start, dtype=float)
    vectors, values = _perron_polish(block[None], start[None, :, None])
    return vectors[0], float(values[0])


class TestPowerIteration:
    def test_symmetric_rank_one(self):
        u, lam = perron(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(u, [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert math.isclose(lam, 1.0, rel_tol=1e-10)

    def test_unequal_gap_block(self):
        u, lam = perron(np.array([[1.0, 1.0], [0.25, 0.25]]))
        np.testing.assert_allclose(u, np.array([1.0, 0.25]) / np.linalg.norm([1.0, 0.25]), atol=1e-10)
        assert math.isclose(lam, 1.25, rel_tol=1e-10)

    def test_scalar_block(self):
        u, lam = perron(np.array([[0.7]]))
        np.testing.assert_allclose(u, [1.0])
        assert math.isclose(lam, 0.7, rel_tol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_reducible_block_fails_loudly(self):
        # the iterate tends to (1, 0), which is never positive, and the certificate
        # never divides by its zero entry
        with pytest.raises(PowerIterationError, match="no certified positive eigenvector"):
            perron(np.diag([2.0, 1.0]))

    def test_start_sign_is_dropped(self):
        u, lam = perron(np.array([[1.0, 1.0], [0.25, 0.25]]), start=np.array([-4.0, -1.0]))
        np.testing.assert_allclose(u, np.array([4.0, 1.0]) / np.linalg.norm([4.0, 1.0]), rtol=1e-15)
        assert math.isclose(lam, 1.25, rel_tol=1e-12)

    def test_identical_rows_give_equal_entries(self):
        # arms 0 and 1 have the same owners and the same gap; a start that
        # breaks their symmetry in the last bit is made exact by the step
        B = np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [0.5, 0.5, 3.0]])
        values, vectors = np.linalg.eig(B)
        start = np.abs(vectors[:, np.argmax(values.real)].real)
        start[1] = np.nextafter(start[0], 1.0)
        u, _ = perron(B, start=start)
        assert u[0] == u[1]

    def test_residual_bound_on_random_blocks(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = random_admissible_instance(rng)
            H = h_matrix(v, arm_stats(v))
            for cls in partition_arms(v).classes:
                B = H[np.ix_(cls, cls)]
                u, lam = perron(B)
                assert np.min(u) > 0
                assert math.isclose(float(np.linalg.norm(u)), 1.0, rel_tol=1e-10)
                assert np.max(np.abs(B @ u - lam * u)) <= 1e-10 * max(1.0, lam)


class TestEigensolver:
    """The class vector calls the LAPACK gufunc that ``numpy.linalg.eigh`` wraps."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 200])
    @pytest.mark.parametrize("rows", [1, 4])
    def test_gufunc_equals_numpy_eigh_bit_for_bit(self, rows, n):
        # fails by name if a numpy upgrade moves or changes the private module
        rng = np.random.default_rng(1000 * rows + n)
        a = rng.exponential(size=(rows, n, n)) * 10.0 ** rng.uniform(-6, 6, size=(rows, 1, 1))
        a = a + a.mT
        values, vectors = np.linalg._umath_linalg.eigh_lo(a, signature="d->dd")
        want_values, want_vectors = np.linalg.eigh(a)
        assert values.tobytes() == want_values.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()

    def test_non_convergence_fails_at_once(self, monkeypatch):
        monkeypatch.setattr(np.linalg._umath_linalg, "eigh_lo", nan_eigh)
        start = time.perf_counter()
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            optimal_allocation(chain_three_arm())
        assert time.perf_counter() - start < 0.1


class TestGlobalVector:
    def test_symmetric(self):
        gv, _ = optimal_allocation(symmetric_two_arm())
        np.testing.assert_allclose(gv, [0.7071067811865475] * 2, atol=1e-10)

    def test_unequal_gaps_synthetic(self):
        v = single_client_two_arm()
        gv, _ = optimal_allocation(v, synthetic_stats_gap_1_2(v))
        np.testing.assert_allclose(gv, [0.97014250014533, 0.24253562503633], atol=1e-8)

    def test_two_disjoint_symmetric_classes(self):
        v = make_instance(
            [(0, 1), (2, 3)], {(0, 0): 1.0, (0, 1): 0.0, (1, 2): 1.0, (1, 3): 0.0}
        )
        gv, _ = optimal_allocation(v)
        np.testing.assert_allclose(gv, [1 / math.sqrt(2)] * 4, atol=1e-10)
        for cls in partition_arms(v).classes:
            assert math.isclose(float(np.linalg.norm(gv[np.array(cls)])), 1.0, rel_tol=1e-12)

    def test_per_class_unit_norm_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_admissible_instance(rng)
            gv, _ = optimal_allocation(v)
            assert np.min(gv) > 0
            for cls in partition_arms(v).classes:
                assert math.isclose(
                    float(np.linalg.norm(gv[np.array(cls)])), 1.0, rel_tol=1e-10
                )

    def test_certified_on_wide_gaps(self):
        # gaps spread over 12 decades scale the rows of H by up to 1e24; a
        # plain symmetric eigensolver loses the relative accuracy of the
        # small entries (errors up to 5e-5 on these instances)
        rng = np.random.default_rng(31)
        for _ in range(60):
            v = wide_gap_instance(rng)
            index = slot_index(v)
            stats = slot_stats(index, index.flatten(v.means))
            scale = 1.0 / (stats.gaps**2 * index.squared_multiplicities)
            entries, _ = optimal_allocation(v, stats)
            assert np.min(entries) > 0.0
            for arms, blocks in index.class_blocks:  # the classes of one size
                for cls, co in zip(arms, blocks):
                    want = perron_reference(co, scale[cls])
                    assert np.max(np.abs(entries[cls] - want) / want) <= 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            v = random_admissible_instance(rng)
            scaled = with_means(v, {k: 2.7 * mu for k, mu in means_map(v).items()})
            np.testing.assert_allclose(
                optimal_allocation(v)[0], optimal_allocation(scaled)[0], atol=1e-10
            )

    def test_eigen_identity(self):
        # per class: H G = G / per_class_rate, with the no-half convention;
        # residual bound is relative to the eigenvalue for badly scaled gaps
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_admissible_instance(rng)
            stats = arm_stats(v)
            part = partition_arms(v)
            H = h_matrix(v, stats)
            gv, alloc = optimal_allocation(v, stats)
            rates = g_tilde_per_class(v, stats, alloc)
            for j, cls in enumerate(part.classes):
                idx = np.array(cls)
                G_j = gv[idx]
                resid = np.max(np.abs(H[np.ix_(idx, idx)] @ G_j - G_j / rates[j]))
                assert resid <= 1e-8 * max(1.0, 1.0 / rates[j])


class TestGapScale:
    """However its means are scaled, an accepted instance has its allocation; the rest is named."""

    @staticmethod
    def scaled_chain(e: int):
        scale = 10.0**e
        return make_instance(
            [(0, 1), (1, 2)],
            {(0, 0): 3.0 * scale, (0, 1): 2.0 * scale, (1, 1): 2.0 * scale, (1, 2): 0.0},
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("e", [-300, -155, -150, -100, -60, 60, 100, 150, 155, 300])
    def test_allocation_of_the_unscaled_chain_or_a_rejection(self, e):
        v = self.scaled_chain(e)
        report = validate(v)
        if report.admissible:
            _, allocation = optimal_allocation(v)
            want = optimal_allocation(chain_three_arm())[1].weights
            for row, want_row in zip(allocation.weights, want):
                assert np.max(np.abs(np.subtract(row, want_row))) <= 1e-12
        else:
            assert [m.split(":")[0] for m in report.violations] == ["arm 1", "arm 2", "arm 3"]
            assert all("is outside [2**-500, 2**500]" in m for m in report.violations)
        # gap * owners within [2**-500, 2**500] is accepted, and every gap of this chain
        # (1, 1 and 2 times 10**e; arm 2 has two owners) is in range for |e| <= 150
        assert report.admissible == (abs(e) <= 150)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("e", [100, 300, 499])
    def test_two_classes_at_opposite_ends_of_the_gap_range(self, e):
        # the chain at 2**-e beside the chain at 2**e: a diagonal scaled by one factor
        # for the whole instance would leave one of the two classes out of range
        chain = means_map(chain_three_arm())  # clients 0, 1 on arms 0-2
        means = {(m, i): mu * 2.0**-e for (m, i), mu in chain.items()}
        means |= {(m + 2, i + 3): mu * 2.0**e for (m, i), mu in chain.items()}
        v = make_instance([(0, 1), (1, 2), (3, 4), (4, 5)], means)
        assert validate(v).admissible
        _, allocation = optimal_allocation(v)
        want = optimal_allocation(chain_three_arm())[1].weights * 2
        for row, want_row in zip(allocation.weights, want):
            assert np.max(np.abs(np.subtract(row, want_row))) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_power_of_two_scale_of_the_means_changes_no_bit(self):
        # every product, sum, square root and quotient of the allocation scales
        # exactly, so every accepted scale gives the unscaled vector's bits
        rng = np.random.default_rng(32)
        instances = [random_admissible_instance(rng) for _ in range(30)]
        instances += [wide_gap_instance(rng) for _ in range(30)]
        accepted = 0
        for v in instances:
            want = optimal_allocation(v)[0].tobytes()
            for k in (-480, -300, -150, -60, 60, 150, 300, 480):
                scaled = with_means(v, {key: math.ldexp(mu, k) for key, mu in means_map(v).items()})
                if validate(scaled).admissible:
                    accepted += 1
                    assert optimal_allocation(scaled)[0].tobytes() == want, k
        assert accepted >= 400

    def test_rejection_names_only_the_arms_out_of_range(self):
        # a gap of 1 beside gaps of 1e-160: only the arms of the tiny ones are named
        v = make_instance(
            [(0, 1), (2, 3)], {(0, 0): 1.0, (0, 1): 0.0, (1, 2): 2e-160, (1, 3): 1e-160}
        )
        report = validate(v)
        assert report.violations == tuple(
            f"arm {i}: gap 1e-160 times its 1 owning clients is outside [2**-500, 2**500], "
            "the range the allocation represents"
            for i in (3, 4)
        )

    def test_gap_times_owners_is_the_bound(self):
        # arm 2's gap of 2e150 is in range alone but not times its two owners
        v = make_instance(
            [(0, 1), (1, 2)], {(0, 0): 0.0, (0, 1): 2e150, (1, 1): 2e150, (1, 2): 0.0}
        )
        assert validate(v).violations == (
            "arm 2: gap 2e+150 times its 2 owning clients is outside [2**-500, 2**500], "
            "the range the allocation represents",
        )

    @pytest.mark.filterwarnings("error")
    def test_het_ts_episodes_on_scaled_chains(self):
        # the server's global vector every instant: at 1e70 the gaps are so wide that the
        # first allowed instant stops; at 1e-70 no episode can finish, and it says so
        record = run_episode(self.scaled_chain(70), "het-ts", 0.01, 0.1, seed=3)
        assert record.correct and record.tau == 3
        with pytest.raises(StepCapExceeded):
            run_episode(self.scaled_chain(-70), "het-ts", 0.01, 0.1, seed=3, step_cap=2000)


class TestAllocationFromGlobal:
    def test_symmetric(self):
        alloc = allocation_from_global(np.array([0.70710678, 0.70710678]), symmetric_two_arm())
        np.testing.assert_allclose(alloc.weights, [(0.5, 0.5), (0.5, 0.5)])

    def test_unequal(self):
        alloc = allocation_from_global(np.array([0.97014250, 0.24253563]), single_client_two_arm())
        np.testing.assert_allclose(alloc.weights[0], (0.8, 0.2), atol=1e-8)

    def test_all_ones_fallback_gives_uniform(self):
        v = make_instance([(0, 1, 2)], {(0, 0): 3.0, (0, 1): 2.0, (0, 2): 1.0})
        alloc = allocation_from_global(np.ones(3), v)
        np.testing.assert_allclose(alloc.weights[0], (1 / 3, 1 / 3, 1 / 3))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = random_admissible_instance(rng)
            alloc = allocation_from_global(rng.uniform(0.1, 5.0, size=v.num_arms), v)
            for row in alloc.weights:
                assert abs(sum(row) - 1.0) <= 1e-12

    def test_grouped_rows_equal_per_client_normalization(self):
        # arm sets of 2 to 25 arms, so row sums run both the short and the
        # blocked (pairwise) summation; the normalizer also takes a stack of
        # vectors, one per episode of a batch, and each row must equal its
        # own computation, which is also what the allocation holds
        rng = np.random.default_rng(12)
        for _ in range(40):
            K = int(rng.integers(3, 26))
            sets = [tuple(range(K))] + [
                tuple(sorted(rng.choice(K, size=int(rng.integers(2, K + 1)), replace=False).tolist()))
                for _ in range(int(rng.integers(0, 12)))
            ]
            v = make_instance(sets, {(m, i): 0.0 for m, s in enumerate(sets) for i in s}, num_arms=K)
            entries = 10.0 ** rng.uniform(-6.0, 6.0, size=K)
            stack = np.stack([entries, entries[::-1], 1.0 / entries])
            for row, tracked in zip(stack, _client_weights(slot_index(v), stack)):
                want = []
                for arms in v.arm_sets:
                    g = row[np.array(arms)]
                    want.append((g / g.sum()).tolist())
                assert tracked == want
                assert allocation_from_global(row, v).weights == tuple(map(tuple, want))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            allocation_from_global(np.array([1.0, 0.0]), single_client_two_arm())
        message = "global vector length does not match the number of arms"
        with pytest.raises(ValueError, match=f"^{message}$"):
            allocation_from_global(np.array([1.0, 1.0, 1.0]), single_client_two_arm())

    def test_rejects_non_finite(self):
        message = "global vector must be finite, got [nan, 1.0, 1.0]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            allocation_from_global(np.array([math.nan, 1.0, 1.0]), chain_three_arm())

    def test_any_positive_vector_is_balanced(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = random_admissible_instance(rng)
            stats = arm_stats(v)
            alloc = allocation_from_global(rng.uniform(0.2, 3.0, size=v.num_arms), v)
            balanced, _ = balance_residuals(v, stats, alloc)
            assert balanced <= 1e-12


class TestAllocationFields:
    @pytest.mark.parametrize(
        "weights, message",
        [
            (((0.5, 0.5),), "weights not aligned with arm sets"),
            (((0.5, 0.5), (1.0,)), "client 2: weights not aligned with arm set"),
            (((0.5, 0.5), (1.5, -0.5)), "client 2: negative weight"),
            (((0.5, 0.5), (0.25, 0.25)), "client 2: weights sum to 0.5, not 1"),
            (((math.nan, 1.0), (0.5, 0.5)), "client 1: non-finite weight in (nan, 1.0)"),
        ],
        ids=["rows", "row-length", "negative", "sum", "nan"],
    )
    def test_rejects(self, weights, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Allocation(arm_sets=((0, 1), (0, 1)), weights=weights)


class TestArmSetsChecked:
    """Every functional of an allocation rejects one over other arm sets than the instance's."""

    FUNCTIONALS = [g_tilde, g_tilde_per_class, g_exact, balance_residuals]
    # arm sets of an allocation on the chain instance, whose sets are ((0, 1), (1, 2))
    OTHER_SETS = [
        (((0, 2), (0, 1)), 1),  # same sizes
        (((0, 1), (0, 1, 2)), 2),  # other sizes
        (((0, 1),), 2),  # fewer clients
    ]

    @pytest.mark.parametrize("functional", FUNCTIONALS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "arm_sets, client", OTHER_SETS, ids=["same-sizes", "other-sizes", "fewer-clients"]
    )
    def test_rejects_other_arm_sets(self, functional, arm_sets, client):
        v = chain_three_arm()
        alloc = Allocation(arm_sets, tuple(tuple(1.0 / len(s) for _ in s) for s in arm_sets))
        message = f"^client {client}: allocation arm set differs from the instance's$"
        with pytest.raises(ValueError, match=message):
            functional(v, arm_stats(v), alloc)


class TestRateFunctionals:
    def test_g_tilde_symmetric_uniform(self):
        v = symmetric_two_arm()
        assert math.isclose(g_tilde(v, arm_stats(v), Allocation.uniform(v)), 0.5, rel_tol=1e-12)

    def test_g_tilde_synthetic_gaps(self):
        v = single_client_two_arm()
        alloc = Allocation.from_rows(v, [(0.8, 0.2)])
        assert math.isclose(g_tilde(v, synthetic_stats_gap_1_2(v), alloc), 0.4, rel_tol=1e-12)

    def test_g_tilde_zero_weight(self):
        v = single_client_two_arm()
        alloc = Allocation.from_rows(v, [(1.0, 0.0)])
        assert g_tilde(v, arm_stats(v), alloc) == 0.0

    def test_g_exact_symmetric_uniform(self):
        v = symmetric_two_arm()
        stats = arm_stats(v)
        value = g_exact(v, stats, Allocation.uniform(v))
        assert math.isclose(value, 0.25, rel_tol=1e-12)

    def test_g_exact_single_client(self):
        # aggregate gap is 1; reciprocal weights 1/0.8 + 1/0.2 = 6.25
        v = single_client_two_arm()
        stats = arm_stats(v)
        alloc = Allocation.from_rows(v, [(0.8, 0.2)])
        value = g_exact(v, stats, alloc)
        assert math.isclose(value, 0.08, rel_tol=1e-12)

    def test_g_exact_rejects_ties(self):
        # the pairs are undefined when a client's best arm is tied
        v = single_client_two_arm()
        stats = arm_stats(make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0}))
        with pytest.raises(ValueError, match="^inadmissible instance: confusion pairs are undefined"):
            g_exact(v, stats, Allocation.uniform(v))

    def test_g_exact_zero_weight(self):
        v = symmetric_two_arm()
        stats = arm_stats(v)
        alloc = Allocation.from_rows(v, [(1.0, 0.0), (0.5, 0.5)])
        assert g_exact(v, stats, alloc) == 0.0

    def test_sandwich_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = random_admissible_instance(rng)
            stats = arm_stats(v)
            alloc = random_positive_allocation(rng, v)
            gt = g_tilde(v, stats, alloc)
            ge = g_exact(v, stats, alloc)
            assert gt / 2 * (1 - 1e-9) <= ge <= gt * (1 + 1e-9)

    def test_g_exact_matches_scalar_search_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            v = random_admissible_instance(rng)
            stats = arm_stats(v)
            pairs = confusion_pairs(v, stats)
            alloc = random_positive_allocation(rng, v)
            oracle = min(pairwise_rate_oracle(v, stats, alloc, p) for p in pairs)
            value = g_exact(v, stats, alloc)
            assert math.isclose(value, oracle, rel_tol=1e-6)


class TestCStarInterval:
    def test_symmetric(self):
        lower, upper = c_star_interval(symmetric_two_arm())
        assert math.isclose(lower, 2.0, rel_tol=1e-10)
        assert math.isclose(upper, 4.0, rel_tol=1e-10)

    def test_synthetic_gaps(self):
        v = single_client_two_arm()
        lower, upper = c_star_interval(v, synthetic_stats_gap_1_2(v))
        assert math.isclose(lower, 2.5, rel_tol=1e-8)
        assert math.isclose(upper, 5.0, rel_tol=1e-8)

    def test_hardness_family_brackets(self):
        for rho in (1.0, 10.0, 100.0):
            v = gen_hardness_instance(rho, 3, 2, [(0, 1), (1, 2)])
            lower, upper = c_star_interval(v)
            assert 4 * rho / (2 * 9) <= lower <= upper <= 4 * 3 * rho

    def test_rejects_zero_relaxed_rate(self):
        with pytest.raises(ValueError, match="^relaxed rate is zero; instance is degenerate$"):
            c_star_interval(symmetric_two_arm(), g_star=0.0)


class TestBalanceResiduals:
    def test_optimal_allocation_nearly_balanced(self):
        for v in (symmetric_two_arm(), chain_three_arm()):
            stats = arm_stats(v)
            _, alloc = optimal_allocation(v, stats)
            balanced, pseudo = balance_residuals(v, stats, alloc)
            assert balanced <= 1e-8
            assert pseudo <= 1e-8

    def test_uniform_on_unequal_gaps(self):
        # per-arm values are {0.5, 2.0}: spread 1.5 over mean 1.25 -> 1.2
        v = single_client_two_arm()
        stats = synthetic_stats_gap_1_2(v)
        _, pseudo = balance_residuals(v, stats, Allocation.uniform(v))
        assert math.isclose(pseudo, 1.2, rel_tol=1e-12)

    def test_balanced_equals_pairwise_loop(self):
        rng = np.random.default_rng(13)
        for k in range(150):
            v = random_overlap_instance(rng) if k % 2 else random_admissible_instance(rng)
            stats = arm_stats(v)
            alloc = optimal_allocation(v, stats)[1] if k % 3 == 0 else random_positive_allocation(rng, v)
            balanced, _ = balance_residuals(v, stats, alloc)
            assert balanced == loop_balanced(alloc)

    def test_requires_positive_weights(self):
        v = single_client_two_arm()
        with pytest.raises(ValueError):
            balance_residuals(v, arm_stats(v), Allocation.from_rows(v, [(1.0, 0.0)]))


class TestSlotFunctionalsMatchLoops:
    """The slot-array rate functionals against the per-client reference loops."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        for k in range(300):
            v = random_admissible_instance(rng, max_arms=6, max_clients=5)
            stats = arm_stats(v)
            alloc = optimal_allocation(v, stats)[1] if k % 3 == 0 else random_positive_allocation(rng, v)
            yield v, stats, alloc

    def test_rates_bitwise(self):
        for v, stats, alloc in self.cases():
            part = partition_arms(v)
            pairs = confusion_pairs(v, stats)
            assert g_exact(v, stats, alloc) == loop_g_exact(v, stats, pairs, alloc)
            assert g_tilde(v, stats, alloc) == loop_g_tilde(v, stats, alloc)
            assert np.array_equal(
                g_tilde_per_class(v, stats, alloc),
                loop_g_tilde_per_class(v, stats, part, alloc),
            )
            _, pseudo = balance_residuals(v, stats, alloc)
            assert pseudo == loop_pseudo_balance(v, stats, part, alloc)

    def test_tiny_owned_weight_gives_zero(self):
        # a weight at the ZERO_WEIGHT threshold is positive but counts as zero
        v = chain_three_arm()
        stats = arm_stats(v)
        alloc = Allocation.from_rows(v, [(1.0, ZERO_WEIGHT), (0.5, 0.5)])
        assert g_tilde(v, stats, alloc) == 0.0
        assert g_exact(v, stats, alloc) == 0.0
        assert np.array_equal(g_tilde_per_class(v, stats, alloc), [0.0])


class TestBruteForceOracle:
    def test_symmetric_maximum(self):
        v = symmetric_two_arm()
        alloc, value = brute_force_g_tilde_max(v, 0.01)
        assert math.isclose(value, 0.5, rel_tol=1e-12)
        np.testing.assert_allclose(alloc.weights, [(0.5, 0.5), (0.5, 0.5)])

    def test_synthetic_gap_maximum(self):
        v = single_client_two_arm()
        alloc, value = brute_force_g_tilde_max(v, 0.01, stats=synthetic_stats_gap_1_2(v))
        assert math.isclose(value, 0.4, rel_tol=1e-12)
        np.testing.assert_allclose(alloc.weights[0], (0.8, 0.2))

    def test_grid_never_beats_eigen_solution(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            v = random_admissible_instance(rng, max_arms=3, max_clients=2)
            stats = arm_stats(v)
            _, alloc = optimal_allocation(v, stats)
            try:
                _, value = brute_force_g_tilde_max(v, 0.02)
            except ValueError:
                continue
            assert value <= g_tilde(v, stats, alloc) + 1e-12

    def test_guard_trips(self):
        means = {(m, i): float(3 - i + 0.1 * m) for m in range(2) for i in range(3)}
        v = make_instance([(0, 1, 2), (0, 1, 2)], means)
        with pytest.raises(ValueError, match="grid would have"):
            brute_force_g_tilde_max(v, 0.01)

    def test_rejects_uneven_step(self):
        with pytest.raises(ValueError, match="evenly divide"):
            brute_force_g_tilde_max(symmetric_two_arm(), 0.03)
