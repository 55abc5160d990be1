"""Stacked server kernels against their one-configuration calls, bit for bit.

A lockstep batch computes the server side of all its episodes at once, so
every stacked reduction must give each row exactly what the row alone
gives: the per-arm sums, the eigensolver, the Perron polish (whose norm is
the square root of the dot product ``y . y``, as ``numpy.linalg.norm``
computes it for one vector; ``numpy.linalg.norm(..., axis=1)`` sums in
another order), the per-client weight sums and the reward draws.  Each
stream draws a chunk of blocks in one call, which must give the values and
leave the stream where the per-block calls would.
"""

import numpy as np
import pytest

import math

from hetbai import slot_index, slot_server_vector, slot_stats, slot_z_statistic, uniform_pulls
from hetbai.instance import SlotIndex
from hetbai.allocation import _client_weights, _perron_polish, slot_global_vector
from hetbai.simulator import _server_step

from helpers import (
    class_instance,
    loop_perron,
    make_instance,
    random_structural_instance,
    reference_classes,
    reference_global_vector,
    reference_server_step,
    wide_gap_instance,
)


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stacked_cases(rng, count):
    """Instances with 1-6 stacked empirical configurations (some tied, some unpulled)."""
    for _ in range(count):
        v = random_structural_instance(rng)
        index = slot_index(v)
        rows = int(rng.integers(1, 7))
        means = rng.normal(0.0, 1.0, size=(rows, index.num_slots))
        means[rng.random(means.shape) < 0.2] = 0.0  # unpulled slots read 0
        if rng.random() < 0.3:
            means[0] = np.round(means[0])  # coarse means tie tops
        counts = rng.integers(0, 30, size=(rows, index.num_slots))
        yield index, means, counts


class TestStackedStats:
    def test_rows_equal_single_configurations(self):
        rng = np.random.default_rng(70)
        for index, all_means, all_counts in stacked_cases(rng, 300):
            # After the full stack, a shorter one reads prefixes of the same cached
            # copies, as a batch does once some of its episodes have stopped.
            assert index.stacked(1) is index  # one row is the index itself
            rows = len(all_means)
            for r in (rows, rows - 1) if rows > 2 else (rows,):
                means, counts = all_means[:r], all_counts[:r]
                stacked = slot_stats(index, means)
                z = slot_z_statistic(index, stacked, counts)
                admissible = stacked.is_admissible()
                for row in range(r):
                    alone = slot_stats(index, means[row])
                    for field in ("global_means", "gaps", "best_arms"):
                        want = getattr(alone, field)
                        assert bitwise_equal(getattr(stacked, field)[row], want), field
                    assert admissible[row] == alone.is_admissible()
                    assert z[row] == slot_z_statistic(index, alone, counts[row])

    def test_row_counts_are_views_of_the_largest_stack(self):
        # A batch passes through up to one row count per episode; each reads
        # prefixes of the largest stack's arrays, sliced once, and allocates none.
        rng = np.random.default_rng(77)
        fields = ("slot_client", "slot_arm", "starts", "multiplicities",
                  "slot_positions", "squared_multiplicities",
                  "client_starts", "copy_arm", "arm_rows", "client_rows")
        for _ in range(20):
            index = slot_index(random_structural_instance(rng))
            for largest_rows in (4, 7):  # a larger batch later replaces the largest stack
                largest = index.stacked(largest_rows)
                for rows in range(largest_rows, 1, -1):
                    stack = index.stacked(rows)
                    assert stack is index.stacked(rows)
                    fresh = SlotIndex._of(index.num_arms, np.diff(index.starts), index.slot_arm)
                    alone = fresh.stacked(rows)  # built for this row count only
                    for name in fields:
                        got = getattr(stack, name)
                        assert np.shares_memory(got, getattr(largest, name)), name
                        assert bitwise_equal(got, getattr(alone, name)), name
                    for got, big, want in zip(stack.arm_runs, largest.arm_runs, alone.arm_runs):
                        assert np.shares_memory(got, big) and bitwise_equal(got, want)

    def test_rows_equal_single_configurations_as_episodes_stop(self):
        # the running rows of a batch shrink one stopped episode at a time, down to one
        rng = np.random.default_rng(78)
        for index, means, counts in stacked_cases(rng, 60):
            running = list(range(len(means)))
            while running:
                stacked = slot_stats(index, means[running])
                z = slot_z_statistic(index, stacked, counts[running])
                vectors = slot_server_vector(index, stacked)
                for row, k in enumerate(running):
                    alone = slot_stats(index, means[k])
                    for field in ("global_means", "gaps", "best_arms"):
                        assert bitwise_equal(getattr(stacked, field)[row], getattr(alone, field))
                    assert z[row] == slot_z_statistic(index, alone, counts[k])
                    assert bitwise_equal(vectors[row], slot_server_vector(index, alone))
                running.pop(int(rng.integers(len(running))))

    def test_server_vector_rows_equal_single_configurations(self):
        rng = np.random.default_rng(71)
        checked = 0
        for index, means, _ in stacked_cases(rng, 200):
            stacked = slot_stats(index, means)
            vectors = slot_server_vector(index, stacked)
            for row in range(len(means)):
                alone = slot_server_vector(index, slot_stats(index, means[row]))
                assert bitwise_equal(vectors[row], alone)
                checked += 1
        assert checked > 500


class TestServerStepMatchesReference:
    def test_stats_z_stop_and_weights_bit_for_bit(self):
        # Successive steps of a shrinking batch, as run_batch takes them: stats,
        # Z, stop flags, thresholds and the running rows' weights, against the
        # frozen reference server with its own stack arrays.
        rng = np.random.default_rng(79)
        seen = dict.fromkeys(("several classes", "classes of one size", "size groups",
                              "zero count", "mixed admissible", "prefix stack", "stop", "run on"), 0)
        rows_seen = set()
        for _ in range(300):
            v = class_instance(rng)
            index = slot_index(v)
            sizes = [len(arms) for arms, _ in reference_classes(v.arm_sets)]
            seen["several classes"] += len(sizes) > 1
            seen["classes of one size"] += len(set(sizes)) < len(sizes)
            seen["size groups"] += len(index.clients_by_size) > 1
            rows = int(rng.choice([1, 2, 5]))
            rows_seen.add(rows)
            counts = np.zeros((rows, index.num_slots))
            sums = np.zeros((rows, index.num_slots))
            t = 0
            for _ in range(3):
                block = rng.integers(0, 12, size=counts.shape) * (rng.random(counts.shape) < 0.8)
                levels = rng.normal(0.0, 1.0, size=counts.shape)
                coarse = rng.random(len(counts)) < 0.4
                levels[coarse] = rng.choice([0.0, 0.5, 1.0], size=levels[coarse].shape)
                counts = counts + block
                sums = sums + block * levels
                t += int(rng.integers(1, 2 * v.num_arms))
                seen["zero count"] += bool((counts == 0).any())
                seen["prefix stack"] += 1 < len(counts) < rows
                z_guess = rng.exponential(5.0, size=len(counts))
                offsets = z_guess - index.num_slots * math.log(t * t + t)
                want = reference_server_step(index, v.num_arms, counts, sums, t, offsets)
                stats, z, stop, beta = _server_step(index, v.num_arms, counts, sums, t, offsets)
                for name in ("global_means", "gaps", "best_arms", "top_arms"):
                    assert bitwise_equal(getattr(stats, name), getattr(want[0], name)), name
                assert bitwise_equal(z, want[1]) and bitwise_equal(beta, want[3])
                assert stop == want[2].tolist()
                admissible = want[0].gaps.min(axis=-1) > 0.0
                seen["mixed admissible"] += bool(0 < admissible.sum() < len(admissible))
                keep = np.logical_not(stop)
                if not keep.any():
                    assert want[4] is None
                    break
                weights = _client_weights(index, slot_server_vector(index, stats.rows(keep)))
                assert weights == want[4]
                seen["stop"] += not keep.all()
                seen["run on"] += 1
                counts, sums = counts[keep], sums[keep]
        assert rows_seen == {1, 2, 5}
        assert min(seen.values()) >= 10, seen


class TestSeparations:
    def test_separations_are_the_pair_differences_bit_for_bit(self):
        # Z(t) reads slot_stats' separations in place of global_means[best] -
        # global_means[own]; on stacks, prefix stacks and tied tops alike
        rng = np.random.default_rng(80)
        seen = dict.fromkeys(("groups", "prefix stack", "tied top"), 0)
        rows_seen = set()
        for _ in range(200):
            v = class_instance(rng)
            index = slot_index(v)
            seen["groups"] += len(index.partition.classes) > 1
            rows = int(rng.choice([1, 2, 5]))
            rows_seen.add(rows)
            means = rng.normal(0.0, 1.0, size=(rows, index.num_slots))
            coarse = rng.random(rows) < 0.4
            means[coarse] = rng.choice([0.0, 0.5, 1.0], size=means[coarse].shape)
            for r in range(rows, 0, -1):  # the rows left running as episodes stop
                stack = index.stacked(r)
                stats = slot_stats(index, means[:r])
                seen["prefix stack"] += 1 < r < rows
                best, own = stats.top_arms[stack.client_rows], stack.arm_rows
                means_of = stats.global_means.ravel()
                want = means_of[best] - means_of[own]
                seen["tied top"] += bool(((want == 0.0) & (best != own)).any())
                assert bitwise_equal(stats.separations, want.ravel())
                assert stats.rows(np.arange(r)).separations is None
        assert rows_seen == {1, 2, 5}
        assert min(seen.values()) >= 10, seen


class TestStackedEigen:
    def test_eigh_stack_equals_per_matrix(self):
        rng = np.random.default_rng(72)
        for n in range(1, 9):
            a = rng.exponential(size=(9, n, n)) * 10.0 ** rng.uniform(-6, 6, size=(9, 1, 1))
            a = a + a.transpose(0, 2, 1)
            values, vectors = np.linalg.eigh(a)
            for k in range(len(a)):
                w, v = np.linalg.eigh(a[k])
                assert bitwise_equal(values[k], w) and bitwise_equal(vectors[k], v)

    def test_norm_along_axis_is_not_the_vector_norm(self):
        # why the polish takes its norm from a stacked dot product
        rng = np.random.default_rng(73)
        y = rng.exponential(size=(200, 5))
        per_row = np.array([np.linalg.norm(r) for r in y])
        assert bitwise_equal(np.sqrt(y[:, None, :] @ y[:, :, None])[:, 0, 0], per_row)
        assert not bitwise_equal(np.linalg.norm(y, axis=1), per_row)

    def test_polish_stack_equals_reference_per_block(self):
        # starts from the eigensolver certify in one step; all-ones starts take many,
        # so rows certify at different steps and the stack shrinks
        rng = np.random.default_rng(74)
        mixed = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            rows = int(rng.integers(1, 6))
            co = rng.integers(0, 3, size=(rows, n, n)).astype(float)
            co = co + co.transpose(0, 2, 1) + np.eye(n) + 1.0
            d = 10.0 ** rng.uniform(-3, 3, size=(rows, n))
            root = np.sqrt(d)
            _, vectors = np.linalg.eigh(root[:, :, None] * co * root[:, None, :])
            starts = root * vectors[:, :, -1]
            ones = rng.random(rows) < 0.5
            starts[ones] = 1.0
            mixed += 0 < ones.sum() < rows
            blocks = d[:, :, None] * co
            x, lam = _perron_polish(blocks, starts[..., None])
            for k in range(rows):
                want_x, want_lam = loop_perron(blocks[k], starts[k])
                assert bitwise_equal(x[k], want_x) and lam[k] == want_lam
        assert mixed >= 10

    def test_global_vector_rows_on_wide_gaps(self):
        # badly scaled classes need more than one polish step
        rng = np.random.default_rng(75)
        for _ in range(40):
            v = wide_gap_instance(rng)
            index = slot_index(v)
            base = index.flatten(v.means)
            means = np.stack([base, base * 1.5, base - 0.25])
            stacked = slot_global_vector(index, slot_stats(index, means))
            for row in range(len(means)):
                alone = slot_global_vector(index, slot_stats(index, means[row]))
                assert bitwise_equal(stacked[row], alone)

    def test_power_iteration_over_class_blocks_broadcast_over_rows(self, monkeypatch):
        # an eigensolver vector of all ones does not certify in one step, so the classes of
        # each size, their blocks broadcast over the rows, iterate to their own certificates
        def ones(a, signature):
            return np.zeros(a.shape[:-1]), np.ones(a.shape)

        monkeypatch.setattr(np.linalg._umath_linalg, "eigh_lo", ones)
        rng = np.random.default_rng(81)
        several = 0  # instances with several classes of one size
        for _ in range(100):
            v = class_instance(rng)
            index = slot_index(v)
            stats = slot_stats(index, rng.normal(size=(int(rng.integers(1, 4)), index.num_slots)))
            assert stats.all_admissible
            got = slot_global_vector(index, stats)
            assert bitwise_equal(got, reference_global_vector(index, stats))
            several += any(len(arms) > 1 for arms, _ in index.class_blocks)
        assert several >= 10, several


class TestStackedEpisodeArithmetic:
    def test_client_weights_equal_per_client_normalization(self):
        rng = np.random.default_rng(76)
        for _ in range(200):
            v = random_structural_instance(rng, max_arms=12, max_clients=5)
            index = slot_index(v)
            gvec = 10.0 ** rng.uniform(-8, 8, size=(int(rng.integers(1, 5)), index.num_arms))
            for row, weights in zip(gvec, _client_weights(index, gvec)):
                for arms, w in zip(v.arm_sets, weights):
                    g = row[list(arms)]
                    assert w == (g / g.sum()).tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_reward_draw_is_scaled_standard_normal(self, seed):
        # the kernel draws N(n mu, n) as n mu + sqrt(n) * standard_normal, the
        # formula Generator.normal evaluates; the floats and the stream match
        rng = np.random.default_rng(seed)
        loc = rng.normal(size=4000) * 10.0 ** rng.uniform(-5, 5, size=4000)
        scale = np.sqrt(rng.integers(0, 10**6, size=4000).astype(float))
        scale[:40] = 0.0
        a, b = np.random.default_rng((seed, 0, 1)), np.random.default_rng((seed, 0, 1))
        assert bitwise_equal(a.normal(loc, scale), loc + scale * b.standard_normal(4000))
        assert a.integers(2**62) == b.integers(2**62)

    @pytest.mark.parametrize("seed", range(5))
    def test_multinomial_over_block_lengths_is_the_successive_draws(self, seed):
        # one uniform_pulls call with an array of block lengths, as a chunk draws
        # them, against one call per block; lengths span the binomial's small-mean
        # and large-mean algorithms, and 0
        rng = np.random.default_rng(seed)
        for size in range(2, 9):
            lengths = (10.0 ** rng.uniform(0, 7, size=int(rng.integers(1, 40)))).astype(np.int64)
            lengths[rng.random(len(lengths)) < 0.2] = 0
            a, b = np.random.default_rng((seed, size, 0)), np.random.default_rng((seed, size, 0))
            chunk = uniform_pulls(size, lengths, a)
            each = np.array([uniform_pulls(size, int(n), b) for n in lengths])
            assert bitwise_equal(chunk, each)
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_standard_normal_chunk_is_the_successive_rows(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            chunk, kprime = int(rng.integers(1, 40)), int(rng.integers(1, 60))
            a, b, c = (np.random.default_rng((seed, 0, 1)) for _ in range(3))
            whole = a.standard_normal((chunk, kprime))
            rows = np.empty((chunk, kprime))
            for row in rows:
                b.standard_normal(out=row)
            stacked = np.empty((3, chunk, kprime))  # one episode's slice of a batch buffer
            c.standard_normal(out=stacked[1])
            assert bitwise_equal(whole, rows) and bitwise_equal(whole, stacked[1])
            assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state
