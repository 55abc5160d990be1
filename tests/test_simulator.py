import csv
import io
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from hetbai import (
    CommSchedule,
    InstantLog,
    ProblemInstance,
    RunRecord,
    StepCapExceeded,
    SweepConfig,
    aggregate,
    export_records,
    export_summary,
    gen_hardness_instance,
    gen_overlap_instance,
    pool_size,
    read_records,
    run_batch,
    run_episode,
    slot_index,
    sweep,
)
from hetbai import policy as policy_module
from hetbai import simulator
from hetbai.simulator import RECORD_FIELDS, write_records

from helpers import (
    block_run_episode,
    chain_three_arm,
    loop_run_episode,
    make_instance,
    random_overlap_instance,
    symmetric_two_arm,
)


@pytest.fixture
def fork_children(monkeypatch):
    """Start sweep children with ``fork``, so they run the test's patched functions."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)


class TestRunEpisode:
    def test_stops_at_schedule_instant(self):
        sched = CommSchedule(0.5)
        for seed in range(5):
            rec = run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed)
            assert sched.is_instant(rec.tau)
            assert rec.rounds == sched.round_exponent(rec.tau)

    def test_bitwise_deterministic(self):
        a = run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=3)
        b = run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=3)
        assert a == b

    def test_threshold_crossed_only_at_stop(self):
        v = chain_three_arm()
        trace: list[InstantLog] = []
        rec = run_episode(v, "het-ts", 0.05, 0.5, seed=11, trace=trace)
        assert trace[-1].stopped and trace[-1].t == rec.tau
        assert trace[-1].z > trace[-1].beta
        for entry in trace[:-1]:
            assert not entry.stopped
            if entry.t >= v.num_arms:
                assert entry.z <= entry.beta
        # recompute the threshold along the logged trajectory
        from hetbai import f_inverse

        kprime = slot_index(v).num_slots
        offset = f_inverse(0.05, kprime)
        for entry in trace:
            expected = kprime * math.log(entry.t**2 + entry.t) + offset
            assert entry.beta == pytest.approx(expected, rel=1e-12)

    def test_rounds_are_exponents_not_dedup_positions(self):
        # at small lambda many exponents collapse onto the first instants, so
        # the protocol round index exceeds the dedup position by a constant
        sched = CommSchedule(0.1)
        rec = run_episode(chain_three_arm(), "het-ts", math.exp(-8), 0.1, seed=5)
        assert rec.rounds == sched.round_exponent(rec.tau)
        # the k-th instant has exponent >= k, so tau is among the first `rounds`
        position = sched.instants(rec.rounds).index(rec.tau) + 1
        assert rec.rounds > position
        assert math.isclose(rec.rounds, math.log(rec.tau) / math.log(1.1), abs_tol=1.5)

    def test_correct_flag_against_truth(self):
        rec = run_episode(chain_three_arm(), "het-ts", 0.01, 0.5, seed=0)
        # ground truth best arms: client 1 -> arm 0, client 2 -> arm 1
        assert rec.correct == (rec.recommendation == (0, 1))

    def test_step_cap_raises(self):
        with pytest.raises(StepCapExceeded):
            run_episode(symmetric_two_arm(), "het-ts", 1e-9, 0.5, seed=0, step_cap=20)

    def test_step_cap_names_every_unfinished_episode(self):
        # wide gap: delta=0.5 stops at t=4, while delta=1e-300 runs past the cap
        v = make_instance([(0, 1), (0, 1)], {(0, 0): 10.0, (0, 1): 0.0, (1, 0): 10.0, (1, 1): 0.0})
        assert run_episode(v, "het-ts", 0.5, 0.5, seed=7, step_cap=20).tau <= 20
        with pytest.raises(StepCapExceeded) as err:
            run_batch(v, "het-ts", 0.5, [(0.5, 7), (1e-300, 8)], step_cap=20)
        assert err.value.episodes == ((1e-300, 8),)
        assert err.value.records == (run_episode(v, "het-ts", 0.5, 0.5, seed=7, step_cap=20),)
        assert "delta=1e-300, seed=8" in str(err.value)
        assert "seed=7" not in str(err.value)

    def test_rejects_inadmissible_instance(self):
        tied = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0})
        with pytest.raises(ValueError, match="inadmissible"):
            run_episode(tied, "het-ts", 0.1, 0.5, seed=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            run_episode(symmetric_two_arm(), "greedy", 0.1, 0.5, seed=0)

    def test_batch_rejects_negative_seed_before_running(self):
        tasks = [(0.1, 0), (0.1, -5), (0.2, -5)]
        with pytest.raises(ValueError, match=r"seed must be non-negative, got -5$"):
            run_batch(symmetric_two_arm(), "het-ts", 0.5, tasks)

    def test_batch_rejects_non_integer_seed_before_running(self):
        for seed in (1.5, True):
            with pytest.raises(ValueError, match=rf"seed must be an integer, got {seed}$"):
                run_batch(symmetric_two_arm(), "het-ts", 0.5, [(0.1, 0), (0.1, seed)])

    def test_batch_rejects_step_cap_below_one_before_running(self):
        # not a StepCapExceeded: no episode ran, so none is unfinished
        for cap in (0, -5):
            message = rf"step_cap must be a positive integer, got {cap}$"
            with pytest.raises(ValueError, match=message):
                run_batch(symmetric_two_arm(), "het-ts", 0.5, [(0.1, 1)], step_cap=cap)

    def test_step_cap_must_be_an_integer(self):
        for cap in (2.5, True):
            message = rf"step_cap must be a positive integer, got {cap}$"
            with pytest.raises(ValueError, match=message):
                run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=1, step_cap=cap)
        rec = run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=1, step_cap=np.int64(10**6))
        assert rec == run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=1)

    def test_uniform_policy_also_stops(self):
        rec = run_episode(symmetric_two_arm(), "uniform", 0.1, 0.5, seed=3)
        assert rec.policy == "uniform"
        assert CommSchedule(0.5).is_instant(rec.tau)


class TestBatchMatchesBatchOfOne:
    """A lockstep batch gives every task the record of its episode run alone."""

    @pytest.mark.parametrize("policy", ["het-ts", "uniform"])
    def test_random_overlap_instances(self, policy):
        rng = np.random.default_rng(60 if policy == "het-ts" else 61)
        stop_spread = 0
        for _ in range(50):
            v = random_overlap_instance(rng, min_gap=0.6)
            lam = float(rng.choice([0.3, 0.5]))
            deltas = 10.0 ** -rng.uniform(0.3, 6.0, size=4)
            tasks = [(float(d), int(s)) for d, s in zip(deltas, rng.integers(0, 2**31, size=4))]
            batch = run_batch(v, policy, lam, tasks)
            alone = [run_episode(v, policy, d, lam, s) for d, s in tasks]
            assert batch == alone
            stop_spread += len({r.tau for r in batch}) > 1
        assert stop_spread >= 10  # batches that shrink while running are covered

    @pytest.mark.parametrize("policy", ["het-ts", "uniform"])
    def test_traces_match_per_episode_block_kernel(self, policy):
        # Z(t) and the threshold at every instant, against the one-episode
        # kernel with 1-D arrays, Generator.normal and per-client weight sums
        rng = np.random.default_rng(62 if policy == "het-ts" else 63)
        for _ in range(15):
            v = random_overlap_instance(rng, min_gap=0.6)
            lam = float(rng.choice([0.3, 0.5]))
            tasks = [(float(d), int(s)) for d, s in zip(
                10.0 ** -rng.uniform(0.3, 6.0, size=3), rng.integers(0, 2**31, size=3))]
            traces = [[] for _ in tasks]
            batch = run_batch(v, policy, lam, tasks, traces=traces)
            for (delta, seed), record, trace in zip(tasks, batch, traces):
                reference: list[tuple] = []
                assert record == block_run_episode(v, policy, delta, lam, seed, reference)
                assert [(e.t, e.z, e.beta, e.stopped) for e in trace] == reference

    @pytest.mark.parametrize("policy", ["het-ts", "uniform"])
    def test_tied_empirical_best_arms(self, monkeypatch, policy):
        # Every mean is negative and an unpulled slot reads 0, so unpulled arms tie at the
        # top: some server steps see admissible and inadmissible rows together, whose Z is
        # 0 and whose het-ts broadcast is all-ones.
        sets = [tuple(range(6)), tuple(range(6)), (4, 5, 6)]
        v = make_instance(sets, {(m, i): -3 - 0.8 * (i + 1) for m, s in enumerate(sets) for i in s})
        mixed = {"slot_z_statistic": 0, "slot_server_vector": 0}

        def spy(name, fn):
            def wrapper(index, stats, *args):
                mixed[name] += np.unique(stats.is_admissible()).size > 1
                return fn(index, stats, *args)
            return wrapper

        for name in mixed:
            monkeypatch.setattr(simulator, name, spy(name, getattr(simulator, name)))
        tasks = [(0.1, seed) for seed in range(8)]
        traces = [[] for _ in tasks]
        batch = run_batch(v, policy, 0.05, tasks, traces=traces)
        for (delta, seed), record, trace in zip(tasks, batch, traces):
            reference: list[tuple] = []
            assert record == block_run_episode(v, policy, delta, 0.05, seed, reference)
            assert [(e.t, e.z, e.beta, e.stopped) for e in trace] == reference
        assert mixed["slot_z_statistic"] > 0
        assert mixed["slot_server_vector"] > 0 or policy == "uniform"

    def test_traces_match(self):
        v = chain_three_arm()
        tasks = [(0.1, 3), (1e-6, 4), (0.3, 5)]
        traces = [[] for _ in tasks]
        run_batch(v, "het-ts", 0.2, tasks, traces=traces)
        for (delta, seed), trace in zip(tasks, traces):
            alone: list[InstantLog] = []
            run_episode(v, "het-ts", delta, 0.2, seed, trace=alone)
            assert trace == alone

    def test_set_up_once_per_batch(self, monkeypatch):
        import hetbai.simulator as simulator

        calls = {"f_inverse": 0, "validate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulator, "f_inverse", counted("f_inverse", simulator.f_inverse))
        monkeypatch.setattr(simulator, "validate", counted("validate", simulator.validate))
        run_batch(chain_three_arm(), "uniform", 0.5, [(0.1, s) for s in range(6)] + [(0.01, 6)])
        assert calls == {"f_inverse": 2, "validate": 1}

    def test_equal_deltas_of_two_types_keep_their_own_thresholds(self):
        # np.float32(0.3) == 0.30000001192092896, but its f_inverse root is not the float's
        v = chain_three_arm()
        tasks = [(0.30000001192092896, 1), (np.float32(0.3), 2)]
        traces = [[] for _ in tasks]
        run_batch(v, "het-ts", 0.5, tasks, traces=traces)
        for (delta, seed), trace in zip(tasks, traces):
            alone: list[InstantLog] = []
            run_episode(v, "het-ts", delta, 0.5, seed, trace=alone)
            assert trace == alone

    def test_empty_batch(self):
        assert run_batch(chain_three_arm(), "het-ts", 0.2, []) == []

    def test_sweep_workers_split_batches(self):
        # nine tasks over three deltas: two workers get round-robin batches of 5 and 4 tasks,
        # each holding every delta
        config = dict(
            instance=chain_three_arm(), deltas=(0.2, 1e-2, 1e-4), repetitions=3, lam=0.2,
            base_seed=40,
        )
        serial = sweep(SweepConfig(workers=1, **config))
        assert serial == sweep(SweepConfig(workers=2, **config))
        expected = [
            run_episode(chain_three_arm(), "het-ts", r.delta, 0.2, r.seed) for r in serial
        ]
        assert serial == expected


class TestOneStackedServerStepPerInstant:
    """Whatever the batch size, each instant runs one server computation over all running rows."""

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("policy", ["het-ts", "uniform"])
    def test_calls_per_instant(self, monkeypatch, policy, rows):
        # two classes: arms 1-3 through two clients, arms 4-5 through a third
        sets = [(0, 1), (1, 2), (3, 4)]
        means = {(0, 0): 3.0, (0, 1): 2.0, (1, 1): 2.0, (1, 2): 0.0, (2, 3): 1.5, (2, 4): 0.0}
        v = make_instance(sets, means)
        calls = dict.fromkeys(("slot_stats", "_confusion_rate", "eigh_lo"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        broadcasts = []  # eigensolver calls of each broadcast, and whether a row was admissible

        def broadcast(index, stats):
            before = calls["eigh_lo"]
            vectors = server_vector(index, stats)
            broadcasts.append((calls["eigh_lo"] - before, bool(stats.is_admissible().any())))
            return vectors

        server_vector = simulator.slot_server_vector
        monkeypatch.setattr(simulator, "slot_stats", counted("slot_stats", simulator.slot_stats))
        monkeypatch.setattr(
            policy_module, "_confusion_rate",
            counted("_confusion_rate", policy_module._confusion_rate),
        )
        gufuncs = np.linalg._umath_linalg
        monkeypatch.setattr(gufuncs, "eigh_lo", counted("eigh_lo", gufuncs.eigh_lo))
        monkeypatch.setattr(simulator, "slot_server_vector", broadcast)
        traces = [[] for _ in range(rows)]
        run_batch(v, policy, 0.2, [(0.01, seed) for seed in range(rows)], traces=traces)
        instants = max(map(len, traces))
        assert calls["slot_stats"] == instants + 1  # and once for the true best arms
        assert calls["_confusion_rate"] == instants
        if policy == "uniform":
            assert calls["eigh_lo"] == 0 and not broadcasts
        else:
            assert len(broadcasts) == instants - 1  # every instant but the last
            assert all(n == (2 if admissible else 0) for n, admissible in broadcasts)
            assert sum(admissible for _, admissible in broadcasts) >= instants // 2


class TestEpisodeLaw:
    """The block kernel against the per-pull reference loop, in distribution.

    The block kernel draws each block's reward totals as one Gaussian per
    slot and the uniform block counts as one multinomial per client; the
    reference pulls, draws and observes one step at a time on other streams.
    Their stopping times over disjoint fixed seeds must pass a two-sample
    Kolmogorov-Smirnov test (deterministic, since the seeds are fixed).
    """

    @pytest.mark.parametrize("policy", ["het-ts", "uniform"])
    @pytest.mark.parametrize("make", [symmetric_two_arm, chain_three_arm])
    def test_stopping_times_match_per_pull_reference(self, make, policy):
        v = make()
        block = [run_episode(v, policy, 0.1, 0.2, seed).tau for seed in range(200)]
        per_pull = [loop_run_episode(v, policy, 0.1, 0.2, 10_000 + seed).tau for seed in range(200)]
        assert stats.ks_2samp(block, per_pull).pvalue > 0.01


class TestEpisodeStreams:
    @pytest.mark.parametrize(
        "seed", [0, 7000001, 2**32 - 1, 2**32, 2**64 + 5, np.int64(7000001), np.uint64(2**64 - 1)]
    )
    def test_same_state_as_the_tuple_keys(self, seed):
        (select,), (reward,) = simulator._batch_streams([seed], 3)
        assert [rng.bit_generator.state for rng in select] == [
            np.random.default_rng((seed, m, 0)).bit_generator.state for m in range(3)
        ]
        assert reward.bit_generator.state == np.random.default_rng((seed, 0, 1)).bit_generator.state

    @pytest.mark.parametrize("length", range(1, 9))
    def test_kernel_matches_seed_sequence(self, length):
        # keys shorter than numpy's pool of four words, as long, and longer
        keys = np.random.default_rng(length).integers(2**32, size=(40, length), dtype=np.uint32)
        expected = [np.random.SeedSequence(key).generate_state(4, np.uint64) for key in keys]
        assert np.array_equal(simulator._seed_states(keys), expected)

    def test_batch_mixing_key_lengths(self):
        # seeds of one, two and three words share one batch; every stream keeps its tuple's state
        seeds = [0, 2**32 - 1, 2**32, 2**64 + 5, np.uint64(2**64 - 1), 7000001]
        select, reward = simulator._batch_streams(seeds, 2)
        for seed, rngs, rng in zip(seeds, select, reward, strict=True):
            assert [r.bit_generator.state for r in rngs] == [
                np.random.default_rng((seed, m, 0)).bit_generator.state for m in range(2)
            ]
            assert rng.bit_generator.state == np.random.default_rng((seed, 0, 1)).bit_generator.state

    def test_one_kernel_call_per_key_length(self, monkeypatch):
        lengths, real = [], simulator._seed_states

        def seed_states(keys):
            lengths.append(keys.shape)
            return real(keys)

        monkeypatch.setattr(simulator, "_seed_states", seed_states)
        monkeypatch.setattr(np.random, "default_rng", None)  # no stream is built through it
        run_batch(chain_three_arm(), "uniform", 0.5, [(0.1, s) for s in (1, 2**40, 3, 2**33)])
        assert sorted(lengths) == [(6, 3), (6, 4)]  # two seeds of each length, three streams each


class TestSweep:
    def test_seed_layout(self):
        config = SweepConfig(
            instance=symmetric_two_arm(), deltas=(0.1,), repetitions=4, base_seed=100, lam=0.5
        )
        records = sweep(config)
        assert [r.seed for r in records] == [100, 101, 102, 103]

    def test_order_is_delta_major(self):
        config = SweepConfig(
            instance=symmetric_two_arm(),
            deltas=(0.2, 0.1),
            repetitions=2,
            base_seed=0,
            lam=0.5,
        )
        records = sweep(config)
        assert [(r.delta, r.seed) for r in records] == [
            (0.2, 0), (0.2, 1), (0.1, 2), (0.1, 3),
        ]

    def test_worker_count_does_not_change_results(self):
        base = dict(instance=symmetric_two_arm(), deltas=(0.1, 0.05), repetitions=2, lam=0.5)
        serial = sweep(SweepConfig(workers=1, **base))
        parallel = sweep(SweepConfig(workers=4, **base))
        assert serial == parallel

    def test_batches_deal_tasks_round_robin(self, monkeypatch, fork_children):
        # The 2-worker sweep: the calling process runs batch 0 through run_batch and
        # starts one child for batch 1; each gets every delta, and the records come
        # back in task order.
        v = chain_three_arm()
        config = SweepConfig(
            instance=v, deltas=(0.1, 1e-3, 1e-6), repetitions=3, base_seed=40, lam=0.3, workers=2
        )
        tasks = [(d, 40 + k * 3 + rep) for k, d in enumerate(config.deltas) for rep in range(3)]
        lone = [run_episode(v, "het-ts", d, 0.3, seed) for d, seed in tasks]
        ran, started = [], []  # the calling process's batch, the children's batches
        real_run, real_start = simulator.run_batch, simulator._start_batch

        def run_batch(*args, **kwargs):
            ran.append(args[3])  # a child appends to its own copy of the list
            return real_run(*args, **kwargs)

        def start_batch(run, batch):
            started.append(batch)
            return real_start(run, batch)

        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simulator, "run_batch", run_batch)
        monkeypatch.setattr(simulator, "_start_batch", start_batch)
        assert sweep(config) == lone
        batches = ran + started
        assert batches == [tasks[0::2], tasks[1::2]]
        for batch in batches:
            assert {d for d, _ in batch} == set(config.deltas)

    def test_mean_tau_nondecreasing_in_confidence(self):
        # With a common seed the trajectory does not depend on delta and the
        # threshold grows with log(1/delta), so tau is non-decreasing pathwise.
        v = symmetric_two_arm()
        deltas = [math.exp(-e) for e in (5, 10, 11, 15)]
        for seed in range(50):
            taus = [run_episode(v, "het-ts", d, 0.5, seed).tau for d in deltas]
            assert all(b >= a for a, b in zip(taus, taus[1:])), (seed, taus)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(instance=symmetric_two_arm(), deltas=())
        with pytest.raises(ValueError):
            SweepConfig(instance=symmetric_two_arm(), deltas=(1.5,))
        with pytest.raises(ValueError):
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), lam=0.0)
        with pytest.raises(ValueError):
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), repetitions=0)

    def test_config_names_every_violation_at_once(self):
        with pytest.raises(ValueError) as exc:
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1, 1.5), policy="greedy",
                        lam=math.inf, repetitions=0, base_seed=-2, workers=0, step_cap=0)
        message = str(exc.value)
        for needle in ("policy must be one of het-ts, uniform, got 'greedy'",
                       "lambda must be a positive finite number, got inf",
                       "delta 1.5 outside (0, 1)",
                       "seed must be non-negative, got -2",
                       "repetitions must be a positive integer, got 0",
                       "workers must be a positive integer, got 0",
                       "step_cap must be a positive integer, got 0"):
            assert needle in message
        # past 2**53 the step and the float pull counts of D-tracking stop being exact
        with pytest.raises(ValueError) as exc:
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), workers=0, step_cap=2**53 + 1)
        for needle in ("workers must be a positive integer, got 0",
                       f"step_cap must be at most 2**53, got {2**53 + 1}"):
            assert needle in str(exc.value)
        largest = SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), step_cap=2**53)
        assert largest.step_cap == 2**53

    def test_counts_must_be_integers(self):
        with pytest.raises(ValueError) as exc:
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), repetitions=2.5,
                        workers=1.5, step_cap=2.5)
        for needle in ("repetitions must be a positive integer, got 2.5",
                       "workers must be a positive integer, got 1.5",
                       "step_cap must be a positive integer, got 2.5"):
            assert needle in str(exc.value)
        for field in ("repetitions", "workers", "step_cap"):
            with pytest.raises(ValueError, match=rf"{field} must be a positive integer, got True"):
                SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), **{field: True})
        with pytest.raises(ValueError, match=r"seed must be an integer, got 2\.5$"):
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), base_seed=2.5)
        fields = ("repetitions", "base_seed", "workers", "step_cap")
        config = SweepConfig(instance=symmetric_two_arm(), deltas=(0.1, 0.2),
                             repetitions=np.uint8(200), base_seed=np.uint8(3),
                             workers=np.int32(1), step_cap=np.int64(10**4))
        # kept as Python ints, so seed 1 * 200 + 199 does not wrap in uint8
        assert [type(getattr(config, f)) for f in fields] == [int] * 4
        assert config == SweepConfig(instance=symmetric_two_arm(), deltas=(0.1, 0.2),
                                     repetitions=200, base_seed=3, workers=1, step_cap=10**4)

    def test_lambda_too_large_for_a_float_rejected(self):
        # compared exactly, 10**400 lies in (0, inf); as a float it overflows
        with pytest.raises(ValueError, match="lambda must be a positive finite number, got 1000"):
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), lam=10**400)
        assert SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), lam=10**300).lam == 10**300

    def test_lambda_that_vanishes_against_one_rejected(self):
        # 1 + 1e-17 == 1 as floats: the schedule could never pass its first instant
        message = r"lambda must not vanish against 1 \(1 \+ lambda == 1\), got 1e-17"
        with pytest.raises(ValueError, match=message):
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), lam=1e-17)
        with pytest.raises(ValueError, match=message):
            run_episode(symmetric_two_arm(), "het-ts", 0.1, 1e-17, seed=0)

    # (input, non-number value, message): each is a ValueError naming it, never a TypeError
    NON_NUMBERS = [
        ("lam", "0.1", "lambda must be a number, got '0.1'"),
        ("lam", None, "lambda must be a number, got None"),
        ("lam", True, "lambda must be a number, got True"),
        ("delta", "x", "delta must be a number, got 'x'"),
        ("delta", "0.1", "delta must be a number, got '0.1'"),
        ("delta", [0.1], "delta must be a number, got [0.1]"),
        ("seed", [1], "seed must be an integer, got [1]"),
    ]

    @pytest.mark.parametrize(
        "name, value, message", NON_NUMBERS, ids=[f"{n}-{v!r}" for n, v, _ in NON_NUMBERS]
    )
    def test_non_number_inputs_named(self, name, value, message):
        given = {"lam": 0.5, "delta": 0.1, "seed": 0, name: value}
        lam, delta, seed = given["lam"], given["delta"], given["seed"]
        with pytest.raises(ValueError, match=f"^invalid sweep: {re.escape(message)}$"):
            SweepConfig(instance=symmetric_two_arm(), deltas=(delta,), lam=lam, base_seed=seed)
        with pytest.raises(ValueError, match=f"^invalid episode: {re.escape(message)}$"):
            run_episode(symmetric_two_arm(), "het-ts", delta, lam, seed)

    def test_array_of_deltas(self):
        # an array has no single truth value: its length decides, and it is stored as a tuple
        v = symmetric_two_arm()
        config = SweepConfig(instance=v, deltas=np.array([0.1, 0.01]), repetitions=2, lam=0.5)
        assert config.deltas == (0.1, 0.01)
        listed = SweepConfig(instance=v, deltas=[0.1, 0.01], repetitions=2, lam=0.5)
        assert listed.deltas == (0.1, 0.01)
        assert sweep(config) == sweep(listed)
        assert simulator.input_violations("het-ts", 0.5, np.array([0.1, 0.01]), [0]) == []
        empty = np.array([])
        assert simulator.input_violations("het-ts", 0.5, empty, [0]) == ["deltas must be nonempty"]
        with pytest.raises(ValueError, match="^invalid sweep: deltas must be nonempty$"):
            SweepConfig(instance=v, deltas=empty)

    def test_numpy_reals_accepted(self):
        deltas = (np.float32(0.25), np.float64(0.1))
        config = SweepConfig(instance=symmetric_two_arm(), deltas=deltas, lam=np.float64(0.5))
        assert config.lam == 0.5 and config.deltas == (np.float32(0.25), 0.1)

    def test_step_cap_error_names_every_batch_episode(self, monkeypatch):
        # every episode passes the cap; with two workers each batch raises, and the
        # sweep must name all four in task order, as the one-batch run does
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        config = dict(instance=chain_three_arm(), deltas=(1e-8,), repetitions=4, lam=0.5,
                      step_cap=50)
        errors = []
        for workers in (1, 2):
            with pytest.raises(StepCapExceeded) as err:
                sweep(SweepConfig(workers=workers, **config))
            errors.append(err.value)
        assert errors[0].episodes == tuple((1e-8, seed) for seed in range(4))
        assert errors[1].episodes == errors[0].episodes
        assert str(errors[1]) == str(errors[0])
        assert errors[0].records == errors[1].records == ()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_step_cap_error_keeps_finished_records(self, monkeypatch, workers):
        # wide gap: delta=0.5 stops within the cap, delta=1e-300 runs past it; with two
        # workers each batch finishes some episodes, and the sweep merges them in task order
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        v = make_instance([(0, 1), (0, 1)], {(0, 0): 10.0, (0, 1): 0.0, (1, 0): 10.0, (1, 1): 0.0})
        config = SweepConfig(instance=v, deltas=(0.5, 1e-300), repetitions=3, lam=0.5,
                             workers=workers, step_cap=20)
        with pytest.raises(StepCapExceeded) as err:
            sweep(config)
        assert err.value.episodes == ((1e-300, 3), (1e-300, 4), (1e-300, 5))
        assert err.value.records == tuple(
            run_episode(v, "het-ts", 0.5, 0.5, seed, step_cap=20) for seed in range(3)
        )


class TestSweepDispatch:
    """The calling process runs batch 0; each other batch runs in a child started for it."""

    CONFIG = dict(deltas=(0.1, 0.05), repetitions=3, lam=0.5, workers=2)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)

    def patch_batches(self, monkeypatch, parent=None, child=None):
        """Run ``parent(tasks)`` for the calling process's batch and ``child(tasks)`` for a child's."""
        real, caller = simulator.run_batch, os.getpid()

        def run_batch(*args, **kwargs):
            replace = parent if os.getpid() == caller else child
            return real(*args, **kwargs) if replace is None else replace(args[3])

        monkeypatch.setattr(simulator, "run_batch", run_batch)

    def test_child_exception_reaches_the_caller(self, monkeypatch, fork_children):
        def child(tasks):
            raise ValueError(f"batch of {len(tasks)} failed in process {os.getpid()}")

        self.patch_batches(monkeypatch, child=child)
        with pytest.raises(ValueError, match=r"batch of 3 failed in process (\d+)") as err:
            sweep(SweepConfig(instance=symmetric_two_arm(), **self.CONFIG))
        assert int(re.search(r"\d+$", str(err.value)).group()) != os.getpid()
        assert multiprocessing.active_children() == []

    def test_child_that_dies_without_a_result(self, monkeypatch, fork_children):
        self.patch_batches(monkeypatch, child=lambda tasks: os._exit(3))
        with pytest.raises(RuntimeError, match="sweep batch 1 exited with code 3 "):
            sweep(SweepConfig(instance=symmetric_two_arm(), **self.CONFIG))
        assert multiprocessing.active_children() == []

    def test_no_child_left_after_a_sweep_returns(self):
        records = sweep(SweepConfig(instance=symmetric_two_arm(), **self.CONFIG))
        assert len(records) == 6
        assert multiprocessing.active_children() == []

    def test_no_child_left_after_a_step_cap_error(self):
        config = dict(self.CONFIG, deltas=(1e-8,), step_cap=50)
        with pytest.raises(StepCapExceeded) as err:
            sweep(SweepConfig(instance=chain_three_arm(), **config))
        assert err.value.episodes == tuple((1e-8, seed) for seed in range(3))
        assert multiprocessing.active_children() == []

    def test_parent_batch_error_stops_the_children(self, monkeypatch, fork_children):
        # the child would sleep for a minute; the caller's own error terminates it
        def parent(tasks):
            raise KeyboardInterrupt

        self.patch_batches(monkeypatch, parent=parent, child=lambda tasks: time.sleep(60))
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sweep(SweepConfig(instance=symmetric_two_arm(), **self.CONFIG))
        assert time.monotonic() - started < 30
        assert multiprocessing.active_children() == []

    def test_one_batch_starts_no_process(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a one-batch sweep started a process")

        monkeypatch.setattr(multiprocessing, "Process", no_process)
        v = symmetric_two_arm()
        config = SweepConfig(instance=v, **dict(self.CONFIG, workers=1))
        assert len(sweep(config)) == 6
        # two workers asked for, one episode: one batch
        one = sweep(SweepConfig(instance=v, deltas=(0.1,), repetitions=1, lam=0.5, workers=2))
        assert one == [run_episode(v, "het-ts", 0.1, 0.5, 0)]


class TestPoolSize:
    def test_never_more_workers_than_episodes(self, monkeypatch):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 10**6)
        assert pool_size(2, 128) == 2
        assert pool_size(64, 3) == 3
        assert pool_size(10**6, 1) == 1
        assert pool_size(1, 10**6) == 1

    def test_never_more_workers_than_cpus(self, monkeypatch):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 4)
        assert pool_size(10_000, 10_000) == 4
        assert pool_size(3, 10_000) == 3
        assert pool_size(10_000, 2) == 2
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity mask
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # and an unknown count
        assert pool_size(8, 100) == 1

    def test_counts_the_cpus_of_the_affinity_mask(self):
        # a child pinned to one CPU makes one batch, however many CPUs the machine has
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("needs CPU affinity masks")
        code = (
            "import os; from hetbai import pool_size; "
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); print(pool_size(8, 100))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout == "1\n", out.stderr


DATA = os.path.join(os.path.dirname(__file__), "data")


def two_class_instance() -> ProblemInstance:
    """K=5, M=4 with arm classes {1, 2, 3} and {4, 5}."""
    return ProblemInstance.from_means(
        [(0, 1), (1, 2), (3, 4), (3, 4)],
        {(0, 0): 2.5, (0, 1): 1.2, (1, 1): 1.0, (1, 2): 0.0,
         (2, 3): 1.5, (2, 4): 0.2, (3, 3): 1.3, (3, 4): 0.4},
    )


class TestGoldenRecords:
    """Records CSVs of two fixed sweeps, checked in; they must reproduce byte for byte."""

    def check(self, config, name):
        sink = io.StringIO(newline="")
        write_records(sweep(config), sink)
        with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
            assert sink.getvalue() == fh.read()

    def test_het_ts_two_classes(self):
        config = SweepConfig(
            instance=two_class_instance(), deltas=(0.1, 1e-4), policy="het-ts",
            lam=0.2, repetitions=4, base_seed=500,
        )
        self.check(config, "golden_het_ts_records.csv")

    def test_uniform_overlap_layout_2(self):
        config = SweepConfig(
            instance=gen_overlap_instance(2, 3), deltas=(0.1, 1e-3), policy="uniform",
            lam=0.2, repetitions=4, base_seed=900,
        )
        self.check(config, "golden_uniform_records.csv")

    def test_one_instant_per_chunk(self, monkeypatch):
        # the per-block draw calls the golden files were written with
        monkeypatch.setattr(simulator, "_DRAW_ENTRIES", 1)
        self.test_het_ts_two_classes()
        self.test_uniform_overlap_layout_2()


class TestDrawChunks:
    """Drawing each stream a chunk of blocks at a time changes no record, trace or error.

    With a draw budget of one entry every chunk is one instant, and every
    stream makes the per-block calls; the default budget draws up to 16 or
    more instants per call.
    """

    def outcomes(self, monkeypatch, run):
        results = [run()]
        monkeypatch.setattr(simulator, "_DRAW_ENTRIES", 1)
        results.append(run())
        return results

    @pytest.mark.parametrize("policy", ["het-ts", "uniform"])
    def test_rows_stopping_inside_a_chunk(self, monkeypatch, policy):
        v = chain_three_arm()
        tasks = [(d, seed) for seed, d in enumerate((0.5, 0.3, 0.1, 1e-2, 1e-4, 1e-6) * 2)]

        def run():
            traces = [[] for _ in tasks]
            return run_batch(v, policy, 0.5, tasks, traces=traces), traces

        (records, traces), (one, one_traces) = self.outcomes(monkeypatch, run)
        assert records == one and traces == one_traces
        # rows stop at several instants of the first 16-instant chunk, so the
        # buffers lose rows part way through it
        assert len({r.tau for r in records}) >= 3
        assert max(r.tau for r in records) <= CommSchedule(0.5).instants(16)[-1]

    @pytest.mark.parametrize("policy", ["het-ts", "uniform"])
    def test_step_cap_error(self, monkeypatch, policy):
        # wide gap: delta=0.5 stops within the cap, delta=1e-300 runs past it
        v = make_instance([(0, 1), (0, 1)], {(0, 0): 10.0, (0, 1): 0.0, (1, 0): 10.0, (1, 1): 0.0})
        tasks = [(0.5, 1), (1e-300, 2), (0.5, 3), (1e-300, 4)]

        def run():
            traces = [[] for _ in tasks]
            with pytest.raises(StepCapExceeded) as err:
                run_batch(v, policy, 0.5, tasks, step_cap=20, traces=traces)
            return err.value.episodes, str(err.value), traces

        default, one = self.outcomes(monkeypatch, run)
        assert default == one
        assert default[0] == ((1e-300, 2), (1e-300, 4))
        assert default[2][0][-1].stopped and default[2][2][-1].stopped

    def test_wide_instance_buffers_stay_within_budget(self, monkeypatch):
        # K' = 5000 over 50 clients, 64 episodes that all run to the step cap:
        # every chunk's buffers (rows x instants x K') stay within the budget
        rng = np.random.default_rng(77)
        sets = [tuple(sorted(rng.choice(200, size=100, replace=False).tolist())) for _ in range(50)]
        sets[0] = tuple(range(100))
        sets[1] = tuple(range(100, 200))
        v = gen_hardness_instance(1.0, 200, 50, sets)
        kprime = slot_index(v).num_slots
        assert kprime >= 5000
        chunks = []
        real = np.random.Generator

        class Recorded:
            def __init__(self, bit_generator):
                self.rng = real(bit_generator)

            def standard_normal(self, out):
                chunks.append(out.shape)
                return self.rng.standard_normal(out=out)

            def multinomial(self, n, pvals):
                drawn = self.rng.multinomial(n, pvals)
                chunks.append((len(drawn), None))
                return drawn

        monkeypatch.setattr(np.random, "Generator", Recorded)
        tasks = [(1e-6, seed) for seed in range(64)]
        with pytest.raises(StepCapExceeded) as err:
            run_batch(v, "uniform", 0.5, tasks, step_cap=30)
        assert len(err.value.episodes) == 64
        assert {shape[1] for shape in chunks} == {kprime, None}
        assert all(64 * length * kprime <= simulator._DRAW_ENTRIES for length, _ in chunks)
        assert max(length for length, _ in chunks) > 1  # still more than one instant a call


class TestPiecewiseConstantStopping:
    def test_nearby_deltas_usually_stop_at_same_instant(self):
        # stopping only happens on the schedule, so deltas within 1% in
        # log(1/delta) almost always share the stopping instant
        v = symmetric_two_arm()
        d1 = math.exp(-5.0)
        d2 = math.exp(-5.01)
        same = 0
        for seed in range(100):
            t1 = run_episode(v, "het-ts", d1, 0.5, seed).tau
            t2 = run_episode(v, "het-ts", d2, 0.5, seed).tau
            same += t1 == t2
        assert same >= 90


class TestAggregate:
    def records(self, taus, policy="het-ts", delta=0.1, correct=True):
        return [
            RunRecord(
                policy=policy,
                lam=0.5,
                delta=delta,
                seed=i,
                tau=tau,
                rounds=5,
                correct=correct,
                recommendation=(0,),
            )
            for i, tau in enumerate(taus)
        ]

    def test_mean(self):
        rows = aggregate(self.records([10, 10, 12, 12]))
        assert rows[0].mean_tau == 11.0
        assert rows[0].n == 4

    def test_error_rate_zero_when_all_correct(self):
        assert aggregate(self.records([5, 5]))[0].error_rate == 0.0

    def test_error_rate_counts_incorrect(self):
        rows = aggregate(
            self.records([5, 5]) + self.records([7, 7], correct=False)[:1]
        )
        assert rows[0].error_rate == pytest.approx(1 / 3)

    def test_one_row_per_delta(self):
        rows = aggregate(self.records([5], delta=0.1) + self.records([9], delta=0.2))
        assert [(r.delta, r.mean_tau) for r in rows] == [(0.1, 5.0), (0.2, 9.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_singleton_std_is_zero(self):
        assert aggregate(self.records([5]))[0].std_tau == 0.0


class TestCsvRoundTrip:
    def test_single_record_two_lines(self, tmp_path):
        rec = run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=1)
        path = tmp_path / "records.csv"
        export_records([rec], str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "policy,lambda,delta,seed,tau,rounds,correct,recommendation"

    def test_round_trip_reproduces_records(self, tmp_path):
        config = SweepConfig(
            instance=chain_three_arm(), deltas=(0.1, math.exp(-7)), repetitions=3, lam=0.5
        )
        records = sweep(config)
        path = tmp_path / "records.csv"
        export_records(records, str(path))
        assert read_records(str(path)) == records

    # (field, bad value, message after "line 3: ")
    BAD_FIELDS = [
        ("correct", "True", "correct must be true or false, got 'True'"),
        ("correct", "1", "correct must be true or false, got '1'"),
        ("recommendation", "1,2", "recommendation must be 1-based arms joined by ';', got '1,2'"),
        ("recommendation", "0;1", "recommendation must be 1-based arms joined by ';', got '0;1'"),
        ("recommendation", "", "recommendation must be 1-based arms joined by ';', got ''"),
        ("policy", "greedy", "policy must be one of het-ts, uniform, got 'greedy'"),
        ("lambda", "abc", "lambda must be a number, got 'abc'"),
        ("lambda", "0", "lambda must be a positive finite number, got 0.0"),
        ("lambda", "inf", "lambda must be a positive finite number, got inf"),
        ("delta", "", "delta must be a number, got ''"),
        ("delta", "nan", "delta nan outside (0, 1)"),
        ("delta", "1.5", "delta 1.5 outside (0, 1)"),
        ("seed", "-1", "seed must be non-negative, got -1"),
        ("seed", "1.0", "seed must be an integer, got '1.0'"),
        ("tau", "-8", "tau must be a positive integer, got -8"),
        ("tau", "0", "tau must be a positive integer, got 0"),
        ("tau", "abc", "tau must be an integer, got 'abc'"),
        ("rounds", "-1", "rounds must be a non-negative integer, got -1"),
        ("rounds", "2.5", "rounds must be an integer, got '2.5'"),
    ]

    @pytest.mark.parametrize(
        "field, value, message", BAD_FIELDS, ids=[f"{f}-{v}" for f, v, _ in BAD_FIELDS]
    )
    def test_bad_field_names_its_line(self, tmp_path, field, value, message):
        path = tmp_path / "records.csv"
        export_records([run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=s)
                        for s in (1, 2)], str(path))
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[RECORD_FIELDS.index(field)] = f'"{value}"'
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape('line 3: ' + message)}$"):
            read_records(str(path))

    def test_oversized_field_names_the_line_it_starts_on(self, tmp_path):
        # a stray opening quote on line 3 runs past the CSV reader's field limit
        path = tmp_path / "records.csv"
        export_records([run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=1)], str(path))
        limit = csv.field_size_limit()
        rest = "het-ts,0.5,0.1,2,8,4,true,1;2\n" * (limit // 20)
        path.write_text(path.read_text() + 'het-ts,0.5,0.1,1,8,4,"true,1;2\n' + rest)
        message = rf"^line 3: field larger than field limit \({limit}\)$"
        with pytest.raises(ValueError, match=message):
            read_records(str(path))

    def test_multi_line_record_names_the_line_it_starts_on(self, tmp_path):
        # the record on line 3 has a quoted policy holding a line break, so it ends on line 4
        path = tmp_path / "records.csv"
        export_records([run_episode(symmetric_two_arm(), "het-ts", 0.1, 0.5, seed=1)], str(path))
        path.write_text(path.read_text() + '"het-\nts",0.5,0.1,2,8,4,true,1;2\n')
        message = "line 3: policy must be one of het-ts, uniform, got 'het-\\nts'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_records(str(path))

    @pytest.mark.parametrize(
        "header",
        ["", ",".join(RECORD_FIELDS[:-1]) + "\n", ",".join(["lambda", "policy", *RECORD_FIELDS[2:]]) + "\n"],
        ids=["empty", "short", "reordered"],
    )
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "records.csv"
        path.write_text(header)
        with pytest.raises(ValueError, match="^unexpected records header: "):
            read_records(str(path))

    def test_every_bad_field_of_a_row_named_at_once(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\nuniform,0.5,1.5,0,0,-1,yes,1;2\n")
        with pytest.raises(ValueError) as exc:
            read_records(str(path))
        assert str(exc.value) == (
            "line 2: delta 1.5 outside (0, 1); tau must be a positive integer, got 0; "
            "rounds must be a non-negative integer, got -1; "
            "correct must be true or false, got 'yes'"
        )

    def test_each_policy_lambda_delta_checked_once(self, tmp_path, monkeypatch):
        records = sweep(
            SweepConfig(instance=chain_three_arm(), deltas=(0.1, 0.2), repetitions=3, lam=0.5)
        )
        path = tmp_path / "records.csv"
        export_records(records, str(path))
        checked, real = [], simulator.input_violations

        def input_violations(*args):
            checked.append(args[:3])
            return real(*args)

        monkeypatch.setattr(simulator, "input_violations", input_violations)
        assert read_records(str(path)) == records
        assert checked == [("het-ts", 0.5, [0.1]), ("het-ts", 0.5, [0.2])]

    def test_seventeen_digit_floats(self, tmp_path):
        rec = RunRecord(
            policy="het-ts",
            lam=0.1,
            delta=math.exp(-10),
            seed=0,
            tau=4,
            rounds=2,
            correct=True,
            recommendation=(0, 1),
        )
        path = tmp_path / "r.csv"
        export_records([rec], str(path))
        row = path.read_text().splitlines()[1]
        assert "4.5399929762484854e-05" in row

    def test_summary_schema(self, tmp_path):
        records = sweep(
            SweepConfig(instance=symmetric_two_arm(), deltas=(0.1,), repetitions=2, lam=0.5)
        )
        path = tmp_path / "summary.csv"
        export_summary(aggregate(records), str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "policy,lambda,delta,n,mean_tau,std_tau,mean_rounds,error_rate"
        assert len(lines) == 2
