"""Deterministic episode execution, sweeps, and result aggregation.

All clients advance in lockstep discrete time.  Rewards are unit-variance
Gaussians around the instance means.  Between two communication instants
neither selection rule looks at a reward, and the server sees only counts
and sums at the instants, so an episode runs one block per instant: each
client advances its counts over the block in one call, then one Gaussian
draw per (client, arm) slot gives the block's reward total, ``N(n mu, n)``
for a slot pulled ``n`` times.  Randomness is split per episode seed:
stream ``(seed, m, 0)`` drives client ``m``'s selection (D-tracking
tie-breaks, or the uniform block counts) and stream ``(seed, 0, 1)`` the
rewards, so a run is bit-reproducible for a fixed seed regardless of how
episodes are scheduled across workers.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .instance import ProblemInstance, SlotIndex, slot_stats, validate
from .policy import (
    CommSchedule,
    f_inverse,
    should_stop,
    slot_server_vector,
    slot_z_statistic,
    track_pulls,
    uniform_pulls,
)

__all__ = [
    "POLICIES",
    "RunRecord",
    "SweepConfig",
    "SummaryRow",
    "InstantLog",
    "StepCapExceeded",
    "run_episode",
    "sweep",
    "pool_size",
    "aggregate",
    "export_records",
    "write_records",
    "read_records",
    "export_summary",
    "RECORD_FIELDS",
    "SUMMARY_FIELDS",
]

POLICIES = ("het-ts", "uniform")

RECORD_FIELDS = ["policy", "lambda", "delta", "seed", "tau", "rounds", "correct", "recommendation"]
SUMMARY_FIELDS = ["policy", "lambda", "delta", "n", "mean_tau", "std_tau", "mean_rounds", "error_rate"]


class StepCapExceeded(RuntimeError):
    """Episode ran past the hard step cap without stopping."""


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one episode."""

    policy: str
    lam: float
    delta: float
    seed: int
    tau: int
    rounds: int
    correct: bool
    recommendation: tuple[int, ...]


@dataclass(frozen=True)
class InstantLog:
    """Server-side view at one communication instant."""

    t: int
    z: float
    beta: float
    stopped: bool


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: an instance, a policy, and a delta grid with repetitions."""

    instance: ProblemInstance
    deltas: tuple[float, ...]
    policy: str = "het-ts"
    lam: float = 0.01
    repetitions: int = 4
    base_seed: int = 0
    workers: int = 1
    step_cap: int = 10**8

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not self.deltas:
            raise ValueError("deltas must be nonempty")
        if any(not (0.0 < d < 1.0) for d in self.deltas):
            raise ValueError("every delta must lie in (0, 1)")
        if not (self.lam > 0.0):
            raise ValueError("lam must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class SummaryRow:
    policy: str
    lam: float
    delta: float
    n: int
    mean_tau: float
    std_tau: float
    mean_rounds: float
    error_rate: float


def run_episode(
    instance: ProblemInstance,
    policy: str,
    delta: float,
    lam: float,
    seed: int,
    step_cap: int = 10**8,
    trace: list[InstantLog] | None = None,
) -> RunRecord:
    """Execute one episode of the client/server protocol.

    At every time step each client pulls one arm, and the steps up to the
    next communication instant run as one block; at every instant the
    server receives all empirical means and counts, checks the stopping
    rule first, and only if it does not fire recomputes and broadcasts the
    global vector.  Raises :class:`StepCapExceeded` instead of
    running forever when ``delta`` and the instance are miscalibrated.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    report = validate(instance)
    if not report.admissible:
        raise ValueError("inadmissible instance: " + "; ".join(report.violations))
    index = SlotIndex.of(instance)
    slot_means = index.flatten(instance.means)
    true_best = tuple(int(a) for a in slot_stats(index, slot_means).best_arms)
    kprime = index.num_slots
    offset = f_inverse(delta, kprime)

    schedule = CommSchedule(lam)
    sizes = [len(arms) for arms in instance.arm_sets]
    select_rngs = [np.random.default_rng((seed, m, 0)) for m in range(instance.num_clients)]
    reward_rng = np.random.default_rng((seed, 0, 1))
    tracked = [[0] * size for size in sizes]  # het-ts pull counts, one list per client
    weights = [[1.0 / size] * size for size in sizes]
    counts = np.zeros(kprime, dtype=np.int64)
    sums = np.zeros(kprime)
    uniform = policy == "uniform"

    t = 0
    for instant in schedule:
        if instant > step_cap:
            raise StepCapExceeded(
                f"no stop by step cap {step_cap} (policy={policy}, delta={delta}, seed={seed})"
            )
        if uniform:
            block = np.concatenate(
                [uniform_pulls(size, instant - t, rng) for size, rng in zip(sizes, select_rngs)]
            )
        else:
            for row, w, rng in zip(tracked, weights, select_rngs):
                track_pulls(row, w, t, instant, rng)
            block = np.fromiter(chain.from_iterable(tracked), dtype=np.int64, count=kprime) - counts
        # The block's reward total on a slot pulled n times is N(n * mu, n); n = 0 adds 0.
        sums += reward_rng.normal(block * slot_means, np.sqrt(block))
        counts += block
        t = instant
        # The server's view: every client's counts and empirical means, in slot order.
        means = np.zeros(kprime)
        np.divide(sums, counts, out=means, where=counts > 0)
        stats = slot_stats(index, means)
        z = slot_z_statistic(index, stats, counts)
        stop, beta = should_stop(z, t, delta, kprime, instance.num_arms, offset=offset)
        if trace is not None:
            trace.append(InstantLog(t=t, z=z, beta=beta, stopped=stop))
        if stop:
            recommendation = tuple(int(a) for a in stats.best_arms)
            return RunRecord(
                policy=policy,
                lam=lam,
                delta=delta,
                seed=seed,
                tau=t,
                rounds=schedule.round_exponent(t),
                correct=recommendation == true_best,
                recommendation=recommendation,
            )
        if not uniform:
            gvec = slot_server_vector(index, stats)[index.slot_arm]
            weights = [
                (g / g.sum()).tolist()
                for g in (gvec[a:b] for a, b in zip(index.starts[:-1], index.starts[1:]))
            ]
    raise AssertionError("unreachable: the schedule is unbounded")


def _episode_task(args: tuple) -> RunRecord:
    return run_episode(*args)


def sweep(config: SweepConfig) -> list[RunRecord]:
    """Run ``repetitions`` episodes per delta; seeds are ``base_seed + index``.

    Episode index enumerates the grid by (delta position, repetition), and
    the returned order matches it regardless of the worker count.
    """
    tasks = []
    for d_idx, delta in enumerate(config.deltas):
        for rep in range(config.repetitions):
            episode = d_idx * config.repetitions + rep
            tasks.append(
                (
                    config.instance,
                    config.policy,
                    delta,
                    config.lam,
                    config.base_seed + episode,
                    config.step_cap,
                )
            )
    workers = pool_size(config.workers, len(tasks))
    if workers == 1:
        return [run_episode(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_episode_task, tasks))


def pool_size(workers: int, num_tasks: int) -> int:
    """Worker processes for a sweep: never more than there are episodes or CPUs.

    The default ``fork`` start method launches every worker up front,
    whatever the task count, so an unclamped request forks idle processes.
    Records do not depend on the worker count, so clamping changes no result.
    """
    return min(workers, num_tasks, os.cpu_count() or 1)


def aggregate(records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Sample statistics per (policy, lambda, delta) group.

    ``std_tau`` is the sample standard deviation (ddof=1; zero for singleton
    groups); ``error_rate`` is the fraction of incorrect recommendations.
    """
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict[tuple[str, float, float], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.policy, rec.lam, rec.delta), []).append(rec)
    rows = []
    for (policy, lam, delta), recs in sorted(groups.items()):
        taus = np.array([r.tau for r in recs], dtype=float)
        rounds = np.array([r.rounds for r in recs], dtype=float)
        rows.append(
            SummaryRow(
                policy=policy,
                lam=lam,
                delta=delta,
                n=len(recs),
                mean_tau=float(taus.mean()),
                std_tau=float(taus.std(ddof=1)) if len(recs) > 1 else 0.0,
                mean_rounds=float(rounds.mean()),
                error_rate=float(np.mean([not r.correct for r in recs])),
            )
        )
    return rows


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_records(records: Iterable[RunRecord], fh) -> None:
    """Write records as CSV; recommendations are 1-based, ';'-separated."""
    writer = csv.writer(fh)
    writer.writerow(RECORD_FIELDS)
    for rec in records:
        writer.writerow(
            [
                rec.policy,
                _fmt(rec.lam),
                _fmt(rec.delta),
                rec.seed,
                rec.tau,
                rec.rounds,
                "true" if rec.correct else "false",
                ";".join(str(a + 1) for a in rec.recommendation),
            ]
        )


def export_records(records: Iterable[RunRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_records(records, fh)


def read_records(path: str) -> list[RunRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORD_FIELDS:
            raise ValueError(f"unexpected records header: {header}")
        out = []
        for row in reader:
            if len(row) != len(RECORD_FIELDS):
                raise ValueError(f"malformed record row: {row}")
            out.append(
                RunRecord(
                    policy=row[0],
                    lam=float(row[1]),
                    delta=float(row[2]),
                    seed=int(row[3]),
                    tau=int(row[4]),
                    rounds=int(row[5]),
                    correct=row[6] == "true",
                    recommendation=tuple(int(a) - 1 for a in row[7].split(";")),
                )
            )
    return out


def export_summary(rows: Iterable[SummaryRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for row in rows:
            writer.writerow(
                [
                    row.policy,
                    _fmt(row.lam),
                    _fmt(row.delta),
                    row.n,
                    _fmt(row.mean_tau),
                    _fmt(row.std_tau),
                    _fmt(row.mean_rounds),
                    _fmt(row.error_rate),
                ]
            )
