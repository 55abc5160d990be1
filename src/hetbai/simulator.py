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
episodes are batched or scheduled across workers.  The reward stream and a
uniform client's stream are drawn one chunk of blocks at a time (one
``(instants, K')`` array of standard normals; one multinomial over the
chunk's block lengths), which numpy fills in the order of the per-block
calls; what is left of a chunk when its episode stops is discarded, and no
other stream moves.  D-tracking tie-breaks depend on the counts, so they are
drawn as they arise.

Episodes of one instance, policy and ``lambda`` share the communication
instants, so :func:`run_batch` runs many in lockstep: each advances its own
clients and draws its own rewards, and at every instant the server work of
all running episodes is one stacked computation whose rows equal a lone
episode's values bit for bit.  :func:`run_episode` is the batch of one, and
:func:`sweep` deals its task list round-robin into one batch per worker;
the calling process runs the first batch, and a child process started for
each other batch sends its records back through a pipe.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import re
from dataclasses import dataclass
from functools import partial
from itertools import islice, takewhile
from multiprocessing.connection import Connection
from typing import Iterable, Sequence

import numpy as np

from .allocation import _client_weights
from .instance import ProblemInstance, slot_index, slot_stats, validate
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
    "input_violations",
    "RunRecord",
    "SweepConfig",
    "SummaryRow",
    "InstantLog",
    "StepCapExceeded",
    "run_episode",
    "run_batch",
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

# Most entries (rows x instants x K') a chunk's reward or pull-count buffer holds;
# a chunk is never shorter than one instant, whose buffer is the size of the counts.
_DRAW_ENTRIES = 1 << 20


class StepCapExceeded(RuntimeError):
    """Episodes ran past the hard step cap without stopping.

    ``episodes`` holds the ``(delta, seed)`` of every episode still running,
    each reproducible on its own with ``hetbai run``.
    """

    def __init__(self, message: str, episodes: tuple[tuple[float, int], ...] = ()):
        super().__init__(message)
        self.episodes = episodes


def _step_cap_error(
    step_cap: int, policy: str, lam: float, episodes: tuple[tuple[float, int], ...]
) -> StepCapExceeded:
    return StepCapExceeded(
        f"no stop by step cap {step_cap} (policy={policy}, lambda={lam!r}) for "
        + "; ".join(f"delta={d!r}, seed={s}" for d, s in episodes),
        episodes,
    )


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


def _is_integer(value: object) -> bool:
    """A Python or numpy integer, not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def input_violations(
    policy: str,
    lam: float,
    deltas: Sequence[float],
    seeds: Iterable[int],
    repetitions: int = 1,
    workers: int = 1,
    step_cap: int = 1,
) -> list[str]:
    """One message per broken input rule of a sweep or an episode batch, each bad value once.

    ``lam`` must be positive and convert to a finite float (an integer too
    large for a float does not), and ``1 + lam`` must exceed 1, or the
    communication schedule never leaves its first instant; numpy seeds must
    be non-negative; a sweep's seeds count up from ``base_seed``; a step cap
    below 1 leaves an episode no step to run, and one above ``2**53`` would
    let the step and the pull counts pass the integers a float holds
    exactly, which D-tracking relies on (see :func:`~hetbai.policy.track_pulls`).
    Seeds, ``repetitions``, ``workers`` and ``step_cap`` are Python or numpy
    integers (not ``bool``), the last three at least 1.
    """
    problems = []
    if policy not in POLICIES:
        problems.append(f"policy must be one of {', '.join(POLICIES)}, got {policy!r}")
    try:
        finite = math.isfinite(lam)  # an int too large for a float raises
    except OverflowError:
        finite = False
    if not (finite and lam > 0.0):
        problems.append(f"lambda must be a positive finite number, got {lam!r}")
    elif 1.0 + lam == 1.0:
        problems.append(f"lambda must not vanish against 1 (1 + lambda == 1), got {lam!r}")
    if not deltas:
        problems.append("deltas must be nonempty")
    problems += [f"delta {d!r} outside (0, 1)" for d in dict.fromkeys(deltas) if not 0.0 < d < 1.0]
    for s in dict.fromkeys(seeds):
        if not _is_integer(s):
            problems.append(f"seed must be an integer, got {s!r}")
        elif s < 0:
            problems.append(f"seed must be non-negative, got {s!r}")
    counts = {"repetitions": repetitions, "workers": workers, "step_cap": step_cap}
    problems += [
        f"{name} must be a positive integer, got {value!r}"
        for name, value in counts.items()
        if not _is_integer(value) or value < 1
    ]
    if _is_integer(step_cap) and step_cap > 2**53:
        problems.append(f"step_cap must be at most 2**53, got {step_cap!r}")
    return problems


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
        problems = input_violations(
            self.policy,
            self.lam,
            self.deltas,
            [self.base_seed],
            self.repetitions,
            self.workers,
            self.step_cap,
        )
        if problems:
            raise ValueError("invalid sweep: " + "; ".join(problems))
        # stored as Python ints: numpy integers would wrap in the seed arithmetic
        for name in ("repetitions", "base_seed", "workers", "step_cap"):
            object.__setattr__(self, name, int(getattr(self, name)))


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
    """Execute one episode of the client/server protocol: a batch of one.

    At every time step each client pulls one arm, and the steps up to the
    next communication instant run as one block; at every instant the
    server receives all empirical means and counts, checks the stopping
    rule first, and only if it does not fire recomputes and broadcasts the
    global vector.  Raises :class:`StepCapExceeded` instead of
    running forever when ``delta`` and the instance are miscalibrated.
    """
    traces = None if trace is None else [trace]
    return run_batch(instance, policy, lam, [(delta, seed)], step_cap, traces)[0]


def run_batch(
    instance: ProblemInstance,
    policy: str,
    lam: float,
    tasks: Sequence[tuple[float, int]],
    step_cap: int = 10**8,
    traces: Sequence[list[InstantLog]] | None = None,
) -> list[RunRecord]:
    """Run one episode per ``(delta, seed)`` task in lockstep; records in task order.

    All episodes share the communication schedule, so they reach the server
    on the same instants.  Between instants each episode advances its own
    clients and draws its own rewards, from its own streams in the order a
    lone episode uses them; each stream draws for the next chunk of instants
    in one call (the next ``max(16, instants run)``, fewer when the batch's
    buffers would pass ``_DRAW_ENTRIES`` entries, never past ``step_cap``),
    and each instant reads its slice.  At an instant the server work of
    every running episode is one stacked computation (``slot_stats``,
    ``slot_z_statistic``, the stopping rule with a per-episode threshold
    offset, ``slot_server_vector``) whose rows equal the lone episode's
    values bit for bit; so every record equals :func:`run_episode` for its
    task, whatever the batch or the chunks.  ``traces[k]``, when given, receives task
    ``k``'s :class:`InstantLog` entries.  Raises :class:`StepCapExceeded`
    naming every episode still running at the first instant past
    ``step_cap``.
    """
    if not tasks:
        return []
    problems = input_violations(
        policy, lam, [d for d, _ in tasks], [s for _, s in tasks], step_cap=step_cap
    )
    if problems:
        raise ValueError("invalid episode: " + "; ".join(problems))
    report = validate(instance)
    if not report.admissible:
        raise ValueError("inadmissible instance: " + "; ".join(report.violations))
    index = slot_index(instance)
    slot_means = index.flatten(instance.means)
    true_best = tuple(int(a) for a in slot_stats(index, slot_means).best_arms)
    kprime = index.num_slots
    thresholds = {delta: f_inverse(delta, kprime) for delta in {delta for delta, _ in tasks}}
    offsets = np.array([thresholds[delta] for delta, _ in tasks])

    schedule = CommSchedule(lam)
    instants = iter(schedule)
    sizes = [len(arms) for arms in instance.arm_sets]
    select_rngs, reward_rngs = zip(
        *(_episode_streams(seed, instance.num_clients) for _, seed in tasks)
    )
    # het-ts pull counts per client, as floats: track_pulls steps on them without converting
    tracked = [[[0.0] * size for size in sizes] for _ in tasks]
    weights = [[[1.0 / size] * size for size in sizes] for _ in tasks]
    counts = np.zeros((len(tasks), kprime), dtype=np.int64)  # one row per running episode
    sums = np.zeros((len(tasks), kprime))
    running = list(range(len(tasks)))  # task of each row
    records: list[RunRecord | None] = [None] * len(tasks)
    uniform = policy == "uniform"

    t = 0
    done = 0  # instants run so far
    while True:
        ahead = max(1, min(max(16, done), _DRAW_ENTRIES // (len(running) * kprime)))
        chunk = list(takewhile(lambda s: s <= step_cap, islice(instants, ahead)))
        if not chunk:
            raise _step_cap_error(step_cap, policy, lam, tuple(tasks[k] for k in running))
        # Each stream draws the whole chunk in one call, which numpy fills from the
        # stream in the order of the per-block calls, so every block reads the same
        # values as a per-block draw would.  A stopped row's leftover draws are dropped.
        noise = np.empty((len(running), len(chunk), kprime))
        for row, k in zip(noise, running):
            reward_rngs[k].standard_normal(out=row)
        if uniform:
            lengths = np.diff(chunk, prepend=t)
            pulls = np.empty(noise.shape, dtype=np.int64)
            for row, k in zip(pulls, running):
                np.concatenate(
                    [uniform_pulls(size, lengths, rng) for size, rng in zip(sizes, select_rngs[k])],
                    axis=1,
                    out=row,
                )
        for step, instant in enumerate(chunk):
            if uniform:
                block = pulls[:, step]
            else:
                pulled = []
                for k in running:
                    for row, w, rng in zip(tracked[k], weights[k], select_rngs[k]):
                        pulled += track_pulls(row, w, t, instant, rng)
                block = np.array(pulled, dtype=np.int64).reshape(counts.shape) - counts
            # The block's reward total on a slot pulled n times is N(n * mu, n); n = 0 adds 0.
            # Generator.normal(loc, scale) is loc + scale * (one standard normal draw per
            # entry), so scaling the episodes' standard normals stacked gives the same floats.
            sums += block * slot_means + np.sqrt(block) * noise[:, step]
            counts += block
            t = instant
            # The server's view: every client's counts and empirical means, in slot order.
            means = np.zeros(counts.shape)
            np.divide(sums, counts, out=means, where=counts > 0)
            stats = slot_stats(index, means)
            z = slot_z_statistic(index, stats, counts)
            stop, beta = should_stop(z, t, offsets, kprime, instance.num_arms)
            stop = stop.tolist()
            if traces is not None:
                for k, zk, bk, sk in zip(running, z.tolist(), beta.tolist(), stop):
                    traces[k].append(InstantLog(t=t, z=zk, beta=bk, stopped=sk))
            if True in stop:
                rounds = schedule.round_exponent(t)
                for row in (row for row, s in enumerate(stop) if s):
                    k = running[row]
                    recommendation = tuple(stats.best_arms[row].tolist())
                    records[k] = RunRecord(
                        policy=policy,
                        lam=lam,
                        delta=tasks[k][0],
                        seed=tasks[k][1],
                        tau=t,
                        rounds=rounds,
                        correct=recommendation == true_best,
                        recommendation=recommendation,
                    )
                keep = np.logical_not(stop)
                running = [k for k, s in zip(running, stop) if not s]
                if not running:
                    return records
                counts, sums, offsets, noise = counts[keep], sums[keep], offsets[keep], noise[keep]
                if uniform:
                    pulls = pulls[keep]
                stats = stats.rows(keep)
            if not uniform:
                gvec = slot_server_vector(index, stats)
                for k, row in zip(running, _client_weights(index, gvec)):
                    weights[k] = row
        done += len(chunk)


def _episode_streams(
    seed: int, num_clients: int
) -> tuple[list[np.random.Generator], np.random.Generator]:
    """Episode ``seed``'s selection streams ``(seed, m, 0)``, one per client, and ``(seed, 0, 1)``.

    numpy's ``SeedSequence`` turns a tuple of ints into the concatenation
    of each int's 32-bit little-endian words (0 is one word); each generator
    is seeded with those words as a ``uint32`` array, which gives the same
    state as the tuple and skips its conversion.
    """
    seed = int(seed)
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    select = [
        np.random.default_rng(np.array([*words, m, 0], dtype=np.uint32))
        for m in range(num_clients)
    ]
    return select, np.random.default_rng(np.array([*words, 0, 1], dtype=np.uint32))


def sweep(config: SweepConfig) -> list[RunRecord]:
    """Run ``repetitions`` episodes per delta; seeds are ``base_seed + index``.

    Episode index enumerates the grid by (delta position, repetition), and
    the returned order matches it.  The tasks are dealt round-robin into one
    batch per worker, so every batch gets its share of each delta (small
    deltas run longest); records depend neither on the split nor on the
    worker count.  The calling process runs the first batch itself, and each
    other batch runs in a child process of the default ``multiprocessing``
    context, which sends its outcome back through a pipe; one batch starts
    no process.  When episodes pass the step cap, every batch still runs to
    its end, and one :class:`StepCapExceeded` names the unfinished episodes
    of all batches in task order, as the one-batch run would.  Any other
    exception of a batch reaches the caller; a child that exits without
    sending its outcome is a ``RuntimeError`` naming its batch.  No child
    outlives the call, whatever it raises.
    """
    tasks = [
        (delta, config.base_seed + d_idx * config.repetitions + rep)
        for d_idx, delta in enumerate(config.deltas)
        for rep in range(config.repetitions)
    ]
    workers = pool_size(config.workers, len(tasks))
    run = partial(run_batch, config.instance, config.policy, config.lam, step_cap=config.step_cap)
    children: list[tuple[multiprocessing.Process, Connection]] = []
    try:
        for w in range(1, workers):
            children.append(_start_batch(run, tasks[w::workers]))
        try:
            outcomes = [(True, run(tasks[0::workers]))]
        except StepCapExceeded as exc:
            outcomes = [(False, exc)]
        outcomes += [_receive(w, *child) for w, child in enumerate(children, 1)]
    except BaseException:
        for process, _ in children:
            process.terminate()
        raise
    finally:
        for process, reader in children:
            reader.close()
            process.join()
            process.close()
    records: list = [None] * len(tasks)
    unfinished: list[tuple[float, int]] = []
    for w, (ok, outcome) in enumerate(outcomes):
        if ok:
            records[w::workers] = outcome
        elif isinstance(outcome, StepCapExceeded):
            unfinished += outcome.episodes
        else:
            raise outcome
    if unfinished:
        position = {task: k for k, task in enumerate(tasks)}
        episodes = tuple(sorted(unfinished, key=position.__getitem__))
        raise _step_cap_error(config.step_cap, config.policy, config.lam, episodes)
    return records


def _start_batch(
    run, batch: list[tuple[float, int]]
) -> tuple[multiprocessing.Process, Connection]:
    """A started child running ``run(batch)``, and the end of the pipe its outcome arrives on."""
    reader, writer = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_run_batch_child, args=(writer, run, batch), daemon=True
    )
    try:
        process.start()
    finally:
        writer.close()  # the child's copy is the only writer left, so its exit ends the pipe
    return process, reader


def _run_batch_child(writer: Connection, run, batch: list[tuple[float, int]]) -> None:
    """Child body: send ``(True, records)`` or ``(False, exception)``."""
    try:
        outcome = True, run(batch)
    except Exception as exc:
        outcome = False, exc
    writer.send(outcome)


def _receive(w: int, process: multiprocessing.Process, reader: Connection) -> tuple:
    """Batch ``w``'s outcome, read before the child is joined: a large one blocks it until read."""
    try:
        return reader.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"sweep batch {w} exited with code {process.exitcode} without sending its outcome"
        ) from None


def pool_size(workers: int, num_tasks: int) -> int:
    """Batches of a sweep: never more than there are episodes or CPUs.

    Every batch but the first runs in a child process, so an unclamped
    request would start processes that sit idle or compete for one CPU.
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


# The numeric record fields in file order, each with its conversion.
_NUMBER_FIELDS = {"lambda": float, "delta": float, "seed": int, "tau": int, "rounds": int}


def _record_number(line: str, name: str, raw: str) -> float | int:
    """Field ``name`` of a records row, or a ``ValueError`` naming the line, field and value."""
    convert = _NUMBER_FIELDS[name]
    try:
        return convert(raw)
    except ValueError:
        kind = "a number" if convert is float else "an integer"
        raise ValueError(f"{line}: {name} must be {kind}, got {raw!r}") from None


def read_records(path: str) -> list[RunRecord]:
    """Records written by :func:`write_records`; a bad row is a ``ValueError`` naming its line.

    Policy, lambda, delta and seed follow :func:`input_violations`; ``tau``
    is at least 1 and ``rounds`` at least 0.  A record the CSV reader
    rejects (a field longer than ``csv.field_size_limit()``) is named by the
    line it starts on.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        out = []
        last = 0  # physical lines read so far
        try:
            header = next(reader, None)
            if header != RECORD_FIELDS:
                raise ValueError(f"unexpected records header: {header}")
            last = reader.line_num
            for row in reader:
                last = reader.line_num
                out.append(_record(f"line {last}", row))
        except csv.Error as exc:
            raise ValueError(f"line {last + 1}: {exc}") from None
    return out


def _record(line: str, row: list[str]) -> RunRecord:
    """The record of one CSV row, or a ``ValueError`` naming ``line`` and every broken rule."""
    if len(row) != len(RECORD_FIELDS):
        raise ValueError(f"{line}: malformed record row: {row}")
    lam, delta, seed, tau, rounds = (
        _record_number(line, name, raw) for name, raw in zip(_NUMBER_FIELDS, row[1:6])
    )
    problems = input_violations(row[0], lam, [delta], [seed])
    if tau < 1:
        problems.append(f"tau must be a positive integer, got {tau}")
    if rounds < 0:
        problems.append(f"rounds must be a non-negative integer, got {rounds}")
    if row[6] not in ("true", "false"):
        problems.append(f"correct must be true or false, got {row[6]!r}")
    if not re.fullmatch(r"[1-9][0-9]*(;[1-9][0-9]*)*", row[7]):
        problems.append(f"recommendation must be 1-based arms joined by ';', got {row[7]!r}")
    if problems:
        raise ValueError(f"{line}: " + "; ".join(problems))
    return RunRecord(
        policy=row[0],
        lam=lam,
        delta=delta,
        seed=seed,
        tau=tau,
        rounds=rounds,
        correct=row[6] == "true",
        recommendation=tuple(int(a) - 1 for a in row[7].split(";")),
    )


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
