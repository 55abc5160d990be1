"""Deterministic episode execution, sweeps, and result aggregation.

All clients advance in lockstep discrete time.  Rewards are unit-variance
Gaussians around the instance means.  Between two communication instants
neither selection rule looks at a reward, and the server sees only counts
and sums at the instants, so an episode runs one block per instant, in two
phases: the client advance moves each client's counts over the block in one
call and one Gaussian draw per (client, arm) slot gives the block's reward
total, ``N(n mu, n)`` for a slot pulled ``n`` times; then the server step
stops or broadcasts.  Randomness is split per episode seed: stream
``(seed, m, 0)`` drives client ``m``'s selection (D-tracking tie-breaks, or
the uniform block counts) and stream ``(seed, 0, 1)`` the rewards, so a run
is bit-reproducible for a fixed seed regardless of how episodes are batched
or scheduled across workers.  A batch hashes the seed-sequence keys of all
its streams by numpy's own loops, each word a column over the batch
(:func:`_seed_states`: 1.5 ms of CPU for 64 episodes of 3 clients, against
4.6 ms by ``default_rng``, on a 2-vCPU Xeon), each stream equal to
``default_rng`` of its tuple.  The reward stream and a uniform client's
stream are drawn one chunk of blocks at a time (one ``(instants, K')`` array
of standard normals; one multinomial over the chunk's block lengths), which
numpy fills in the order of the per-block calls; what is left of a chunk
when its episode stops is discarded, and no other stream moves.  D-tracking
tie-breaks depend on the counts, so they are drawn as they arise.

Episodes of one instance, policy and ``lambda`` share the communication
instants, so :func:`run_batch` runs many in lockstep with the policy's client
advance: each episode advances its own clients and draws its own rewards,
and the server step of all running episodes is one stacked computation
whose rows equal a lone episode's values bit for bit.  :func:`run_episode`
is the batch of one, and :func:`sweep` deals its task list round-robin into
one batch per worker; the calling process runs the first batch, and a child
process started for each other batch sends its records back through a pipe.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice, takewhile
from multiprocessing.connection import Connection
from typing import Iterable, Sequence

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence

from .allocation import _client_weights
from .instance import (
    ArmStats,
    ProblemInstance,
    SlotIndex,
    _is_integer,
    _is_real,
    slot_index,
    slot_stats,
    validate,
)
from .policy import (
    CommSchedule,
    _delta_problem,
    _lambda_problem,
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
    each reproducible on its own with ``hetbai run``, and ``records`` the
    :class:`RunRecord` of every episode that finished, in task order.
    """

    def __init__(self, message: str, episodes: tuple = (), records: tuple = ()):
        super().__init__(message)
        self.episodes = episodes
        self.records = records


def _step_cap_error(step_cap: int, policy: str, lam: float, episodes, records) -> StepCapExceeded:
    return StepCapExceeded(
        f"no stop by step cap {step_cap} (policy={policy}, lambda={lam!r}) for "
        + "; ".join(f"delta={d!r}, seed={s}" for d, s in episodes),
        tuple(episodes),
        tuple(records),
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

    ``lam`` and the deltas are Python or numpy ints or floats (not ``bool``);
    ``lam`` must be positive and convert to a finite float (an integer too
    large for a float does not), and ``1 + lam`` must exceed 1, or the
    communication schedule never leaves its first instant; a delta must lie
    above ``2**-1024`` (``2**-128`` as a float32), or the threshold's
    ``log(1/delta)`` is infinite; numpy seeds must
    be non-negative; a sweep's seeds count up from ``base_seed``; a step cap
    below 1 leaves an episode no step to run, and one above ``2**53`` would
    let the step and the pull counts pass the integers a float holds
    exactly, which D-tracking relies on (see :func:`~hetbai.policy.track_pulls`).
    Seeds, ``repetitions``, ``workers`` and ``step_cap`` are Python or numpy
    integers (not ``bool``), the last three at least 1.  A bad delta or seed
    is named once per ``repr``: no value is hashed, so a list gets a message.
    """
    problems = []
    if policy not in POLICIES:
        problems.append(f"policy must be one of {', '.join(POLICIES)}, got {policy!r}")
    problems += filter(None, [_lambda_problem(lam)])
    if len(deltas) == 0:  # an array's truth value is ambiguous
        problems.append("deltas must be nonempty")
    deltas = {repr(d): d for d in deltas}.values()
    problems += [f"delta must be a number, got {d!r}" for d in deltas if not _is_real(d)]
    problems += filter(None, map(_delta_problem, filter(_is_real, deltas)))
    problems += _seed_violations(seeds)
    counts = {"repetitions": repetitions, "workers": workers, "step_cap": step_cap}
    problems += [
        f"{name} must be a positive integer, got {value!r}"
        for name, value in counts.items()
        if not _is_integer(value) or value < 1
    ]
    if _is_integer(step_cap) and step_cap > 2**53:
        problems.append(f"step_cap must be at most 2**53, got {step_cap!r}")
    return problems


def _seed_violations(seeds: Iterable[int]) -> list[str]:
    problems = []
    for s in {repr(s): s for s in seeds}.values():
        if not _is_integer(s):
            problems.append(f"seed must be an integer, got {s!r}")
        elif s < 0:
            problems.append(f"seed must be non-negative, got {s!r}")
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
        object.__setattr__(self, "deltas", tuple(self.deltas))
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
    on the same instants.  In each block the policy's client advance moves
    every running episode's clients and the block's rewards are drawn, each
    from the episode's own streams in the order a lone episode uses them;
    then one stacked server step (``slot_stats``, ``slot_z_statistic``, the
    stopping rule with a per-episode threshold offset) gives rows equal to
    the lone episode's values bit for bit, and a het-ts episode that runs on
    applies its broadcast (``slot_server_vector``) in its next advance.  Each
    stream draws the next chunk of instants in one call (``max(16, instants
    run)``, fewer when the buffers would pass ``_DRAW_ENTRIES`` entries,
    never past ``step_cap``), so every record equals :func:`run_episode` for
    its task, whatever the batch or the chunks.  Every stream of the batch
    is seeded in one pass (:func:`_batch_streams`).  The instance keeps its
    validation report, and each delta's ``f_inverse`` and the schedule of
    ``lam`` are computed once per process.  ``traces[k]``, when given,
    receives task ``k``'s :class:`InstantLog` entries.  Raises
    :class:`StepCapExceeded` naming every episode still running at the first
    instant past ``step_cap``, with the finished records.
    """
    if traces is not None and len(traces) != len(tasks):
        raise ValueError(f"one trace per task: {len(traces)} traces for {len(tasks)} tasks")
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
    offsets = np.array([f_inverse(delta, kprime) for delta, _ in tasks])

    schedule = _schedule(float(lam))
    instants = iter(schedule)
    select_rngs, reward_rngs = _batch_streams([seed for _, seed in tasks], instance.num_clients)
    # The client advance returns the running rows' cumulative slot counts at chunk[step],
    # as whole-number floats: exact up to the step cap's 2**53, and every float
    # expression below reads them as it would read the integers.
    clients = _uniform_clients if policy == "uniform" else _tracking_clients
    advance = clients(index, np.diff(index.starts).tolist(), select_rngs)
    counts = np.zeros((len(tasks), kprime))  # one row per running episode
    sums = np.zeros((len(tasks), kprime))
    running = list(range(len(tasks)))  # task of each row
    records: list[RunRecord | None] = [None] * len(tasks)

    t = 0
    done = 0  # instants run so far
    stats = None  # the server's last view of the running rows
    while True:
        ahead = max(1, min(max(16, done), _DRAW_ENTRIES // (len(running) * kprime)))
        chunk = list(takewhile(lambda s: s <= step_cap, islice(instants, ahead)))
        if not chunk:
            finished = [r for r in records if r is not None]
            raise _step_cap_error(step_cap, policy, lam, [tasks[k] for k in running], finished)
        # Each stream draws the whole chunk in one call, which numpy fills from the
        # stream in the order of the per-block calls, so every block reads the same
        # values as a per-block draw would.  A stopped row's leftover draws are dropped.
        noise = np.empty((len(running), len(chunk), kprime))
        for row, k in zip(noise, running):
            reward_rngs[k].standard_normal(out=row)
        for step, instant in enumerate(chunk):
            pulled = advance(running, stats, t, chunk, step)
            block = pulled - counts
            # The block's reward total on a slot pulled n times is N(n * mu, n); n = 0 adds 0.
            # Generator.normal(loc, scale) is loc + scale * (one standard normal draw per
            # entry), so scaling the episodes' standard normals stacked gives the same floats;
            # the products and the sum are taken in place.
            reward = np.sqrt(block)
            reward *= noise[:, step]
            block *= slot_means
            block += reward
            sums += block
            counts = pulled
            t = instant
            stats, z, stop, beta = _server_step(index, instance.num_arms, counts, sums, t, offsets)
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
                stats = stats.rows(keep)
        done += len(chunk)


@lru_cache(maxsize=16)
def _schedule(lam: float) -> CommSchedule:
    """The communication schedule of ``lam``, shared by every batch of the process."""
    return CommSchedule(lam)


def _server_step(index: SlotIndex, num_arms: int, counts, sums, t: int, offsets) -> tuple:
    """The server at instant ``t``: each row's stats, ``Z(t)``, stop flag and threshold."""
    # An unpulled slot's sum is +0.0, so its mean reads 0 / 1 = 0.
    stats = slot_stats(index, sums / np.maximum(counts, 1.0))
    z = slot_z_statistic(index, stats, counts)
    stop, beta = should_stop(z, t, offsets, index.num_slots, num_arms)
    return stats, z, stop.tolist(), beta


def _tracking_clients(index: SlotIndex, sizes: list[int], select_rngs: Sequence[list]):
    """Client advance of het-ts: apply the broadcast for the server's view, then D-track."""
    index.class_blocks  # the broadcast's blocks, first: a class over their budget raises here
    # pull counts per client as floats: track_pulls steps on them without converting
    tracked = [[[0.0] * size for size in sizes] for _ in select_rngs]
    weights = [[[1.0 / size] * size for size in sizes] for _ in select_rngs]

    def advance(running: list[int], stats: ArmStats | None, t: int, chunk: list[int], step: int):
        if stats is not None:
            for k, row in zip(running, _client_weights(index, slot_server_vector(index, stats))):
                weights[k] = row
        pulled = []
        for k in running:
            for row, w, rng in zip(tracked[k], weights[k], select_rngs[k]):
                pulled += track_pulls(row, w, t, chunk[step], rng)
        return np.array(pulled).reshape(len(running), -1)

    return advance


def _uniform_clients(index: SlotIndex, sizes: list[int], select_rngs: Sequence[list]):
    """Client advance of the uniform baseline: each client draws a chunk's blocks at its start."""
    # counts at every instant of the chunk, one row per episode running when it was drawn
    drawn = np.zeros((len(select_rngs), 1, index.num_slots))
    rows = list(range(len(select_rngs)))  # task of each row

    def advance(running: list[int], stats: ArmStats | None, t: int, chunk: list[int], step: int):
        nonlocal drawn, rows
        if len(rows) > len(running):  # rows stop in order, so keep the running ones
            drawn, rows = drawn[np.isin(rows, running)], running
        if step == 0:
            lengths = np.diff(chunk, prepend=t)
            start = drawn[:, -1:]
            drawn = np.empty((len(rows), len(chunk), index.num_slots))
            for row, k in zip(drawn, rows):
                pulls = [uniform_pulls(n, lengths, rng) for n, rng in zip(sizes, select_rngs[k])]
                np.concatenate(pulls, axis=1, out=row)
            np.cumsum(drawn, axis=1, out=drawn)
            drawn += start
        return drawn[:, step]

    return advance


# numpy's SeedSequence constants (O'Neill's seed_seq_fe, PCG 2014)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashes of the key into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashes of the pool into the state
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _seed_states(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of each row ``key`` of uint32 ``keys``.

    numpy's ``mix_entropy`` and ``generate_state``, loop for loop, with each
    word a column over all rows: the first four key words (zeros past the
    key) are hashed into a pool of four, every pool word is mixed into every
    other, each further key word into every pool word, and eight hashes of
    the pool, cycled, are paired little-endian into four ``uint64`` words.
    Every hash advances one running constant; uint32 arithmetic wraps.
    """
    const, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    words = list(keys.T) + [np.zeros(len(keys), dtype=np.uint32)] * (4 - keys.shape[1])
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, mult = _INIT_B, _MULT_B
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A seed sequence whose ``generate_state(4, np.uint64)`` words were computed beforehand."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"state words are 4 uint64, not {n_words} {dtype}")
        return self.words


def _batch_streams(
    seeds: Sequence[int], num_clients: int
) -> tuple[list[list[np.random.Generator]], list[np.random.Generator]]:
    """Each seed's selection streams ``(seed, m, 0)``, one per client, and its ``(seed, 0, 1)``.

    numpy's ``SeedSequence`` turns a tuple of ints into the concatenation
    of each int's 32-bit little-endian words (0 is one word).  The keys of
    all streams are hashed by :func:`_seed_states`, one call per key
    length, and each ``PCG64`` takes its state words from a
    :class:`_SeedState`, so every stream equals ``default_rng`` of its tuple.
    """
    tails = np.array([(m, 0) for m in range(num_clients)] + [(0, 1)], dtype=np.uint32)
    seeds = [int(s) for s in seeds]
    words = [[s >> k & 0xFFFFFFFF for k in range(0, s.bit_length() or 1, 32)] for s in seeds]
    rows = {}  # words per seed -> the state rows of its seeds' streams, in seed order
    for size in set(map(len, words)):
        heads = np.array([w for w in words if len(w) == size], dtype=np.uint32)
        keys = np.hstack([np.repeat(heads, len(tails), axis=0), np.tile(tails, (len(heads), 1))])
        rows[size] = iter(_seed_states(keys))
    streams = [
        [np.random.Generator(PCG64(_SeedState(next(rows[len(w)])))) for _ in tails]
        for w in words
    ]
    return [s[:-1] for s in streams], [s[-1] for s in streams]


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
    of all batches and carries the finished records, each in task order.
    Any other exception of a batch reaches the caller; a child that exits
    without sending its outcome is a ``RuntimeError`` naming its batch.  No
    child outlives the call, whatever it raises.
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
    position = {task: k for k, task in enumerate(tasks)}
    records: list[RunRecord] = []
    unfinished: list[tuple[float, int]] = []
    for ok, outcome in outcomes:
        if ok:
            records += outcome
        elif isinstance(outcome, StepCapExceeded):
            records += outcome.records
            unfinished += outcome.episodes
        else:
            raise outcome
    records.sort(key=lambda r: position[r.delta, r.seed])
    if unfinished:
        unfinished.sort(key=position.__getitem__)
        raise _step_cap_error(config.step_cap, config.policy, config.lam, unfinished, records)
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
    """Batches of a sweep: never more than there are episodes or CPUs this process may use.

    Every batch but the first runs in a child process, so an unclamped
    request would start processes that sit idle or compete for one CPU.
    Records do not depend on the worker count, so clamping changes no result.
    """
    return min(workers, num_tasks, _usable_cpus())


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask where the OS has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    is at least 1 and ``rounds`` at least 0.  Every bad record, also one the
    CSV reader rejects (a field longer than ``csv.field_size_limit()``), is
    named by the physical line it starts on.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        out = []
        checked: dict[tuple[str, ...], list[str]] = {}  # policy, lambda, delta text -> problems
        last = 0  # physical lines read so far
        try:
            header = next(reader, None)
            if header != RECORD_FIELDS:
                raise ValueError(f"unexpected records header: {header}")
            last = reader.line_num
            for row in reader:  # a record starts on the line after the previous one ends
                line, last = last + 1, reader.line_num
                out.append(_record(f"line {line}", row, checked))
        except csv.Error as exc:
            raise ValueError(f"line {last + 1}: {exc}") from None
    return out


def _record(line: str, row: list[str], checked: dict) -> RunRecord:
    """The record of one CSV row, or a ``ValueError`` naming ``line`` and every broken rule.

    ``checked`` keeps the problems of each (policy, lambda, delta) text seen.
    """
    if len(row) != len(RECORD_FIELDS):
        raise ValueError(f"{line}: malformed record row: {row}")
    lam, delta, seed, tau, rounds = (
        _record_number(line, name, raw) for name, raw in zip(_NUMBER_FIELDS, row[1:6])
    )
    key = tuple(row[:3])
    if key not in checked:
        checked[key] = input_violations(row[0], lam, [delta], [])
    problems = checked[key] + _seed_violations([seed])
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
