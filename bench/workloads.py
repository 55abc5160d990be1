"""The benchmark's workloads: seeded inputs, the timed calls, and output checks.

Each workload has a fixed list of distinct calls made from ``--seed``.  The
harness (``run.py``) times ``run(k)`` and nothing else; ``output(k, raw)``
turns what a call returned or wrote into a comparable value plus its work
counts, outside the timed region; ``check(outputs)`` verifies the outputs
with code of its own and returns the operations that failed.

The library is reached through module attributes (``simulator.run_episode``,
``cli.dispatch``) at call time, so that the tracer's wrappers are the ones
called during a traced pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from hetbai import cli, instance, simulator
from hetbai.policy import CommSchedule


@dataclass
class Output:
    value: object  # compared across repeats of the same call
    ops: int  # operations completed: episodes, or ingest+solve pairs
    samples: int  # reward samples drawn (sum of tau * M), or rating rows ingested
    parts: dict = field(default_factory=dict)  # sub-call timings in seconds
    records: tuple = ()  # episode records, for the checks and the digest


def sha256_files(*paths: str, extra: bytes = b"") -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    h.update(extra)
    return h.hexdigest()


def write_if_changed(path: str, text: str) -> None:
    """Write ``text`` unless the file already holds it.

    Set-up is repeated for timing; rewriting identical bytes would time the
    file system, which the speed scaling does not track, instead of the
    work of making the inputs.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.read() == text:
                return
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def best_arms(arm_sets, means) -> tuple[int, ...]:
    """Each client's best arm by ownership-averaged means (independent of hetbai)."""
    num_arms = 1 + max(a for s in arm_sets for a in s)
    sums = np.zeros(num_arms)
    mult = np.zeros(num_arms)
    for arms, mus in zip(arm_sets, means):
        sums[list(arms)] += mus
        mult[list(arms)] += 1
    glob = sums / mult
    return tuple(int(arms[int(np.argmax(glob[list(arms)]))]) for arms in arm_sets)


def check_records(records, truth, lam) -> dict[int, str]:
    """Index -> reason for every record that fails a check.

    Each tau must be a communication instant whose round exponent is the
    recorded round count; ``correct`` must agree with the true best arms; and
    the error rate of each delta group must stay within
    ``delta + 3 * sqrt(delta * (1 - delta) / n)`` (all of a failing group fail).
    """
    schedule = CommSchedule(lam)
    bad: dict[int, str] = {}
    groups: dict[float, list[int]] = {}
    for idx, rec in enumerate(records):
        groups.setdefault(rec.delta, []).append(idx)
        if not schedule.is_instant(rec.tau):
            bad[idx] = f"seed {rec.seed}: tau {rec.tau} is not a communication instant"
        elif schedule.round_exponent(rec.tau) != rec.rounds:
            bad[idx] = f"seed {rec.seed}: rounds {rec.rounds} != round exponent of tau {rec.tau}"
        elif rec.correct != (tuple(rec.recommendation) == truth):
            bad[idx] = f"seed {rec.seed}: correct flag disagrees with the true best arms"
    for delta, members in groups.items():
        n = len(members)
        errors = sum(not records[i].correct for i in members)
        limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / n)
        if errors / n > limit:
            for i in members:
                bad.setdefault(i, f"delta {delta!r}: error rate {errors}/{n} above {limit:.4f}")
    return bad


def chain_instance():
    """K=3, M=2 chain with global means (3, 2, 0)."""
    return instance.ProblemInstance.from_means(
        [(0, 1), (1, 2)], {(0, 0): 3.0, (0, 1): 2.0, (1, 1): 2.0, (1, 2): 0.0}
    )


def cyclic_pairs_instance():
    """K=M=3 cyclic pairs with banded means, as in acceptance criterion 5."""
    rng = np.random.default_rng(2024)
    sets = [(0, 1), (1, 2), (0, 2)]
    means = {}
    for m, arms in enumerate(sets):
        for i in arms:
            lo = 6.0 - i
            means[(m, i)] = float(rng.uniform(lo, lo + 1.0))
    return instance.ProblemInstance.from_means(sets, means, num_arms=3)


class Workload:
    name = ""  # as in BENCHMARK.json, which also says why the workload is there
    # (label, worker count, traced) for each pass of a traced run.
    trace_passes = (("plain", 1, False), ("traced", 1, True))
    workers = 1  # worker count of the untraced run

    def __init__(self, workdir: str, smoke: bool) -> None:
        self.workdir = workdir
        self.smoke = smoke

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self, k: int) -> int:
        return 1

    def digest(self, outputs: list[Output]) -> str:
        raise NotImplementedError


class EpisodeWorkload(Workload):
    """Serial ``run_episode`` calls over a delta grid; one call per episode."""

    policy = "het-ts"
    lam = 0.1
    deltas: tuple[float, ...] = ()
    reps = 1

    def make_instance(self):
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        inst = self.make_instance()
        report = instance.validate(inst)
        if not report.admissible:
            raise ValueError("workload instance is not admissible: " + "; ".join(report.violations))
        reps = 1 if self.smoke else self.reps
        base = seed * 1_000_000
        # Deltas interleaved, so a partial pass still covers the grid evenly.
        count = len(self.deltas) * reps
        self.tasks = [(self.deltas[k % len(self.deltas)], base + k) for k in range(count)]
        self.instance = inst
        self.truth = best_arms(inst.arm_sets, inst.means)

    @property
    def calls(self) -> int:
        return len(self.tasks)

    @property
    def num_clients(self) -> int:
        return self.instance.num_clients

    def run(self, k: int, workers: int):
        delta, seed = self.tasks[k]
        return simulator.run_episode(self.instance, self.policy, delta, self.lam, seed)

    def output(self, k: int, rec) -> Output:
        return Output(
            value=rec, ops=1, samples=rec.tau * self.num_clients, records=(rec,)
        )

    def check(self, outputs: list[Output]) -> dict[int, tuple[int, str]]:
        records = [o.records[0] for o in outputs]
        bad = check_records(records, self.truth, self.lam)
        return {k: (1, reason) for k, reason in bad.items()}

    def digest(self, outputs: list[Output]) -> str:
        path = self.path("records.csv")
        simulator.export_records([o.records[0] for o in outputs], path)
        return sha256_files(path)


class Chain3Slope(EpisodeWorkload):
    name = "chain3-slope"
    lam = 0.1
    deltas = tuple(math.exp(-e) for e in (8, 12, 16, 20))
    reps = 30

    def make_instance(self):
        return chain_instance()


class Rho50Pull(EpisodeWorkload):
    name = "rho50-pull"
    lam = 0.01
    deltas = (0.01,)
    reps = 1

    def make_instance(self):
        rho = 1.0 if self.smoke else 50.0
        return instance.gen_hardness_instance(rho, 5, 5, instance.OVERLAP_PATTERNS[2])


class UniformSweep2w(Workload):
    """``hetbai sweep --workers 2`` then ``hetbai report``, in-process via dispatch."""

    name = "uniform-sweep-2w"
    trace_passes = (("2w", 2, False), ("1w", 1, False), ("traced", 1, True))
    workers = 2
    lam = 0.5
    delta = 0.1
    reps = 128
    calls = 1

    def setup(self, seed: int) -> None:
        inst = cyclic_pairs_instance()
        write_if_changed(self.path("instance.json"), instance.to_json(inst) + "\n")
        self.reps_run = 4 if self.smoke else self.reps
        config = {
            "instance": "instance.json",
            "deltas": [self.delta],
            "policy": "uniform",
            "lambda": self.lam,
            "repetitions": self.reps_run,
            "seed": seed * 1_000_000,
        }
        write_if_changed(self.path("sweep.json"), json.dumps(config))
        self.num_clients = inst.num_clients
        self.truth = best_arms(inst.arm_sets, inst.means)

    def ops(self, k: int) -> int:
        return self.reps_run

    def run(self, k: int, workers: int):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            codes = (
                cli.dispatch(
                    ["sweep", "--config", self.path("sweep.json"), "--out",
                     self.path("records.csv"), "--workers", str(workers)]
                ),
                cli.dispatch(
                    ["report", "--records", self.path("records.csv"), "--out",
                     self.path("summary.csv")]
                ),
            )
        if codes != (0, 0):
            raise RuntimeError(f"sweep/report exit codes {codes}: {sink.getvalue()[-500:]}")
        return None

    def output(self, k: int, raw) -> Output:
        with open(self.path("records.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != simulator.RECORD_FIELDS:
            raise ValueError(f"unexpected records header {rows[0]}")
        records = tuple(
            simulator.RunRecord(
                policy=r[0], lam=float(r[1]), delta=float(r[2]), seed=int(r[3]),
                tau=int(r[4]), rounds=int(r[5]), correct=r[6] == "true",
                recommendation=tuple(int(a) - 1 for a in r[7].split(";")),
            )
            for r in rows[1:]
        )
        with open(self.path("summary.csv"), newline="", encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        digest = sha256_files(self.path("records.csv"))
        return Output(
            value=(digest, tuple(tuple(sorted(row.items())) for row in summary)),
            ops=len(records),
            samples=sum(r.tau for r in records) * self.num_clients,
            records=records,
        )

    def check(self, outputs: list[Output]) -> dict[int, tuple[int, str]]:
        out = outputs[0]
        records = out.records
        bad = check_records(records, self.truth, self.lam)
        problems = []  # these fail the whole sweep, not single records
        if len(records) != self.reps_run:
            problems.append(f"{len(records)} records for {self.reps_run} episodes")
        if len(out.value[1]) != 1:
            problems.append(f"expected one summary row, got {len(out.value[1])}")
        elif records:
            summary = dict(out.value[1][0])
            n = len(records)
            want = {
                "n": n,
                "mean_tau": sum(r.tau for r in records) / n,
                "mean_rounds": sum(r.rounds for r in records) / n,
                "error_rate": sum(not r.correct for r in records) / n,
            }
            for key, value in want.items():
                if not math.isclose(float(summary[key]), value, rel_tol=1e-12, abs_tol=1e-12):
                    problems.append(f"summary {key} {summary[key]} != {value!r} from records")
        if problems:
            return {0: (self.reps_run, "; ".join(problems[:3]))}
        if bad:
            return {0: (len(bad), "; ".join(list(bad.values())[:3]))}
        return {}

    def digest(self, outputs: list[Output]) -> str:
        return outputs[0].value[0]


class RatingsWide(Workload):
    """``hetbai ingest`` then ``hetbai solve`` on a wide synthetic ratings table."""

    name = "ratings-wide"
    calls = 1
    min_samples = 10  # the ingest default

    def setup(self, seed: int) -> None:
        num_arms, num_clients = (20, 40) if self.smoke else (200, 1000)
        rng = np.random.default_rng(seed)
        quality = rng.normal(0.0, 1.0, num_arms)
        pairs: dict[tuple[str, str], list[float]] = {}
        for m in range(num_clients):
            arms = rng.choice(num_arms, size=int(rng.integers(3, 9)), replace=False)
            bias = rng.normal(0.0, 0.5)
            for j, i in enumerate(arms):
                # The first arm drawn is the client's one sparse pair, which ingest drops.
                count = int(rng.integers(1, 6)) if j == 0 else int(rng.integers(10, 15))
                values = quality[i] + bias + rng.normal(0.0, 1.0, count)
                pairs[(f"c{m:04d}", f"a{i:03d}")] = [float(x) for x in values]
        rows = [(c, a, repr(x)) for (c, a), values in pairs.items() for x in values]
        order = rng.permutation(len(rows))
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["client", "arm", "rating"])
        writer.writerows(rows[i] for i in order)
        write_if_changed(self.path("ratings.csv"), text.getvalue())
        self.pairs = pairs
        self.rows = len(rows)

    def run(self, k: int, workers: int):
        sink = io.StringIO()
        solve_out = io.StringIO()
        clock = time.perf_counter
        with redirect_stderr(sink):
            t0 = clock()
            with redirect_stdout(sink):
                code_ingest = cli.dispatch(
                    ["ingest", "--ratings", self.path("ratings.csv"), "--out",
                     self.path("instance.json")]
                )
            t1 = clock()
            with redirect_stdout(solve_out):
                code_solve = cli.dispatch(["solve", self.path("instance.json")])
            t2 = clock()
        if (code_ingest, code_solve) != (0, 0):
            raise RuntimeError(
                f"ingest/solve exit codes {(code_ingest, code_solve)}: {sink.getvalue()[-500:]}"
            )
        return solve_out.getvalue(), {"ingest_s": t1 - t0, "solve_s": t2 - t1}

    def output(self, k: int, raw) -> Output:
        solve_text, parts = raw
        digest = sha256_files(
            self.path("instance.json"), self.path("instance.labels.json"),
            extra=solve_text.encode(),
        )
        return Output(value=(digest, solve_text), ops=1, samples=self.rows, parts=parts)

    def check(self, outputs: list[Output]) -> dict[int, tuple[int, str]]:
        problems = self._problems(outputs[0].value[1])
        return {0: (1, "; ".join(problems[:3]))} if problems else {}

    def _problems(self, solve_text: str) -> list[str]:
        with open(self.path("instance.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(self.path("instance.labels.json"), encoding="utf-8") as fh:
            labels = json.load(fh)
        solved = json.loads(solve_text)
        problems = []

        # Ingest: surviving pairs, labels and normalized means, recomputed here.
        kept = {key: v for key, v in self.pairs.items() if len(v) >= self.min_samples}
        flat = [x for v in kept.values() for x in v]
        rmin, rmax = min(flat), max(flat)
        scale = 100.0 / (rmax - rmin)
        client_labels = sorted({c for c, _ in kept})
        arm_labels = sorted({a for _, a in kept})
        if labels["clients"] != client_labels or labels["arms"] != arm_labels:
            problems.append("client/arm labels differ from the surviving pairs")
            return problems
        K, M = doc["K"], doc["M"]
        arm_sets = [tuple(i - 1 for i in s) for s in doc["arm_sets"]]
        mu = {(r["client"] - 1, r["arm"] - 1): r["mu"] for r in doc["means"]}
        client_index = {c: m for m, c in enumerate(client_labels)}
        arm_index = {a: i for i, a in enumerate(arm_labels)}
        for (c, a), values in kept.items():
            want = sum((x - rmin) * scale for x in values) / len(values)
            got = mu.get((client_index[c], arm_index[a]))
            if got is None or abs(got - want) > 1e-9:
                problems.append(f"mean of pair {c}/{a} is {got}, expected {want}")
                break
        want_sets = [[] for _ in client_labels]
        for c, a in kept:
            want_sets[client_index[c]].append(arm_index[a])
        if (
            len(mu) != len(kept)
            or (K, M) != (len(arm_labels), len(client_labels))
            or arm_sets != [tuple(sorted(s)) for s in want_sets]
        ):
            problems.append("instance size or arm sets differ from the surviving pairs")
            return problems
        if len(labels["dropped"]) != len(self.pairs) - len(kept):
            problems.append(f"{len(labels['dropped'])} drops for {len(self.pairs) - len(kept)} sparse pairs")

        # Admissibility, from the instance as written.
        means = [np.array([mu[(m, i)] for i in arms]) for m, arms in enumerate(arm_sets)]
        sums, mult = np.zeros(K), np.zeros(K)
        for arms, mus in zip(arm_sets, means):
            sums[list(arms)] += mus
            mult[list(arms)] += 1
        glob = sums / mult
        gaps = np.full(K, np.inf)
        best = []
        for arms in arm_sets:
            g = glob[list(arms)]
            order = np.argsort(g)
            best.append(arms[order[-1]])
            for k, i in enumerate(arms):
                other = g[order[-1]] if order[-1] != k else g[order[-2]]
                gaps[i] = min(gaps[i], abs(g[k] - other))
        if not np.all(gaps > 0.0):
            problems.append("ingested instance is not admissible")
            return problems

        # Solve: allocation rows, rates, bracket and the eigenvector equation.
        G = np.array(solved["G"], dtype=float)
        omega = solved["omega"]
        if G.shape != (K,) or len(omega) != M:
            problems.append("solve output does not match the instance size")
            return problems
        recip = np.zeros(K)
        for m, (arms, row) in enumerate(zip(arm_sets, omega)):
            row = np.array(row, dtype=float)
            if len(row) != len(arms) or np.any(row < 0.0) or abs(row.sum() - 1.0) > 1e-9:
                problems.append(f"omega row {m + 1} is not a distribution over its arm set")
                return problems
            if np.max(np.abs(row - G[list(arms)] / G[list(arms)].sum())) > 1e-9:
                problems.append(f"omega row {m + 1} is not G normalized on its arm set")
            recip[list(arms)] += 1.0 / row
        T = recip / mult**2
        g_tilde = float(np.min(gaps**2 / 2.0 / T))
        g_exact = min(
            (glob[b] - glob[i]) ** 2 / 2.0 / (T[b] + T[i])
            for b, arms in zip(best, arm_sets) for i in arms if i != b
        )
        g_star = solved["g_tilde_star"]
        lo, hi = solved["c_star_interval"]
        if not math.isclose(g_star, g_tilde, rel_tol=1e-9):
            problems.append(f"g_tilde_star {g_star} != {g_tilde} recomputed from omega")
        if not (g_tilde / 2.0 * (1 - 1e-9) <= g_exact <= g_tilde * (1 + 1e-9)):
            problems.append(f"g_exact {g_exact} outside [g_tilde/2, g_tilde] = [{g_tilde / 2}, {g_tilde}]")
        if not (0.0 < lo <= hi) or not math.isclose(lo * g_star, 1.0, rel_tol=1e-9):
            problems.append(f"c* bracket [{lo}, {hi}] is not [1/g*, 2/g*]")
        co = np.zeros((K, K))
        for arms in arm_sets:
            co[np.ix_(arms, arms)] += 1.0
        H = co / (gaps**2 * mult**2)[:, None]
        for cls in _classes(K, arm_sets):
            u = G[cls]
            Hu = H[np.ix_(cls, cls)] @ u
            lam = float(u @ Hu)
            residual = float(np.max(np.abs(Hu - lam * u))) / (lam * float(np.max(u)))
            if np.any(u <= 0.0) or abs(float(np.linalg.norm(u)) - 1.0) > 1e-9 or residual > 1e-8:
                problems.append(f"G is not the positive unit eigenvector of H on a class (residual {residual:.2e})")
        return problems

    def digest(self, outputs: list[Output]) -> str:
        return outputs[0].value[0]


def _classes(num_arms: int, arm_sets) -> list[list[int]]:
    """Connected components of arms under co-residence in an arm set."""
    parent = list(range(num_arms))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for arms in arm_sets:
        for other in arms[1:]:
            parent[find(other)] = find(arms[0])
    groups: dict[int, list[int]] = {}
    for i in range(num_arms):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


WORKLOADS = {w.name: w for w in (Chain3Slope, Rho50Pull, UniformSweep2w, RatingsWide)}
