"""hetbai benchmark: one workload, end-to-end metrics or (``--trace 1``) per-layer ones.

Run from the repository root:

    python3 bench/run.py --workload chain3-slope --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

The library is imported from ``src/`` of the current directory.  Human-readable
lines (a header, the metric table, the records digest) come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run writes goes
under ``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in forked pool workers,
# so two sweep workers do not run four threads on two cores.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
# The sweep CLI would let this override the workload's seeds.
_HETBAI_SEED_WAS = os.environ.pop("HETBAI_SEED", None)

import argparse
import bisect
import hashlib
import json
import platform
import re
import resource
import signal
import statistics
import sys
import time

import numpy as np

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Setup is repeated at least MIN_SETUPS times and for SETUP_BUDGET_S; the median is reported.
MIN_SETUPS, SETUP_BUDGET_S = 5, 0.5
# CPU time of one reference_kernel() at the reference speed, which only sets
# the scale (about its time on an idle Intel Xeon Sapphire Rapids 2-vCPU KVM
# guest with Python 3.11 and numpy 2.4); how often the timer samples it; and
# how far before and after a timed interval its samples count towards that
# interval's speed.
REF_KERNEL_S, SAMPLE_PERIOD_S, WINDOW_S = 0.0022, 0.1, 0.25


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hetbai", "__init__.py")):
        sys.exit(f"error: no src/hetbai under {ROOT}; run from the repository root")
    sys.path.insert(0, src)
    import hetbai

    if not os.path.abspath(hetbai.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported hetbai from {hetbai.__file__}, not from {src}")
    return hetbai


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """SHA-256 over src/hetbai/*.py, which names the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hetbai")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def header(workload, seed, seconds, trace) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "HETBAI_SEED": "cleared" if _HETBAI_SEED_WAS is not None else "unset",
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def reference_kernel() -> float:
    """Fixed work in the library's idiom: small numpy ops in a Python loop, scalar
    Gaussian draws, a small mat-vec, and CSV-like string parsing into dicts."""
    rng = np.random.default_rng(20221014)
    counts = np.zeros(6)
    weights = np.full(6, 1.0 / 6.0)
    sums: dict[str, float] = {}
    for t in range(1, 201):
        scores = counts - t * weights
        k = int(np.flatnonzero(scores == scores.min())[0])
        counts[k] += 1
        key = f"c{t % 17:03d}"
        sums[key] = sums.get(key, 0.0) + float(rng.normal(0.0, 1.0))
        if t % 20 == 0:
            v = (np.outer(counts, counts) + np.eye(6)) @ weights
            weights = v / v.sum()
    table: dict[tuple[str, str], list[float]] = {}
    for i in range(150):
        client, arm, x = f"c{i % 37:04d},a{i % 11:03d},{i * 0.37:.17g}".split(",")
        table.setdefault((client, arm), []).append(float(x))
    return sum(sums.values()) + sum(sum(v) / len(v) for _, v in sorted(table.items()))


class Speed:
    """The machine's speed, sampled on a timer while the benchmark runs.

    The host is shared: identical work takes 1x to 2x as long from one minute
    to the next.  Every ``SAMPLE_PERIOD_S`` a SIGALRM handler runs
    ``reference_kernel`` in the main thread, between two bytecodes of
    whatever is running there, and records the CPU time it took: the same
    core and caches as the timed work, and no wait for other threads.
    ``scale`` reports a timed interval at the reference speed, using the
    mean of the samples taken during it and up to ``WINDOW_S`` around it.
    ``spent`` is the wall time taken by samples so far, which intervals timed
    in this thread subtract.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall clock at end, CPU seconds)
        self.spent = 0.0
        self._busy = False
        reference_kernel()  # the first run pays for warming caches; it is not a sample
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a slow sample must not nest under the next alarm
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_kernel()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.samples.append((w1, c1 - c0))
        self.spent += w1 - w0
        self._busy = False

    def close(self) -> None:
        """Stop sampling; ``scale`` may be used only after this."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._ends = [t for t, _ in self.samples]

    def scale(self, t0: float, t1: float, busy: float) -> float:
        """``busy`` seconds of work done during ``[t0, t1]``, at the reference speed."""
        lo = bisect.bisect_left(self._ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._ends, t1 + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest one on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.samples))
        local = statistics.fmean(cpu for _, cpu in self.samples[lo:hi])
        return busy * REF_KERNEL_S / local

    def factor(self) -> float:
        """Mean speed of the run relative to the reference (1 = reference speed)."""
        return REF_KERNEL_S / statistics.fmean(cpu for _, cpu in self.samples)


class Ledger:
    """Outputs of each distinct call, when each run of it happened, and failure counts."""

    def __init__(self, workload, speed: Speed) -> None:
        self.wl = workload
        self.speed = speed
        n = workload.calls
        self.first = [None] * n
        self.times: list[list[tuple[float, float, float]]] = [[] for _ in range(n)]
        self.runs = [0] * n
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.parts: dict[str, list[tuple[tuple, float]]] = {}

    def call(self, k: int, workers: int) -> tuple[float, float, float] | None:
        """Run call ``k`` once; return (start, end, busy seconds), or None if it failed."""
        wl = self.wl
        self.attempted += wl.ops(k)
        clock = time.perf_counter
        try:
            spent = self.speed.spent
            t0 = clock()
            raw = wl.run(k, workers)
            t1 = clock()
            # Samples stall the call only when it runs in this thread, not in pool workers.
            busy = t1 - t0 - (self.speed.spent - spent if workers == 1 else 0.0)
            timed = (t0, t1, busy)
            out = wl.output(k, raw)
        except Exception as exc:  # counted as failed operations, the run goes on
            self.failed += wl.ops(k)
            self.problems.append(f"call {k}: {type(exc).__name__}: {exc}")
            return None
        if self.first[k] is None:
            self.first[k] = out
        elif out.value != self.first[k].value:
            self.failed += out.ops
            self.problems.append(f"call {k}: output differs from its first run")
            return None
        self.runs[k] += 1
        self.times[k].append(timed)
        for key, value in out.parts.items():
            self.parts.setdefault(key, []).append((timed, value))
        return timed

    def finish(self) -> list:
        """Check the outputs; failing calls count once per run made."""
        done = [o for o in self.first if o is not None]
        if len(done) == len(self.first):
            for k, (ops, reason) in self.wl.check(done).items():
                self.failed += ops * self.runs[k]
                self.problems.append(f"check: {reason}")
        return done

    def end_to_end(self, speed: Speed) -> dict:
        """Rates and latencies from each call's median time, at the reference speed."""
        ok = [k for k, o in enumerate(self.first) if o is not None]
        if not ok:
            raise RuntimeError("every call failed: " + "; ".join(self.problems[:3]))
        per_call = [statistics.median(speed.scale(*timed) for timed in self.times[k]) for k in ok]
        wall = sum(per_call)
        return {
            "ops_per_s": sum(self.first[k].ops for k in ok) / wall,
            "samples_per_s": sum(self.first[k].samples for k in ok) / wall,
            "call_p50_ms": 1000.0 * statistics.median(per_call),
            "call_p90_ms": 1000.0 * quantile(per_call, 0.9),
        }

    def parts_scaled(self, speed: Speed) -> dict[str, float]:
        """Median of each sub-call timing, at the reference speed of its call."""
        return {
            key: statistics.median(value * speed.scale(*timed) / timed[2] for timed, value in entries)
            for key, entries in self.parts.items()
        }


def run_untraced(wl, seconds: float, speed: Speed) -> Ledger:
    """Cycle through the calls for ``seconds`` (at least one full pass).

    A further call is made only if, at the mean call time so far, it is
    expected to end within ``seconds``.
    """
    ledger = Ledger(wl, speed)
    start = time.perf_counter()
    i = 0
    while i < wl.calls or (time.perf_counter() - start) * (i + 1) / i <= seconds:
        ledger.call(i % wl.calls, wl.workers)
        i += 1
    return ledger


def layer_metrics(tr, wall: float, wl, records) -> dict:
    """Per-layer metrics of one traced pass over every call; times are shares of its wall time."""
    instants = tr.calls("policy.should_stop")
    stats_in_episodes = tr.calls_under({"instance.arm_stats", "instance.validate"}, "simulator.run_episode")
    n = len(records)
    m = {
        "simulator.episodes": tr.calls("simulator.run_episode"),
        "simulator.pulls": sum(r.tau for r in records) * getattr(wl, "num_clients", 0),
        "simulator.instants": instants,
        "simulator.mean_tau": sum(r.tau for r in records) / n if n else 0.0,
        "simulator.mean_rounds": sum(r.rounds for r in records) / n if n else 0.0,
        "instance.stats_per_instant": stats_in_episodes / instants if instants else 0.0,
        "ingest.rows": getattr(wl, "rows", 0) * tr.calls("ingest.parse_ratings"),
    }
    for name in (
        "policy.select_arm", "policy.observe", "policy.uniform_select", "policy.z_statistic",
        "policy.f_inverse", "policy.server_global_vector", "instance.arm_stats",
        "instance.validate", "instance.partition_arms", "allocation.global_vector",
        "allocation.perron",
    ):
        m[f"{name}.calls"] = tr.calls(name)
    for name in (
        "policy.select_arm", "policy.observe", "policy.uniform_select", "simulator.sweep",
        "cli.load_sweep_config", "policy.z_statistic", "policy.should_stop", "policy.f_inverse",
        "policy.server_global_vector", "policy.recommend", "instance.arm_stats",
        "instance.validate", "allocation.global_vector", "allocation.h_matrix",
        "allocation.perron", "ingest.parse_ratings", "ingest.build_instance",
        "instance.partition_arms", "instance.confusion_pairs", "allocation.c_star_interval",
        "allocation.g_tilde",
    ):
        m[f"{name}.frac"] = tr.total_s(name) / wall  # inclusive of wrapped callees
    m["simulator.run_episode.self_frac"] = tr.self_s("simulator.run_episode") / wall
    m["cli.dispatch.self_frac"] = tr.self_s("cli.dispatch") / wall
    m["simulator.records_io.frac"] = tr.self_s(
        "simulator.export_records", "simulator.write_records", "simulator.read_records",
        "simulator.export_summary",
    ) / wall
    m["instance.json_io.frac"] = tr.self_s(
        "instance.to_json", "instance.from_json", "instance.save_instance", "instance.load_instance"
    ) / wall
    m["trace.wall_s"] = wall
    m["trace.unattributed_frac"] = 1.0 - tr.attributed_s() / wall
    return m


def run_traced(wl, seconds: float, speed: Speed):
    """Rounds of one pass of each kind in ``wl.trace_passes``, until ``seconds`` are used.

    Returns the ledger, the layer metrics and spans of the fastest traced
    pass, and the tracing overhead and 2-worker speed-up.  Those two are
    medians over rounds of a ratio of two passes run one after the other, so
    the machine's speed cancels out.
    """
    from tracer import Tracer

    tracer = Tracer()
    ledger = Ledger(wl, speed)
    rounds: list[dict[str, float]] = []  # wall time of each pass kind that completed
    best = None  # (wall, layer metrics, spans)
    start = time.perf_counter()
    # Another round only if it is expected to end within ``seconds``.
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        walls: dict[str, float] = {}
        for label, workers, traced in wl.trace_passes:
            intervals = []
            if traced:
                tracer.reset()
                tracer.install()
            try:
                with tracer.span("bench.pass"):
                    for k in range(wl.calls):
                        with tracer.span("bench.call"):
                            intervals.append(ledger.call(k, workers))
            finally:
                tracer.uninstall()
            if None in intervals:  # a call in this pass failed
                continue
            walls[label] = sum(busy for _, _, busy in intervals)
            wall = sum(t1 - t0 for t0, t1, _ in intervals)  # what the wrapped calls' times add up to
            if traced and (best is None or wall < best[0]):
                records = [r for o in ledger.first if o is not None for r in o.records]
                best = (wall, layer_metrics(tracer, wall, wl, records), list(tracer.spans))
        rounds.append(walls)

    def ratio(top: str, bottom: str) -> float:
        values = [r[top] / r[bottom] for r in rounds if top in r and bottom in r]
        if not values:
            raise RuntimeError("no round completed without a failed call: " + "; ".join(ledger.problems[:3]))
        return statistics.median(values)

    labels = {label for label, _, _ in wl.trace_passes}
    ratios = {
        "trace.overhead_frac": ratio("traced", "1w" if "1w" in labels else "plain") - 1.0,
        "simulator.sweep.speedup_2w": ratio("1w", "2w") if "2w" in labels else 0.0,
    }
    return ledger, {**best[1], **ratios}, best[2]


def measure(wl, seed: int, seconds: float, trace: int, speed: Speed):
    """Set up repeatedly, then run the untraced or the traced measurement."""
    setups = []
    began = time.perf_counter()
    while len(setups) < MIN_SETUPS or time.perf_counter() - began < SETUP_BUDGET_S:
        spent = speed.spent
        t0 = time.perf_counter()
        wl.setup(seed)
        t1 = time.perf_counter()
        setups.append((t0, t1, t1 - t0 - (speed.spent - spent)))
    if trace:
        return (setups, *run_traced(wl, seconds, speed))
    return setups, run_untraced(wl, seconds, speed), None, None


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    import workloads

    workdir = os.path.join(OUT_DIR, "smoke" if smoke else "", f"{name}-trace{trace}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](workdir, smoke)
    head = header(wl, seed, seconds, trace)

    speed = Speed()
    try:
        setups, ledger, layers, spans = measure(wl, seed, seconds, trace, speed)
    finally:
        speed.close()
    outputs = ledger.finish()
    digest = wl.digest(outputs) if len(outputs) == wl.calls else "incomplete"
    records = [r for o in outputs for r in o.records]
    extras = {
        "records_sha256": digest,
        "failed_frac": ledger.failed / ledger.attempted,
        "speed_factor": speed.factor(),
        "distinct_calls": wl.calls,
        "timed_calls": sum(ledger.runs),
        "mean_tau": statistics.fmean(r.tau for r in records) if records else None,
        "mean_rounds": statistics.fmean(r.rounds for r in records) if records else None,
        **ledger.parts_scaled(speed),
    }
    if trace:
        metrics = layers
    else:
        metrics = {"setup_s": statistics.median(speed.scale(*timed) for timed in setups)}
        metrics.update(ledger.end_to_end(speed))
        metrics["peak_rss_mb"] = peak_rss_mb()
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"header": head, "extras": extras, "problems": ledger.problems, **result}, fh, indent=1)
    if spans is not None:
        t0 = spans[0][3] if spans else 0.0
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start_s", "end_s"],
                 "spans": [[i, p, n, s - t0, e - t0] for i, p, n, s, e in sorted(spans)]},
                fh,
            )
    return {"header": head, "extras": extras, "problems": ledger.problems, "result": result}


def print_report(out: dict, units: dict) -> None:
    for key, value in out["header"].items():
        print(f"# {key}: {value}")
    for key, value in out["extras"].items():
        print(f"# {key}: {value}")
    for problem in out["problems"][:20]:
        print(f"# FAILED {problem}")
    result = out["result"]
    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    metrics = {name: {"value": v, "unit": units[name]} for name, v in result["metrics"].items()}
    print(json.dumps({**result, "metrics": metrics}))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def smoke(spec: dict) -> int:
    """Every workload at a tiny size, traced and untraced; checks names and outputs."""
    ok = True
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            out = run_workload(w["name"], seed=1, seconds=0.0, trace=trace, smoke=True)
            got = set(out["result"]["metrics"])
            bad_names = sorted(n for n in got if not NAME_RE.fullmatch(n))
            fine = got == expected and not bad_names and out["result"]["correct"]
            ok &= fine
            print(f"smoke {w['name']} trace={trace}: {'ok' if fine else 'FAILED'}")
            for n in sorted(expected - got):
                print(f"  missing metric {n}")
            for n in sorted(got - expected):
                print(f"  unexpected metric {n}")
            for n in bad_names:
                print(f"  bad metric name {n}")
            for problem in out["problems"]:
                print(f"  {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    import_library()
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.smoke:
        return smoke(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    print_report(run_workload(args.workload, args.seed, args.seconds, args.trace), units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
