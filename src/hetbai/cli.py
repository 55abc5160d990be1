"""Command-line front end.

Subcommands: ``validate``, ``solve``, ``run``, ``sweep``, ``ingest``,
``report``.  Exit codes: 0 on success, 1 on usage errors, 2 on domain errors
(invalid files, inadmissible instances, schema violations, and episodes past
the step cap, after ``sweep`` has written the finished records).  The
``HETBAI_SEED`` environment variable overrides the sweep config's base seed;
an explicit ``--workers`` flag overrides the config's worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from functools import lru_cache

from .allocation import c_star_interval, g_tilde, optimal_allocation
from .ingest import build_instance, parse_ratings
from .instance import arm_stats, load_instance, save_instance, validate
from .simulator import (
    POLICIES,
    StepCapExceeded,
    SweepConfig,
    aggregate,
    export_records,
    export_summary,
    input_violations,
    read_records,
    run_episode,
    sweep,
    write_records,
)

__all__ = ["dispatch", "main", "load_sweep_config"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise _UsageError(message)


# Optional config fields -> SweepConfig field.
_OPTIONAL = {
    "lambda": "lam",
    "repetitions": "repetitions",
    "seed": "base_seed",
    "workers": "workers",
    "step_cap": "step_cap",
}
_CONFIG_FIELDS = {"instance", "deltas", "policy", *_OPTIONAL}
_DEFAULTS = {f.name: f.default for f in fields(SweepConfig)}


def load_sweep_config(path: str) -> SweepConfig:
    """Parse and validate a sweep config JSON, listing every violation.

    Required fields: ``instance`` (path, relative to the config file) and
    ``deltas``; the others default to :class:`SweepConfig`'s.  Value types
    and ranges are the rules of :func:`hetbai.simulator.input_violations`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid sweep config JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    problems = [f"unknown field {name!r}" for name in sorted(set(doc) - _CONFIG_FIELDS)]
    for name in ("instance", "deltas"):
        if name not in doc:
            problems.append(f"missing required field {name!r}")
    cfg = {field: doc.get(name, _DEFAULTS[field]) for name, field in _OPTIONAL.items()}
    cfg["policy"] = doc.get("policy", _DEFAULTS["policy"])
    deltas = doc.get("deltas", [])
    if not isinstance(deltas, list):
        problems.append(f"deltas must be a list, got {deltas!r}")
        deltas = []
    if not isinstance(doc.get("instance", ""), str):
        problems.append("instance must be a path string")
    problems += input_violations(
        cfg["policy"],
        cfg["lam"],
        deltas,
        [cfg["base_seed"]],
        cfg["repetitions"],
        cfg["workers"],
        cfg["step_cap"],
    )
    if problems:
        raise ValueError("invalid sweep config: " + "; ".join(problems))
    instance_path = doc["instance"]
    if not os.path.isabs(instance_path):
        instance_path = os.path.join(os.path.dirname(os.path.abspath(path)), instance_path)
    cfg["lam"] = float(cfg["lam"])  # every valid delta is a float already
    return SweepConfig(instance=load_instance(instance_path), deltas=deltas, **cfg)


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate(load_instance(args.instance))
    for violation in report.violations:
        print(violation)
    if report.admissible:
        print("admissible")
        return 0
    print("inadmissible")
    return 2


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = validate(instance)
    if not report.admissible:
        raise ValueError("instance is not admissible: " + "; ".join(report.violations))
    # Every call below shares the instance's one slot index and structural check.
    stats = arm_stats(instance)
    gvec, alloc = optimal_allocation(instance, stats)
    g_star = g_tilde(instance, stats, alloc)
    lower, upper = c_star_interval(instance, stats, g_star)
    print(
        json.dumps(
            {
                "G": gvec.tolist(),
                "omega": [list(row) for row in alloc.weights],
                "g_tilde_star": g_star,
                "c_star_interval": [lower, upper],
            }
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    record = run_episode(
        instance,
        policy=args.policy,
        delta=args.delta,
        lam=args.lam,
        seed=args.seed,
        step_cap=args.step_cap,
    )
    write_records([record], sys.stdout)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_sweep_config(args.config)
    env_seed = os.environ.get("HETBAI_SEED")
    overrides = {}
    if env_seed is not None:
        try:
            overrides["base_seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"HETBAI_SEED must be an integer, got {env_seed!r}") from None
    if args.workers is not None:
        overrides["workers"] = args.workers
    config = replace(config, **overrides)  # SweepConfig checks the overridden fields
    try:
        records = sweep(config)
    except StepCapExceeded as exc:  # write the finished episodes; the error names the others
        export_records(exc.records, args.out)
        raise
    export_records(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    table = parse_ratings(args.ratings)
    for line, reason in table.skipped:
        print(f"skipped line {line}: {reason}", file=sys.stderr)
    result = build_instance(table, min_samples=args.min_samples)
    save_instance(result.instance, args.out)
    labels_path = args.labels_out
    if labels_path is None:
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        labels_path = base + ".labels.json"
    labels = {
        "clients": list(result.client_labels),
        "arms": list(result.arm_labels),
        "dropped": list(result.dropped),
    }
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(labels) + "\n")
    for message in result.dropped:
        print(message)
    print(
        f"wrote instance with {result.instance.num_arms} arms, "
        f"{result.instance.num_clients} clients to {args.out} (labels: {labels_path})"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_records(args.records)
    export_summary(aggregate(records), args.out)
    print(f"wrote summary to {args.out}")
    return 0


@lru_cache(maxsize=1)  # parsing never changes a parser, so every dispatch shares one
def _build_parser() -> _Parser:
    parser = _Parser(prog="hetbai", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="print global vector, allocation, and hardness interval")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("run", help="run a single episode and print its record")
    p.add_argument("--instance", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--policy", choices=POLICIES, default=POLICIES[0])
    p.add_argument("--step-cap", type=int, default=10**8)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a sweep config and write records CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ingest", help="build an instance from a ratings CSV")
    p.add_argument("--ratings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-samples", type=int, default=10)
    p.add_argument("--labels-out", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("report", help="aggregate a records CSV into a summary CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
