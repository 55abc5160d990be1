"""Build problem instances from (client, arm, rating) tables.

The pipeline mirrors a ratings-dataset preprocessing flow: drop sparsely
rated (client, arm) pairs, then clients left with fewer than two arms and
arms left with no client, min-max normalize the surviving ratings onto a
common scale, and use each surviving pair's average normalized rating as its
ground-truth Gaussian mean.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .instance import ProblemInstance, validate

__all__ = [
    "RatingsRow",
    "RatingsTable",
    "IngestResult",
    "parse_ratings",
    "build_instance",
]

_HEADER = ["client", "arm", "rating"]


@dataclass(frozen=True)
class RatingsRow:
    client: str
    arm: str
    rating: float


@dataclass(frozen=True)
class RatingsTable:
    """Parsed rows plus (line number, reason) entries for rejected lines."""

    rows: tuple[RatingsRow, ...]
    skipped: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class IngestResult:
    instance: ProblemInstance
    client_labels: tuple[str, ...]
    arm_labels: tuple[str, ...]
    dropped: tuple[str, ...]


def parse_ratings(path: str) -> RatingsTable:
    """Read a ratings CSV with header ``client,arm,rating``.

    Malformed rows (wrong arity, empty labels, non-numeric or non-finite
    ratings) are collected with their line numbers instead of aborting the
    parse.  An unreadable file or a table with no valid rows is an error.
    """
    rows: list[RatingsRow] = []
    skipped: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _HEADER:
            raise ValueError(f"expected header {','.join(_HEADER)!r}, got {header}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                skipped.append((line, f"expected 3 fields, got {len(row)}"))
                continue
            client, arm, raw = row[0].strip(), row[1].strip(), row[2].strip()
            if not client or not arm:
                skipped.append((line, "empty client or arm label"))
                continue
            try:
                rating = float(raw)
            except ValueError:
                skipped.append((line, f"non-numeric rating {raw!r}"))
                continue
            if not math.isfinite(rating):
                skipped.append((line, f"non-finite rating {raw!r}"))
                continue
            rows.append(RatingsRow(client=client, arm=arm, rating=rating))
    if not rows:
        raise ValueError(f"no valid rating rows in {path}")
    return RatingsTable(rows=tuple(rows), skipped=tuple(skipped))


def build_instance(
    table: RatingsTable,
    min_samples: int = 10,
    normalize_range: tuple[float, float] = (0.0, 100.0),
) -> IngestResult:
    """Turn a ratings table into an admissible problem instance.

    Pairs with fewer than ``min_samples`` ratings are dropped first, then
    clients left with fewer than two arms and arms left with no client;
    finally the surviving ratings are min-max normalized onto
    ``normalize_range`` (one global affine map, so no per-pair argmax can
    change) and averaged per pair.  Labels are assigned indices in sorted order.
    """
    if min_samples < 1:
        raise ValueError("min_samples must be at least 1")
    lo, hi = normalize_range
    if not (hi > lo):
        raise ValueError("normalize_range must be increasing")

    samples: dict[tuple[str, str], list[float]] = {}
    for row in table.rows:
        samples.setdefault((row.client, row.arm), []).append(row.rating)

    dropped: list[str] = []
    surviving = {}
    for key in sorted(samples):
        values = samples[key]
        if len(values) < min_samples:
            dropped.append(
                f"pair {key[0]}/{key[1]}: {len(values)} samples (fewer than {min_samples})"
            )
        else:
            surviving[key] = values

    # A client needs at least two arms.  Dropping a client removes only its
    # own pairs, so no other client's arm count changes and one pass is final;
    # an arm with no owning client left disappears from the label set.
    arms_of: dict[str, list[str]] = {}
    for c, a in surviving:
        arms_of.setdefault(c, []).append(a)
    arms_before = {a for _, a in surviving}
    for c in sorted(arms_of):
        if len(arms_of[c]) < 2:
            dropped.append(f"client {c}: fewer than 2 arms after filtering")
            for a in arms_of[c]:
                del surviving[(c, a)]
    for a in sorted(arms_before - {a for _, a in surviving}):
        dropped.append(f"arm {a}: no owning client after filtering")
    if not surviving:
        raise ValueError("no (client, arm) pairs survive filtering; " + "; ".join(dropped))

    client_labels = tuple(sorted({c for c, _ in surviving}))
    arm_labels = tuple(sorted({a for _, a in surviving}))

    flat = [x for values in surviving.values() for x in values]
    rmin, rmax = min(flat), max(flat)
    if rmax == rmin:
        raise ValueError("all surviving ratings are identical; cannot normalize")
    scale = (hi - lo) / (rmax - rmin)

    client_index = {c: m for m, c in enumerate(client_labels)}
    arm_index = {a: i for i, a in enumerate(arm_labels)}
    arm_sets: list[list[int]] = [[] for _ in client_labels]
    means: dict[tuple[int, int], float] = {}
    for (c, a), values in surviving.items():
        normalized = [lo + (x - rmin) * scale for x in values]
        means[(client_index[c], arm_index[a])] = sum(normalized) / len(normalized)
        arm_sets[client_index[c]].append(arm_index[a])

    instance = ProblemInstance.from_means(arm_sets, means, num_arms=len(arm_labels))
    report = validate(instance)
    if not report.admissible:
        raise ValueError("ingested instance is not admissible: " + "; ".join(report.violations))
    return IngestResult(
        instance=instance,
        client_labels=client_labels,
        arm_labels=arm_labels,
        dropped=tuple(dropped),
    )
