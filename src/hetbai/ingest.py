"""Build problem instances from (client, arm, rating) tables.

The pipeline mirrors a ratings-dataset preprocessing flow: drop sparsely
rated (client, arm) pairs, then clients left with fewer than two arms and
arms left with no client, min-max normalize the surviving ratings onto the
fixed range [0, 100], and use each surviving pair's average normalized
rating as its ground-truth Gaussian mean.

A parsed table is its three columns (client, arm, rating) in file order,
with no per-row objects.  Building an instance numbers every (client, arm)
pair once and reduces the columns per pair with ``numpy.bincount``, which
adds a pair's ratings one at a time in file order: each mean is
``((0.0 + x_1) + x_2 + ...) / n``, the same float on every Python version
(the built-in ``sum`` compensates its rounding from 3.12 on).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .instance import ProblemInstance, validate

__all__ = [
    "RatingsTable",
    "IngestResult",
    "parse_ratings",
    "build_instance",
]

_HEADER = ["client", "arm", "rating"]

# Surviving ratings are min-max normalized onto this range.
NORMALIZED_RANGE = (0.0, 100.0)


@dataclass(frozen=True, eq=False)
class RatingsTable:
    """Parsed ratings as columns, plus (line number, reason) entries for rejected lines.

    Row ``k`` of the table is ``(clients[k], arms[k], ratings[k])``, in file
    order; ``ratings`` is a read-only float array.
    """

    clients: tuple[str, ...]
    arms: tuple[str, ...]
    ratings: np.ndarray
    skipped: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        ratings = np.array(self.ratings, dtype=float)
        if not ratings.shape == (len(self.clients),) == (len(self.arms),):
            raise ValueError("client, arm and rating columns differ in length")
        ratings.flags.writeable = False
        object.__setattr__(self, "ratings", ratings)


@dataclass(frozen=True)
class IngestResult:
    instance: ProblemInstance
    client_labels: tuple[str, ...]
    arm_labels: tuple[str, ...]
    dropped: tuple[str, ...]


def parse_ratings(path: str) -> RatingsTable:
    """Read a UTF-8 ratings CSV with header ``client,arm,rating`` (a leading BOM is ignored).

    Malformed rows (wrong arity, empty labels or labels holding a line break,
    non-numeric or non-finite ratings) are collected with the physical line
    each starts on.  An unreadable file, a table with no valid rows, or a
    record the CSV reader rejects is an error; the last (a field longer than
    ``csv.field_size_limit()``, as a stray opening quote makes of the rest
    of the file) is a ``ValueError`` naming the line the record starts on.
    """
    clients: list[str] = []
    arms: list[str] = []
    ratings: list[float] = []
    skipped: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        last = 0  # physical lines read so far
        try:
            header = next(reader, None)
            if header != _HEADER:
                raise ValueError(f"expected header {','.join(_HEADER)!r}, got {header}")
            last = reader.line_num
            for row in reader:  # a record starts on the line after the previous one ends
                line, last = last + 1, reader.line_num
                if len(row) != 3:
                    if row:  # a blank line is no record
                        skipped.append((line, f"expected 3 fields, got {len(row)}"))
                    continue
                client, arm, raw = row[0].strip(), row[1].strip(), row[2].strip()
                if not client or not arm:
                    skipped.append((line, "empty client or arm label"))
                    continue
                if last > line and any(c in client or c in arm for c in "\r\n"):
                    skipped.append((line, "line break in client or arm label"))
                    continue
                try:
                    rating = float(raw)
                except ValueError:
                    skipped.append((line, f"non-numeric rating {raw!r}"))
                    continue
                if not math.isfinite(rating):
                    skipped.append((line, f"non-finite rating {raw!r}"))
                    continue
                clients.append(client)
                arms.append(arm)
                ratings.append(rating)
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"line {last + 1}: {exc}") from None
    if not ratings:
        raise ValueError(f"no valid rating rows in {path}")
    return RatingsTable(
        clients=tuple(clients), arms=tuple(arms), ratings=ratings, skipped=tuple(skipped)
    )


def _codes(labels: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct labels, and each entry's position among them."""
    names = sorted(set(labels))
    position = {name: k for k, name in enumerate(names)}
    return names, np.fromiter(map(position.__getitem__, labels), dtype=np.int64, count=len(labels))


def build_instance(table: RatingsTable, min_samples: int = 10) -> IngestResult:
    """Turn a ratings table into an admissible problem instance.

    Pairs with fewer than ``min_samples`` ratings are dropped first, then
    clients left with fewer than two arms and arms left with no client;
    finally the surviving ratings are min-max normalized onto
    ``NORMALIZED_RANGE``, [0, 100] (one global affine map, so no per-pair
    argmax can change), and averaged per pair, summed in file order.  Labels
    are assigned indices in sorted order.
    """
    if min_samples < 1:
        raise ValueError("min_samples must be at least 1")

    client_names, client_codes = _codes(table.clients)
    arm_names, arm_codes = _codes(table.arms)
    # One id per (client, arm) pair, in sorted (client, arm) label order.
    keys, ids = np.unique(client_codes * len(arm_names) + arm_codes, return_inverse=True)
    pair_client, pair_arm = np.divmod(keys, len(arm_names))
    counts = np.bincount(ids, minlength=len(keys))
    keep = counts >= min_samples
    dropped = [
        f"pair {client_names[c]}/{arm_names[a]}: {n} samples (fewer than {min_samples})"
        for c, a, n in zip(
            pair_client[~keep].tolist(), pair_arm[~keep].tolist(), counts[~keep].tolist()
        )
    ]

    # A client needs at least two arms.  Dropping a client removes only its
    # own pairs, so no other client's arm count changes and one pass is final;
    # an arm with no owning client left disappears from the label set.
    lone = np.bincount(pair_client[keep], minlength=len(client_names)) == 1
    dropped += [
        f"client {client_names[c]}: fewer than 2 arms after filtering"
        for c in np.flatnonzero(lone).tolist()
    ]
    arms_before = np.bincount(pair_arm[keep], minlength=len(arm_names)) > 0
    keep &= ~lone[pair_client]
    slots_per_client = np.bincount(pair_client[keep], minlength=len(client_names))
    client_kept = slots_per_client > 0
    arm_kept = np.bincount(pair_arm[keep], minlength=len(arm_names)) > 0
    dropped += [
        f"arm {arm_names[a]}: no owning client after filtering"
        for a in np.flatnonzero(arms_before & ~arm_kept).tolist()
    ]
    if not keep.any():
        raise ValueError("no (client, arm) pairs survive filtering; " + "; ".join(dropped))

    client_labels = tuple(compress(client_names, client_kept.tolist()))
    arm_labels = tuple(compress(arm_names, arm_kept.tolist()))

    rated = keep[ids]
    x = table.ratings[rated]
    rmin, rmax = float(x.min()), float(x.max())
    if rmax == rmin:
        raise ValueError("all surviving ratings are identical; cannot normalize")
    lo, hi = NORMALIZED_RANGE
    scale = (hi - lo) / (rmax - rmin)
    sums = np.bincount(ids[rated], weights=lo + (x - rmin) * scale, minlength=len(keys))
    means = (sums[keep] / counts[keep]).tolist()

    # Surviving pairs are sorted by client, then arm: each client's slots are
    # one run, its arm indices ascending.
    slot_arms = ((np.cumsum(arm_kept) - 1)[pair_arm[keep]]).tolist()
    bounds = [0, *np.cumsum(slots_per_client[client_kept]).tolist()]
    runs = list(zip(bounds[:-1], bounds[1:]))
    instance = ProblemInstance(
        num_arms=len(arm_labels),
        num_clients=len(client_labels),
        arm_sets=tuple(tuple(slot_arms[a:b]) for a, b in runs),
        means=tuple(tuple(means[a:b]) for a, b in runs),
    )
    report = validate(instance)
    if not report.admissible:
        raise ValueError("ingested instance is not admissible: " + "; ".join(report.violations))
    return IngestResult(
        instance=instance,
        client_labels=client_labels,
        arm_labels=arm_labels,
        dropped=tuple(dropped),
    )
