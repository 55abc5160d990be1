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

The file is read once.  A *plain* table (no quote, no NUL, every line
ending in ``\n`` or every one in ``\r\n``, no line longer than the CSV
field limit) is tokenized by ``str.split``, a chunk of lines at a time, and
a chunk of valid records is converted in bulk; any other table goes through
``csv.reader``.  Both give the same columns, skipped lines and errors: the
CSV reader makes of each line of a plain table one record, its fields the
line's between commas, and a chunk holding a rejected line goes line by
line through the rule the CSV reader's records take.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

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

# clients, arms, ratings, and (line, reason) for each rejected record.
_Columns = tuple[list[str], list[str], list[float], list[tuple[int, str]]]

# Characters split at a time in a plain table (about 4,000 lines of 30): the
# chunk's text and fields are alive at once, so this bounds what the split
# holds besides the text and the columns.
_CHUNK_CHARS = 1 << 17

# The ASCII characters ``str.strip`` removes, less the line breaks no plain line holds.
_ASCII_PADDING = "".join(c for c in map(chr, range(128)) if c.isspace() and c not in "\r\n")


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
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # The error names its byte within the block being decoded: read as a
        # stream, the file fails with the message it gives a line-by-line read.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            columns = _read_records(fh)
    else:
        columns = _split_plain(text) or _read_records(io.StringIO(text, newline=""))
    clients, arms, ratings, skipped = columns
    if not ratings:
        raise ValueError(f"no valid rating rows in {path}")
    return RatingsTable(
        clients=tuple(clients), arms=tuple(arms), ratings=ratings, skipped=tuple(skipped)
    )


def _add_record(columns: _Columns, line: int, row: list[str], multiline: bool = False) -> None:
    """Append a record's (client, arm, rating) to the columns, or why it is rejected."""
    clients, arms, ratings, skipped = columns
    if len(row) != 3:
        if row:  # a blank line is no record
            skipped.append((line, f"expected 3 fields, got {len(row)}"))
        return
    client, arm, raw = row[0].strip(), row[1].strip(), row[2].strip()
    if not client or not arm:
        skipped.append((line, "empty client or arm label"))
        return
    if multiline and any(c in client or c in arm for c in "\r\n"):
        skipped.append((line, "line break in client or arm label"))
        return
    try:
        rating = float(raw)
    except ValueError:
        skipped.append((line, f"non-numeric rating {raw!r}"))
        return
    if not math.isfinite(rating):
        skipped.append((line, f"non-finite rating {raw!r}"))
        return
    clients.append(client)
    arms.append(arm)
    ratings.append(rating)


def _read_records(lines: Iterable[str]) -> _Columns:
    """The columns of a table by the CSV reader, each record numbered by the line it starts on."""
    columns: _Columns = ([], [], [], [])
    reader = csv.reader(lines)
    last = 0  # physical lines read so far
    try:
        header = next(reader, None)
        if header != _HEADER:
            raise ValueError(f"expected header {','.join(_HEADER)!r}, got {header}")
        last = reader.line_num
        for row in reader:  # a record starts on the line after the previous one ends
            line, last = last + 1, reader.line_num
            _add_record(columns, line, row, last > line)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise ValueError(f"line {last + 1}: {exc}") from None
    return columns


def _split_plain(text: str) -> _Columns | None:
    """The columns of a plain table, split a chunk of lines at a time; None for any other.

    A plain table starts with the line ``client,arm,rating``, holds no quote
    and no NUL, ends every line with ``\\n`` or every one with ``\\r\\n``
    (the last may have none), and has no line longer than
    ``csv.field_size_limit()`` or ``_CHUNK_CHARS``.  The CSV reader reads
    each of its lines as one record, the line's fields between commas, and a
    blank line as none; so does this, with the same line numbers.
    """
    if '"' in text or "\0" in text:
        return None
    ending = "\r\n" if "\r" in text else "\n"
    header = ",".join(_HEADER) + ending
    if not text.startswith(header):
        return None
    width = min(_CHUNK_CHARS, csv.field_size_limit())  # no line in a chunk is longer
    columns: _Columns = ([], [], [], [])
    pos, line = len(header), 2  # where the chunk starts, and its first line's number
    while pos < len(text):
        if len(text) - pos <= width:
            end = len(text)
        else:
            end = text.rfind(ending, pos, pos + width + len(ending))
            if end < 0:
                return None
            end += len(ending)
        chunk = text[pos:end] if text.endswith(ending, pos, end) else text[pos:end] + ending
        # Each line ending becomes a field "\0" between two of the line's own:
        # NUL is in no line, and a valid record has exactly three fields.
        marked = chunk.replace(ending, ",\0,")
        if "\r" in marked or "\n" in marked:  # a lone line break: not plain
            return None
        lines = (len(marked) - len(chunk)) // (3 - len(ending))
        if not _add_bulk(columns, marked, lines):
            for number, record in enumerate(chunk.split(ending)[:-1], line):
                _add_record(columns, number, record.split(",") if record else [])
        pos, line = end, line + lines
    return columns


def _add_bulk(columns: _Columns, marked: str, lines: int) -> bool:
    """Append a chunk's records in bulk when every line of it is a valid record.

    ``marked`` is the chunk with each of its ``lines`` line endings replaced
    by ``",\\0,"``: split at commas, it has four fields per line exactly
    when each line has three.  Fields are stripped only when the chunk holds
    a character ``str.strip`` removes.  False, appending nothing, when any
    line is not a valid record.
    """
    fields = marked.split(",")
    fields.pop()  # what follows the last marker
    if len(fields) != 4 * lines or fields[3::4].count("\0") != lines:
        return False
    clients, arms, raws = fields[0::4], fields[1::4], fields[2::4]
    if not marked.isascii() or any(c in marked for c in _ASCII_PADDING):
        clients, arms, raws = (list(map(str.strip, column)) for column in (clients, arms, raws))
    if "" in clients or "" in arms:
        return False
    try:
        ratings = list(map(float, raws))
    except ValueError:
        return False
    # A non-finite rating makes the sum non-finite; so does an overflow, which
    # the line-by-line rule then accepts.
    if not math.isfinite(sum(ratings)):
        return False
    columns[0].extend(clients)
    columns[1].extend(arms)
    columns[2].extend(ratings)
    return True


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
