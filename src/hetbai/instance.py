"""Problem instances: clients with partial access to a shared pool of arms.

An instance fixes ``K`` arms, ``M`` clients, each client's accessible arm
subset, and one Gaussian mean per (client, arm) pair (unit variance
throughout).  The aggregate mean of an arm is the average of its per-client
means over the owning clients; a client's best arm is the argmax of that
aggregate over its own subset.  An instance is *admissible* when every
client's best arm is strictly unique.

Indices are 0-based everywhere in code.  The JSON interchange format (and
human-facing messages) use 1-based indices; the mapping is applied only at
the serialization boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ProblemInstance",
    "ValidationReport",
    "ArmStats",
    "ArmPartition",
    "ConfusionPairs",
    "SlotIndex",
    "validate",
    "arm_stats",
    "slot_index",
    "slot_stats",
    "confusion_pairs",
    "partition_arms",
    "gen_overlap_instance",
    "gen_hardness_instance",
    "OVERLAP_PATTERNS",
    "to_json",
    "from_json",
    "save_instance",
    "load_instance",
]


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem description.

    ``arm_sets[m]`` is the sorted tuple of arms accessible to client ``m``;
    ``means[m][k]`` is the Gaussian mean of arm ``arm_sets[m][k]`` at that
    client.  Rows of ``means`` are aligned with ``arm_sets``, which enforces
    exactly one mean per (client, accessible arm) pair.
    """

    num_arms: int
    num_clients: int
    arm_sets: tuple[tuple[int, ...], ...]
    means: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.arm_sets) != self.num_clients:
            raise ValueError("arm_sets length does not match num_clients")
        if len(self.means) != self.num_clients:
            raise ValueError("means length does not match num_clients")
        for m, (arms, mus) in enumerate(zip(self.arm_sets, self.means)):
            if len(arms) != len(mus):
                raise ValueError(f"client {m + 1}: means not aligned with arm set")
            if list(arms) != sorted(set(arms)):
                raise ValueError(f"client {m + 1}: arm set must be sorted and duplicate-free")

    @classmethod
    def from_means(
        cls,
        arm_sets: Sequence[Iterable[int]],
        means: Mapping[tuple[int, int], float],
        num_arms: int | None = None,
    ) -> "ProblemInstance":
        """Build an instance from arm sets and a (client, arm) -> mean map."""
        sets = tuple(tuple(sorted(set(int(a) for a in s))) for s in arm_sets)
        if num_arms is None:
            num_arms = 1 + max((a for s in sets for a in s), default=-1)
        rows = []
        for m, s in enumerate(sets):
            try:
                rows.append(tuple(float(means[(m, i)]) for i in s))
            except KeyError as exc:
                raise ValueError(f"missing mean for client {m + 1}, arm {exc.args[0][1] + 1}") from None
        extra = set(means) - {(m, i) for m, s in enumerate(sets) for i in s}
        if extra:
            m, i = sorted(extra)[0]
            raise ValueError(f"mean given for inaccessible pair: client {m + 1}, arm {i + 1}")
        return cls(num_arms=num_arms, num_clients=len(sets), arm_sets=sets, means=tuple(rows))

    def mean(self, client: int, arm: int) -> float:
        """Mean of ``arm`` at ``client``; raises if the client lacks the arm."""
        try:
            k = self.arm_sets[client].index(arm)
        except ValueError:
            raise ValueError(f"arm {arm + 1} not accessible to client {client + 1}") from None
        return self.means[client][k]

    def means_map(self) -> dict[tuple[int, int], float]:
        return {
            (m, i): mu
            for m, (arms, mus) in enumerate(zip(self.arm_sets, self.means))
            for i, mu in zip(arms, mus)
        }

    def with_means(self, new_means: Mapping[tuple[int, int], float]) -> "ProblemInstance":
        """Copy of this instance with some (client, arm) means replaced."""
        merged = self.means_map()
        for key, mu in new_means.items():
            if key not in merged:
                m, i = key
                raise ValueError(f"arm {i + 1} not accessible to client {m + 1}")
            merged[key] = float(mu)
        return ProblemInstance.from_means(self.arm_sets, merged, num_arms=self.num_arms)

    @property
    def total_arm_slots(self) -> int:
        """Sum of the per-client arm set sizes (the K' of the stopping rule)."""
        return sum(len(s) for s in self.arm_sets)


@dataclass(frozen=True)
class ValidationReport:
    structurally_valid: bool
    admissible: bool
    violations: tuple[str, ...]


@dataclass
class ArmStats:
    """Aggregate statistics derived from an instance.

    ``global_means[i]`` is the ownership-averaged mean of arm ``i``,
    ``multiplicities[i]`` the number of owning clients, ``gaps[i]`` the
    minimal separation of arm ``i`` from the best other arm within any
    owning client's subset, and ``best_arms[m]`` each client's best arm.
    """

    global_means: np.ndarray
    multiplicities: np.ndarray
    gaps: np.ndarray
    best_arms: np.ndarray

    def is_admissible(self) -> bool:
        return bool(np.all(self.gaps > 0.0))


@dataclass(frozen=True)
class ArmPartition:
    """Finest partition of arms such that every arm set fits in one block."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


@dataclass(frozen=True)
class ConfusionPairs:
    """Ordered (best arm, challenger) pairs, one group per client, deduplicated."""

    pairs: tuple[tuple[int, int], ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SlotIndex:
    """Arm-set structure of an instance, flattened into slots.

    A slot is one (client, arm) pair.  Slots are numbered client by client
    in arm-set order, so client ``m`` owns slots ``starts[m]:starts[m + 1]``
    and slot ``starts[m] + k`` holds arm ``arm_sets[m][k]``; flattening the
    instance's ``means`` rows gives the mean of every slot.  The structure
    is fixed for a whole episode, so it is built once and the per-instant
    statistics are array reductions over it.  Arrays are read-only.
    """

    num_arms: int
    num_clients: int
    arm_sets: tuple[tuple[int, ...], ...]
    slot_client: np.ndarray
    slot_arm: np.ndarray
    starts: np.ndarray
    multiplicities: np.ndarray

    @classmethod
    def of(cls, instance: ProblemInstance) -> "SlotIndex":
        """Index of a structurally valid instance (not re-checked here)."""
        sizes = [len(arms) for arms in instance.arm_sets]
        slot_arm = np.fromiter(
            (i for arms in instance.arm_sets for i in arms), dtype=np.int64, count=sum(sizes)
        )
        return cls(
            num_arms=instance.num_arms,
            num_clients=instance.num_clients,
            arm_sets=instance.arm_sets,
            slot_client=_frozen(np.repeat(np.arange(instance.num_clients), sizes)),
            slot_arm=_frozen(slot_arm),
            starts=_frozen(np.concatenate(([0], np.cumsum(sizes)))),
            multiplicities=_frozen(np.bincount(slot_arm, minlength=instance.num_arms)),
        )

    @property
    def num_slots(self) -> int:
        """K', the number of (client, arm) slots."""
        return len(self.slot_arm)

    def flatten(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        """Concatenate per-client rows aligned with the arm sets into slot order."""
        return np.fromiter(
            (x for row in rows for x in row), dtype=float, count=self.num_slots
        )

    @cached_property
    def co_ownership(self) -> np.ndarray:
        """``[i1, i2]``: number of clients owning both arms (diagonal: multiplicity)."""
        owns = np.zeros((self.num_clients, self.num_arms))
        owns[self.slot_client, self.slot_arm] = 1.0
        return _frozen(owns.T @ owns)

    @cached_property
    def partition(self) -> ArmPartition:
        return _partition(self.num_arms, self.arm_sets)

    @cached_property
    def class_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(arms, co-ownership block)`` of every class, in partition order."""
        out = []
        for cls in self.partition.classes:
            idx = _frozen(np.array(cls))
            out.append((idx, _frozen(self.co_ownership[np.ix_(idx, idx)])))
        return tuple(out)


def _structural_violations(instance: ProblemInstance) -> list[str]:
    v: list[str] = []
    if instance.num_arms < 1:
        v.append("instance has no arms")
    if instance.num_clients < 1:
        v.append("instance has no clients")
    covered: set[int] = set()
    for m, (arms, mus) in enumerate(zip(instance.arm_sets, instance.means)):
        if len(arms) < 2:
            v.append(f"client {m + 1}: fewer than 2 accessible arms")
        for i in arms:
            if not (0 <= i < instance.num_arms):
                v.append(f"client {m + 1}: arm index {i + 1} outside 1..{instance.num_arms}")
        for i, mu in zip(arms, mus):
            if not math.isfinite(mu):
                v.append(f"client {m + 1}: non-finite mean for arm {i + 1}")
        covered.update(arms)
    for i in range(instance.num_arms):
        if i not in covered:
            v.append(f"arm {i + 1} not accessible to any client")
    return v


def validate(instance: ProblemInstance) -> ValidationReport:
    """Check structural invariants and admissibility; never raises."""
    violations = _structural_violations(instance)
    structurally_valid = not violations
    admissible = False
    if structurally_valid:
        stats = _compute_stats(instance)
        admissible = stats.is_admissible()
        if not admissible:
            for m in range(instance.num_clients):
                arms = instance.arm_sets[m]
                mus = stats.global_means[list(arms)]
                top = mus.max()
                if int((mus == top).sum()) > 1:
                    violations.append(f"tied best arm at client {m + 1}")
            if not violations:
                # Zero gap without a top tie cannot happen; keep a guard anyway.
                violations.append("zero separation gap at some arm")
    return ValidationReport(
        structurally_valid=structurally_valid,
        admissible=admissible,
        violations=tuple(violations),
    )


def _require_structure(instance: ProblemInstance) -> None:
    violations = _structural_violations(instance)
    if violations:
        raise ValueError("structurally invalid instance: " + "; ".join(violations))


def _compute_stats(instance: ProblemInstance) -> ArmStats:
    index = SlotIndex.of(instance)
    return slot_stats(index, index.flatten(instance.means))


def arm_stats(instance: ProblemInstance) -> ArmStats:
    """Aggregate means, multiplicities, gaps, and best arms.

    Requires a structurally valid instance; admissibility is not required
    (gaps may contain zeros, which callers can inspect).
    """
    _require_structure(instance)
    return _compute_stats(instance)


def slot_index(instance: ProblemInstance) -> SlotIndex:
    """Slot index of a structurally valid instance (raises otherwise)."""
    _require_structure(instance)
    return SlotIndex.of(instance)


def slot_stats(index: SlotIndex, slot_means: np.ndarray) -> ArmStats:
    """Arm statistics of the mean configuration ``slot_means`` (one entry per slot).

    Reductions over the slot arrays: per-arm sums in client order (so the
    means equal a client-by-client accumulation bit for bit), each client's
    top and runner-up aggregate mean, and per-arm minima of the separations.
    """
    global_means = (
        np.bincount(index.slot_arm, weights=slot_means, minlength=index.num_arms)
        / index.multiplicities
    )
    g = global_means[index.slot_arm]
    starts = index.starts[:-1]
    top = np.maximum.reduceat(g, starts)
    # First slot of each client holding its top mean: the argmax, ties to the lowest arm.
    first = np.minimum.reduceat(
        np.where(g == top[index.slot_client], np.arange(index.num_slots), index.num_slots),
        starts,
    )
    rest = g.copy()
    rest[first] = -np.inf
    other = top[index.slot_client]  # best competitor of each slot within its client
    other[first] = np.maximum.reduceat(rest, starts)
    gaps = np.full(index.num_arms, np.inf)
    np.minimum.at(gaps, index.slot_arm, np.abs(g - other))
    return ArmStats(
        global_means=global_means,
        multiplicities=index.multiplicities,
        gaps=gaps,
        best_arms=index.slot_arm[first],
    )


def confusion_pairs(instance: ProblemInstance, stats: ArmStats | None = None) -> ConfusionPairs:
    """All (client best arm, other arm in that client's set) pairs."""
    if stats is None:
        stats = arm_stats(instance)
    if not stats.is_admissible():
        raise ValueError("inadmissible instance: confusion pairs are undefined under ties")
    pairs = {
        (int(stats.best_arms[m]), i)
        for m, arms in enumerate(instance.arm_sets)
        for i in arms
        if i != int(stats.best_arms[m])
    }
    return ConfusionPairs(pairs=tuple(sorted(pairs)))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _partition(num_arms: int, arm_sets: Sequence[Sequence[int]]) -> ArmPartition:
    uf = _UnionFind(num_arms)
    for arms in arm_sets:
        for other in arms[1:]:
            uf.union(arms[0], other)
    groups: dict[int, list[int]] = {}
    for i in range(num_arms):
        groups.setdefault(uf.find(i), []).append(i)
    classes = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    class_of = [0] * num_arms
    for j, cls in enumerate(classes):
        for i in cls:
            class_of[i] = j
    return ArmPartition(classes=classes, class_of=tuple(class_of))


def partition_arms(instance: ProblemInstance) -> ArmPartition:
    """Connected components of arms linked by co-residence in some arm set.

    Classes are reported in ascending order of their smallest member, each
    class sorted ascending.
    """
    _require_structure(instance)
    return _partition(instance.num_arms, instance.arm_sets)


# The four 5-arm / 5-client overlap layouts used by the synthetic benchmark,
# from minimal (cyclic pairs) to full overlap.  0-based arm indices.
OVERLAP_PATTERNS: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
    2: ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)),
    3: ((0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 4)),
    4: ((0, 1, 2, 3, 4),) * 5,
}


def gen_overlap_instance(pattern: int, seed: int) -> ProblemInstance:
    """Synthetic 5-arm, 5-client instance for one of the overlap layouts.

    The mean of arm ``i`` (1-based) at every owning client is drawn uniformly
    from [7 - i, 8 - i], so arm means decrease with the arm index and the
    generic best arm of each client is its smallest-index arm.
    """
    if pattern not in OVERLAP_PATTERNS:
        raise ValueError(f"pattern must be in 1..4, got {pattern}")
    sets = OVERLAP_PATTERNS[pattern]
    rng = np.random.default_rng(seed)
    means: dict[tuple[int, int], float] = {}
    for m, arms in enumerate(sets):
        for i in arms:
            lo = 7.0 - (i + 1)
            means[(m, i)] = float(rng.uniform(lo, lo + 1.0))
    return ProblemInstance.from_means(sets, means, num_arms=5)


def gen_hardness_instance(
    rho: float,
    num_arms: int,
    num_clients: int,
    arm_sets: Sequence[Iterable[int]],
) -> ProblemInstance:
    """Scaled-difficulty family: arm ``i`` (1-based) has mean ``i / sqrt(rho)``.

    Larger ``rho`` shrinks every gap by ``sqrt(rho)``, scaling the instance's
    identification hardness linearly in ``rho``.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    sets = tuple(tuple(sorted(set(int(a) for a in s))) for s in arm_sets)
    if len(sets) != num_clients:
        raise ValueError("arm_sets length does not match num_clients")
    scale = 1.0 / math.sqrt(rho)
    means = {(m, i): (i + 1) * scale for m, s in enumerate(sets) for i in s}
    instance = ProblemInstance.from_means(sets, means, num_arms=num_arms)
    _require_structure(instance)
    return instance


# --- JSON interchange (1-based indices, fixed field set) ---

_TOP_FIELDS = {"K", "M", "arm_sets", "means"}
_MEAN_FIELDS = {"client", "arm", "mu"}


def to_json(instance: ProblemInstance) -> str:
    doc = {
        "K": instance.num_arms,
        "M": instance.num_clients,
        "arm_sets": [[i + 1 for i in s] for s in instance.arm_sets],
        "means": [
            {"client": m + 1, "arm": i + 1, "mu": mu}
            for m, (arms, mus) in enumerate(zip(instance.arm_sets, instance.means))
            for i, mu in zip(arms, mus)
        ],
    }
    return json.dumps(doc, indent=2)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_mean(value: object) -> float:
    """A mean must be a JSON number (not a string, bool, list or null) that fits a float."""
    if not (_is_int(value) or isinstance(value, float)):
        raise ValueError(f"mean record mu must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"mean record mu {value} is too large for a float") from None


def from_json(text: str) -> ProblemInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid instance JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("instance JSON must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise ValueError(f"missing instance fields: {sorted(missing)}")
    K, M = doc["K"], doc["M"]
    if not _is_int(K) or not _is_int(M):
        raise ValueError("K and M must be integers")
    if not isinstance(doc["arm_sets"], list) or len(doc["arm_sets"]) != M:
        raise ValueError("arm_sets must be a list with one entry per client")
    sets = []
    for s in doc["arm_sets"]:
        if not isinstance(s, list) or not all(_is_int(i) for i in s):
            raise ValueError("each arm set must be a list of integers")
        sets.append(tuple(i - 1 for i in s))
    means: dict[tuple[int, int], float] = {}
    if not isinstance(doc["means"], list):
        raise ValueError("means must be a list of records")
    for rec in doc["means"]:
        if not isinstance(rec, dict):
            raise ValueError("each means entry must be an object")
        unknown = set(rec) - _MEAN_FIELDS
        if unknown:
            raise ValueError(f"unknown mean fields: {sorted(unknown)}")
        if set(rec) != _MEAN_FIELDS:
            raise ValueError(f"missing mean fields: {sorted(_MEAN_FIELDS - set(rec))}")
        if not _is_int(rec["client"]) or not _is_int(rec["arm"]):
            raise ValueError("mean record client/arm must be integers")
        key = (rec["client"] - 1, rec["arm"] - 1)
        if key in means:
            raise ValueError(f"duplicate mean for client {rec['client']}, arm {rec['arm']}")
        means[key] = _json_mean(rec["mu"])
    return ProblemInstance.from_means(sets, means, num_arms=K)


def save_instance(instance: ProblemInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(instance))
        fh.write("\n")


def load_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
