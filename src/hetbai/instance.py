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
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ProblemInstance",
    "ValidationReport",
    "ArmStats",
    "ArmPartition",
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

    # The structural check, the validation report and the slot index depend on
    # the fields alone, so each is computed on first use and kept with the
    # instance; pickles and copies carry the fields only.

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(_structural_violations(self))

    @cached_property
    def _report(self) -> "ValidationReport":
        return _validation_report(self)

    @cached_property
    def _slots(self) -> "SlotIndex":
        sizes = list(map(len, self.arm_sets))
        return SlotIndex._of(self.num_arms, sizes, list(chain.from_iterable(self.arm_sets)))

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ValidationReport:
    structurally_valid: bool
    admissible: bool
    violations: tuple[str, ...]


@dataclass
class ArmStats:
    """Aggregate statistics derived from an instance.

    ``global_means[i]`` is the ownership-averaged mean of arm ``i``,
    ``gaps[i]`` the minimal separation of arm ``i`` from the best other arm
    within any owning client's subset, and ``best_arms[m]`` each client's
    best arm; ownership counts are the slot index's.
    :func:`slot_stats` also keeps, flat, ``top_arms``, the best arms numbered
    as in the stack it reduced over (see :meth:`SlotIndex.stacked`), and
    ``separations``, each slot's ``global_means[best] - global_means[own]``
    from its client's best arm; other stats, and those cut by :meth:`rows`,
    have neither.
    """

    global_means: np.ndarray
    gaps: np.ndarray
    best_arms: np.ndarray
    top_arms: np.ndarray | None = field(default=None, compare=False, repr=False)
    separations: np.ndarray | None = field(default=None, compare=False, repr=False)
    _least_gap: float | None = field(default=None, init=False, compare=False, repr=False)

    def is_admissible(self) -> np.bool_ | np.ndarray:
        """Whether every gap is positive; one flag per row of stacked stats."""
        return np.minimum.reduce(self.gaps, axis=-1) > 0.0

    @property
    def least_gap(self) -> float:
        """The least gap over all rows: one reduction, kept for the server's later calls."""
        if self._least_gap is None:
            self._least_gap = float(np.minimum.reduce(self.gaps, axis=None))
        return self._least_gap

    @property
    def all_admissible(self) -> bool:
        """Whether every row is admissible."""
        return self.least_gap > 0.0

    def rows(self, keep: np.ndarray) -> ArmStats:
        """The stacked stats of the rows selected by ``keep`` (a mask or row indices)."""
        return ArmStats(self.global_means[keep], self.gaps[keep], self.best_arms[keep])


@dataclass(frozen=True)
class ArmPartition:
    """Finest partition of arms such that every arm set fits in one block."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SlotIndex:
    """Arm-set structure of an instance, flattened into slots.

    A slot is one (client, arm) pair.  Slots are numbered client by client
    in arm-set order, so client ``m`` owns slots ``starts[m]:starts[m + 1]``;
    ``slot_arm`` names each slot's arm, ``multiplicities[i]`` counts the
    clients owning arm ``i``, and flattening the instance's ``means`` rows
    gives the mean of every slot.  The structure is fixed for a whole
    episode, so it is built once and the per-instant statistics are
    array reductions over it.  A stack of configurations is the slot index
    of ``copies`` disjoint copies of the instance (see :meth:`stacked`), so
    every reduction gives each row what the row alone gives.  Arrays are
    read-only.
    """

    num_arms: int
    num_clients: int
    slot_client: np.ndarray
    slot_arm: np.ndarray
    starts: np.ndarray
    multiplicities: np.ndarray
    copies: int = 1
    _stacks: dict = field(default_factory=dict, init=False, repr=False)  # see stacked()

    @classmethod
    def _of(
        cls, num_arms: int, sizes: Sequence[int], slot_arm: Sequence[int], copies: int = 1
    ) -> "SlotIndex":
        slot_arm = np.asarray(slot_arm, dtype=np.int64)
        index = cls(
            num_arms=num_arms,
            num_clients=len(sizes),
            slot_client=_frozen(np.repeat(np.arange(len(sizes)), sizes)),
            slot_arm=_frozen(slot_arm),
            starts=_frozen(np.concatenate(([0], np.cumsum(sizes)))),
            multiplicities=_frozen(np.bincount(slot_arm, minlength=num_arms)),
            copies=copies,
        )
        index.__dict__["client_starts"] = index.starts[:-1]  # every reduction reads it
        return index

    @property
    def num_slots(self) -> int:
        """K', the number of (client, arm) slots."""
        return len(self.slot_arm)

    def flatten(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        """Concatenate per-client rows aligned with the arm sets into slot order."""
        return np.fromiter(chain.from_iterable(rows), dtype=float, count=self.num_slots)

    def stacked(self, rows: int) -> "SlotIndex":
        """Slot index of ``rows`` disjoint copies of this one; the index itself for one.

        Copy ``b`` owns arms ``b * K + i`` and clients ``b * M + m``, hence
        slots ``b * K' + s``, so a stack is the slot index of disjoint copies
        and every reduction gives each row what the row alone gives.  Only
        the largest stack asked for so far is built; the first ``r`` copies
        are its prefixes of length ``r * K'``, ``r * M`` and ``r * K`` (also
        in the arm runs, since copy ``b``'s arms all precede copy ``b + 1``'s),
        so a smaller stack is views of its arrays, sliced once per row count,
        and a batch whose episodes stop one by one allocates no array.
        """
        if rows == 1:
            return self
        stacks = self._stacks
        if rows not in stacks:
            if not stacks or max(stacks) < rows:
                sizes, copies = np.tile(np.diff(self.starts), rows), np.arange(rows)[:, None]
                slot_arm = (self.slot_arm + self.num_arms * copies).ravel()
                stacks.clear()
                stacks[rows] = SlotIndex._of(rows * self.num_arms, sizes, slot_arm, rows)
            else:
                stacks[rows] = stacks[max(stacks)]._prefix(rows)
        return stacks[rows]

    def _prefix(self, copies: int) -> "SlotIndex":
        """The index of this stack's first ``copies`` copies.

        Its arrays, and the cached ones a reduction reads, are views of this index's.
        """
        slots, clients, arms = (
            n // self.copies * copies for n in (self.num_slots, self.num_clients, self.num_arms)
        )
        prefix = SlotIndex(
            num_arms=arms,
            num_clients=clients,
            slot_client=self.slot_client[:slots],
            slot_arm=self.slot_arm[:slots],
            starts=self.starts[: clients + 1],
            multiplicities=self.multiplicities[:arms],
            copies=copies,
        )
        order, arm_starts = self.arm_runs
        prefix.__dict__.update(  # cached_property values, as views
            arm_runs=(order[:slots], arm_starts[:arms]),
            slot_positions=self.slot_positions[:slots],
            squared_multiplicities=self.squared_multiplicities[:arms],
            client_starts=self.client_starts[:clients],
            copy_arm=self.copy_arm[:slots],
            arm_rows=self.arm_rows[:copies],
            client_rows=self.client_rows[:copies],
        )
        return prefix

    @cached_property
    def slot_positions(self) -> np.ndarray:
        """``0, 1, ..., K' - 1``: each slot's own number."""
        return _frozen(np.arange(self.num_slots))

    @cached_property
    def squared_multiplicities(self) -> np.ndarray:
        """``multiplicities ** 2`` as floats, each the float ``mult * mult`` converts to."""
        return _frozen(self.multiplicities.astype(float) ** 2)

    @cached_property
    def arm_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Slots stably sorted by arm, and where each arm's (nonempty) run starts in that order."""
        order = np.argsort(self.slot_arm, kind="stable")
        return _frozen(order), _frozen(np.cumsum(self.multiplicities) - self.multiplicities)

    # Per-stack constants of the server's reductions, built once per row count.

    @cached_property
    def client_starts(self) -> np.ndarray:
        """``starts`` without its trailing entry: the segments ``reduceat`` takes per client."""
        return self.starts[:-1]

    @cached_property
    def copy_arm(self) -> np.ndarray:
        """Each slot's arm as its own copy numbers it: ``slot_arm`` modulo the arms of one copy."""
        return _frozen(self.slot_arm % (self.num_arms // self.copies))

    @cached_property
    def arm_rows(self) -> np.ndarray:
        """``slot_arm`` as ``(copies, K')``: one row of stack arm numbers per configuration."""
        return self.slot_arm.reshape(self.copies, -1)

    @cached_property
    def client_rows(self) -> np.ndarray:
        """``slot_client`` as ``(copies, K')``: each slot's client, one row per configuration."""
        return self.slot_client.reshape(self.copies, -1)

    @cached_property
    def clients_by_size(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """``(clients, arms)`` per arm-set size: those clients and their ``(n, size)`` arm sets."""
        sizes = np.diff(self.starts)
        out = []
        for size in np.unique(sizes).tolist():
            clients = np.flatnonzero(sizes == size)
            slots = self.starts[clients][:, None] + np.arange(size)
            out.append((tuple(clients.tolist()), _frozen(self.slot_arm[slots])))
        return tuple(out)

    @cached_property
    def co_ownership(self) -> np.ndarray:
        """``[i1, i2]``: number of clients owning both arms (diagonal: multiplicity).

        A count of every client's ordered arm pairs, as floats.
        """
        K = self.num_arms
        pairs = [
            (arms[:, :, None] * K + arms[:, None, :]).ravel() for _, arms in self.clients_by_size
        ]
        counts = np.bincount(np.concatenate(pairs), minlength=K * K)
        return _frozen(counts.reshape(K, K).astype(float))

    @cached_property
    def partition(self) -> ArmPartition:
        """Arm classes of :func:`partition_arms`, by union-find over the arm sets."""
        parent = list(range(self.num_arms))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]  # path halving
            return i

        slot_arm, starts = self.slot_arm.tolist(), self.starts.tolist()
        for lo, hi in zip(starts, starts[1:]):
            for other in slot_arm[lo + 1 : hi]:
                parent[root(other)] = root(slot_arm[lo])
        roots = [root(i) for i in range(self.num_arms)]
        classes: dict[int, list[int]] = {}  # root -> its arms; a class enters at its least arm
        for i, r in enumerate(roots):
            classes.setdefault(r, []).append(i)
        number = {r: j for j, r in enumerate(classes)}
        return ArmPartition(
            classes=tuple(map(tuple, classes.values())), class_of=tuple(number[r] for r in roots)
        )

    @cached_property
    def class_blocks(self) -> tuple[tuple[slice | np.ndarray, np.ndarray], ...]:
        """``(arms, co-ownership block)`` of every class, in partition order.

        ``arms`` indexes the class's arms along an arm axis: a slice when
        they are consecutive (a view, no gather), an index array otherwise.
        """
        out = []
        for cls in self.partition.classes:
            idx = _frozen(np.array(cls))
            consecutive = cls[-1] - cls[0] + 1 == len(cls)
            arms = slice(cls[0], cls[-1] + 1) if consecutive else idx
            out.append((arms, _frozen(self.co_ownership[np.ix_(idx, idx)])))
        return tuple(out)


def _structural_violations(instance: ProblemInstance) -> list[str]:
    K = instance.num_arms
    v: list[str] = []
    if K < 1:
        v.append("instance has no arms")
    if instance.num_clients < 1:
        v.append("instance has no clients")
    covered: set[int] = set()
    for m, (arms, mus) in enumerate(zip(instance.arm_sets, instance.means)):
        if len(arms) < 2:
            v.append(f"client {m + 1}: fewer than 2 accessible arms")
        for i in arms:
            if not (0 <= i < K):
                v.append(f"client {m + 1}: arm index {i + 1} outside 1..{K}")
        for i, mu in zip(arms, mus):
            if not math.isfinite(mu):
                v.append(f"client {m + 1}: non-finite mean for arm {i + 1}")
        covered.update(arms)
    # One message per run of uncovered arms, found between the covered ones:
    # nothing here grows with K.
    inside = sorted(i for i in covered if 0 <= i < K)
    for lo, hi in zip([-1, *inside], [*inside, K]):
        if hi - lo == 2:
            v.append(f"arm {lo + 2} not accessible to any client")
        elif hi - lo > 2:
            v.append(f"arms {lo + 2}..{hi} not accessible to any client")
    return v


def validate(instance: ProblemInstance) -> ValidationReport:
    """Check structural invariants and admissibility; never raises.

    An instance is admissible when every client's best arm beats each other
    arm of the client by more than the rounding error of their aggregate
    means (see :func:`_ties`); an exact tie is the case of a zero gap.  An
    instance without ties is still inadmissible when an arm's gap times its
    number of owning clients leaves ``[2**-500, 2**500]``, where the
    allocation can represent it (see :func:`_gap_scale`).  The report is
    computed once per instance object.
    """
    return instance._report


def _validation_report(instance: ProblemInstance) -> ValidationReport:
    violations = list(instance._violations)
    structurally_valid = not violations
    if structurally_valid:
        index = slot_index(instance)
        slot_means = index.flatten(instance.means)
        _, _, g, top, first = _top_slots(index, slot_means)
        separation = top - g  # of each slot's arm from its client's top aggregate mean
        violations = _ties(index, slot_means, separation, first) or _gap_scale(
            index, slot_means, separation
        )
    return ValidationReport(
        structurally_valid=structurally_valid,
        admissible=structurally_valid and not violations,
        violations=tuple(violations),
    )


# Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


def _ties(
    index: SlotIndex, slot_means: np.ndarray, separation: np.ndarray, first: np.ndarray
) -> list[str]:
    """One message per client whose best arm does not beat all its other arms by a rounding error.

    A mean handed in as a float is the rounding of the value it stands for
    (an average of ratings, or a decimal read from JSON): one factor
    ``(1 + d)`` with ``|d| <= u``, the unit roundoff.  Summing the ``mult_i``
    means of arm ``i`` adds ``mult_i - 1`` such factors to each term, and the
    division by ``mult_i`` one more, so each term of the computed aggregate
    mean carries at most ``n = mult_i + 1`` of them, and (Higham, *Accuracy
    and Stability of Numerical Algorithms*, Lemma 3.1)
    ``|computed - exact| <= gamma_n * sum_m |mu_m,i| / mult_i`` with
    ``gamma_n = n u / (1 - n u)``.  When the computed means of a client's
    best arm and another of its arms differ by no more than the sum of
    their two bounds, the values the floats stand for may be ordered either
    way, so the best arm is not determined: a tie (an exact one at gap 0).
    The aggregate means and best arms are those of :func:`slot_stats`:
    ``separation`` is each slot's ``top - g`` and ``first`` each client's
    top slot, as :func:`_top_slots` finds them.
    """
    mult = index.multiplicities
    steps = mult + 1.0
    magnitude = np.bincount(index.slot_arm, weights=np.abs(slot_means), minlength=index.num_arms)
    error = steps * _UNIT_ROUNDOFF / (1.0 - steps * _UNIT_ROUNDOFF) * magnitude / mult
    best = index.slot_arm[first][index.slot_client]
    tolerance = error[best] + error[index.slot_arm]
    messages: dict[int, str] = {}  # one per client, naming its first such arm
    for slot in np.flatnonzero((index.slot_arm != best) & (separation <= tolerance)).tolist():
        m, i, j = int(index.slot_client[slot]), int(best[slot]), int(index.slot_arm[slot])
        messages.setdefault(
            m,
            f"tied best arm at client {m + 1}"
            if separation[slot] == 0.0
            else f"client {m + 1}: best arm {i + 1} and arm {j + 1} differ by "
            f"{separation[slot]:.3g}, within the rounding error {tolerance[slot]:.3g} of their "
            "aggregate means",
        )
    return list(messages.values())


# The range of gap * mult a tie-free instance must keep, derived in _gap_scale.
_GAP_RANGE = (2.0**-500, 2.0**500)


def _gap_scale(index: SlotIndex, slot_means: np.ndarray, separation: np.ndarray) -> list[str]:
    """One message per arm whose gap times its owner count leaves ``_GAP_RANGE``.

    The allocation scales arm ``i`` by ``d_i = 1 / (gap_i * mult_i)^2``;
    within the range, every ``d_i`` is a normal float in
    ``[2^-1000, 2^1000]``, which the allocation scales exactly by a power of
    two per class before its eigensolver reads them.  For an instance
    without ties (as :func:`_ties` finds none), every gap lies between the
    least positive separation ``top - g`` of a client's top mean from its
    other arms' and the greatest one, so the per-arm gaps of
    :func:`slot_stats` are computed only when those two bounds leave the
    range.
    """
    low, high = _GAP_RANGE
    # 0 on each client's best arm, positive on the others
    least = np.minimum.reduce(separation, initial=np.inf, where=separation > 0.0)
    if least >= low and np.maximum.reduce(separation) * index.num_clients <= high:
        return []
    gaps = slot_stats(index, slot_means).gaps
    scaled = gaps * index.multiplicities
    return [
        f"arm {i + 1}: gap {gaps[i]:.3g} times its {index.multiplicities[i]} owning clients "
        "is outside [2**-500, 2**500], the range the allocation represents"
        for i in np.flatnonzero((scaled < low) | (scaled > high)).tolist()
    ]


def arm_stats(instance: ProblemInstance) -> ArmStats:
    """Aggregate means, gaps, and best arms (ownership counts are the slot index's).

    Requires a structurally valid instance; admissibility is not required
    (gaps may contain zeros, which callers can inspect).
    """
    index = slot_index(instance)
    return slot_stats(index, index.flatten(instance.means))


def slot_index(instance: ProblemInstance) -> SlotIndex:
    """Slot index of a structurally valid instance (raises otherwise).

    Built once per instance object and shared, with its caches, by every caller.
    """
    if instance._violations:
        raise ValueError("structurally invalid instance: " + "; ".join(instance._violations))
    return instance._slots


def _top_slots(
    index: SlotIndex, slot_means: np.ndarray
) -> tuple[SlotIndex, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First stage of :func:`slot_stats` on one or ``B`` stacked configurations.

    The stack reduced over, the per-arm means, each slot's arm mean and its
    client's top mean, and each client's first top slot (the argmax, ties to
    the lowest arm), all numbered as in the stack.
    """
    stack = index.stacked(slot_means.size // index.num_slots)
    slot_arm, starts = stack.slot_arm, stack.client_starts
    global_means = (
        np.bincount(slot_arm, weights=slot_means.ravel(), minlength=stack.num_arms)
        / stack.multiplicities
    )
    g = global_means[slot_arm]
    top = np.maximum.reduceat(g, starts)[stack.slot_client]
    first = np.minimum.reduceat(np.where(g == top, stack.slot_positions, len(slot_arm)), starts)
    return stack, global_means, g, top, first


def slot_stats(index: SlotIndex, slot_means: np.ndarray) -> ArmStats:
    """Arm statistics of the mean configuration ``slot_means`` (one entry per slot).

    Reductions over the slot arrays: per-arm sums in client order (so the
    means equal a client-by-client accumulation bit for bit), each client's
    top and runner-up aggregate mean, and per-arm minima of the separations.
    Each slot's separation from its client's top is kept before the lead
    slots' tops are overwritten by the runner-up; that top is the mean at
    the client's first top slot, so the separation is ``global_means[best] -
    global_means[own]`` bit for bit.  A ``(B, K')`` array stacks ``B``
    configurations, and every field but the flat ``top_arms`` and
    ``separations`` then gains a leading batch axis; the stack is the slot
    index of disjoint copies, so every reduction gives each row what the row
    alone gives, bit for bit.
    """
    means = np.asarray(slot_means, dtype=float)
    stack, global_means, g, other, first = _top_slots(index, means)
    separations = other - g
    rest = g.copy()
    rest[first] = -np.inf
    # the lead slot competes with the runner-up
    other[first] = np.maximum.reduceat(rest, stack.client_starts)
    order, arm_starts = stack.arm_runs
    gaps = np.minimum.reduceat(np.abs(g - other)[order], arm_starts)
    best_arms = stack.copy_arm[first]
    if means.ndim > 1:
        rows = len(means)
        global_means = global_means.reshape(rows, index.num_arms)
        gaps = gaps.reshape(rows, index.num_arms)
        best_arms = best_arms.reshape(rows, index.num_clients)
    return ArmStats(global_means, gaps, best_arms, stack.slot_arm[first], separations)


def _confusion_best(index: SlotIndex, stats: ArmStats) -> np.ndarray:
    """Each slot's client best arm, the arm every other slot of the client is confused with.

    Raises ``ValueError`` when ``stats`` have a zero gap.
    """
    if not stats.all_admissible:
        raise ValueError("inadmissible instance: confusion pairs are undefined under ties")
    return stats.best_arms[index.slot_client]


def confusion_pairs(
    instance: ProblemInstance, stats: ArmStats | None = None
) -> tuple[tuple[int, int], ...]:
    """Sorted, distinct (client best arm, other arm in that client's set) pairs.

    Built from the slot arrays as ``allocation.g_exact`` pairs them, so these
    are exactly the pairs it minimizes over.
    """
    stats = arm_stats(instance) if stats is None else stats
    index = slot_index(instance)
    best = _confusion_best(index, stats)
    pairs = best != index.slot_arm
    return tuple(sorted(set(zip(best[pairs].tolist(), index.slot_arm[pairs].tolist()))))


def partition_arms(instance: ProblemInstance) -> ArmPartition:
    """Connected components of arms linked by co-residence in some arm set.

    Classes are reported in ascending order of their smallest member, each
    class sorted ascending.  Computed once per instance, with its slot index.
    """
    return slot_index(instance).partition


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
    slot_index(instance)  # raises unless structurally valid
    return instance


# --- JSON interchange (1-based indices, fixed field set, one line) ---

_TOP_FIELDS = {"K", "M", "arm_sets", "means"}
_MEAN_FIELDS = {"client", "arm", "mu"}


def to_json(instance: ProblemInstance) -> str:
    """The instance as one line of JSON, the document :func:`from_json` reads.

    ``{"K": ..., "M": ..., "arm_sets": [[...], ...], "means": [{"client": m,
    "arm": i, "mu": mu}, ...]}`` with 1-based indices and one record per
    (client, arm) pair, in arm-set order.  The bytes are those ``json.dumps``
    writes for the whole document: the head is its own ``json.dumps``, and
    each record is formatted with the integer indices and the text
    ``json.dumps`` writes for its mean (a finite float as ``float.__repr__``,
    NaN and the infinities as ``NaN`` and ``Infinity``).
    """
    head = json.dumps(
        {
            "K": instance.num_arms,
            "M": instance.num_clients,
            "arm_sets": [[i + 1 for i in s] for s in instance.arm_sets],
        }
    )
    # zip takes the arm first, so each client's last arm leaves the next mean in the column
    mu_text = iter(_json_items(list(chain.from_iterable(instance.means))))
    records = [
        f'{{"client": {m}, "arm": {i + 1}, "mu": {t}}}'
        for m, arms in enumerate(instance.arm_sets, 1)
        for i, t in zip(arms, mu_text)
    ]
    return head[:-1] + ', "means": [' + ", ".join(records) + "]}"


def _json_items(numbers: list) -> list[str]:
    """Each number's text as ``json.dumps`` writes it in a list, from one call for the list."""
    return json.dumps(numbers)[1:-1].split(", ")  # [""] for no numbers, never taken


def _is_integer(value: object) -> bool:
    """A Python or numpy integer, not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """A Python or numpy int or float, not a ``bool``."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _json_mean(value: object) -> float:
    """A mean must be a JSON number (not a string, bool, list or null) that fits a float."""
    if not _is_real(value):
        raise ValueError(f"mean record mu must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"mean record mu {value} is too large for a float") from None


_CLIENT, _ARM, _MU = map(itemgetter, ("client", "arm", "mu"))


def from_json(text: str) -> ProblemInstance:
    """Read the one-line JSON document of :func:`to_json`.

    The document is an object with exactly the fields ``K``, ``M`` (integers),
    ``arm_sets`` (one list of integer arm indices per client, 1-based) and
    ``means`` (a list of ``{"client", "arm", "mu"}`` records, one per
    (client, arm) pair of the arm sets, in any order).  Each arm set is read
    as a sorted, duplicate-free set, and each ``mu``, a JSON number (``NaN``
    and ``Infinity`` included; :func:`validate` flags them), as a float.
    Indices are only required to be integers here; ranges are
    :func:`validate`'s.  A document as :func:`to_json` writes it (records in
    arm-set order, float means) is read column by column; any other goes
    through the per-record loop, which alone words the error
    (``ValueError``) for the first irregular record.
    """
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
    if not _is_integer(K) or not _is_integer(M):
        raise ValueError("K and M must be integers")
    arm_sets = doc["arm_sets"]
    if not isinstance(arm_sets, list) or len(arm_sets) != M:
        raise ValueError("arm_sets must be a list with one entry per client")
    message = "each arm set must be a list of integers"
    if not set(map(type, arm_sets)) <= {list}:  # json.loads makes plain lists...
        raise ValueError(message)
    arms = list(chain.from_iterable(arm_sets))
    if not set(map(type, arms)) <= {int}:  # ...and plain ints; a bool is not one here
        raise ValueError(message)
    records = doc["means"]
    if not isinstance(records, list):
        raise ValueError("means must be a list of records")
    instance = _from_columns(K, arm_sets, arms, records)
    return _from_records(K, arm_sets, records) if instance is None else instance


def _from_columns(K: int, arm_sets: list, arms: list, records: list) -> ProblemInstance | None:
    """The instance of a regular ``means`` list, read by column; ``None`` for any other.

    Regular is the document :func:`to_json` writes: every record is an object
    of exactly the three fields, with integer indices and a float ``mu``, and
    the records' ``(client, arm)`` keys are the arm sets' own pairs in
    arm-set order, every arm set sorted and duplicate-free.  That one
    comparison rules out duplicate, missing and inaccessible pairs.
    """
    try:
        clients, keyed_arms, mus = (list(map(get, records)) for get in (_CLIENT, _ARM, _MU))
    except (KeyError, TypeError):  # a record that is not an object, or lacks a field
        return None
    if sum(map(len, records)) != 3 * len(records):  # a record with more fields
        return None
    if not {*map(type, clients), *map(type, keyed_arms)} <= {int}:
        return None
    if not set(map(type, mus)) <= {float}:
        return None
    sizes = list(map(len, arm_sets))
    owners = list(chain.from_iterable(map(repeat, range(1, len(arm_sets) + 1), sizes)))
    if clients != owners or keyed_arms != arms:
        return None
    column = iter(mus)
    try:
        return ProblemInstance(
            num_arms=K,
            num_clients=len(arm_sets),
            arm_sets=tuple(tuple(i - 1 for i in s) for s in arm_sets),
            means=tuple(tuple(islice(column, n)) for n in sizes),
        )
    except ValueError:  # an arm set not sorted and duplicate-free, which from_means normalizes
        return None


def _from_records(K: int, arm_sets: list, records: list) -> ProblemInstance:
    """The instance by the per-record loop, which words the first irregular record's error."""
    means: dict[tuple[int, int], float] = {}
    for rec in records:
        if type(rec) is not dict:  # json.loads makes plain dicts
            raise ValueError("each means entry must be an object")
        if rec.keys() != _MEAN_FIELDS:
            unknown = rec.keys() - _MEAN_FIELDS
            if unknown:
                raise ValueError(f"unknown mean fields: {sorted(unknown)}")
            raise ValueError(f"missing mean fields: {sorted(_MEAN_FIELDS - rec.keys())}")
        client, arm, mu = rec["client"], rec["arm"], rec["mu"]
        if not _is_integer(client) or not _is_integer(arm):
            raise ValueError("mean record client/arm must be integers")
        key = (client - 1, arm - 1)
        if key in means:
            raise ValueError(f"duplicate mean for client {client}, arm {arm}")
        means[key] = mu if type(mu) is float else _json_mean(mu)
    sets = [tuple(i - 1 for i in s) for s in arm_sets]
    return ProblemInstance.from_means(sets, means, num_arms=K)


def save_instance(instance: ProblemInstance, path: str) -> None:
    """Write :func:`to_json`'s one-line document and a newline to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(instance))
        fh.write("\n")


def load_instance(path: str) -> ProblemInstance:
    """Read an instance document from ``path`` (UTF-8) by :func:`from_json`.

    The accepted document and its normalizations are :func:`from_json`'s; its
    per-record loop words any error, raised as ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
