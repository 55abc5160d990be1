"""Optimal sampling allocations and instance-hardness functionals.

The target sampling proportions of all clients are characterized by one
positive vector over the arms (the *global vector*): each client normalizes
its restriction to its own arm set.  Per equivalence class of co-resident
arms, the global vector is the unique all-positive unit eigenvector of a
nonnegative matrix ``H = D C`` built from the separation gaps and ownership
counts (``D`` positive diagonal, ``C`` the symmetric co-ownership counts).
It is computed by a symmetric eigensolver on ``D^(1/2) C D^(1/2)`` and
accepted only under a componentwise certificate: every entry positive and
``|(Hx)_i - lambda x_i| <= 1e-10 * lambda x_i`` for every arm.  When the
solver's vector fails the certificate (tiny entries lose their relative
accuracy on badly scaled gaps), positivity-preserving power iteration
continues from its absolute value until the certificate holds.

Two rate functionals drive everything:

* ``g_tilde`` -- per-arm relaxed rate, ``min_i (gap_i^2 / 2) / T_i`` with
  ``T_i = (1/mult_i^2) * sum_m 1/w[i, m]`` over owning clients.
* ``g_exact`` -- pairwise rate over the confusion pairs (each client's best
  arm against every other arm it owns),
  ``min_pair ((mu_1 - mu_2)^2 / 2) / (T_1 + T_2)``; it always lies within a
  factor of two of ``g_tilde``.

Both return 0 when any owned weight is zero.  Every functional takes
``(instance, stats, allocation)``, rejects an allocation over other arm
sets than the instance's, and is an array expression over the instance's
slots (one slot per (client, arm) pair).  One helper pairs each
slot's arm with its client's best arm and takes the pairwise minimum:
``g_exact`` applies it to the weights, and the stopping statistic ``Z(t)``
to the raw pull counts, so ``Z(t) = t * g_exact(N(t) / t)`` by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instance import (
    ArmStats,
    ProblemInstance,
    SlotIndex,
    _confusion_best,
    arm_stats,
    slot_index,
)

__all__ = [
    "Allocation",
    "PowerIterationError",
    "h_matrix",
    "perron_positive_eigenvector",
    "slot_global_vector",
    "allocation_from_global",
    "optimal_allocation",
    "g_tilde",
    "g_tilde_per_class",
    "g_exact",
    "c_star_interval",
    "balance_residuals",
    "brute_force_g_tilde_max",
]

# Weights at or below this are treated as exact zeros in the rate functionals.
ZERO_WEIGHT = 1e-300

_ROW_SUM_TOL = 1e-12

# Componentwise relative eigen-residual a global vector must certify.
CERTIFICATE_TOL = 1e-10

_MAX_GRID_POINTS = 10_000_000  # largest grid brute_force_g_tilde_max enumerates
_GRID_CHUNK = 1_000_000  # grid points it scores per array pass

# Power steps after which a block is declared to have no certifiable
# positive eigenvector (a reducible block, or one whose top eigenvalues
# nearly coincide); production class blocks certify within a few steps.
_MAX_POWER_STEPS = 100_000


@dataclass(frozen=True)
class Allocation:
    """Per-client sampling probabilities over that client's arm set.

    ``weights[m]`` is aligned with ``arm_sets[m]``; each row sums to one
    within 1e-12 and has no negative or non-finite entries.
    """

    arm_sets: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.arm_sets) != len(self.weights):
            raise ValueError("weights not aligned with arm sets")
        for m, (arms, row) in enumerate(zip(self.arm_sets, self.weights)):
            if len(arms) != len(row):
                raise ValueError(f"client {m + 1}: weights not aligned with arm set")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"client {m + 1}: non-finite weight in {row}")
            if any(w < 0.0 for w in row):
                raise ValueError(f"client {m + 1}: negative weight")
            if abs(sum(row) - 1.0) > _ROW_SUM_TOL:
                raise ValueError(f"client {m + 1}: weights sum to {sum(row)!r}, not 1")

    @classmethod
    def uniform(cls, instance: ProblemInstance) -> "Allocation":
        return cls(
            arm_sets=instance.arm_sets,
            weights=tuple(tuple(1.0 / len(s) for _ in s) for s in instance.arm_sets),
        )

    @classmethod
    def from_rows(cls, instance: ProblemInstance, rows: Sequence[Sequence[float]]) -> "Allocation":
        return cls(
            arm_sets=instance.arm_sets,
            weights=tuple(tuple(float(w) for w in row) for row in rows),
        )


class PowerIterationError(RuntimeError):
    def __init__(self, message: str, residual: float | None = None) -> None:
        super().__init__(message if residual is None else f"{message} (residual {residual:.3e})")
        self.residual = residual


def _inverse_scale(index: SlotIndex, stats: ArmStats) -> np.ndarray:
    """Diagonal ``D`` of ``H = D C``: ``1 / (gap^2 * mult^2)`` per arm (per row when stacked)."""
    if not stats.all_admissible:
        raise ValueError("inadmissible instance: zero separation gap")
    return 1.0 / (stats.gaps**2 * index.squared_multiplicities)


def h_matrix(instance: ProblemInstance, stats: ArmStats | None = None) -> np.ndarray:
    """The K x K allocation matrix ``H = D C``; requires all separation gaps to be positive.

    Entry (i1, i2) is the number of clients owning both arms, divided by
    ``gap(i1)^2 * mult(i1)^2``.  Entries across distinct classes are zero.
    """
    index = slot_index(instance)
    stats = arm_stats(instance) if stats is None else stats
    return index.co_ownership * _inverse_scale(index, stats)[:, None]


def perron_positive_eigenvector(
    block: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Certified all-positive unit eigenvector and top eigenvalue of a nonnegative block.

    Iterates ``x <- Hx / |Hx|`` from ``|start|`` (default all-ones), taking
    ``lambda = x . Hx``, until every entry of ``x`` is positive and
    ``max_i |(Hx)_i - lambda x_i| / (lambda x_i) <= CERTIFICATE_TOL``.  At
    least one step is taken, even from a start that would pass: the step
    makes the entries of arms with identical rows bitwise equal, which a
    direct eigensolver does not guarantee, and D-tracking breaks an exact
    weight tie at random but a last-bit difference deterministically.
    Raises :class:`PowerIterationError` when the iterate vanishes or no
    certificate is reached within a fixed step budget.
    """
    H = np.asarray(block, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("block must be a square matrix")
    x = np.ones(H.shape[0]) if start is None else np.asarray(start, dtype=float)
    vectors, values = _perron_polish(H[None], x[None])
    return vectors[0], float(values[0])


def _perron_polish(blocks: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`perron_positive_eigenvector` of blocks ``(B, n, n)`` from ``(B, n)`` starts.

    Every block iterates until its own certificate holds, so each result
    equals that block's alone bit for bit: stacked ``@`` runs the same
    matrix-vector product and the same dot product (the norm is the square
    root of ``y . y``, as ``numpy.linalg.norm`` computes it for one vector).
    """
    H = blocks
    x = np.abs(starts)[..., None]
    y = H @ x
    todo = None  # original rows still iterating, once some have certified
    for _ in range(_MAX_POWER_STEPS):
        norm = np.sqrt(y.transpose(0, 2, 1) @ y)
        if norm.min() == 0.0:
            raise PowerIterationError("iterate vanished; block is not irreducible")
        x = y / norm
        y = H @ x
        lam = x.transpose(0, 2, 1) @ y
        scaled = lam * x
        # Whole-stack reductions settle the common case: every block certifies at once.
        positive = lam.min() > 0.0 and x.min() > 0.0
        if positive and (np.abs(y - scaled) / scaled).max() <= CERTIFICATE_TOL:
            if todo is None:
                return x[..., 0], lam[:, 0, 0]
            vectors[todo], values[todo] = x[..., 0], lam[:, 0, 0]
            return vectors, values
        if len(H) == 1:  # the whole-stack check was this block's own
            continue
        done = _residuals(x, y, lam) <= CERTIFICATE_TOL
        if done.any():
            if todo is None:
                todo, vectors, values = np.arange(len(H)), np.empty(x.shape[:2]), np.empty(len(H))
            vectors[todo[done]], values[todo[done]] = x[done, :, 0], lam[done, 0, 0]
            keep = ~done
            H, x, y, todo = H[keep], x[keep], y[keep], todo[keep]
    raise PowerIterationError(
        f"no certified positive eigenvector within {_MAX_POWER_STEPS} power steps",
        float(_residuals(x, y, lam).max()),
    )


def _residuals(x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per block, ``max_i |y_i - lam x_i| / (lam x_i)``.

    ``inf`` unless ``lam`` and every ``x_i`` are positive.
    """
    scaled = lam * x
    ratio = np.full(scaled.shape, np.inf)
    positive = (lam > 0.0) & (x.min(axis=1, keepdims=True) > 0.0)
    np.divide(np.abs(y - scaled), scaled, out=ratio, where=positive)
    return ratio.max(axis=(1, 2))


def slot_global_vector(index: SlotIndex, stats: ArmStats) -> np.ndarray:
    """Class-wise certified Perron vectors of ``H = D C``, assembled over the arms.

    Per class, ``numpy.linalg.eigh`` on the symmetric ``D^(1/2) C D^(1/2)``
    gives ``x = D^(1/2) v`` for its top eigenvector ``v``; the Perron
    iteration then polishes ``x`` until it certifies (one step as a rule).
    Stacked stats (admissible in every row) give one vector per row: the
    eigensolver and the polish run once per class over the whole stack,
    and each row equals that configuration's vector alone bit for bit.
    """
    scale = _inverse_scale(index, stats)
    rows = scale.reshape(-1, index.num_arms)
    entries = np.zeros(rows.shape)
    for arms, co in index.class_blocks:
        d = rows[:, arms]
        root = np.sqrt(d)
        _, vectors = np.linalg.eigh(root[:, :, None] * co * root[:, None, :])
        entries[:, arms] = _perron_polish(d[:, :, None] * co, root * vectors[:, :, -1])[0]
    return entries.reshape(scale.shape)


def _client_weights(index: SlotIndex, gvec: np.ndarray) -> list[list[list[float]]]:
    """Per row of ``(B, K)`` global vectors, each client's normalized restriction ``g / g.sum()``.

    This is the allocation a client tracks.  Clients of one arm-set size are
    gathered into a C-contiguous ``(B, n, size)`` array and summed along its
    last axis, which runs the same sum as ``g.sum()`` on one client's vector,
    so every weight equals the one-client computation bit for bit.
    """
    groups = []
    for clients, arms in index.clients_by_size:
        g = np.take(gvec, arms, axis=1)
        groups.append((clients, (g / g.sum(axis=-1, keepdims=True)).tolist()))
    if len(groups) == 1:  # one arm-set size: rows are already in client order
        return groups[0][1]
    out = [[None] * index.num_clients for _ in range(len(gvec))]
    for clients, weights in groups:
        for row, rows in zip(out, weights):
            for m, w in zip(clients, rows):
                row[m] = w
    return out


def allocation_from_global(entries: np.ndarray, instance: ProblemInstance) -> Allocation:
    """Client weights from a positive arm vector: the ``g / g.sum()`` each client tracks."""
    entries = np.asarray(entries, dtype=float)
    if entries.shape != (instance.num_arms,):
        raise ValueError("global vector length does not match the number of arms")
    if not np.isfinite(entries).all():
        raise ValueError(f"global vector must be finite, got {entries.tolist()}")
    if np.min(entries) <= 0.0:
        raise ValueError("global vector must be strictly positive")
    rows = _client_weights(slot_index(instance), entries[None])[0]
    return Allocation(arm_sets=instance.arm_sets, weights=tuple(map(tuple, rows)))


def optimal_allocation(
    instance: ProblemInstance, stats: ArmStats | None = None
) -> tuple[np.ndarray, Allocation]:
    """The global vector of :func:`slot_global_vector` (unit 2-norm per class) and its allocation."""
    stats = arm_stats(instance) if stats is None else stats
    gvec = slot_global_vector(slot_index(instance), stats)
    return gvec, allocation_from_global(gvec, instance)


def _confusion_rate(
    stack: SlotIndex, stats: ArmStats, slot_values: np.ndarray, best: np.ndarray
) -> np.ndarray:
    """``min ((mu_1 - mu_2)^2 / 2) / (T_1 + T_2)`` over the confusion pairs.

    Slot ``s`` pairs its client's best arm ``best[s]`` with its own arm unless
    the two are one: each client's best arm against every other arm it owns.
    ``T_i = (1 / mult_i^2) * sum 1/value`` over the slots of arm ``i``, where a
    zero value counts as ``1/0 = inf`` (so every pair touching it has rate 0).
    On pull counts this is ``Z(t)``; on slot-ordered weights, ``g_exact``.
    ``slot_values`` may stack configurations as ``(B, K')`` rows (with
    ``stats`` stacked alike), and ``stack`` is then ``index.stacked(B)``;
    ``best`` then names arms as the stack does (arm ``i`` of row ``b`` is
    ``b * K + i``), and the minimum is taken per row.
    """
    shape = np.shape(slot_values)
    best = best.reshape(shape)
    own = stack.slot_arm.reshape(shape)
    values = np.ravel(slot_values)
    recip = np.full(values.shape, np.inf)
    np.divide(1.0, values, out=recip, where=values > 0)
    T = (
        np.bincount(stack.slot_arm, weights=recip, minlength=stack.num_arms)
        / stack.squared_multiplicities
    )
    means = stats.global_means.ravel()
    gap = means[best] - means[own]
    rates = gap * gap / 2.0 / (T[best] + T[own])
    return np.minimum.reduce(rates, axis=-1, initial=np.inf, where=best != own)


def _slot_weights(
    instance: ProblemInstance, allocation: Allocation
) -> tuple[SlotIndex, np.ndarray | None]:
    """The slot index and the slot-ordered weights, None when one is at most ``ZERO_WEIGHT``.

    Raises ``ValueError`` naming the first client whose arm set differs from the instance's.
    """
    index = slot_index(instance)
    if allocation.arm_sets != instance.arm_sets:
        pairs = itertools.zip_longest(allocation.arm_sets, instance.arm_sets)
        m = next(m for m, (a, b) in enumerate(pairs) if a != b)
        raise ValueError(f"client {m + 1}: allocation arm set differs from the instance's")
    w = index.flatten(allocation.weights)
    return index, None if np.any(w <= ZERO_WEIGHT) else w


def _arm_rates(index: SlotIndex, stats: ArmStats, w: np.ndarray) -> np.ndarray:
    """Per-arm ``gap^2 * mult^2 / sum_m 1/w[i, m]`` of positive slot-ordered weights."""
    recip = np.bincount(index.slot_arm, weights=1.0 / w, minlength=index.num_arms)
    return stats.gaps**2 * index.squared_multiplicities / recip


def g_tilde(instance: ProblemInstance, stats: ArmStats, allocation: Allocation) -> float:
    """Relaxed identification rate: worst arm of ``gap^2/2`` over ``T_i``."""
    index, w = _slot_weights(instance, allocation)
    return 0.0 if w is None else float(_arm_rates(index, stats, w).min() / 2.0)


def g_tilde_per_class(
    instance: ProblemInstance, stats: ArmStats, allocation: Allocation
) -> np.ndarray:
    """Per-class variant without the 1/2 factor (eigenvalue convention).

    One entry per class of :func:`~hetbai.instance.partition_arms`.  The top
    eigenvalue of class block ``j`` equals the reciprocal of this value at
    the optimal allocation.
    """
    index, w = _slot_weights(instance, allocation)
    partition = index.partition
    if w is None:
        return np.zeros(len(partition.classes))
    out = np.full(len(partition.classes), np.inf)
    np.minimum.at(out, np.asarray(partition.class_of), _arm_rates(index, stats, w))
    return out


def g_exact(instance: ProblemInstance, stats: ArmStats, allocation: Allocation) -> float:
    """Pairwise identification rate over the confusion pairs.

    The pairs are those of :func:`~hetbai.instance.confusion_pairs`, and the
    pairing is the stopping statistic's (``Z(t) = t * g_exact(N(t) / t)``).
    Raises ``ValueError`` when ``stats`` have a zero gap (the pairs are
    undefined under ties); 0 when an owned weight is at most ``ZERO_WEIGHT``.
    """
    index, w = _slot_weights(instance, allocation)
    best = _confusion_best(index, stats)
    return 0.0 if w is None else float(_confusion_rate(index, stats, w, best))


def c_star_interval(
    instance: ProblemInstance, stats: ArmStats | None = None, g_star: float | None = None
) -> tuple[float, float]:
    """Provable bracket for the instance hardness constant.

    With ``g*`` the relaxed rate at the eigenvector allocation, the constant
    multiplying ``log(1/delta)`` in the stopping-time lower bound lies in
    ``[1/g*, 2/g*]``.  A caller that has computed ``g*`` already (as
    ``g_tilde`` at ``optimal_allocation``) passes it as ``g_star``; otherwise
    it is computed here.
    """
    if g_star is None:
        stats = arm_stats(instance) if stats is None else stats
        _, alloc = optimal_allocation(instance, stats)
        g_star = g_tilde(instance, stats, alloc)
    if g_star <= 0.0:
        raise ValueError("relaxed rate is zero; instance is degenerate")
    return 1.0 / g_star, 2.0 / g_star


def balance_residuals(
    instance: ProblemInstance, stats: ArmStats, allocation: Allocation
) -> tuple[float, float]:
    """How far an allocation is from the two optimality conditions.

    Returns ``(balanced, pseudo_balanced)``: the worst mismatch of arm-weight
    ratios across clients sharing both arms, and the worst relative spread of
    the per-arm rate values within a class of
    :func:`~hetbai.instance.partition_arms`.  Per ordered arm pair, the worst
    mismatch over two sharing clients is the largest ratio minus the smallest.
    """
    index, w = _slot_weights(instance, allocation)
    if w is None:
        raise ValueError("balance residuals require strictly positive owned weights")
    values = _arm_rates(index, stats, w)
    K = index.num_arms
    high = np.full(K * K, -np.inf)
    low = np.full(K * K, np.inf)
    for clients, arms in index.clients_by_size:
        g = w[index.starts[list(clients)][:, None] + np.arange(arms.shape[1])]
        pair = (arms[:, :, None] * K + arms[:, None, :]).ravel()
        ratio = (g[:, :, None] / g[:, None, :]).ravel()
        np.maximum.at(high, pair, ratio)
        np.minimum.at(low, pair, ratio)
    balanced = float(np.max(high - low, initial=0.0))
    pseudo = 0.0
    for cls in index.partition.classes:
        vals = values[np.array(cls)]
        if len(vals) > 1:
            pseudo = max(pseudo, float((vals.max() - vals.min()) / vals.mean()))
    return balanced, pseudo


def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All probability vectors of length ``dim`` on the grid k/steps."""
    points = []
    for cuts in itertools.combinations(range(steps + dim - 1), dim - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + dim - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) / steps


def brute_force_g_tilde_max(
    instance: ProblemInstance,
    grid_step: float,
    stats: ArmStats | None = None,
) -> tuple[Allocation, float]:
    """Exhaustive grid maximization of the relaxed rate (verification oracle).

    Enumerates the product of per-client simplex grids with the given step
    and returns the first grid point attaining the maximum.  Guarded against
    grids with more than ``_MAX_GRID_POINTS`` points.
    """
    stats = arm_stats(instance) if stats is None else stats
    steps = round(1.0 / grid_step)
    if steps < 1 or abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must evenly divide 1")
    grids = [_simplex_grid(len(s), steps) for s in instance.arm_sets]
    counts = [len(g) for g in grids]
    total = math.prod(counts)
    if total > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid would have {total} points (> {_MAX_GRID_POINTS}); use a smaller instance or step"
        )
    mult_sq = slot_index(instance).squared_multiplicities
    half_gap_sq = stats.gaps**2 / 2.0
    owners = [
        [(m, instance.arm_sets[m].index(i)) for m in range(instance.num_clients) if i in instance.arm_sets[m]]
        for i in range(instance.num_arms)
    ]
    best_value = -1.0
    best_flat = 0
    for lo in range(0, total, _GRID_CHUNK):
        flat = np.arange(lo, min(lo + _GRID_CHUNK, total))
        idx = np.unravel_index(flat, counts)
        value = np.full(len(flat), np.inf)
        with np.errstate(divide="ignore"):
            for i in range(instance.num_arms):
                recip = np.zeros(len(flat))
                for m, k in owners[i]:
                    recip += 1.0 / grids[m][idx[m], k]
                value = np.minimum(value, half_gap_sq[i] * mult_sq[i] / recip)
        k = int(np.argmax(value))
        if value[k] > best_value:
            best_value = float(value[k])
            best_flat = int(flat[k])
    best_idx = np.unravel_index(best_flat, counts)
    rows = [tuple(float(w) for w in grids[m][best_idx[m]]) for m in range(instance.num_clients)]
    return Allocation(arm_sets=instance.arm_sets, weights=tuple(rows)), best_value
