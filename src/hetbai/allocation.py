"""Optimal sampling allocations and instance-hardness functionals.

The target sampling proportions of all clients are characterized by one
positive vector over the arms (the *global vector*): each client normalizes
its restriction to its own arm set.  Per equivalence class of co-resident
arms, the global vector is the unique all-positive unit eigenvector of a
nonnegative matrix ``H = D C`` built from the separation gaps and ownership
counts (``D`` positive diagonal, ``C`` the symmetric co-ownership counts).
It is computed per class by LAPACK's symmetric eigensolver on
``D^(1/2) C D^(1/2)``, after ``D`` is scaled by an even power of two per row
(so the vector keeps its bits when every mean is scaled by a power of two).
The solver is ``numpy.linalg._umath_linalg.eigh_lo``, the gufunc that
``numpy.linalg.eigh`` wraps for float64 and ``UPLO="L"``, called directly:
the wrapper's error-state context, type probing and ``astype`` copies cost
more than the solve itself on class blocks of a few arms, and the server
solves at every communication instant.  The result is accepted only
under a componentwise certificate: every entry positive and
``|(Hx)_i - lambda x_i| <= 1e-10 * lambda x_i``.  One power step from the
solver's vector always runs and certifies as a rule; where it does not (on
gaps spread over many decades), power iteration goes on until it does.

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
from numpy.linalg import _umath_linalg

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
    "slot_global_vector",
    "allocation_from_global",
    "optimal_allocation",
    "g_tilde",
    "g_tilde_per_class",
    "g_exact",
    "c_star_interval",
    "balance_residuals",
]

# Weights at or below this are treated as exact zeros in the rate functionals.
ZERO_WEIGHT = 1e-300

_ROW_SUM_TOL = 1e-12

# Componentwise relative eigen-residual a global vector must certify.
CERTIFICATE_TOL = 1e-10

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


def _perron_polish(blocks: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified Perron vectors and eigenvalues of nonnegative blocks ``(B, n, n)``.

    Iterates ``x <- Hx / |Hx|`` from ``|start|`` (starts ``(B, n, 1)``) until
    every entry of ``x`` is positive and ``|(Hx)_i - lambda x_i| <=
    CERTIFICATE_TOL * lambda x_i`` with ``lambda = x . Hx``.  The first step
    is straight-line code with one whole-stack check, and runs even from a
    start that would pass: it makes the entries of arms with identical rows
    bitwise equal, which an eigensolver does not, and D-tracking breaks an
    exact weight tie at random but a last-bit difference deterministically.
    Otherwise each block iterates until its own certificate holds.  Each
    result equals that block's alone bit for bit (stacked ``@`` runs the
    same products, and the norm is ``sqrt(y . y)``, as ``numpy.linalg.norm``
    computes it for one vector).  Raises :class:`PowerIterationError` when
    the iterate vanishes or no certificate holds within ``_MAX_POWER_STEPS``,
    and ``numpy.linalg.LinAlgError`` at once on a non-finite start (the
    eigensolver's NaNs where it did not converge).
    """
    y = blocks @ np.abs(starts)
    x = y / np.sqrt(y.mT @ y)
    y = blocks @ x
    lam = x.mT @ y
    if _certified(x, y, lam):
        return x[..., 0], lam[:, 0, 0]
    if not np.isfinite(starts).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    todo = np.arange(len(blocks))  # blocks still iterating
    vectors, values = np.empty(starts.shape[:2]), np.empty(len(blocks))
    for _ in range(1, _MAX_POWER_STEPS):  # the first step is taken
        if len(todo) > 1:  # a lone block's check was the whole-stack one
            done = _residuals(x, y, lam) <= CERTIFICATE_TOL
            if np.logical_or.reduce(done):
                rows = todo[done]
                vectors[rows], values[rows] = x[done, :, 0], lam[done, 0, 0]
                keep = ~done
                blocks, y, todo = blocks[keep], y[keep], todo[keep]
        norm = np.sqrt(y.mT @ y)
        if np.minimum.reduce(norm, axis=None) == 0.0:
            raise PowerIterationError("iterate vanished; block is not irreducible")
        x = y / norm
        y = blocks @ x
        lam = x.mT @ y
        if _certified(x, y, lam):
            vectors[todo], values[todo] = x[..., 0], lam[:, 0, 0]
            return vectors, values
    raise PowerIterationError(
        f"no certified positive eigenvector within {_MAX_POWER_STEPS} power steps",
        float(np.maximum.reduce(_residuals(x, y, lam))),
    )


def _certified(x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> bool:
    """Whether every block of a nonnegative stack certifies at ``x``, ``y = Hx`` and ``x . y``.

    A nonnegative block keeps ``x`` and ``lam`` nonnegative, so every
    ``lam * x_i`` is positive exactly when ``lam`` and every ``x_i`` are (an
    underflow to 0 fails either way, as the residual would divide by it).
    """
    scaled = lam * x
    return bool(
        np.minimum.reduce(scaled, axis=None) > 0.0
        and np.maximum.reduce(np.abs(y - scaled) / scaled, axis=None) <= CERTIFICATE_TOL
    )


def _residuals(x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per block, ``max_i |y_i - lam x_i| / (lam x_i)``.

    ``inf`` unless every ``lam x_i`` is positive.
    """
    scaled = lam * x
    ratio = np.full(scaled.shape, np.inf)
    np.divide(np.abs(y - scaled), scaled, out=ratio, where=scaled > 0.0)
    return np.maximum.reduce(ratio, axis=(1, 2))


def slot_global_vector(index: SlotIndex, stats: ArmStats) -> np.ndarray:
    """Class-wise certified Perron vectors of ``H = D C``, assembled over the arms.

    Per class (see :func:`_class_vector`), LAPACK's ``eigh`` on the
    symmetric ``D^(1/2) C D^(1/2)`` gives ``x = D^(1/2) v`` for its top
    eigenvector ``v``, and :func:`_perron_polish` certifies it.  Stacked
    stats (admissible in every row) give one vector per row: the
    eigensolver and the polish run once per class size over rows and classes
    stacked, and each row's class equals that class and row alone bit for bit.
    """
    scale = _inverse_scale(index, stats)
    rows = scale.reshape(-1, index.num_arms)
    if len(index.partition.classes) == 1:  # one class holds every arm, in order
        return _class_vector(rows[:, :, None], index.co_ownership).reshape(scale.shape)
    entries = np.empty(rows.shape)
    for arms, blocks in index.class_blocks:  # (c, n) arms and (c, n, n) blocks, stacked B * c
        d = rows[:, arms].reshape(-1, arms.shape[1], 1)
        vectors = _class_vector(d, np.tile(blocks, (len(rows), 1, 1)))
        entries[:, arms] = vectors.reshape(len(rows), *arms.shape)
    return entries.reshape(scale.shape)


def _class_vector(d: np.ndarray, co: np.ndarray) -> np.ndarray:
    """Polished vectors ``(B, n)`` of ``(B, n, 1)`` diagonals and ``(n, n)`` or ``(B, n, n)`` blocks.

    Each row of ``d`` is first scaled by ``4^-k`` to a largest entry in
    ``[1/2, 2)``.  Every product, sum, square root (``sqrt(d) 2^-k``) and
    quotient below then scales exactly: the bits do not depend on the scale
    of the gaps, and nothing moves on gaps of normal scale.  And the first
    polish step's ``y . y`` is a normal float: for the exact top eigenvector
    ``v`` of ``S = D^(1/2) C D^(1/2)`` (eigenvalue ``lambda``), the start
    ``x = D^(1/2) v`` has ``y = Hx = lambda x``, ``|x|^2 = v.Dv < 2`` and
    ``lambda = x.Cx <= n M |x|^2`` on a class of ``n`` arms and ``M``
    clients (``C`` has entries at most ``M``), so
    ``lambda^3 / (n M) <= |y|^2 <= 2 lambda^2``.  The Perron root lies
    between the largest diagonal entry and the largest row sum of ``H``,
    ``1/2 <= lambda <= 2 n M``, so ``2^-3 / (n M) <= |y|^2 <= 8 (n M)^2``.
    """
    _, e = np.frexp(np.maximum.reduce(d, axis=1, keepdims=True))  # max d in [2^(e-1), 2^e)
    d = np.ldexp(d, (e & 1) - e)
    root = np.sqrt(d)
    _, vectors = _umath_linalg.eigh_lo(root * co * root.mT, signature="d->dd")
    return _perron_polish(d * co, root * vectors[:, :, -1:])[0]


def _client_weights(index: SlotIndex, gvec: np.ndarray) -> list[list[list[float]]]:
    """Per row of ``(B, K)`` global vectors, each client's normalized restriction ``g / g.sum()``.

    This is the allocation a client tracks.  Clients of one arm-set size are
    gathered into a C-contiguous ``(B, n, size)`` array and summed along its
    last axis, which runs the same sum as ``g.sum()`` on one client's vector,
    so every weight equals the one-client computation bit for bit.
    """
    groups = []
    for clients, arms in index.clients_by_size:
        g = gvec.take(arms, axis=1)
        groups.append((clients, (g / np.add.reduce(g, axis=-1, keepdims=True)).tolist()))
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
    stack: SlotIndex, slot_values: np.ndarray, best: np.ndarray, separations: np.ndarray
) -> np.ndarray:
    """``min ((mu_1 - mu_2)^2 / 2) / (T_1 + T_2)`` over the confusion pairs, one per row.

    Slot ``s`` pairs its client's best arm ``best[s]`` with its own arm unless
    the two are one: each client's best arm against every other arm it owns.
    ``separations[s]`` is the pair's ``mu_1 - mu_2``, the global mean of
    ``best[s]`` less that of the slot's arm.
    ``T_i = (1 / mult_i^2) * sum 1/value`` over the slots of arm ``i``, where a
    zero value counts as ``1/0 = inf`` (so every pair touching it has rate 0).
    On pull counts this is ``Z(t)``; on slot-ordered weights, ``g_exact``.
    ``slot_values`` may stack configurations as ``(B, K')`` rows, and
    ``stack`` is then ``index.stacked(B)``; ``best`` and ``separations`` are
    ``(B, K')`` (``(1, K')`` for one configuration), ``best`` names arms as
    the stack does (arm ``i`` of row ``b`` is ``b * K + i``), and the minimum
    is taken per row.
    """
    values = np.ravel(slot_values)
    with np.errstate(divide="ignore"):  # a zero value counts as 1/0 = inf
        recip = 1.0 / values
    T = (
        np.bincount(stack.slot_arm, weights=recip, minlength=stack.num_arms)
        / stack.squared_multiplicities
    )
    own = stack.arm_rows
    rates = separations * separations / 2.0 / (T[best] + T[own])
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
    best = _confusion_best(index, stats)[None]
    if w is None:
        return 0.0
    means = stats.global_means
    return float(_confusion_rate(index, w, best, means[best] - means[index.arm_rows])[0])


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
