"""Client and server decision rules for the track-and-stop protocol.

Clients pull arms with a D-tracking rule steered by the latest broadcast
global vector (falling back to forced exploration whenever some arm's pull
count drops below ``sqrt((t-1)/|S_m|)``), or uniformly for the baseline.
Neither rule looks at rewards, so a client advances a whole block between
two communication instants in one call (:func:`track_pulls`,
:func:`uniform_pulls`).  The server, at exponentially spaced communication
instants, evaluates a generalized-likelihood-ratio statistic against the
threshold ``K' * log(t^2 + t) + f_inverse(delta)`` and either stops with a
recommendation or broadcasts a fresh global vector.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .allocation import _confusion_rate, slot_global_vector
from .instance import ArmStats, SlotIndex

__all__ = [
    "CommSchedule",
    "track_pulls",
    "uniform_pulls",
    "slot_server_vector",
    "slot_z_statistic",
    "f_eval",
    "f_inverse",
    "should_stop",
]


# Relative error allowed for the float estimates of CommSchedule (see _grow).
_ESTIMATE_ERROR = 2.0**-44


class CommSchedule:
    """Deduplicated communication instants ``ceil((1+lam)^r)``, lazily grown.

    ``q = 1 + lam`` is taken as the float it rounds to, and every instant
    is exact for that ``q``, for arbitrarily large times.  Each instant
    remembers the smallest exponent ``r`` that produces it, which is the
    protocol's round index (repeated values of the ceiling collapse to a
    single instant but keep their first exponent).  Each instant costs a
    few float operations, however many rounds it skips; the exact integer
    power is computed only when the float estimate cannot decide (see
    :meth:`_grow`).

    ``1 + lam`` must exceed 1 as a float, or no power ever passes the first
    instant.
    """

    def __init__(self, lam: float) -> None:
        if not (lam > 0.0) or not math.isfinite(lam):
            raise ValueError("lam must be a positive finite real")
        if 1.0 + lam == 1.0:
            raise ValueError(f"lam must not vanish against 1 (1 + lam == 1), got {lam!r}")
        self.lam = float(lam)
        q = 1.0 + self.lam
        num, den = q.as_integer_ratio()
        self._num = num
        self._shift_step = den.bit_length() - 1  # den is a power of two
        self._log_q = math.log1p(q - 1.0)  # log(q): q - 1 is exact below 2**53
        self._power = (0, 1)  # the last (r, num**r) computed
        self._instants: list[int] = []
        self._exponents: list[int] = []

    def _grow(self) -> None:
        """Append the next instant: ``ceil(q^r)`` for the least ``r`` with ``q^r > last``.

        That ``r`` is ``floor(x) + 1`` for ``x = log(last) / log(q)``, and
        the instant is ``ceil(v)`` for ``v = exp(r log(q))``.  Both come from
        floats.  If ``math.log``, ``math.log1p`` and ``math.exp`` are each
        within ``2**-47`` of the exact value, relative (32 ulp; libms in
        common use stay within a few), the computed ``x`` is within
        ``2**-45.9 * x`` of the exact value, and for ``y = r log(q) < 700``
        the computed ``v`` is within ``2**-46.9 * (y + 1) * v`` of ``q^r``.
        Each estimate is used only when the interval of ``_ESTIMATE_ERROR``
        (``2**-44``) times that scale around it holds no integer: then it
        decides the floor, or the ceiling.  Otherwise exact integer
        comparisons of ``q^r`` with ``last`` settle ``r``, and the exact
        power gives the instant; each power extends the last one computed,
        so a run of instants past the float range costs what stepping the
        power round by round would.
        """
        last = self._instants[-1] if self._instants else 1
        x = math.log(last) / self._log_q
        margin = x * _ESTIMATE_ERROR
        r = math.floor(x - margin) + 1  # at most the least r
        if r != math.floor(x + margin) + 1:
            while not self._exact_power(r) > last << (self._shift_step * r):  # q^r <= last
                r += 1
        y = r * self._log_q
        ceiling = 0  # ceil(q^r), once decided
        if y < 700.0:
            v = math.exp(y)
            margin = v * (y + 1.0) * _ESTIMATE_ERROR
            if v - margin > math.floor(v + margin):  # no integer from v - margin to v + margin
                ceiling = math.floor(v + margin) + 1
        if not ceiling:
            ceiling = -((-self._exact_power(r)) >> (self._shift_step * r))
        self._instants.append(ceiling)
        self._exponents.append(r)

    def _exact_power(self, r: int) -> int:
        """``num**r``, with ``q = num / 2**shift_step``, from the last power computed."""
        last_r, power = self._power
        power = power * self._num ** (r - last_r) if r >= last_r else self._num**r
        self._power = (r, power)
        return power

    def _ensure_value(self, t: int) -> None:
        while not self._instants or self._instants[-1] < t:
            self._grow()

    def instants(self, count: int) -> list[int]:
        """First ``count`` distinct instants."""
        while len(self._instants) < count:
            self._grow()
        return self._instants[:count]

    def is_instant(self, t: int) -> bool:
        self._ensure_value(t)
        k = bisect_left(self._instants, t)
        return k < len(self._instants) and self._instants[k] == t

    def round_exponent(self, t: int) -> int:
        """Smallest exponent ``r`` with ``ceil((1+lam)^r) == t`` (round index)."""
        self._ensure_value(t)
        k = bisect_left(self._instants, t)
        if k >= len(self._instants) or self._instants[k] != t:
            raise ValueError(f"{t} is not a communication instant")
        return self._exponents[k]

    def __iter__(self):
        k = 0
        while True:
            while len(self._instants) <= k:
                self._grow()
            yield self._instants[k]
            k += 1


def track_pulls(
    counts: list[float], weights: list[float], t: int, stop: int, rng: np.random.Generator
) -> list[float]:
    """Advance one client's D-tracking pull ``counts`` over steps ``t+1..stop``, in place.

    At step ``s`` the client pulls a least-pulled arm whenever the minimum
    count is below ``sqrt((s-1)/|S_m|)`` (forced exploration), and otherwise
    the arm minimizing ``count - s * weight``; ties are broken uniformly by
    ``rng.integers(number of tied arms)``, drawn only when there is a tie.
    No reward enters the rule, so a whole block between two communication
    instants is one call.

    The forced check runs at a step ``s`` with minimum count ``low``; if it
    does not fire, the steps through ``low^2 * |S_m|`` (an exact integer)
    cannot fire either, since counts only grow and ``/`` and ``sqrt`` are
    correctly rounded, so they run as one inner loop without the check.
    That loop keeps the step as a float: every count and step up to 2**53
    (the largest step cap an episode accepts) converts to a float exactly,
    so ``count - s * weight`` is the same float whether the counts are ints
    or whole-number floats, and so is every argmin, every exact tie and
    every draw.  Each entry keeps its type (a pull adds the int 1); callers
    that advance a client many times keep its counts as floats, which
    spares a conversion per step.
    """
    size = len(counts)
    arms = range(size)
    pairs = tuple(enumerate(weights))
    first, rest = weights[0], pairs[1:]
    while t < stop:
        t += 1
        low = min(counts)
        if low < math.sqrt((t - 1) / size):
            ties = [k for k in arms if counts[k] == low]
            counts[ties[0] if len(ties) == 1 else ties[rng.integers(len(ties))]] += 1
            continue
        last = min(stop, max(t, int(low) ** 2 * size))  # no forced pull through this step
        s, end = float(t), float(last)
        while True:
            best, pick, tied = counts[0] - s * first, 0, False
            for k, w in rest:
                score = counts[k] - s * w
                if score < best:
                    best, pick, tied = score, k, False
                elif score == best:
                    tied = True
            if tied:
                ties = [k for k, w in pairs if counts[k] - s * w == best]
                pick = ties[rng.integers(len(ties))]
            counts[pick] += 1
            if s == end:
                break
            s += 1.0
        t = last
    return counts


def uniform_pulls(size: int, pulls: int | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pull counts of ``pulls`` uniform choices over ``size`` arms: one multinomial draw.

    An array of block lengths gives one row of counts per block, the values
    and stream state of one call per block.
    """
    return rng.multinomial(pulls, _uniform_probabilities(size))


@lru_cache(maxsize=64)
def _uniform_probabilities(size: int) -> np.ndarray:
    probabilities = np.full(size, 1.0 / size)
    probabilities.flags.writeable = False
    return probabilities


def slot_server_vector(index: SlotIndex, stats: ArmStats) -> np.ndarray:
    """Global vector to broadcast for empirical ``stats``; all-ones when inadmissible.

    Stacked stats give one vector per row, all-ones on the inadmissible rows.
    """
    if stats.all_admissible:
        return slot_global_vector(index, stats)
    admissible = stats.is_admissible()
    out = np.ones(stats.gaps.shape)
    if admissible.any():
        out[admissible] = slot_global_vector(index, stats.rows(admissible))
    return out


def slot_z_statistic(
    index: SlotIndex, stats: ArmStats, slot_counts: np.ndarray
) -> float | np.ndarray:
    """Distance of the empirical configuration from the nearest alternative.

    Evaluated on raw pull counts (one per slot) by the pairing helper of
    ``allocation.g_exact``: the minimum over confusion pairs (each client's
    best arm against every other arm it owns) of ``(mu1 - mu2)^2 / 2``
    divided by the two arms' reciprocal-count sums (scaled by squared
    multiplicities).  Zero when the empirical
    configuration has a tied best arm or when any count entering a pair is
    zero.  ``stats`` are :func:`~hetbai.instance.slot_stats`' own, whose
    ``top_arms`` give each client's best arm in the stack's numbering and
    whose ``separations`` give each pair's difference of means.
    Stacked ``(B, K')`` counts with stacked ``stats`` give one value per
    row, each equal to that row's value alone.
    """
    counts = np.asarray(slot_counts)
    stack = index.stacked(counts.size // index.num_slots)
    best = stats.top_arms[stack.client_rows]
    z = _confusion_rate(stack, counts, best, stats.separations.reshape(best.shape))
    if stats.all_admissible:
        return float(z[0]) if counts.ndim == 1 else z
    return 0.0 if counts.ndim == 1 else np.where(stats.is_admissible(), z, 0.0)


def _log_tail(x: float, log_factorials: np.ndarray) -> tuple[float, float]:
    """``log f(x)`` and its derivative in ``x``, with ``K' = len(log_factorials)``.

    ``log f(x) = log sum_{i<K'} exp(i log x - x - log i!)`` by log-sum-exp;
    the derivative is ``-exp(last term - log f(x))``.
    """
    terms = np.arange(len(log_factorials)) * math.log(x) - x - log_factorials
    top = float(terms.max())
    value = top + math.log(float(np.exp(terms - top).sum()))
    return value, -math.exp(float(terms[-1]) - value)


def _log_factorials(kprime: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(kprime)])


def f_eval(x: float, kprime: int) -> float:
    """Tail weight ``sum_{i=1}^{K'} x^(i-1) e^(-x) / (i-1)!``; decreasing in x.

    Evaluated in log space, so it stays accurate where ``e^(-x)`` underflows
    (large ``K'``); it returns 0 only where the tail itself underflows.
    """
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    if not (x > 0.0):
        raise ValueError("x must be positive")
    return math.exp(_log_tail(x, _log_factorials(kprime))[0])


def f_inverse(delta: float, kprime: int) -> float:
    """Unique ``x`` with ``f_eval(x, kprime) == delta``, by Newton's method on ``log f``.

    ``log(1/delta)`` is exact for ``kprime == 1`` and a lower bound
    otherwise.  With ``T(x) = x^(K'-1) e^(-x) / (K'-1)!``, the last term of
    the tail series, ``T <= f <= K' T`` for ``x >= K' - 1``, so
    ``l <= f_inverse(delta, K') <= u`` where ``l`` and ``u`` are the roots
    ``>= K' - 1`` of ``T(x) = delta`` and ``K' T(x) = delta`` (whenever
    ``delta < T(K' - 1)``); acceptance criterion 4b checks this bracket.
    The start is widened by doubling until the tail is below
    ``delta``.  ``f`` is the survival function of a Gamma(K') law, which is
    log-concave, so Newton steps from the right of the root decrease
    monotonically onto it.  Roots are kept per ``(delta, kprime)`` and
    argument types, so every episode of a process shares its delta's.
    """
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return _f_root(delta, kprime)


@lru_cache(maxsize=1024, typed=True)  # typed: 1.0 / delta is float32 for a float32 delta
def _f_root(delta: float, kprime: int) -> float:
    base = math.log(1.0 / delta)
    if kprime == 1:
        return base
    log_delta = math.log(delta)
    log_factorials = _log_factorials(kprime)
    span = 2.0 * kprime * (math.log(base + 3.0) + kprime)
    x = base + span
    while _log_tail(x, log_factorials)[0] >= log_delta:
        span *= 2.0
        x = base + span
    for _ in range(100):
        value, slope = _log_tail(x, log_factorials)
        step = (value - log_delta) / slope
        x -= step
        if abs(value - log_delta) <= 1e-12 or abs(step) <= 1e-15 * x:
            return x
    return x


def should_stop(
    z: float | np.ndarray, t: int, offset: float | np.ndarray, kprime: int, num_arms: int
) -> tuple:
    """Stopping decision and threshold ``beta = K' * log(t^2 + t) + offset`` at instant ``t``.

    ``offset`` is ``f_inverse(delta, kprime)``, which depends on neither
    ``t`` nor the data, so an episode computes it once and passes it here.
    A batch passes ``z`` and ``offset`` as arrays with one entry per
    episode, each episode with its own ``delta``, and gets arrays back.  No
    stop fires while ``t < num_arms``.
    """
    beta = kprime * math.log(t * t + t) + offset
    stop = z > beta
    return (stop if t >= num_arms else stop & False), beta
