"""Client and server decision rules for the track-and-stop protocol.

Clients pull arms with a D-tracking rule steered by the latest broadcast
global vector (falling back to forced exploration whenever some arm's pull
count drops below ``sqrt((t-1)/|S_m|)``), or uniformly for the baseline.
Neither rule looks at rewards, so a client advances a whole block between
two communication instants in one call (:func:`track_pulls`,
:func:`uniform_pulls`); D-tracking's steps between forced checks run in a
loop compiled once per arm-set size (1.5-1.8 times faster per step than a
loop over the arms; +21.9% episodes/s on ``rho50-pull``), which picks each
step's arm by a tree of comparisons up to 4 arms and by a scan beyond
(13-26% less per step than the scan at 2-4 arms; +17% on ``rho50-pull``,
whose arm sets have 3).  The server, at exponentially spaced communication
instants (each from a float estimate: 0.2 ms for 200 at ``lam = 1e-4``,
against 8.1 s by exact powers alone; 2-vCPU Xeon), evaluates a
generalized-likelihood-ratio statistic against the threshold
``K' * log(t^2 + t) + f_inverse(delta)`` and either stops with a
recommendation or broadcasts a fresh global vector.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .allocation import _confusion_rate, slot_global_vector
from .instance import ArmStats, SlotIndex, _is_real

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
        problem = _lambda_problem(lam)
        if problem:
            raise ValueError(problem)
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
    instants is one call.  ``weights`` has one entry per count.

    The forced check runs at a step ``s`` with minimum count ``low``; if it
    does not fire, the steps through ``low^2 * |S_m|`` (an exact integer)
    cannot fire either, since counts only grow and ``/`` and ``sqrt`` are
    correctly rounded, so they run as one unforced loop without the check.
    That loop keeps the step as a float: every count and step up to 2**53
    (the largest step cap an episode accepts) converts to a float exactly,
    so ``count - s * weight`` is the same float whether the counts are ints
    or whole-number floats, and so is every argmin, every exact tie and
    every draw.  Each entry keeps its type (a pull adds 1.0 when every
    count is a float, the int 1 otherwise); callers that advance a client
    many times keep its counts as floats, which spares a conversion per
    step and lets each pull take Python's float-to-float add.

    The unforced loop is straight-line code for the arm-set size, with each
    arm's count, weight and score in a local of its own: a loop over the
    arms spends most of a step on iterating, unpacking and subscripting, not
    on the scores.  Up to ``_TREE_ARMS`` (4) arms a step picks its arm by a
    tree of comparisons whose leaves are the increments, so it keeps no
    running pick; larger sets scan (see :func:`_compile_tracker`).  The
    loop is generated from the size alone, never from data, and compiled on
    the first call with that size; the process keeps it.
    """
    size = len(counts)
    if not size or len(weights) != size:
        raise ValueError(
            f"need arms and one weight per pull count, got {len(weights)} weights for {size} counts"
        )
    track = _TRACKERS.get(size) or _compile_tracker(size)
    while t < stop:
        t += 1
        low = min(counts)
        if low < math.sqrt((t - 1) / size):
            _pull_least(counts, counts, rng)  # a least-pulled arm
            continue
        last = min(stop, max(t, int(low) ** 2 * size))  # no forced pull through this step
        track(counts, weights, float(t), float(last), rng)
        t = last
    return counts


# The unforced loop of track_pulls for each arm-set size, compiled on first use.
_TRACKERS: dict = {}

# Largest arm-set size whose unforced loop picks its arm by a comparison tree;
# larger sets scan (see _compile_tracker for the per-step table behind it).
_TREE_ARMS = 4

# Source of that loop for arms 0..size-1: c<k>, w<k> and a<k> hold arm k's
# count, weight and score; each step pulls one arm and ends at ``end``.
_TRACKER = """\
def track(counts, weights, s, end, rng):
    {counts} = counts
    {weights} = weights
    one = 1.0 if {all_float} is float else 1  # a float plus a float is Python's fast add
    while True:
{scores}{pick}        if s == end:
            break
        s += 1.0
    counts[:] = {counts}
"""
_TRACKER_SCAN = """\
        if a{k} <= best:
            if a{k} < best:
                best, pick, tied = a{k}, {k}, False
            else:
                tied = True
"""


def _compile_tracker(size: int):
    """Compile and keep ``track(counts, weights, s, end, rng)``: the unforced loop of ``size``.

    It pulls the arm of least score ``count - s * weight`` at every step
    ``s`` from ``s`` to ``end`` (floats), then writes the counts back into
    ``counts``.  Up to ``_TREE_ARMS`` arms the step walks a tree of strict
    ``<`` comparisons of each score against the least one so far, whose
    leaves are the increments themselves; an exact ``==`` on the way hands
    the step to :func:`_pull_least`, which draws among the least scores as
    :func:`track_pulls` says (no draw when the least turns out unique).
    The tree has ``2**(size-1)`` leaves, so larger sets scan the scores
    instead, noting the first least arm and whether another ties it, and
    find that arm's count by a binary search.  Nanoseconds per step, scan
    against tree (medians of 31 interleaved 20,000-step calls, Dirichlet(2)
    weights, 2-vCPU Xeon, Python 3.11): 2 arms 108 against 80, 3 arms 149
    against 117, 4 arms 181 against 157, 5 arms 238 against 211, 6 arms 296
    against 254.  From 5 arms on the tree's source is twice the scan's and
    doubles with each arm (90 lines at 5, 171 at 6), for about a tenth of
    a step.
    """
    arms = range(size)
    counts, scores = "".join(f"c{k}, " for k in arms), "".join(f"a{k}, " for k in arms)
    tie = f"{counts}= pull_least(({scores}), [{counts}], rng)\n"
    if size <= _TREE_ARMS:
        pick = _tree(1, 0, size, tie, " " * 8)
    else:
        pick = (
            "        best, pick, tied = a0, 0, False\n"
            + "".join(_TRACKER_SCAN.format(k=k) for k in arms[1:])
            + f"        if tied:\n            {tie}"
            + f"        else:\n{_increment(0, size, ' ' * 12)}"
        )
    source = _TRACKER.format(
        counts=counts,
        weights="".join(f"w{k}, " for k in arms),
        all_float=" is ".join(f"type(c{k})" for k in arms),
        scores="".join(f"        a{k} = c{k} - s * w{k}\n" for k in arms),
        pick=pick,
    )
    namespace = {"pull_least": _pull_least}
    exec(compile(source, f"<track_pulls, {size} arms>", "exec"), namespace)
    _TRACKERS[size] = track = namespace["track"]
    return track


def _tree(k: int, least: int, size: int, tie: str, indent: str) -> str:
    """Source adding 1 to the count of least score, ``a<least>`` being least of arms ``0..k-1``."""
    if k == size:
        return f"{indent}c{least} += one\n"
    inner = indent + "    "
    return (
        f"{indent}if a{k} < a{least}:\n{_tree(k + 1, k, size, tie, inner)}"
        f"{indent}elif a{k} == a{least}:\n{inner}{tie}"
        f"{indent}else:\n{_tree(k + 1, least, size, tie, inner)}"
    )


def _pull_least(scores, counts: list, rng: np.random.Generator) -> list:
    """``counts`` with 1 added for an arm of least score, ties drawn as in :func:`track_pulls`."""
    low = min(scores)
    ties = [k for k, score in enumerate(scores) if score == low]
    counts[ties[0] if len(ties) == 1 else ties[rng.integers(len(ties))]] += 1
    return counts


def _increment(low: int, high: int, indent: str) -> str:
    """Source adding 1 to ``c<pick>`` for ``low <= pick < high``, by a binary search on ``pick``."""
    if high - low == 1:
        return f"{indent}c{low} += one\n"
    middle = (low + high) // 2
    inner = indent + "    "
    return (
        f"{indent}if pick < {middle}:\n{_increment(low, middle, inner)}"
        f"{indent}else:\n{_increment(middle, high, inner)}"
    )


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
    multiplicities).  Zero when the empirical configuration has a tied best
    arm (the tied pair's separation is exactly 0, and so is its rate) or when
    any count entering a pair is zero.  ``stats`` are
    :func:`~hetbai.instance.slot_stats`' own: ``top_arms`` give each client's
    best arm in the stack's numbering and ``separations`` each pair's
    difference of means.  Stacked ``(B, K')`` counts with stacked ``stats``
    give one value per row, each equal to that row's value alone.
    """
    counts = np.asarray(slot_counts)
    stack = index.stacked(counts.size // index.num_slots)
    best = stats.top_arms[stack.client_rows]
    z = _confusion_rate(stack, counts, best, stats.separations.reshape(best.shape))
    return float(z[0]) if counts.ndim == 1 else z


def _log_poisson(x: float, first: int, log_factorials: np.ndarray) -> float:
    """``log sum_i x^i e^(-x) / i!`` over ``i = first, ..., first + n - 1``, by log-sum-exp.

    ``log_factorials`` holds the ``n`` values ``log i!``.  From ``first = 0``
    with ``n = K'`` it is ``log f(x)``; from ``first = K'`` it is ``log(1 -
    f(x))``, up to the terms left out.
    """
    terms = np.arange(first, first + len(log_factorials)) * math.log(x) - x - log_factorials
    top = float(terms.max())
    return top + math.log(float(np.exp(terms - top).sum()))


def _log_factorials(start: int, stop: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(start, stop)])


def f_eval(x: float, kprime: int) -> float:
    """Tail weight ``sum_{i=1}^{K'} x^(i-1) e^(-x) / (i-1)!``; decreasing in x.

    Evaluated in log space, so it stays accurate where ``e^(-x)`` underflows
    (large ``K'``); it returns 0 only where the tail itself underflows.
    """
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    if not (x > 0.0):
        raise ValueError("x must be positive")
    return math.exp(_log_poisson(x, 0, _log_factorials(0, kprime)))


@lru_cache(maxsize=1024, typed=True)  # typed: 1.0 / delta is float32 for a float32 delta
def f_inverse(delta: float, kprime: int) -> float:
    """Unique ``x`` with ``f_eval(x, kprime) == delta``, by Newton's method on a log tail.

    ``f`` is the Gamma(K') survival function.  For ``delta <= 1/2`` Newton
    solves ``log f = log(delta)`` from the right of the root; above 1/2,
    where ``log(delta)`` shrinks below the rounding of ``log f``, it solves
    ``log(1 - f) = log1p(-delta)``, no less than ``log(2**-53)``, from the
    left.  ``f`` and ``1 - f`` are log-concave, so from either start the
    iterates move monotonically onto the root, and the loop stops at the
    first step that does not move ``x`` forward by more than ``1e-15 x``:
    the rounding floor of the log sum, with no test on its value.  With
    ``T(x) = x^(K'-1) e^(-x) / (K'-1)!``, the derivatives are ``-T / f``
    and ``T / (1 - f)``.

    Right start.  ``L = log(1/delta)``, finite for ``delta`` above
    ``2**-1024`` (``2**-128`` as a float32; a smaller one raises), is exact
    for ``kprime == 1`` and a lower bound otherwise.  ``T <= f <= K' T`` for
    ``x >= K' - 1``, so ``l <= f_inverse(delta, K') <= u`` for the roots
    ``l, u >= K' - 1`` of ``T = delta`` and ``K' T = delta`` (whenever
    ``delta < T(K' - 1)``); acceptance criterion 4b checks this bracket.  At
    ``x0 = L + 2K'(log(L + 3) + K') <= 2 (L + 3) (K' + 1)^2``, ``f <= K' T``,
    ``lgamma(K') >= 0`` and ``log y <= y - 1`` give ``log f(x0) < log(delta)
    - (K' + 1) log(L + 3) - 2`` for ``K' >= 2``.

    Left start.  ``1 - f`` is below ``x^K' / K'!``, so ``x0 = (K'! (1 -
    delta))^(1/K')`` is left of the root.  The root lies below the median,
    so below ``K'``, where each term of ``1 - f = sum_{i>=K'} x^i e^(-x) /
    i!`` is at most ``K' / (K' + m)`` times the one before; ``N = 60 + 10
    sqrt(K')`` terms leave out at most ``e^-50 (1 + sqrt(K')/10)`` of the
    sum.

    Roots are kept per ``(delta, kprime)`` and argument types, so every
    episode of a process shares its delta's.
    """
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    problem = _delta_problem(delta)
    if problem:
        raise ValueError(problem)
    if delta > 0.5:
        first, terms, sign = kprime, 60 + int(10.0 * math.sqrt(kprime)), 1.0
        target = math.log1p(-delta)
        x = math.exp((target + math.lgamma(kprime + 1)) / kprime)
    else:
        base = math.log(1.0 / delta)
        if kprime == 1:
            return base
        first, terms, sign = 0, kprime, -1.0
        target = math.log(delta)
        x = base + 2.0 * kprime * (math.log(base + 3.0) + kprime)
    log_factorials = _log_factorials(first, first + terms)
    log_norm = math.lgamma(kprime)  # log (K'-1)!
    for _ in range(100):
        value = _log_poisson(x, first, log_factorials)
        step = (target - value) / math.exp((kprime - 1) * math.log(x) - x - log_norm - value)
        if not step > 1e-15 * x:  # at the root, to the rounding of the log sum
            break
        x += sign * step
    return x


def _delta_problem(delta: float) -> str | None:
    """Why a real ``delta`` has no threshold: outside (0, 1), or ``1/delta`` overflows."""
    if not 0.0 < delta < 1.0:
        return f"delta {delta!r} outside (0, 1)"
    with np.errstate(over="ignore"):  # a numpy float warns where 1/delta overflows
        overflows = math.isinf(math.log(1.0 / delta))
    return f"delta {delta!r} too small: 1/delta overflows" if overflows else None


def _lambda_problem(lam: float) -> str | None:
    """Why ``lam`` has no schedule: not a number, not positive and finite, or lost against 1.

    An integer too large for a float is not finite.
    """
    if not _is_real(lam):
        return f"lambda must be a number, got {lam!r}"
    try:
        finite = math.isfinite(lam)
    except OverflowError:
        finite = False
    if not (finite and lam > 0.0):
        return f"lambda must be a positive finite number, got {lam!r}"
    if 1.0 + lam == 1.0:
        return f"lambda must not vanish against 1 (1 + lambda == 1), got {lam!r}"
    return None


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
