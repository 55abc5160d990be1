"""Per-layer tracing of hetbai from the outside, by wrapping its public functions.

Every function named in the ``__all__`` of a layer module is replaced, in
every ``hetbai`` module namespace that holds it (``hetbai.policy.arm_stats``,
``hetbai.allocation.arm_stats`` and ``hetbai.arm_stats`` are one function
imported three times), by a wrapper that counts calls and accumulates
inclusive and self time.  Self time is the call's duration minus the time
spent in wrapped calls it made.  Calls other than the per-pull ones also
record a span ``(id, parent id, name, start, end)``.  Nothing under ``src/``
is modified; ``uninstall`` puts the original function objects back.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from contextlib import contextmanager

LAYERS = ("instance", "allocation", "policy", "simulator", "ingest", "cli")

# Metric stems that differ from the function name.
ALIASES = {"perron_positive_eigenvector": "perron"}

# Called once per pull, or per bisection step inside f_inverse: counted and
# timed in aggregate only, since a span each would dominate what is measured.
UNSPANNED = {"policy.select_arm", "policy.observe", "policy.uniform_select", "policy.f_eval"}


def public_functions():
    """``(metric name, module, function)`` for every public layer function."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"hetbai.{layer}"]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out.append((f"{layer}.{ALIASES.get(attr, attr)}", module, fn))
    return out


class Tracer:
    """Call counts, inclusive/self times and spans for the wrapped functions."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self._child = [0.0]  # time spent in wrapped callees, one slot per open call
        self._open: list[int | None] = [None]  # ids of open spans
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def reset(self) -> None:
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self._child[:] = [0.0]
        self._open[:] = [None]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "hetbai" or n.startswith("hetbai.")]
        for name, _, fn in public_functions():
            rec = self.stats.setdefault(name, [0, 0.0, 0.0])
            wrapper = self._wrap(name, fn, rec, name not in UNSPANNED)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself; it carries no layer time."""
        sid = next(self._ids)
        parent = self._open[-1]
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append((sid, parent, name, start, time.perf_counter()))

    def _wrap(self, name, fn, rec, spanned):
        child = self._child
        clock = time.perf_counter
        if not spanned:
            def counted(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - child.pop()
                    child[-1] += dt

            return counted

        spans, open_, ids = self.spans, self._open, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = open_[-1]
            open_.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child.pop()
                child[-1] += dt
                open_.pop()
                spans.append((sid, parent, name, t0, t1))

        return traced

    # --- read-outs -------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def attributed_s(self) -> float:
        """Time inside any wrapped call: the sum of all self times."""
        return sum(rec[2] for rec in self.stats.values())

    def calls_under(self, names: set[str], ancestor: str) -> int:
        """Spans named in ``names`` that have a span named ``ancestor`` above them."""
        by_id = {s[0]: s for s in self.spans}
        count = 0
        for sid, parent, name, _, _ in self.spans:
            if name not in names:
                continue
            while parent is not None:
                up = by_id[parent]
                if up[2] == ancestor:
                    count += 1
                    break
                parent = up[1]
        return count
