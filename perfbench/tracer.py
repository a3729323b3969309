"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of the ``netlist``, ``adders``,
``solver``, ``analysis`` and ``cli`` modules by rebinding module attributes.
Every loaded ``mvladders`` module that holds a reference to a wrapped
function (its defining module, or one that did ``from .x import f``) gets the
wrapper, so calls made through module globals are traced and no file of the
package is edited.  ``cli.ThreadPoolExecutor`` is rebound to a subclass that
records the pool's lifetime and one span per job.

Spans are kept in memory and folded into per-layer statistics at the end of
each benchmark pass.  A span's self time is its duration minus the part of
it covered by its child spans (children may run on other threads).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("netlist", "adders", "solver", "analysis", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters taken from a wrapped call's arguments and return value.  Each
# returns a dict of numbers, plus optionally "key" (a hashable identifying the
# call for the unique fraction) and "keep" (an object to hold alive so that
# an id() inside "key" is not reused during the pass).


def _count_solve_dc(args, kwargs, result):
    # Key on the source netlist: a compiled netlist is rebuilt per analysis
    # call, while the design's netlist object is shared by every call on it.
    nl = _arg(args, kwargs, 0, "nl")
    nl = getattr(nl, "netlist", nl)
    inputs = _arg(args, kwargs, 1, "inputs")
    return {
        "sweeps": getattr(result, "iterations", 0),
        "key": (id(nl), tuple(sorted(inputs.items()))),
        "keep": nl,
    }


def _count_solve_dc_batch(args, kwargs, result):
    inputs = _arg(args, kwargs, 1, "inputs")
    vectors = len(next(iter(inputs.values()))) if inputs else 0
    return {"vectors": vectors, "sweeps": getattr(result, "iterations", 0)}


def _count_step_waveforms(args, kwargs, result):
    return {"steps": len(result)}


COUNTERS = {
    "solver.solve_dc": _count_solve_dc,
    "solver.solve_dc_batch": _count_solve_dc_batch,
    "solver.step_waveforms": _count_step_waveforms,
}

POOL = "cli.pool"
POOL_JOB = "cli.pool.job"


class Tracer:
    """Install with :meth:`install`, fold spans with :meth:`collect`."""

    def __init__(self) -> None:
        self._spans: list[tuple] = []  # (name, start, end, id, parent, counts)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def _call(self, name, fn, count, parent, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            counts = None
            if count and result is not None:
                try:
                    counts = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature or result type reads as no counts
            self._spans.append((name, start, end, sid, parent, counts))

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, count, None, args, kwargs)

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._span_id = next(tracer._ids)
                self._span_parent = tracer.current()
                self._span_start = perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                sid = self._span_id

                def job(*a, **k):
                    return tracer._call(POOL_JOB, fn, None, sid, a, k)

                return super().submit(job, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                end = perf_counter()
                capacity = self._max_workers * (end - self._span_start)
                tracer._spans.append(
                    (POOL, self._span_start, end, self._span_id,
                     self._span_parent, {"capacity": capacity})
                )

        return TracedPool

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"mvladders.{layer}")
            if module is None:
                continue  # a layer that no longer exists reports zeros
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "mvladders" and not modname.startswith("mvladders."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cli = sys.modules.get("mvladders.cli")
        if getattr(cli, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._undo.append((cli, "ThreadPoolExecutor", ThreadPoolExecutor))
            cli.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- folding ----------------------------------------------------------

    def collect(self) -> dict[str, dict[str, float]]:
        """Fold and clear the recorded spans.

        Returns ``{span name: {"s": self time, "total": summed duration,
        "calls": count, <counter>: sum, "unique": distinct keys}}``.
        """
        spans, self._spans = self._spans, []
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, sid, parent, counts in spans:
            children.setdefault(parent, []).append((start, end))
        stats: dict[str, dict[str, float]] = {}
        keys: dict[str, set] = {}
        for name, start, end, sid, parent, counts in spans:
            st = stats.setdefault(name, {"s": 0.0, "total": 0.0, "calls": 0})
            st["calls"] += 1
            st["total"] += end - start
            st["s"] += end - start - _covered(start, end, children.get(sid, ()))
            if counts:
                for k, v in counts.items():
                    if k == "key":
                        keys.setdefault(name, set()).add(v)
                    elif k != "keep":
                        st[k] = st.get(k, 0) + v
        for name, seen in keys.items():
            stats[name]["unique"] = len(seen)
        return stats


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
