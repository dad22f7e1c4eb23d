"""Span tracing from outside the program.

`Tracer.install` wraps every public function of corridor's six modules and
rebinds each wrapper under every name that refers to the original, in every
one of those modules: `sim` and `cli` import with `from .x import y`, so
wrapping only the defining module would miss their calls.  Spans (name,
start, end, parent) stay in flat lists until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("network", "kinematics", "scheduler", "trajectory", "sim", "cli")


def _solve_counts(counters, result):
    counters["scheduler.solve.nodes"] += result[1].nodes


def _centralized_counts(counters, result):
    stats = result[1]
    counters["scheduler.solve_centralized.nodes"] += stats.nodes
    counters["scheduler.solve_centralized.proven"] += int(stats.optimal)


def _run_counts(counters, result):
    m = result.metrics
    counters["sim.repairs"] += m.repairs
    counters["sim.holds"] += m.holds
    counters["sim.fallbacks"] += m.fallbacks


# counters read off return values at the layer boundary
HOOKS = {
    "scheduler.solve": _solve_counts,
    "scheduler.solve_centralized": _centralized_counts,
    "sim.run": _run_counts,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        hook, counters, clock = HOOKS.get(name), self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"corridor.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()

    def mark(self) -> int:
        """Span count so far; spans from a mark on belong to what follows it."""
        return len(self.names)

    def summary(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over spans lo..hi-1.

        Self time is a span's duration minus its direct children's durations.
        """
        dur = np.asarray(self.ends[lo:hi]) - np.asarray(self.starts[lo:hi])
        parents = np.asarray(self.parents[lo:hi], dtype=np.int64) - lo
        own = dur.copy()
        inside = parents >= 0
        np.subtract.at(own, parents[inside], dur[inside])
        out: dict[str, tuple[int, float]] = {}
        names = self.names[lo:hi]
        for name, s in zip(names, own.tolist()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + s)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("span,name,start,end,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                f.write(f"{i},{n},{s!r},{e!r},{p}\n")
