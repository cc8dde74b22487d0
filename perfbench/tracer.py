"""Span tracing of cogaccess from outside the package.

Each public module-level function of a package module is replaced by a
wrapper that records a span (name, start, end, parent) in memory.  The
wrapper is installed under every name a caller can look the function up
by: the defining module's attribute, every `from .x import f` alias in the
other modules, and the module-level dispatch dicts (`cli._COMMANDS`,
`optimizer._OPTIMIZERS`) that hold direct references.

The very hot inner functions are kept out of the span pass, because a
wrapper around a sub-microsecond call would inflate every enclosing span.
A second pass wraps only those, with a counter and a summed duration.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("cli", "estimator", "sim", "schemes", "optimizer", "phy", "mathcore")
HOT = frozenset({"mathcore.q_func", "optimizer.optimal_as_s2_given", "mathcore.solve_fractional"})
ROC = frozenset({"phy.pmd_for_target_pfa", "phy.pfa_for_target_pmd", "phy.roc_from_threshold"})


def _install(package: str, make_wrapper, select) -> None:
    """Replace every selected public function, under all the names it is reachable by."""
    modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for name, obj in vars(module).items():
            qualname = f"{layer}.{name}"
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__ and select(qualname)):
                wrappers[id(obj)] = make_wrapper(qualname, obj)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]


class SpanTracer:
    """First pass: one span per call of every public function except the hot ones."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.slots_simulated = 0
        self.roc_keys: set = set()
        self.trace_csv_bytes = 0

    def install(self, package: str = "cogaccess") -> None:
        _install(package, self._wrap, lambda q: q not in HOT)

    def _wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([qualname, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                self._observe(qualname, args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, qualname: str, args: tuple) -> None:
        """Counts that need the call's arguments: slots simulated, ROC keys, CSV size."""
        if qualname == "sim.run":
            self.slots_simulated += args[0].slots
        elif qualname in ROC:
            self.roc_keys.add((qualname, args[1], args[2]))
        elif qualname == "sim.write_trace_csv" and os.path.exists(args[1]):
            self.trace_csv_bytes += os.path.getsize(args[1])

    def summary(self) -> dict:
        """Per-name calls, inclusive time and self time, plus the derived counts."""
        child_time = [0.0] * len(self.spans)
        run_child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "sim.run":
                    run_child_time[parent] += end - start
        layers: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "minus_run_s": 0.0})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = layers[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["minus_run_s"] += end - start - run_child_time[i]
        return {
            "layers": dict(layers),
            "slots_simulated": self.slots_simulated,
            "roc_distinct": len(self.roc_keys),
            "trace_csv_bytes": self.trace_csv_bytes,
        }


class HotCounter:
    """Second pass: call counts and summed durations of the hot functions only."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)

    def install(self, package: str = "cogaccess") -> None:
        _install(package, self._wrap, lambda q: q in HOT)

    def _wrap(self, qualname: str, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[qualname] += clock() - start
                calls[qualname] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        return {"layers": {name: {"calls": self.calls[name], "s": self.seconds[name]} for name in self.calls}}
