"""Span tracing of stochgee's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a
wrapper in every ``stochgee`` module namespace that binds it (``from .x
import y`` copies the name, so patching the defining module alone would
miss callers in other modules). A wrapper records one span per call:
(name, start, end, parent), where the parent is the innermost traced call
still open. Spans stay in memory until the caller writes them out.

A layer's self time is its span time minus the time of the wrapped calls
it made. A name that a later version of the package removes or renames
is skipped and reports 0 calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter

#: traced public functions, by module
LAYERS = {
    "cli": ("main",),
    "model": ("load_dataset", "conditional_moments"),
    "simulation": ("simulate_scenario", "run_replications"),
    "correlation": ("working_corr", "pseudo_likelihood_update"),
    "estimating": (
        "corr_trajectory",
        "eval_g",
        "jacobian",
        "a2_schedule",
        "path_information_increments",
    ),
    "solver": ("solve_gee",),
    "diagnostics": ("condition_trajectories", "optimality_study"),
    "linalg": ("sym_eigh", "spd_solve"),
}

#: counts read off a traced function's return value
COUNTERS = {
    "solver.solve_gee": (
        "solver.newton_iterations",
        lambda fit: int(fit.iterations),
    ),
    "estimating.a2_schedule": (
        "estimating.a2_schedule.halvings",
        lambda out: int(sum(out[1]["halvings"])),
    ),
}


def layer_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def counter_names() -> list:
    return [name for name, _ in COUNTERS.values()]


class Tracer:
    """Collects spans of the traced functions while installed."""

    package = "stochgee"

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod_name, fn_names in LAYERS.items():
            module = importlib.import_module(f"{self.package}.{mod_name}")
            for fn_name in fn_names:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for namespace in self._namespaces():
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _namespaces(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return traced

    # -- spans ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. around one benchmark operation."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
        fh.write("\n")


def self_times(spans) -> dict:
    """name -> (calls, self seconds) over the given spans."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    for (name, t0, t1, _), covered in zip(spans, child_time):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (t1 - t0) - covered)
    return out


def self_times_by_root(spans) -> dict:
    """root span name -> one {name: (calls, self seconds)} per tree."""
    root = [0] * len(spans)
    groups: dict = {}
    for idx, (name, _, _, parent) in enumerate(spans):
        root[idx] = idx if parent < 0 else root[parent]
        groups.setdefault(root[idx], []).append(idx)
    out: dict = {}
    for r, members in groups.items():
        index = {old: new for new, old in enumerate(members)}
        sub = [
            (spans[i][0], spans[i][1], spans[i][2], index.get(spans[i][3], -1))
            for i in members
        ]
        out.setdefault(spans[r][0], []).append(self_times(sub))
    return out
