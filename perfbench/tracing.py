"""Spans and counts around reegeom's layers, recorded from outside the package.

`installed(tracer)` replaces every public function of each layer module with
a timing wrapper in every reegeom namespace that binds it (so `css.to_pauli`
is wrapped as well as `qstate.to_pauli`) and restores the originals on exit.
A wrapper records only inside `tracer.op()`, so input generation and output
checks stay out of the trace.  A function's self time is its span minus the
spans of the wrapped calls it makes; a layer's self time is the sum over its
functions.  Time inside an op that no layer span covers is `bench.op`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("qstate", "spectra", "geometry", "css", "revmap", "ree", "cli")
# Layers whose calls take microseconds and number millions per run: a span
# would cost more than the call, so they are counted and their time stays
# in the caller's self time.
COUNT_ONLY = ("spectra",)


def _observe_css_auto(counts, bound, result):
    counts["css.geometric"] += bool(result.geometric)
    counts["css.separable"] += bool(result.separable)


def _observe_ree_numeric(counts, bound, result):
    counts["ree.iterations"] += int(result.iterations)
    counts["ree.converged"] += bool(result.converged)


def _observe_surface_mesh(counts, bound, result):
    counts["geometry.mesh.points"] += len(result.points)
    counts["geometry.mesh.grid"] += 2 * bound.arguments["n"] ** 2


def _observe_crossing(counts, bound, result):
    counts["geometry.crossings"] += len(result)


def _observe_sweep(counts, bound, result):
    counts["revmap.sweep.rows"] += len(result)


# Result counters, keyed by wrapped function; each gets the bound arguments.
OBSERVERS = {
    "css.css_auto": _observe_css_auto,
    "ree.ree_numeric": _observe_ree_numeric,
    "geometry.surface_mesh": _observe_surface_mesh,
    "geometry.line_surface_crossing": _observe_crossing,
    "revmap.css_line_sweep": _observe_sweep,
}


class Tracer:
    """Per-function call counts and self times, plus result counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.wall_s = 0.0
        self._stack = []
        self._active = False

    def wrap(self, name: str, fn):
        if name.split(".")[0] in COUNT_ONLY:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                if self._active:
                    self.calls[name] += 1
                return fn(*args, **kwargs)

            return counter

        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe:
                observe(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """An explicit span, for work that no wrapped function covers."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            span = perf_counter() - t0
            self.self_s[name] += span - self._stack.pop()
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += span

    @contextmanager
    def op(self):
        """One benchmark operation: the root span, with recording on."""
        self._active = True
        t0 = perf_counter()
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._active = False
            self.wall_s += perf_counter() - t0

    def merge(self, data: dict):
        """Add a tracer dump (see `dump`) from another process."""
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        for name, value in data["self_s"].items():
            self.self_s[name] += value

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".")[0] == layer)


def _namespaces():
    package = importlib.import_module("reegeom")
    return [package] + [importlib.import_module(f"reegeom.{m}") for m in LAYERS]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every public layer function in every namespace binding it."""
    namespaces = _namespaces()
    saved = []
    try:
        for layer, module in zip(LAYERS, namespaces[1:]):
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = tracer.wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            saved.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        yield
    finally:
        for ns, attr, fn in reversed(saved):
            setattr(ns, attr, fn)


def import_breakdown(statement: str, env: dict, cwd: str, repeats: int = 3) -> dict:
    """Median import times (s) from `python -X importtime -c statement`.

    `total` is the cumulative time of the top-level reegeom entries;
    `scipy` and `reegeom_self` sum the self times of those packages' modules.
    """
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        sums = Counter()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            module = name.strip()
            top = module.split(".")[0]
            if top in ("scipy", "reegeom"):
                sums[top] += int(self_us)
            if top == "reegeom" and not name.startswith("  "):
                sums["total"] += int(cumulative_us)
        samples["total"].append(sums["total"] / 1e6)
        samples["scipy"].append(sums["scipy"] / 1e6)
        samples["reegeom_self"].append(sums["reegeom"] / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}
