"""Spans around calls into the public functions of each ``fillperm`` layer.

Only the traced run installs these wrappers.  ``instrumented`` replaces
each listed function in every ``fillperm`` module that holds it (the
defining module, the modules that import it by name and the package
re-export) and restores the originals on exit.  Spans nest on one
stack: a span's self time is its duration minus the durations of the
spans directly inside it.

Per-symbol primitives such as ``Permutation.__call__`` and ``compose``
are deliberately left alone: they run hundreds of thousands of times
per pass, so a wrapper there would measure itself.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (layer, module, attribute).  Two functions may share one layer.
FUNCTIONS = (
    ("verify.validate", "fillperm.verify", "validate"),
    ("verify.vertex_classes", "fillperm.verify", "vertex_classes"),
    ("verify.glue", "fillperm.verify", "glue"),
    ("search.enumerate", "fillperm.search", "enumerate_solutions"),
    ("search.canonical_form", "fillperm.search", "canonical_form"),
    ("cli.main", "fillperm.cli", "main"),
    ("moves.double_bigon", "fillperm.moves", "double_bigon"),
    ("svg.render", "fillperm.svg", "render_svg"),
    ("arcs.structure_map", "fillperm.arcs", "reversal_pairing"),
    ("arcs.structure_map", "fillperm.arcs", "curve_advance"),
    ("tables.cross_validate", "fillperm.tables", "cross_validate"),
)
# (layer, attribute of fillperm.permutations.Permutation).
METHODS = (
    ("permutations.parse", "parse"),
    ("permutations.format", "__str__"),
)


class Tracer:
    """Per-layer call counts, total and self seconds, and re-validation time."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [layer, seconds of direct children]
        self.stats: dict[str, list] = {}  # layer -> [calls, seconds, self seconds]
        self.revalidation_s = 0.0  # verify.validate directly inside search.enumerate
        self.counters: dict[str, int] = {}

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.revalidation_s = 0.0
        self.counters.clear()

    def _layer(self, layer: str) -> list:
        return self.stats.setdefault(layer, [0, 0.0, 0.0])

    def _close(self, frame: list, entry: list, seconds: float) -> None:
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds - frame[1]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += seconds
            if parent[0] == "search.enumerate" and frame[0] == "verify.validate":
                self.revalidation_s += seconds

    def wrap(self, layer: str, fn, on_result=None):
        entry = self._layer(layer)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - t0
                stack.pop()
                self._close(frame, entry, seconds)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark's own code rather than by a wrapper."""
        entry = self._layer(layer)
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            self._stack.pop()
            self._close(frame, entry, seconds)

    def _count_search(self, result) -> None:
        self.counters["search.nodes"] = self.counters.get("search.nodes", 0) + result.nodes_explored
        self.counters["search.solutions"] = self.counters.get("search.solutions", 0) + result.raw_count

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last ``reset``."""

        def calls(layer: str) -> int:
            return self._layer(layer)[0]

        def total(layer: str) -> float:
            return self._layer(layer)[1]

        def own(layer: str) -> float:
            return self._layer(layer)[2]

        out: dict[str, float] = {}
        for layer in (
            "verify.validate",
            "verify.vertex_classes",
            "verify.glue",
            "search.enumerate",
            "search.canonical_form",
            "moves.double_bigon",
            "svg.render",
            "arcs.structure_map",
            "tables.cross_validate",
            "permutations.parse",
            "permutations.format",
        ):
            out[f"{layer}_calls"] = calls(layer)
            out[f"{layer}_s"] = total(layer)
        out["verify.reject_s"] = total("verify.reject")
        out["search.enumerate_self_s"] = own("search.enumerate")
        out["moves.double_bigon_self_s"] = own("moves.double_bigon")
        out["cli.main_s"] = total("cli.main")
        out["cli.self_s"] = own("cli.main")
        nodes = self.counters.get("search.nodes", 0)
        out["search.nodes"] = nodes
        out["search.solutions"] = self.counters.get("search.solutions", 0)
        out["search.nodes_per_s"] = nodes / own("search.enumerate") if own("search.enumerate") else 0.0
        enumerate_s = total("search.enumerate")
        out["search.revalidation_share"] = self.revalidation_s / enumerate_s if enumerate_s else 0.0
        return out


def _holders(original) -> list[tuple[object, str]]:
    """Every (fillperm module, name) binding that refers to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "fillperm" and not name.startswith("fillperm."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers; yields the patched names; restores on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for layer, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            hook = tracer._count_search if layer == "search.enumerate" else None
            wrapper = tracer.wrap(layer, original, hook)
            for holder, key in _holders(original):
                saved.append((holder, key, original))
                setattr(holder, key, wrapper)
        perm = sys.modules["fillperm.permutations"].Permutation
        for layer, attr in METHODS:
            raw = perm.__dict__[attr]
            saved.append((perm, attr, raw))
            if isinstance(raw, classmethod):
                setattr(perm, attr, classmethod(tracer.wrap(layer, raw.__func__)))
            else:
                setattr(perm, attr, tracer.wrap(layer, raw))
        yield sorted(f"{getattr(h, '__name__', h)}.{k}" for h, k, _ in saved)
    finally:
        for holder, key, original in reversed(saved):
            setattr(holder, key, original)
