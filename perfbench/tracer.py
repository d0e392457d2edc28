"""Per-layer tracing by wrapping the package's public functions.

A layer is one module of ``steerlab``.  ``Tracer.install`` replaces every
public function of every layer (the names in the module's ``__all__``
that the module itself defines) with a timing wrapper.  A function that
another layer imported by name is wrapped in that consumer's namespace
too, so ``steerlab.protocol.batch_parity_is_odd`` and
``steerlab.coherent.batch_parity_is_odd`` feed the same record, named
after the defining module: ``coherent.batch_parity_is_odd``.
``Tracer.uninstall`` puts every original object back.

For each wrapped function the tracer keeps the number of calls, the
inclusive (busy) time, and the self time: busy time minus the part
covered by wrapped callees.  Hooks add work counts (bytes written,
draws, grid cells) at the same boundaries; the time a hook spends is
excluded from every enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "protocol", "coherent", "steering", "keyrate", "uncertainty", "report", "output")


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"steerlab.{layer}") for layer in LAYERS}


def public_functions(layer: str, module) -> dict:
    """Map each public function object of a layer to its metric name."""
    found = {}
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[obj] = f"{layer}.{name}"
    return found


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_transcript_bytes(tracer, fn, args, kwargs):
    sink = _bound(fn, args, kwargs)["sink"]
    if hasattr(sink, "tell"):
        start = sink.tell()
        return lambda result: tracer.add("protocol.write_transcript.bytes", sink.tell() - start)
    return lambda result: tracer.add("protocol.write_transcript.bytes", os.path.getsize(sink))


def _count_text_bytes(tracer, fn, args, kwargs):
    text = _bound(fn, args, kwargs)["text"]
    size = len(text) if text.isascii() else len(text.encode("utf-8"))
    tracer.add("output.write_text.bytes", size)


def _count_draws(tracer, fn, args, kwargs):
    arguments = _bound(fn, args, kwargs)
    lams = np.unique(np.asarray(arguments["lams"], dtype=float))
    tracer.add("coherent.batch_parity_is_odd.draws", np.asarray(arguments["uniforms"]).size)
    tracer.add("coherent.distinct_means", lams.size)
    # One table per distinct mean, cut off at ceil(lam + 12 sqrt(lam + 1) + 20).
    entries = sum(math.ceil(lam + 12.0 * math.sqrt(lam + 1.0) + 20.0) + 1 for lam in lams.tolist())
    tracer.add("coherent.pmf_table.entries", entries)


def _count_cells(tracer, fn, args, kwargs):
    arguments = _bound(fn, args, kwargs)
    tracer.add("steering.region_sweep.cells", len(arguments["beta_grid"]) * len(arguments["p_grid"]))


def _count_objective_evals(tracer, fn, args, kwargs):
    if tracer.depth["keyrate.optimize_eve"] > 0:
        tracer.add("keyrate.eve_error.calls_in_optimize", 1)


# Hooks run before the call; one may return a callback that receives the
# result.  Keyed by metric name of the wrapped function.
HOOKS = {
    "protocol.write_transcript": _count_transcript_bytes,
    "output.write_text": _count_text_bytes,
    "coherent.batch_parity_is_odd": _count_draws,
    "steering.region_sweep": _count_cells,
    "keyrate.eve_error": _count_objective_evals,
}


class Tracer:
    def __init__(self):
        self.records: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.enabled = True
        self._stack: list[list[float]] = []  # per open span: [child busy, excluded at entry]
        self._excluded = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    @contextmanager
    def paused(self):
        """Run the body with every wrapper passing straight through."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    def _wrap(self, name: str, fn):
        record = self.records.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        stack = self._stack
        depth = self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            after = None
            if hook is not None:
                hook_start = perf_counter()
                self.enabled = False
                try:
                    after = hook(self, fn, args, kwargs)
                finally:
                    self.enabled = True
                    self._excluded += perf_counter() - hook_start
            frame = [0.0, self._excluded]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start - (self._excluded - frame[1])
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += busy
                record[0] += 1
                if depth[name] == 0:
                    record[1] += busy
                record[2] += busy - frame[0]
            if after is not None:
                hook_start = perf_counter()
                self.enabled = False
                try:
                    after(result)
                finally:
                    self.enabled = True
                    self._excluded += perf_counter() - hook_start
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every layer's public functions wherever a layer binds them."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        names = {}
        for layer, module in modules.items():
            names.update(public_functions(layer, module))
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def metrics(self) -> dict[str, float]:
        """Per-function, per-layer and counted metrics of everything recorded."""
        out: dict[str, float] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for name, (calls, busy, self_s) in sorted(self.records.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = self_s
            layer_self[name.split(".", 1)[0]] += self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for name, value in self.counts.items():
            out[name] = value
        optimizations = out.get("keyrate.optimize_eve.calls", 0)
        evals = self.counts.get("keyrate.eve_error.calls_in_optimize", 0)
        out["keyrate.objective_evals_per_optimum"] = evals / optimizations if optimizations else 0.0
        return out
