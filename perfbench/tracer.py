"""Span tracing installed from outside the subdyn package.

install() wraps every public function and public method of the package's
modules and rebinds each wrapper in its defining module and at every
`from ... import` site, so internal calls such as runner.decompose_model or
classify.evolve_grid are seen. Spans (name, start, end, parent, op id) are
kept in flat in-memory columns and summarised into per-layer metrics at the
end of the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
import tracemalloc

import numpy as np

LAYERS = ("config", "models", "linalg", "subdynamics", "classify", "gates", "turing",
          "report", "runner", "cli")

# Spans whose allocation peak is recorded: tracemalloc runs only inside the
# outermost of them, so the rest of the op runs at full speed.
ALLOC_SPANS = frozenset({"subdynamics.decompose", "subdynamics.evolve_exact"})

_ORDER_VARIANT = {"exact": "exact", "1": "o1", "2": "o2"}


def _decompose_variant(args, kwargs) -> str:
    order = kwargs.get("order", args[3] if len(args) > 3 else "exact")
    return _ORDER_VARIANT.get(str(order), str(order))


VARIANTS = {"subdynamics.decompose": _decompose_variant}


class Tracer:
    """Flat span store; parent and op are indices, -1 when absent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.alloc_bytes = array.array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self._alloc_owner = -1
        self.homogeneous = 0

    def _intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def enter(self, name: str, alloc: bool) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self.alloc_bytes.append(-1.0)
        self.stack.append(idx)
        if alloc and self._alloc_owner < 0:
            self._alloc_owner = idx
            tracemalloc.start()
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if idx == self._alloc_owner:
            self.alloc_bytes[idx] = float(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            self._alloc_owner = -1
        self.stack.pop()

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), op=np.asarray(self.op),
                            alloc_bytes=np.asarray(self.alloc_bytes))


def _wrap(tracer: Tracer, name: str, fn):
    variant = VARIANTS.get(name)
    alloc = name in ALLOC_SPANS
    homogeneous = name == "gates.calibrate_timing"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = f"{name}.{variant(args, kwargs)}" if variant else name
        idx = tracer.enter(label, alloc)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if homogeneous and result.homogeneous:
            tracer.homogeneous += 1
        return result

    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap the package's public functions and methods; returns how many."""
    modules = {name: importlib.import_module(f"subdyn.{name}") for name in LAYERS}
    wrapped: dict = {}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = _wrap(tracer, f"{short}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, _wrap(tracer, f"{short}.{attr}.{meth}", fn))
    sites = list(modules.values()) + [importlib.import_module("subdyn")]
    for module in sites:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    return len(wrapped)


def span_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name over the timed ops: calls, self seconds and alloc peak."""
    name_id = np.asarray(tracer.name_id)
    start = np.asarray(tracer.start)
    end = np.asarray(tracer.end)
    parent = np.asarray(tracer.parent)
    timed = np.asarray(tracer.op) >= 0
    alloc = np.asarray(tracer.alloc_bytes)
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    table = {}
    for idx, name in enumerate(tracer.names):
        mask = timed & (name_id == idx)
        if mask.any():
            table[name] = {"calls": int(mask.sum()), "self_s": float(self_s[mask].sum()),
                           "alloc_peak_mb": float(alloc[mask].max()) / 2**20}
    return table


def layer_metrics(tracer: Tracer, ops: int, metric_names) -> dict[str, tuple[float, str]]:
    """Derive the named per-layer metrics; counts and seconds are per timed op.

    A name is <span>[.<variant>].<stat>. A stat on a span that has variants
    sums (calls, self_s) or takes the maximum (alloc_peak_mb) over them.
    """
    table = span_table(tracer)
    out = {}
    for metric in metric_names:
        span, stat = metric.rsplit(".", 1)
        rows = [row for name, row in table.items()
                if name == span or name.startswith(span + ".")]
        if stat == "calls":
            out[metric] = (sum(r["calls"] for r in rows) / ops, "count/op")
        elif stat == "self_s":
            out[metric] = (sum(r["self_s"] for r in rows) / ops, "s/op")
        elif stat == "alloc_peak_mb":
            out[metric] = (max((r["alloc_peak_mb"] for r in rows), default=0.0), "MB")
        elif stat == "homogeneous_share":
            calls = sum(r["calls"] for r in rows)
            out[metric] = (tracer.homogeneous / calls if calls else 0.0, "ratio")
    return out
