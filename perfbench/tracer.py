"""In-memory span tracer for the hexcover layers.

Each module of the ``hexcover`` package is one layer.  ``Tracer.install``
replaces the public functions of every module, the five CLI section
builders, and the constructors, public methods and arithmetic dunders of
every class with wrappers that count calls and record spans.  A span is
(name, parent, start, end) and lives in flat arrays until the iteration
ends.

The modules bind each other's functions with ``from .x import f``, so a
wrapper only takes effect where a module attribute holds it.  ``install``
therefore rebinds every attribute of every ``hexcover`` module that holds an
original function; methods are patched on the class, which all importers
share.

A method call made from inside a span of its own layer (``EisRat.__mul__``
building an ``EisRat``, ``AffineSymmetry.__init__`` called by the search) is
counted but opens no span: its time stays in the enclosing span, which
belongs to the same layer, so per-layer self times are unchanged while the
hot arithmetic methods stay cheap to trace.  Module-level functions always
open a span.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Dict, List

# The CLI section builders are private; they are traced so that each
# section's time can be reported.
CLI_SECTIONS = ("tables", "characters", "orbits", "invariants", "search")

_DUNDERS = frozenset({
    "__init__", "__call__", "__eq__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
})


def _layer_modules() -> List[object]:
    return sorted((m for name, m in sys.modules.items()
                   if name.startswith("hexcover.") and m is not None),
                  key=lambda m: m.__name__)


class Tracer:
    """Call counts and spans for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._layer_stack: List[object] = [None]
        self.rebound = 0

    def reset(self) -> None:
        """Forget all spans and counts; the wrappers stay installed."""
        for arr in (self.span_name, self.span_parent,
                    self.span_start, self.span_end):
            del arr[:]
        self.calls[:] = [0] * len(self.calls)

    def _wrap(self, func, name: str, layer: str, fold: bool):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        calls = self.calls
        stack, layer_stack = self._stack, self._layer_stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[nid] += 1
            if fold and layer_stack[-1] is layer:
                return func(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            layer_stack.append(layer)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                layer_stack.pop()

        return functools.update_wrapper(traced, func)

    def install(self) -> None:
        """Wrap every layer of the imported ``hexcover`` package."""
        modules = _layer_modules()
        replaced: Dict[int, object] = {}
        for mod in modules:
            layer = sys.intern(mod.__name__.split(".", 1)[1])
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    label = _function_label(layer, attr)
                    if label is not None:
                        replaced[id(value)] = self._wrap(value, label, layer,
                                                         fold=False)
                elif (inspect.isclass(value)
                      and not issubclass(value, BaseException)):
                    self._patch_class(value, layer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self.rebound += 1

    def _patch_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrap(value, label, layer, fold=True))
            elif isinstance(value, (classmethod, staticmethod)):
                inner = self._wrap(value.__func__, label, layer, fold=True)
                setattr(cls, attr, type(value)(inner))

    # --- results ---------------------------------------------------------

    def count(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def _self_times(self) -> List[float]:
        own = [e - s for s, e in zip(self.span_start, self.span_end)]
        for dur, parent in zip(list(own), self.span_parent):
            if parent >= 0:
                own[parent] -= dur
        return own

    def summary(self) -> dict:
        """Per-layer self time, per-name totals and nesting counts."""
        own = self._self_times()
        layer_self: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        for nid, s, e, o in zip(self.span_name, self.span_start,
                                self.span_end, own):
            name, layer = self.names[nid], self.layers[nid]
            layer_self[layer] = layer_self.get(layer, 0.0) + o
            inclusive[name] = inclusive.get(name, 0.0) + (e - s)
        calls: Dict[str, int] = {}
        for name, c in zip(self.names, self.calls):
            calls[name] = calls.get(name, 0) + c
        return {
            "layer_self_s": layer_self,
            "inclusive_s": inclusive,
            "calls": {n: c for n, c in calls.items() if c},
            "spans": len(self.span_name),
            "inside": {
                "symmetry.search_generators": self.spans_inside(
                    "symmetry.search_generators"),
                "symmetry.action_on_square_roots": self.spans_inside(
                    "symmetry.action_on_square_roots"),
            },
        }

    def spans_inside(self, ancestor: str) -> Dict[str, int]:
        """Number of spans of each name that have ``ancestor`` above them."""
        inside = bytearray(len(self.span_name))
        out: Dict[str, int] = {}
        for idx, (nid, parent) in enumerate(zip(self.span_name,
                                                self.span_parent)):
            if parent < 0:
                continue
            if inside[parent] or self.names[self.span_name[parent]] == ancestor:
                inside[idx] = 1
                name = self.names[nid]
                out[name] = out.get(name, 0) + 1
        return out

    def write_spans(self, path: str, origin: float) -> None:
        """Write one span per line: index, parent, name, start, end, self.

        Times are seconds after ``origin``; parent -1 marks a span opened
        directly by the benchmark.
        """
        own = self._self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\tself_s\n")
            for idx, (nid, parent, s, e) in enumerate(zip(
                    self.span_name, self.span_parent,
                    self.span_start, self.span_end)):
                fh.write(f"{idx}\t{parent}\t{self.names[nid]}\t"
                         f"{s - origin:.9f}\t{e - origin:.9f}\t"
                         f"{own[idx]:.9f}\n")


def _function_label(layer: str, attr: str):
    if not attr.startswith("_"):
        return f"{layer}.{attr}"
    if layer == "cli" and attr.endswith("_rows"):
        section = attr[1:-len("_rows")]
        if section in CLI_SECTIONS:
            return f"cli.{section}"
    return None
