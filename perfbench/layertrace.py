"""Per-layer spans and counters, recorded from outside the program.

:class:`Tracer` wraps every public function of each layer module and patches
the wrapper in at every module attribute that holds the original, both in the
defining module and in each module that imported it by name (for example
``cli.cut_graph`` and ``higher_level.cut_graph``). Calls between layers then
go through the wrappers, and the program runs unchanged otherwise.

For each wrapped function the tracer counts calls, calls that raised, and
inclusive time (outermost call only, so recursion is not counted twice). For
each layer it sums self time: a span's duration minus the time of the wrapped
calls made inside it. Calls that cross from one layer into another, or that
start a top-level request, are kept as spans in memory while ``record_spans``
is set; :meth:`Tracer.dump` writes them out at the end.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "product_form", "graph_core", "higher_level", "factors", "numeric", "models")
PACKAGE = "prodform"


class Tracer:
    def __init__(self) -> None:
        self.functions: list[str] = []  # "<layer>.<function>", indexed by span records
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        # (span, request, function index, parent span or -1, start, end), in completion order.
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self._patched: list[tuple[object, str, object]] = []
        # id(original) -> (original, wrapper)
        self._wrappers: dict[int, tuple[object, object]] = {}
        # Open frames: [layer, start, child time, span id or -1].
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._request = -1
        self._next_span = 0
        self.record_spans = True

    # ---- installation ----

    def install(self) -> None:
        """Patch the wrappers in; they are built on the first call and reused after."""
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for name, fn in vars(module).items():
                    if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                        continue
                    self._wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        index = len(self.functions)
        self.functions.append(key)
        self.calls[key] = 0
        self.raised[key] = 0
        self.inclusive[key] = 0.0
        self._depth[key] = 0
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if parent is None:
                self._request += 1
            if parent is None or parent[0] != layer:
                span = self._next_span
                self._next_span += 1
            frame = [layer, perf_counter(), 0.0, span]
            stack.append(frame)
            self._depth[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[key] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.self_time[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                self._depth[key] -= 1
                if not self._depth[key]:
                    self.inclusive[key] += duration
                self.calls[key] += 1
                if span >= 0 and self.record_spans:
                    parent_span = -1 if parent is None else _enclosing_span(stack)
                    self.spans.append((span, self._request, index, parent_span, frame[1], end))

        return wrapper

    # ---- reading ----

    def snapshot(self) -> dict[str, float]:
        """Cumulative counters: ``<fn>.calls``, ``<fn>.s``, ``<fn>.raised`` and ``<layer>.self_s``."""
        out: dict[str, float] = {}
        for key in self.functions:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.s"] = self.inclusive[key]
            out[f"{key}.raised"] = self.raised[key]
        for layer, value in self.self_time.items():
            out[f"{layer}.self_s"] = value
        return out

    def dump(self) -> dict:
        """Everything recorded, for writing out at the end of the run."""
        origin = min((s[4] for s in self.spans), default=0.0)
        return {
            "functions": self.functions,
            "totals": self.snapshot(),
            "span_fields": ["span", "request", "function", "parent", "start_s", "end_s"],
            "spans": [
                [span, req, fn, parent, round(start - origin, 7), round(end - origin, 7)]
                for span, req, fn, parent, start, end in self.spans
            ],
        }


def _enclosing_span(stack: list[list]) -> int:
    for frame in reversed(stack):
        if frame[3] >= 0:
            return frame[3]
    return -1
