"""Span tracing of exogait from outside the package.

The tracer wraps every public function (and public method of a public
class) defined in each layer module, and rebinds the wrapper wherever any
``exogait.*`` module binds the original, matched by object identity. Spans
therefore still land when a function moves or is re-exported by another
module. Spans stay in memory as (name, start, end, parent) and are written
out once, after the run.

Per-tick functions would produce millions of spans, so they are timed as
aggregates: one (count, seconds, true results) record per parent span.
Calls made from inside an aggregated call are not timed separately.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "exogait"
LAYERS = ("csvio", "c3d", "preprocess", "cycles", "stats", "assist", "phase",
          "simulate", "cli")
AGGREGATED = frozenset({
    "simulate.plant_step", "simulate.pid_step", "assist.reference_tension",
    "phase.update_phase", "phase.StrikeDetector.step",
})
# Functions whose result says whether the call did useful work; the tracer
# counts those calls as hits.
HITS = {
    "preprocess.smooth_to_mse": lambda result: bool(result[2]),
    "phase.StrikeDetector.step": lambda result: result is True,
}

_NO_PARENT = -1


def _targets():
    """(qualified name, owner, attribute, function) for every traced name."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{name}", module, name, obj))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found.append((f"{layer}.{name}.{attr}", obj, attr, fn))
    return found


def _size(args):
    """Size of a call's first argument: text/bytes length or item count."""
    if args and isinstance(args[0], (str, bytes, list, tuple)):
        return len(args[0])
    return 0


class Tracer:
    """Installs wrappers with ``installed()`` and collects what they see."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # [name index, start, end, parent span, first-argument size, hit]
        self.spans: list[list] = []
        # (parent span, name index) -> [calls, seconds, hits]
        self.aggregates: dict[tuple[int, int], list] = {}
        self._index: dict[str, int] = {}
        self._stack: list[int] = []
        self._in_aggregate = False

    def _span_wrapper(self, index, fn, hit):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_aggregate:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [index, 0.0, 0.0, stack[-1] if stack else _NO_PARENT,
                    _size(args), False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hit is not None:
                span[5] = hit(result)
            return result

        return wrapper

    def _aggregate_wrapper(self, index, fn, hit):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_aggregate:
                return fn(*args, **kwargs)
            tracer._in_aggregate = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_aggregate = False
            parent = tracer._stack[-1] if tracer._stack else _NO_PARENT
            record = tracer.aggregates.get((parent, index))
            if record is None:
                record = tracer.aggregates[(parent, index)] = [0, 0.0, 0]
            record[0] += 1
            record[1] += elapsed
            if hit is not None and hit(result):
                record[2] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap on entry, restore the original bindings on exit."""
        patches = self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        patches = []
        for qualname, owner, attr, fn in _targets():
            if qualname not in self._index:
                self._index[qualname] = len(self.names)
                self.names.append(qualname)
            index = self._index[qualname]
            make = (self._aggregate_wrapper if qualname in AGGREGATED
                    else self._span_wrapper)
            wrapper = make(index, fn, HITS.get(qualname))
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return patches

    # --- analysis ------------------------------------------------------------

    def summary(self, first=0) -> dict:
        """Totals per traced name over spans[first:] and the aggregates
        under them: calls, seconds, self seconds, sizes, hits.

        For a span, self time is its duration minus the time its child spans
        and aggregated calls cover. ``outer_*`` counts only spans whose
        parent belongs to another layer, so a layer's total is not counted
        twice when its functions call each other.
        """
        covered = [0.0] * (len(self.spans) - first)
        for span in self.spans[first:]:
            if span[3] >= first:
                covered[span[3] - first] += span[2] - span[1]
        aggregates = [(parent, index, record) for (parent, index), record
                      in self.aggregates.items() if parent >= first]
        for parent, _, record in aggregates:
            covered[parent - first] += record[1]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0,
                      "hits": 0, "outer_calls": 0, "outer_s": 0.0,
                      "outer_size": 0}
               for name in self.names}
        for i, (index, start, end, parent, size, hit) in enumerate(
                self.spans[first:]):
            row = out[self.names[index]]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered[i]
            row["size"] += size
            row["hits"] += bool(hit)
            parent_layer = (layer_of[self.spans[parent][0]]
                            if parent != _NO_PARENT else None)
            if parent_layer != layer_of[index]:
                row["outer_calls"] += 1
                row["outer_s"] += end - start
                row["outer_size"] += size
        for _, index, (calls, seconds, hits) in aggregates:
            row = out[self.names[index]]
            row["calls"] += calls
            row["s"] += seconds
            row["self_s"] += seconds
            row["hits"] += hits
        return out

    def write(self, path) -> None:
        """Write every span and aggregate as JSON."""
        spans = [{"name": self.names[index], "start": start, "end": end,
                  "parent": parent} for index, start, end, parent, _, _
                 in self.spans]
        aggregates = [{"name": self.names[index], "parent": parent,
                       "calls": calls, "seconds": seconds, "hits": hits}
                      for (parent, index), (calls, seconds, hits)
                      in self.aggregates.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "aggregates": aggregates}, fh)

