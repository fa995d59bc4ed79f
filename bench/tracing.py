"""Spans around the benchmark's calls into frontlab, held in memory.

Nothing inside frontlab is instrumented.  The work lists reach frontlab only
through a `Layers` object: with tracing off its attributes are frontlab's own
modules, with tracing on they are proxies that wrap every public function in
a span named `<module>.<function>`.  The benchmark opens its own spans
(`bench.*`) around rounds and operations, so the spans of one round form a
tree whose root is the round, and the self times of all spans add up to the
round's wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

#: frontlab modules whose public functions the benchmark calls.
LAYERS = ("core_model", "existence", "evans", "designer", "jordan_chain",
          "speed_ode", "pde_sim")


class Tracer:
    """Records (name, start, end, parent, trace) spans; writes them on demand."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace = 0

    def begin_trace(self):
        self._trace += 1

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, annotate=None):
        """`fn` inside a span; `annotate(args, kwargs)` may give the span a
        name suffix and extra fields describing the call."""
        def traced(*args, **kwargs):
            if annotate is None:
                with self.span(name):
                    return fn(*args, **kwargs)
            suffix, extra = annotate(args, kwargs)
            with self.span(f"{name}.{suffix}" if suffix else name) as record:
                record.update(extra)
                return fn(*args, **kwargs)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def self_times(self) -> list:
        """(span, self seconds) pairs: duration minus the children's durations."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - child_time[s["id"]]) for s in self.spans]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def span_cost() -> float:
    """Seconds one traced call adds to an untraced one (median of 5 batches)."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    calls, costs = 20000, []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[2]


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name,
                       "parent": tracer._stack[-1] if tracer._stack else None,
                       "trace": tracer._trace, "start": 0.0, "end": 0.0}

    def __enter__(self):
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _TracedModule:
    """Module proxy whose public functions open a span per call."""

    def __init__(self, module, tracer: Tracer, prefix: str):
        self._module = module
        self._tracer = tracer
        self._prefix = prefix
        self._cache = {}

    def __getattr__(self, name):
        try:
            return self._cache[name]
        except KeyError:
            pass
        obj = getattr(self._module, name)
        if callable(obj) and not isinstance(obj, type) and not name.startswith("_"):
            full = f"{self._prefix}.{name}"
            obj = self._tracer.wrap(full, obj, ANNOTATE.get(full))
        self._cache[name] = obj
        return obj


def _coupling_shape(args, kwargs):
    v = args[1] if len(args) > 1 else kwargs["v"]
    return ("grid" if np.ndim(v) > 1 else "vec"), {}


def _simulate_size(args, kwargs):
    state = args[0]
    t_end = args[1] if len(args) > 1 else kwargs["t_end"]
    dt = kwargs["dt"]
    return None, {"n": state.params.n_slow, "nx": state.grid.n_x,
                  "steps": int(round(t_end / dt))}


#: Calls whose spans carry more than their name: eval_coupling is split by
#: the shape of V (N-vector or (N, n_x) grid), simulate records N, n_x and
#: the number of IMEX steps.
ANNOTATE = {
    "core_model.eval_coupling": _coupling_shape,
    "pde_sim.simulate": _simulate_size,
}


class Layers(SimpleNamespace):
    """frontlab's layer modules, traced or not, plus a `span` context factory."""

    @classmethod
    def plain(cls):
        import importlib
        mods = {name: importlib.import_module(f"frontlab.{name}") for name in LAYERS}
        return cls(tracer=None, **mods)

    @classmethod
    def traced(cls, tracer: Tracer):
        import importlib
        mods = {name: _TracedModule(importlib.import_module(f"frontlab.{name}"),
                                    tracer, name) for name in LAYERS}
        return cls(tracer=tracer, **mods)

    def span(self, name: str):
        """A benchmark-level span (no-op when tracing is off)."""
        if self.tracer is None:
            return _NULL
        return self.tracer.span(name)
