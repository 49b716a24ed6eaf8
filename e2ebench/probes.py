"""Outside-in tracing for the benchmark's traced runs.

The program is not edited: for a traced run only, :class:`Recorder`
wraps timing/counting shims around public entry points of each layer
(the table :data:`SHIMS`) and restores the originals afterwards.

- A *timed* shim records a span — name, layer, start, end, parent span
  and cell id — and adds to the entry point's call count and seconds.
- A *counted* shim only counts calls; it is used for the hottest entry
  points (``rank_of``: hundreds of thousands of calls per pass), whose
  time shows as self time of the enclosing span.
- Re-entry into the same shim (a subclass override calling ``super()``,
  ``ProcessorSection.rank_of`` calling ``ProcessorArray.rank_of``) is
  counted once, at the outermost call.

Spans stay in memory and are written out when the run ends.  A layer's
self time is the duration of its spans minus the part covered by their
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()

#: layers that get a self-time metric (``self_s.<layer>``); ``api`` is
#: the benchmark's own root span around each public-API operation
LAYERS = ("api", "machine", "runtime", "compiler", "apps", "sim",
          "planner", "adapt", "backend", "serve")


def _count_events(rec, args, kwargs):
    events = args[0] if args else kwargs.get("events")
    if hasattr(events, "__len__"):
        rec.add("sim.events", len(events))


def _count_restarts(rec, args, kwargs):
    supervisor = getattr(args[0], "supervisor", None)
    if supervisor is not None:
        rec.add("backend.restarts", supervisor.restarts)


def _adapt_mode(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "adaptive")
    return f"adapt.run.{mode}"


#: (module, owner attribute path or None for the module itself,
#:  attribute, metric, layer, timed, options)
SHIMS: tuple = (
    ("repro.machine.topology", "ProcessorArray", "rank_of",
     "machine.rank_of", "machine", False, {}),
    ("repro.machine.topology", "ProcessorSection", "rank_of",
     "machine.rank_of", "machine", False, {}),
    ("repro.machine.topology", "ProcessorArray", "ranks",
     "machine.ranks", "machine", True, {}),
    ("repro.machine.topology", "ProcessorSection", "ranks",
     "machine.ranks", "machine", True, {}),
    ("repro.machine.network", "Network", "exchange",
     "machine.exchange", "machine", True, {}),
    ("repro.runtime.engine", "Engine", "distribute",
     "runtime.distribute", "runtime", True, {}),
    # overlap.py imported the function by name: shim both bindings
    ("repro.runtime.communication", None, "shift_exchange",
     "runtime.shift_exchange", "runtime", True, {}),
    ("repro.runtime.overlap", None, "shift_exchange",
     "runtime.shift_exchange", "runtime", True, {}),
    ("repro.compiler.codegen", "LineSweepKernel", "sweep",
     "compiler.line_sweep", "compiler", True, {}),
    ("repro.compiler.codegen", "StencilKernel", "step",
     "compiler.stencil_step", "compiler", True, {}),
    # the line sweeps find the batched solver through this attribute
    ("repro.apps.tridiag", "thomas_const", "batched",
     "apps.thomas_batch", "apps", True, {}),
    ("repro.sim.simulate", None, "simulate",
     "sim.simulate", "sim", True, {"before": _count_events}),
    ("repro.planner.costs", "CostEngine", "phase_cost",
     "planner.phase_cost", "planner", True, {}),
    ("repro.planner.costs", "SimulatedCostEngine", "phase_cost",
     "planner.phase_cost", "planner", True, {}),
    ("repro.planner.costs", "CostEngine", "transition_cost",
     "planner.transition_cost", "planner", True, {}),
    ("repro.planner.costs", "SimulatedCostEngine", "transition_cost",
     "planner.transition_cost", "planner", True, {}),
    ("repro.adapt.controller", "AdaptiveController", "run",
     "adapt.run", "adapt", True, {"label": _adapt_mode}),
    ("repro.adapt.policies", "PolicyLibrary", "decide",
     "adapt.decide", "adapt", True, {}),
    ("repro.adapt.monitor", "LoadMonitor", "observe",
     "adapt.observe", "adapt", False, {}),
    ("repro.backend.multiprocess", "MultiprocessBackend", "attach",
     "backend.attach", "backend", True, {}),
    ("repro.backend.multiprocess", "MultiprocessBackend", "run_op",
     "backend.run_op", "backend", True, {}),
    ("repro.backend.multiprocess", "MultiprocessBackend", "move",
     "backend.move", "backend", True, {}),
    ("repro.backend.multiprocess", "MultiprocessBackend", "stencil_step",
     "backend.stencil_step", "backend", True, {}),
    ("repro.backend.multiprocess", "MultiprocessBackend", "close",
     "backend.close", "backend", True, {"before": _count_restarts}),
)

#: per-layer metrics read straight off the shim totals:
#: output name -> (shim metric, "calls" | "s")
SHIM_METRICS = {
    "machine.rank_of.calls": ("machine.rank_of", "calls"),
    "machine.ranks.calls": ("machine.ranks", "calls"),
    "machine.ranks.s": ("machine.ranks", "s"),
    "machine.exchange.calls": ("machine.exchange", "calls"),
    "machine.exchange.s": ("machine.exchange", "s"),
    "runtime.distribute.calls": ("runtime.distribute", "calls"),
    "runtime.distribute.s": ("runtime.distribute", "s"),
    "runtime.shift_exchange.s": ("runtime.shift_exchange", "s"),
    "compiler.line_sweep.s": ("compiler.line_sweep", "s"),
    "compiler.stencil_step.s": ("compiler.stencil_step", "s"),
    "apps.thomas_batch.s": ("apps.thomas_batch", "s"),
    "sim.simulate.calls": ("sim.simulate", "calls"),
    "sim.simulate.s": ("sim.simulate", "s"),
    "planner.phase_cost.calls": ("planner.phase_cost", "calls"),
    "planner.transition_cost.calls": ("planner.transition_cost", "calls"),
    "planner.transition_cost.s": ("planner.transition_cost", "s"),
    "adapt.run.static.s": ("adapt.run.static", "s"),
    "adapt.run.offline.s": ("adapt.run.offline", "s"),
    "adapt.run.adaptive.s": ("adapt.run.adaptive", "s"),
    "adapt.decide.calls": ("adapt.decide", "calls"),
    "adapt.decide.s": ("adapt.decide", "s"),
    "adapt.observe.calls": ("adapt.observe", "calls"),
    "backend.attach.s": ("backend.attach", "s"),
    "backend.run_op.calls": ("backend.run_op", "calls"),
    "backend.run_op.s": ("backend.run_op", "s"),
    "backend.move.s": ("backend.move", "s"),
    "backend.stencil_step.s": ("backend.stencil_step", "s"),
    "backend.close.s": ("backend.close", "s"),
}


def _resolve(module: str, owner: str | None):
    obj = importlib.import_module(module)
    for part in (owner.split(".") if owner else ()):
        obj = getattr(obj, part)
    return obj


class Recorder:
    """Spans and per-entry-point totals of one traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: [name, layer, start, end, parent index, cell]
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []
        self.origin = time.perf_counter()

    # -- span stack ------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _guards(self) -> dict[str, bool]:
        guards = getattr(self._local, "guards", None)
        if guards is None:
            guards = self._local.guards = {}
        return guards

    def _open(self, name: str, layer: str, cell=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if cell is None and parent >= 0:
            cell = self.spans[parent][5]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent, cell])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack().pop()
        span = self.spans[idx]
        span[3] = time.perf_counter()
        with self._lock:
            self.calls[span[0]] += 1
            self.seconds[span[0]] += span[3] - span[2]

    @contextmanager
    def span(self, name: str, layer: str, cell=None):
        """A root span the benchmark opens around one operation."""
        idx = self._open(name, layer, cell)
        try:
            yield idx
        finally:
            self._close(idx)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.extra[key] += value

    # -- shims -----------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, layer: str, timed: bool = True,
             before=None, after=None, label=None) -> None:
        """Replace ``owner.attr`` by a shim; :meth:`restore` undoes it.

        ``before(rec, args, kwargs)`` and ``after(rec, args, kwargs,
        result, span_index)`` are optional hooks; ``label(args,
        kwargs)`` names the metric per call (default ``name``).
        """
        raw = vars(owner).get(attr, _MISSING)
        fn = getattr(owner, attr)
        rec = self

        def shim(*args, **kwargs):
            guards = rec._guards()
            if guards.get(name):
                return fn(*args, **kwargs)
            guards[name] = True
            try:
                if before is not None:
                    before(rec, args, kwargs)
                if not timed:
                    with rec._lock:
                        rec.calls[name] += 1
                    return fn(*args, **kwargs)
                metric = label(args, kwargs) if label is not None else name
                idx = rec._open(metric, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec._close(idx)
                if after is not None:
                    after(rec, args, kwargs, result, idx)
                return result
            finally:
                guards[name] = False

        functools.update_wrapper(shim, fn)
        setattr(owner, attr, shim)
        self._patches.append((owner, attr, raw))

    def install(self, extra_shims: tuple = ()) -> None:
        for module, owner, attr, name, layer, timed, opts in SHIMS + tuple(extra_shims):
            self.wrap(_resolve(module, owner), attr, name, layer, timed, **opts)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    @contextmanager
    def installed(self, extra_shims: tuple = ()):
        self.install(extra_shims)
        try:
            yield self
        finally:
            self.restore()

    # -- per-pass deltas -------------------------------------------------------
    def mark(self) -> tuple:
        with self._lock:
            return (len(self.spans), dict(self.calls), dict(self.seconds),
                    dict(self.extra))

    def since(self, mark: tuple) -> dict:
        """Totals accumulated since ``mark``, plus layer self times."""
        n0, calls0, secs0, extra0 = mark
        with self._lock:
            spans = self.spans[n0:]
            calls = {k: v - calls0.get(k, 0) for k, v in self.calls.items()}
            secs = {k: v - secs0.get(k, 0.0) for k, v in self.seconds.items()}
            extra = {k: v - extra0.get(k, 0.0) for k, v in self.extra.items()}
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[3] is not None and span[4] >= n0:
                covered[span[4]] += span[3] - span[2]
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_cell: dict[tuple, float] = defaultdict(float)
        for i, span in enumerate(spans, start=n0):
            if span[3] is not None:
                dur = span[3] - span[2]
                self_s[span[1]] = self_s.get(span[1], 0.0) + dur - covered[i]
                by_cell[(span[5], span[0])] += dur
        return {"calls": calls, "s": secs, "extra": extra, "self_s": self_s,
                "by_cell": by_cell}

    @staticmethod
    def layer_values(delta: dict) -> dict[str, float]:
        """The shim-derived per-layer metrics of one delta."""
        out = {}
        for key, (metric, kind) in SHIM_METRICS.items():
            out[key] = float(delta[kind].get(metric, 0))
        out["sim.events"] = float(delta["extra"].get("sim.events", 0))
        out["backend.restarts"] = float(delta["extra"].get("backend.restarts", 0))
        for layer, value in delta["self_s"].items():
            out[f"self_s.{layer}"] = value
        return out

    # -- output ----------------------------------------------------------------
    def write(self, path: str, header: dict) -> None:
        """All spans as JSON lines (times relative to recorder creation)."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, layer, t0, t1, parent, cell) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer,
                    "start": round(t0 - self.origin, 9),
                    "end": None if t1 is None else round(t1 - self.origin, 9),
                    "parent": parent, "cell": cell,
                }) + "\n")
