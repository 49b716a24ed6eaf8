"""Shared machinery of the end-to-end benchmark.

- :class:`Checker` holds the expected digest of every cell (op counts
  plus solution hashes) and raises :class:`CorrectnessError`, naming
  the cell, on the first mismatch.  Expectations come from the first
  observation of a cell, or from a file recorded by an earlier run
  (``run.py --expect``), which is how a later version of the program is
  held to the op counts of an earlier one.
- :class:`CellBench` is the pass loop of the cell-based workloads
  (``grid-scale``, ``drift-adapt``, ``spmd-mp``): one pass runs every
  cell once; a measurement repeats passes for a time budget and reports
  per-cell medians.
- :class:`Speed` measures the machine's speed throughout a run with a
  fixed reference probe, so that times can be reported at a nominal
  speed (see its docstring for why).
- Small statistics helpers (median, percentile, log-log slope).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from typing import Callable

import numpy as np


class CorrectnessError(Exception):
    """An output of the program differed from its expectation."""

    def __init__(self, cell: str, detail: str):
        super().__init__(f"cell {cell}: {detail}")
        self.cell = cell


def sha256(data: bytes | str | np.ndarray) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Expected digests per cell, checked on every observation."""

    def __init__(self, expected: dict | None = None):
        self.expected: dict[str, dict] = dict(expected or {})
        self.observed: dict[str, dict] = {}

    def check(self, cell: str, digest: dict) -> None:
        """``digest`` must equal the cell's expectation (the first
        observation sets it when none was loaded)."""
        digest = json.loads(json.dumps(digest))  # canonical JSON types
        want = self.expected.setdefault(cell, digest)
        if want != digest:
            diff = {
                k: (want.get(k), digest.get(k))
                for k in sorted(set(want) | set(digest))
                if want.get(k) != digest.get(k)
            }
            raise CorrectnessError(cell, f"expected != observed: {diff}")
        self.observed[cell] = digest

    @staticmethod
    def equal(cell: str, what: str, a, b) -> None:
        if a != b:
            raise CorrectnessError(cell, f"{what}: {a!r} != {b!r}")


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``inf`` entries
    (failed requests) sort last, as misses of any latency limit."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# -- machine speed -------------------------------------------------------------

#: the reference probe's time on the nominal machine (seconds); a
#: normalized time is the time the operation would take there
REF_NOMINAL_S = 0.004
_REF_DATA = np.random.default_rng(0).standard_normal(256)


def _coord_of(shape, rank):
    out = []
    for n in reversed(shape):
        out.append(rank % n)
        rank //= n
    return tuple(reversed(out))


class Speed:
    """The machine's speed, sampled throughout a run.

    On a shared host the speed of the same code drifts by a quarter
    over tens of seconds, which no in-run median removes.  The
    reference probe is fixed code of the benchmark (small-tuple
    arithmetic, dict updates and small numpy operations: the
    interpreter-bound mix the program runs), sampled between
    operations.  A *normalized* time is ``wall * REF_NOMINAL_S /
    median(probe)`` over the probes of the same pass: the wall time
    scaled to a host where the probe takes :data:`REF_NOMINAL_S`.  The
    program's code never runs inside the probe, so a change to the
    program moves normalized times exactly as it moves wall times.
    """

    def __init__(self, every: float = 0.05):
        self.every = every
        self.samples: list[float] = []
        self._last = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for r in range(600):
            coord = _coord_of((4, 4, 4), r % 64)
            acc += sum(c * 2 for c in coord) + len(coord)
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        x = _REF_DATA
        for _ in range(200):
            x = np.roll(x, 1) * 0.5 + _REF_DATA
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe(self) -> None:
        """Probe if :attr:`every` seconds have passed since the last probe."""
        if time.perf_counter() - self._last >= self.every:
            self.probe()

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.probe()

    def factor(self, since: int = 0) -> float:
        """Multiply a wall time by this to normalize it, using the
        probes taken after index ``since`` (one pass or segment)."""
        return REF_NOMINAL_S / median(self.samples[since:])


# -- the cell pass loop -------------------------------------------------------

class Cell:
    """One public-API operation of a workload.

    ``op()`` performs it (this is what is timed) and ``digest(result)``
    reduces the result to a JSON-able dict of op counts and output
    hashes, checked against the cell's expectation.  ``stage`` groups
    cells into the workload's stage metrics.
    """

    def __init__(self, cell_id: str, stage: str, op: Callable[[], object],
                 digest: Callable[[object], dict]):
        self.id = cell_id
        self.stage = stage
        self.op = op
        self.digest = digest


class CellBench:
    """Pass loop shared by the cell-based workloads.

    Subclasses build ``self.cells`` in :meth:`open` and may override
    :meth:`after_pass` (cross-cell checks), :meth:`stage_metrics` and
    :meth:`layer_metrics`.
    """

    name = "?"
    #: scale times by the reference probe (see :class:`Speed`); only
    #: sound when the work runs on the CPU the probe runs on
    normalize = True

    def __init__(self, seed: int, checker: Checker, smoke: bool = False):
        self.seed = int(seed)
        self.checker = checker
        self.smoke = bool(smoke)
        self.rng = np.random.default_rng(self.seed)
        self.cells: list[Cell] = []
        self.attempted = 0
        self.failed = 0
        self.last: dict[str, dict] = {}
        #: set during traced passes: each cell runs inside a root span
        self.recorder = None
        self.speed = Speed()

    # -- lifecycle (overridden) --------------------------------------------
    def open(self) -> None:
        raise NotImplementedError

    def plan_caches(self) -> list:
        """The PlanCaches the workload's operations use."""
        from repro.runtime.redistribute import default_plan_cache

        return [default_plan_cache()]

    def close(self) -> None:
        pass

    # -- one pass ------------------------------------------------------------
    def run_pass(self, times: dict[str, list[float]] | None = None,
                 norm: dict[str, list[float]] | None = None) -> float:
        """Run every cell once, appending each cell's wall seconds to
        ``times`` and its normalized seconds (see :class:`Speed`) to
        ``norm``; returns the pass wall seconds."""
        self.last = {}
        walls: dict[str, float] = {}
        mark = len(self.speed.samples)
        t_pass = time.perf_counter()
        for cell in self.cells:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if self.recorder is None:
                    result = cell.op()
                else:
                    with self.recorder.span(f"api.{cell.stage}", "api", cell.id):
                        result = cell.op()
            except Exception as exc:  # an operation failed: count it
                self.failed += 1
                print(f"operation failed in cell {cell.id}: "
                      f"{type(exc).__name__}: {exc}", flush=True)
                continue
            dt = time.perf_counter() - t0
            digest = cell.digest(result)
            if digest is None:  # the operation reported a degraded run
                self.failed += 1
                continue
            self.checker.check(cell.id, digest)
            self.last[cell.id] = digest
            walls[cell.id] = dt
            self.speed.maybe()
        t_pass = time.perf_counter() - t_pass
        self.after_pass()
        if len(self.speed.samples) == mark:
            self.speed.probe()
        factor = self.speed.factor(mark) if self.normalize else 1.0
        for cell_id, dt in walls.items():
            if times is not None:
                times.setdefault(cell_id, []).append(dt)
            if norm is not None:
                norm.setdefault(cell_id, []).append(dt * factor)
        return t_pass

    def after_pass(self) -> None:
        """Cross-cell checks on ``self.last`` (e.g. serial == parallel)."""

    def warm(self) -> None:
        self.run_pass()

    def passes(self, seconds: float) -> tuple[dict, dict, list[float]]:
        """Repeat passes until ``seconds`` have elapsed (at least one);
        returns per-cell wall and normalized times and the pass walls."""
        self.speed = Speed()
        times: dict[str, list[float]] = {}
        norm: dict[str, list[float]] = {}
        walls: list[float] = []
        t_end = time.perf_counter() + seconds
        while not walls or time.perf_counter() < t_end:
            walls.append(self.run_pass(times, norm))
        return times, norm, walls

    # -- metrics ---------------------------------------------------------------
    def stage_sums(self, times: dict[str, list[float]]) -> dict[str, float]:
        """Per stage: the sum over its cells of the median cell time."""
        sums: dict[str, float] = {}
        for cell in self.cells:
            if cell.id in times:
                sums[cell.stage] = sums.get(cell.stage, 0.0) + median(times[cell.id])
        return sums

    def measure(self, seconds: float) -> dict[str, float]:
        """The end-to-end metrics every workload reports: the pass time
        as a sum of per-cell medians, and the operations per second it
        implies, both normalized to the nominal machine speed (unless
        :attr:`normalize` is off)."""
        times, norm, _ = self.passes(seconds)
        pass_s = sum(median(v) for v in norm.values())
        return {"pass_s": pass_s, "req_per_s": len(norm) / pass_s,
                **self.speed_metrics(times)}

    def speed_metrics(self, times: dict[str, list[float]]) -> dict[str, float]:
        """The raw wall time behind the normalized metrics."""
        return {"pass_wall_s": sum(median(v) for v in times.values()),
                "speed.ref_probe_ms": median(self.speed.samples) * 1e3}

    def stage_metrics(self, times: dict[str, list[float]]) -> dict[str, float]:
        return {}

    def layer_metrics(self, delta: dict) -> dict[str, float]:
        return {}

    def measure_traced(self, seconds: float, recorder) -> dict[str, float]:
        """Untraced passes for half the budget (workload stage metrics
        and the tracing-overhead base), then traced passes for the
        other half; per-layer numbers are per-pass medians."""
        times, _, walls = self.passes(seconds / 2)
        out = {**self.stage_metrics(times), **self.speed_metrics(times)}
        per_pass: list[dict[str, float]] = []
        traced_walls: list[float] = []
        self.recorder = recorder
        try:
            with recorder.installed():
                t_end = time.perf_counter() + seconds / 2
                while not traced_walls or time.perf_counter() < t_end:
                    mark, caches = recorder.mark(), cache_counts(self.plan_caches())
                    traced_walls.append(self.run_pass())
                    delta = recorder.since(mark)
                    per_pass.append({
                        **recorder.layer_values(delta),
                        **cache_ratios(caches, cache_counts(self.plan_caches())),
                        **op_counts(self.last.values()),
                        **self.layer_metrics(delta),
                    })
        finally:
            self.recorder = None
        for key in per_pass[0]:
            out[key] = median(p.get(key, 0.0) for p in per_pass)
        out["obs.trace_overhead_frac"] = (
            median(traced_walls) / median(walls) - 1.0
        )
        return out


# -- per-layer counts shared by every workload ------------------------------------

def cache_counts(plan_caches) -> dict[str, int]:
    """Owner-map and plan-cache hit/miss totals (public stats calls)."""
    from repro.core.interning import owners_cache_stats

    owners = owners_cache_stats()
    out = {
        "owners_hits": owners["owners_vec_hits"] + owners["rank_map_hits"],
        "owners_misses": owners["owners_vec_misses"] + owners["rank_map_misses"],
        "plan_hits": 0,
        "plan_misses": 0,
    }
    for cache in {id(c): c for c in plan_caches}.values():
        stats = cache.stats()
        out["plan_hits"] += stats["hits"]
        out["plan_misses"] += stats["misses"]
    return out


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def cache_ratios(before: dict, after: dict) -> dict[str, float]:
    d = {k: after[k] - before[k] for k in before}
    return {
        "core.owners_cache.hit_ratio": _ratio(d["owners_hits"], d["owners_misses"]),
        "runtime.plan_cache.hit_ratio": _ratio(d["plan_hits"], d["plan_misses"]),
    }


def op_counts(digests) -> dict[str, float]:
    """Messages and bytes the pass's operations reported (exact)."""
    digests = list(digests)
    return {
        "machine.messages": float(sum(d.get("messages", 0) for d in digests)),
        "machine.bytes": float(sum(d.get("bytes", 0) for d in digests)),
    }
