"""``grid-scale``: ADI (Figure 1) and smoothing (§4) over an nprocs sweep.

Each app runs ``.plan()`` (cost modes ``model`` and ``simulated``),
``.run()`` and ``.trace()`` through the session facade on the
in-process serial path, at every processor count of the sweep.  The
processors are virtual and live in one OS process, so wall time
against nprocs measures the simulator's own cost.

Correctness: every cell's op counts and output hashes repeat exactly
across passes; every run's solution equals the sequential oracle
bitwise (and so is the same at every nprocs); every trace's blocking
replay reproduces the aggregate accounting.
"""

from __future__ import annotations

import json

import numpy as np

from harness import Cell, CellBench, Checker, loglog_slope, median, sha256

NPROCS = (4, 16, 64)
APPS = {
    "adi": {"size": 32, "iterations": 1},
    "smoothing": {"size": 32, "steps": 2},
}
SMOKE_NPROCS = (2, 4, 8)
SMOKE_APPS = {
    "adi": {"size": 16, "iterations": 1},
    "smoothing": {"size": 16, "steps": 1},
}


def _reference(app: str, params: dict, seed: int) -> str:
    """sha256 of the sequential oracle's solution for one app."""
    from repro.apps.adi import adi_reference
    from repro.apps.smoothing import smoothing_reference

    n = params["size"]
    grid = np.random.default_rng(seed).standard_normal((n, n))
    if app == "adi":
        return sha256(adi_reference(grid, params["iterations"], -1.0, 4.0))
    return sha256(smoothing_reference(grid, params["steps"]))


class GridScale(CellBench):
    name = "grid-scale"

    def open(self) -> None:
        import repro

        self.nprocs = SMOKE_NPROCS if self.smoke else NPROCS
        apps = SMOKE_APPS if self.smoke else APPS
        self.sessions = {p: repro.session(nprocs=p) for p in self.nprocs}
        for app, params in apps.items():
            seed = int(self.rng.integers(1, 2**31 - 1))
            reference = _reference(app, params, seed)
            for p, sess in self.sessions.items():
                handle = sess.workload(app, seed=seed, **params)
                cell = f"{self.name}/{app}/P{p}"
                self.cells += [
                    Cell(f"{cell}/plan-model", "plan",
                         lambda h=handle: h.plan(cost_mode="model"),
                         _plan_digest),
                    Cell(f"{cell}/plan-simulated", "plan",
                         lambda h=handle: h.plan(cost_mode="simulated"),
                         _plan_digest),
                    Cell(f"{cell}/run", "run", handle.run,
                         lambda r, c=cell, ref=reference: _run_digest(r, c, ref)),
                    Cell(f"{cell}/trace", "trace", handle.trace,
                         lambda t, c=cell: _trace_digest(t, c)),
                ]

    def plan_caches(self) -> list:
        return super().plan_caches() + [s.plan_cache for s in self.sessions.values()]

    def close(self) -> None:
        for sess in self.sessions.values():
            sess.close()

    def _run_cells(self, p: int, times: dict) -> float:
        return sum(median(times[c.id]) for c in self.cells
                   if c.stage == "run" and f"/P{p}/" in c.id and c.id in times)

    def stage_metrics(self, times: dict) -> dict[str, float]:
        sums = self.stage_sums(times)
        return {
            "plan_s": sums.get("plan", 0.0),
            "run_s": sums.get("run", 0.0),
            "trace_s": sums.get("trace", 0.0),
            "scale_exp": loglog_slope(
                self.nprocs, [self._run_cells(p, times) for p in self.nprocs]
            ),
        }

    def layer_metrics(self, delta: dict) -> dict[str, float]:
        """Share of the largest-nprocs runs spent in ``ranks()``."""
        by_cell = delta["by_cell"]
        runs = [c.id for c in self.cells
                if c.stage == "run" and f"/P{self.nprocs[-1]}/" in c.id]
        run_s = sum(by_cell.get((c, "api.run"), 0.0) for c in runs)
        ranks_s = sum(by_cell.get((c, "machine.ranks"), 0.0) for c in runs)
        return {"machine.ranks.share_of_run_at_pmax":
                ranks_s / run_s if run_s else 0.0}


def _plan_digest(result) -> dict:
    return {"plan_sha256": sha256(result.json_str())}


def _run_digest(result, cell: str, reference: str) -> dict:
    solution = sha256(result.solution)
    Checker.equal(cell + "/run", "solution vs sequential oracle",
                  solution, reference)
    return {"messages": result.messages, "bytes": result.bytes,
            "solution_sha256": solution}


def _trace_digest(result, cell: str) -> dict:
    Checker.equal(cell + "/trace", "blocking replay matches aggregate",
                  result.matches_aggregate, True)
    return {
        "events": len(result.events),
        "trace_sha256": sha256(json.dumps(result.to_json(intervals=False))),
    }
