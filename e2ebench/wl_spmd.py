"""``spmd-mp``: ADI and smoothing on the multiprocess backend.

Each cell runs ``.run()`` with ``backend="multiprocess"`` at 2
processors (no more workers than a 2-core machine has cores), which spawns
a worker fleet, dispatches SPMD ops and tears the fleet down.  The same
cells also run on the serial backend: the single-threaded baseline.

Correctness: the multiprocess solution equals the serial one bitwise
and both report the same messages and bytes; every cell repeats exactly
across passes; a run that degraded to the serial fallback counts as a
failed operation, and the degraded session is replaced by a fresh
multiprocess one so that the runs after it use the backend again.
"""

from __future__ import annotations

from harness import Cell, CellBench, Checker, sha256

NPROCS = 2
APPS = (
    ("adi", {"size": 128, "iterations": 4}),
    ("adi", {"size": 96, "iterations": 4}),
    ("smoothing", {"size": 128, "steps": 20}),
    ("smoothing", {"size": 192, "steps": 10}),
)
SMOKE_APPS = (
    ("adi", {"size": 32, "iterations": 1}),
    ("smoothing", {"size": 32, "steps": 2}),
)
BACKENDS = ("multiprocess", "serial")


class SpmdMultiprocess(CellBench):
    name = "spmd-mp"
    #: the multiprocess runs use every CPU, in worker processes, so the
    #: reference probe in this process does not track their speed: in
    #: ten seeds on a busy 2-CPU host, normalized pass_s and setup_s
    #: spread 9% and 32%, their wall times 7% and 10% in the same runs
    normalize = False

    def open(self) -> None:
        self.sessions = {b: _open_session(b) for b in BACKENDS}
        #: cell id -> (backend, app, seed, params); handles are rebuilt
        #: from it when a session is replaced
        self.specs: dict[str, tuple] = {}
        self.handles: dict[str, object] = {}
        self.pairs: list[tuple[str, str]] = []
        for app, params in (SMOKE_APPS if self.smoke else APPS):
            seed = int(self.rng.integers(1, 2**31 - 1))
            size = "x".join(f"{k}{v}" for k, v in params.items())
            cell = f"{self.name}/{app}/{size}"
            for backend in BACKENDS:
                cell_id = f"{cell}/{backend}"
                self.specs[cell_id] = (backend, app, seed, params)
                self.cells.append(Cell(cell_id, backend,
                                       lambda c=cell_id: self._run(c), _digest))
            self.pairs.append((f"{cell}/multiprocess", f"{cell}/serial"))
        self._handles(BACKENDS)

    def _handles(self, backends) -> None:
        for cell_id, (backend, app, seed, params) in self.specs.items():
            if backend in backends:
                self.handles[cell_id] = self.sessions[backend].workload(
                    app, seed=seed, **params)

    def _run(self, cell_id: str):
        """Run the cell; ``None`` if the run degraded to the serial
        fallback, after which the poisoned session is replaced."""
        backend = self.specs[cell_id][0]
        result = self.handles[cell_id].run()
        if not self.sessions[backend].poisoned:
            return result
        self.sessions[backend].close()
        self.sessions[backend] = _open_session(backend)
        self._handles((backend,))
        return None

    def plan_caches(self) -> list:
        return super().plan_caches() + [s.plan_cache for s in self.sessions.values()]

    def after_pass(self) -> None:
        for mp, serial in self.pairs:
            if mp in self.last and serial in self.last:
                Checker.equal(mp, "multiprocess vs serial", self.last[mp],
                              self.last[serial])

    def close(self) -> None:
        for sess in self.sessions.values():
            sess.close()
        # the backend starts multiprocessing's resource tracker; stop it
        # and wait for it, so the benchmark leaves no process behind
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        stop = getattr(tracker, "_stop", None)  # private; absent on some Pythons
        if stop is not None and getattr(tracker, "_pid", None) is not None:
            stop()

    def stage_metrics(self, times: dict) -> dict[str, float]:
        sums = self.stage_sums(times)
        run_s = sums.get("multiprocess", 0.0)
        serial = sums.get("serial", 0.0)
        return {"run_s": run_s, "serial_run_s": serial,
                "backend.overhead_x": run_s / serial if serial else 0.0}

    def layer_metrics(self, delta: dict) -> dict[str, float]:
        """Share of the multiprocess runs spent in ``run_op``."""
        by_cell = delta["by_cell"]
        runs = [c.id for c in self.cells if c.stage == "multiprocess"]
        run_s = sum(by_cell.get((c, "api.multiprocess"), 0.0) for c in runs)
        op_s = sum(by_cell.get((c, "backend.run_op"), 0.0) for c in runs)
        return {"backend.run_op.share_of_run": op_s / run_s if run_s else 0.0}


def _open_session(backend: str):
    import repro

    return repro.session(nprocs=NPROCS, backend=backend, degrade=True)


def _digest(result) -> dict | None:
    if result is None:  # degraded to the serial fallback
        return None
    return {"messages": result.messages, "bytes": result.bytes,
            "solution_sha256": sha256(result.solution)}
