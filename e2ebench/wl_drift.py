"""``drift-adapt``: the E16 drifting-load scenarios under the controller.

``pic-drift`` and ``irregular-hotspot`` (the scenarios
:mod:`repro.adapt.bench` defines) run under
``AdaptiveController.run`` in modes ``static``, ``offline`` and
``adaptive`` at 4 processors, for several seeds generated from the
benchmark seed.

Correctness: each cell's solution and decision digests and op counts
repeat exactly across passes, and within one (scenario, seed) every
mode reaches the bitwise-same solution (modes differ only in layout).
"""

from __future__ import annotations

from harness import Cell, CellBench, CorrectnessError

MODES = ("static", "offline", "adaptive")
SEEDS = 12
SMOKE_SEEDS = 1


class DriftAdapt(CellBench):
    name = "drift-adapt"

    def open(self) -> None:
        from repro.adapt import AdaptiveController
        from repro.adapt.bench import SCENARIOS, SMOKE_SCENARIOS

        scenarios = SMOKE_SCENARIOS if self.smoke else SCENARIOS
        nseeds = SMOKE_SEEDS if self.smoke else SEEDS
        seeds = [int(s) for s in self.rng.integers(0, 2**31 - 1, size=nseeds)]
        self.groups: list[list[str]] = []
        for scenario in scenarios:
            for seed in seeds:
                controller = AdaptiveController(
                    scenario["workload"],
                    nprocs=scenario["nprocs"],
                    cost_model=scenario["cost_model"],
                    seed=seed,
                    params=dict(scenario["params"]),
                )
                group = f"{self.name}/{scenario['name']}/seed{seed}"
                self.groups.append([f"{group}/{m}" for m in MODES])
                self.cells += [
                    Cell(f"{group}/{mode}", "adapt",
                         lambda c=controller, m=mode: c.run(m), _digest)
                    for mode in MODES
                ]

    def after_pass(self) -> None:
        for ids in self.groups:
            solutions = {i: self.last[i]["solution_sha256"]
                         for i in ids if i in self.last}
            if len(set(solutions.values())) > 1:
                raise CorrectnessError(ids[0].rsplit("/", 1)[0],
                                       f"solutions differ across modes: {solutions}")

    def stage_metrics(self, times: dict) -> dict[str, float]:
        return {"adapt_s": self.stage_sums(times).get("adapt", 0.0)}

    def layer_metrics(self, delta: dict) -> dict[str, float]:
        return {"adapt.replans": float(sum(
            d["replans"] for d in self.last.values()))}


def _digest(run) -> dict:
    return {
        "messages": run.messages,
        "bytes": run.bytes,
        "replans": len(run.replans),
        "solution_sha256": run.solution_digest(),
        "decision_sha256": run.decision_digest(),
    }
