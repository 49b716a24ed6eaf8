"""The adaptive controller — closing the loop the paper leaves open.

Vienna Fortran makes redistribution *expressible* (``DYNAMIC`` arrays,
run-time ``DISTRIBUTE``); PR 1's planner makes it *schedulable* from a
static cost model.  Neither answers what happens when the load evolves
in ways no offline model predicts — a particle cluster diffusing apart,
an unstructured mesh's hot spot wandering.  The
:class:`AdaptiveController` answers online: it wraps a workload run,
measures per-processor busy time window by window (clock deltas taken
around each rank's compute call, *before* the equalizing barrier),
feeds a :class:`~repro.adapt.LoadMonitor`, consults a
:class:`~repro.adapt.PolicyLibrary`, and redistributes through the
engine's ordinary ``DISTRIBUTE`` path — the same transfer-plan memos
every other redistribution pays.

Workloads opt in through the registry: ``@spec.adaptive`` (see
:mod:`repro.api.registry`) supplies the controller's parameter defaults,
a probe size, the session-param mapping, and a factory for one run's
*model* — the physics, which lives in ``apps/``:

- ``array``, ``shape``: the ``DYNAMIC`` array, redistributed along
  dimension 0 by contiguous block sizes;
- ``dist(sizes)``: its layout for those sizes (``None``: the
  declaration-time layout);
- ``steps``; ``flops_per_unit`` and ``tag``: the compute charge;
- ``work(k)``: per-cell weights step ``k`` charges;
- ``load(k)``: per-cell weights a layout chosen after step ``k``
  balances (``k = 0``: the start layout);
- ``advance(network, owners, k)``: the rest of step ``k`` after the
  measured compute, barrier included;
- ``state``: the physical state (checkpoint digest, solution);
- ``offline_schedule()``: per-window sizes planned offline, or ``None``.

One generic driver runs every model.  The four modes differ *only* in
redistribution decisions (the physical state consumes an identical RNG
stream, making solutions bitwise-equal across modes — the property the
determinism gate leans on):

=========== =============================================================
mode        layout policy
=========== =============================================================
static      BLOCK at declaration, held for the whole run
balanced    B_BLOCK from the load measured at step 0, then held
offline     the model's precomputed schedule (the planner's forecast
            from the t=0 state), applied at window boundaries; without
            one, the t=0 balance held fixed — a load that is run-time
            data is invisible to an offline tool, which is exactly the
            paper's gap
adaptive    the feedback loop: monitor -> policy tiers -> DISTRIBUTE
=========== =============================================================

Every window boundary records a :class:`Checkpoint` (step, modeled
time, live block sizes, state digest) — the in-process echo of the
multiprocess backend's op-boundary segment snapshots — and every
policy consultation lands in the decision log, on the flight recorder,
and (when metrics are enabled) in ``repro_adapt_*`` instruments.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..machine.cost_model import PRESETS, CostModel
from ..machine.machine import Machine
from ..obs import metrics as _obs
from ..obs.flight import flight_recorder as _flight
from ..obs.tracing import span as _span
from .monitor import LoadMonitor, WindowSample
from .policies import Decision, PolicyLibrary, TIER_NAMES

if TYPE_CHECKING:
    from ..api.registry import WorkloadSpec

__all__ = [
    "MODES",
    "Checkpoint",
    "ReplanRecord",
    "AdaptiveRun",
    "AdaptiveController",
    "supported_workloads",
]

MODES = ("static", "balanced", "offline", "adaptive")

_REPLANS = _obs.counter(
    "repro_adapt_replans_total",
    "Online redistributions the adaptive controller committed, "
    "by workload and policy tier.",
    ("workload", "tier"),
)
_DECISIONS = _obs.counter(
    "repro_adapt_decisions_total",
    "Policy consultations at window boundaries, by workload and verdict.",
    ("workload", "verdict"),
)
_DRIFT = _obs.gauge(
    "repro_adapt_drift",
    "EWMA-smoothed load imbalance the monitor last observed, by workload.",
    ("workload",),
)


@dataclass(frozen=True)
class Checkpoint:
    """Phase-boundary snapshot of the run's restorable state.

    The in-process analogue of the multiprocess backend's op-boundary
    segment snapshots: enough to audit (and in a fault-tolerant
    deployment, restore) the run at a window boundary — the step
    reached, the modeled clock, the live block sizes, and a digest of
    the physical state.
    """

    window: int
    step: int
    time: float
    sizes: tuple[int, ...]
    state_digest: str

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "step": self.step,
            "time": self.time,
            "sizes": list(self.sizes),
            "state_digest": self.state_digest,
        }


@dataclass(frozen=True)
class ReplanRecord:
    """One committed redistribution, with the decision that caused it."""

    window: int
    step: int
    tier: int
    rule: str
    imbalance: float
    reason: str
    plan_delta: float | None
    old_sizes: tuple[int, ...]
    new_sizes: tuple[int, ...]
    transfer_bytes: int
    time: float

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "step": self.step,
            "tier": self.tier,
            "tier_name": TIER_NAMES[self.tier],
            "rule": self.rule,
            "imbalance": self.imbalance,
            "reason": self.reason,
            "plan_delta": self.plan_delta,
            "old_sizes": list(self.old_sizes),
            "new_sizes": list(self.new_sizes),
            "transfer_bytes": self.transfer_bytes,
            "time": self.time,
        }


@dataclass
class AdaptiveRun:
    """One driven run: what happened, measured and decided."""

    workload: str
    mode: str
    nprocs: int
    window: int
    steps: int
    seed: int
    cost_model: str
    params: dict
    makespan: float
    messages: int
    bytes: int
    solution: np.ndarray
    samples: list[WindowSample] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)
    replans: list[ReplanRecord] = field(default_factory=list)
    checkpoints: list[Checkpoint] = field(default_factory=list)

    def solution_digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.solution.shape).encode())
        h.update(str(self.solution.dtype).encode())
        h.update(np.ascontiguousarray(self.solution).tobytes())
        return h.hexdigest()

    def decision_log(self) -> list[dict]:
        """The replan decisions in canonical JSON form — the payload
        the determinism gate compares across repeated runs."""
        return [d.to_json() for d in self.decisions]

    def decision_digest(self) -> str:
        payload = json.dumps(
            {
                "decisions": self.decision_log(),
                "replans": [r.to_json() for r in self.replans],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def mean_imbalance(self) -> float:
        if not self.samples:
            return 1.0
        return float(np.mean([s.imbalance for s in self.samples]))

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "nprocs": self.nprocs,
            "window": self.window,
            "steps": self.steps,
            "seed": self.seed,
            "cost_model": self.cost_model,
            "params": dict(self.params),
            "makespan": self.makespan,
            "messages": self.messages,
            "bytes": self.bytes,
            "mean_imbalance": self.mean_imbalance,
            "solution_digest": self.solution_digest(),
            "decision_digest": self.decision_digest(),
            "samples": [s.to_json() for s in self.samples],
            "decisions": self.decision_log(),
            "replans": [r.to_json() for r in self.replans],
            "checkpoints": [c.to_json() for c in self.checkpoints],
        }


def _digest_state(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class _WindowLoop:
    """Shared per-window bookkeeping: measure -> monitor -> policy ->
    (maybe) redistribute -> checkpoint.  The driver feeds it busy
    vectors and callables; it owns the records."""

    def __init__(
        self,
        run: AdaptiveRun,
        machine: Machine,
        monitor: LoadMonitor,
        policy: PolicyLibrary,
        mode: str,
        offline_schedule: Sequence[Sequence[int]] | None = None,
    ):
        self.run = run
        self.machine = machine
        self.monitor = monitor
        self.policy = policy
        self.mode = mode
        self.offline_schedule = offline_schedule
        self.windows_seen = 0

    def boundary(
        self,
        step: int,
        busy: Sequence[float],
        current_sizes: Sequence[int],
        pricing: Callable[[], float] | None,
        redistribute: Callable[[Sequence[int]], int],
        propose: Callable[[], list[int]],
        state: np.ndarray,
    ) -> list[int]:
        """One window boundary; returns the (possibly new) sizes."""
        w = self.windows_seen
        self.windows_seen += 1
        run = self.run
        sample = self.monitor.observe(busy)
        if _obs.enabled():
            _DRIFT.set(self.monitor.ewma, workload=run.workload)
        sizes = [int(s) for s in current_sizes]
        if self.mode == "adaptive":
            with _span("adapt.decide", workload=run.workload, window=w):
                decision = self.policy.decide(self.monitor, pricing=pricing)
            run.decisions.append(decision)
            if _obs.enabled():
                _DECISIONS.inc(
                    workload=run.workload,
                    verdict="replan" if decision.replan else "hold",
                )
            _flight.note(
                "adapt.decision",
                workload=run.workload,
                window=w,
                step=step,
                tier=decision.tier_name,
                replan=decision.replan,
                imbalance=round(decision.imbalance, 4),
                reason=decision.reason,
            )
            if decision.replan:
                new_sizes = [int(s) for s in propose()]
                with _span("adapt.replan", workload=run.workload, window=w):
                    moved = int(redistribute(new_sizes))
                self.monitor.notify_replanned()
                record = ReplanRecord(
                    window=w,
                    step=step,
                    tier=decision.tier,
                    rule=decision.rule,
                    imbalance=decision.imbalance,
                    reason=decision.reason,
                    plan_delta=decision.plan_delta,
                    old_sizes=tuple(sizes),
                    new_sizes=tuple(new_sizes),
                    transfer_bytes=moved,
                    time=self.machine.time,
                )
                run.replans.append(record)
                if _obs.enabled():
                    _REPLANS.inc(
                        workload=run.workload, tier=decision.tier_name
                    )
                _flight.note(
                    "adapt.replan",
                    workload=run.workload,
                    window=w,
                    step=step,
                    tier=decision.tier_name,
                    imbalance=round(decision.imbalance, 4),
                    plan_delta=decision.plan_delta,
                    sizes_delta=[
                        int(b - a) for a, b in zip(sizes, new_sizes)
                    ],
                    transfer_bytes=moved,
                )
                sizes = new_sizes
        elif self.mode == "offline" and self.offline_schedule is not None:
            nxt = w + 1
            if nxt < len(self.offline_schedule):
                planned = [int(s) for s in self.offline_schedule[nxt]]
                if planned != sizes:
                    redistribute(planned)
                    sizes = planned
        run.samples.append(sample)
        run.checkpoints.append(
            Checkpoint(
                window=w,
                step=step,
                time=self.machine.time,
                sizes=tuple(sizes),
                state_digest=_digest_state(state),
            )
        )
        return sizes


# -- the controller ----------------------------------------------------------


def supported_workloads() -> tuple[str, ...]:
    """Registered workloads with an ``@spec.adaptive`` hook."""
    from ..api.registry import REGISTRY

    return tuple(s.name for s in REGISTRY if s.adaptive_hook is not None)


def adaptive_spec(workload: str) -> "WorkloadSpec":
    """The registered spec of ``workload``; ``ValueError`` unless it has
    an ``@spec.adaptive`` hook."""
    from ..api.registry import REGISTRY

    if workload not in supported_workloads():
        raise ValueError(
            f"workload {workload!r} has no adaptive driver "
            f"(supported: {list(supported_workloads())})"
        )
    return REGISTRY.get(workload)


class AdaptiveController:
    """Online feedback control of one workload's data distribution.

    ``controller = AdaptiveController(name); run = controller.run()``
    drives the workload in ``"adaptive"`` mode; ``run(mode=...)``
    selects the baselines the bench compares against.  All modes share
    the workload's model, the seed, and the RNG stream, so only
    redistribution decisions differ between them.  ``params`` override
    the ``@spec.adaptive`` hook's defaults.
    """

    def __init__(
        self,
        workload: str,
        *,
        nprocs: int = 4,
        cost_model: CostModel | str = "Paragon",
        window: int | None = None,
        policy: PolicyLibrary | None = None,
        seed: int = 0,
        params: Mapping | None = None,
        monitor: Mapping | None = None,
    ):
        self._spec = adaptive_spec(workload)
        if isinstance(cost_model, str):
            if cost_model not in PRESETS:
                raise ValueError(
                    f"unknown cost model {cost_model!r} "
                    f"(presets: {sorted(PRESETS)})"
                )
            cost_model = PRESETS[cost_model]
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.workload = workload
        self.nprocs = int(nprocs)
        self.cost_model = cost_model
        self.policy = policy if policy is not None else PolicyLibrary()
        self.seed = int(seed)
        self.monitor_kwargs = dict(monitor or {})
        self.params = self._overlay(self._spec.adaptive_hook.defaults, params)
        if window is not None:
            self.params["window"] = int(window)
        if int(self.params["window"]) < 1:
            raise ValueError(
                f"window must be >= 1, got {self.params['window']}"
            )

    def _overlay(self, base: Mapping, overrides: Mapping | None) -> dict:
        """``base`` updated with ``overrides``; unknown keys rejected."""
        unknown = sorted(set(overrides or ()) - set(base))
        if unknown:
            raise TypeError(
                f"adaptive driver for {self.workload!r} got unknown "
                f"parameter(s) {unknown} (accepted: {sorted(base)})"
            )
        return {**base, **(overrides or {})}

    def run(self, mode: str = "adaptive", **overrides) -> AdaptiveRun:
        """Drive the workload once under ``mode``; see :data:`MODES`."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        params = self._overlay(self.params, overrides)
        with _span(
            "adapt.run", workload=self.workload, mode=mode,
            window=int(params["window"]),
        ):
            return self._drive(mode, params)

    def probe(self, drift: float | None = None) -> AdaptiveRun:
        """A small, fast adaptive run (coverage sweeps and smoke tests)."""
        overrides = dict(self._spec.adaptive_hook.probe)
        if drift is not None:
            overrides["drift"] = float(drift)
        return self.run("adaptive", **overrides)

    def _drive(self, mode: str, params: dict) -> AdaptiveRun:
        """One run of the workload's adaptive model under ``mode``.

        The one driver every model shares.  It owns everything but the
        physics: machine and engine, the array declared ``DYNAMIC``, the
        mode's start layout, per-rank busy measured around each rank's
        compute (before the model's barrier), ``rebalance_net`` pricing
        and ``balance_greedy`` proposals at window boundaries,
        redistribution, and the closing stats.
        """
        from ..api.registry import WorkloadContext
        from ..apps.load_balance import (
            balance_greedy,
            block_sizes,
            charge_owner_work,
        )
        from ..planner.costs import CostEngine
        from ..planner.phases import ArrayLoad
        from ..runtime.engine import Engine

        nprocs, spec = self.nprocs, self._spec
        ctx = WorkloadContext(
            spec.name, nprocs, self.cost_model, self.seed, dict(params)
        )
        machine = ctx.machine = spec.make_machine(ctx)
        engine = Engine(machine)
        machine.reset_network()
        model = spec.adaptive_hook.model(ctx)
        arr = engine.declare(
            model.array, model.shape, dist=model.dist(None), dynamic=True
        )
        window, steps = int(params["window"]), model.steps

        def balanced(weights: np.ndarray) -> list[int]:
            return [int(s) for s in balance_greedy(weights, nprocs)]

        def redistribute(new_sizes: Sequence[int]) -> int:
            b0 = machine.stats().bytes
            engine.distribute(model.array, model.dist(new_sizes))
            return machine.stats().bytes - b0

        sizes = block_sizes(model.shape[0], nprocs)
        schedule = model.offline_schedule() if mode == "offline" else None
        if mode == "static":
            start = sizes
        elif schedule is not None:
            start = [int(s) for s in schedule[0]] if schedule else sizes
        else:  # balanced, adaptive, and offline without a planned schedule
            start = balanced(model.load(0))
        if start != sizes:
            redistribute(start)
            sizes = start

        cost_engine = CostEngine(
            machine, itemsize=arr.itemsize, plan_cache=engine.plan_cache
        )
        run = AdaptiveRun(
            workload=spec.name, mode=mode, nprocs=nprocs, window=window,
            steps=steps, seed=self.seed, cost_model=self.cost_model.name,
            params=dict(params), makespan=0.0, messages=0, bytes=0,
            solution=model.state,
        )
        monitor = LoadMonitor(nprocs, **self.monitor_kwargs)
        loop = _WindowLoop(run, machine, monitor, self.policy, mode, schedule)

        busy = np.zeros(nprocs)
        for k in range(1, steps + 1):
            owners = np.repeat(np.arange(nprocs), sizes)
            busy += charge_owner_work(
                machine.network, owners, model.work(k),
                model.flops_per_unit, model.tag,
            )
            model.advance(machine.network, owners, k)
            if k % window:
                continue
            w = model.load(k)
            horizon = min(window, steps - k)

            def pricing() -> float:
                cand = model.dist(balanced(w)).apply(
                    model.shape, machine.full_section()
                )
                load = ArrayLoad(
                    model.array, 0, tuple(float(x) for x in w),
                    flops_per_unit=model.flops_per_unit,
                )
                return cost_engine.rebalance_net(load, arr.dist, cand, horizon)

            sizes = loop.boundary(
                step=k, busy=busy, current_sizes=sizes, pricing=pricing,
                redistribute=redistribute, propose=lambda: balanced(w),
                state=model.state,
            )
            busy = np.zeros(nprocs)

        stats = machine.stats()
        run.makespan = machine.time
        run.messages = stats.messages
        run.bytes = stats.bytes
        run.solution = model.state
        return run
