"""The adaptive controller — closing the loop the paper leaves open.

Vienna Fortran makes redistribution *expressible* (``DYNAMIC`` arrays,
run-time ``DISTRIBUTE``); PR 1's planner makes it *schedulable* from a
static cost model.  Neither answers what happens when the load evolves
in ways no offline model predicts — the PIC cluster diffusing apart,
an unstructured mesh's hot spot wandering.  The
:class:`AdaptiveController` answers online: it wraps a workload run,
measures per-processor busy time window by window (clock deltas taken
around each rank's compute call, *before* the equalizing barrier),
feeds a :class:`~repro.adapt.LoadMonitor`, consults a
:class:`~repro.adapt.PolicyLibrary`, and redistributes through the
engine's ordinary ``DISTRIBUTE`` path — the same transfer-plan memos
every other redistribution pays.

Four modes share one driver per workload, so their runs differ *only*
in redistribution decisions (the physical state consumes an identical
RNG stream, making solutions bitwise-equal across modes — the property
the determinism gate leans on):

=========== =============================================================
mode        layout policy
=========== =============================================================
static      BLOCK at declaration, held for the whole run
balanced    B_BLOCK from the load measured at step 0, then held
offline     the planner's precomputed schedule, applied at window
            boundaries (for PIC, :func:`~repro.planner.workloads
            .pic_workload`'s drift-only forecast; for irregular, the
            t=0 balance held fixed — the hot spot is run-time data an
            offline tool cannot see, which is exactly the paper's gap)
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
from typing import Callable, Mapping, Sequence

import numpy as np

from ..machine.cost_model import PRESETS, CostModel
from ..machine.machine import Machine
from ..machine.topology import ProcessorArray
from ..obs import metrics as _obs
from ..obs.flight import flight_recorder as _flight
from ..obs.tracing import span as _span
from .monitor import LoadMonitor, WindowSample
from .policies import Decision, PolicyLibrary, TIER_NAMES

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


def _even_sizes(n: int, p: int) -> list[int]:
    from ..core.dimdist import Block

    return [int(c) for c in np.bincount(Block().owners_vec(n, p), minlength=p)]


class _WindowLoop:
    """Shared per-window bookkeeping: measure -> monitor -> policy ->
    (maybe) redistribute -> checkpoint.  The workload drivers feed it
    busy vectors and callables; it owns the records."""

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


# -- PIC driver --------------------------------------------------------------

PIC_DEFAULTS: dict = {
    "ncell": 96,
    "npart": 6000,
    "steps": 60,
    "window": 6,
    "drift": 0.008,
    "diffusion": 0.01,
    "cluster_width": 0.06,
    "flops_per_particle": 20.0,
    "particle_bytes": 32,
}

PIC_PROBE: dict = {"ncell": 32, "npart": 512, "steps": 12, "window": 4}


def _pic_offline_schedule(
    params: Mapping, nprocs: int, cost_model: CostModel, seed: int
) -> list[list[int]]:
    """The planner's precomputed per-window block sizes for PIC.

    :func:`~repro.planner.workloads.pic_workload` forecasts the load
    from pure drift of the initial positions (``reflected_position``);
    with ``rebalance_every`` set to the controller's window the plan's
    phases line up one-to-one with the online windows.  Non-contiguous
    layouts (the planner's lattice can in principle pick CYCLIC) fall
    back to even blocks — the drivers redistribute by contiguous
    sizes, the shape every B_BLOCK layout has.
    """
    from ..core.dimdist import GenBlock
    from ..planner.costs import CostEngine
    from ..planner.workloads import pic_workload, plan_workload

    ncell, nprocs_ = int(params["ncell"]), int(nprocs)
    workload = pic_workload(
        ncell=ncell,
        npart=int(params["npart"]),
        steps=int(params["steps"]),
        nprocs=nprocs_,
        rebalance_every=int(params["window"]),
        drift=float(params["drift"]),
        cluster_width=float(params["cluster_width"]),
        flops_per_particle=float(params["flops_per_particle"]),
        particle_bytes=int(params["particle_bytes"]),
        cost_model=cost_model,
        seed=seed,
    )
    plan = plan_workload(workload, cost_engine=CostEngine(workload.machine))
    schedule: list[list[int]] = []
    for step in plan.steps:
        dd = step.dist.dtype.dims[0]
        if isinstance(dd, GenBlock):
            schedule.append([int(s) for s in dd.sizes])
        else:
            schedule.append(_even_sizes(ncell, nprocs_))
    return schedule


def _drive_pic(
    mode: str,
    nprocs: int,
    cost_model: CostModel,
    seed: int,
    params: Mapping,
    policy: PolicyLibrary,
    monitor_kwargs: Mapping,
) -> AdaptiveRun:
    """The Figure 2 PIC loop under controller-owned redistribution.

    Built from the same primitives as :func:`repro.apps.pic._run_pic`
    (counts -> owner-computes field work -> particle motion ->
    cross-processor reassignment), but layout changes are decided at
    window boundaries by the mode, not hard-wired.  The particle state
    consumes one RNG stream that no mode branches on, so the final
    positions — the solution — are bitwise-identical across modes.
    """
    from ..apps.load_balance import balance_greedy
    from ..apps.pic import _cell_of, _field_dist
    from ..planner.costs import CostEngine
    from ..planner.phases import ArrayLoad
    from ..runtime.engine import Engine

    ncell = int(params["ncell"])
    npart = int(params["npart"])
    steps = int(params["steps"])
    window = int(params["window"])
    drift = float(params["drift"])
    diffusion = float(params["diffusion"])
    cluster_width = float(params["cluster_width"])
    flops_per_particle = float(params["flops_per_particle"])
    particle_bytes = int(params["particle_bytes"])

    machine = Machine(ProcessorArray("P", (nprocs,)), cost_model=cost_model)
    engine = Engine(machine)
    machine.reset_network()
    nfield = 4
    fld = engine.declare(
        "FIELD", (ncell, nfield), dist=_field_dist(None, ncell, nprocs),
        dynamic=True,
    )
    sizes = _even_sizes(ncell, nprocs)

    rng = np.random.default_rng(seed)
    pos = np.clip(
        rng.normal(0.2, cluster_width, size=npart),
        0.0,
        np.nextafter(1.0, 0.0),
    )
    vel = np.full(npart, drift)

    def counts() -> np.ndarray:
        return np.bincount(_cell_of(pos, ncell), minlength=ncell)

    def redistribute(new_sizes: Sequence[int]) -> int:
        b0 = machine.stats().bytes
        engine.distribute(
            "FIELD", _field_dist([int(s) for s in new_sizes], ncell, nprocs)
        )
        return machine.stats().bytes - b0

    offline_schedule = None
    if mode == "offline":
        offline_schedule = _pic_offline_schedule(
            params, nprocs, cost_model, seed
        )
    if mode in ("balanced", "adaptive"):
        start_sizes = [int(s) for s in balance_greedy(counts(), nprocs)]
    elif mode == "offline":
        start_sizes = (
            offline_schedule[0] if offline_schedule else list(sizes)
        )
    else:  # static
        start_sizes = list(sizes)
    if start_sizes != sizes:
        redistribute(start_sizes)
        sizes = start_sizes

    cost_engine = CostEngine(
        machine, itemsize=fld.itemsize, plan_cache=engine.plan_cache
    )
    monitor = LoadMonitor(nprocs, **dict(monitor_kwargs))
    run = AdaptiveRun(
        workload="pic", mode=mode, nprocs=nprocs, window=window,
        steps=steps, seed=seed, cost_model=cost_model.name,
        params=dict(params), makespan=0.0, messages=0, bytes=0,
        solution=pos,
    )
    loop = _WindowLoop(run, machine, monitor, policy, mode, offline_schedule)

    busy_acc = np.zeros(nprocs)
    for k in range(1, steps + 1):
        owners = np.repeat(np.arange(nprocs), sizes)
        w = counts()

        # owner-computes field update; busy measured per rank *before*
        # the barrier equalizes the clocks
        loads = np.bincount(owners, weights=w, minlength=nprocs)
        clocks = machine.network.clocks
        for rank in range(nprocs):
            c0 = clocks[rank]
            machine.network.compute(
                rank, flops_per_particle * float(loads[rank]),
                tag="pic:update_field",
            )
            busy_acc[rank] += machine.network.clocks[rank] - c0
        machine.network.synchronize()

        # particle motion: one RNG stream, no mode-dependent branch
        old_cells = _cell_of(pos, ncell)
        pos = pos + vel + rng.normal(0.0, diffusion, size=npart)
        pos = np.abs(pos)
        over = pos >= 1.0
        pos[over] = 2.0 - pos[over]
        pos = np.clip(pos, 0.0, np.nextafter(1.0, 0.0))
        vel[over] = -vel[over]
        new_cells = _cell_of(pos, ncell)

        moved = old_cells != new_cells
        src = owners[old_cells[moved]]
        dst = owners[new_cells[moved]]
        cross = src != dst
        if cross.any():
            pair = src[cross] * nprocs + dst[cross]
            cnt = np.bincount(pair, minlength=nprocs * nprocs).reshape(
                nprocs, nprocs
            )
            machine.network.exchange(
                [
                    (int(s), int(d), int(cnt[s, d]) * particle_bytes,
                     "pic:reassign")
                    for s, d in zip(*np.nonzero(cnt))
                ]
            )
            machine.network.synchronize()

        if k % window == 0:
            w = counts()

            def pricing() -> float:
                cand_sizes = balance_greedy(w, nprocs)
                cand = _field_dist(
                    [int(s) for s in cand_sizes], ncell, nprocs
                ).apply((ncell, nfield), machine.full_section())
                load = ArrayLoad(
                    "FIELD", 0, tuple(float(c) for c in w),
                    flops_per_unit=flops_per_particle,
                )
                horizon = min(window, steps - k)
                return cost_engine.rebalance_net(load, fld.dist, cand, horizon)

            sizes = loop.boundary(
                step=k,
                busy=busy_acc,
                current_sizes=sizes,
                pricing=pricing,
                redistribute=redistribute,
                propose=lambda: [int(s) for s in balance_greedy(w, nprocs)],
                state=pos,
            )
            busy_acc = np.zeros(nprocs)

    stats = machine.stats()
    run.makespan = machine.time
    run.messages = stats.messages
    run.bytes = stats.bytes
    run.solution = pos
    return run


# -- irregular driver --------------------------------------------------------

IRREGULAR_DEFAULTS: dict = {
    "n": 192,
    "sweeps": 48,
    "window": 6,
    "drift": 0.02,
    "kind": "geometric",
    "amp": 6.0,
    "width": 0.06,
    "value_bytes": 8,
    #: modeled flops per unit of node weight — a heavier-than-Jacobi
    #: per-node kernel (the regime where load balance, not the cut,
    #: dominates; at the relaxation's historical 4 flops/node the cut
    #: traffic drowns any compute rebalancing)
    "flops_per_node": 2000.0,
}

IRREGULAR_PROBE: dict = {"n": 48, "sweeps": 12, "window": 4}


def _drive_irregular(
    mode: str,
    nprocs: int,
    cost_model: CostModel,
    seed: int,
    params: Mapping,
    policy: PolicyLibrary,
    monitor_kwargs: Mapping,
) -> AdaptiveRun:
    """Jacobi relaxation on an unstructured mesh with a wandering
    compute hot spot (:func:`repro.apps.irregular.drifting_weights`).

    Node ids are GenBlock-distributed; per-sweep compute is the summed
    weight of the owned nodes, communication the cut edges between
    owner blocks.  The offline arm is the t=0 balance held fixed: the
    hot spot's trajectory is run-time data, precisely the thing the
    paper's offline tooling cannot see.  The Jacobi arithmetic is one
    global vectorized update, independent of ownership, so the
    solution is bitwise-identical across modes.
    """
    from ..apps.irregular import drifting_weights, make_mesh
    from ..apps.load_balance import balance_greedy
    from ..core.dimdist import GenBlock
    from ..core.distribution import DistributionType
    from ..planner.costs import CostEngine
    from ..planner.phases import ArrayLoad
    from ..runtime.engine import Engine

    n = int(params["n"])
    sweeps = int(params["sweeps"])
    window = int(params["window"])
    drift = float(params["drift"])
    kind = str(params["kind"])
    amp = float(params["amp"])
    width = float(params["width"])
    value_bytes = int(params["value_bytes"])
    flops_per_node = float(params["flops_per_node"])

    machine = Machine(ProcessorArray("P", (nprocs,)), cost_model=cost_model)
    engine = Engine(machine)
    machine.reset_network()

    rng = np.random.default_rng(seed)
    graph = make_mesh(n, seed=seed, kind=kind, rng=rng)
    values = rng.standard_normal(n)
    edges = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    deg = np.bincount(
        np.concatenate([edges[:, 0], edges[:, 1]]), minlength=n
    ).astype(np.float64)

    def node_weights(sweep: int) -> np.ndarray:
        return drifting_weights(n, sweep, drift, amp=amp, width=width)

    sizes = _even_sizes(n, nprocs)
    arr = engine.declare(
        "V", (n,), dist=DistributionType((GenBlock(sizes),)), dynamic=True
    )

    def redistribute(new_sizes: Sequence[int]) -> int:
        b0 = machine.stats().bytes
        engine.distribute(
            "V", DistributionType((GenBlock([int(s) for s in new_sizes]),))
        )
        return machine.stats().bytes - b0

    if mode in ("balanced", "adaptive", "offline"):
        start_sizes = [int(s) for s in balance_greedy(node_weights(0), nprocs)]
        if start_sizes != sizes:
            redistribute(start_sizes)
            sizes = start_sizes

    cost_engine = CostEngine(
        machine, itemsize=arr.itemsize, plan_cache=engine.plan_cache
    )
    monitor = LoadMonitor(nprocs, **dict(monitor_kwargs))
    run = AdaptiveRun(
        workload="irregular", mode=mode, nprocs=nprocs, window=window,
        steps=sweeps, seed=seed, cost_model=cost_model.name,
        params=dict(params), makespan=0.0, messages=0, bytes=0,
        solution=values,
    )
    loop = _WindowLoop(run, machine, monitor, policy, mode, None)

    busy_acc = np.zeros(nprocs)
    for sweep in range(sweeps):
        owners = np.repeat(np.arange(nprocs), sizes)
        weights = node_weights(sweep)

        # owner-computes Jacobi work, weighted by the hot spot
        per_rank = np.bincount(owners, weights=weights, minlength=nprocs)
        clocks = machine.network.clocks
        for rank in range(nprocs):
            c0 = clocks[rank]
            machine.network.compute(
                rank, flops_per_node * float(per_rank[rank]), tag="relax:V"
            )
            busy_acc[rank] += machine.network.clocks[rank] - c0

        # cut edges: each crossing edge ships one value each way
        if len(edges):
            eu, ev = owners[edges[:, 0]], owners[edges[:, 1]]
            cross = eu != ev
            if cross.any():
                pair = np.concatenate(
                    [eu[cross] * nprocs + ev[cross],
                     ev[cross] * nprocs + eu[cross]]
                )
                cnt = np.bincount(pair, minlength=nprocs * nprocs).reshape(
                    nprocs, nprocs
                )
                machine.network.exchange(
                    [
                        (int(s), int(d), int(cnt[s, d]) * value_bytes,
                         "relax:gather")
                        for s, d in zip(*np.nonzero(cnt))
                    ]
                )
        machine.network.synchronize()

        # the global Jacobi update — ownership never enters
        nbrsum = np.bincount(
            edges[:, 0], weights=values[edges[:, 1]], minlength=n
        ) + np.bincount(
            edges[:, 1], weights=values[edges[:, 0]], minlength=n
        )
        values = np.where(
            deg > 0, 0.5 * values + 0.5 * nbrsum / np.maximum(deg, 1.0),
            values,
        )

        k = sweep + 1
        if k % window == 0:
            w_now = node_weights(sweep)

            def pricing() -> float:
                cand_sizes = balance_greedy(w_now, nprocs)
                cand = DistributionType(
                    (GenBlock([int(s) for s in cand_sizes]),)
                ).apply((n,), machine.full_section())
                load = ArrayLoad(
                    "V", 0, tuple(float(x) for x in w_now),
                    flops_per_unit=flops_per_node,
                )
                horizon = min(window, sweeps - k)
                return cost_engine.rebalance_net(load, arr.dist, cand, horizon)

            sizes = loop.boundary(
                step=k,
                busy=busy_acc,
                current_sizes=sizes,
                pricing=pricing,
                redistribute=redistribute,
                propose=lambda: [
                    int(s) for s in balance_greedy(w_now, nprocs)
                ],
                state=values,
            )
            busy_acc = np.zeros(nprocs)

    stats = machine.stats()
    run.makespan = machine.time
    run.messages = stats.messages
    run.bytes = stats.bytes
    run.solution = values
    return run


# -- the controller ----------------------------------------------------------

_DRIVERS: dict[str, Callable] = {"pic": _drive_pic}
_DEFAULTS: dict[str, dict] = {"pic": PIC_DEFAULTS}
_PROBES: dict[str, dict] = {"pic": PIC_PROBE}

try:  # networkx-gated, like the workload registration
    import networkx  # noqa: F401

    _DRIVERS["irregular"] = _drive_irregular
    _DEFAULTS["irregular"] = IRREGULAR_DEFAULTS
    _PROBES["irregular"] = IRREGULAR_PROBE
except ImportError:  # pragma: no cover - exercised only without networkx
    pass


def supported_workloads() -> tuple[str, ...]:
    """Workloads the adaptive controller has a driver for."""
    return tuple(sorted(_DRIVERS))


class AdaptiveController:
    """Online feedback control of one workload's data distribution.

    ``controller = AdaptiveController("pic"); run = controller.run()``
    drives the workload in ``"adaptive"`` mode; ``run(mode=...)``
    selects the baselines the bench compares against.  All modes share
    the driver, the seed, and the RNG stream, so only redistribution
    decisions differ between them.
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
        if workload not in _DRIVERS:
            raise ValueError(
                f"workload {workload!r} has no adaptive driver "
                f"(supported: {list(supported_workloads())})"
            )
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
        self.params = dict(_DEFAULTS[workload])
        unknown = sorted(set(params or ()) - set(self.params))
        if unknown:
            raise TypeError(
                f"adaptive driver for {workload!r} got unknown "
                f"parameter(s) {unknown} (accepted: {sorted(self.params)})"
            )
        self.params.update(params or {})
        if window is not None:
            self.params["window"] = int(window)
        if int(self.params["window"]) < 1:
            raise ValueError(
                f"window must be >= 1, got {self.params['window']}"
            )

    def run(self, mode: str = "adaptive", **overrides) -> AdaptiveRun:
        """Drive the workload once under ``mode``; see :data:`MODES`."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        params = dict(self.params)
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise TypeError(
                f"adaptive driver for {self.workload!r} got unknown "
                f"parameter(s) {unknown} (accepted: {sorted(params)})"
            )
        params.update(overrides)
        with _span(
            "adapt.run", workload=self.workload, mode=mode,
            window=int(params["window"]),
        ):
            return _DRIVERS[self.workload](
                mode,
                self.nprocs,
                self.cost_model,
                self.seed,
                params,
                self.policy,
                self.monitor_kwargs,
            )

    def probe(self, drift: float | None = None) -> AdaptiveRun:
        """A small, fast adaptive run (coverage sweeps and smoke tests)."""
        overrides = dict(_PROBES[self.workload])
        if drift is not None:
            overrides["drift"] = float(drift)
        return self.run("adaptive", **overrides)
