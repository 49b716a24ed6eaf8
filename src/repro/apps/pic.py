"""Particle-in-cell simulation — paper Figure 2, §4.

"Consider a simulation code based on the particle-in-cell method ...
The computation at each time step can be divided into two phases.  In
the first phase, a global force field is computed using the current
position of particles.  In the second phase, given the new global
force field, new positions of the particles are computed. ...  The
main goal here is to distribute the cells across the processors such
that the work per processor is approximately equal."

The reproduction keeps Figure 2's structure:

- cells are the first dimension of a dynamic ``FIELD`` array,
  initially ``(BLOCK, :)``;
- ``initpos`` places particles (a configurable clustered profile so
  that drift creates the load imbalance the paper worries about);
- ``balance`` computes contiguous block sizes from per-cell particle
  counts; ``DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)`` applies them;
- each step runs ``update_field`` (owner-computes work proportional
  to local particle count), ``update_part`` (drift + diffusion;
  particles crossing to a cell on another processor cost aggregated
  reassignment messages via the inspector/executor pattern);
- every ``rebalance_every``-th step, if the imbalance exceeds a
  threshold, ``balance`` + redistribute (Figure 2's
  ``IF (MOD(k,10).EQ.0 .AND. rebalance())`` test).

The step's pieces — :func:`cell_counts`, :func:`move_particles`,
:func:`reassign` — are shared with :class:`AdaptivePIC`, the model the
adaptive controller drives.

The ``"planned"`` strategy replaces the fixed imbalance threshold with
the distribution planner's cost engine (:mod:`repro.planner.costs`):
at each checkpoint it redistributes exactly when the modeled compute
time saved over the next ``rebalance_every`` steps exceeds the modeled
cost of the transfer — the cost-driven version of ``rebalance()``.

:func:`execute_pic` records, per step, the load imbalance, the messages
spent on particle motion, field work time, and redistribution cost —
the trajectories experiment E3 plots against the static-BLOCK
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..backend.base import Backend, attached_backend
from ..core.dimdist import Block, GenBlock, NoDist
from ..core.distribution import DistributionType
from ..defaults import DEFAULT_SEED
from ..machine.machine import Machine
from ..runtime.engine import Engine
from .load_balance import (
    balance_greedy,
    block_sizes,
    charge_owner_work,
    exchange_pairs,
)

if TYPE_CHECKING:
    from ..api.registry import WorkloadContext

__all__ = [
    "PICConfig",
    "StepRecord",
    "PICResult",
    "AdaptivePIC",
    "execute_pic",
    "initpos",
    "reflected_position",
    "cell_counts",
    "move_particles",
    "reassign",
]

#: FIELD's second extent: a small per-cell record standing in for the
#: paper's NPART slots
NFIELD = 4
#: compute tag of the owner-computes field update
FIELD_TAG = "pic:update_field"


@dataclass
class PICConfig:
    """Parameters of the PIC run (paper names where they exist)."""

    ncell: int = 128            # NCELL
    npart: int = 4096           # total particles (paper bounds per cell)
    max_time: int = 50          # MAX_TIME
    nprocs: int = 4
    rebalance_every: int = 10   # "every 10th iteration"
    imbalance_threshold: float = 1.25  # rebalance() trigger
    drift: float = 0.004        # mean particle velocity (domain units/step)
    diffusion: float = 0.002    # random-walk scale
    cluster_width: float = 0.08  # initpos cluster stddev
    flops_per_particle: float = 20.0  # update_field work per particle
    particle_bytes: int = 32    # payload per reassigned particle
    #: "bblock" (Figure 2) | "static" baseline | "planned" (cost-driven)
    strategy: str = "bblock"
    seed: int = DEFAULT_SEED


@dataclass
class StepRecord:
    """Per-step measurements."""

    step: int
    imbalance: float       # max/mean particles per processor
    max_load: int          # particles on the busiest processor
    motion_messages: int   # particle-reassignment messages
    motion_bytes: int
    redistributed: bool
    redistribution_bytes: int
    time: float            # machine clock at end of step


@dataclass
class PICResult:
    config: PICConfig
    steps: list[StepRecord] = field(default_factory=list)
    redistributions: int = 0
    total_time: float = 0.0

    @property
    def mean_imbalance(self) -> float:
        return float(np.mean([s.imbalance for s in self.steps]))

    @property
    def max_imbalance(self) -> float:
        return float(max(s.imbalance for s in self.steps))

    @property
    def motion_bytes_total(self) -> int:
        return sum(s.motion_bytes for s in self.steps)

    @property
    def redistribution_bytes_total(self) -> int:
        return sum(s.redistribution_bytes for s in self.steps)


def initpos(config: PICConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial particle positions: a Gaussian cluster near x = 0.2.

    A clustered profile makes the static BLOCK distribution imbalanced
    from the start and lets drift move the hot spot across processor
    boundaries — the scenario §4 gives for needing B_BLOCK rebalancing.
    """
    pos = rng.normal(0.2, config.cluster_width, size=config.npart)
    return np.clip(pos, 0.0, np.nextafter(1.0, 0.0))


def _cell_of(pos: np.ndarray, ncell: int) -> np.ndarray:
    return np.minimum((pos * ncell).astype(np.int64), ncell - 1)


def cell_counts(pos: np.ndarray, ncell: int) -> np.ndarray:
    """Particles per cell — the field update's per-cell work."""
    return np.bincount(_cell_of(pos, ncell), minlength=ncell)


def move_particles(
    pos, vel, rng: np.random.Generator, diffusion: float
) -> np.ndarray:
    """Drift plus diffusion between reflecting walls; returns the new
    positions and negates ``vel`` in place where a particle hit the top."""
    pos = pos + vel + rng.normal(0.0, diffusion, size=pos.size)
    pos = np.abs(pos)
    over = pos >= 1.0
    pos[over] = 2.0 - pos[over]
    pos = np.clip(pos, 0.0, np.nextafter(1.0, 0.0))
    vel[over] = -vel[over]
    return pos


def reassign(
    network, owners, old_cells, new_cells, particle_bytes: int
) -> None:
    """Ship particles whose cell changed owner, then synchronize."""
    moved = old_cells != new_cells
    src = owners[old_cells[moved]]
    dst = owners[new_cells[moved]]
    cross = src != dst
    if cross.any():
        exchange_pairs(
            network, src[cross], dst[cross], particle_bytes, "pic:reassign"
        )
        network.synchronize()


def reflected_position(start: np.ndarray, displacement: float) -> np.ndarray:
    """Closed-form position after drifting ``displacement`` from
    ``start`` with reflecting walls at 0 and 1 — the triangle wave.

    The distribution planner uses it to model the cluster's trajectory
    without simulating.  For pure drift (no diffusion) it matches
    :func:`execute_pic`'s per-step bookkeeping exactly through the first
    (top) wall bounce; past that the two diverge — ``execute_pic``'s
    bottom wall reflects position without negating velocity, so its
    particles linger at the wall, while this models ideal reflection."""
    folded = np.mod(np.asarray(start, dtype=float) + displacement, 2.0)
    pos = np.where(folded >= 1.0, 2.0 - folded, folded)
    return np.clip(pos, 0.0, np.nextafter(1.0, 0.0))


def _field_dist(sizes: list[int] | None, ncell: int, nprocs: int) -> DistributionType:
    if sizes is None:
        return DistributionType((Block(), NoDist()))
    return DistributionType((GenBlock(sizes), NoDist()))


def execute_pic(
    machine: Machine,
    config: PICConfig,
    rng: np.random.Generator | None = None,
    backend: Backend | str | None = None,
) -> PICResult:
    """Run the Figure 2 PIC loop; see the module docstring.

    All randomness (initial positions, diffusion) flows through the
    single ``rng`` generator — pass one explicitly to share a stream
    across runs, or leave it ``None`` to derive a fresh one from
    ``config.seed`` (the historical behaviour, bit for bit).  With the
    same generator state, two runs are deterministic regardless of the
    execution ``backend`` — the property the backend conformance suite
    relies on.
    """
    if machine.nprocs != config.nprocs:
        raise ValueError(
            f"machine has {machine.nprocs} processors, config says {config.nprocs}"
        )
    if config.strategy not in ("bblock", "static", "planned"):
        raise ValueError("strategy must be 'bblock', 'static' or 'planned'")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    with attached_backend(machine, backend):
        return _run_pic(machine, config, rng)


def _run_pic(
    machine: Machine, config: PICConfig, rng: np.random.Generator
) -> PICResult:
    engine = Engine(machine)
    machine.reset_network()

    ncell, nprocs = config.ncell, config.nprocs
    # FIELD(NCELL, NFIELD): per-cell field values
    fld = engine.declare(
        "FIELD",
        (ncell, NFIELD),
        dist=_field_dist(None, ncell, nprocs),
        dynamic=True,
    )

    # C Compute initial position of particles
    pos = initpos(config, rng)
    vel = np.full(config.npart, config.drift)

    def cell_owner_map() -> np.ndarray:
        """Owner rank of each cell under FIELD's current distribution."""
        return np.asarray(fld.dist.rank_map())[:, 0]

    # C Compute initial partition of cells + DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)
    if config.strategy in ("bblock", "planned"):
        bounds = balance_greedy(cell_counts(pos, ncell), nprocs)
        engine.distribute("FIELD", _field_dist(bounds, ncell, nprocs))

    cost_engine = None
    if config.strategy == "planned":
        from ..planner.costs import CostEngine

        cost_engine = CostEngine(
            machine, itemsize=fld.itemsize, plan_cache=engine.plan_cache
        )

    result = PICResult(config)
    for k in range(1, config.max_time + 1):
        owners = cell_owner_map()

        # C Compute new field: owner-computes, work ~ local particles
        charge_owner_work(
            machine.network, owners, cell_counts(pos, ncell),
            config.flops_per_particle, FIELD_TAG,
        )
        machine.network.synchronize()

        # C Compute new particle positions and reassign them
        old_cells = _cell_of(pos, ncell)
        pos = move_particles(pos, vel, rng, config.diffusion)
        m0 = machine.stats()
        reassign(
            machine.network, owners, old_cells, _cell_of(pos, ncell),
            config.particle_bytes,
        )
        m1 = machine.stats()

        # C Rebalance every rebalance_every-th iteration if necessary
        redistributed = False
        redist_bytes = 0
        w = cell_counts(pos, ncell)
        loads = np.bincount(owners, weights=w, minlength=nprocs)
        imb = float(loads.max() / max(loads.mean(), 1e-12))
        worthwhile = False
        if (
            config.strategy in ("bblock", "planned")
            and k % config.rebalance_every == 0
        ):
            if config.strategy == "bblock":
                worthwhile = imb > config.imbalance_threshold
                if worthwhile:
                    bounds = balance_greedy(w, nprocs)
            else:
                bounds = balance_greedy(w, nprocs)
                # cost-driven rebalance(): redistribute iff the modeled
                # compute saving over the next window beats the move
                from ..planner.phases import ArrayLoad

                cand = _field_dist(bounds, ncell, nprocs).apply(
                    (ncell, NFIELD), machine.full_section()
                )
                load = ArrayLoad(
                    "FIELD",
                    0,
                    tuple(float(c) for c in w),
                    flops_per_unit=config.flops_per_particle,
                )
                # the saving only accrues over steps that will actually
                # run — a checkpoint near max_time has a short horizon
                horizon = min(config.rebalance_every, config.max_time - k)
                worthwhile = horizon > 0 and cost_engine.rebalance_net(
                    load, fld.dist, cand, horizon
                ) > 0
        if worthwhile:
            r0 = machine.stats()
            engine.distribute("FIELD", _field_dist(bounds, ncell, nprocs))
            redist_bytes = machine.stats().bytes - r0.bytes
            redistributed = True
            result.redistributions += 1
            owners = cell_owner_map()
            loads = np.bincount(owners, weights=w, minlength=nprocs)
            imb = float(loads.max() / max(loads.mean(), 1e-12))

        result.steps.append(
            StepRecord(
                step=k,
                imbalance=imb,
                max_load=int(loads.max()),
                motion_messages=m1.messages - m0.messages,
                motion_bytes=m1.bytes - m0.bytes,
                redistributed=redistributed,
                redistribution_bytes=redist_bytes,
                time=machine.time,
            )
        )
    result.total_time = machine.time
    return result


class AdaptivePIC:
    """The Figure 2 particle state under controller-owned layouts.

    The ``pic`` workload's ``@spec.adaptive`` model (the protocol is in
    :mod:`repro.adapt.controller`), built from the adaptive params in
    ``ctx``.  After the measured field update a step is
    :func:`_run_pic`'s: barrier, :func:`move_particles`,
    :func:`reassign`.  No layout choice touches the RNG stream, so the
    final positions (the solution) are layout-invariant.
    """

    array = "FIELD"
    tag = FIELD_TAG

    def __init__(self, ctx: "WorkloadContext"):
        p = ctx.params
        self.config = c = PICConfig(
            ncell=int(p["ncell"]), npart=int(p["npart"]),
            max_time=int(p["steps"]), nprocs=ctx.nprocs,
            rebalance_every=int(p["window"]), drift=float(p["drift"]),
            diffusion=float(p["diffusion"]),
            cluster_width=float(p["cluster_width"]),
            flops_per_particle=float(p["flops_per_particle"]),
            particle_bytes=int(p["particle_bytes"]), seed=ctx.seed,
        )
        self.cost_model = ctx.cost_model
        self.steps = c.max_time
        self.shape = (c.ncell, NFIELD)
        self.flops_per_unit = c.flops_per_particle
        self.rng = np.random.default_rng(c.seed)
        self.state = initpos(c, self.rng)
        self.vel = np.full(c.npart, c.drift)

    def dist(self, sizes) -> DistributionType:
        return _field_dist(sizes, self.config.ncell, self.config.nprocs)

    def work(self, step: int) -> np.ndarray:
        return cell_counts(self.state, self.config.ncell)

    #: a boundary balances the particles where they are now — the next
    #: step's work
    load = work

    def advance(self, network, owners: np.ndarray, step: int) -> None:
        network.synchronize()
        ncell = self.config.ncell
        old_cells = _cell_of(self.state, ncell)
        self.state = move_particles(
            self.state, self.vel, self.rng, self.config.diffusion
        )
        reassign(
            network, owners, old_cells, _cell_of(self.state, ncell),
            self.config.particle_bytes,
        )

    def offline_schedule(self) -> list[list[int]]:
        """The planner's per-window block sizes, forecast by
        :func:`~repro.planner.workloads.pic_workload` from pure drift
        of the initial positions; ``rebalance_every`` is the window, so
        plan phases line up with online windows.  Non-contiguous layouts
        (CYCLIC) fall back to even blocks."""
        from ..planner.costs import CostEngine
        from ..planner.workloads import pic_workload, plan_workload

        c = self.config
        workload = pic_workload(
            ncell=c.ncell,
            npart=c.npart,
            steps=c.max_time,
            nprocs=c.nprocs,
            rebalance_every=c.rebalance_every,
            drift=c.drift,
            cluster_width=c.cluster_width,
            flops_per_particle=c.flops_per_particle,
            particle_bytes=c.particle_bytes,
            cost_model=self.cost_model,
            seed=c.seed,
        )
        plan = plan_workload(
            workload, cost_engine=CostEngine(workload.machine)
        )
        dims = [step.dist.dtype.dims[0] for step in plan.steps]
        return [
            [int(s) for s in dd.sizes] if isinstance(dd, GenBlock)
            else block_sizes(c.ncell, c.nprocs)
            for dd in dims
        ]
