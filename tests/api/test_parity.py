"""Session-path results are bitwise-identical to the direct paths.

The acceptance bar of the API redesign: for every registered workload,
``Session`` runs reproduce the ``execute_*`` free-function results
exactly — solutions, per-processor clocks, recorded event logs — and
``handle.plan()`` reproduces :func:`plan_workload`'s schedules, while a
bare ``Engine(machine)`` matches ``Session.engine()``.  Property-tested
over sizes and seeds.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import sim
from repro.api import REGISTRY, session
from repro.machine import Machine, PARAGON, ProcessorArray

NPROCS = 4


def _legacy_adi(size, iterations, seed, log):
    from repro.apps.adi import execute_adi

    machine = Machine(ProcessorArray("R", (NPROCS,)), cost_model=PARAGON)
    with sim.record(machine, log):
        r = execute_adi(
            machine, size, size, iterations, "dynamic", seed=seed
        )
    return r.solution, tuple(machine.network.clocks)


def _legacy_pic(size, steps, seed, log):
    from repro.apps.pic import PICConfig, execute_pic

    machine = Machine(ProcessorArray("P", (NPROCS,)), cost_model=PARAGON)
    cfg = PICConfig(
        strategy="bblock", ncell=size, npart=8 * size, max_time=steps,
        nprocs=NPROCS, seed=seed,
    )
    with sim.record(machine, log):
        r = execute_pic(machine, cfg)
    sol = np.array([s.imbalance for s in r.steps], dtype=np.float64)
    return sol, tuple(machine.network.clocks)


def _legacy_smoothing(size, steps, seed, log):
    from repro.apps.smoothing import execute_smoothing

    machine = Machine((NPROCS,), cost_model=PARAGON)
    with sim.record(machine, log):
        r = execute_smoothing(
            size, steps, "columns", NPROCS, PARAGON, seed=seed,
            machine=machine,
        )
    return r.solution, tuple(machine.network.clocks)


def _legacy_irregular(size, steps, seed, log):
    from repro.apps.irregular import make_mesh, run_relaxation

    machine = Machine(ProcessorArray("P", (NPROCS,)), cost_model=PARAGON)
    graph = make_mesh(size, seed=seed)
    with sim.record(machine, log):
        r = run_relaxation(
            machine, graph, "partitioned", sweeps=steps, seed=seed
        )
    return r.solution, tuple(machine.network.clocks)


LEGACY = {
    "adi": lambda size, seed, log: _legacy_adi(size, 2, seed, log),
    "pic": lambda size, seed, log: _legacy_pic(size, 4, seed, log),
    "smoothing": lambda size, seed, log: _legacy_smoothing(size, 4, seed, log),
    "irregular": lambda size, seed, log: _legacy_irregular(size, 4, seed, log),
}
PARAMS = {
    "adi": {"iterations": 2},
    "pic": {"steps": 4},
    "smoothing": {"steps": 4},
    "irregular": {"steps": 4},
}
WORKLOADS = sorted(set(LEGACY) & set(REGISTRY.names()))


@pytest.mark.parametrize("name", WORKLOADS)
@given(size=st.sampled_from([8, 16]), seed=st.integers(0, 3))
@settings(max_examples=6, deadline=None)
def test_run_bitwise_identical_to_legacy(name, size, seed):
    run = session(nprocs=NPROCS, seed=seed, record_events=True).workload(
        name, size=size, **PARAMS[name]
    ).run()
    legacy_log = sim.EventLog()
    legacy_solution, legacy_clocks = LEGACY[name](size, seed, legacy_log)
    assert np.array_equal(run.solution, legacy_solution)
    assert run.solution.dtype == legacy_solution.dtype
    assert run.clocks == legacy_clocks
    assert run.events.events == legacy_log.events


@pytest.mark.parametrize("name", ["adi", "pic", "smoothing"])
@given(seed=st.integers(0, 2))
@settings(max_examples=3, deadline=None)
def test_plan_identical_to_legacy(name, seed):
    from repro.planner import CostEngine, get_workload, plan_workload

    size = 16
    steps = 4
    handle_params = {"size": size}
    legacy_kwargs = {"nprocs": NPROCS, "cost_model": PARAGON}
    if name == "adi":
        handle_params["iterations"] = 2
        legacy_kwargs.update(nx=size, ny=size, iterations=2)
    elif name == "pic":
        handle_params["steps"] = steps
        legacy_kwargs.update(ncell=size, steps=steps, seed=seed)
    else:
        handle_params["steps"] = steps
        legacy_kwargs.update(n=size, steps=steps)

    sess_seed = seed if name == "pic" else 0
    result = session(nprocs=NPROCS, seed=sess_seed).workload(
        name, **handle_params
    ).plan()

    legacy_workload = get_workload(name, **legacy_kwargs)
    legacy_plan = plan_workload(
        legacy_workload, cost_engine=CostEngine(legacy_workload.machine)
    )
    assert result.plan.layouts() == legacy_plan.layouts()
    assert result.plan.total_cost == legacy_plan.total_cost
    assert result.plan.to_dict() == legacy_plan.to_dict()


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_blocking_matches_aggregate(name):
    t = session(nprocs=NPROCS).workload(name, size=16, **PARAMS[name]).trace()
    assert t.matches_aggregate is True


def test_execute_adi_matches_session():
    from repro.apps.adi import execute_adi

    machine = Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)
    direct = execute_adi(machine, 12, 12, 1, "dynamic", seed=0)
    r = session(nprocs=4).workload("adi", size=12, iterations=1).run()
    assert np.array_equal(direct.solution, r.solution)
    assert tuple(machine.network.clocks) == r.clocks
    assert direct.total_time == r.result.total_time


def test_execute_pic_matches_session():
    from repro.apps.pic import PICConfig, execute_pic

    machine = Machine(ProcessorArray("P", (4,)), cost_model=PARAGON)
    cfg = PICConfig(strategy="bblock", ncell=12, npart=96, max_time=3,
                    nprocs=4, seed=0)
    direct = execute_pic(machine, cfg)
    r = session(nprocs=4).workload("pic", size=12, steps=3).run()
    assert np.array_equal(
        np.array([s.imbalance for s in direct.steps]), r.solution
    )
    assert tuple(machine.network.clocks) == r.clocks


def test_execute_smoothing_matches_session():
    from repro.apps.smoothing import execute_smoothing

    direct = execute_smoothing(12, 3, "columns", 4, PARAGON, seed=0)
    r = session(nprocs=4).workload("smoothing", size=12, steps=3).run()
    assert np.array_equal(direct.solution, r.solution)
    assert direct.messages == r.result.messages
    assert direct.time == r.result.time


def test_plan_workload_matches_session():
    from repro.planner import CostEngine, adi_workload, plan_workload

    workload = adi_workload(12, 12, iterations=2, nprocs=4,
                            cost_model=PARAGON)
    direct = plan_workload(workload, cost_engine=CostEngine(workload.machine))
    p = session(nprocs=4).workload("adi", size=12, iterations=2).plan()
    assert direct.to_dict() == p.plan.to_dict()
    assert direct.layouts() == p.plan.layouts()


def test_engine_matches_session_engine():
    from repro.core.distribution import dist_type
    from repro.runtime.engine import Engine

    machine = Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)
    direct_vfe = Engine(machine)
    v1 = direct_vfe.declare("V", (12, 12), dist=dist_type(":", "BLOCK"),
                            dynamic=True)
    v1.from_global(np.arange(144.0).reshape(12, 12))
    direct_reports = direct_vfe.distribute("V", dist_type("BLOCK", ":"))

    with session(nprocs=4) as sess:
        vfe = sess.engine(name="R")
        v2 = vfe.declare("V", (12, 12), dist=dist_type(":", "BLOCK"),
                         dynamic=True)
        v2.from_global(np.arange(144.0).reshape(12, 12))
        reports = vfe.distribute("V", dist_type("BLOCK", ":"))

    assert np.array_equal(v1.to_global(), v2.to_global())
    assert [(r.messages, r.bytes) for r in direct_reports] == [
        (r.messages, r.bytes) for r in reports
    ]
    assert tuple(machine.network.clocks) == tuple(
        vfe.machine.network.clocks
    )


def test_internal_code_emits_no_deprecation_warnings():
    """The facade's stages emit no DeprecationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session(nprocs=4).workload("adi", size=12, iterations=1).run()
        session(nprocs=4).workload("pic", size=12, steps=2).run()
        session(nprocs=4).workload("smoothing", size=12, steps=2).run()
        session(nprocs=4).workload("adi", size=12, iterations=1).plan()
        session(nprocs=4).workload("adi", size=12, iterations=1).trace()


# handle.adapt() maps registry params onto the controller's names
ADAPT_CASES = [
    ("pic", {"size": 32, "steps": 12, "drift": 0.03, "diffusion": 0.004},
     {"ncell": 32, "npart": 256, "steps": 12, "drift": 0.03,
      "diffusion": 0.004}, 10),
    ("irregular", {"size": 48, "steps": 12, "drift": 0.04},
     {"n": 48, "sweeps": 12, "kind": "geometric", "drift": 0.04}, 3),
]


@pytest.mark.parametrize("name,params,mapped,default_window", ADAPT_CASES)
@pytest.mark.parametrize("window", [None, 4])
@pytest.mark.parametrize("mode", ["adaptive", "offline"])
def test_session_adapt_matches_controller(
    name, params, mapped, default_window, window, mode
):
    from repro.adapt import AdaptiveController

    if name not in REGISTRY.names():
        pytest.skip(f"{name} is not registered")
    with session(nprocs=NPROCS, seed=2) as sess:
        result = sess.workload(name, **params).adapt(mode, window=window)
    expected_window = default_window if window is None else window
    assert result.window == expected_window
    run = AdaptiveController(
        name, nprocs=NPROCS, cost_model="Paragon", window=expected_window,
        seed=2, params=mapped,
    ).run(mode)
    assert result.run.solution_digest() == run.solution_digest()
    assert result.run.decision_digest() == run.decision_digest()
    assert result.run.makespan == run.makespan
