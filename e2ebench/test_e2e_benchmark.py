"""Self-test of the end-to-end benchmark, at smoke size.

Runs every workload with tiny cells, untraced and traced, and asserts:

- every metric ``BENCHMARK.json`` lists, and every metric the benchmark
  promises by name, is emitted with its unit;
- an injected wrong expected digest makes the run fail loudly: exit
  code 3, the cell named on standard error, no result line;
- traced and untraced runs observe identical op counts and digests;
- the runs leave the git working tree as they found it.

Run with ``PYTHONPATH=src python -m pytest e2ebench -q`` from the root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("grid-scale", "drift-adapt", "serve-mixed", "spmd-mp")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: the metrics the benchmark promises by name (workload-level ones are
#: reported in the traced run, measured with tracing off)
PROMISED = {
    "end_to_end": ("setup_s", "peak_rss_mb", "pass_s", "req_per_s"),
    "per_layer": (
        "failed_frac", "plan_s", "run_s", "trace_s", "scale_exp", "adapt_s",
        "req_ms_p50", "req_ms_p99", "serial_run_s",
        "machine.rank_of.calls", "machine.ranks.calls", "machine.ranks.s",
        "machine.exchange.calls", "machine.exchange.s", "machine.messages",
        "machine.bytes", "core.owners_cache.hit_ratio",
        "runtime.distribute.calls", "runtime.distribute.s",
        "runtime.shift_exchange.s", "runtime.plan_cache.hit_ratio",
        "compiler.line_sweep.s", "compiler.stencil_step.s",
        "apps.thomas_batch.s", "sim.simulate.calls", "sim.simulate.s",
        "sim.events", "planner.phase_cost.calls",
        "planner.transition_cost.calls", "planner.transition_cost.s",
        "adapt.run.static.s", "adapt.run.offline.s", "adapt.run.adaptive.s",
        "adapt.replans", "adapt.decide.calls", "adapt.decide.s",
        "adapt.observe.calls", "backend.attach.s", "backend.run_op.calls",
        "backend.run_op.s", "backend.move.s", "backend.stencil_step.s",
        "backend.close.s", "backend.restarts", "backend.overhead_x",
        "serve.dispatch_hit_ms_p50", "serve.dispatch_miss_ms_p50",
        "serve.http_ms_p50", "serve.response_cache.hit_ratio",
        "serve.pool.evictions", "obs.trace_overhead_frac",
        "loadgen.lag_ms_p99",
    ),
}


def _git_status() -> str | None:
    try:
        proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def _run(workload: str, trace: int, out_dir, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--smoke",
           "--out-dir", str(out_dir), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2ebench")
    before = _git_status()
    results, digests = {}, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = tmp / f"{workload}-{trace}.digests.json"
            proc = _run(workload, trace, tmp, "--digests-out", str(path))
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
            results[(workload, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
            digests[(workload, trace)] = json.loads(path.read_text())
    return {"results": results, "digests": digests, "tmp": tmp,
            "git_before": before, "git_after": _git_status()}


def test_promised_metrics_are_in_benchmark_json():
    for key, names in PROMISED.items():
        listed = {m["name"] for m in SPEC[key]}
        assert set(names) <= listed, sorted(set(names) - listed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke["results"][(workload, trace)]
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name], name
            assert isinstance(metric["value"], float), name
    for name, metric in smoke["results"][(workload, 0)]["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_report_identical_op_counts(smoke, workload):
    untraced = smoke["digests"][(workload, 0)]
    traced = smoke["digests"][(workload, 1)]
    assert untraced and untraced == traced


def test_wrong_expected_digest_fails_loudly(smoke):
    expected = dict(smoke["digests"][("grid-scale", 0)])
    cell = sorted(c for c in expected if c.endswith("/run"))[0]
    expected[cell] = dict(expected[cell], messages=expected[cell]["messages"] + 1)
    path = smoke["tmp"] / "wrong.digests.json"
    path.write_text(json.dumps(expected))
    proc = _run("grid-scale", 0, smoke["tmp"], "--expect", str(path))
    assert proc.returncode == 3
    assert cell in proc.stderr and "CORRECTNESS FAILURE" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_runs_leave_the_working_tree_unchanged(smoke):
    if smoke["git_before"] is None:
        pytest.skip("not a git checkout")
    assert smoke["git_after"] == smoke["git_before"]


def test_degraded_multiprocess_run_fails_once_then_recovers():
    """A run that degrades to the serial fallback counts as one failed
    operation; the poisoned session is replaced, so the next pass runs
    every multiprocess cell on the backend again."""
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        from harness import Checker
        from wl_spmd import SpmdMultiprocess

        bench = SpmdMultiprocess(7, Checker(), smoke=True)
        bench.open()
        try:
            cell = next(c.id for c in bench.cells if c.stage == "multiprocess")
            poisoned = bench.sessions["multiprocess"]
            real_run = bench.handles[cell].run

            def degraded_run():
                result = real_run()
                poisoned.mark_poisoned("injected by the test")
                return result

            bench.handles[cell].run = degraded_run
            bench.run_pass()
            assert bench.failed == 1 and cell not in bench.last
            assert bench.sessions["multiprocess"] is not poisoned
            bench.run_pass()
            assert bench.failed == 1
            assert {c.id for c in bench.cells} == set(bench.last)
        finally:
            bench.close()
    finally:
        del sys.path[:2]
