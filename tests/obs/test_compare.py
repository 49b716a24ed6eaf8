"""The regression sentinel: hard/soft verdicts, exit codes, baseline
resolution order, and the smoke-as-baseline refusal."""

import json
import shutil
from pathlib import Path

import pytest

from repro.obs.compare import (
    EXIT_HARD,
    EXIT_SOFT,
    BaselineError,
    compare_reports,
    load_report,
    resolve_baseline,
)
from repro.obs.gates import KINDS, failed_gates
from repro.obs.trajectory import TrajectoryStore


def _bench(name="forall", seconds=0.001, elements=100, match=True,
           size=None):
    return {
        "name": name,
        "size": size or {"n": 8},
        "vectorized_seconds": seconds,
        "reference_ops": {"elements": elements},
        "vectorized_ops": {"elements": elements},
        "match": match,
    }


def _report(benches=None, smoke=False):
    return {
        "schema": "repro-bench-perf/2",
        "smoke": smoke,
        "env": {"repro": "1.8.0", "python": "3.11", "numpy": "2.0",
                "platform": "test", "hostname": "test"},
        "benches": benches if benches is not None else [_bench()],
    }


# -- perf verdicts -----------------------------------------------------------


def test_identical_reports_are_clean():
    report = compare_reports("perf", _report(), _report())
    assert report.ok
    assert report.exit_code == 0
    (delta,) = report.deltas
    assert delta.verdict == "ok"
    assert "clean" in report.summary()


def test_op_count_drift_is_a_hard_fail():
    baseline = _report([_bench(elements=100)])
    current = _report([_bench(elements=107)])
    report = compare_reports("perf", baseline, current)
    assert report.exit_code == EXIT_HARD
    (delta,) = report.deltas
    assert delta.verdict == "hard_fail"
    # the drifted key is named with both values
    assert any("elements: 100 -> 107" in r for r in delta.reasons)


def test_match_false_is_a_hard_fail_regardless_of_baseline():
    current = _report([_bench(match=False)])
    report = compare_reports("perf", _report(), current)
    assert report.exit_code == EXIT_HARD
    assert any("match: false" in r for r in report.deltas[0].reasons)


def test_wall_drift_is_a_soft_fail():
    baseline = _report([_bench(seconds=0.010)])
    current = _report([_bench(seconds=0.030)])  # 3x > 1+tolerance (2x)
    report = compare_reports("perf", baseline, current)
    assert report.exit_code == EXIT_SOFT
    (delta,) = report.deltas
    assert delta.verdict == "soft_fail"
    assert delta.wall_source == "relative"
    assert report.hard_failures == []


def test_wall_within_tolerance_is_clean():
    baseline = _report([_bench(seconds=0.010)])
    current = _report([_bench(seconds=0.015)])
    assert compare_reports("perf", baseline, current).exit_code == 0


def test_hard_beats_soft_in_the_exit_code():
    baseline = _report([_bench(elements=100, seconds=0.010)])
    current = _report([_bench(elements=107, seconds=0.050)])
    assert compare_reports("perf", baseline, current).exit_code == EXIT_HARD


def test_size_mismatch_skips_op_comparison():
    baseline = _report([_bench(size={"n": 64}, elements=999)])
    current = _report([_bench(size={"n": 8}, elements=100)])
    report = compare_reports("perf", baseline, current)
    assert report.exit_code == 0
    assert any("not comparable" in r for r in report.deltas[0].reasons)


def test_baseline_only_bench_is_reported_skipped():
    baseline = _report([_bench("forall"), _bench("halo_exchange")])
    current = _report([_bench("forall")])
    report = compare_reports("perf", baseline, current)
    skipped = [d for d in report.deltas if d.verdict == "skipped"]
    assert [d.name for d in skipped] == ["halo_exchange"]
    assert report.exit_code == 0


def test_trajectory_noise_band_overrides_relative_tolerance(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    for s in (0.0100, 0.0101, 0.0102):
        store.append("perf", _report([_bench(seconds=s)]))
    baseline = _report([_bench(seconds=0.010)])
    # 13 ms: within the 2x relative tolerance, far outside mean + 3 sigma
    current = _report([_bench(seconds=0.013)])
    report = compare_reports("perf", baseline, current, trajectory=store)
    (delta,) = report.deltas
    assert delta.wall_source == "trajectory_noise"
    assert delta.verdict == "soft_fail"
    # without history the same pair is clean
    assert compare_reports("perf", baseline, current).exit_code == 0


def test_compare_report_json_roundtrip():
    report = compare_reports("perf", _report(), _report())
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["schema"] == "repro-bench-compare/1"
    assert doc["exit_code"] == 0
    assert doc["deltas"][0]["verdict"] == "ok"


# -- baseline resolution -----------------------------------------------------


def test_explicit_baseline_path_wins(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_report([_bench(elements=42)])))
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=7)]))
    baseline, source = resolve_baseline(
        _report(), baseline_path=str(path), trajectory=store
    )
    assert source == str(path)
    assert baseline["benches"][0]["reference_ops"]["elements"] == 42


def test_trajectory_beats_committed_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_PERF.json").write_text(
        json.dumps(_report([_bench(elements=1)]))
    )
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=2)]))
    baseline, source = resolve_baseline(_report(), trajectory=store)
    assert "traj.jsonl" in source
    assert baseline["benches"][0]["reference_ops"]["elements"] == 2


def test_falls_back_to_committed_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_PERF.json").write_text(
        json.dumps(_report([_bench(elements=1)]))
    )
    baseline, source = resolve_baseline(
        _report(), trajectory=TrajectoryStore(tmp_path / "empty.jsonl")
    )
    assert source == "BENCH_PERF.json"


def test_no_baseline_anywhere_is_an_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(BaselineError, match="no baseline found"):
        resolve_baseline(_report())


def test_smoke_baseline_refused_for_full_size_run(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(_report(smoke=True)))
    with pytest.raises(BaselineError, match="smoke-sized"):
        resolve_baseline(_report(smoke=False), baseline_path=str(path))
    # a BaselineError is a SystemExit: the CLI exits nonzero, no traceback
    assert issubclass(BaselineError, SystemExit)


def test_smoke_baseline_fine_for_smoke_run(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(_report(smoke=True)))
    baseline, _ = resolve_baseline(
        _report(smoke=True), baseline_path=str(path)
    )
    assert baseline["smoke"] is True


def test_trajectory_resolution_matches_smoke_flag(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=10)], smoke=True))
    store.append("perf", _report([_bench(elements=20)], smoke=False))
    baseline, _ = resolve_baseline(_report(smoke=True), trajectory=store)
    assert baseline["benches"][0]["reference_ops"]["elements"] == 10


def test_wrong_schema_refused(tmp_path):
    path = tmp_path / "serve.json"
    path.write_text(json.dumps({"schema": "repro-bench-serve/2"}))
    with pytest.raises(BaselineError, match="not a perf bench report"):
        resolve_baseline(_report(), baseline_path=str(path))


def test_load_report_from_trajectory_jsonl(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=5)]))
    # a later entry of another kind does not hide the perf entry
    store.append("serve", _serve_report())
    report = load_report(str(store.path))
    assert report["benches"][0]["reference_ops"]["elements"] == 5
    with pytest.raises(BaselineError, match="no such baseline"):
        load_report(str(tmp_path / "missing.json"))
    baseline, _ = resolve_baseline(_report(), baseline_path=str(store.path))
    assert baseline["benches"][0]["reference_ops"]["elements"] == 5


# -- failed runs are never baselines -----------------------------------------

COMMITTED_TRAJECTORY = (
    Path(__file__).resolve().parents[2] / "BENCH_TRAJECTORY.jsonl"
)


def test_committed_serve_smoke_baseline_is_a_healthy_run(tmp_path):
    copy = tmp_path / "traj.jsonl"
    shutil.copy(COMMITTED_TRAJECTORY, copy)
    baseline, _ = resolve_baseline(
        {"smoke": True}, kind="serve", trajectory=TrajectoryStore(copy)
    )
    assert baseline["total_failures"] == 0
    assert baseline["base_url"] != "http://127.0.0.1:9"


@pytest.mark.parametrize("smoke", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_committed_trajectory_never_yields_a_failing_baseline(
    tmp_path, monkeypatch, kind, smoke
):
    monkeypatch.chdir(tmp_path)  # no snapshot to fall back on
    copy = tmp_path / "traj.jsonl"
    shutil.copy(COMMITTED_TRAJECTORY, copy)
    try:
        baseline, _ = resolve_baseline(
            {"smoke": smoke}, kind=kind, trajectory=TrajectoryStore(copy)
        )
    except BaselineError:
        return  # no healthy entry of this kind and size
    assert failed_gates(kind, baseline) == []


def test_failed_perf_run_is_neither_baseline_nor_noise_sample(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    for s in (0.0100, 0.0101, 0.0102):
        store.append("perf", _report([_bench(seconds=s, elements=1)]))
    store.append(
        "perf", _report([_bench(seconds=5.0, elements=2, match=False)])
    )
    baseline, _ = resolve_baseline(_report(), trajectory=store)
    assert baseline["benches"][0]["reference_ops"]["elements"] == 1
    assert store.wall_samples("forall") == [0.0100, 0.0101, 0.0102]
    assert store.noise_band("forall") < 0.011


# -- serve comparison --------------------------------------------------------


def _serve_report(failures=0, identical=True, hit_rate=0.9, p50=5.0):
    return {
        "schema": "repro-bench-serve/2",
        "smoke": True,
        "total_failures": failures,
        "byte_identical": identical,
        "phases": [
            {"name": "unique", "cache_hit_rate": 0.0,
             "latency": {"p50_ms": 30.0}},
            {"name": "repeated", "cache_hit_rate": hit_rate,
             "latency": {"p50_ms": p50}},
        ],
    }


def test_serve_clean():
    report = compare_reports("serve", _serve_report(), _serve_report())
    assert report.exit_code == 0


def test_serve_failures_and_byte_drift_are_hard():
    report = compare_reports(
        "serve", _serve_report(), _serve_report(failures=2, identical=False)
    )
    assert report.exit_code == EXIT_HARD
    reasons = report.deltas[0].reasons
    assert any("failed request" in r for r in reasons)
    assert any("non-identical" in r for r in reasons)


def test_serve_hit_rate_collapse_is_soft():
    report = compare_reports(
        "serve", _serve_report(hit_rate=0.9), _serve_report(hit_rate=0.3)
    )
    assert report.exit_code == EXIT_SOFT


def test_serve_p50_drift_is_soft():
    report = compare_reports(
        "serve", _serve_report(p50=5.0), _serve_report(p50=50.0)
    )
    assert report.exit_code == EXIT_SOFT
