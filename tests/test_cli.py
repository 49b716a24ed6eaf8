"""CLI hardening (ISSUE 5): every subcommand exits nonzero on failure
instead of printing a traceback, and every ``--json`` output is
round-trippable through ``json.loads``."""

import json

import numpy as np
import pytest

from repro.__main__ import main


def _run_json(capsys, argv):
    main(argv)
    out = capsys.readouterr().out
    return json.loads(out)


# -- --json round trips (one per subcommand) --------------------------------


def test_plan_json_roundtrip(capsys):
    report = _run_json(
        capsys, ["plan", "adi", "--size", "16", "--iterations", "2", "--json"]
    )
    assert report["workload"] == "adi"
    assert report["plan"]["steps"]
    assert report["cost_mode"] == "model"


def test_plan_json_simulated_roundtrip(capsys):
    report = _run_json(
        capsys,
        ["plan", "smoothing", "--size", "16", "--steps", "3",
         "--cost-mode", "simulated", "--json"],
    )
    assert report["cost_mode"] == "simulated"


def test_run_json_roundtrip(capsys):
    report = _run_json(
        capsys, ["run", "adi", "--size", "12", "--iterations", "1", "--json"]
    )
    assert report["workload"] == "adi"
    assert report["backend"] == "serial"
    assert len(report["clocks"]) == 4
    assert report["solution_sha256"]


def test_trace_json_roundtrip(capsys):
    report = _run_json(
        capsys,
        ["trace", "smoothing", "--size", "12", "--steps", "2",
         "--json", "--compact"],
    )
    assert report["matches_aggregate_accounting"] is True
    assert report["blocking"] and report["split_phase"]


def test_bench_json_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = _run_json(
        capsys, ["bench", "--smoke", "--only", "forall", "--out", "", "--json"]
    )
    assert report["schema"] == "repro-bench-perf/2"
    assert report["benches"][0]["name"] == "forall"
    assert report["benches"][0]["match"] is True


def test_calibrate_json_roundtrip(capsys):
    report = _run_json(
        capsys, ["calibrate", "--nprocs", "2", "--repeats", "1", "--json"]
    )
    assert report["alpha_s"] >= 0 and report["beta_s_per_byte"] >= 0
    assert report["plan"]["steps"]


# -- nonzero exits -----------------------------------------------------------


def test_unknown_workload_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "nosuchworkload"])
    assert exc.value.code == 2  # argparse choices, not a traceback


def test_bad_backend_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "adi", "--backend", "bogus"])
    assert exc.value.code == 2


def test_unplannable_workload_not_a_plan_choice(capsys):
    pytest.importorskip("networkx")
    with pytest.raises(SystemExit) as exc:
        main(["plan", "irregular"])
    assert exc.value.code == 2


def test_runtime_failure_exits_one_with_stderr(capsys):
    """A workload that raises mid-run becomes `error: ...` + exit 1."""
    from repro.api import ExecutionOutcome, REGISTRY, register_workload

    @register_workload("always-fails", defaults={"size": 4})
    def _failing(ctx):
        raise RuntimeError("deliberate test failure")
        return ExecutionOutcome(solution=np.zeros(1))  # pragma: no cover

    try:
        with pytest.raises(SystemExit) as exc:
            main(["run", "always-fails"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error: deliberate test failure" in err
        assert "Traceback" not in err
    finally:
        REGISTRY.unregister("always-fails")


def test_multiprocess_run_verifies_against_serial(capsys):
    main(["run", "adi", "--backend", "multiprocess", "--nprocs", "2",
          "--size", "8", "--iterations", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["verified_against_serial"] is True


def test_registered_workloads_drive_the_choices(capsys):
    """The registry, not a hand-maintained list, feeds argparse."""
    from repro.__main__ import build_parser
    from repro.api import REGISTRY

    parser = build_parser()
    helptext = parser.format_help()
    run_sub = None
    for action in parser._subparsers._group_actions:
        run_sub = action.choices["run"]
    run_help = run_sub.format_help()
    for name in REGISTRY.names():
        assert name in run_help
    assert helptext  # sanity


def test_serve_loadtest_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "BENCH_SERVE.json"
    metrics_out = tmp_path / "METRICS_SERVE.prom"
    report = _run_json(
        capsys,
        ["serve", "--loadtest", "--smoke", "--clients", "2", "--rounds", "3",
         "--out", str(out), "--metrics-out", str(metrics_out),
         "--trajectory", "", "--check", "--json"],
    )
    assert report["schema"] == "repro-bench-serve/2"
    assert report["total_failures"] == 0
    assert report["byte_identical"] is True
    assert report["latency"]["method"] == "linear_interpolation"
    assert report["metrics"]["missing_series"] == []
    assert json.loads(out.read_text())["clients"] == 2
    scrape = metrics_out.read_text()
    assert "# TYPE repro_http_requests_total counter" in scrape
    assert "repro_http_request_seconds_bucket" in scrape


def test_serve_check_gate_fails_loudly(tmp_path, capsys):
    # an unreachable --url means every request fails: --check must exit
    # non-zero (this is the CI contract of the serve smoke step)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--url", "http://127.0.0.1:9", "--clients", "1",
              "--rounds", "1", "--smoke", "--check", "--out", "",
              "--metrics-out", "", "--trajectory", ""])
    # exit 2, and stderr names every failed gate
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "serve bench gate failed" in err
    assert "[zero_failures]" in err and "[metrics_scraped]" in err


def test_obs_command_prometheus_text(capsys):
    main(["obs", "--workload", "adi", "--stage", "plan", "--size", "16"])
    out = capsys.readouterr().out
    assert "# TYPE repro_planner_plans_total counter" in out
    assert "repro_session_stages_total{" in out


def test_obs_command_json_and_chrome_out(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    snapshot = _run_json(
        capsys,
        ["obs", "--workload", "smoothing", "--stage", "trace",
         "--size", "16", "--steps", "2", "--json",
         "--chrome-out", str(chrome)],
    )
    assert snapshot["repro_session_stages_total"]["type"] == "counter"
    doc = json.loads(chrome.read_text())
    assert any(e.get("name") == "session.trace" for e in doc["traceEvents"])


def test_bench_compare_clean_then_injected_regression(tmp_path, capsys,
                                                      monkeypatch):
    """The sentinel's CI contract: a clean re-run exits 0; an injected
    op-count drift in the baseline exits EXIT_HARD (2)."""
    monkeypatch.chdir(tmp_path)
    base = ["bench", "--smoke", "--only", "forall",
            "--trajectory", "traj.jsonl"]
    main(base + ["--out", "BP.json"])
    capsys.readouterr()

    # clean: compare against the explicit baseline just written
    main(base + ["--compare", "--baseline", "BP.json", "--out", ""])
    out = capsys.readouterr().out
    assert "VERDICT: clean (exit 0)" in out

    # the sentinel's trajectory now holds the compared run
    from repro.obs.trajectory import TrajectoryStore

    assert len(TrajectoryStore("traj.jsonl").entries(kind="perf")) == 2

    # injected regression: perturb one op count in the baseline
    doc = json.loads((tmp_path / "BP.json").read_text())
    bench = doc["benches"][0]
    key = next(iter(bench["vectorized_ops"]))
    bench["vectorized_ops"][key] += 7
    (tmp_path / "BP.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(base + ["--compare", "--baseline", "BP.json", "--out", ""])
    assert exc.value.code == 2
    assert "hard_fail" in capsys.readouterr().out


def test_bench_compare_never_baselines_itself(tmp_path, capsys, monkeypatch):
    """The snapshot fallback must be read before the harness overwrites
    --out (default BENCH_PERF.json): an op drift against the committed
    snapshot still fails even though the file gets rewritten."""
    monkeypatch.chdir(tmp_path)
    main(["bench", "--smoke", "--only", "forall", "--out",
          "BENCH_PERF.json", "--trajectory", ""])
    capsys.readouterr()
    doc = json.loads((tmp_path / "BENCH_PERF.json").read_text())
    bench = doc["benches"][0]
    key = next(iter(bench["vectorized_ops"]))
    bench["vectorized_ops"][key] += 7
    (tmp_path / "BENCH_PERF.json").write_text(json.dumps(doc))
    # no --baseline, no trajectory: resolution falls back to the
    # committed snapshot, which the compare run itself overwrites
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--compare", "--smoke", "--only", "forall",
              "--trajectory", ""])
    assert exc.value.code == 2


def test_bench_compare_refuses_smoke_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["bench", "--smoke", "--only", "forall", "--out", "BP.json",
          "--trajectory", ""])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--compare", "--only", "forall", "--out", "",
              "--baseline", "BP.json", "--trajectory", ""])
    assert "smoke-sized" in str(exc.value.code)


def test_obs_analyze_table_sums_to_makespan(capsys):
    main(["obs", "analyze", "--workload", "adi", "--size", "16",
          "--iterations", "2"])
    out = capsys.readouterr().out
    assert "attribution: adi on 4 procs" in out
    assert "= makespan" in out
    assert "top reasons this plan is slow:" in out


def test_obs_analyze_json_identity(capsys):
    doc = _run_json(
        capsys,
        ["obs", "analyze", "--workload", "adi", "--size", "16",
         "--iterations", "2", "--json"],
    )
    assert doc["schema"] == "repro-obs-attribution/1"
    total = sum(r["total_seconds"] for r in doc["rows"]) + doc["idle_seconds"]
    assert total == pytest.approx(doc["makespan"], rel=1e-9)


def test_obs_compare_over_existing_reports(tmp_path, capsys, monkeypatch):
    """obs compare re-runs nothing: it diffs two files on disk."""
    monkeypatch.chdir(tmp_path)
    main(["bench", "--smoke", "--only", "forall", "--out", "A.json",
          "--trajectory", ""])
    capsys.readouterr()
    main(["obs", "compare", "--current", "A.json", "--baseline", "A.json"])
    assert "VERDICT: clean" in capsys.readouterr().out


def test_adapt_bench_json_roundtrip(capsys):
    doc = _run_json(
        capsys,
        ["adapt", "--smoke", "--json", "--out", "", "--coverage-out", "",
         "--trajectory", ""],
    )
    assert doc["schema"] == "repro-bench-adapt/1"
    assert doc["pass"] is True
    assert {s["name"] for s in doc["scenarios"]} == {
        "pic-drift", "irregular-hotspot"
    }


def test_adapt_single_run_json_roundtrip(capsys):
    doc = _run_json(
        capsys,
        ["adapt", "--workload", "pic", "--size", "32", "--steps", "12",
         "--drift", "0.03", "--json"],
    )
    assert doc["workload"] == "pic"
    assert doc["mode"] == "adaptive"
    assert doc["run"]["solution_digest"]


def test_adapt_unsupported_workload_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["adapt", "--workload", "adi"])
    assert "no adaptive driver" in capsys.readouterr().err


def test_adapt_artifacts_and_obs_compare_kind(tmp_path, capsys, monkeypatch):
    """The CI recipe end to end: bench with --check, artifacts on disk,
    then the sentinel diffs the report under --kind adapt."""
    monkeypatch.chdir(tmp_path)
    main(["adapt", "--smoke", "--check", "--trajectory", "traj.jsonl"])
    capsys.readouterr()
    assert (tmp_path / "BENCH_ADAPT.json").exists()
    assert (tmp_path / "ADAPT_COVERAGE.json").exists()

    from repro.obs.trajectory import TrajectoryStore

    assert len(TrajectoryStore("traj.jsonl").entries(kind="adapt")) == 1

    main(["obs", "compare", "--kind", "adapt",
          "--current", "BENCH_ADAPT.json", "--trajectory", "traj.jsonl"])
    assert "VERDICT: clean" in capsys.readouterr().out

    # a doctored gate flips the sentinel to a hard failure (exit 2)
    doc = json.loads((tmp_path / "BENCH_ADAPT.json").read_text())
    doc["scenarios"][0]["gates"]["deterministic"] = False
    (tmp_path / "BENCH_ADAPT.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["obs", "compare", "--kind", "adapt",
              "--current", "BENCH_ADAPT.json", "--trajectory", "traj.jsonl"])
    assert exc.value.code == 2
    assert "hard_fail" in capsys.readouterr().out


def test_tour_still_runs(capsys):
    main(None)
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 2" in out
    assert "dynamic" in out
