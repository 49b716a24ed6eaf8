"""The load-test harness, exercised in smoke mode against an in-process server."""

import json

import pytest

from repro.obs import GateError
from repro.serve import run_loadtest


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve") / "BENCH_SERVE.json"
    rep = run_loadtest(
        clients=4, rounds=3, smoke=True, out=str(out), check=True, quiet=True,
    )
    return rep, out


def test_report_schema(report):
    rep, _ = report
    assert rep["schema"] == "repro-bench-serve/2"
    assert rep["env"]["repro"]
    assert rep["smoke"] is True
    assert rep["clients"] == 4
    assert rep["rounds"] == 3
    assert [p["name"] for p in rep["phases"]] == ["unique", "repeated"]
    assert rep["in_process_server"] is True


def test_acceptance_properties(report):
    rep, _ = report
    assert rep["total_failures"] == 0
    assert rep["byte_identical"] is True
    # unique phase: fresh seed per request, so nothing can hit
    unique, repeated = rep["phases"]
    assert unique["cache_hits"] == 0
    # repeated phase: each config computed at most once across all
    # clients and rounds — the check gate demands > 50%
    assert repeated["cache_hit_rate"] > 0.5


def test_latency_percentiles_present(report):
    rep, _ = report
    for phase in rep["phases"]:
        lat = phase["latency"]
        assert lat["p50_ms"] > 0
        assert lat["p99_ms"] >= lat["p50_ms"]


def test_server_stats_captured(report):
    rep, _ = report
    stats = rep["server_stats"]
    assert stats["schema"] == "repro-serve-stats/1"
    assert stats["errors"] == 0
    assert stats["sessions"]["reused"] > 0


def test_report_written_to_disk(report):
    rep, out = report
    on_disk = json.loads(out.read_text())
    assert on_disk["total_requests"] == rep["total_requests"]


def test_check_gate_raises_on_violation(monkeypatch):
    # a server that fails every stage request trips the zero-failure gate
    from repro.serve import PlanningService, ServerThread

    class Broken(PlanningService):
        def _stage(self, endpoint, params):
            raise RuntimeError("boom")

    with ServerThread(Broken()) as url:
        with pytest.raises(GateError, match="failed request"):
            run_loadtest(url=url, clients=2, rounds=1, smoke=True,
                         out=None, check=True, quiet=True)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError, match="clients"):
        run_loadtest(clients=0)
    with pytest.raises(ValueError, match="rounds"):
        run_loadtest(rounds=0)
