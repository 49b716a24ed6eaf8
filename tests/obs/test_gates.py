"""The shared ``--check`` tail: a failed gate raises one error type,
exit code 2, naming the failed bench."""

import pytest

import repro.perf as perf
from repro.obs import EXIT_HARD, GateError


def test_perf_check_raises_the_gate_error_naming_the_bench(monkeypatch):
    def diverged(smoke):
        result = perf.bench_forall(smoke)
        result["match"] = False
        return result

    monkeypatch.setitem(perf.BENCHES, "forall", diverged)
    with pytest.raises(GateError, match="forall") as exc:
        perf.run_harness(
            smoke=True, check=True, out=None, benches=["forall"], quiet=True
        )
    assert exc.value.code == EXIT_HARD
    assert [f.subject for f in exc.value.failures] == ["forall"]
