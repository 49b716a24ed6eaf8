"""One gate table per bench family: when is a bench report healthy?

:data:`FAMILIES` holds one :class:`Family` row per bench family
(``perf``, ``serve``, ``chaos``, ``adapt``): its report's schema
prefix, committed snapshot, *absolute* gates (a pure function of one
report) and *drift* rules against a baseline.  A harness's ``--check``
(:func:`~repro.obs.trajectory.record_run`), the regression sentinel
(:func:`~repro.obs.compare.compare_reports`) and baseline selection
(``resolve_baseline``, ``noise_band``) all read the same row, so a
failed run is never a baseline or a noise sample.  The verdict is
derived from the stored report, never stored in it: old trajectory
lines are judged by the same rule as new ones, and the JSONL stays
append-only.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, NamedTuple, Optional

__all__ = [
    "EXIT_HARD",
    "EXIT_SOFT",
    "FAMILIES",
    "Failure",
    "Family",
    "GateError",
    "HARD",
    "KINDS",
    "SOFT",
    "failed_gates",
]

#: exit code for a broken contract (op/byte-count drift, a failed gate)
EXIT_HARD = 2
#: exit code for wall-clock drift beyond the tolerance band
EXIT_SOFT = 3

#: gate severities: a hard failure is a broken contract, a soft one a
#: machine-dependent or statistical warning
HARD, SOFT = "hard", "soft"


class Failure(NamedTuple):
    """One failed gate: the verdict row it lands on (a bench, phase or
    scenario name, or the family's contract), the gate, its severity,
    and why it failed."""

    subject: str
    gate: str
    severity: str
    reason: str


class GateError(SystemExit):
    """A bench run failed its family's gates (``--check``): exits with
    :data:`EXIT_HARD` whatever their severity, listing every one."""

    def __init__(self, kind: str, failures: List[Failure]):
        listed = "; ".join(
            f"{f.subject} [{f.gate}]: {f.reason}" for f in failures
        )
        super().__init__(f"{kind} bench gate failed -- {listed}")
        self.code = EXIT_HARD
        self.failures = list(failures)


# -- perf -------------------------------------------------------------------

def _perf_subjects(report: dict) -> List[str]:
    return [b["name"] for b in report.get("benches", ())]


def _perf_gates(report: dict) -> Iterator[Failure]:
    for bench in report.get("benches", ()):
        if not bench.get("match", False):
            yield Failure(
                bench["name"], "match", HARD,
                "vectorized path diverged from its reference oracle "
                "(match: false)",
            )


def _perf_drift(baseline, current, row, *, noise_band, wall_tolerance):
    """Op-count drift is a hard fail; wall clock beyond the trajectory's
    noise band (else ``wall_tolerance`` over the baseline) a soft one."""
    base_by_name = {b["name"]: b for b in baseline.get("benches", ())}
    for bench in current.get("benches", ()):
        delta = row(bench["name"])
        delta.current_seconds = bench.get("vectorized_seconds")
        base = base_by_name.get(bench["name"])
        if base is None:
            delta.reasons.append("bench absent from baseline; ops not compared")
            continue
        delta.baseline_seconds = base.get("vectorized_seconds")
        if base.get("size") != bench.get("size"):
            delta.reasons.append(
                f"sizes differ (baseline {base.get('size')} vs current "
                f"{bench.get('size')}); op counts not comparable"
            )
            continue

        for side in ("reference_ops", "vectorized_ops"):
            b_ops, c_ops = base.get(side, {}), bench.get(side, {})
            drifted = sorted(
                k for k in set(b_ops) | set(c_ops)
                if b_ops.get(k) != c_ops.get(k)
            )
            if drifted:
                details = ", ".join(
                    f"{k}: {b_ops.get(k)} -> {c_ops.get(k)}" for k in drifted
                )
                delta.fail(HARD, f"{side} drifted ({details})")

        limit, source = noise_band(bench), "trajectory_noise"
        if limit is None:
            base_s = base.get("vectorized_seconds")
            if isinstance(base_s, (int, float)):
                limit, source = float(base_s) * (1.0 + wall_tolerance), "relative"
            else:
                source = "none"
        delta.wall_limit, delta.wall_source = limit, source
        cur_s = delta.current_seconds
        if isinstance(cur_s, (int, float)) and limit is not None and cur_s > limit:
            delta.fail(
                SOFT,
                f"wall clock {cur_s * 1e3:.2f} ms exceeds the "
                f"{source} band ({limit * 1e3:.2f} ms)",
            )
    ran = {b["name"] for b in current.get("benches", ())}
    for name in sorted(set(base_by_name) - ran):
        delta = row(name)
        delta.verdict = "skipped"
        delta.reasons.append("present in baseline but not run (e.g. --only)")


# -- serve and chaos --------------------------------------------------------

_SERVING = "serving_contract"
_ROBUSTNESS = "robustness_contract"


def _scrape_gates(subject: str, report: dict, *, series: bool) -> Iterator[Failure]:
    """The final ``/metrics`` scrape succeeded (with ``series``: and
    sampled every required series); a report without one is not judged."""
    metrics = report.get("metrics")
    if metrics is None:
        return
    if not metrics.get("scraped", False):
        yield Failure(
            subject, "metrics_scraped", HARD,
            f"/metrics scrape failed: {metrics.get('error')}",
        )
    elif series and metrics.get("missing_series"):
        yield Failure(
            subject, "metric_series", HARD,
            "required metric series missing samples: "
            + ", ".join(metrics["missing_series"]),
        )


def _serve_subjects(report: dict) -> List[str]:
    return [_SERVING] + [f"phase:{p['name']}" for p in report.get("phases", ())]


def _serve_gates(report: dict) -> Iterator[Failure]:
    failures = report.get("total_failures", 0)
    if failures:
        yield Failure(_SERVING, "zero_failures", HARD,
                      f"{failures} failed request(s)")
    if not report.get("byte_identical", True):
        yield Failure(_SERVING, "byte_identical", HARD,
                      "identical requests returned non-identical bytes")
    repeated = next(
        (p for p in report.get("phases", ()) if p.get("name") == "repeated"), {}
    )
    rate = repeated.get("cache_hit_rate")
    if rate is None or rate <= 0.5:
        yield Failure(
            _SERVING, "repeated_hit_rate", SOFT,
            f"repeated-config cache hit rate "
            f"{'n/a' if rate is None else f'{rate:.0%}'} (need > 50%)",
        )
    yield from _scrape_gates(_SERVING, report, series=True)


def _serve_drift(baseline, current, row, *, noise_band, wall_tolerance):
    """Per phase: p50 latency beyond ``wall_tolerance`` over the
    baseline, and a repeated-phase hit-rate drop of over 20 points,
    are soft fails."""
    base_phases = {p["name"]: p for p in baseline.get("phases", ())}
    for phase in current.get("phases", ()):
        name = phase["name"]
        delta = row(f"phase:{name}")
        cur_p50 = (phase.get("latency") or {}).get("p50_ms")
        if isinstance(cur_p50, (int, float)):
            delta.current_seconds = cur_p50 / 1e3
        base = base_phases.get(name)
        if base is None:
            delta.reasons.append("phase absent from baseline")
            continue
        base_rate = base.get("cache_hit_rate")
        cur_rate = phase.get("cache_hit_rate")
        if (
            name == "repeated"
            and isinstance(base_rate, (int, float))
            and isinstance(cur_rate, (int, float))
            and cur_rate < base_rate - 0.2
        ):
            delta.fail(
                SOFT,
                f"repeated-phase hit rate fell {base_rate:.0%} -> {cur_rate:.0%}",
            )
        base_p50 = (base.get("latency") or {}).get("p50_ms")
        if isinstance(base_p50, (int, float)) and isinstance(cur_p50, (int, float)):
            limit = base_p50 * (1.0 + wall_tolerance)
            delta.baseline_seconds = base_p50 / 1e3
            delta.wall_limit = limit / 1e3
            delta.wall_source = "relative"
            if cur_p50 > limit:
                delta.fail(
                    SOFT,
                    f"p50 latency {cur_p50:.1f} ms exceeds {limit:.1f} ms "
                    f"({wall_tolerance:.0%} over baseline)",
                )


def _chaos_gates(report: dict) -> Iterator[Failure]:
    """Injected failures are expected under chaos, so the serve tier's
    zero-failure gate does not apply; the robustness contract does."""
    chaos = report.get("chaos") or {}
    recovery = chaos.get("recovery") or {}
    if not report.get("byte_identical", True):
        yield Failure(_ROBUSTNESS, "byte_identical", HARD,
                      "identical requests returned non-identical bytes "
                      "under faults")
    if chaos.get("uncovered_5xx"):
        yield Failure(_ROBUSTNESS, "incident_ids", HARD,
                      f"{chaos['uncovered_5xx']} 5xx response(s) without "
                      f"an X-Repro-Incident-Id")
    if chaos.get("client_errors"):
        yield Failure(_ROBUSTNESS, "zero_4xx", HARD,
                      f"{chaos['client_errors']} 4xx response(s) — "
                      f"injected faults must not surface as client errors")
    if recovery.get("failures"):
        yield Failure(_ROBUSTNESS, "recovery_failures", HARD,
                      f"{recovery['failures']} recovery-phase request(s) "
                      f"failed")
    if not recovery.get("identical", True):
        yield Failure(_ROBUSTNESS, "recovery_identical", HARD,
                      "recovered runs diverged from the serial reference")
    yield from _scrape_gates(_ROBUSTNESS, report, series=False)
    if recovery.get("fleet_restarts", 0) < 1:
        yield Failure(_ROBUSTNESS, "fleet_restarted", SOFT,
                      "no fleet restart observed — the crash fault "
                      "never fired")


# -- adapt ------------------------------------------------------------------

_ADAPTIVE = "adaptive_contract"

_ADAPT_HARD_GATES = (
    ("adaptive_beats_static",
     "adaptive makespan does not beat the best static layout"),
    ("adaptive_beats_offline",
     "adaptive makespan does not beat the offline plan"),
    ("deterministic",
     "same-seed repeats diverged (solution or decision log)"),
    ("solutions_identical",
     "solutions differ across layout modes"),
)


def _adapt_subjects(report: dict) -> List[str]:
    names = [str(s.get("name", "?")) for s in report.get("scenarios") or ()]
    return names or [_ADAPTIVE]


def _adapt_gates(report: dict) -> Iterator[Failure]:
    """Each scenario's own gates: adaptive must beat the best static
    layout and the offline plan, bitwise-deterministically, with one
    solution across modes; a loop that never replanned is soft (it is
    indistinguishable from the static layout it claims to beat)."""
    scenarios = report.get("scenarios") or []
    if not scenarios:
        yield Failure(_ADAPTIVE, "scenarios", HARD,
                      "report contains no scenarios")
    for scenario in scenarios:
        name = str(scenario.get("name", "?"))
        gates = scenario.get("gates") or {}
        for gate, reason in _ADAPT_HARD_GATES:
            if not gates.get(gate, False):
                yield Failure(name, gate, HARD, reason)
        if not gates.get("adaptive_replanned", False):
            yield Failure(name, "adaptive_replanned", SOFT,
                          "the adaptive arm never redistributed — the "
                          "feedback loop did not fire")


# -- the table --------------------------------------------------------------

class Family(NamedTuple):
    """One bench family's row of the gate table.

    ``subjects`` names a report's verdict rows in order; ``gates``
    yields the report's failed absolute gates; ``drift`` (``None`` when
    the contract is absolute) adds baseline-relative verdicts through
    ``row(name)``, the sentinel's verdict row for a subject.
    """

    schema: str
    snapshot: str
    subjects: Callable[[dict], List[str]]
    gates: Callable[[dict], Iterator[Failure]]
    drift: Optional[Callable[..., None]] = None


FAMILIES = {
    "perf": Family("repro-bench-perf", "BENCH_PERF.json",
                   _perf_subjects, _perf_gates, _perf_drift),
    "serve": Family("repro-bench-serve", "BENCH_SERVE.json",
                    _serve_subjects, _serve_gates, _serve_drift),
    "chaos": Family("repro-bench-chaos", "BENCH_CHAOS.json",
                    lambda report: [_ROBUSTNESS], _chaos_gates),
    "adapt": Family("repro-bench-adapt", "BENCH_ADAPT.json",
                    _adapt_subjects, _adapt_gates),
}

#: the bench families, one per report schema and trajectory entry kind
KINDS = tuple(FAMILIES)


def failed_gates(kind: str, report: dict) -> List[Failure]:
    """Every gate ``report`` fails under its family's row; a report is
    healthy when the list is empty."""
    return list(FAMILIES[kind].gates(report))
