"""The regression sentinel: diff a bench run against a baseline.

``python -m repro bench --compare`` (and ``python -m repro obs
compare``) answer "did this change make anything slower, and where?"
with an automated verdict instead of a human eyeballing two JSON
files:

- **hard fail** — a hard gate of the family's row in
  :data:`repro.obs.gates.FAMILIES` failed (``match: false``, a failed
  request, a diverged recovery, ...) or a perf bench's op counts
  drifted from the baseline.  Op counts are deterministic functions
  of the code, so *any* drift is a real behaviour change.
- **soft fail** — a soft gate failed, or wall clock drifted beyond a
  tolerance band: the trajectory's own noise (``mean + 3σ`` over
  same-size, same-machine-class samples) when enough history exists,
  else a relative tolerance on the baseline figure.

Exit-code contract (the CI gate): 0 clean, :data:`EXIT_HARD` (2) on
any hard failure, :data:`EXIT_SOFT` (3) when only soft failures exist.

Baselines resolve in order: an explicit report path, the latest
healthy compatible trajectory entry (same kind and smoke flag, every
gate passing), then the family's committed ``BENCH_*.json`` snapshot.
A smoke-run report is **refused** as a baseline for a full-size run
(:class:`BaselineError`): smoke sizes make its op counts and timings
meaningless as a full-size reference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from .gates import EXIT_HARD, EXIT_SOFT, FAMILIES, HARD, failed_gates
from .trajectory import TrajectoryStore, env_digest

__all__ = [
    "BaselineError",
    "BenchDelta",
    "CompareReport",
    "EXIT_HARD",
    "EXIT_SOFT",
    "DEFAULT_WALL_TOLERANCE",
    "compare_reports",
    "load_report",
    "resolve_baseline",
]

#: relative wall-clock tolerance when the trajectory has too little
#: history for a noise band (current may be up to 2x the baseline)
DEFAULT_WALL_TOLERANCE = 1.0


class BaselineError(SystemExit):
    """The chosen baseline is unusable (missing, wrong kind, or a
    smoke run offered as a full-size reference)."""

    def __init__(self, message: str):
        super().__init__(f"baseline error: {message}")
        self.message = message


@dataclass
class BenchDelta:
    """One bench's comparison outcome."""

    name: str
    verdict: str  # "ok" | "soft_fail" | "hard_fail" | "skipped"
    reasons: List[str] = field(default_factory=list)
    baseline_seconds: Optional[float] = None
    current_seconds: Optional[float] = None
    wall_limit: Optional[float] = None
    wall_source: Optional[str] = None  # "trajectory_noise" | "relative"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "baseline_seconds": self.baseline_seconds,
            "current_seconds": self.current_seconds,
            "wall_limit": self.wall_limit,
            "wall_source": self.wall_source,
        }

    def fail(self, severity: str, reason: str) -> None:
        """Record one failed gate; a hard failure outranks a soft one."""
        if severity == HARD:
            self.verdict = "hard_fail"
        elif self.verdict == "ok":
            self.verdict = "soft_fail"
        self.reasons.append(reason)


@dataclass
class CompareReport:
    """The sentinel's full verdict over one baseline/current pair."""

    kind: str
    baseline_source: str
    deltas: List[BenchDelta] = field(default_factory=list)

    @property
    def hard_failures(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.verdict == "hard_fail"]

    @property
    def soft_failures(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.verdict == "soft_fail"]

    @property
    def ok(self) -> bool:
        return not self.hard_failures and not self.soft_failures

    @property
    def exit_code(self) -> int:
        if self.hard_failures:
            return EXIT_HARD
        if self.soft_failures:
            return EXIT_SOFT
        return 0

    def to_json(self) -> dict:
        return {
            "schema": "repro-bench-compare/1",
            "kind": self.kind,
            "baseline_source": self.baseline_source,
            "exit_code": self.exit_code,
            "deltas": [d.to_json() for d in self.deltas],
        }

    def summary(self) -> str:
        lines = [
            f"regression sentinel ({self.kind}) vs {self.baseline_source}:"
        ]
        for d in self.deltas:
            wall = ""
            if d.baseline_seconds is not None and d.current_seconds is not None:
                wall = (
                    f"  {d.baseline_seconds * 1e3:9.2f} ms"
                    f" -> {d.current_seconds * 1e3:9.2f} ms"
                )
            lines.append(f"  {d.name:26s} {d.verdict:9s}{wall}")
            for reason in d.reasons:
                lines.append(f"      - {reason}")
        n_hard, n_soft = len(self.hard_failures), len(self.soft_failures)
        if n_hard:
            lines.append(f"  VERDICT: HARD FAIL ({n_hard} bench(es); exit {EXIT_HARD})")
        elif n_soft:
            lines.append(f"  VERDICT: soft fail ({n_soft} bench(es); exit {EXIT_SOFT})")
        else:
            lines.append("  VERDICT: clean (exit 0)")
        return "\n".join(lines)


# -- baseline resolution ----------------------------------------------------

def _latest_healthy(
    store: TrajectoryStore, kind: str, smoke: bool | None
) -> Optional[dict]:
    """The newest ``kind`` entry (of ``smoke`` size, when given) whose
    report passes every gate of its family."""
    for entry in reversed(store.entries(kind=kind, smoke=smoke)):
        if not failed_gates(kind, entry["report"]):
            return entry
    return None


def load_report(
    path: str, kind: str = "perf", smoke: bool | None = None
) -> dict:
    """Load a bench report from a JSON snapshot or a trajectory JSONL
    (the latest healthy ``kind`` entry, of ``smoke`` size when given)."""
    if not os.path.exists(path):
        raise BaselineError(f"no such baseline file: {path!r}")
    if path.endswith((".jsonl", ".ndjson")):
        entry = _latest_healthy(TrajectoryStore(path), kind, smoke)
        if entry is None:
            raise BaselineError(
                f"trajectory {path!r} has no healthy {kind} entries"
            )
        return entry["report"]
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise BaselineError(f"unparseable baseline {path!r}: {exc}")


def _check_baseline_compatible(
    baseline: dict, current: dict, source: str, kind: str
) -> None:
    expected = FAMILIES[kind].schema
    schema = str(baseline.get("schema", ""))
    if not schema.startswith(expected):
        raise BaselineError(
            f"{source} is not a {kind} bench report "
            f"(schema {schema!r}, expected {expected}/*)"
        )
    if bool(baseline.get("smoke")) and not bool(current.get("smoke")):
        raise BaselineError(
            f"{source} is a smoke-sized run and cannot baseline a "
            f"full-size run — regenerate it with "
            f"`python -m repro bench` (no --smoke) and commit the result"
        )


def resolve_baseline(
    current: dict,
    *,
    kind: str = "perf",
    baseline_path: str | None = None,
    trajectory: TrajectoryStore | None = None,
) -> tuple[dict, str]:
    """Find the baseline report for ``current``; returns (report, source).

    Explicit path > latest healthy compatible trajectory entry (same
    kind and smoke flag, every gate passing) > the family's committed
    snapshot file.  Every candidate passes the smoke-as-baseline
    refusal check.
    """
    smoke = bool(current.get("smoke"))
    if baseline_path:
        report = load_report(baseline_path, kind=kind, smoke=smoke)
        _check_baseline_compatible(report, current, baseline_path, kind)
        return report, baseline_path

    if trajectory is not None:
        entry = _latest_healthy(trajectory, kind, smoke)
        if entry is not None:
            source = f"{trajectory.path} (latest {kind} entry)"
            _check_baseline_compatible(entry["report"], current, source, kind)
            return entry["report"], source

    fallback = FAMILIES[kind].snapshot
    if os.path.exists(fallback):
        report = load_report(fallback)
        _check_baseline_compatible(report, current, fallback, kind)
        return report, fallback
    raise BaselineError(
        f"no baseline found: pass --baseline, append runs to the "
        f"trajectory, or commit {fallback}"
    )


# -- comparison -------------------------------------------------------------

def compare_reports(
    kind: str,
    baseline: dict,
    current: dict,
    *,
    baseline_source: str = "baseline",
    trajectory: TrajectoryStore | None = None,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
) -> CompareReport:
    """Diff two ``kind`` bench reports under the family's gate-table row.

    Every gate ``current`` fails lands on its verdict row, then the
    family's drift rules compare it against ``baseline``: perf op-count
    drift (hard) and wall clock beyond the ``trajectory``'s noise band,
    else ``wall_tolerance`` over the baseline (soft); serve p50 drift
    and repeated-phase hit-rate drop (soft).  Chaos and adapt
    contracts are absolute: their baseline is not read.
    """
    family = FAMILIES[kind]
    report = CompareReport(kind=kind, baseline_source=baseline_source)
    rows: dict[str, BenchDelta] = {}

    def row(name: str) -> BenchDelta:
        if name not in rows:
            rows[name] = BenchDelta(name=name, verdict="ok")
            report.deltas.append(rows[name])
        return rows[name]

    def noise_band(bench: dict) -> Optional[float]:
        if trajectory is None:
            return None
        env = current.get("env") or {}
        return trajectory.noise_band(
            bench["name"],
            smoke=bool(current.get("smoke")),
            size=bench.get("size"),
            env_key=env_digest(env) if env else None,
        )

    for name in family.subjects(current):
        row(name)
    for failure in family.gates(current):
        row(failure.subject).fail(failure.severity, failure.reason)
    if family.drift is not None:
        family.drift(
            baseline, current, row,
            noise_band=noise_band, wall_tolerance=wall_tolerance,
        )
    return report
