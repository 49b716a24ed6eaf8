"""repro.obs — the cross-layer observability spine (ISSUEs 7 + 8).

Collection tier (ISSUE 7): one process-wide :class:`MetricsRegistry`
(``repro.obs.registry``) with labeled, thread-safe
Counter/Gauge/Histogram instruments and a Prometheus text-exposition
encoder; a structured-tracing layer (:func:`span`,
contextvars-propagated trace/request IDs); and export surfaces —
``/metrics`` on the serving tier, ``python -m repro obs`` on the CLI,
and :func:`chrome_trace` merging runtime spans with simulated
timelines into one ``chrome://tracing`` file.

Analysis tier (ISSUE 8): the **bench trajectory store**
(:class:`TrajectoryStore` — append-only JSONL history of every bench
run, stamped with schema version, git SHA and a machine fingerprint),
the **regression sentinel** (:func:`compare_reports` behind
``python -m repro bench --compare`` — failed gates of the bench
family's row in :mod:`repro.obs.gates` and op-count drift are hard
fails, wall-clock drift beyond the trajectory's noise band a soft
fail), the **attribution layer**
(:func:`attribution` / ``obs analyze`` — per-phase compute/comm/idle
breakdowns that sum to the simulated makespan, plus top-N slowness
reasons), and the always-on bounded **flight recorder**
(:data:`flight_recorder`) whose :func:`incident` records are dumped by
serve 500s and failed session stages.

Metrics and spans are **off by default**: instruments exist but record
nothing until :func:`enable` is called (the serving tier enables on
construction; set ``REPRO_OBS=1`` to enable at import).  Disabled-path
cost is one function call and a branch per instrumented seam, so hot
paths (forall, halo exchange) stay within the perf-harness gates.
The flight recorder is the deliberate exception: always on, bounded,
and cheap, so a crash in an un-instrumented process still dumps a
recent history.
"""

from .analyze import (
    Attribution,
    PhaseRow,
    Reason,
    analyze_workload,
    attribution,
    span_breakdown,
)
from .compare import (
    BaselineError,
    BenchDelta,
    CompareReport,
    EXIT_HARD,
    EXIT_SOFT,
    compare_reports,
    load_report,
    resolve_baseline,
)
from .export import chrome_trace, dump_chrome_trace
from .flight import FlightRecorder, flight_recorder, incident, note
from .gates import GateError
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    registry,
    render_prometheus,
    set_enabled,
)
from .tracing import (
    SpanRecord,
    clear_spans,
    finished_spans,
    get_request_id,
    get_trace_id,
    new_request_id,
    request_scope,
    set_request_id,
    span,
)
from .trajectory import (
    DEFAULT_TRAJECTORY_PATH,
    TrajectoryStore,
    env_digest,
    environment_fingerprint,
    git_sha,
)

__all__ = [
    "Attribution",
    "BaselineError",
    "BenchDelta",
    "CompareReport",
    "Counter",
    "DEFAULT_TRAJECTORY_PATH",
    "EXIT_HARD",
    "EXIT_SOFT",
    "FlightRecorder",
    "GateError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseRow",
    "Reason",
    "SpanRecord",
    "TrajectoryStore",
    "analyze_workload",
    "attribution",
    "chrome_trace",
    "clear_spans",
    "compare_reports",
    "counter",
    "disable",
    "dump_chrome_trace",
    "enable",
    "enabled",
    "env_digest",
    "environment_fingerprint",
    "finished_spans",
    "flight_recorder",
    "gauge",
    "get_request_id",
    "get_trace_id",
    "git_sha",
    "histogram",
    "incident",
    "load_report",
    "new_request_id",
    "note",
    "registry",
    "render_prometheus",
    "request_scope",
    "reset",
    "resolve_baseline",
    "set_enabled",
    "set_request_id",
    "span",
    "span_breakdown",
]


def reset() -> None:
    """Zero every metric sample, drop recorded spans, and clear the
    flight recorder's notes and incidents (for tests)."""
    registry.reset()
    clear_spans()
    flight_recorder.reset()
