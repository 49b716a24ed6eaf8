"""Load-test harness: N concurrent clients × registered workloads.

The acceptance story of the service tier, executed: spin the asyncio
server up in-process (or point ``url=`` at a running one), hammer it
from ``clients`` concurrent threads, and verify the three properties
the serving design claims —

1. **zero failed requests** under concurrency;
2. **reproducibility**: identical requests (same workload, params,
   seed) get byte-identical JSON bodies, across clients and phases;
3. **cross-session caching**: the repeated-config phase's hit rate on
   the shared response cache exceeds 50% (each distinct config is
   computed once, every other request replays bytes).

Two phases drive those properties:

- ``unique`` — every request carries a fresh seed, so every response
  is computed: the cold-path latency floor;
- ``repeated`` — all clients replay one fixed config set ``rounds``
  times: everything after the first computation of each config is a
  cache hit (the millions-of-users steady state in miniature).

Latency p50/p99/mean per phase, cache behaviour (from the
``X-Repro-Cache`` response headers *and* the server's ``/stats``), and
the byte-identity verdict land in ``BENCH_SERVE.json`` next to
``BENCH_PERF.json``; ``check=True`` turns the three properties into a
CI gate (the ``serve`` gates of :mod:`repro.obs.gates`).  Run via
``python -m repro serve --loadtest`` or
``benchmarks/bench_serve.py``.

**Chaos mode** (``chaos=True`` / ``--chaos``) reruns the same phases
with a seeded :class:`~repro.faults.FaultPlan` active — injected
request delays, 500s, and dropped connections at the HTTP layer —
then drives a *recovery* phase: multiprocess ``/run`` requests under
a worker-crash + transport-delay plan, whose ``solution_sha256`` must
match a serial run of the same config bit for bit (the fleet restarts
mid-op and replays from the last barrier).  The report lands in
``BENCH_CHAOS.json`` and the ``check`` gate flips to the robustness
properties (the ``chaos`` row): zero byte-identity violations, zero
4xx, every 5xx carrying an ``X-Repro-Incident-Id``, and the recovered
runs bitwise-identical with at least one fleet restart observed.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..api.registry import REGISTRY, WorkloadRegistry
from ..defaults import DEFAULT_SEED

__all__ = ["run_loadtest", "SERVE_SCHEMA", "CHAOS_SCHEMA"]

#: schema of the BENCH_SERVE.json document (v2: env provenance stamp)
SERVE_SCHEMA = "repro-bench-serve/2"

#: schema of the BENCH_CHAOS.json document (chaos-mode load test)
CHAOS_SCHEMA = "repro-bench-chaos/1"


@dataclass
class _Observation:
    """One request as the client saw it."""

    key: str          # canonical request descriptor (identity group)
    phase: str
    status: int
    seconds: float
    cache: str        # X-Repro-Cache header: hit | miss | bypass
    digest: str       # sha256 of the body bytes
    error: str | None = None
    incident: str | None = None  # X-Repro-Incident-Id header, if any


#: series the /metrics scrape must contain at least one sample of for
#: the serve ``check`` gate to pass (satellite of the observability spine)
REQUIRED_SERIES = (
    "repro_http_requests_total",
    "repro_http_request_seconds_bucket",
    "repro_plan_cache_lookups_total",
    "repro_response_cache_lookups_total",
    "repro_planner_candidates_total",
    "repro_planner_plans_total",
    "repro_session_stages_total",
)


def _http_get(url: str, timeout: float) -> tuple[int, bytes]:
    req = urllib.request.Request(url, method="GET")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _scrape_metrics(base_url: str, timeout: float) -> dict:
    """GET /metrics and summarize which required series have samples."""
    try:
        status, body = _http_get(f"{base_url}/metrics", timeout)
    except Exception as exc:
        return {"scraped": False, "error": str(exc), "text": None,
                "missing_series": list(REQUIRED_SERIES)}
    if status != 200:
        return {"scraped": False, "error": f"HTTP {status}", "text": None,
                "missing_series": list(REQUIRED_SERIES)}
    text = body.decode()
    # a series "exists" when a sample line starts with its name (HELP /
    # TYPE comments alone mean the metric is registered but empty)
    sampled = {
        line.split("{", 1)[0].split(" ", 1)[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    missing = [s for s in REQUIRED_SERIES if s not in sampled]
    return {
        "scraped": True,
        "error": None,
        "text": text,
        "series_sampled": len(sampled),
        "missing_series": missing,
    }


def _http_post(url: str, payload: dict, timeout: float) -> tuple[int, dict, bytes]:
    data = json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read()


def _request_set(
    registry: WorkloadRegistry, workloads: list[str] | None, smoke: bool
) -> list[tuple[str, str, dict]]:
    """(endpoint, workload, params) for every workload × stage.

    Sizes are deliberately small — the harness measures the *service*
    (dispatch, pooling, caching, concurrency), not the workloads.
    """
    size = 12 if smoke else 24
    items: list[tuple[str, str, dict]] = []
    for name in workloads or registry.names():
        spec = registry.get(name)
        params: dict = {}
        if "size" in spec.defaults:
            params["size"] = size
        if "iterations" in spec.defaults:
            params["iterations"] = 1 if smoke else 2
        if "steps" in spec.defaults:
            params["steps"] = 2 if smoke else 4
        if spec.plannable:
            items.append(("plan", name, params))
        items.append(("run", name, params))
        items.append(("trace", name, dict(params, compact=True)))
    return items


#: how the percentiles below are computed (recorded in BENCH_SERVE.json)
LATENCY_METHOD = "linear_interpolation"


def _quantile(sorted_ms: np.ndarray, q: float) -> float:
    """Quantile ``q`` in [0, 1] with proper linear interpolation.

    Uses the standard ``rank = q * (n - 1)`` definition: the value is
    interpolated between the two order statistics bracketing the rank
    (no naive index rounding) — equivalent to
    ``statistics.quantiles(..., method="inclusive")`` cut points.
    """
    n = len(sorted_ms)
    if n == 1:
        return float(sorted_ms[0])
    rank = q * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return float(sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac)


def _percentiles(seconds: list[float]) -> dict:
    if not seconds:
        return {"p50_ms": None, "p99_ms": None, "mean_ms": None,
                "max_ms": None, "method": LATENCY_METHOD}
    ms = np.sort(np.asarray(seconds, dtype=float)) * 1e3
    return {
        "p50_ms": _quantile(ms, 0.50),
        "p99_ms": _quantile(ms, 0.99),
        "mean_ms": float(ms.mean()),
        "max_ms": float(ms.max()),
        "method": LATENCY_METHOD,
    }


def _run_phase(
    base_url: str,
    phase: str,
    per_client: list[list[tuple[str, dict]]],
    timeout: float,
) -> list[_Observation]:
    """Each client thread walks its own request list sequentially; all
    clients run concurrently."""

    def client(requests: list[tuple[str, dict]]) -> list[_Observation]:
        out: list[_Observation] = []
        for endpoint, payload in requests:
            key = json.dumps({"endpoint": endpoint, **payload}, sort_keys=True)
            t0 = time.perf_counter()
            try:
                status, headers, body = _http_post(
                    f"{base_url}/{endpoint}", payload, timeout
                )
                out.append(_Observation(
                    key=key, phase=phase, status=status,
                    seconds=time.perf_counter() - t0,
                    cache=headers.get("X-Repro-Cache", "unknown"),
                    digest=hashlib.sha256(body).hexdigest(),
                    error=None if status == 200 else body.decode(errors="replace")[:200],
                    incident=headers.get("X-Repro-Incident-Id"),
                ))
            except Exception as exc:
                out.append(_Observation(
                    key=key, phase=phase, status=0,
                    seconds=time.perf_counter() - t0,
                    cache="error", digest="", error=str(exc),
                ))
        return out

    with ThreadPoolExecutor(max_workers=len(per_client)) as pool:
        results = list(pool.map(client, per_client))
    return [obs for client_obs in results for obs in client_obs]


def _phase_report(name: str, observations: list[_Observation]) -> dict:
    mine = [o for o in observations if o.phase == name]
    failures = [o for o in mine if o.status != 200]
    hits = sum(1 for o in mine if o.cache == "hit")
    lookups = sum(1 for o in mine if o.cache in ("hit", "miss"))
    return {
        "name": name,
        "requests": len(mine),
        "failures": len(failures),
        "failure_samples": [o.error for o in failures[:3]],
        "cache_hits": hits,
        "cache_lookups": lookups,
        "cache_hit_rate": (hits / lookups) if lookups else None,
        "latency": _percentiles([o.seconds for o in mine]),
    }


def _recovery_plan(seed: int, nprocs: int = 4):
    """The fault plan for the recovery phase: one worker crash early
    enough that *every* multiprocess run hits it (op seq 3 is reached
    by any run that redistributes), plus transport delays on two links
    so recovery is exercised under perturbed message timing."""
    import random

    from ..faults import FaultPlan, TransportDelay, WorkerCrash

    rng = random.Random(int(seed))
    return FaultPlan(
        faults=(
            WorkerCrash(rank=rng.randrange(nprocs), at_op=3),
            TransportDelay(src=0, dst=1, seconds=0.002, last=16),
            TransportDelay(src=rng.randrange(1, nprocs), dst=0,
                           seconds=0.001, last=16),
        ),
        seed=int(seed),
    )


def _run_recovery(
    base_url: str,
    registry: WorkloadRegistry,
    smoke: bool,
    seed: int,
    timeout: float,
) -> dict:
    """The chaos acceptance property, executed over HTTP: a serial
    ``/run`` and two multiprocess ``/run``s of the same config, where
    the multiprocess fleet crashes mid-workload (per the active fault
    plan), restarts, and replays.  Recovered runs must produce the
    same ``solution_sha256`` as the uninterrupted serial run."""
    name = "adi" if "adi" in registry.names() else registry.names()[0]
    spec = registry.get(name)
    params: dict = {}
    if "size" in spec.defaults:
        params["size"] = 12 if smoke else 16
    if "iterations" in spec.defaults:
        params["iterations"] = 1
    if "steps" in spec.defaults:
        params["steps"] = 2

    probes = []
    for probe_seed in (seed + 7701, seed + 7702):
        probe: dict = {"workload": name, "seed": probe_seed, "params": params}
        for backend in ("serial", "multiprocess"):
            payload = dict(
                params, workload=name, seed=probe_seed, backend=backend
            )
            t0 = time.perf_counter()
            try:
                status, headers, body = _http_post(
                    f"{base_url}/run", payload, timeout
                )
                sha = None
                if status == 200:
                    try:
                        sha = json.loads(body).get("solution_sha256")
                    except (ValueError, AttributeError):
                        sha = None
                probe[backend] = {
                    "status": status,
                    "solution_sha256": sha,
                    "seconds": round(time.perf_counter() - t0, 4),
                    "incident": headers.get("X-Repro-Incident-Id"),
                    "error": None if status == 200
                             else body.decode(errors="replace")[:200],
                }
            except Exception as exc:
                probe[backend] = {
                    "status": 0, "solution_sha256": None,
                    "seconds": round(time.perf_counter() - t0, 4),
                    "incident": None, "error": str(exc),
                }
        probe["identical"] = (
            probe["serial"]["solution_sha256"] is not None
            and probe["serial"]["solution_sha256"]
            == probe["multiprocess"]["solution_sha256"]
        )
        probes.append(probe)

    failures = sum(
        1 for p in probes for b in ("serial", "multiprocess")
        if p[b]["status"] != 200
    )
    return {
        "workload": name,
        "probes": probes,
        "failures": failures,
        "identical": all(p["identical"] for p in probes),
    }


def run_loadtest(
    url: str | None = None,
    clients: int = 8,
    rounds: int = 3,
    workloads: list[str] | None = None,
    registry: WorkloadRegistry | None = None,
    *,
    smoke: bool = False,
    seed: int = DEFAULT_SEED,
    out: str | None = "BENCH_SERVE.json",
    metrics_out: str | None = None,
    trajectory: str | None = None,
    check: bool = False,
    quiet: bool = False,
    timeout: float = 120.0,
    chaos: bool = False,
    chaos_seed: int | None = None,
) -> dict:
    """Run the two-phase load test; return (and optionally write) the report.

    ``url=None`` starts an in-process :class:`~repro.serve.ServerThread`
    around a fresh :class:`~repro.serve.PlanningService` and tears it
    down afterwards; otherwise the running server at ``url`` is
    tested (its caches are *not* cleared — hit rates then reflect its
    real state).  ``check=True`` raises
    :class:`~repro.obs.gates.GateError` unless all three serving
    properties hold *and* the final ``/metrics`` scrape contains
    samples for every series in :data:`REQUIRED_SERIES`.  The raw
    Prometheus exposition is written to ``metrics_out`` (the snapshot
    artifact CI uploads next to ``BENCH_SERVE.json``), and
    ``trajectory`` names a JSONL file the report is appended to as one
    :class:`~repro.obs.trajectory.TrajectoryStore` entry (kind
    ``"serve"``, or ``"chaos"`` in chaos mode) for the regression
    sentinel's history.

    ``chaos=True`` activates a seeded :class:`~repro.faults.FaultPlan`
    for the duration of the test (in-process server only — the plan
    lives in this process), injects request-level faults during both
    phases, and appends a *recovery* phase exercising worker-crash
    fleet restarts; the ``check`` gate then asserts the robustness
    properties instead of the steady-state ones (see module docstring),
    and the default artifacts move aside (``BENCH_CHAOS.json``, no
    ``METRICS_SERVE.prom``) so the steady-state ones survive.
    """
    from ..obs.trajectory import record_run

    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if chaos and url is not None:
        raise ValueError(
            "chaos mode needs the in-process server (url=None): the "
            "fault plan is activated in this process and cannot reach "
            "a remote one"
        )
    if chaos:
        if out == "BENCH_SERVE.json":
            out = "BENCH_CHAOS.json"
        if metrics_out == "METRICS_SERVE.prom":
            metrics_out = None
    registry = registry if registry is not None else REGISTRY
    items = _request_set(registry, workloads, smoke)

    chaos_plan = recovery_plan = None
    if chaos:
        from ..faults import FaultPlan
        from ..obs.flight import flight_recorder

        cseed = int(chaos_seed if chaos_seed is not None else seed)
        chaos_plan = FaultPlan.chaos(cseed)
        recovery_plan = _recovery_plan(cseed)

    started_server = None
    if url is None:
        from .http import ServerThread
        from .service import PlanningService

        started_server = ServerThread(
            PlanningService(registry=registry), max_workers=clients
        ).start()
        url = started_server.url
    base_url = url.rstrip("/")

    try:
        # phase 1 — unique configs: every request gets its own seed, so
        # every response is computed (cold-path latencies, all misses)
        unique_lists = [
            [
                (endpoint, dict(params, workload=name,
                                seed=seed + 1000 + client * len(items) + i))
                for i, (endpoint, name, params) in enumerate(items)
            ]
            for client in range(clients)
        ]
        # phase 2 — repeated configs: one fixed seed, all clients replay
        # the same set `rounds` times (steady-state cache behaviour)
        repeated = [
            (endpoint, dict(params, workload=name, seed=seed))
            for endpoint, name, params in items
        ]
        repeated_lists = [list(repeated) * rounds for _ in range(clients)]

        recovery = None
        if chaos:
            from ..faults import injected

            def _restart_count() -> int:
                return sum(
                    1 for i in flight_recorder.incidents()
                    if i.get("reason") == "backend fleet restart"
                )

            # phases run under the request-fault plan (delays / 500s /
            # dropped connections at the HTTP layer)
            with injected(chaos_plan):
                observations = _run_phase(
                    base_url, "unique", unique_lists, timeout
                )
                observations += _run_phase(
                    base_url, "repeated", repeated_lists, timeout
                )
            # the recovery phase swaps in the worker-crash + transport-
            # delay plan: every multiprocess run crashes a worker and
            # must restart + replay to a bitwise-identical result
            restarts_before = _restart_count()
            with injected(recovery_plan):
                recovery = _run_recovery(
                    base_url, registry, smoke, seed, timeout
                )
            recovery["fleet_restarts"] = _restart_count() - restarts_before
        else:
            observations = _run_phase(base_url, "unique", unique_lists, timeout)
            observations += _run_phase(base_url, "repeated", repeated_lists, timeout)

        # byte-identity: within each identical-request group, every
        # response body must hash the same
        groups: dict[str, set[str]] = {}
        for o in observations:
            if o.status == 200:
                groups.setdefault(o.key, set()).add(o.digest)
        divergent = sorted(k for k, v in groups.items() if len(v) > 1)

        try:
            status, _, stats_body = _http_post(
                f"{base_url}/stats", {}, timeout
            )
            server_stats = json.loads(stats_body) if status == 200 else None
        except Exception:
            server_stats = None

        # scrape the Prometheus exposition while the server is still up
        metrics = _scrape_metrics(base_url, timeout)
    finally:
        if started_server is not None:
            started_server.stop()

    phases = [
        _phase_report("unique", observations),
        _phase_report("repeated", observations),
    ]
    report = {
        "schema": CHAOS_SCHEMA if chaos else SERVE_SCHEMA,
        "smoke": bool(smoke),
        "base_url": base_url,
        "in_process_server": started_server is not None,
        "clients": clients,
        "rounds": rounds,
        "workloads": list(workloads or registry.names()),
        "request_set": [
            {"endpoint": e, "workload": w, "params": p} for e, w, p in items
        ],
        "phases": phases,
        "total_requests": len(observations),
        "total_failures": sum(p["failures"] for p in phases),
        "byte_identical": not divergent,
        "divergent_requests": divergent[:5],
        "latency": _percentiles([o.seconds for o in observations]),
        "latency_method": LATENCY_METHOD,
        "server_stats": server_stats,
        "metrics": {k: v for k, v in metrics.items() if k != "text"},
    }
    if chaos:
        # injected failures are expected; what must hold is that every
        # server-side failure is *attributable* — a 5xx without an
        # incident ID is a hole in the post-mortem story
        uncovered = [
            o for o in observations if o.status >= 500 and not o.incident
        ]
        injected_failures = sum(
            1 for o in observations if o.status >= 500 or o.status == 0
        )
        report["chaos"] = {
            "seed": cseed,
            "request_fault_plan": chaos_plan.to_json(),
            "recovery_fault_plan": recovery_plan.to_json(),
            "injected_failures": injected_failures,
            "uncovered_5xx": len(uncovered),
            "client_errors": sum(
                1 for o in observations if 400 <= o.status < 500
            ),
            "recovery": recovery,
        }

    if not quiet:
        for p in phases:
            lat = p["latency"]
            rate = p["cache_hit_rate"]
            print(
                f"  {p['name']:9s} {p['requests']:4d} requests, "
                f"{p['failures']} failed, "
                f"p50 {lat['p50_ms']:.1f} ms, p99 {lat['p99_ms']:.1f} ms, "
                f"hit rate {'n/a' if rate is None else f'{rate:.0%}'}"
            )
        print(f"  byte-identical responses: {report['byte_identical']}")
        if chaos:
            c = report["chaos"]
            print(
                f"  chaos: {c['injected_failures']} injected failure(s), "
                f"{c['uncovered_5xx']} uncovered 5xx, "
                f"{c['recovery']['fleet_restarts']} fleet restart(s), "
                f"recovery identical: {c['recovery']['identical']}"
            )

    if metrics_out and metrics.get("text"):
        with open(metrics_out, "w") as fh:
            fh.write(metrics["text"])
        if not quiet:
            print(f"  wrote {metrics_out}")
    return record_run(
        "chaos" if chaos else "serve", report, out=out,
        trajectory=trajectory, check=check, quiet=quiet,
    )
