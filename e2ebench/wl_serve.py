"""``serve-mixed``: the HTTP planning service under a mixed request load.

An in-process ``ServerThread(PlanningService())`` with default settings
is driven over HTTP keep-alive from this process with at most two
connections (one per core).  The process is pinned to one CPU (see
:func:`_pin_to_one_cpu`).  Requests mix ``/plan``, ``/run``,
``/trace`` and ``/adapt`` at small sizes; half of them carry a fresh
seed (a response-cache miss that computes), half replay one of a few
fixed configs (a hit that replays stored bytes).  Two phases:

- closed loop: each connection sends its next request when the last
  one completes; gives the throughput ``req_per_s`` and the per-class
  latencies behind ``pass_s`` (both normalized to a nominal machine
  speed, see ``harness.Speed``);
- open loop: requests fall due at a fixed rate (:data:`RATE`, about
  half the closed-loop capacity on a 2-core machine) whatever the
  server does; latency is timed from the due time, so a stall also
  delays the requests behind it, and the generator's own lateness is
  reported.

Correctness: every response is 200 or counts as failed; every body of
a fixed config equals the bytes a direct session produces for it (the
service/CLI ``--json`` contract), and so does a sample of the
fresh-seed bodies.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import threading
import time

from harness import CorrectnessError, Speed, median, percentile, sha256

ROUTES = ("plan", "run", "trace", "adapt")
#: small request configs per route: workload params plus stage options
CONFIGS = {
    "plan": {"workload": "adi", "size": 32, "iterations": 2},
    "run": {"workload": "smoothing", "size": 32, "steps": 4},
    "trace": {"workload": "adi", "size": 24, "iterations": 1, "compact": True},
    "adapt": {"workload": "pic", "size": 32, "steps": 12},
}
STAGE_OPTIONS = {"plan": ("cost_mode", "method"), "trace": ("overlap", "compact"),
                 "adapt": ("mode", "window"), "run": ()}
#: fixed (replayed) configs per route
HIT_CONFIGS = 2
#: the request-class cycle (route, replays a fixed config?): fixed, so
#: that which requests overlap on the two connections does not depend
#: on the seed; each hit is followed by a miss
ORDER = (("plan", True), ("run", False), ("trace", True), ("adapt", False),
         ("plan", False), ("run", True), ("trace", False), ("adapt", True))
#: open-loop arrival rate, requests per second
RATE = 120.0
CONNECTIONS = 2
#: the closed loop runs in segments of this many seconds; between them
#: the traffic pauses while the machine-speed probe runs PROBES times
SEGMENT = 0.5
PROBES = 6
#: fresh-seed bodies per route re-derived through a direct session
VERIFY_MISSES = 3


def _pin_to_one_cpu() -> None:
    """Pin this thread, and so every thread started after it (server,
    executor and client threads), to one CPU.

    The process is bound by the GIL to about one core anyway.  Pinned,
    the machine-speed probe (``harness.Speed``) runs on the CPU the
    server's threads run on, so it tracks their speed; unpinned, they
    migrate between CPUs the probe does not see, and on a busy 2-CPU
    host the normalized throughput spread 15-23% across seeds against
    about 8% pinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Request:
    __slots__ = ("route", "hit", "seed", "due", "sent", "done", "status",
                 "rid", "sha", "body", "factor")

    def __init__(self, route: str, hit: bool, seed: int):
        self.route, self.hit, self.seed = route, hit, seed
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.rid = self.sha = self.body = None
        self.factor = 1.0

    @property
    def cls(self) -> str:
        return f"{self.route}/{'hit' if self.hit else 'miss'}"

    @property
    def latency(self) -> float:
        """Seconds from due time to response; a failure never arrives."""
        return self.done - self.due if self.status == 200 else float("inf")


class _Client:
    """One keep-alive HTTP connection."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn: http.client.HTTPConnection | None = None

    def send(self, req: _Request) -> None:
        params = dict(CONFIGS[req.route], seed=req.seed)
        payload = json.dumps(params).encode()
        req.sent = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            self.conn.request("POST", f"/{req.route}", body=payload,
                              headers={"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            body = resp.read()
            req.status = resp.status
            req.rid = resp.getheader("X-Repro-Request-Id")
            req.body = body
        except (OSError, http.client.HTTPException) as exc:
            req.status = -1
            req.body = repr(exc).encode()
            self.close()
        req.done = time.perf_counter()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class ServeMixed:
    name = "serve-mixed"
    #: normalized by the probe, which shares the CPU the process is
    #: pinned to
    normalize = True

    def __init__(self, seed: int, checker, smoke: bool = False):
        """``smoke`` changes nothing here: the requests are already small."""
        import numpy as np

        self.checker = checker
        rng = np.random.default_rng(seed)
        self.hit_seeds = {r: [int(s) for s in rng.integers(1, 2**29, size=HIT_CONFIGS)]
                          for r in ROUTES}
        self.fresh = itertools.count(int(rng.integers(2**30, 2**31 - 2**24)))
        self._next = itertools.count()
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.records: list[_Request] = []
        self.speed = Speed()

    # -- lifecycle -------------------------------------------------------------
    def open(self) -> None:
        import repro
        from repro.serve import PlanningService, ServerThread

        _pin_to_one_cpu()
        self.server = ServerThread(PlanningService()).start()
        self.service = self.server.service
        self.direct = repro.session(nprocs=self.service.default_nprocs,
                                    cost_model=self.service.default_cost_model)
        for route in ROUTES:
            for seed in self.hit_seeds[route]:
                self.checker.check(self._cell(route, seed),
                                   {"body_sha256": sha256(self.direct_body(route, seed))})
        self.clients = [_Client("127.0.0.1", self.server.port)
                        for _ in range(CONNECTIONS)]

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        # let the server's connection handlers see the clients' EOF and
        # finish before its loop stops (else asyncio logs their cancellation)
        time.sleep(0.1)
        if hasattr(self, "direct"):
            self.direct.close()
        if hasattr(self, "server"):
            self.server.stop()

    def stats(self) -> dict:
        """The service's ``/stats`` document, over HTTP."""
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def direct_body(self, route: str, seed: int) -> str:
        """The bytes ``python -m repro <stage> --json`` prints."""
        params = dict(CONFIGS[route])
        options = {k: params.pop(k) for k in STAGE_OPTIONS[route] if k in params}
        handle = self.direct.workload(params.pop("workload"), seed=seed, **params)
        if route == "plan":
            return handle.plan().json_str()
        if route == "run":
            return handle.run().json_str()
        if route == "trace":
            result = handle.trace()
            return json.dumps(result.to_json(intervals=not options.get("compact")),
                              indent=2)
        return handle.adapt().json_str()

    # -- request generation ------------------------------------------------------
    def next_request(self) -> _Request:
        with self._lock:
            i = next(self._next)
            route, hit = ORDER[i % len(ORDER)]
            if hit:
                seeds = self.hit_seeds[route]
                seed = seeds[(i // len(ORDER)) % len(seeds)]
            else:
                seed = next(self.fresh)
        return _Request(route, hit, seed)

    def _finish(self, req: _Request) -> None:
        if req.status == 200:
            req.sha = sha256(req.body)
        with self._lock:
            self.attempted += 1
            if req.status != 200:
                self.failed += 1
                print(f"request failed: {req.cls} seed {req.seed}: "
                      f"status {req.status}: {req.body[:200]!r}", flush=True)
            self.records.append(req)
            req.body = None

    def _cell(self, route: str, seed: int) -> str:
        return f"{self.name}/{route}/seed{seed}"

    def check(self, records: list[_Request]) -> None:
        """Every served body of a fixed config equals the direct
        session's bytes for it."""
        for req in records:
            if req.hit and req.status == 200:
                self.checker.check(self._cell(req.route, req.seed),
                                   {"body_sha256": req.sha})

    def verify_misses(self) -> None:
        """Re-derive a sample of fresh-seed bodies through the session."""
        for route in ROUTES:
            sample = [r for r in self.records
                      if r.route == route and not r.hit and r.status == 200]
            for req in sample[:VERIFY_MISSES]:
                want = sha256(self.direct_body(route, req.seed))
                if req.sha != want:
                    raise CorrectnessError(
                        self._cell(route, req.seed),
                        f"served body sha256 {req.sha} != direct session {want}")

    # -- phases ------------------------------------------------------------------
    def _threads(self, target) -> None:
        threads = [threading.Thread(target=target, args=(c,)) for c in self.clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def warm(self) -> None:
        """Every fixed config once (computed and cached), every route
        once with a fresh seed."""
        reqs = [_Request(r, True, s) for r in ROUTES for s in self.hit_seeds[r]]
        reqs += [_Request(r, False, next(self.fresh)) for r in ROUTES]
        n0 = len(self.records)
        for req in reqs:
            req.due = time.perf_counter()
            self.clients[0].send(req)
            self._finish(req)
        self.check(self.records[n0:])

    def closed_loop(self, seconds: float) -> list[float]:
        """Back-to-back requests on every connection, in
        :data:`SEGMENT`-second segments separated by speed probes;
        returns each segment's completed requests per second,
        normalized (``harness.Speed``), and stamps every request with
        its segment's normalizing factor."""
        rates = []
        for _ in range(max(1, round(seconds / SEGMENT))):
            n0 = len(self.records)
            t_end = time.perf_counter() + SEGMENT

            def loop(client: _Client) -> None:
                while time.perf_counter() < t_end:
                    req = self.next_request()
                    req.due = time.perf_counter()
                    client.send(req)
                    self._finish(req)

            self._threads(loop)
            mark = len(self.speed.samples)
            self.speed.burst(PROBES)
            factor = self.speed.factor(mark)
            done = self.records[n0:]
            self.check(done)
            for req in done:
                req.factor = factor
            ok = sum(1 for r in done if r.status == 200 and r.done < t_end)
            rates.append(ok / (SEGMENT * factor))
        return rates

    def open_loop(self, seconds: float) -> list[_Request]:
        """Requests due every ``1/RATE`` s; returns the phase's records."""
        n0 = len(self.records)
        t0 = time.perf_counter()
        slots = itertools.count()

        def loop(client: _Client) -> None:
            while True:
                with self._lock:
                    k = next(slots)
                due = t0 + k / RATE
                if due - t0 >= seconds:
                    return
                req = self.next_request()
                req.due = due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                client.send(req)
                self._finish(req)

        self._threads(loop)
        done = self.records[n0:]
        self.check(done)
        return done

    # -- metrics -----------------------------------------------------------------
    def _phases(self, seconds: float) -> dict[str, float]:
        """Closed then open loop, each for half of ``seconds``.

        Throughput (the median over segments) and the pass time (the
        sum over request classes of the median latency) come from the
        closed loop, normalized to the nominal machine speed; latency
        percentiles, timed from the due time, and the generator's
        lateness come from the open loop, in wall time.
        """
        self.speed = Speed()
        n0 = len(self.records)
        rates = self.closed_loop(seconds / 2)
        closed = self.records[n0:]
        done = self.open_loop(seconds / 2)
        norm: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        for req in closed:
            norm.setdefault(req.cls, []).append(req.latency * req.factor)
            wall.setdefault(req.cls, []).append(req.latency)
        lat_ms = [r.latency * 1e3 for r in done]
        return {
            "req_per_s": median(rates),
            "pass_s": sum(median(v) for v in norm.values()),
            "pass_wall_s": sum(median(v) for v in wall.values()),
            "speed.ref_probe_ms": median(self.speed.samples) * 1e3,
            "req_ms_p50": percentile(lat_ms, 50),
            "req_ms_p99": percentile(lat_ms, 99),
            "loadgen.lag_ms_p99": percentile(
                [(r.sent - r.due) * 1e3 for r in done], 99),
        }

    def measure(self, seconds: float) -> dict[str, float]:
        out = self._phases(seconds)
        self.verify_misses()
        return out

    def measure_traced(self, seconds: float, recorder) -> dict[str, float]:
        """Untraced phases for half the budget, traced for the other
        half; per-layer counts and seconds are per request."""
        out = self._phases(seconds / 2)

        dispatches: dict[str, tuple[float, str]] = {}

        def on_dispatch(rec, args, kwargs, response, idx):
            span = rec.spans[idx]
            rid = response.headers.get("X-Repro-Request-Id")
            span[5] = rid
            dispatches[rid] = (span[3] - span[2], response.headers.get("X-Repro-Cache"))

        stats0 = self.stats()["response_cache"]
        n0 = len(self.records)
        mark = recorder.mark()
        extra = (("repro.serve.service", "PlanningService", "dispatch",
                  "serve.dispatch", "serve", True, {"after": on_dispatch}),)
        with recorder.installed(extra):
            traced_rate = self._phases(seconds / 2)["req_per_s"]
        delta = recorder.since(mark)
        traced = [r for r in self.records[n0:] if r.status == 200]
        per_request = 1.0 / max(1, len(traced))
        for key, value in recorder.layer_values(delta).items():
            out[key] = value * per_request
        stats1 = self.stats()["response_cache"]
        hits = stats1["hits"] - stats0["hits"]
        misses = stats1["misses"] - stats0["misses"]
        out["serve.response_cache.hit_ratio"] = hits / max(1, hits + misses)
        out["serve.pool.evictions"] = float(self.service.pool.stats()["evictions"])
        tiers = {"hit": [], "miss": []}
        http_ms = []
        for req in traced:
            if req.rid in dispatches:
                dt, tier = dispatches[req.rid]
                tiers.setdefault(tier, []).append(dt * 1e3)
                http_ms.append((req.done - req.sent - dt) * 1e3)
        out["serve.dispatch_hit_ms_p50"] = median(tiers["hit"])
        out["serve.dispatch_miss_ms_p50"] = median(tiers["miss"])
        out["serve.http_ms_p50"] = median(http_ms)
        out["obs.trace_overhead_frac"] = out["req_per_s"] / traced_rate - 1.0
        self.verify_misses()
        return out
