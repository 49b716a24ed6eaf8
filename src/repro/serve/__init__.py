"""``repro.serve`` — the multi-tenant async planning service.

The :class:`~repro.api.Session` facade is one user in one process;
this package serves it: an asyncio HTTP tier exposing ``plan`` /
``run`` / ``trace`` / ``bench`` (plus ``/workloads`` and ``/stats``)
over the workload registry, with a **session pool** and a **shared
cross-session cache** so repeated requests hit memoized plans and
stored byte-identical responses instead of recomputing — the paper's
one-program-one-machine compiler decision, industrialized.

Layers (each usable on its own):

- :class:`~repro.serve.service.PlanningService` — the whole service
  with no socket: routes, session pool, response cache, counters;
- :class:`~repro.serve.pool.SessionPool` /
  :class:`~repro.serve.cache.ResponseCache` — the sharing machinery
  (one :class:`~repro.runtime.redistribute.PlanCache` across all
  pooled sessions; fingerprint-keyed response bytes);
- :mod:`repro.serve.http` — the stdlib asyncio front end
  (:func:`serve_forever` for the CLI, :class:`ServerThread` for
  in-process testing);
- :mod:`repro.serve.loadtest` — N concurrent clients × registered
  workloads, writing p50/p99 latency and cache hit rates to
  ``BENCH_SERVE.json`` (``python -m repro serve --loadtest``).

Quickstart::

    python -m repro serve                 # listen on 127.0.0.1:8642
    curl 'http://127.0.0.1:8642/plan?workload=adi&size=64&seed=0'
    curl 'http://127.0.0.1:8642/stats'   # watch the caches fill

or in-process::

    from repro.serve import PlanningService

    with PlanningService() as svc:
        response = svc.dispatch("GET", "/run?workload=adi&size=32&seed=0")
        report = response.json

Determinism contract: a request carries an explicit ``seed`` (default
``repro.DEFAULT_SEED``); equal requests produce **byte-identical**
JSON bodies whether computed or replayed from cache, and the bodies
are exactly the CLI's ``--json`` payloads.
"""

from .cache import ResponseCache, request_fingerprint
from .http import ServeServer, ServerThread, serve_forever
from .loadtest import run_loadtest
from .pool import SessionPool
from .service import ENDPOINTS, PlanningService, ServeResponse

__all__ = [
    "ENDPOINTS",
    "PlanningService",
    "ResponseCache",
    "ServeResponse",
    "ServeServer",
    "ServerThread",
    "SessionPool",
    "request_fingerprint",
    "run_loadtest",
    "serve_forever",
]
