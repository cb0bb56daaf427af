"""Scheduling-as-a-service: a long-lived HTTP daemon + shared cache.

``python -m repro serve`` boots a stdlib-only HTTP server exposing the
slack scheduler over a small JSON protocol:

- ``POST /v1/schedule`` — one loop (DSL source) + machine config in,
  canonical metrics/schedule/explain JSON out, idempotently cached
  under the canonical SHA-256 request key;
- ``POST /v1/batch``    — many loops in, a batch-report envelope out,
  executed through :func:`repro.service.run_batch`;
- ``GET/PUT /v1/cache/<key>`` — the shared warm cache over HTTP, with
  ETag conditional gets and optional bearer-token auth;
- ``GET /healthz`` / ``GET /metricz`` — liveness and a metrics
  snapshot with p50/p90/p99 request-latency histograms.

The client half, :class:`repro.server.httpcache.HTTPCache`, implements
the :class:`repro.service.cache.CacheBackend` protocol so
``repro batch --cache-url`` lets many clients and CI shards share one
warm cache, degrading gracefully to the local sqlite cache when the
server is unreachable.
"""

from repro.server.app import ScheduleServer, ServerConfig, serve_main
from repro.server.httpcache import HTTPCache, ServerClient
from repro.server.protocol import (
    BATCH_SCHEMA,
    SCHEDULE_SCHEMA,
    SERVER_PROTOCOL_VERSION,
    ProtocolError,
)

__all__ = [
    "BATCH_SCHEMA",
    "HTTPCache",
    "ProtocolError",
    "SCHEDULE_SCHEMA",
    "SERVER_PROTOCOL_VERSION",
    "ScheduleServer",
    "ServerClient",
    "ServerConfig",
    "serve_main",
]
