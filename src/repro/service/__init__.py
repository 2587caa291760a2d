"""The async query-serving layer (the ROADMAP's traffic-facing front).

The paper's studies are batch jobs; this package turns the same
engines — RPQ evaluation, SPARQL parse+analysis, the log battery —
into a served API: an asyncio TCP server speaking a length-prefixed
JSON protocol, with admission control (bounded queue, load shedding),
per-request deadlines, single-flight deduplication of identical
in-flight requests, a content-addressed result cache, and per-endpoint
metrics with latency percentiles.

Stores can be served from memory, from one frozen mmap image, or from
a *sharded deployment*: a directory of per-shard images written by
:func:`shard_store`, attached zero-copy by a pool of worker processes
and served by :class:`ShardGroup` — single-shard requests go to their
owner worker, and multi-shard RPQs and SPARQL evaluation (the ``query``
op) read a coordinator-side union of the predicates each request
reads.  All messages are typed wire-v2
dataclasses (:class:`RpqRequest` … :class:`StatsResponse`); the
pre-typed v1 dict encoding is rejected with an upgrade hint.

Public surface:

* Opening: :func:`open_service` — one factory for every deployment
  shape (stores dict → embedded, ``"host:port"`` or tuple → TCP)
* Serving: :class:`ReproServer`, :func:`serve`, :class:`ServiceCore`,
  :class:`ServiceConfig`, :class:`EmbeddedService` (in-process, same
  caller API)
* Calling: :class:`ServiceClient`, :func:`connect`, :class:`RequestAPI`
* Sharding: :func:`shard_store`, :class:`ShardGroup`,
  :class:`ShardManifest`
* Scheduling: :class:`Scheduler`
* Caching: :class:`ResultCache`, :func:`result_key`
* Metrics: :class:`ServiceMetrics`, :class:`LatencyHistogram`
* Protocol: :mod:`repro.service.protocol` — ``WIRE_VERSION``, the
  typed :class:`Request` / :class:`Response` families
* Typed errors (re-exported from :mod:`repro.errors`):
  :class:`ServiceError`, :class:`ServiceOverloaded`,
  :class:`DeadlineExceeded`, :class:`BadRequest`,
  :class:`ProtocolError`, :class:`StoreFrozenError`,
  :class:`StoreUnavailableError`, :class:`ShardError`, :class:`ResponseTooLarge`

Run a demo server with ``python -m repro.service --port 7411``
(add ``--shards 4`` to serve the demo store sharded).
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "client": ("RequestAPI", "ServiceClient", "connect"),
    "metrics": ("EndpointMetrics", "LatencyHistogram", "ServiceMetrics"),
    "protocol": (
        "WIRE_VERSION", "BatteryRequest", "BatteryResponse", "ErrorResponse",
        "LogBatteryRequest", "LogBatteryResponse", "MutateRequest", "MutateResponse",
        "PingRequest", "PingResponse", "QueryRequest", "QueryResponse", "Request",
        "Response", "RpqRequest", "RpqResponse", "SparqlRequest", "SparqlResponse",
        "StatsRequest", "StatsResponse", "ValidateRequest", "ValidateResponse",
        "parse_response",
    ),
    "resultcache": ("ResultCache", "result_key"),
    "scheduler": ("Scheduler",),
    "server": (
        "COMPUTE_OPS", "EmbeddedService", "ReproServer", "ServiceConfig", "ServiceCore",
        "open_service", "serve",
    ),
    "shard": ("ShardGroup", "ShardManifest", "shard_store"),
    "..errors": (
        "BadRequest", "DeadlineExceeded", "ProtocolError", "ResponseTooLarge",
        "ServiceError", "ServiceOverloaded", "ShardError", "StoreFrozenError",
        "StoreUnavailableError",
    ),
})
