"""The serving layer: dispatch core, embedded service, and TCP server.

:class:`ServiceCore` owns everything a deployment needs — the store
registry, the admission-controlled :class:`~.scheduler.Scheduler`, the
content-addressed :class:`~.resultcache.ResultCache`, and the
:class:`~.metrics.ServiceMetrics` registry — and exposes exactly one
entry point, :meth:`ServiceCore.handle`, mapping a request dict to a
response dict.  :class:`ReproServer` frames that entry point over an
asyncio TCP socket (length-prefixed JSON, concurrent per-connection
requests); :class:`EmbeddedService` mounts the same core in-process
with the same caller API as the network client, so every test and
differential oracle exercises the identical dispatch, scheduling, and
caching code paths with no socket in between.

Operations
----------

* ``rpq`` — regular-path-query evaluation over a registered store via
  the compiled engine (walk semantics all-pairs or filtered; simple /
  trail existence between two nodes);
* ``sparql`` — parse + structural analysis of one SPARQL query
  (canonical text via :func:`~repro.sparql.serialize.serialize_query`,
  features, operator set, triple count);
* ``query`` — *full evaluation* of one SPARQL query against a
  registered store (SELECT rows, ASK boolean, CONSTRUCT/DESCRIBE
  triples).  On a sharded store the query evaluates on the group's
  coordinator-side union (:meth:`~repro.service.shard.ShardGroup.union_store`),
  loaded with just the predicates the query reads;
* ``log`` — the full per-query log-battery record
  (:func:`~repro.logs.battery.analyze_query_fused`, shipped in its
  JSON-able :func:`~repro.logs.analyzer.encode_analysis` form — the
  same record the persistent log cache stores);
* ``battery`` — a whole list of raw query texts through the log
  battery, deduplicated first and merged into one corpus-level
  :class:`~repro.logs.analyzer.LogReport` (shipped via
  :func:`~repro.logs.analyzer.encode_report`); on a sharded store the
  chunks scatter over the shard worker processes and the counter
  partials merge via :func:`~repro.logs.analyzer.combine_reports`;
* ``validate`` — stream-validate an XML/JSON document (or an explicit
  event list) against a DTD / EDTD / BonXai schema shipped as textual
  rules.  The schema compiles once into a
  :class:`~repro.trees.automata.TreeAutomaton` (LRU-cached by schema
  fingerprint) and runs in a single constant-memory pass; results are
  cached by (schema fingerprint, document digest).  Store-less, so it
  serves identically on embedded and sharded deployments;
* ``mutate`` — add triples to a registered store (admitted through the
  scheduler like any other work; a per-store read-write gate excludes
  it from running concurrently with engine reads);
* ``stats`` — metrics snapshot, cache/scheduler accounting, per-store
  fingerprints;
* ``ping`` — liveness.

Only version-2 typed messages are accepted (see
:mod:`repro.service.protocol`); a version-less pre-typed (v1) request —
whose deprecation window has closed — is rejected with a typed
``bad_request`` carrying an upgrade hint and counted in
``metrics.legacy_requests``.  Every response is stamped with the wire
version.

The request dataclasses are the only request schema:
:meth:`Request.parse <repro.service.protocol.Request.parse>` checks
every parameter's type and value domain, and the op's
``_prepare_<op>`` (or ``_mutate``) reads attributes off the parsed
request.  The server checks only what spans fields: exactly one of
``document``/``events`` for ``validate``, and ``source``/``target`` for
simple and trail ``rpq``.

Sharded deployments
-------------------

A store registered as a *shard directory* (or ``manifest.json`` path —
see :func:`repro.service.shard.shard_store`) mounts as a
:class:`~repro.service.shard.ShardGroup`: N worker processes attach the
per-shard images zero-copy and run the engines locally.  A request
whose expression reads one shard's predicates goes to that shard's
worker; one that spans shards runs on the scheduler thread against a
coordinator-side union of the mapped images, and log batteries scatter
over the workers.  The
admission-control / deadline / single-flight machinery is identical for
sharded and local stores, and because the manifest records the *source*
store's content fingerprint, so are the result-cache keys.

Caching and consistency
-----------------------

Compute results are cached under ``(endpoint, store fingerprint,
canonical text, semantics)``.  The store fingerprint is a persistent
*content* digest (order-independent, identical across processes — see
:meth:`~repro.graphs.rdf.TripleStore.fingerprint`) scoped to what the
answer reads: an ``rpq`` answer reads only its expression's predicates
(``^p`` reads ``p``) and is keyed by the fingerprint of that sub-store;
a ``query``, and a nullable walk without ``sources`` (whose diagonal
covers every node), may read anything and are keyed by the whole-store
fingerprint.  A mutation invalidates by *changing the key* of every
later identical request over a scope it added triples to — entries
computed against superseded data can never be addressed again — while
answers over untouched predicates keep their keys and stay hits.  After
a write, :meth:`ResultCache.drop <.resultcache.ResultCache.drop>`
removes the entries it made unreachable, so they free their slots at
once instead of evicting live answers; the key alone guarantees
freshness, so a read racing the write cannot be served stale whichever
side of the drop it lands on.  Because the fingerprint is derived from
content rather than a session counter, a service restarted over the
same data (in particular, over a memory-mapped store image) addresses
exactly the keys its predecessor populated.  Store reads run under a
readers-writer gate (readers concurrent, mutations exclusive), so an
engine execution never observes a half-applied mutation.  Responses
always carry the request id and — for compute operations —
``served_from: cache | engine``.

Each compute answer is encoded to JSON exactly once, on the scheduler
worker that computed it (:func:`~repro.service.protocol.encode_result`);
an answer too large for a response frame fails there with the typed
``response_too_large`` error on every front end, and is never cached.
The cache entry, single-flight followers and every response share that
immutable :class:`~repro.service.protocol.EncodedResult` text: a cache
hit is spliced into its frame without re-encoding, and
:class:`EmbeddedService` hands each caller a private decoded copy, so
no caller can alter what the cache serves next.

Stores may be registered as live :class:`~repro.graphs.rdf.TripleStore`
objects or as *paths to frozen images* (see
:mod:`repro.store.mmapstore`), which are opened memory-mapped:
instant startup, pages shared with any other process serving the same
image, and ``mutate`` against them failing with the typed
``store_frozen`` error.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional as Opt, Tuple, Union

from ..errors import (
    BadRequest,
    DeadlineExceeded,
    DTDParseError,
    JSONParseError,
    ProtocolError,
    RegexParseError,
    ResponseTooLarge,
    SchemaError,
    ServiceError,
    ServiceOverloaded,
    SPARQLParseError,
    StoreFrozenError,
    StoreImageError,
    StoreUnavailableError,
    UnsupportedFeatureError,
    XMLParseError,
)
from ..graphs.engine import ast_key, predicates_read
from ..graphs.paths import evaluate_rpq, exists_simple_path, exists_trail
from ..graphs.rdf import TripleStore
from ..logs.analyzer import encode_analysis, encode_report
from ..logs.battery import analyze_query_fused
from ..logs.cache import battery_fingerprint
from ..logs.corpus import normalize_text
from ..logs.pipeline import run_study
from ..regex.parser import parse as parse_regex
from ..sparql.features import (
    count_triple_patterns,
    operator_set,
    query_features,
)
from ..sparql.evaluation import Evaluator, _as_node, query_predicates
from ..sparql.parser import parse_query
from ..sparql.serialize import serialize_query
from .client import RequestAPI, connect
from .metrics import ServiceMetrics
from .protocol import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    BatteryRequest,
    EncodedResult,
    LogBatteryRequest,
    MutateRequest,
    QueryRequest,
    Request,
    RpqRequest,
    SparqlRequest,
    ValidateRequest,
    encode_frame,
    encode_result,
    error_response,
    ok_response,
    read_frame,
)
from .resultcache import DEFAULT_MAX_ENTRIES, ResultCache, result_key
from .scheduler import DEFAULT_MAX_QUEUE, DEFAULT_MAX_WORKERS, Scheduler
from .shard import MANIFEST_NAME, ShardGroup

#: operations that go through cache + scheduler
COMPUTE_OPS = ("rpq", "sparql", "query", "log", "battery", "validate")

#: what may be registered as a store: a live store, an already-mounted
#: shard group, a path to a frozen image, or a path to a shard
#: directory / manifest (mounted as a :class:`ShardGroup`)
StoreSpec = Union[TripleStore, ShardGroup, str, Path]


def _resolve_store(
    spec: StoreSpec, replicas: int = 1
) -> Union[TripleStore, ShardGroup]:
    if isinstance(spec, TripleStore):
        return spec
    if isinstance(spec, ShardGroup):
        return spec
    if isinstance(spec, (str, Path)):
        path = Path(spec)
        if path.is_dir() or path.name == MANIFEST_NAME:
            return ShardGroup(path, replicas=replicas)
        from ..store.mmapstore import MappedTripleStore

        try:
            return MappedTripleStore.load(path)
        except FileNotFoundError:
            raise StoreUnavailableError(f"no store image at {path}")
        except (StoreImageError, OSError, ValueError) as exc:
            raise StoreUnavailableError(
                f"cannot open store image {path}: {exc}"
            )
    raise BadRequest(
        f"a store must be a TripleStore, a ShardGroup, or a path to an "
        f"image or shard directory, not {type(spec).__name__}"
    )

#: version folded into the sparql endpoint's cache fingerprint; bump
#: when the endpoint's result payload changes shape
SPARQL_RESULT_VERSION = "sparql-1"

#: same role for the query (full SPARQL evaluation) endpoint
QUERY_RESULT_VERSION = "query-1"

#: same role for the validate (streaming tree-schema validation)
#: endpoint; also folded into the compiled-automaton LRU key
VALIDATE_RESULT_VERSION = "validate-1"

#: compiled NFTA cache bound (schemas are tiny next to results, but the
#: compile is the expensive step worth reusing across documents)
VALIDATE_AUTOMATA_CACHE = 64


@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    max_workers: int = DEFAULT_MAX_WORKERS
    max_queue: int = DEFAULT_MAX_QUEUE
    #: result-cache LRU bound; 0 disables caching entirely
    cache_entries: int = DEFAULT_MAX_ENTRIES
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: applied when a request carries no ``deadline_ms`` (None: no limit)
    default_deadline_ms: Opt[float] = None
    #: worker-process attachments per shard of a sharded store (>1
    #: gives each shard hot replicas for failover)
    shard_replicas: int = 1
    #: seconds between background shard health checks (ping + respawn
    #: of dead workers) run by :class:`ReproServer`; None disables them
    health_check_interval: Opt[float] = None


class _StoreGate:
    """A readers-writer gate over one store, acquired *inside* worker
    threads (both engine reads and mutations execute on the pool, so
    threading primitives are the right tool and the event loop never
    blocks on it).  Readers are concurrent; a mutation waits for
    in-flight readers to drain and excludes new ones while it runs.
    Writers are not prioritized — acceptable at this scale, and starving
    writers is impossible once admission control bounds the read queue.
    """

    __slots__ = ("_cond", "_readers", "_writing")

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    def read(self, fn):
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            return fn()
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    def write(self, fn):
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True
        try:
            return fn()
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class ServiceCore:
    """Dispatch, scheduling, caching, and metrics for one deployment."""

    def __init__(
        self,
        stores: Opt[Dict[str, StoreSpec]] = None,
        config: Opt[ServiceConfig] = None,
    ):
        self.config = config or ServiceConfig()
        self.stores: Dict[str, Union[TripleStore, ShardGroup]] = {
            name: _resolve_store(spec, self.config.shard_replicas)
            for name, spec in (stores or {}).items()
        }
        self._gates: Dict[str, _StoreGate] = {
            name: _StoreGate() for name in self.stores
        }
        self.scheduler = Scheduler(
            max_workers=self.config.max_workers,
            max_queue=self.config.max_queue,
        )
        self.cache = ResultCache(self.config.cache_entries)
        self.metrics = ServiceMetrics()
        #: schema fingerprint -> compiled TreeAutomaton (LRU)
        self._automata: "OrderedDict[str, Any]" = OrderedDict()

    def add_store(self, name: str, store: StoreSpec) -> None:
        """Register a live store, a frozen-image path, or a shard
        directory under ``name``."""
        self.stores[name] = _resolve_store(store, self.config.shard_replicas)
        self._gates[name] = _StoreGate()

    @property
    def shard_groups(self) -> Dict[str, ShardGroup]:
        """The sharded stores of the registry (possibly empty)."""
        return {
            name: store
            for name, store in self.stores.items()
            if isinstance(store, ShardGroup)
        }

    def close(self) -> None:
        self.scheduler.close()
        for group in self.shard_groups.values():
            group.close()

    # -- request entry point ----------------------------------------------------

    async def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request dict in, one response dict out.  Never raises:
        every failure becomes a typed error response.  A compute
        answer's ``result`` is its shared
        :class:`~repro.service.protocol.EncodedResult` text — frame it
        with :func:`~repro.service.protocol.encode_frame`, or decode it.

        Only the typed v2 encoding is accepted (strictly parsed through
        :class:`~repro.service.protocol.Request` — unknown parameters
        and ill-typed values are rejected, and a request that does not
        parse is counted under the op ``?``); a version-less v1 request
        is rejected with an upgrade hint and counted in
        ``metrics.legacy_requests``.  Every response carries the wire
        version stamp."""
        started = time.monotonic()
        request_id = message.get("id")
        if request_id is not None and not isinstance(request_id, str):
            request_id = str(request_id)

        def finish(response: Dict[str, Any]) -> Dict[str, Any]:
            response["v"] = WIRE_VERSION
            return response

        if "v" not in message:
            self.metrics.legacy_requests += 1
            self.metrics.record("?", started, "error", BadRequest.code)
            return finish(
                error_response(
                    request_id,
                    BadRequest.code,
                    "the version-less (v1) wire encoding is no longer "
                    f'accepted; send typed v2 requests with "v": '
                    f"{WIRE_VERSION} — see repro.service.protocol or use "
                    "the repro.service.client.RequestAPI wrappers",
                )
            )
        if message.get("v") != WIRE_VERSION:
            self.metrics.record("?", started, "error", BadRequest.code)
            return finish(
                error_response(
                    request_id,
                    BadRequest.code,
                    f"unsupported wire version {message.get('v')!r} "
                    f"(this server speaks {WIRE_VERSION})",
                )
            )
        op = "?"  # until the request parses
        try:
            request = Request.parse(message)
            op = request.op
            deadline = self._deadline_of(request)
            if op in COMPUTE_OPS:
                result, served_from = await self._compute(request, deadline)
                response = ok_response(request_id, result, served_from)
            elif op == "mutate":
                response = ok_response(
                    request_id, await self._mutate(request, deadline)
                )
            elif op == "stats":
                response = ok_response(request_id, self._stats_payload())
            else:
                response = ok_response(request_id, {"pong": True})
        except ServiceOverloaded as exc:
            self.metrics.record(op, started, "shed", exc.code)
            return finish(error_response(request_id, exc.code, str(exc)))
        except DeadlineExceeded as exc:
            self.metrics.record(op, started, "timeout", exc.code)
            return finish(error_response(request_id, exc.code, str(exc)))
        except ServiceError as exc:
            self.metrics.record(op, started, "error", exc.code)
            return finish(error_response(request_id, exc.code, str(exc)))
        except Exception as exc:  # engine bug: report, don't drop the link
            self.metrics.record(op, started, "error", "internal")
            return finish(
                error_response(
                    request_id,
                    "internal",
                    f"{type(exc).__name__}: {exc}",
                )
            )
        self.metrics.record(op, started, "ok")
        return finish(response)

    def _deadline_of(self, request: Request) -> Opt[float]:
        deadline_ms = request.deadline_ms or self.config.default_deadline_ms
        if deadline_ms is None:
            return None
        return asyncio.get_running_loop().time() + deadline_ms / 1000.0

    # -- compute operations -----------------------------------------------------

    async def _compute(
        self, request: Request, deadline: Opt[float]
    ) -> Tuple[EncodedResult, str]:
        """Cache lookup -> single-flight scheduled execution -> cache
        fill.  Returns ``(encoded result payload, served_from)``.  The
        op's ``_prepare_<op>`` returns ``(key, fn, scope)``; ``scope``
        is ``None`` for answers that read no store, which no write can
        change."""
        endpoint = self.metrics.endpoint(request.op)
        key, fn, scope = getattr(self, f"_prepare_{request.op}")(request)
        hit, payload = self.cache.get(key)
        if hit:
            endpoint.cache_hits += 1
            return payload, "cache"
        endpoint.cache_misses += 1
        # the worker encodes the answer, so the cache, followers and
        # every response share one immutable text.  The cache fill rides
        # on execution completion, not on this request returning: a
        # computation that outlives its caller's deadline still pays off
        # for the next asker.  An answer too large for any frame fails
        # on the worker, so it is never cached
        try:
            payload, coalesced = await self.scheduler.run(
                key,
                lambda: encode_result(fn()),
                deadline,
                on_result=lambda p: self.cache.put(key, p, scope),
            )
        except ResponseTooLarge:
            self.metrics.responses_too_large += 1
            raise
        if coalesced:
            endpoint.coalesced += 1
        return payload, "engine"

    def _store_of(self, name: str) -> Union[TripleStore, ShardGroup]:
        store = self.stores.get(name)
        if store is None:
            raise BadRequest(
                f"unknown store {name!r} "
                f"(registered: {sorted(self.stores) or 'none'})"
            )
        return store

    def _prepare_rpq(self, request: RpqRequest):
        """The answer reads only the expression's predicates (``^p``
        reads ``p``), so it is keyed by their sub-store fingerprint and
        scoped to them, surviving writes to others — except a nullable
        walk without ``sources``, whose diagonal covers every node of
        the store."""
        name, expr_text, semantics = (
            request.store, request.expr, request.semantics
        )
        store = self._store_of(name)
        try:
            expr = parse_regex(expr_text, multi_char=True)
        except RegexParseError as exc:
            raise BadRequest(f"unparseable expression: {exc}")
        sharded = isinstance(store, ShardGroup)
        gate = self._gates[name]
        predicates = predicates_read(expr.alphabet())
        # the canonical form is the structural AST key — rendered text
        # is ambiguous under academic union-'+' notation — plus every
        # parameter the answer depends on
        if semantics == "walk":
            sources, targets = request.sources, request.targets
            canonical = json.dumps(
                [
                    repr(ast_key(expr)),
                    sorted(set(sources)) if sources is not None else None,
                    sorted(set(targets)) if targets is not None else None,
                ],
                ensure_ascii=False,
            )
            if sources is None and expr.nullable:
                predicates = None

            def fn() -> Dict[str, Any]:
                if sharded:
                    pairs = store.evaluate_walk(expr_text, sources, targets)
                else:
                    pairs = gate.read(
                        lambda: evaluate_rpq(store, expr, sources, targets)
                    )
                return {
                    "semantics": "walk",
                    "pairs": sorted(pairs),
                    "count": len(pairs),
                }

        else:
            source, target = request.source, request.target
            if source is None or target is None:
                raise BadRequest(
                    f"{semantics} semantics needs 'source' and 'target' "
                    f"strings"
                )
            decide = (
                exists_simple_path
                if semantics == "simple"
                else exists_trail
            )
            canonical = json.dumps(
                [repr(ast_key(expr)), source, target], ensure_ascii=False
            )

            def fn() -> Dict[str, Any]:
                if sharded:
                    exists = store.exists(expr_text, source, target, semantics)
                else:
                    exists = gate.read(
                        lambda: decide(store, expr, source, target)
                    )
                return {"semantics": semantics, "exists": bool(exists)}

        # a ShardGroup's fingerprint is the *source* store's content
        # digest (scoped: combined from its owner shards), so sharded
        # and single-process deployments over the same data share keys
        key = result_key(
            "rpq", store.fingerprint(predicates), canonical, semantics
        )
        return key, fn, (name, predicates)

    def _prepare_sparql(self, request: SparqlRequest):
        text = request.query
        key = result_key(
            "sparql", SPARQL_RESULT_VERSION, normalize_text(text), "sparql"
        )

        def fn() -> Dict[str, Any]:
            try:
                query = parse_query(text)
            except (SPARQLParseError, RecursionError) as exc:
                return {"valid": False, "reason": str(exc)}
            return {
                "valid": True,
                "canonical": serialize_query(query),
                "query_type": query.query_type,
                "triples": count_triple_patterns(query),
                "features": sorted(query_features(query)),
                "operators": sorted(operator_set(query)),
            }

        return key, fn, None

    def _schema_automaton(self, kind: str, rules, start, mu, fingerprint: str):
        """Compile (or fetch from the LRU) the NFTA for a wire schema.
        A broken schema is the *requester's* fault -> ``BadRequest``."""
        from ..trees.automata import TreeAutomaton, compile_schema
        from ..trees.bonxai import PatternSchema
        from ..trees.dtd import DTD
        from ..trees.edtd import EDTD

        cached = self._automata.get(fingerprint)
        if cached is not None:
            self._automata.move_to_end(fingerprint)
            return cached
        try:
            if kind == "dtd":
                automaton = TreeAutomaton.from_dtd(
                    DTD.from_rules(rules, start=start or [])
                )
            elif kind == "edtd":
                automaton = TreeAutomaton.from_edtd(
                    EDTD.from_rules(rules, start=start or [], mu=mu)
                )
            else:
                automaton = compile_schema(PatternSchema.from_rules(rules))
        except (DTDParseError, RegexParseError, SchemaError, ValueError) as exc:
            raise BadRequest(f"invalid {kind} schema: {exc}")
        self._automata[fingerprint] = automaton
        while len(self._automata) > VALIDATE_AUTOMATA_CACHE:
            self._automata.popitem(last=False)
        return automaton

    def _prepare_validate(self, request: ValidateRequest):
        """Streaming tree-schema validation.  Store-less (works the same
        on embedded and sharded deployments); cached by
        (schema fingerprint, document digest)."""
        from ..core.hashing import text_key
        from ..trees.automata import StreamingTreeValidator
        from ..trees.streaming import events_of

        kind, rules, start, mu = (
            request.schema_kind, request.rules, request.start, request.mu
        )
        document, events = request.document, request.events
        fmt = request.format
        if (document is None) == (events is None):
            raise BadRequest("exactly one of 'document' and 'events' is required")

        schema_fingerprint = text_key(
            json.dumps(
                [
                    VALIDATE_RESULT_VERSION,
                    kind,
                    sorted(rules.items()),
                    sorted(start or []),
                    sorted((mu or {}).items()),
                ],
                ensure_ascii=False,
                separators=(",", ":"),
            )
        )
        document_digest = text_key(
            json.dumps(
                [fmt, document] if document is not None else ["events", events],
                ensure_ascii=False,
                separators=(",", ":"),
            )
        )
        key = result_key("validate", schema_fingerprint, document_digest, "validate")
        automaton = self._schema_automaton(kind, rules, start, mu, schema_fingerprint)

        def fn() -> Dict[str, Any]:
            validator = StreamingTreeValidator(automaton)
            payload: Dict[str, Any] = {"states": automaton.state_count()}
            try:
                stream = (
                    iter(events)
                    if events is not None
                    else events_of(document, format=fmt)
                )
                for event in stream:
                    if not validator.feed(event):
                        break
            except (XMLParseError, JSONParseError) as exc:
                # an unparseable document is a verdict, not a fault
                payload.update(valid=False, reason=str(exc))
                payload["stack_depth"] = validator.max_stack_depth
                return payload
            valid = validator.finish()
            payload["valid"] = valid
            payload["stack_depth"] = validator.max_stack_depth
            if not valid:
                payload["reason"] = (
                    validator.failure
                    or "stream ended before the document closed"
                )
            return payload

        return key, fn, None

    def _prepare_query(self, request: QueryRequest):
        """Full SPARQL evaluation against a registered store.  Sharded
        stores evaluate on the group's coordinator-side union, loaded
        with the predicates :func:`~repro.sparql.evaluation.query_predicates`
        names (all of them when it returns ``None``); local stores
        evaluate under the store's read gate.  SELECT rows are shipped
        in canonical (sorted-JSON) order *after* solution modifiers, so
        the payload is deterministic and cache keys are deployment-
        independent.  A query may read any predicate, so it is keyed by
        (and scoped to) the whole store."""
        name, text = request.store, request.query
        store = self._store_of(name)
        sharded = isinstance(store, ShardGroup)
        gate = self._gates[name]
        key = result_key(
            "query",
            store.fingerprint(),
            json.dumps(
                [QUERY_RESULT_VERSION, normalize_text(text)],
                ensure_ascii=False,
            ),
            "query",
        )

        def fn() -> Dict[str, Any]:
            try:
                query = parse_query(text)
            except (SPARQLParseError, RecursionError) as exc:
                return {"valid": False, "reason": str(exc)}

            def run():
                if sharded:
                    union = store.union_store(query_predicates(query))
                    return Evaluator(union).evaluate(query)
                return Evaluator(store).evaluate(query)

            try:
                result = run() if sharded else gate.read(run)
            except UnsupportedFeatureError as exc:
                return {"valid": False, "reason": str(exc)}
            if query.query_type == "SELECT":
                rows = [
                    {
                        var: _as_node(value)
                        for var, value in solution.items()
                        if not var.startswith("_bnode_")
                    }
                    for solution in result
                ]
                rows.sort(
                    key=lambda row: json.dumps(
                        row, sort_keys=True, ensure_ascii=False
                    )
                )
                return {
                    "valid": True,
                    "kind": "select",
                    "rows": rows,
                    "count": len(rows),
                }
            if query.query_type == "ASK":
                return {
                    "valid": True,
                    "kind": "ask",
                    "boolean": bool(result),
                }
            return {
                "valid": True,
                "kind": "graph",
                "triples": sorted(list(triple) for triple in result.triples()),
            }

        return key, fn, (name, None)

    def _prepare_log(self, request: LogBatteryRequest):
        text = request.query
        # the battery fingerprint versions the record exactly as the
        # persistent log cache does: a battery change invalidates here too
        key = result_key(
            "log", battery_fingerprint(), normalize_text(text), "battery"
        )

        def fn() -> Dict[str, Any]:
            try:
                query = parse_query(text)
            except (SPARQLParseError, RecursionError) as exc:
                return {"valid": False, "record": None, "reason": str(exc)}
            return {
                "valid": True,
                "record": encode_analysis(analyze_query_fused(query)),
            }

        return key, fn, None

    def _prepare_battery(self, request: BatteryRequest):
        queries, source = request.queries, request.source
        group: Opt[ShardGroup] = None
        if request.store is not None:
            store = self._store_of(request.store)
            if isinstance(store, ShardGroup):
                group = store
            # an unsharded store has no worker processes to scatter to:
            # the battery is store-free analysis, so compute locally
        key = result_key(
            "battery",
            battery_fingerprint(),
            json.dumps([source, queries], ensure_ascii=False),
            "battery",
        )

        def fn() -> Dict[str, Any]:
            if group is not None:
                report = group.battery(source, queries)
            else:
                report = run_study(source, queries)
            return {"report": encode_report(report)}

        return key, fn, None

    # -- mutation ---------------------------------------------------------------

    async def _mutate(
        self, request: MutateRequest, deadline: Opt[float]
    ) -> Dict[str, Any]:
        name, triples = request.store, request.triples
        store = self._store_of(name)
        if isinstance(store, ShardGroup):
            raise StoreFrozenError(
                f"store {name!r} is a sharded deployment of frozen "
                f"images; re-shard to mutate"
            )
        gate = self._gates[name]

        def fn() -> Tuple[Dict[str, Any], List[str]]:
            def apply() -> List[str]:
                return [p for s, p, o in triples if store.add(s, p, o)]

            added = gate.write(apply)
            return {
                "added": len(added),
                "size": len(store),
                "fingerprint": store.fingerprint(),
            }, added

        # no single-flight key: mutations are never deduplicated.  The
        # new fingerprints already hide what the write changed; dropping
        # those entries (on completion, like a cache fill) frees their
        # slots for live answers
        outcome, _ = await self.scheduler.run(
            None,
            fn,
            deadline,
            on_result=lambda outcome: self.cache.drop(name, outcome[1]),
        )
        return outcome[0]

    # -- stats ------------------------------------------------------------------

    def _stats_payload(self) -> Dict[str, Any]:
        payload = {
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.stats(),
            "scheduler": self.scheduler.stats(),
            "stores": {
                name: {
                    "triples": len(store),
                    "fingerprint": store.fingerprint(),
                    "frozen": hasattr(store, "path")
                    or isinstance(store, ShardGroup),
                    "sharded": isinstance(store, ShardGroup),
                }
                for name, store in sorted(self.stores.items())
            },
        }
        groups = self.shard_groups
        if groups:
            payload["shards"] = {
                name: group.stats() for name, group in sorted(groups.items())
            }
        return payload


class EmbeddedService(RequestAPI):
    """The serving layer mounted in-process: the same
    :class:`ServiceCore` the TCP server fronts, behind the same caller
    API as :class:`~repro.service.client.ServiceClient` — requests go
    through identical dispatch, admission control, single-flight, and
    caching, just without a socket.  Compute results come back decoded,
    a fresh copy per request, as they would off the wire.  The instance
    belongs to the event loop it is first used on."""

    def __init__(
        self,
        stores: Opt[Dict[str, StoreSpec]] = None,
        config: Opt[ServiceConfig] = None,
    ):
        self.core = ServiceCore(stores, config)
        self._ids = itertools.count(1)

    async def request_message(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        if message.get("id") is None:
            message = {**message, "id": f"e{next(self._ids)}"}
        response = await self.core.handle(message)
        result = response.get("result")
        if isinstance(result, EncodedResult):
            # decoded per request: no caller's objects alias the cache
            response["result"] = json.loads(result)
        return response

    async def close(self) -> None:
        self.core.close()

    async def __aenter__(self) -> "EmbeddedService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class ReproServer:
    """The asyncio TCP front-end.

    One server wraps one :class:`ServiceCore`.  Each connection reads
    length-prefixed frames and handles every request as its own task —
    responses go back as each finishes (out of order; the id is the
    correlation key) under a per-connection write lock.  A client that
    disconnects mid-request costs nothing but the already-admitted
    work: the handler task finishes, its result still lands in the
    result cache, and the unsendable response is counted, not raised.
    """

    def __init__(
        self,
        stores: Opt[Dict[str, StoreSpec]] = None,
        config: Opt[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        core: Opt[ServiceCore] = None,
    ):
        self.core = core or ServiceCore(stores, config)
        self.host = host
        self.port = port
        self._server: Opt[asyncio.base_events.Server] = None
        self._health_task: Opt[asyncio.Task] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound (host, port) — useful with ``port=0``."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self.address[1]
        interval = self.core.config.health_check_interval
        if interval and self.core.shard_groups:
            self._health_task = asyncio.ensure_future(
                self._health_loop(interval)
            )
        return self

    async def _health_loop(self, interval: float) -> None:
        """Periodic shard lifecycle management: ping every worker
        attachment and respawn dead ones, off-loop so a hung worker
        never stalls serving."""
        while True:
            await asyncio.sleep(interval)
            for group in self.core.shard_groups.values():
                try:
                    await asyncio.to_thread(group.check_health)
                except Exception:
                    # health checking is best-effort; the per-request
                    # failover path still covers whatever it missed
                    continue

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except (asyncio.CancelledError, Exception):
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.core.close()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.core.metrics.connections += 1
        write_lock = asyncio.Lock()
        tasks: set = set()

        async def respond(message: Dict[str, Any]) -> None:
            response = await self.core.handle(message)
            try:
                frame = encode_frame(response)
            except ProtocolError as exc:  # the answer outgrew the frame bound
                self.core.metrics.responses_too_large += 1
                failure = error_response(response.get("id"), ResponseTooLarge.code, str(exc))
                frame = encode_frame({**failure, "v": WIRE_VERSION})
            try:
                async with write_lock:
                    writer.write(frame)
                    await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # peer left before its answer; the work is done and
                # cached, only the delivery failed
                self.core.metrics.disconnects += 1

        try:
            while True:
                try:
                    message = await read_frame(
                        reader, self.core.config.max_frame_bytes
                    )
                except ServiceError:
                    self.core.metrics.protocol_errors += 1
                    break
                except ConnectionError:
                    self.core.metrics.protocol_errors += 1
                    break
                if message is None:
                    break
                task = asyncio.ensure_future(respond(message))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                # the peer left while requests were still in flight:
                # finish the admitted work anyway (its results populate
                # the cache) and count the unread answers
                self.core.metrics.disconnects += 1
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            # close without awaiting the transport: the handler task may
            # itself be cancelled at loop teardown, and the transport
            # cleans up on its own
            writer.close()


async def serve(
    stores: Opt[Dict[str, StoreSpec]] = None,
    config: Opt[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ReproServer:
    """Start a server and return it (mostly for the CLI and benchmarks)."""
    return await ReproServer(stores, config, host, port).start()


#: what :func:`open_service` accepts: a store registry (embedded), a
#: ``"host:port"`` string, or a ``(host, port)`` pair (TCP)
ServiceTarget = Union[Dict[str, StoreSpec], str, Tuple[str, int]]


async def open_service(
    target: ServiceTarget,
    *,
    config: Opt[ServiceConfig] = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> RequestAPI:
    """One construction path for every deployment shape.

    * a dict of stores/images/shard directories mounts an
      :class:`EmbeddedService` (``config`` tunes it);
    * a ``"host:port"`` string or ``(host, port)`` tuple connects a
      :class:`~repro.service.client.ServiceClient` over TCP
      (``max_frame_bytes`` bounds its frames; ``config`` does not apply
      — the server owns its own).

    Both results implement :class:`~repro.service.client.RequestAPI`,
    so calling code is deployment-agnostic.  ``EmbeddedService(...)``
    and ``connect(...)`` remain as thin entry points over the same two
    shapes.
    """
    if isinstance(target, dict):
        return EmbeddedService(target, config)
    if isinstance(target, str):
        host, separator, port_text = target.rpartition(":")
        if not separator or not host or not port_text.isdigit():
            raise ValueError(
                f"a TCP target must look like 'host:port', got {target!r}"
            )
        return await connect(host, int(port_text), max_frame_bytes)
    if isinstance(target, tuple) and len(target) == 2:
        host, port = target
        return await connect(host, int(port), max_frame_bytes)
    raise TypeError(
        f"open_service expects a store dict, 'host:port', or (host, port), "
        f"not {type(target).__name__}"
    )
