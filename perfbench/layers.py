"""Which program names the traced run wraps, and how spans become the
per-layer metrics.

Every wrapper sits on the name the caller looks up at call time (see
``spans.py``).  ``predictions.json`` lists, per workload, the spans that
must record at least one call; a zero there means a wrapper sat on the
wrong binding, and the traced run fails.
"""

from __future__ import annotations

import contextvars
import json
import time
from pathlib import Path
from typing import Dict, Iterable, List

from spans import Patcher, Recorder

PREDICTIONS = json.loads((Path(__file__).parent / "predictions.json").read_text())


def _wrap(rec: Recorder, name: str, **kwargs):
    return lambda fn: rec.wrap(name, fn, **kwargs)


def install_compile(patcher: Patcher, rec: Recorder) -> None:
    """Schema compilation: DTD/EDTD to NFTA and BonXai via ``compile_schema``."""
    from repro.trees import automata

    for attr in ("from_dtd", "from_edtd"):
        patcher.patch(automata.TreeAutomaton, attr, _wrap(rec, "automata.compile"))
    patcher.patch(automata, "compile_schema", _wrap(rec, "automata.compile"))


def install_server_setup(patcher: Patcher, rec: Recorder) -> None:
    """Set-up work inside the server process: sharding, image attach,
    schema compilation."""
    from repro.service import shard
    from repro.store import mmapstore

    patcher.patch(shard, "shard_store", _wrap(rec, "shard.shard_store"))
    # ShardGroup._shard_mapped imports ``attach`` at call time
    patcher.patch(mmapstore, "attach", _wrap(rec, "mmapstore.load"))
    install_compile(patcher, rec)


class _JsonCodec:
    """Stand-in for the ``json`` module as ``repro.service.protocol``
    sees it: frame encode/decode become ``protocol.codec`` spans and
    their text lengths are counted."""

    def __init__(self, real, rec: Recorder):
        self._real, self._rec = real, rec
        self.JSONDecodeError = real.JSONDecodeError

    def loads(self, text, *args, **kwargs):
        with self._rec.span("protocol.codec"):
            value = self._real.loads(text, *args, **kwargs)
        self._rec.counters["protocol.bytes"] += len(text)
        return value

    def dumps(self, obj, *args, **kwargs):
        with self._rec.span("protocol.codec"):
            text = self._real.dumps(obj, *args, **kwargs)
        self._rec.counters["protocol.bytes"] += len(text)
        return text


def _traced_scheduler_run(run, rec: Recorder):
    """``Scheduler.run`` with its queue wait and its pool execution as
    child spans.  The pool thread runs inside a copy of the request's
    context, so spans recorded there keep their parent."""

    async def traced(self, key, fn, deadline=None, on_result=None):
        opened = rec.begin()
        started = time.perf_counter()
        context = contextvars.copy_context()

        def execute():
            rec.add("scheduler.queue", started, time.perf_counter())
            with rec.span("scheduler.exec"):
                return fn()

        try:
            result = await run(self, key, lambda: context.run(execute), deadline, on_result)
        finally:
            rec.end("scheduler.run", started, opened)
        if result[1]:
            rec.counters["scheduler.coalesced"] += 1
        return result

    return traced


def install_server_ops(patcher: Patcher, rec: Recorder) -> None:
    """The request path inside the server process."""
    from repro.service import protocol, resultcache, scheduler, server, shard
    from repro.sparql import evaluation, parser

    patcher.patch(
        server.ServiceCore,
        "handle",
        _wrap(rec, "server.handle", op_of=lambda self, message: message.get("id")),
    )
    patcher.patch(protocol, "json", lambda real: _JsonCodec(real, rec))
    patcher.patch(protocol.Request, "parse", _wrap(rec, "protocol.parse"))
    patcher.patch(scheduler.Scheduler, "run", lambda run: _traced_scheduler_run(run, rec))
    patcher.patch(resultcache.ResultCache, "get", _wrap(rec, "resultcache.get"))
    # bound into repro.service.server at import
    patcher.patch(server, "parse_regex", _wrap(rec, "regex.parse"))
    for name in ("evaluate_rpq", "exists_simple_path", "exists_trail"):
        patcher.patch(server, name, _wrap(rec, "engine.rpq"))
    patcher.patch(server, "parse_query", _wrap(rec, "parser.parse"))
    patcher.patch(server, "analyze_query_fused", _wrap(rec, "battery.analyze"))
    patcher.patch(parser, "_tokenize", _wrap(rec, "parser.tokenize"))
    patcher.patch(evaluation.Evaluator, "evaluate", _wrap(rec, "evaluation.query"))
    for name in ("evaluate_walk", "exists", "battery", "node_names"):
        patcher.patch(shard.ShardGroup, name, _wrap(rec, "shard.coordinator"))
    for name in ("scatter", "call_shard"):
        patcher.patch(shard.ShardGroup, name, _wrap(rec, "shard.wait"))
    # the pipelined frontier exchange waits on worker futures directly
    patcher.patch(shard, "wait", _wrap(rec, "shard.wait"))


def install_study_log(patcher: Patcher, rec: Recorder) -> None:
    from repro.logs import pipeline
    from repro.sparql import parser

    patcher.patch(pipeline, "parse_query", _wrap(rec, "parser.parse"))
    patcher.patch(pipeline, "analyze_query_fused", _wrap(rec, "battery.analyze"))
    patcher.patch(parser, "_tokenize", _wrap(rec, "parser.tokenize"))


def install_study_stream(patcher: Patcher, rec: Recorder) -> None:
    from repro.trees import automata, chunked, streaming

    patcher.patch(chunked.ChunkFeeder, "refill", _wrap(rec, "chunked.refill"))
    patcher.patch(streaming, "validate_stream", _wrap(rec, "streaming.dtd_validate"))
    patcher.patch(automata.TreeAutomaton, "included_in", _wrap(rec, "automata.inclusion"))


def coverage_failures(workload: str, calls: Dict[str, int]) -> List[str]:
    """Predicted spans of ``workload`` that recorded no call."""
    return [name for name in PREDICTIONS["spans"][workload] if not calls.get(name)]


Tables = Dict[str, Dict[str, float]]


def mean_ms(tables: Tables, name: str) -> float:
    """Per-call mean duration of a span, in ms (0 when it never ran)."""
    calls = tables["calls"].get(name, 0)
    return tables["total"][name] / calls * 1000.0 if calls else 0.0


def per_op_ms(tables: Tables, names: Iterable[str], ops: int, table: str = "total") -> float:
    """Summed ``table`` time of ``names`` per op, in ms.  ``table`` is
    ``total``, ``self`` (minus child spans) or ``outer`` (minus nesting
    under a span of the same name)."""
    values = tables[table]
    return sum(values.get(name, 0.0) for name in names) / ops * 1000.0 if ops else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
