"""The serve workloads: a TCP ``ReproServer`` in its own process, driven
by two closed-loop callers (two connections) from this process.

* ``serve-mix``: in-memory store, result cache on.  The op mix covers
  every wire op in equal shares; keys come from skewed popularity pools
  plus fresh keys, so about half the requests hit the cache, and every
  100th op is a ``mutate`` adding one fresh edge (a stationary 1% write
  share that invalidates the store's cached entries).
* ``serve-sharded``: the same server over a two-shard deployment with
  the result cache off, so every op runs engines and the shard tier.

Answers are checked outside the timed window: serve-mix against direct
(reference) library calls, store-reading answers on a mirror store
replayed to the writes each answer saw; serve-sharded against the
in-memory deployment.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import inputs
import layers
from measure import (OpLog, Unsupported, at_reference, child_pids, median, peak_rss_kb, per_op,
                     reset_peak_rss, speed_scale)
from server_main import MIX_NODES, SHARD_NODES, store_triples

HERE = Path(__file__).resolve().parent
CALLERS = 2
WARMUP_OPS = {"serve-mix": 1500, "serve-sharded": 150}
SETUP_REPS = {"serve-mix": 15, "serve-sharded": 15}
#: ops pre-generated for the timed window (cycled if a run outpaces them)
WINDOW_OPS = 30000
MUTATE_EVERY = 100
#: serve-mix op shares: the five read ops (rpq, query, sparql, log,
#: validate) split the non-write traffic equally, and rpq's fifth is split
#: equally over its three forms (walk, walk from sources, simple/trail).
#: No traffic trace exists to take weights from, so the shares are
#: arbitrary, not representative.
MIX_KINDS = ("walk", "walk-sources", "path", "query", "sparql", "log", "validate")
MIX_SHARES = (1 / 15, 1 / 15, 1 / 15, 1 / 5, 1 / 5, 1 / 5, 1 / 5)
#: serve-sharded op shares, equal for the same reason
SHARD_KINDS = ("exchange-walk", "owner-walk", "query", "path", "battery")
#: share of store-free serve-mix requests drawn from the popularity
#: pools (the rest are fresh keys).  Tuned, with the Zipf exponents below
#: (arbitrary, near 1), so that about half the requests hit the cache.
HOT_SHARE = 0.9
#: Zipf exponents of the expression, text and document pools, and of
#: node popularity
KEY_SKEW = 1.1
NODE_SKEW = 0.9
#: store-reading answers checked against the mirror store of their
#: write epoch, and keys re-asked on the final store
VERIFY_EPOCH_SAMPLE = 160
VERIFY_FINAL_SAMPLE = 40
#: store-free answers checked against the library
VERIFY_SAMPLE = 240
#: answers of every KEEP_EVERY-th op are kept for verification (keeping
#: all of them costs hundreds of MB on long runs)
KEEP_EVERY = 8


class Zipf:
    """Seeded skewed choice over ``n`` ranks (rank 0 most popular)."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total, self.cumulative = 0.0, []
        for weight in weights:
            total += weight
            self.cumulative.append(total)

    def pick(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cumulative, rng.random() * self.cumulative[-1])


# -- op streams ---------------------------------------------------------------------


class MixPools:
    """The popularity pools of serve-mix, shared by warm-up and window."""

    def __init__(self, seed: int):
        from repro.logs.corpus import normalize_text

        self.rng = random.Random(seed)
        self.relations = inputs.mix_relations()
        self.walks = inputs.walk_expressions()
        self.paths = inputs.path_expressions()
        texts, seen = [], set()
        for text in inputs.log_texts(seed, 12000):
            key = normalize_text(text)
            if key not in seen:
                seen.add(key)
                texts.append(text)
        self.hot_texts, self.fresh_texts = texts[:120], iter(texts[120:])
        self.kinds = sorted(inputs.SCHEMAS)
        self.hot_docs = [self._doc() for _ in range(40)]
        self.walk_zipf = Zipf(len(self.walks), KEY_SKEW)
        self.path_zipf = Zipf(len(self.paths), KEY_SKEW)
        self.node_zipf = Zipf(MIX_NODES, NODE_SKEW)
        self.text_zipf = Zipf(len(self.hot_texts), KEY_SKEW)
        self.doc_zipf = Zipf(len(self.hot_docs), KEY_SKEW)

    def _doc(self):
        kind = self.kinds[self.rng.randrange(3)]
        invalid = self.rng.random() < 0.3
        return kind, inputs.document(self.rng, kind, self.rng.randrange(1, 4), invalid)

    def node(self) -> str:
        return f"n{self.node_zipf.pick(self.rng)}"

    def op(self, fresh_node: int) -> Tuple[str, Dict]:
        rng = self.rng
        if fresh_node is not None:
            relation = rng.choice(self.relations)
            target = self.node()
            return "mutate", {
                "store": "g",
                "triples": [
                    [f"n{fresh_node}", relation, target],
                    [inputs.iri(f"n{fresh_node}"), inputs.iri(relation), inputs.iri(target)],
                ],
            }
        kind = rng.choices(MIX_KINDS, MIX_SHARES)[0]
        if kind == "walk":
            return "rpq", {"store": "g", "expr": self.walks[self.walk_zipf.pick(rng)]}
        if kind == "walk-sources":
            sources = sorted({f"n{rng.randrange(MIX_NODES)}" for _ in range(rng.randrange(1, 4))})
            return "rpq", {"store": "g", "expr": self.walks[self.walk_zipf.pick(rng)], "sources": sources}
        if kind == "path":
            return "rpq", {
                "store": "g",
                "expr": self.paths[self.path_zipf.pick(rng)],
                "semantics": rng.choice(("simple", "trail")),
                "source": self.node(),
                "target": self.node(),
            }
        if kind == "query":
            template = inputs.QUERY_TEMPLATES[rng.randrange(len(inputs.QUERY_TEMPLATES))]
            a, b = rng.choice(self.relations), rng.choice(self.relations)
            text = template.format(i=self.node()[1:], j=self.node()[1:], a=a, b=b)
            return "query", {"store": "g", "query": text}
        if kind in ("sparql", "log"):
            if rng.random() < HOT_SHARE:
                text = self.hot_texts[self.text_zipf.pick(rng)]
            else:
                text = next(self.fresh_texts, None) or self.hot_texts[0]
            return kind, {"query": text}
        doc_kind, doc = self.hot_docs[self.doc_zipf.pick(rng)] if rng.random() < HOT_SHARE else self._doc()
        spec = inputs.SCHEMAS[doc_kind]
        params = {"schema_kind": spec["schema_kind"], "rules": spec["rules"],
                  "document": doc, "format": spec["format"]}
        for field in ("start", "mu"):
            if field in spec:
                params[field] = spec[field]
        return "validate", params

    def stream(self, count: int, fresh_base: int) -> List[Tuple[str, Dict]]:
        ops = []
        for index in range(count):
            mutate = index % MUTATE_EVERY == MUTATE_EVERY - 1
            ops.append(self.op(fresh_base + index if mutate else None))
        return ops


class ShardPools:
    """The serve-sharded op mix over a two-shard predicate split."""

    def __init__(self, seed: int):
        from repro.service.shard import ShardRing

        self.rng = random.Random(seed)
        ring = ShardRing(2)
        owned = {0: [], 1: []}
        for relation in inputs.shard_relations():
            owned[ring.shard_of(relation)].append(relation)
        if not owned[0] or not owned[1]:
            raise Unsupported("the shard ring put every relation on one shard")
        self.owned = owned
        self.texts = inputs.log_texts(seed, 400)

    def node(self) -> str:
        return f"n{int(self.rng.random() ** 2 * SHARD_NODES)}"

    def op(self) -> Tuple[str, Dict]:
        rng = self.rng
        kind = rng.choice(SHARD_KINDS)
        a, b = rng.choice(self.owned[0]), rng.choice(self.owned[1])
        if rng.random() < 0.5:
            a, b = b, a
        if kind == "exchange-walk":
            template = rng.choice(("{a} {b}", "{a}* {b}", "({a} | {b}) {a}", "{a} ^{b}"))
            sources = sorted({self.node() for _ in range(rng.randrange(1, 5))})
            return "rpq", {"store": "g", "expr": template.format(a=a, b=b), "sources": sources}
        if kind == "owner-walk":
            template = rng.choice(("{a} {a}*", "{a}* {a}", "{a} {a} {a}?", "{a} ^{a}"))
            return "rpq", {"store": "g", "expr": template.format(a=a)}
        if kind == "query":
            template = inputs.QUERY_TEMPLATES[rng.randrange(len(inputs.QUERY_TEMPLATES))]
            text = template.format(i=self.node()[1:], j=self.node()[1:], a=a, b=b)
            return "query", {"store": "g", "query": text}
        if kind == "path":
            return "rpq", {
                "store": "g",
                "expr": rng.choice(("{a} {b}", "{a} ^{b}")).format(a=a, b=b),
                "semantics": rng.choice(("simple", "trail")),
                "source": self.node(),
                "target": self.node(),
            }
        return "battery", {"store": "g", "source": "bench", "queries": rng.sample(self.texts, 12)}

    def stream(self, count: int, fresh_base: int) -> List[Tuple[str, Dict]]:
        return [self.op() for _ in range(count)]


# -- the server process ------------------------------------------------------------------


class ServerProcess:
    def __init__(self, workload: str, seed: int, out: Path, trace: int):
        out.mkdir(parents=True, exist_ok=True)
        self.stderr = open(out / "server.stderr", "w")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, start_new_session=True, env=env,
        )
        try:
            self.read(timeout=120)
        except BaseException:
            self.close()
            raise

    def set_up(self, reps: int) -> Dict:
        """The program's set-up, ``reps`` times (the last server keeps
        running): its port and each set-up's time at the reference speed
        and on the wall."""
        scaled, walls = [], []
        for _ in range(reps):
            before = speed_scale()
            answer = self.command("setup")
            scaled.append(at_reference(answer["seconds"], before, speed_scale()))
            walls.append(answer["seconds"])
        return {"port": answer["port"], "setup_reps_s": scaled, "setup_wall_s": walls}

    def read(self, timeout: float = 60) -> Dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server process gave no answer (exit code {self.proc.poll()}); "
                f"see {self.stderr.name}"
            )
        return json.loads(line)

    def command(self, cmd: str) -> Dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def pids(self) -> List[int]:
        """The server and its shard workers."""
        return [self.proc.pid] + child_pids(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Server plus shard workers, summed."""
        return sum(peak_rss_kb(pid) for pid in self.pids()) / 1024.0

    def close(self) -> None:
        """Stop the server and wait until it and every worker it forked
        have ended."""
        try:
            if self.proc.poll() is None:
                try:
                    self.command("stop")
                except (OSError, RuntimeError, ValueError):
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    self.proc.wait(timeout=30)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                os.killpg(self.proc.pid, signal.SIGKILL)
        finally:
            self.stderr.close()


# -- driving -----------------------------------------------------------------------------


class Writes:
    """The write order of a run, shared by all its windows: ``applied``
    holds the params of each ``mutate`` that answered ok, in answer
    order; ``sent`` and ``answered`` count every mutate."""

    def __init__(self) -> None:
        self.applied: List[Dict] = []
        self.sent = 0
        self.answered = 0


class Window:
    """Responses and latencies of one closed-loop window."""

    def __init__(self, seconds: float = math.inf):
        self.log = OpLog(seconds)
        #: (op index, op, params, response or None when not kept, epoch):
        #: the epoch is the number of applied writes the answer must
        #: reflect, or None when a write was in flight meanwhile
        self.responses: List[Tuple[int, str, Dict, Dict, int]] = []
        self.latency_by_id: Dict[str, float] = {}
        self.errors: Dict[str, int] = {}


async def drive(clients, ops, start: int, window: Window, writes: Writes, prefix: str,
                count: int = None) -> int:
    """Closed loop: each caller sends its next op once the previous one
    answered, until the window is complete (or ``count`` ops were sent).
    Returns the next op index."""
    cursor = [start]
    log = window.log

    def more() -> bool:
        return log.running() if count is None else cursor[0] < start + count

    # the speed probe runs while no op is in flight, so it has the core
    # (the server and its workers are pinned to the same CPU) to itself
    calm = asyncio.Condition()
    state = {"in_flight": 0, "probing": False}

    async def admit() -> bool:
        async with calm:
            await calm.wait_for(lambda: not state["probing"])
            if log.probe_due():
                state["probing"] = True
                await calm.wait_for(lambda: state["in_flight"] == 0)
                log.probe()
                state["probing"] = False
                calm.notify_all()
            if not more():
                return False
            state["in_flight"] += 1
            return True

    async def release() -> None:
        async with calm:
            state["in_flight"] -= 1
            calm.notify_all()

    async def caller(client):
        while await admit():
            index = cursor[0]
            cursor[0] += 1
            op, params = ops[index % len(ops)]
            message = {"v": 2, "op": op, "params": params, "id": f"{prefix}{index}"}
            answered, applied = writes.answered, len(writes.applied)
            if op == "mutate":
                writes.sent += 1
            sent = time.perf_counter()
            response = await client.request_message(message)
            done = time.perf_counter()
            await release()
            ok = response.get("ok", False)
            log.record(done, done - sent, ok)
            if ok:
                window.latency_by_id[message["id"]] = done - sent
            else:
                code = response.get("error", {}).get("code", "?")
                window.errors[code] = window.errors.get(code, 0) + 1
            epoch = None
            if op == "mutate":
                writes.answered += 1
                if ok:
                    writes.applied.append(params)
            elif writes.sent == answered:
                # no write was in flight when this op was sent, and none
                # was sent before it answered: it saw exactly the writes
                # applied by then
                epoch = applied
            kept = index % KEEP_EVERY == 0
            window.responses.append((index, op, params, response if kept else None, epoch))

    await asyncio.gather(*(caller(client) for client in clients))
    log.finish()
    return cursor[0]


# -- verification --------------------------------------------------------------------------


def _key(op: str, params: Dict) -> str:
    return json.dumps([op, params], sort_keys=True)


def _store_free_ok(op: str, params: Dict, result: Dict) -> bool:
    """A ``validate``, ``sparql`` or ``log`` answer against the library:
    ``EDTD.validate`` for documents, ``bench_service.expected_of`` (the
    parser, serializer and analysis battery) for queries."""
    if op == "validate":
        kind = next(k for k, s in inputs.SCHEMAS.items() if s["schema_kind"] == params["schema_kind"])
        return result.get("valid") == inputs.reference_verdict(kind, params["document"])
    try:
        expected = inputs.bench_module("bench_service").expected_of(None, op, params)
    except RecursionError:
        return result.get("valid") is False
    if not expected["valid"]:
        return result.get("valid") is False
    field = "canonical" if op == "sparql" else "record"
    return result.get("valid") is True and result.get(field) == expected[field]


def _expected_store(store, op: str, params: Dict):
    """Reference (uncompiled) library answers for store-reading ops."""
    from repro.graphs.paths import (
        evaluate_rpq_reference,
        exists_simple_path_reference,
        exists_trail_reference,
    )
    from repro.regex.parser import parse as parse_regex
    from repro.sparql.evaluation import Evaluator
    from repro.sparql.parser import parse_query

    if op == "rpq":
        expr = parse_regex(params["expr"], multi_char=True)
        semantics = params.get("semantics", "walk")
        if semantics == "walk":
            pairs = evaluate_rpq_reference(store, expr, params.get("sources"), params.get("targets"))
            return {"semantics": "walk", "pairs": sorted(list(p) for p in pairs), "count": len(pairs)}
        decide = exists_simple_path_reference if semantics == "simple" else exists_trail_reference
        return {"semantics": semantics, "exists": bool(decide(store, expr, params["source"], params["target"]))}
    query = parse_query(params["query"])
    result = Evaluator(store).evaluate(query)
    if query.query_type == "ASK":
        return {"valid": True, "kind": "ask", "boolean": bool(result)}
    rows = sorted(json.dumps(row, sort_keys=True) for row in result)
    return {"valid": True, "kind": "select", "rows": rows, "count": len(rows)}


def _matches(expected: Dict, result: Dict) -> bool:
    got = dict(result)
    if "rows" in expected:
        got["rows"] = sorted(json.dumps(row, sort_keys=True) for row in result["rows"])
    return all(got.get(field) == value for field, value in expected.items())


async def verify_mix(client, windows, triples, writes: Writes) -> Tuple[List[str], Dict[str, int]]:
    """serve-mix against reference library calls:

    * a sample of the kept store-free answers;
    * a sample of the kept ``rpq``/``query`` answers, each against a
      mirror of the store replayed to its write epoch (answers given
      while a write was in flight are skipped: their epoch is unknown);
    * a sample of the store-reading keys re-asked on the final store.

    Returns the problems and how many answers each check covered.
    """
    from repro.graphs.rdf import TripleStore

    problems: List[str] = []
    rng = random.Random(0)
    kept = [
        (epoch, op, params, response["result"])
        for window in windows
        for _, op, params, response, epoch in window.responses
        if response is not None and response.get("ok") and op != "mutate"
    ]
    store_free = [row for row in kept if row[1] not in ("rpq", "query")]
    for _, op, params, result in rng.sample(store_free, min(len(store_free), VERIFY_SAMPLE)):
        if not _store_free_ok(op, params, result):
            problems.append(f"{op} answer differs from the library: {_key(op, params)[:120]}")

    mirror = TripleStore()
    for s, p, o in triples:
        mirror.add(s, p, o)
    applied = 0

    def replay(epoch: int) -> None:
        nonlocal applied
        for params in writes.applied[applied:epoch]:
            for s, p, o in params["triples"]:
                mirror.add(s, p, o)
        applied = max(applied, epoch)

    reading = [row for row in kept if row[1] in ("rpq", "query") and row[0] is not None]
    sample = sorted(rng.sample(reading, min(len(reading), VERIFY_EPOCH_SAMPLE)), key=lambda row: row[0])
    for epoch, op, params, result in sample:
        replay(epoch)
        if not _matches(_expected_store(mirror, op, params), result):
            problems.append(f"{op} answer differs from the library at write epoch {epoch}: "
                            f"{_key(op, params)[:120]}")
    replay(len(writes.applied))
    keys = sorted({_key(op, params) for _, op, params, _ in kept if op in ("rpq", "query")})
    for key in rng.sample(keys, min(len(keys), VERIFY_FINAL_SAMPLE)):
        op, params = json.loads(key)
        response = await client.request_message({"v": 2, "op": op, "params": params, "id": "verify"})
        if not response.get("ok") or not _matches(_expected_store(mirror, op, params), response["result"]):
            problems.append(f"{op} answer differs from the library on the final store: {key[:120]}")
    checked = {"store_free": min(len(store_free), VERIFY_SAMPLE), "at_epoch": len(sample),
               "final_store": min(len(keys), VERIFY_FINAL_SAMPLE), "writes": len(writes.applied)}
    return problems, checked


async def verify_sharded(windows, triples) -> Tuple[List[str], Dict[str, int]]:
    """serve-sharded: sampled answers against the in-memory deployment."""
    from repro.graphs.rdf import TripleStore
    from repro.service import EmbeddedService, ServiceConfig

    store = TripleStore()
    for s, p, o in triples:
        store.add(s, p, o)
    recorded = [
        (op, params, response["result"])
        for window in windows
        for _, op, params, response, _ in window.responses
        if response is not None and response.get("ok")
    ]
    sample = random.Random(0).sample(recorded, min(len(recorded), VERIFY_SAMPLE))
    problems: List[str] = []
    async with EmbeddedService({"g": store}, ServiceConfig(cache_entries=0)) as memory:
        for op, params, result in sample:
            response = await memory.request(op, params)
            if response.get("result") != result:
                problems.append(f"sharded {op} differs from the in-memory deployment: {_key(op, params)[:120]}")
    return problems, {"in_memory": len(sample)}


# -- the workload ----------------------------------------------------------------------------


def _layer_metrics(report, before, after, traced: Window, untraced: Window) -> Dict[str, float]:
    tables = report["tables"]
    ops = sum(1 for span_op in report["handle_by_op"] if span_op.startswith("t"))
    counters = report["counters"]
    cache_before, cache_after = before["cache"], after["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    metrics = {
        "protocol.codec_ms": layers.per_op_ms(tables, ("protocol.codec", "protocol.parse"), ops),
        "protocol.bytes_per_op": per_op(counters.get("protocol.bytes", 0.0), ops),
        "server.handle_self_ms": layers.per_op_ms(tables, ("server.handle",), ops, "self"),
        "scheduler.queue_wait_ms": layers.per_op_ms(tables, ("scheduler.queue",), ops),
        "scheduler.coalesced": counters.get("scheduler.coalesced", 0.0),
        "resultcache.hit_ratio": layers.ratio(hits, hits + misses),
        "resultcache.evictions": cache_after["evictions"] - cache_before["evictions"],
        "regex.parse_ms": layers.per_op_ms(tables, ("regex.parse",), ops),
        "engine.rpq_ms": layers.per_op_ms(tables, ("engine.rpq",), ops),
        "engine.plan_hit_ratio": layers.ratio(report["plan_hits"], report["plan_hits"] + report["plan_misses"]),
        "evaluation.query_ms": layers.per_op_ms(tables, ("evaluation.query",), ops),
        "parser.tokenize_ms": layers.per_op_ms(tables, ("parser.tokenize",), ops),
        "parser.parse_ms": layers.per_op_ms(tables, ("parser.parse",), ops, "self"),
        "battery.analyze_ms": layers.per_op_ms(tables, ("battery.analyze",), ops),
        "shard.coordinator_self_ms": layers.per_op_ms(tables, ("shard.coordinator",), ops, "self"),
        "shard.worker_wait_ms": layers.per_op_ms(tables, ("shard.wait",), ops, "outer"),
        "mmapstore.load_ms": layers.mean_ms(tables, "mmapstore.load"),
        "shard.shard_store_s": layers.mean_ms(tables, "shard.shard_store") / 1000.0,
        "automata.compile_ms": layers.mean_ms(tables, "automata.compile"),
    }
    shards_before, shards_after = before.get("shards", {}).get("g"), after.get("shards", {}).get("g")
    if shards_before:
        delta = {k: shards_after[k] - shards_before[k] for k in
                 ("rounds", "scatter_bytes", "gather_bytes", "pruned_entries", "scattered_entries")}
        metrics.update({
            "shard.rounds_per_op": per_op(delta["rounds"], ops),
            "shard.scatter_bytes_per_op": per_op(delta["scatter_bytes"], ops),
            "shard.gather_bytes_per_op": per_op(delta["gather_bytes"], ops),
            "shard.pruned_ratio": layers.ratio(
                delta["pruned_entries"], delta["pruned_entries"] + delta["scattered_entries"]),
        })
    gaps = [
        traced.latency_by_id[op_id] - handled
        for op_id, handled in report["handle_by_op"].items()
        if op_id in traced.latency_by_id
    ]
    metrics["trace.unattributed_ms"] = per_op(sum(gaps), len(gaps)) * 1000.0
    metrics["trace.overhead_ratio"] = layers.ratio(traced.log.throughput, untraced.log.throughput)
    return metrics


def run(workload: str, seed: int, seconds: int, trace: int, out: Path) -> Dict:
    from repro.service import connect

    pools = MixPools(seed) if workload == "serve-mix" else ShardPools(seed)
    nodes = MIX_NODES if workload == "serve-mix" else SHARD_NODES
    warmup = pools.stream(WARMUP_OPS[workload], fresh_base=nodes + 10 * WINDOW_OPS)
    ops = pools.stream(WINDOW_OPS, fresh_base=nodes)
    triples = store_triples(workload, seed)
    server = ServerProcess(workload, seed, out, trace)
    try:
        ready = server.set_up(SETUP_REPS[workload])
        result: Dict = {"setup_reps_s": ready["setup_reps_s"], "setup_wall_s": ready["setup_wall_s"]}

        async def session():
            clients = [await connect("127.0.0.1", ready["port"]) for _ in range(CALLERS)]
            try:
                writes = Writes()
                warm = Window()
                started = time.perf_counter()
                await drive(clients, warmup, 0, warm, writes, "u", count=len(warmup))
                result["warmup_s"] = time.perf_counter() - started
                windows = [warm]
                if trace:
                    server.command("setup_trace_off")
                    reset_peak_rss(server.pids())
                    untraced = Window(seconds / 2)
                    cursor = await drive(clients, ops, 0, untraced, writes, "w")
                    before = await clients[0].stats()
                    server.command("trace_on")
                    traced = Window(seconds / 2)
                    await drive(clients, ops, cursor, traced, writes, "t")
                    server.command("trace_off")
                    after = await clients[0].stats()
                    traced.log.rss_mb = server.peak_rss_mb()
                    report = server.command("report")
                    windows += [untraced, traced]
                    result["layers"] = _layer_metrics(report, before, after, traced, untraced)
                    result["calls"] = report["tables"]["calls"]
                    result["log"] = traced.log
                    result["coverage_missing"] = layers.coverage_failures(workload, result["calls"])
                else:
                    reset_peak_rss(server.pids())
                    window = Window(seconds)
                    await drive(clients, ops, 0, window, writes, "w")
                    window.log.rss_mb = server.peak_rss_mb()
                    result["log"] = window.log
                    windows.append(window)
                result["errors"] = {}
                for window in windows:
                    for code, count in window.errors.items():
                        result["errors"][code] = result["errors"].get(code, 0) + count
                result["cycled"] = any(i >= len(ops) for w in windows[1:] for i, *_ in w.responses)
                if workload == "serve-mix":
                    checked = await verify_mix(clients[0], windows, triples, writes)
                else:
                    checked = await verify_sharded(windows, triples)
                result["problems"], result["verified"] = checked
            finally:
                for client in clients:
                    await client.close()

        asyncio.run(session())
    finally:
        server.close()
    result["setup_s"] = median(result["setup_reps_s"])
    return result
