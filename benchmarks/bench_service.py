"""The query-serving layer under a mixed workload, over real sockets.

Three phases against one `ReproServer` (TCP loopback, multiplexing
`ServiceClient`):

* ``cold``     — a mixed workload (RPQ evaluation / SPARQL analysis /
  log-battery records) of all-distinct queries: every request is an
  engine execution.  A sample is oracle-verified against direct
  library calls.
* ``warm``     — the same requests again, shuffled: every answer comes
  from the result cache, and every payload must be byte-identical to
  its cold-phase twin.  The ``warm / cold`` throughput ratio is the
  headline gate (>= 3x).
* ``overload`` — a burst of distinct RPQ requests against a deliberately
  tiny admission queue: the server must shed with typed
  ``ServiceOverloaded`` errors while every *accepted* request returns
  an answer equal to the direct engine's.

Latency is measured per request at the client (so it includes framing,
the socket, and scheduling), aggregated to p50/p95/p99.  Results land
in ``benchmarks/results/service.json``.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_service.py

(scale with ``REPRO_BENCH_SERVICE_REQUESTS`` /
``REPRO_BENCH_SERVICE_CONCURRENCY``; CI runs a reduced smoke scale) or
via pytest, which also enforces the gates at full scale.
"""

import asyncio
import itertools
import json
import os
import pathlib
import random
import tempfile
import time

from repro.core.parallelism import usable_cpus
from repro.errors import ServiceOverloaded, SPARQLParseError
from repro.graphs.paths import evaluate_rpq
from repro.graphs.rdf import TripleStore
from repro.logs.analyzer import encode_analysis
from repro.logs.corpus import normalize_text
from repro.logs.workload import DBPEDIA, generate_source_log
from repro.regex.parser import parse as parse_regex
from repro.service import ReproServer, ServiceConfig, connect
from repro.service.shard import shard_store
from repro.sparql.parser import parse_query
from repro.sparql.serialize import serialize_query
from repro.testing.reference import analyze_query

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "service.json"
)
SHARDED_RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "service_sharded.json"
)

REQUESTS = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "10000"))
CONCURRENCY = int(os.environ.get("REPRO_BENCH_SERVICE_CONCURRENCY", "64"))
WORKERS = int(os.environ.get("REPRO_BENCH_SERVICE_WORKERS", "4"))
NODES = int(os.environ.get("REPRO_BENCH_SERVICE_NODES", "400"))
OVERLOAD_BURST = int(os.environ.get("REPRO_BENCH_SERVICE_BURST", "200"))
SHARDS = int(os.environ.get("REPRO_BENCH_SERVICE_SHARDS", "4"))
SHARD_REQUESTS = int(
    os.environ.get("REPRO_BENCH_SERVICE_SHARD_REQUESTS", "800")
)
VERIFY_SAMPLE = 200
SEED = 2022

PREDICATES = ("knows", "likes", "cites")
TEMPLATES = (
    "{a}",
    "{a} {b}",
    "{a} | {b}",
    "{a}* {b}",
    "({a} | {b}) {c}",
    "{a} {b}? {c}",
    "({a} {b})* {c}",
    "{a} ^{b}",
)


def build_store(num_nodes: int, seed: int) -> TripleStore:
    """A preferential-attachment multigraph over single-token
    predicates (colons are not multi-char atoms in the RPQ grammar)."""
    rng = random.Random(seed)
    store = TripleStore()
    pool = [0]
    for i in range(1, num_nodes):
        for target in {rng.choice(pool), rng.choice(pool)}:
            store.add(f"n{i}", rng.choice(PREDICATES), f"n{target}")
            pool.extend((i, target))
        pool.append(i)
    return store


def expr_pool():
    """Every distinct rendered template/predicate combination."""
    seen, exprs = set(), []
    for template in TEMPLATES:
        for a, b, c in itertools.product(PREDICATES, repeat=3):
            expr = template.format(a=a, b=b, c=c)
            if expr not in seen:
                seen.add(expr)
                exprs.append(expr)
    return exprs


def build_workload(total: int):
    """``total`` all-distinct requests: 40% rpq, 30% sparql, 30% log.

    RPQ items beyond the expression pool stay distinct by rotating a
    source-node filter; SPARQL/log texts are generated and deduped on
    their normalized form, from disjoint slices.
    """
    n_rpq = (4 * total) // 10
    n_sparql = (3 * total) // 10
    n_log = total - n_rpq - n_sparql

    exprs = expr_pool()
    items = []
    for i in range(n_rpq):
        params = {"store": "g", "expr": exprs[i % len(exprs)]}
        if i >= len(exprs):
            params["sources"] = [f"n{i // len(exprs)}"]
        items.append(("rpq", params))

    needed = n_sparql + n_log
    texts, seen = [], set()
    total_generated = max(2 * needed, 64)
    while len(texts) < needed:
        for text in generate_source_log(
            DBPEDIA, total_generated, seed=SEED
        ):
            key = normalize_text(text)
            if key not in seen:
                seen.add(key)
                texts.append(text)
                if len(texts) == needed:
                    break
        total_generated *= 2
    for text in texts[:n_sparql]:
        items.append(("sparql", {"query": text}))
    for text in texts[n_sparql:needed]:
        items.append(("log", {"query": text}))

    random.Random(SEED).shuffle(items)
    return items


def expected_of(store: TripleStore, op: str, params: dict):
    """The direct-library answer for one workload item."""
    if op == "rpq":
        expr = parse_regex(params["expr"], multi_char=True)
        pairs = evaluate_rpq(
            store, expr, sources=params.get("sources")
        )
        return {
            "semantics": "walk",
            "pairs": sorted(list(p) for p in pairs),
            "count": len(pairs),
        }
    try:
        query = parse_query(params["query"])
    except SPARQLParseError as exc:
        return {"valid": False, "reason": str(exc)}
    if op == "sparql":
        return {"valid": True, "canonical": serialize_query(query)}
    return {
        "valid": True,
        "record": encode_analysis(analyze_query(query)),
    }


def check_response(store, op, params, result):
    expected = expected_of(store, op, params)
    if op == "rpq":
        assert result == expected, (op, params)
    elif not expected["valid"]:
        assert result["valid"] is False, (op, params)
    elif op == "sparql":
        assert result["canonical"] == expected["canonical"], params
    else:
        assert result["record"] == expected["record"], params


async def drive(client, items, concurrency):
    """Issue every item with bounded in-flight concurrency; return
    (responses, per-request latencies, wall seconds)."""
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(concurrency)
    latencies = [0.0] * len(items)
    responses = [None] * len(items)

    async def one(index, op, params):
        async with gate:
            started = loop.time()
            response = await client.request(op, params)
            latencies[index] = loop.time() - started
            responses[index] = response

    started = time.perf_counter()
    await asyncio.gather(
        *(one(i, op, params) for i, (op, params) in enumerate(items))
    )
    return responses, latencies, time.perf_counter() - started


def percentiles_ms(latencies):
    ordered = sorted(latencies)
    pick = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {
        "p50_ms": round(pick(0.50) * 1000, 3),
        "p95_ms": round(pick(0.95) * 1000, 3),
        "p99_ms": round(pick(0.99) * 1000, 3),
        "max_ms": round(ordered[-1] * 1000, 3),
    }


async def bench_phases(store, items):
    result = {}
    config = ServiceConfig(
        max_workers=WORKERS,
        max_queue=REQUESTS + 1,
        # hold the whole distinct set: an undersized LRU would turn the
        # warm phase into a partial re-run of the cold one
        cache_entries=len(items) + 16,
    )
    async with ReproServer({"g": store}, config) as server:
        async with await connect(*server.address) as client:
            cold, cold_lat, cold_s = await drive(
                client, items, CONCURRENCY
            )
            warm_order = list(range(len(items)))
            random.Random(SEED + 1).shuffle(warm_order)
            warm_items = [items[i] for i in warm_order]
            warm, warm_lat, warm_s = await drive(
                client, warm_items, CONCURRENCY
            )
            stats = await client.stats()

    for response in cold:
        assert response["ok"], response
        assert response["served_from"] == "engine", response
    sample = random.Random(SEED + 2).sample(
        range(len(items)), min(VERIFY_SAMPLE, len(items))
    )
    for index in sample:
        op, params = items[index]
        check_response(store, op, params, cold[index]["result"])
    hits = 0
    for position, index in enumerate(warm_order):
        response = warm[position]
        assert response["ok"], response
        hits += response["served_from"] == "cache"
        assert response["result"] == cold[index]["result"], items[index]

    result["requests"] = 2 * len(items)
    result["distinct_queries"] = len(items)
    result["verified_sample"] = len(sample)
    result["cold"] = {
        "seconds": round(cold_s, 4),
        "throughput_rps": round(len(items) / cold_s, 1),
        **percentiles_ms(cold_lat),
    }
    result["warm"] = {
        "seconds": round(warm_s, 4),
        "throughput_rps": round(len(items) / warm_s, 1),
        "cache_hit_rate": round(hits / len(items), 4),
        **percentiles_ms(warm_lat),
    }
    result["warm_over_cold_speedup"] = round(cold_s / warm_s, 2)
    result["server"] = {
        "executed": stats["scheduler"]["executed"],
        "cache_entries": stats["cache"]["entries"],
        "endpoints": {
            op: {
                "requests": ep["requests"],
                "cache_hits": ep["cache_hits"],
                "p99_ms": ep["latency"]["p99_ms"],
            }
            for op, ep in stats["metrics"]["endpoints"].items()
            if ep["requests"]
        },
    }
    return result


async def bench_overload(store):
    """A burst against a tiny queue: sheds are typed, accepted answers
    stay correct."""
    exprs = expr_pool()
    burst = [
        ("rpq", {"store": "g", "expr": exprs[i % len(exprs)],
                 "sources": [f"n{1 + i // len(exprs)}"]})
        for i in range(OVERLOAD_BURST)
    ]
    config = ServiceConfig(max_workers=2, max_queue=8)
    async with ReproServer({"g": store}, config) as server:
        async with await connect(*server.address) as client:
            outcomes = await asyncio.gather(
                *(
                    client.rpq("g", p["expr"], sources=p["sources"])
                    for _, p in burst
                ),
                return_exceptions=True,
            )
    shed = accepted = verified = 0
    for (op, params), outcome in zip(burst, outcomes):
        if isinstance(outcome, ServiceOverloaded):
            shed += 1
        elif isinstance(outcome, BaseException):
            raise outcome
        else:
            accepted += 1
            check_response(store, op, params, outcome)
            verified += 1
    return {
        "burst": OVERLOAD_BURST,
        "accepted": accepted,
        "shed": shed,
        "verified": verified,
    }


# ---------------------------------------------------------------------------
# sharded phase: scatter-gather workers vs the single process
# ---------------------------------------------------------------------------

#: a wider predicate alphabet than the main phases, so a 4-shard ring
#: actually receives work on every shard
SHARD_PREDICATES = tuple(
    f"rel{i}" for i in range(max(8, 2 * SHARDS))
)


def build_sharded_store(num_nodes: int, seed: int) -> TripleStore:
    rng = random.Random(seed)
    store = TripleStore()
    pool = [0]
    for i in range(1, num_nodes):
        for target in {rng.choice(pool), rng.choice(pool)}:
            store.add(
                f"n{i}", rng.choice(SHARD_PREDICATES), f"n{target}"
            )
            pool.extend((i, target))
        pool.append(i)
    return store


def build_sharded_workload(total: int):
    """Engine-bound requests (caching is disabled in this phase): 80%
    single-predicate RPQ closures — each local to one shard, so
    independent requests spread over all the worker processes — and 20%
    log batteries, which scatter their chunks across every shard."""
    rng = random.Random(SEED + 7)
    n_battery = total // 5
    n_rpq = total - n_battery
    items = []
    for i in range(n_rpq):
        a = SHARD_PREDICATES[i % len(SHARD_PREDICATES)]
        b = SHARD_PREDICATES[(i + 1) % len(SHARD_PREDICATES)]
        template = ("{a} {a}*", "{a}* {a}", "{a} {a} {a}?")[i % 3]
        items.append(
            ("rpq", {"store": "g", "expr": template.format(a=a, b=b)})
        )
    texts = generate_source_log(DBPEDIA, 40, seed=SEED + 8)
    for i in range(n_battery):
        batch = rng.sample(texts, 12)
        items.append(
            (
                "battery",
                {"store": "g", "source": "bench", "queries": batch},
            )
        )
    rng.shuffle(items)
    return items


async def drive_deployment(store_spec, items):
    """One deployment (in-memory store or shard directory) under the
    sharded-phase workload: warmup pass, then the measured pass.
    Caching is off, so every request is an engine execution."""
    config = ServiceConfig(
        max_workers=WORKERS,
        max_queue=len(items) + 1,
        cache_entries=0,  # measure computation, not memoization
        shard_replicas=1,
    )
    async with ReproServer({"g": store_spec}, config) as server:
        async with await connect(*server.address) as client:
            # warmup: attach workers, build plan/specialization caches
            await drive(client, items[: max(1, len(items) // 10)], CONCURRENCY)
            responses, latencies, seconds = await drive(
                client, items, CONCURRENCY
            )
    for response in responses:
        assert response["ok"], response
        assert response["served_from"] == "engine", response
    return responses, latencies, seconds


async def bench_sharded(items):
    store = build_sharded_store(NODES, SEED + 6)
    with tempfile.TemporaryDirectory() as tmp:
        shard_dir = pathlib.Path(tmp) / "g"
        shard_store(store, shard_dir, shards=SHARDS)
        single, _single_lat, single_s = await drive_deployment(
            store, items
        )
        sharded, sharded_lat, sharded_s = await drive_deployment(
            shard_dir, items
        )
    sample = random.Random(SEED + 9).sample(
        range(len(items)), min(VERIFY_SAMPLE, len(items))
    )
    divergences = 0
    for index in sample:
        if sharded[index]["result"] != single[index]["result"]:
            divergences += 1
    return {
        "requests": len(items),
        "shards": SHARDS,
        "usable_cpus": usable_cpus(),
        "store_nodes": NODES,
        "verified_sample": len(sample),
        "divergences": divergences,
        "single_process": {
            "seconds": round(single_s, 4),
            "throughput_rps": round(len(items) / single_s, 1),
        },
        "sharded": {
            "seconds": round(sharded_s, 4),
            "throughput_rps": round(len(items) / sharded_s, 1),
            **percentiles_ms(sharded_lat),
        },
        "sharded_over_single_speedup": round(single_s / sharded_s, 2),
    }


def run_sharded_benchmark():
    items = build_sharded_workload(SHARD_REQUESTS)
    print(
        f"sharded phase: {len(items)} engine-bound requests, "
        f"{SHARDS} shards vs 1 process on {usable_cpus()} usable "
        f"CPU(s) (REPRO_BENCH_SERVICE_SHARD_REQUESTS to scale) ..."
    )
    result = asyncio.run(bench_sharded(items))
    SHARDED_RESULTS_PATH.parent.mkdir(exist_ok=True)
    SHARDED_RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print("\n===== service (sharded) =====")
    print(json.dumps(result, indent=2))
    return result


def run_benchmark():
    store = build_store(NODES, SEED)
    items = build_workload(REQUESTS // 2)
    print(
        f"driving {2 * len(items)} requests over {len(items)} distinct "
        f"queries ({NODES}-node store, {WORKERS} workers, "
        f"{CONCURRENCY} in flight; REPRO_BENCH_SERVICE_REQUESTS to "
        f"scale) ..."
    )
    result = asyncio.run(bench_phases(store, items))
    result["overload"] = asyncio.run(bench_overload(store))
    result["workers"] = WORKERS
    result["concurrency"] = CONCURRENCY
    result["store_nodes"] = NODES

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print("\n===== service =====")
    print(json.dumps(result, indent=2))
    return result


def test_service_throughput_and_degradation():
    result = run_benchmark()
    assert result["requests"] >= 10_000
    # the whole point of the result cache: repeated-query workloads
    # come back at least 3x faster once warm
    assert result["warm_over_cold_speedup"] >= 3.0, result
    assert result["warm"]["cache_hit_rate"] == 1.0, result
    # overload degrades by shedding typed errors, never wrong answers
    overload = result["overload"]
    assert overload["shed"] > 0, overload
    assert overload["accepted"] + overload["shed"] == overload["burst"]
    assert overload["verified"] == overload["accepted"], overload


def test_sharded_scatter_gather_speedup():
    result = run_sharded_benchmark()
    # correctness holds on every host: sampled sharded answers equal
    # the single-process engine's
    assert result["verified_sample"] > 0
    assert result["divergences"] == 0, result
    # the throughput gate needs real cores to mean anything — worker
    # processes on a 1-CPU host just time-slice (the repo's usual
    # CPU-gate pattern)
    if result["usable_cpus"] >= 4 and result["shards"] >= 4:
        assert result["sharded_over_single_speedup"] >= 2.5, result


if __name__ == "__main__":
    run_benchmark()
    run_sharded_benchmark()
