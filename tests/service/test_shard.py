"""The sharded store tier: partitioning, scatter-gather evaluation,
worker-death failover, and the service integration.

Every evaluation test holds the sharded answer to the single-process
engine's — the same identity the ``sharded-service`` differential
oracle fuzzes.
"""

import asyncio
import random
import time

import pytest

from repro.errors import (
    DeadlineExceeded,
    StoreFrozenError,
    StoreUnavailableError,
)
from repro.graphs.paths import evaluate_rpq, exists_simple_path, exists_trail
from repro.graphs.rdf import TripleStore
from repro.logs.analyzer import encode_report
from repro.logs.pipeline import run_study
from repro.regex.parser import parse as parse_regex
from repro.service import EmbeddedService, ServiceConfig
from repro.service import shard as shard_module
from repro.service.shard import (
    MANIFEST_NAME,
    ShardGroup,
    ShardManifest,
    ShardRing,
    _task_die,
    shard_store,
)


def run(coro):
    return asyncio.run(coro)


def distinct_shard_predicates(shards: int, needed: int):
    """Predicate names guaranteed (by the deterministic sha256 ring) to
    land on ``needed`` distinct shards."""
    ring = ShardRing(shards)
    found = {}
    index = 0
    while len(found) < needed:
        name = f"pred{index}"
        shard = ring.shard_of(name)
        if shard not in found:
            found[shard] = name
        index += 1
    return [found[shard] for shard in sorted(found)]


def random_store(seed: int = 11, nodes: int = 30, triples: int = 150):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    preds = distinct_shard_predicates(3, 3)
    store = TripleStore()
    while len(store) < triples:
        store.add(rng.choice(names), rng.choice(preds), rng.choice(names))
    return store, preds


# -- partitioning -------------------------------------------------------------


def test_shard_store_round_trips_through_the_manifest(tmp_path):
    store, _preds = random_store()
    manifest = shard_store(store, tmp_path / "g", shards=3)
    assert manifest.total_triples == len(store)
    assert sum(manifest.shard_triples) == len(store)
    assert manifest.source_fingerprint == store.fingerprint()
    loaded = ShardManifest.load(tmp_path / "g")
    assert loaded.images == manifest.images
    assert loaded.predicates == manifest.predicates
    assert loaded.source_fingerprint == manifest.source_fingerprint
    # a manifest *file* path works too
    by_file = ShardManifest.load(tmp_path / "g" / MANIFEST_NAME)
    assert by_file.shards == 3


def test_every_triple_lands_on_its_predicates_ring_owner(tmp_path):
    store, _preds = random_store()
    manifest = shard_store(store, tmp_path / "g", shards=4)
    ring = ShardRing(4, manifest.ring_points)
    for predicate, owner in manifest.predicates.items():
        assert ring.shard_of(predicate) == owner


def test_shard_with_no_predicates_gets_a_valid_empty_image(tmp_path):
    # one predicate, many shards: all but one shard must be empty yet
    # fully attachable
    store = TripleStore([("a", "solo", "b"), ("b", "solo", "c")])
    manifest = shard_store(store, tmp_path / "g", shards=4)
    assert sorted(manifest.shard_triples, reverse=True) == [2, 0, 0, 0]
    group = ShardGroup(tmp_path / "g")
    try:
        expected = evaluate_rpq(
            store, parse_regex("solo solo", multi_char=True)
        )
        assert group.evaluate_walk("solo solo", None, None) == expected
    finally:
        group.close()


def test_empty_store_shards_and_serves(tmp_path):
    manifest = shard_store(TripleStore(), tmp_path / "g", shards=2)
    assert manifest.total_triples == 0
    group = ShardGroup(tmp_path / "g")
    try:
        assert group.evaluate_walk("p?", None, None) == set()
        assert group.exists("p", "x", "y", "simple") is False
        assert group.exists("p?", "x", "x", "simple") is True  # empty walk
    finally:
        group.close()


def test_manifest_load_failures_are_typed(tmp_path):
    with pytest.raises(StoreUnavailableError):
        ShardManifest.load(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
    with pytest.raises(StoreUnavailableError):
        ShardManifest.load(bad)
    wrong = tmp_path / "wrong"
    wrong.mkdir()
    (wrong / MANIFEST_NAME).write_text('{"format": 999}', encoding="utf-8")
    with pytest.raises(StoreUnavailableError):
        ShardManifest.load(wrong)


def test_manifest_with_a_missing_image_is_unavailable(tmp_path):
    store, _preds = random_store(triples=20)
    manifest = shard_store(store, tmp_path / "g", shards=2)
    manifest.image_path(0).unlink()
    with pytest.raises(StoreUnavailableError):
        ShardGroup(tmp_path / "g")


# -- evaluation identity ------------------------------------------------------


def test_multi_shard_walk_equals_single_process_engine(tmp_path):
    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        a, b, c = preds
        for text in (
            f"{a} {b}",
            f"({a} | {b})*",
            f"^{a} {b}",
            f"({a} {b}) | {c}",
            f"{a}?",
        ):
            expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
            assert group.evaluate_walk(text, None, None) == expected, text
    finally:
        group.close()


def test_sourced_and_targeted_walks_filter_identically(tmp_path):
    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        a, b = preds[0], preds[1]
        text = f"({a} | {b})*"
        expr = parse_regex(text, multi_char=True)
        sources = ["n0", "n3", "ghost"]
        targets = ["n1", "n3", "ghost"]
        assert group.evaluate_walk(text, sources, None) == evaluate_rpq(
            store, expr, sources=sources
        )
        assert group.evaluate_walk(text, None, targets) == evaluate_rpq(
            store, expr, targets=targets
        )
        assert group.evaluate_walk(text, sources, targets) == evaluate_rpq(
            store, expr, sources=sources, targets=targets
        )
    finally:
        group.close()


def test_single_shard_expression_skips_the_frontier_exchange(tmp_path):
    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        rounds = []
        group.gather_hook = lambda: rounds.append(1)
        text = f"{preds[0]} {preds[0]}*"
        expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
        assert group.evaluate_walk(text, None, None) == expected
        # the fast path answers through one direct shard call — the
        # scatter/gather machinery (whose hook fires per round) idle
        assert rounds == []
    finally:
        group.close()


def test_exists_matches_simple_and_trail_search(tmp_path):
    store, preds = random_store(seed=5, nodes=12, triples=40)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        a, b = preds[0], preds[1]
        for text in (f"{a} {b}", f"{a} ^{a}", f"({a} | {b}) {a}?"):
            expr = parse_regex(text, multi_char=True)
            for source in ("n0", "n3", "ghost"):
                for target in ("n1", "n3", "ghost"):
                    assert group.exists(
                        text, source, target, "simple"
                    ) == exists_simple_path(store, expr, source, target)
                    assert group.exists(
                        text, source, target, "trail"
                    ) == exists_trail(store, expr, source, target)
    finally:
        group.close()


def test_battery_is_counter_identical_to_run_study(tmp_path):
    store, _preds = random_store(triples=10)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        texts = [
            "SELECT ?x WHERE { ?x ?p ?y }",
            "SELECT ?x WHERE { ?x ?p ?y }",  # duplicate
            "SELECT  ?x  WHERE { ?x ?p ?y }",  # same after normalization
            "ASK { ?s ?p ?o }",
            "broken {{",
            "broken {{",  # invalid counted per occurrence
        ]
        expected = run_study("DBpedia", texts)
        actual = group.battery("DBpedia", texts)
        assert (actual.total, actual.valid, actual.unique) == (
            expected.total,
            expected.valid,
            expected.unique,
        )
        assert encode_report(actual) == encode_report(expected)
    finally:
        group.close()


def test_battery_of_nothing(tmp_path):
    store, _preds = random_store(triples=5)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g")
    try:
        report = group.battery("empty", [])
        assert (report.total, report.valid, report.unique) == (0, 0, 0)
        assert encode_report(report) == encode_report(run_study("empty", []))
    finally:
        group.close()


def test_battery_scatters_one_chunk_per_shard(tmp_path):
    # one chunk per shard, not four per worker: the extra IPC round
    # trips of a finer split cost more than they balance
    store, _preds = random_store(triples=5)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g")
    rounds = []
    scatter = group.scatter

    def counting_scatter(jobs):
        rounds.append(len(jobs))
        return scatter(jobs)

    group.scatter = counting_scatter
    try:
        unique = [f"SELECT ?x WHERE {{ ?x <p{i}> ?y }}" for i in range(11)]
        texts = unique + ["broken {{"] + unique[:4] + ["broken {{"]
        report = group.battery("DBpedia", texts)
        assert rounds == [2]
        expected = run_study("DBpedia", texts)
        assert (report.total, report.valid, report.unique) == (17, 15, 11)
        assert encode_report(report) == encode_report(expected)
    finally:
        group.close()


# -- failure handling ---------------------------------------------------------


def kill_worker(worker):
    """Crash a worker process from inside and wait for the pool to
    notice (the submit of _task_die itself breaks the pool)."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        worker.submit(_task_die).result(timeout=10)
    except BrokenProcessPool:
        pass


def test_worker_death_mid_query_fails_over_to_a_replica(tmp_path):
    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g", replicas=2)
    try:
        text = f"({preds[0]} | {preds[1]})*"
        expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
        # warm every attachment, then kill each shard's primary
        group.check_health()
        for attachments in group.workers:
            kill_worker(attachments[0])
        assert group.evaluate_walk(text, None, None) == expected
        assert group.failovers >= 1
    finally:
        group.close()


def test_worker_death_with_one_replica_respawns_the_primary(tmp_path):
    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g", replicas=1)
    try:
        text = f"({preds[0]} | {preds[1]})*"
        expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
        for attachments in group.workers:
            kill_worker(attachments[0])
        assert group.evaluate_walk(text, None, None) == expected
        assert group.stats()["respawns"] >= 1
    finally:
        group.close()


def test_check_health_respawns_dead_workers(tmp_path):
    store, _preds = random_store(triples=10)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g")
    try:
        first = group.check_health()
        assert first["healthy"] == 2 and first["respawned"] == 0
        kill_worker(group.workers[0][0])
        second = group.check_health()
        assert second["respawned"] == 1
        assert second["healthy"] == 2  # respawned worker answers again
    finally:
        group.close()


def test_group_stats_shape(tmp_path):
    store, _preds = random_store(triples=25)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g", replicas=2)
    try:
        stats = group.stats()
        assert stats["shards"] == 3
        assert stats["replicas"] == 2
        assert stats["total_triples"] == len(store)
        assert stats["source_fingerprint"] == store.fingerprint()
        assert stats["failovers"] == 0
        assert stats["respawns"] == 0
    finally:
        group.close()


# -- service integration ------------------------------------------------------


def test_embedded_service_over_shards_equals_in_memory_service(tmp_path):
    async def scenario():
        store, preds = random_store()
        shard_store(store, tmp_path / "g", shards=3)
        text = f"({preds[0]} | {preds[1]}) {preds[2]}?"
        async with EmbeddedService(
            {"g": tmp_path / "g"}
        ) as sharded, EmbeddedService({"g": store}) as single:
            for _ in range(2):  # engine answer, then cached answer
                a = await sharded.request(
                    "rpq", {"store": "g", "expr": text}
                )
                b = await single.request(
                    "rpq", {"store": "g", "expr": text}
                )
                assert a["ok"] and b["ok"]
                assert a["result"] == b["result"]
            # fingerprint-addressed keys: both deployments cached
            assert a["served_from"] == "cache"
            assert b["served_from"] == "cache"

    run(scenario())


def test_sharded_store_stats_and_mutation_refusal(tmp_path):
    async def scenario():
        store, _preds = random_store(triples=30)
        shard_store(store, tmp_path / "g", shards=2)
        async with EmbeddedService({"g": tmp_path / "g"}) as service:
            stats = await service.stats()
            assert stats["stores"]["g"]["sharded"] is True
            assert stats["stores"]["g"]["frozen"] is True
            assert stats["shards"]["g"]["shards"] == 2
            with pytest.raises(StoreFrozenError):
                await service.mutate("g", [("x", "p", "y")])

    run(scenario())


def test_deadline_expiry_during_gather_is_structured(tmp_path):
    async def scenario():
        store, preds = random_store()
        shard_store(store, tmp_path / "g", shards=3)
        config = ServiceConfig(max_workers=1, max_queue=4)
        async with EmbeddedService({"g": tmp_path / "g"}, config) as service:
            group = service.core.shard_groups["g"]
            group.gather_hook = lambda: time.sleep(0.25)
            with pytest.raises(DeadlineExceeded):
                await service.rpq(
                    "g",
                    f"({preds[0]} | {preds[1]})*",
                    deadline_ms=60,
                )
            assert service.core.metrics.endpoint("rpq").timeouts == 1
            # the overrunning gather completes in the background and
            # frees its worker; the service keeps serving
            group.gather_hook = None
            await asyncio.sleep(0.4)
            assert (await service.ping())["pong"] is True

    run(scenario())


def test_battery_through_the_service_is_deployment_independent(tmp_path):
    async def scenario():
        store, _preds = random_store(triples=15)
        shard_store(store, tmp_path / "g", shards=2)
        queries = ["SELECT ?x WHERE { ?x ?p ?y }", "junk(", "ASK { ?s ?p ?o }"]
        async with EmbeddedService(
            {"g": tmp_path / "g"}
        ) as sharded, EmbeddedService({"g": store}) as single:
            a = await sharded.battery(queries, source="svc", store="g")
            b = await single.battery(queries, source="svc", store="g")
            c = await single.battery(queries, source="svc")  # inline path
            assert a == b == c

    run(scenario())


# -- label-pruned, round-barrier exchange -------------------------------------


def skewed_store(shards: int = 3, hot: int = 120, cold: int = 12, seed: int = 3):
    """A label-skewed store: one hot predicate carrying most triples and
    cold predicates on other shards (the ring guarantees distinct
    owners)."""
    preds = distinct_shard_predicates(shards, shards)
    hot_pred, cold_preds = preds[0], preds[1:]
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(20)]
    store = TripleStore()
    while len(store) < hot:
        store.add(rng.choice(names), hot_pred, rng.choice(names))
    added = 0
    while added < cold:
        added += store.add(
            rng.choice(names), rng.choice(cold_preds), rng.choice(names)
        )
    return store, hot_pred, cold_preds


def exchange_groups(path):
    return {lp: ShardGroup(path, label_prune=lp) for lp in (False, True)}


def test_pruned_and_unpruned_exchange_agree_and_pruning_cuts_payload(tmp_path):
    store, hot, colds = skewed_store()
    shard_store(store, tmp_path / "g", shards=3)
    groups = exchange_groups(tmp_path / "g")
    try:
        texts = [
            f"{hot}* ({colds[0]} | {colds[1]}) {hot}*",
            f"({hot} | {colds[0]})*",
            f"{colds[0]} {hot}* ^{colds[1]}",
        ]
        for text in texts:
            expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
            for lp, group in groups.items():
                assert group.evaluate_walk(text, None, None) == expected, (
                    text,
                    lp,
                )
        pruned = groups[True]
        unpruned = groups[False]
        # identical workload, byte-identical accounting scheme: pruning
        # must strictly cut scatter payload on a skewed store and count
        # what a broadcast would have shipped
        assert pruned.scatter_bytes < unpruned.scatter_bytes
        assert pruned.pruned_entries > 0
        assert unpruned.pruned_entries == 0
        assert pruned.rounds > 0 and unpruned.rounds > 0
        assert pruned.gather_bytes > 0 and unpruned.gather_bytes > 0
    finally:
        for group in groups.values():
            group.close()


def test_exchange_answers_and_accounting_are_deterministic(tmp_path):
    store, hot, colds = skewed_store(seed=9)
    shard_store(store, tmp_path / "g", shards=3)
    first = ShardGroup(tmp_path / "g")
    second = ShardGroup(tmp_path / "g")
    counters = ("scatter_bytes", "gather_bytes", "rounds", "pruned_entries")
    try:
        texts = [
            f"({hot} | {colds[0]} | {colds[1]})*",
            f"{colds[0]} {hot}* ^{colds[1]}",
        ]
        for text in texts:
            expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
            # worker completion order varies run to run; neither the
            # answers nor the byte accounting may
            assert first.evaluate_walk(text, None, None) == expected
            assert second.evaluate_walk(text, None, None) == expected
        first_stats, second_stats = first.stats(), second.stats()
        assert first_stats["rounds"] > 0
        for name in counters:
            assert first_stats[name] == second_stats[name], name
    finally:
        first.close()
        second.close()


def test_union_cache_is_fingerprint_keyed_with_bounded_capacity(
    tmp_path, monkeypatch
):
    store, hot, colds = skewed_store(hot=20, cold=20)
    shard_store(store, tmp_path / "g", shards=3)
    monkeypatch.setattr(shard_module, "_UNION_CACHE_ENTRIES", 1)
    group = ShardGroup(tmp_path / "g")
    try:
        group.exists(f"{hot} {colds[0]}", "n0", "n1", "simple")
        assert len(group._union_cache) == 1
        first_key = next(iter(group._union_cache))
        assert first_key[0] == group.manifest.source_fingerprint
        group.exists(f"{colds[0]} {colds[1]}", "n0", "n1", "trail")
        # a different predicate set evicted the first entry (capacity 1)
        assert len(group._union_cache) == 1
        assert next(iter(group._union_cache)) != first_key
    finally:
        group.close()


def test_exchange_pruning_survives_worker_death(tmp_path):
    store, hot, colds = skewed_store(seed=21)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g", label_prune=True)
    try:
        text = f"({hot} | {colds[0]})*"
        expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
        assert group.evaluate_walk(text, None, None) == expected
        kill_worker(group.workers[0][0])  # kill a primary between runs
        assert group.evaluate_walk(text, None, None) == expected
        assert group.failovers >= 1
    finally:
        group.close()


# -- owners()-routed SPARQL executor ------------------------------------------


def sparql_vocab_store(seed: int = 13, triples: int = 60):
    """A store whose names are SPARQL lexical forms (bracketed IRIs), so
    query texts match store strings directly."""
    rng = random.Random(seed)
    nodes = [f"<n{i}>" for i in range(10)]
    preds = ["<p>", "<q>", "<r>"]
    store = TripleStore()
    while len(store) < triples:
        store.add(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
    return store


def test_shard_pattern_executor_matches_in_memory_evaluator(tmp_path):
    from repro.sparql.evaluation import Evaluator
    from repro.sparql.parser import parse_query

    store = sparql_vocab_store()
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        for text in (
            "SELECT ?x ?y WHERE { ?x <p> ?y }",
            "SELECT ?x ?z WHERE { ?x <p> ?y . ?y <q> ?z }",
            "SELECT ?x ?p ?y WHERE { ?x ?p ?y }",
            "ASK { ?x <r> ?y }",
            "SELECT ?x ?y WHERE { ?x (<p>|<q>)+ ?y }",
        ):
            query = parse_query(text)
            expected = Evaluator(store).evaluate(query)
            actual = Evaluator(None, executor=group.executor()).evaluate(query)
            if isinstance(expected, bool):
                assert actual == expected, text
            else:
                key = lambda row: sorted(row.items())
                assert sorted(actual, key=key) == sorted(
                    expected, key=key
                ), text
    finally:
        group.close()


def test_executor_scans_are_coordinator_side(tmp_path):
    store = sparql_vocab_store(triples=30)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        rounds = []
        group.gather_hook = lambda: rounds.append(1)
        executor = group.executor()
        scanned = sorted(executor.scan(None, "<p>", None))
        assert scanned == sorted(store.triples(None, "<p>", None))
        assert sorted(executor.scan(None, None, None)) == sorted(
            store.triples()
        )
        assert executor.successors("<n0>", "<p>") == store.successors(
            "<n0>", "<p>"
        )
        # owners() routing reads the mapped images directly: no worker
        # round trips, so the gather hook never fires
        assert rounds == []
    finally:
        group.close()


def test_query_op_is_deployment_independent_and_cached(tmp_path):
    async def scenario():
        store = sparql_vocab_store()
        shard_store(store, tmp_path / "g", shards=3)
        text = "SELECT ?x ?z WHERE { ?x <p> ?y . ?y <q> ?z }"
        async with EmbeddedService(
            {"g": tmp_path / "g"}
        ) as sharded, EmbeddedService({"g": store}) as single:
            for _ in range(2):  # engine answer, then cached answer
                a = await sharded.query("g", text)
                b = await single.query("g", text)
                assert a == b
                assert a["valid"] is True and a["kind"] == "select"
                assert a["count"] == len(a["rows"])
            ask = await sharded.query("g", "ASK { ?x <r> ?y }")
            assert ask["kind"] == "ask" and isinstance(ask["boolean"], bool)
            bad = await sharded.query("g", "SELECT ?x WHERE {{{")
            assert bad["valid"] is False and "reason" in bad

    run(scenario())


def test_exchange_counters_surface_through_stats_and_metrics(tmp_path):
    async def scenario():
        store, hot, colds = skewed_store()
        shard_store(store, tmp_path / "g", shards=3)
        async with EmbeddedService({"g": tmp_path / "g"}) as service:
            text = f"({hot} | {colds[0]})*"
            await service.rpq("g", text)
            stats = await service.stats()
            shard_stats = stats["shards"]["g"]
            assert shard_stats["label_prune"] is True
            assert shard_stats["scatter_bytes"] > 0
            assert shard_stats["gather_bytes"] > 0
            assert shard_stats["rounds"] > 0
            # the group's counters mirror into the service metrics
            metrics = stats["metrics"]
            assert metrics["scatter_bytes"] == shard_stats["scatter_bytes"]
            assert metrics["gather_bytes"] == shard_stats["gather_bytes"]
            assert metrics["shard_rounds"] == shard_stats["rounds"]
            assert metrics["pruned_entries"] == shard_stats["pruned_entries"]

    run(scenario())
