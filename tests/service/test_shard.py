"""The sharded store tier: partitioning, scatter-gather evaluation,
worker-death failover, and the service integration.

Every evaluation test holds the sharded answer to the single-process
engine's — the same identity the ``sharded-service`` differential
oracle fuzzes.
"""

import asyncio
import multiprocessing
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import (
    DeadlineExceeded,
    StoreFrozenError,
    StoreUnavailableError,
)
from repro.graphs.engine import compile_rpq
from repro.graphs.paths import evaluate_rpq, exists_simple_path, exists_trail
from repro.graphs.rdf import TripleStore
from repro.logs.analyzer import encode_report
from repro.logs.pipeline import run_study
from repro.regex.parser import parse as parse_regex
from repro.service import EmbeddedService, ServiceConfig
from repro.service.protocol import RpqRequest
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


def random_store(
    seed: int = 11, nodes: int = 30, triples: int = 150, shards: int = 3
):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    preds = distinct_shard_predicates(shards, shards)
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
    store, (a, b, c) = random_store()
    skewed, hot, (c0, c1) = skewed_store()
    for name, data, texts in (
        (
            "uniform",
            store,
            (
                f"{a} {b}",
                f"({a} | {b})*",
                f"^{a} {b}",
                f"({a} {b}) | {c}",
                f"{a}?",
            ),
        ),
        (
            # one hot predicate carrying most triples, cold ones elsewhere
            "skewed",
            skewed,
            (
                f"{hot}* ({c0} | {c1}) {hot}*",
                f"({hot} | {c0})*",
                f"({hot} | {c0} | {c1})*",
                f"{c0} {hot}* ^{c1}",
            ),
        ),
    ):
        shard_store(data, tmp_path / name, shards=3)
        group = ShardGroup(tmp_path / name)
        try:
            for text in texts:
                expr = parse_regex(text, multi_char=True)
                expected = evaluate_rpq(data, expr)
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


def test_single_shard_expression_runs_on_its_owner_worker(tmp_path):
    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    calls = []
    call_shard = group.call_shard

    def counting_call_shard(shard, fn, *args):
        calls.append(shard)
        return call_shard(shard, fn, *args)

    def no_scatter(jobs):
        raise AssertionError("a single-shard walk scattered")

    group.call_shard = counting_call_shard
    group.scatter = no_scatter
    try:
        text = f"{preds[0]} {preds[0]}*"
        expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
        assert group.evaluate_walk(text, None, None) == expected
        # one direct call to the owner; the coordinator union stays empty
        assert calls == [group.manifest.predicates[preds[0]]]
        assert group._union[1] == frozenset()
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


def owner_routed_walks(store, group):
    """One walk per shard, over a predicate that shard owns: each is
    answered by a call to that shard's worker."""
    walks = []
    for shard in range(group.manifest.shards):
        predicate = min(
            p for p, owner in group.manifest.predicates.items() if owner == shard
        )
        text = f"{predicate} {predicate}*"
        expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
        walks.append((text, expected))
    return walks


def test_worker_death_mid_query_fails_over_to_a_replica(tmp_path):
    store, _preds = random_store(shards=2)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g", replicas=2)
    try:
        walks = owner_routed_walks(store, group)
        # warm every attachment, then kill each shard's primary
        group.check_health()
        for attachments in group.workers:
            kill_worker(attachments[0])
        for text, expected in walks:
            assert group.evaluate_walk(text, None, None) == expected
        assert group.failovers >= 1
    finally:
        group.close()


def test_worker_death_with_one_replica_respawns_the_primary(tmp_path):
    store, _preds = random_store(shards=2)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g", replicas=1)
    try:
        walks = owner_routed_walks(store, group)
        for attachments in group.workers:
            kill_worker(attachments[0])
        for text, expected in walks:
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
    store, preds = random_store(triples=25)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g", replicas=2)
    try:
        text = f"({preds[0]} | {preds[1]})*"
        expected = evaluate_rpq(store, parse_regex(text, multi_char=True))
        assert group.evaluate_walk(text, None, None) == expected
        stats = group.stats()
        assert stats["shards"] == 3
        assert stats["replicas"] == 2
        assert stats["total_triples"] == len(store)
        assert stats["source_fingerprint"] == store.fingerprint()
        assert stats["failovers"] == 0
        assert stats["respawns"] == 0
        # the keys perfbench's trace reads stay, at 0, after a
        # multi-shard walk
        for key in (
            "rounds",
            "scatter_bytes",
            "gather_bytes",
            "pruned_entries",
            "scattered_entries",
        ):
            assert stats[key] == 0, key
    finally:
        group.close()


def test_concurrent_calls_on_one_attachment_never_cross_replies(tmp_path):
    store, _preds = random_store(triples=10)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g")
    worker = group.workers[0][0]
    start = threading.Barrier(4)

    def calls(thread):
        start.wait(timeout=30)
        requests = [thread * 1000 + i for i in range(200)]
        return requests, [worker.call(str, n) for n in requests]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for requests, replies in pool.map(calls, range(4), timeout=60):
                assert replies == [str(n) for n in requests]
    finally:
        sys.setswitchinterval(interval)
        group.close()


def test_a_raising_job_re_raises_from_scatter_and_workers_recover(tmp_path):
    store, _preds = random_store(triples=10)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g")
    try:
        # the error returns first; the slow reply on shard 0 is still
        # pending when the scatter decides to raise
        with pytest.raises(ValueError):
            group.scatter(
                [
                    (0, time.sleep, (0.2,)),
                    (1, int, ("not a number",)),
                    (1, str, (2,)),
                ]
            )
        assert group.failovers == 0
        # every pending reply was read before the raise: no worker is
        # left locked, and both pipes answer the next requests
        assert not any(
            worker._lock.locked()
            for attachments in group.workers
            for worker in attachments
        )
        assert group.scatter(
            [(1, str, (3,)), (0, str, (4,)), (1, str, (5,))]
        ) == ["3", "4", "5"]
        assert group.call_shard(0, str, 6) == "6"
        assert group.check_health()["healthy"] == 2
    finally:
        group.close()


def test_close_reaps_workers_and_respawn_replaces_the_process(tmp_path):
    store, _preds = random_store(triples=10)
    shard_store(store, tmp_path / "g", shards=2)
    group = ShardGroup(tmp_path / "g")
    try:
        worker = group.workers[0][0]
        before = worker.ping()["pid"]
        worker.respawn()
        pids = {
            attached.ping()["pid"]
            for attachments in group.workers
            for attached in attachments
        }
        assert before not in pids and len(pids) == 2
        pids.add(before)
    finally:
        group.close()
    alive = {child.pid for child in multiprocessing.active_children()}
    assert not alive & pids
    with pytest.raises(RuntimeError):
        group.workers[0][0].call(str, 1)


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


def test_scoped_fingerprints_combine_the_owner_shards(tmp_path):
    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    try:
        names = store.predicate_names()
        assert group.fingerprint(names) == group.fingerprint()
        assert group.fingerprint(names) == store.fingerprint()
        for scope in ([preds[0]], preds[:2], [preds[2], "absent"], []):
            assert group.fingerprint(scope) == store.fingerprint(scope)
    finally:
        group.close()


def test_scoped_fingerprints_read_the_shard_headers(tmp_path, monkeypatch):
    from repro.store.mmapstore import MappedTripleStore

    store, preds = random_store()
    shard_store(store, tmp_path / "g", shards=3)

    def refuse(*args, **kwargs):
        raise AssertionError("a recorded image must not scan triples")

    monkeypatch.setattr(MappedTripleStore, "triples", refuse)
    group = ShardGroup(tmp_path / "g")
    try:
        for scope in (store.predicate_names(), [preds[0]], preds[:2]):
            assert group.fingerprint(scope) == store.fingerprint(scope)
    finally:
        group.close()


def test_sharded_and_in_memory_derive_equal_scoped_keys(tmp_path):
    async def scenario():
        store, preds = random_store()
        shard_store(store, tmp_path / "g", shards=3)
        requests = [
            {"store": "g", "expr": f"{preds[0]}*", "sources": ["n1"]},
            {"store": "g", "expr": f"{preds[0]} ^{preds[1]}"},
            {"store": "g", "expr": f"{preds[2]}*"},  # whole-store scope
            {"store": "g", "expr": f"{preds[1]}+", "semantics": "trail",
             "source": "n1", "target": "n2"},
        ]
        async with EmbeddedService(
            {"g": tmp_path / "g"}
        ) as sharded, EmbeddedService({"g": store}) as single:
            for params in requests:
                a = sharded.core._prepare_rpq(RpqRequest(**params))
                b = single.core._prepare_rpq(RpqRequest(**params))
                assert a[0] == b[0]  # the key
                assert a[2] == b[2]  # the scope

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
            call_shard = group.call_shard

            def slow_call_shard(shard, fn, *args):
                reply = call_shard(shard, fn, *args)
                time.sleep(0.25)
                return reply

            group.call_shard = slow_call_shard
            with pytest.raises(DeadlineExceeded):
                # one predicate: the walk goes to its owner worker
                await service.rpq(
                    "g",
                    f"{preds[0]} {preds[0]}*",
                    deadline_ms=60,
                )
            assert service.core.metrics.endpoint("rpq").timeouts == 1
            # the overrunning call completes in the background and
            # frees its worker; the service keeps serving
            del group.call_shard
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


# -- multi-shard requests over the coordinator union --------------------------


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


def test_multi_owner_exists_makes_no_worker_round_trip(tmp_path):
    store, hot, colds = skewed_store(hot=20, cold=20)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")

    def no_round_trip(*args):
        raise AssertionError("multi-shard exists reached a worker")

    group.scatter = no_round_trip
    group.call_shard = no_round_trip
    try:
        for text in (f"{hot} {colds[0]}", f"({colds[0]} | {colds[1]})+"):
            expr = parse_regex(text, multi_char=True)
            assert len(group.manifest.owners(expr.alphabet())) > 1
            for source, target in (("n0", "n1"), ("n2", "n2"), ("n3", "n0")):
                assert group.exists(
                    text, source, target, "simple"
                ) == exists_simple_path(store, expr, source, target)
                assert group.exists(
                    text, source, target, "trail"
                ) == exists_trail(store, expr, source, target)
    finally:
        group.close()


def test_multi_owner_walk_makes_no_worker_round_trip(tmp_path):
    store, hot, colds = skewed_store(hot=20, cold=20)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")

    def no_round_trip(*args):
        raise AssertionError("multi-shard walk reached a worker")

    group.scatter = no_round_trip
    group.call_shard = no_round_trip
    sources = ["n0", "n3", "ghost"]
    targets = ["n1", "n3", "ghost"]
    try:
        # all-pairs walks whose expression is not nullable need no node
        # list; sourced walks never do
        for text, nullable in (
            (f"{hot} {colds[0]}", False),
            (f"({colds[0]} | {colds[1]})+", False),
            (f"{colds[0]} {hot}* ^{colds[1]}", False),
            (f"({hot} | {colds[0]})*", True),
            (f"{hot}? {colds[1]}?", True),
        ):
            expr = parse_regex(text, multi_char=True)
            assert len(group.manifest.owners(expr.alphabet())) > 1
            if not nullable:
                assert group.evaluate_walk(text, None, None) == evaluate_rpq(
                    store, expr
                ), text
            assert group.evaluate_walk(text, sources, None) == evaluate_rpq(
                store, expr, sources=sources
            ), text
            assert group.evaluate_walk(
                text, sources, targets
            ) == evaluate_rpq(store, expr, sources=sources, targets=targets), text
    finally:
        group.close()


def test_union_reads_each_predicate_once(tmp_path):
    store, hot, colds = skewed_store(hot=20, cold=20)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    mapped = group._shard_mapped
    reads = []

    class CountingMapping:
        def __init__(self, shard):
            self.inner = mapped(shard)

        def triples(self, s, p, o):
            reads.append(p)
            return self.inner.triples(s, p, o)

    group._shard_mapped = CountingMapping
    try:
        preds = [hot] + colds
        for first in preds:
            for second in preds:
                if first != second:
                    group.exists(f"{first} {second}", "n0", "n1", "trail")
        # every predicate is loaded once, by the first search needing it
        assert sorted(reads) == sorted(preds)
        union, loaded = group._union
        assert loaded == frozenset(preds)
        assert len(union) == len(store)
    finally:
        group.close()


def test_concurrent_exists_agree_with_single_process_search(tmp_path):
    store, preds = random_store(seed=17, nodes=10, triples=45)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    cases = [
        (f"{a} {b}", source, target, forbid)
        for a in preds
        for b in preds
        if a != b
        for source in ("n0", "n4")
        for target in ("n1", "n4")
        for forbid in (True, False)
    ]
    expected = [
        compile_rpq(parse_regex(text, multi_char=True)).search(
            store, source, target, forbid
        )
        for text, source, target, forbid in cases
    ]
    start = threading.Barrier(4)

    def run_all(offset):
        start.wait(timeout=30)
        # each thread walks the cases in a different order, so the
        # union grows under contention
        order = cases[offset:] + cases[:offset]
        return [
            group.exists(text, source, target, "simple" if forbid else "trail")
            for text, source, target, forbid in order
        ], offset

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            offsets = [i * len(cases) // 4 for i in range(4)]
            outcomes = list(pool.map(run_all, offsets, timeout=60))
        for answers, offset in outcomes:
            assert answers == expected[offset:] + expected[:offset]
    finally:
        sys.setswitchinterval(interval)
        group.close()


def test_concurrent_walks_agree_with_single_process_engine(tmp_path):
    store, preds = random_store(seed=19, nodes=12, triples=50)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")
    cases = [
        (text, sources)
        for a in preds
        for b in preds
        if a != b
        for text in (f"{a} {b}", f"({a} | ^{b})+")
        for sources in (None, ("n0", "n5"))
    ]
    expected = [
        evaluate_rpq(
            store,
            parse_regex(text, multi_char=True),
            sources=list(sources) if sources else None,
        )
        for text, sources in cases
    ]
    start = threading.Barrier(4)

    def run_all(offset):
        start.wait(timeout=30)
        # each thread walks the cases in a different order, so the
        # union grows under contention
        order = cases[offset:] + cases[:offset]
        return [
            group.evaluate_walk(
                text, list(sources) if sources else None, None
            )
            for text, sources in order
        ], offset

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            offsets = [i * len(cases) // 4 for i in range(4)]
            outcomes = list(pool.map(run_all, offsets, timeout=60))
        for answers, offset in outcomes:
            assert answers == expected[offset:] + expected[:offset]
    finally:
        sys.setswitchinterval(interval)
        group.close()


# -- the query op over the coordinator union ---------------------------------


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
    from repro.sparql.evaluation import Evaluator, query_predicates
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
            union = group.union_store(query_predicates(query))
            actual = Evaluator(union).evaluate(query)
            if isinstance(expected, bool):
                assert actual == expected, text
            else:
                key = lambda row: sorted(row.items())
                assert sorted(actual, key=key) == sorted(
                    expected, key=key
                ), text
    finally:
        group.close()


def test_query_union_loads_only_what_the_query_reads(tmp_path):
    from repro.sparql.evaluation import Evaluator, query_predicates
    from repro.sparql.parser import parse_query

    store = sparql_vocab_store(triples=30)
    shard_store(store, tmp_path / "g", shards=3)
    group = ShardGroup(tmp_path / "g")

    def no_round_trip(*args):
        raise AssertionError("the union reached a worker")

    # the union reads the mapped images: no worker round trip
    group.scatter = no_round_trip
    group.call_shard = no_round_trip
    try:
        query = parse_query("SELECT ?x ?z WHERE { ?x <p> ?y . ?y <q> ?z }")
        union = group.union_store(query_predicates(query))
        key = lambda row: sorted(row.items())
        assert sorted(Evaluator(union).evaluate(query), key=key) == sorted(
            Evaluator(store).evaluate(query), key=key
        )
        assert group._union[1] == {"<p>", "<q>"}
        query = parse_query("SELECT ?x ?p ?y WHERE { ?x ?p ?y }")
        assert query_predicates(query) is None
        union = group.union_store(query_predicates(query))
        assert group._union[1] == {"<p>", "<q>", "<r>"}
        assert sorted(union.triples()) == sorted(store.triples())
    finally:
        group.close()


def test_query_op_is_deployment_independent_and_cached(tmp_path):
    async def scenario():
        store = sparql_vocab_store()
        shard_store(store, tmp_path / "g", shards=3)
        texts = (
            "SELECT ?x ?y WHERE { ?x <p> ?y }",
            "SELECT ?x ?z WHERE { ?x <p> ?y . ?y <q> ?z }",
            "SELECT ?x ?p ?y WHERE { ?x ?p ?y }",
            "ASK { ?x <r> ?y }",
            "SELECT ?x ?y WHERE { ?x (<p>|<q>)+ ?y }",
            "SELECT ?x WHERE { <n0> <p>+ ?x }",
            "ASK { ?x <q> <n1> }",
        )
        async with EmbeddedService(
            {"g": tmp_path / "g"}
        ) as sharded, EmbeddedService({"g": store}) as single:
            for text in texts:
                for _ in range(2):  # engine answer, then cached answer
                    a = await sharded.query("g", text)
                    b = await single.query("g", text)
                    assert a == b, text
                    assert a["valid"] is True
                    if a["kind"] == "select":
                        assert a["count"] == len(a["rows"])
            ask = await sharded.query("g", "ASK { ?x <r> ?y }")
            assert ask["kind"] == "ask" and isinstance(ask["boolean"], bool)
            bad = await sharded.query("g", "SELECT ?x WHERE {{{")
            assert bad["valid"] is False and "reason" in bad

    run(scenario())
