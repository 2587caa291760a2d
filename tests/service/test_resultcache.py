"""Content addressing and LRU behavior of the result cache."""

import pytest

from repro.core.hashing import text_key
from repro.graphs.rdf import TripleStore
from repro.service.resultcache import ResultCache, result_key


def test_key_is_deterministic_and_component_sensitive():
    base = result_key("rpq", "g1-t1", "('sym', 'p')", "walk")
    assert base == result_key("rpq", "g1-t1", "('sym', 'p')", "walk")
    assert base != result_key("log", "g1-t1", "('sym', 'p')", "walk")
    assert base != result_key("rpq", "g2-t2", "('sym', 'p')", "walk")
    assert base != result_key("rpq", "g1-t1", "('sym', 'q')", "walk")
    assert base != result_key("rpq", "g1-t1", "('sym', 'p')", "trail")


def test_key_uses_the_shared_sha256_discipline():
    key = result_key("sparql", "", "SELECT 1", "sparql")
    assert len(key) == 64
    assert key == text_key('["sparql","","SELECT 1","sparql"]')


def test_store_mutation_changes_every_key_over_it():
    store = TripleStore([("a", "p", "b")])
    before = result_key("rpq", store.fingerprint(), "expr", "walk")
    store.add("b", "p", "c")
    after = result_key("rpq", store.fingerprint(), "expr", "walk")
    assert before != after


def test_hit_flag_distinguishes_falsy_payloads():
    cache = ResultCache()
    cache.put("k", None)
    hit, payload = cache.get("k")
    assert hit and payload is None
    hit, _ = cache.get("absent")
    assert not hit


def test_lru_evicts_least_recently_used():
    cache = ResultCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == (True, 1)  # refresh a
    cache.put("c", 3)  # evicts b
    assert cache.get("b") == (False, None)
    assert cache.get("a") == (True, 1)
    assert cache.get("c") == (True, 3)
    assert cache.evictions == 1


def test_put_refreshes_and_overwrites():
    cache = ResultCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh + overwrite, no eviction
    cache.put("c", 3)  # evicts b, not a
    assert cache.get("a") == (True, 10)
    assert cache.get("b") == (False, None)


def test_stats_accounting():
    cache = ResultCache(max_entries=8)
    cache.put("a", 1)
    cache.get("a")
    cache.get("missing")
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.5


def test_zero_capacity_disables_caching():
    cache = ResultCache(max_entries=0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") == (False, None)
    assert cache.misses == 1


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ResultCache(max_entries=-1)


def test_clear():
    cache = ResultCache()
    cache.put("a", 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.get("a") == (False, None)


# -- write-scoped invalidation -----------------------------------------------


def test_drop_removes_the_readers_of_the_written_predicates():
    cache = ResultCache(max_entries=8)
    cache.put("p-walk", 1, ("g", ["p"]))
    cache.put("pq-walk", 2, ("g", ["p", "q"]))
    cache.put("r-walk", 3, ("g", ["r"]))
    cache.put("query", 4, ("g", None))
    cache.put("other-store", 5, ("h", ["p"]))
    cache.put("store-free", 6)
    assert cache.drop("g", ["q"]) == 2  # pq-walk and the whole-store query
    assert cache.get("pq-walk") == (False, None)
    assert cache.get("query") == (False, None)
    for key, payload in (("p-walk", 1), ("r-walk", 3), ("other-store", 5),
                         ("store-free", 6)):
        assert cache.get(key) == (True, payload)
    assert cache.drop("g", ["p", "p"]) == 1
    stats = cache.stats()
    assert stats["invalidated"] == 3
    assert stats["evictions"] == 0
    assert stats["entries"] == 3


def test_drop_of_unread_predicates_removes_nothing():
    cache = ResultCache(max_entries=4)
    cache.put("p-walk", 1, ("g", ["p"]))
    cache.put("query", 2, ("h", None))
    assert cache.drop("g", ["q"]) == 0
    # a write that added no triple leaves even whole-store readers
    assert cache.drop("h", []) == 0
    assert cache.get("p-walk") == (True, 1)
    assert cache.get("query") == (True, 2)
    assert cache.invalidated == 0


def test_evicted_and_overwritten_entries_leave_the_scope_index():
    cache = ResultCache(max_entries=2)
    cache.put("a", 1, ("g", ["p"]))
    cache.put("b", 2, ("g", ["p"]))
    cache.put("c", 3, ("g", ["q"]))  # evicts a
    cache.put("b", 20, ("g", ["q"]))  # b now reads q only
    assert cache.drop("g", ["p"]) == 0
    assert cache.drop("g", ["q"]) == 2
    assert len(cache) == 0
    assert cache.evictions == 1 and cache.invalidated == 2
    cache.put("d", 4, ("g", None))
    cache.clear()
    assert cache.drop("g", ["p"]) == 0


# -- the service: scoped keys, drop on write ------------------------------------


def _served(response):
    assert response["ok"], response
    return response["served_from"], response["result"]


def _pq_store():
    return TripleStore(
        [("a", "p", "b"), ("b", "p", "c"), ("a", "q", "c"),
         ("<a>", "<p>", "<b>")]
    )


def _run(coro):
    import asyncio

    return asyncio.run(coro)


def test_a_write_to_another_predicate_keeps_the_walk_cached():
    from repro.service import EmbeddedService

    async def scenario():
        async with EmbeddedService({"g": _pq_store()}) as service:
            ask = {"store": "g", "expr": "p+"}
            first = _served(await service.request("rpq", ask))
            assert first[0] == "engine"
            await service.mutate("g", [("c", "q", "d")])
            again = _served(await service.request("rpq", ask))
            assert again == ("cache", first[1])
            # inverse atoms read their own predicate: ^q is dropped
            inverse = {"store": "g", "expr": "^q"}
            assert _served(await service.request("rpq", inverse))[0] == "engine"
            await service.mutate("g", [("d", "p", "e")])
            assert _served(await service.request("rpq", inverse))[0] == "cache"
            await service.mutate("g", [("e", "q", "f")])
            after = _served(await service.request("rpq", inverse))
            assert after[0] == "engine" and ["f", "e"] in after[1]["pairs"]

    _run(scenario())


def test_a_write_to_the_walked_predicate_recomputes_with_the_new_edge():
    from repro.service import EmbeddedService

    async def scenario():
        async with EmbeddedService({"g": _pq_store()}) as service:
            ask = {"store": "g", "expr": "p+"}
            before = _served(await service.request("rpq", ask))
            assert ["c", "d"] not in before[1]["pairs"]
            await service.mutate("g", [("c", "p", "d")])
            served, after = _served(await service.request("rpq", ask))
            assert served == "engine"
            assert ["c", "d"] in after["pairs"] and ["a", "d"] in after["pairs"]
            assert service.core.cache.stats()["invalidated"] == 1

    _run(scenario())


def test_nullable_all_pairs_walks_and_queries_recompute_after_any_write():
    from repro.service import EmbeddedService

    async def scenario():
        async with EmbeddedService({"g": _pq_store()}) as service:
            star = {"store": "g", "expr": "p*"}
            sourced = {"store": "g", "expr": "p*", "sources": ["a"]}
            text = "SELECT ?x WHERE { ?x <p> ?y }"
            for _ in range(2):
                await service.request("rpq", star)
                await service.request("rpq", sourced)
                await service.query("g", text)
            # a fresh node under an unrelated predicate grows p*'s diagonal
            await service.mutate("g", [("z", "r", "a")])
            served, walk = _served(await service.request("rpq", star))
            assert served == "engine" and ["z", "z"] in walk["pairs"]
            # a sourced nullable walk reads p alone
            assert _served(await service.request("rpq", sourced))[0] == "cache"
            query = await service.request(
                "query", {"store": "g", "query": text}
            )
            assert query["served_from"] == "engine"
            assert service.core.cache.stats()["invalidated"] == 2

    _run(scenario())


def test_a_duplicate_triple_write_drops_nothing():
    from repro.service import EmbeddedService

    async def scenario():
        async with EmbeddedService({"g": _pq_store()}) as service:
            asks = [{"store": "g", "expr": "p+"}, {"store": "g", "expr": "p*"}]
            for params in asks:
                await service.request("rpq", params)
            entries = len(service.core.cache)
            result = await service.mutate("g", [("a", "p", "b")])
            assert result["added"] == 0
            for params in asks:
                assert _served(await service.request("rpq", params))[0] == "cache"
            assert len(service.core.cache) == entries
            assert service.core.cache.stats()["invalidated"] == 0

    _run(scenario())


def test_a_read_overlapping_a_write_to_its_predicate_is_never_served_again(
    monkeypatch,
):
    """Both interleavings on the store's read-write gate: the read runs
    first and caches the old answer under the old key, or waits for the
    write and caches the new answer under the key it derived before the
    write.  Either way the next ask recomputes on the written store."""
    import asyncio
    import threading

    from repro.service import EmbeddedService, ServiceConfig, server

    real_evaluate = server.evaluate_rpq
    ask = {"store": "g", "expr": "p+"}

    async def read_holds_the_gate():
        entered, release = threading.Event(), threading.Event()

        def blocking_evaluate(*args, **kwargs):
            entered.set()
            assert release.wait(10)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(server, "evaluate_rpq", blocking_evaluate)
        config = ServiceConfig(max_workers=2)
        async with EmbeddedService({"g": _pq_store()}, config) as service:
            read = asyncio.ensure_future(service.request("rpq", ask))
            assert await asyncio.to_thread(entered.wait, 10)
            write = asyncio.ensure_future(
                service.mutate("g", [("c", "p", "d")])
            )
            await asyncio.sleep(0.05)  # the write now waits on the gate
            release.set()
            _, old = _served(await read)
            assert (await write)["added"] == 1
            assert ["c", "d"] not in old["pairs"]
            served, new = _served(await service.request("rpq", ask))
            assert served == "engine" and ["c", "d"] in new["pairs"]
        monkeypatch.setattr(server, "evaluate_rpq", real_evaluate)

    async def write_holds_the_gate():
        store = _pq_store()
        entered, release = threading.Event(), threading.Event()
        real_add = store.add

        def blocking_add(s, p, o):
            entered.set()
            assert release.wait(10)
            return real_add(s, p, o)

        store.add = blocking_add
        config = ServiceConfig(max_workers=2)
        async with EmbeddedService({"g": store}, config) as service:
            write = asyncio.ensure_future(
                service.mutate("g", [("c", "p", "d")])
            )
            assert await asyncio.to_thread(entered.wait, 10)
            # keyed before the write lands; runs after it
            read = asyncio.ensure_future(service.request("rpq", ask))
            await asyncio.sleep(0.05)
            release.set()
            assert (await write)["added"] == 1
            _, raced = _served(await read)
            assert ["c", "d"] in raced["pairs"]
            served, new = _served(await service.request("rpq", ask))
            assert served == "engine" and new == raced

    _run(read_holds_the_gate())
    _run(write_holds_the_gate())
