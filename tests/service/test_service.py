"""End-to-end behavior of the embedded service: correctness against
direct library calls, caching semantics, and every degradation path.

The worker-blocking tests hold a store's write gate from a test thread,
which deterministically parks any engine execution over that store —
no sleep-based races."""

import asyncio
import threading

import pytest

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    ServiceOverloaded,
)
from repro.graphs.paths import evaluate_rpq, exists_simple_path, exists_trail
from repro.graphs.rdf import TripleStore
from repro.logs.analyzer import encode_analysis
from repro.regex.parser import MAX_NESTING, parse as parse_regex
from repro.service import EmbeddedService, ServiceConfig
from repro.sparql.features import operator_set
from repro.sparql.parser import parse_query
from repro.sparql.serialize import serialize_query
from repro.testing.reference import analyze_query


def run(coro):
    return asyncio.run(coro)


def small_store() -> TripleStore:
    return TripleStore(
        [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "q", "a"),
            ("b", "q", "d"),
        ]
    )


class GateHold:
    """Hold a store's write gate from a thread: every engine read over
    that store blocks until :meth:`release`."""

    def __init__(self, core, store_name: str):
        self._gate = core._gates[store_name]
        self._event = threading.Event()
        self._entered = threading.Event()

        def hold():
            def wait():
                self._entered.set()
                assert self._event.wait(timeout=10.0)

            self._gate.write(wait)

        self._thread = threading.Thread(target=hold, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._entered.wait(timeout=5.0)
        return self

    def release(self):
        self._event.set()
        self._thread.join(timeout=5.0)

    def __exit__(self, *exc_info):
        self.release()


# -- correctness against direct library calls -----------------------------------


def test_rpq_walk_equals_direct_engine_call():
    async def scenario():
        store = small_store()
        async with EmbeddedService({"g": store}) as service:
            result = await service.rpq("g", "p p* q?")
            expected = evaluate_rpq(
                store, parse_regex("p p* q?", multi_char=True)
            )
            assert result["pairs"] == sorted(list(p) for p in expected)
            assert result["count"] == len(expected)

    run(scenario())


def test_rpq_filtered_sources_targets():
    async def scenario():
        store = small_store()
        async with EmbeddedService({"g": store}) as service:
            result = await service.rpq(
                "g", "p*", sources=["a"], targets=["c", "a"]
            )
            expected = evaluate_rpq(
                store,
                parse_regex("p*", multi_char=True),
                sources=["a"],
                targets=["c", "a"],
            )
            assert result["pairs"] == sorted(list(p) for p in expected)

    run(scenario())


def test_rpq_simple_and_trail_semantics():
    async def scenario():
        store = small_store()
        async with EmbeddedService({"g": store}) as service:
            expr = parse_regex("p p q", multi_char=True)
            simple = await service.rpq(
                "g", "p p q", "simple", source="a", target="d"
            )
            assert simple["exists"] == exists_simple_path(
                store, expr, "a", "d"
            )
            trail = await service.rpq(
                "g", "p p q", "trail", source="a", target="d"
            )
            assert trail["exists"] == exists_trail(store, expr, "a", "d")

    run(scenario())


def test_sparql_analysis_matches_library():
    async def scenario():
        text = (
            "SELECT ?x WHERE { ?x :p ?y . OPTIONAL { ?y :q ?z } "
            "FILTER(?x != ?z) }"
        )
        async with EmbeddedService() as service:
            result = await service.sparql(text)
            query = parse_query(text)
            assert result["valid"] is True
            assert result["canonical"] == serialize_query(query)
            assert result["operators"] == sorted(operator_set(query))
            assert "Optional" in result["operators"]

    run(scenario())


def test_log_battery_record_matches_encode_analysis():
    async def scenario():
        text = "SELECT ?x ?y WHERE { ?x :p/:q* ?y }"
        async with EmbeddedService() as service:
            result = await service.log_battery(text)
            assert result["valid"] is True
            assert result["record"] == encode_analysis(
                analyze_query(parse_query(text))
            )

    run(scenario())


def test_invalid_sparql_is_a_result_not_an_error():
    async def scenario():
        async with EmbeddedService() as service:
            assert (await service.sparql("SELECT WHERE {"))["valid"] is False
            log = await service.log_battery("not sparql at all")
            assert log == {
                "valid": False,
                "record": None,
                "reason": log["reason"],
            }

    run(scenario())


# -- request validation ----------------------------------------------------------


def test_bad_requests_are_typed():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            with pytest.raises(BadRequest, match="unknown store"):
                await service.rpq("nope", "p")
            with pytest.raises(BadRequest, match="unparseable"):
                await service.rpq("g", "((p")
            with pytest.raises(BadRequest, match="semantics"):
                await service.rpq("g", "p", "zigzag")
            with pytest.raises(BadRequest, match="source"):
                await service.rpq("g", "p", "simple")
            with pytest.raises(BadRequest, match="query"):
                await service.call("sparql", {"query": 7})
            with pytest.raises(BadRequest, match="unknown operation"):
                await service.call("frobnicate")
            with pytest.raises(BadRequest, match="deadline_ms"):
                await service.call("ping", deadline_ms=-5)

    run(scenario())


def test_rpq_nesting_bound_is_a_bad_request():
    # deeper expressions used to overflow the parser's stack and answer
    # "internal"; the parser's nesting bound makes them bad requests
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            for nested in (
                lambda n: "(" * n + "p" + ")" * n,
                lambda n: "p" + "*" * n,
                lambda n: "(" * n + "p" + " q | p)" * n,
            ):
                for semantics, ends in (
                    ("walk", {}),
                    ("simple", {"source": "a", "target": "d"}),
                    ("trail", {"source": "a", "target": "d"}),
                ):
                    await service.rpq("g", nested(MAX_NESTING), semantics, **ends)
                    with pytest.raises(BadRequest, match="nests deeper"):
                        await service.rpq(
                            "g", nested(MAX_NESTING + 1), semantics, **ends
                        )
            with pytest.raises(BadRequest, match="nests deeper"):
                await service.rpq("g", "p" + "*" * 3000)

    run(scenario())


def test_every_response_carries_the_request_id():
    async def scenario():
        async with EmbeddedService() as service:
            good = await service.request("ping")
            bad = await service.request("nope")
            assert good["id"] and bad["id"]
            assert good["id"] != bad["id"]

    run(scenario())


# -- caching semantics -----------------------------------------------------------


def test_second_identical_request_is_served_from_cache():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            first = await service.request(
                "rpq", {"store": "g", "expr": "p p*"}
            )
            second = await service.request(
                "rpq", {"store": "g", "expr": "p p*"}
            )
            assert first["served_from"] == "engine"
            assert second["served_from"] == "cache"
            assert first["result"] == second["result"]
            assert service.core.scheduler.executed == 1

    run(scenario())


def test_callers_mutating_a_result_cannot_alter_the_cached_answer():
    async def scenario():
        store = TripleStore([("a", "p", "b"), ("b", "p", "c")])
        async with EmbeddedService({"g": store}) as service:
            first = await service.request(
                "rpq", {"store": "g", "expr": "p p"}
            )
            first["result"]["pairs"].clear()
            first["result"]["count"] = 99
            second = await service.request(
                "rpq", {"store": "g", "expr": "p p"}
            )
            assert second["served_from"] == "cache"
            assert second["result"]["pairs"] == [["a", "c"]]
            assert second["result"]["count"] == 1

    run(scenario())


def test_callers_mutating_an_analysis_cannot_alter_the_cached_answer():
    async def scenario():
        async with EmbeddedService({}) as service:
            text = "SELECT DISTINCT ?x WHERE { ?x :p ?y } LIMIT 5"
            analysis = await service.sparql(text)
            features = list(analysis["features"])
            assert features
            analysis["features"].clear()
            again = await service.request("sparql", {"query": text})
            assert again["served_from"] == "cache"
            assert again["result"]["features"] == features

    run(scenario())


def test_formatting_noise_shares_a_cache_entry():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            await service.request("rpq", {"store": "g", "expr": "p  p*"})
            response = await service.request(
                "rpq", {"store": "g", "expr": "p (p)*"}
            )
            assert response["served_from"] == "cache"
            # sparql: whitespace-normalized text is the canonical form
            await service.request(
                "sparql", {"query": "SELECT ?x WHERE { ?x :p ?y }"}
            )
            response = await service.request(
                "sparql", {"query": "SELECT ?x  WHERE  { ?x :p ?y }"}
            )
            assert response["served_from"] == "cache"

    run(scenario())


def test_cache_hit_after_store_mutation_must_miss():
    async def scenario():
        store = small_store()
        async with EmbeddedService({"g": store}) as service:
            before = await service.request(
                "rpq", {"store": "g", "expr": "p*"}
            )
            assert before["served_from"] == "engine"
            await service.mutate("g", [("c", "p", "e")])
            after = await service.request(
                "rpq", {"store": "g", "expr": "p*"}
            )
            assert after["served_from"] == "engine"  # NOT cache
            assert after["result"]["count"] > before["result"]["count"]
            expected = evaluate_rpq(store, parse_regex("p*"))
            assert after["result"]["pairs"] == sorted(
                list(p) for p in expected
            )
            # the pre-mutation entry is unreachable, not wrong: asking
            # again now hits the *new* entry
            again = await service.request(
                "rpq", {"store": "g", "expr": "p*"}
            )
            assert again["served_from"] == "cache"
            assert again["result"] == after["result"]

    run(scenario())


def test_semantics_do_not_share_cache_entries():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            await service.rpq("g", "p", "simple", source="a", target="b")
            trail = await service.request(
                "rpq",
                {
                    "store": "g",
                    "expr": "p",
                    "semantics": "trail",
                    "source": "a",
                    "target": "b",
                },
            )
            assert trail["served_from"] == "engine"

    run(scenario())


# -- degradation paths -----------------------------------------------------------


def test_queue_full_shedding_returns_typed_overload():
    async def scenario():
        store = small_store()
        config = ServiceConfig(max_workers=1, max_queue=1)
        async with EmbeddedService({"g": store}, config) as service:
            with GateHold(service.core, "g") as hold:
                blocked = asyncio.ensure_future(
                    service.rpq("g", "p p p")
                )
                queued = asyncio.ensure_future(service.rpq("g", "q q"))
                await asyncio.sleep(0.1)
                with pytest.raises(ServiceOverloaded):
                    await service.rpq("g", "q p q")
                shed_stats = service.core.metrics.endpoint("rpq").shed
                assert shed_stats == 1
                hold.release()
                # both admitted requests still answer correctly
                blocked_result, queued_result = await asyncio.gather(
                    blocked, queued
                )
                assert blocked_result["pairs"] == sorted(
                    list(p)
                    for p in evaluate_rpq(store, parse_regex("p p p"))
                )
                assert queued_result["pairs"] == sorted(
                    list(p) for p in evaluate_rpq(store, parse_regex("q q"))
                )

    run(scenario())


def test_deadline_expiry_mid_query_is_structured_and_non_poisoning():
    async def scenario():
        store = small_store()
        config = ServiceConfig(max_workers=1, max_queue=4)
        async with EmbeddedService({"g": store}, config) as service:
            with GateHold(service.core, "g") as hold:
                with pytest.raises(DeadlineExceeded):
                    await service.rpq("g", "p p*", deadline_ms=80)
                metrics = service.core.metrics.endpoint("rpq")
                assert metrics.timeouts == 1
                hold.release()
            # the overrunning execution completed in the background,
            # freed its worker, and even populated the result cache
            await asyncio.sleep(0.1)
            response = await service.request(
                "rpq", {"store": "g", "expr": "p p*"}
            )
            assert response["ok"]
            assert response["served_from"] == "cache"
            assert response["result"]["pairs"] == sorted(
                list(p) for p in evaluate_rpq(store, parse_regex("p p*"))
            )
            assert service.core.scheduler.overruns == 1

    run(scenario())


def test_concurrent_identical_requests_collapse_to_one_execution():
    async def scenario():
        store = small_store()
        config = ServiceConfig(max_workers=2, max_queue=16)
        async with EmbeddedService({"g": store}, config) as service:
            with GateHold(service.core, "g") as hold:
                requests = [
                    asyncio.ensure_future(
                        service.request(
                            "rpq", {"store": "g", "expr": "p* q"}
                        )
                    )
                    for _ in range(6)
                ]
                await asyncio.sleep(0.1)
                hold.release()
                responses = await asyncio.gather(*requests)
            expected = sorted(
                list(p) for p in evaluate_rpq(store, parse_regex("p* q"))
            )
            for response in responses:
                assert response["ok"]
                assert response["result"]["pairs"] == expected
            assert service.core.scheduler.executed == 1
            metrics = service.core.metrics.endpoint("rpq")
            assert metrics.coalesced == 5
            assert metrics.cache_misses == 6

    run(scenario())


def test_stats_endpoint_reports_everything():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            await service.rpq("g", "p")
            await service.rpq("g", "p")
            await service.sparql("SELECT ?x WHERE { ?x :p ?y }")
            stats = await service.stats()
            endpoints = stats["metrics"]["endpoints"]
            assert endpoints["rpq"]["requests"] == 2
            assert endpoints["rpq"]["cache_hits"] == 1
            assert endpoints["sparql"]["ok"] == 1
            assert stats["cache"]["entries"] == 2
            assert stats["scheduler"]["executed"] == 2
            assert stats["stores"]["g"]["triples"] == 4
            assert "p99_ms" in endpoints["rpq"]["latency"]

    run(scenario())


def test_mutation_respects_admission_control():
    async def scenario():
        config = ServiceConfig(max_workers=1, max_queue=0)
        async with EmbeddedService(
            {"g": small_store()}, config
        ) as service:
            with GateHold(service.core, "g") as hold:
                blocked = asyncio.ensure_future(service.rpq("g", "p"))
                await asyncio.sleep(0.1)
                with pytest.raises(ServiceOverloaded):
                    await service.mutate("g", [("x", "p", "y")])
                hold.release()
                await blocked

    run(scenario())
