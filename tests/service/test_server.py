"""The TCP front-end: framing over real sockets, response
multiplexing, and connection-level degradation (disconnects, garbage
bytes, overload over the wire)."""

import asyncio
import struct
import threading

import pytest

from repro.errors import ResponseTooLarge, ServiceOverloaded, StoreFrozenError
from repro.graphs.paths import evaluate_rpq
from repro.graphs.rdf import TripleStore
from repro.regex.parser import parse as parse_regex
from repro.service import EmbeddedService, ReproServer, ServiceConfig, connect


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
    """Hold a store's write gate from a thread so engine work over
    that store blocks deterministically (same trick as
    test_service.py, reaching through server.core)."""

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


def test_tcp_round_trip_matches_direct_engine_call():
    async def scenario():
        store = small_store()
        async with ReproServer({"g": store}) as server:
            host, port = server.address
            async with await connect(host, port) as client:
                assert (await client.ping())["pong"] is True
                result = await client.rpq("g", "p p* q")
                expected = evaluate_rpq(
                    store, parse_regex("p p* q", multi_char=True)
                )
                assert result["pairs"] == sorted(
                    list(p) for p in expected
                )

    run(scenario())


def parity_store() -> TripleStore:
    """Plain names for RPQs, bracketed ones for SPARQL evaluation."""
    return TripleStore(
        [
            *small_store().triples(),
            ("<a>", "<p>", "<b>"),
            ("<b>", "<p>", "<c>"),
            ("<b>", "<name>", '"café ≤ ☃"'),
        ]
    )


PARITY_REQUESTS = [
    ("rpq", {"store": "g", "expr": "p p* q?"}),
    ("rpq", {"store": "g", "expr": "p*", "sources": ["a", "b"]}),
    (
        "rpq",
        {
            "store": "g",
            "expr": "p p q",
            "semantics": "simple",
            "source": "a",
            "target": "d",
        },
    ),
    (
        "rpq",
        {
            "store": "g",
            "expr": "p q",
            "semantics": "trail",
            "source": "a",
            "target": "d",
        },
    ),
    ("query", {"store": "g", "query": "SELECT ?x ?y WHERE { ?x <p>+ ?y }"}),
    (
        "query",
        {"store": "g", "query": 'SELECT ?x WHERE { ?x <name> "café ≤ ☃" }'},
    ),
    (
        "query",
        {
            "store": "g",
            "query": "CONSTRUCT { ?y <n> ?v } WHERE { ?y <name> ?v }",
        },
    ),
    ("sparql", {"query": 'SELECT ?x WHERE { ?x :label "naïve ☃" } LIMIT 3'}),
    ("log", {"query": "SELECT ?x ?y WHERE { ?x :p/:q* ?y }"}),
    (
        "validate",
        {
            "rules": {"r": "(a|b)*", "a": "(b?)", "b": ""},
            "start": ["r"],
            "document": "<r><a><b/></a><b/></r>",
        },
    ),
]


def test_tcp_and_embedded_answers_are_equal_on_engine_and_cache():
    async def scenario():
        async with ReproServer(
            {"g": parity_store()}
        ) as server, EmbeddedService({"g": parity_store()}) as embedded:
            host, port = server.address
            async with await connect(host, port) as client:
                for served_from in ("engine", "cache"):
                    for op, params in PARITY_REQUESTS:
                        wire = await client.request(op, params)
                        local = await embedded.request(op, params)
                        assert wire["ok"] and local["ok"], (op, params)
                        assert wire["served_from"] == served_from
                        assert local["served_from"] == served_from
                        assert wire["result"] == local["result"], (op, params)

    run(scenario())


def test_frozen_image_serves_and_rejects_mutation_typed(tmp_path):
    async def scenario():
        store = small_store()
        image = tmp_path / "g.img"
        store.save(image)
        # registered by path: the server opens the image memory-mapped
        async with ReproServer({"g": str(image)}) as server:
            async with await connect(*server.address) as client:
                result = await client.rpq("g", "p p* q")
                expected = evaluate_rpq(
                    store, parse_regex("p p* q", multi_char=True)
                )
                assert result["pairs"] == sorted(
                    list(p) for p in expected
                )
                stats = await client.stats()
                assert stats["stores"]["g"]["frozen"] is True
                assert (
                    stats["stores"]["g"]["fingerprint"]
                    == store.fingerprint()
                )
                # the typed error must survive the wire round trip as
                # the same exception type an in-process caller gets
                with pytest.raises(StoreFrozenError) as excinfo:
                    await client.mutate("g", [("x", "p", "y")])
                assert excinfo.value.code == "store_frozen"

    run(scenario())


def test_responses_multiplex_out_of_order():
    async def scenario():
        store = small_store()
        async with ReproServer({"g": store}) as server:
            async with await connect(*server.address) as client:
                with GateHold(server.core, "g") as hold:
                    slow = asyncio.ensure_future(client.rpq("g", "p p"))
                    await asyncio.sleep(0.05)
                    # pure-parse work doesn't touch the gated store:
                    # its response overtakes the stalled rpq
                    fast = await client.sparql(
                        "SELECT ?x WHERE { ?x :p ?y }"
                    )
                    assert fast["valid"] is True
                    assert not slow.done()
                    hold.release()
                    assert (await slow)["count"] >= 1

    run(scenario())


def test_many_concurrent_requests_on_one_connection():
    async def scenario():
        store = small_store()
        async with ReproServer({"g": store}) as server:
            async with await connect(*server.address) as client:
                exprs = ["p", "q", "p p", "p*", "q?", "p | q", "p q", "^p"]
                results = await asyncio.gather(
                    *(client.rpq("g", expr) for expr in exprs)
                )
                for expr, result in zip(exprs, results):
                    expected = evaluate_rpq(
                        store, parse_regex(expr, multi_char=True)
                    )
                    assert result["pairs"] == sorted(
                        list(p) for p in expected
                    ), expr

    run(scenario())


def test_cache_and_mutation_visible_across_connections():
    async def scenario():
        async with ReproServer({"g": small_store()}) as server:
            async with await connect(*server.address) as first:
                await first.rpq("g", "p*")
            async with await connect(*server.address) as second:
                response = await second.request(
                    "rpq", {"store": "g", "expr": "p*"}
                )
                assert response["served_from"] == "cache"
                await second.mutate("g", [("d", "p", "a")])
                response = await second.request(
                    "rpq", {"store": "g", "expr": "p*"}
                )
                assert response["served_from"] == "engine"

    run(scenario())


def test_client_disconnect_before_response_leaves_server_healthy():
    async def scenario():
        store = small_store()
        async with ReproServer({"g": store}) as server:
            with GateHold(server.core, "g") as hold:
                client = await connect(*server.address)
                doomed = asyncio.ensure_future(client.rpq("g", "p q"))
                await asyncio.sleep(0.05)
                await client.close()  # walk away mid-request
                with pytest.raises((ConnectionError, Exception)):
                    await doomed
                hold.release()
                await asyncio.sleep(0.15)
            # the admitted work finished anyway: a later client gets
            # the cached result, and the drop was counted, not raised
            async with await connect(*server.address) as client:
                response = await client.request(
                    "rpq", {"store": "g", "expr": "p q"}
                )
                assert response["served_from"] == "cache"
                assert response["result"]["pairs"] == sorted(
                    list(p)
                    for p in evaluate_rpq(
                        store, parse_regex("p q", multi_char=True)
                    )
                )
                stats = await client.stats()
                assert stats["metrics"]["disconnects"] == 1

    run(scenario())


def test_overload_sheds_typed_errors_over_the_wire():
    async def scenario():
        store = small_store()
        config = ServiceConfig(max_workers=1, max_queue=1)
        async with ReproServer({"g": store}, config) as server:
            async with await connect(*server.address) as client:
                with GateHold(server.core, "g") as hold:
                    admitted = [
                        asyncio.ensure_future(client.rpq("g", "p p p")),
                        asyncio.ensure_future(client.rpq("g", "q q q")),
                    ]
                    await asyncio.sleep(0.1)
                    with pytest.raises(ServiceOverloaded):
                        await client.rpq("g", "p q p")
                    hold.release()
                    for result in await asyncio.gather(*admitted):
                        assert result["count"] >= 0

    run(scenario())


def test_garbage_bytes_close_the_connection_not_the_server():
    async def scenario():
        async with ReproServer({"g": small_store()}) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack(">I", 8) + b"not json")
            await writer.drain()
            assert await reader.read() == b""  # server hung up on us
            writer.close()
            # the server itself is unharmed
            async with await connect(host, port) as client:
                assert (await client.ping())["pong"] is True
                stats = await client.stats()
                assert stats["metrics"]["protocol_errors"] == 1

    run(scenario())


def test_oversized_frame_is_rejected_as_protocol_error():
    async def scenario():
        config = ServiceConfig(max_frame_bytes=1024)
        async with ReproServer({"g": small_store()}, config) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack(">I", 1 << 20))
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            async with await connect(host, port) as client:
                stats = await client.stats()
                assert stats["metrics"]["protocol_errors"] == 1

    run(scenario())


def test_answer_past_the_frame_bound_gets_a_typed_error(monkeypatch):
    from repro.service import protocol

    chain = TripleStore([(f"n{i}", "p", f"n{i + 1}") for i in range(40)])
    # p* over the chain answers 861 pairs, far past the lowered bound
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2000)

    async def scenario():
        async with ReproServer({"g": chain}) as server:
            async with await connect(*server.address) as client:
                with pytest.raises(ResponseTooLarge):
                    await asyncio.wait_for(client.rpq("g", "p*"), 5.0)
                # the connection still serves the next request
                assert (await client.rpq("g", "p p"))["count"] == 39
                stats = await client.stats()
                assert stats["metrics"]["responses_too_large"] == 1
                assert stats["metrics"]["protocol_errors"] == 0
                # only the answer that could be sent was cached
                assert stats["cache"]["entries"] == 1

    run(scenario())


def test_embedded_answer_past_the_frame_bound_gets_the_same_typed_error(
    monkeypatch,
):
    from repro.service import protocol

    chain = TripleStore([(f"n{i}", "p", f"n{i + 1}") for i in range(40)])
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2000)

    async def scenario():
        async with EmbeddedService({"g": chain}) as service:
            for _ in range(2):  # never cached, so refused afresh each time
                response = await service.request(
                    "rpq", {"store": "g", "expr": "p*"}
                )
                assert not response["ok"]
                assert response["error"]["code"] == ResponseTooLarge.code
            assert len(service.core.cache) == 0
            assert (await service.rpq("g", "p p"))["count"] == 39
            stats = await service.stats()
            assert stats["metrics"]["responses_too_large"] == 2

    run(scenario())


def test_server_shutdown_fails_pending_client_requests():
    async def scenario():
        store = small_store()
        server = await ReproServer({"g": store}).start()
        client = await connect(*server.address)
        with GateHold(server.core, "g") as hold:
            pending = asyncio.ensure_future(client.rpq("g", "p p"))
            await asyncio.sleep(0.05)
            hold.release()
            await server.stop()
            # either the answer raced out before the close, or the
            # client reports the lost connection — never a hang
            try:
                result = await asyncio.wait_for(pending, 5.0)
                assert result["count"] >= 1
            except (ConnectionError, OSError):
                pass
        await client.close()

    run(scenario())


def test_requests_after_close_are_rejected_locally():
    async def scenario():
        async with ReproServer({"g": small_store()}) as server:
            client = await connect(*server.address)
            await client.close()
            with pytest.raises(ConnectionError):
                await client.ping()

    run(scenario())
