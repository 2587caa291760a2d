"""The typed (wire v2) request/response layer: dataclass round-trips,
strict request decoding, legacy (v1) rejection, the ``open_service``
factory, and typed store-registration failures."""

import asyncio

import pytest

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    ServiceError,
    StoreUnavailableError,
)
from repro.graphs.rdf import TripleStore
from repro.service import (
    EmbeddedService,
    ReproServer,
    ServiceClient,
    open_service,
)
from repro.service.protocol import (
    WIRE_VERSION,
    BatteryRequest,
    ErrorResponse,
    LogBatteryRequest,
    MutateRequest,
    PingRequest,
    QueryRequest,
    Request,
    RpqRequest,
    RpqResponse,
    SparqlRequest,
    SparqlResponse,
    StatsRequest,
    StatsResponse,
    error_from_response,
    error_response,
    parse_response,
)


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


# -- dataclass wire round-trips -----------------------------------------------


@pytest.mark.parametrize(
    "request_obj",
    [
        PingRequest(id="r1"),
        StatsRequest(id="r2", deadline_ms=50.0),
        RpqRequest(
            id="r3",
            store="g",
            expr="p p*",
            semantics="trail",
            source="a",
            target="c",
        ),
        RpqRequest(
            id="r4", store="g", expr="p", sources=["a"], targets=["b", "c"]
        ),
        SparqlRequest(id="r5", query="SELECT ?x WHERE { ?x ?p ?y }"),
        QueryRequest(
            id="r5q", store="g", query="SELECT ?x WHERE { ?x <p> ?y }"
        ),
        LogBatteryRequest(id="r6", query="ASK { ?s ?p ?o }"),
        BatteryRequest(id="r7", queries=["ASK { ?s ?p ?o }"], source="t"),
        MutateRequest(id="r8", store="g", triples=[["x", "p", "y"]]),
    ],
)
def test_request_wire_round_trip(request_obj):
    wire = request_obj.to_wire()
    assert wire["v"] == WIRE_VERSION
    assert wire["op"] == type(request_obj).op
    assert Request.parse(wire) == request_obj


def test_request_params_omit_unset_fields():
    wire = RpqRequest(id="r", store="g", expr="p").to_wire()
    assert wire["params"] == {"store": "g", "expr": "p", "semantics": "walk"}
    assert "deadline_ms" not in wire


def test_unknown_request_params_are_rejected():
    wire = {
        "v": WIRE_VERSION,
        "id": "r",
        "op": "rpq",
        "params": {"store": "g", "expr": "p", "bogus": 1},
    }
    with pytest.raises(BadRequest, match="bogus"):
        Request.parse(wire)


def test_unknown_op_is_rejected():
    with pytest.raises(BadRequest, match="no-such-op"):
        Request.parse(
            {"v": WIRE_VERSION, "id": "r", "op": "no-such-op", "params": {}}
        )


def test_typed_response_parsing_is_lenient_and_typed():
    envelope = {
        "v": WIRE_VERSION,
        "id": "r",
        "ok": True,
        "served_from": "engine",
        "result": {"semantics": "walk", "pairs": [["a", "b"]], "count": 1},
    }
    response = parse_response("rpq", envelope)
    assert isinstance(response, RpqResponse)
    assert response.count == 1
    assert response.served_from == "engine"
    # unknown result fields must not break older clients
    envelope["result"]["future_field"] = True
    assert isinstance(parse_response("rpq", envelope), RpqResponse)


def test_error_envelope_parses_to_error_response():
    envelope = error_response("r", "store_unavailable", "image gone")
    response = parse_response("rpq", envelope)
    assert isinstance(response, ErrorResponse)
    assert response.code == "store_unavailable"
    exc = response.to_exception()
    assert isinstance(exc, StoreUnavailableError)
    assert "image gone" in str(exc)


def test_error_from_response_reconstructs_store_unavailable():
    exc = error_from_response(
        error_response("r", "store_unavailable", "no image at /x.img")
    )
    assert isinstance(exc, StoreUnavailableError)
    assert isinstance(exc, ServiceError)


# -- server-side encoding (v2 only; v1 rejected) ------------------------------


def test_loose_and_typed_requests_get_identical_results():
    async def scenario():
        store = small_store()
        async with EmbeddedService({"g": store}) as service:
            # request() builds a loose dict but stamps the v2 version,
            # so it stays on the accepted encoding
            loose = await service.request(
                "rpq", {"store": "g", "expr": "p p*"}
            )
            typed = await service.send(
                RpqRequest(store="g", expr="p p*")
            )
            assert loose["ok"]
            assert loose["v"] == WIRE_VERSION
            assert isinstance(typed, RpqResponse)
            assert typed.pairs == loose["result"]["pairs"]
            assert typed.count == loose["result"]["count"]
            raw_typed = await service.request_message(
                RpqRequest(id="x1", store="g", expr="p p*").to_wire()
            )
            assert raw_typed["v"] == WIRE_VERSION

    run(scenario())


def test_legacy_v1_requests_are_rejected_with_an_upgrade_hint():
    async def scenario():
        store = small_store()
        async with EmbeddedService({"g": store}) as service:
            for _ in range(2):
                response = await service.request_message(
                    {"op": "ping", "params": {}}
                )
                assert not response["ok"]
                assert response["error"]["code"] == "bad_request"
                assert '"v": 2' in response["error"]["message"]
                # the rejection itself answers in the current encoding
                assert response["v"] == WIRE_VERSION
            await service.send(PingRequest())
            stats = await service.stats()
            # the counter survives as a rejected-v1 straggler signal
            assert stats["metrics"]["legacy_requests"] == 2

    run(scenario())


def test_unsupported_wire_version_is_a_bad_request():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            response = await service.request_message(
                {"v": 99, "id": "r", "op": "ping", "params": {}}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "bad_request"

    run(scenario())


def test_typed_requests_are_strict_over_the_full_stack():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            response = await service.request_message(
                {
                    "v": WIRE_VERSION,
                    "id": "r",
                    "op": "rpq",
                    "params": {"store": "g", "expr": "p", "junk": 1},
                }
            )
            assert not response["ok"]
            assert response["error"]["code"] == "bad_request"
            # the same params without the junk go through fine
            good = await service.request(
                "rpq", {"store": "g", "expr": "p"}
            )
            assert good["ok"]

    run(scenario())


def test_typed_stats_response_over_tcp():
    async def scenario():
        async with ReproServer({"g": small_store()}) as server:
            host, port = server.address
            client = await open_service((host, port))
            try:
                response = await client.send(StatsRequest())
                assert isinstance(response, StatsResponse)
                assert "g" in response.stores
                sparql = await client.send(
                    SparqlRequest(query="SELECT ?x WHERE { ?x ?p ?y }")
                )
                assert isinstance(sparql, SparqlResponse)
                assert sparql.valid is True
            finally:
                await client.close()

    run(scenario())


def test_typed_wrappers_raise_typed_errors():
    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            with pytest.raises(BadRequest):
                await service.rpq("missing-store", "p")
            with pytest.raises(BadRequest):
                await service.sparql("x", deadline_ms=-1)

    run(scenario())


# -- ill-typed parameters ------------------------------------------------------

#: op -> well-typed params (each must answer)
WELL_TYPED = {
    "ping": {},
    "stats": {},
    "rpq": {"store": "g", "expr": "p", "sources": ["a"], "targets": ["b"]},
    "sparql": {"query": "ASK { ?s ?p ?o }"},
    "query": {"store": "g", "query": "ASK { ?s <p> ?o }"},
    "log": {"query": "ASK { ?s ?p ?o }"},
    "battery": {"queries": ["ASK { ?s ?p ?o }"], "source": "t", "store": "g"},
    "validate": {
        "schema_kind": "edtd",
        "rules": {"t": "(u)*", "u": ""},
        "start": ["t"],
        "mu": {"t": "$", "u": "x"},
        "document": '{"x": 1}',
        "format": "json",
    },
    "mutate": {"store": "g", "triples": [["x", "p", "y"]]},
}

TRAIL = {
    "store": "g", "expr": "p", "semantics": "trail", "source": "a", "target": "c"
}
EVENTS = {
    "rules": {"r": ""}, "start": ["r"], "events": [["start", "r"], ["end", "r"]]
}

#: (op, well-typed params, field, one wrong-typed value for it)
ILL_TYPED = [
    ("rpq", WELL_TYPED["rpq"], "store", 5),
    ("rpq", WELL_TYPED["rpq"], "expr", ["p"]),
    ("rpq", WELL_TYPED["rpq"], "semantics", "zigzag"),
    ("rpq", WELL_TYPED["rpq"], "semantics", True),
    # a walk ignores 'source', but an ill-typed one is still refused
    ("rpq", WELL_TYPED["rpq"], "source", 5),
    ("rpq", WELL_TYPED["rpq"], "target", 5),
    ("rpq", WELL_TYPED["rpq"], "sources", "a"),
    ("rpq", WELL_TYPED["rpq"], "targets", [None]),
    ("rpq", TRAIL, "source", ["a"]),
    ("rpq", TRAIL, "target", 3),
    ("sparql", WELL_TYPED["sparql"], "query", 7),
    ("query", WELL_TYPED["query"], "store", None),
    ("query", WELL_TYPED["query"], "query", {"text": "ASK {}"}),
    ("log", WELL_TYPED["log"], "query", 1.5),
    ("battery", WELL_TYPED["battery"], "queries", "ASK { ?s ?p ?o }"),
    ("battery", WELL_TYPED["battery"], "queries", [1]),
    ("battery", WELL_TYPED["battery"], "source", 3),
    ("battery", WELL_TYPED["battery"], "store", 4),
    ("validate", WELL_TYPED["validate"], "schema_kind", "relaxng"),
    ("validate", WELL_TYPED["validate"], "rules", ["t"]),
    ("validate", WELL_TYPED["validate"], "rules", {"t": 1}),
    ("validate", WELL_TYPED["validate"], "start", "t"),
    ("validate", WELL_TYPED["validate"], "mu", {"t": 2}),
    ("validate", WELL_TYPED["validate"], "document", 5),
    ("validate", WELL_TYPED["validate"], "format", "yaml"),
    ("validate", EVENTS, "events", "start r"),
    ("mutate", WELL_TYPED["mutate"], "store", 1),
    ("mutate", WELL_TYPED["mutate"], "triples", "x p y"),
    ("mutate", WELL_TYPED["mutate"], "triples", [["x", "p"]]),
    ("mutate", WELL_TYPED["mutate"], "triples", [["x", "p", 3]]),
] + [
    # the envelope's deadline: a bool is not a number, and it is positive
    (op, WELL_TYPED[op], "deadline_ms", value)
    for op, value in (
        ("ping", True),
        ("rpq", False),
        ("sparql", "10"),
        ("stats", -1),
        ("log", 0),
        ("mutate", float("nan")),
        ("query", 10**400),
    )
]


def test_ill_typed_parameters_are_bad_requests_embedded_and_over_tcp():
    async def check(service):
        well_typed = [*WELL_TYPED.items(), ("rpq", TRAIL), ("validate", EVENTS)]
        for op, params in well_typed:
            response = await service.request(op, params, deadline_ms=60_000)
            assert response["ok"], (op, params, response)
        for op, params, name, value in ILL_TYPED:
            if name == "deadline_ms":
                response = await service.request(op, params, deadline_ms=value)
            else:
                response = await service.request(op, {**params, name: value})
            case = (op, name, value)
            assert not response["ok"], case
            assert response["error"]["code"] == "bad_request", case
            assert repr(name) in response["error"]["message"]

    async def scenario():
        async with EmbeddedService({"g": small_store()}) as service:
            await check(service)
        async with ReproServer({"g": small_store()}) as server:
            client = await open_service(server.address)
            try:
                await check(client)
            finally:
                await client.close()

    run(scenario())


# -- open_service factory -----------------------------------------------------


def test_open_service_embedded_from_a_stores_dict():
    async def scenario():
        service = await open_service({"g": small_store()})
        assert isinstance(service, EmbeddedService)
        try:
            assert (await service.ping())["pong"] is True
        finally:
            await service.close()

    run(scenario())


def test_open_service_tcp_from_host_port_string_and_tuple():
    async def scenario():
        async with ReproServer({"g": small_store()}) as server:
            host, port = server.address
            for target in (f"{host}:{port}", (host, port)):
                client = await open_service(target)
                assert isinstance(client, ServiceClient)
                try:
                    result = await client.rpq("g", "p")
                    assert result["count"] >= 1
                finally:
                    await client.close()

    run(scenario())


def test_open_service_rejects_malformed_targets():
    async def scenario():
        with pytest.raises(ValueError):
            await open_service("no-port-here")
        with pytest.raises(TypeError):
            await open_service(42)

    run(scenario())


# -- typed store-registration failures ----------------------------------------


def test_missing_image_path_raises_store_unavailable(tmp_path):
    with pytest.raises(StoreUnavailableError):
        EmbeddedService({"g": tmp_path / "nothing.img"})


def test_corrupt_image_raises_store_unavailable(tmp_path):
    bogus = tmp_path / "corrupt.img"
    bogus.write_bytes(b"REPROIMG trailing garbage that is not an image")
    with pytest.raises(StoreUnavailableError):
        EmbeddedService({"g": bogus})


def test_store_unavailable_round_trips_the_wire_encoding(tmp_path):
    # the registration failure's code is in ERROR_TYPES, so a remote
    # client reconstructs the same exception type from the envelope
    try:
        EmbeddedService({"g": tmp_path / "nothing.img"})
    except StoreUnavailableError as exc:
        envelope = error_response("r", exc.code, str(exc))
        rebuilt = error_from_response(envelope)
        assert isinstance(rebuilt, StoreUnavailableError)
        assert str(rebuilt) == str(exc)
    else:
        pytest.fail("registration over a missing image must fail")
