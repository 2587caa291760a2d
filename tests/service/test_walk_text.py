"""A walk's result leaves the engine as sorted JSON text: the service's
raw ``result`` must be byte for byte ``encode_result`` of the answer dict
built from ``evaluate_rpq`` — for nullable expressions, target filters
with unknown names, sources outside the graph, names JSON must escape,
more than 64 productive sources, mapped images, and walks interleaved
with (or racing) writes that add nodes."""

import asyncio
import random

from repro.graphs.paths import evaluate_rpq
from repro.graphs.rdf import TripleStore
from repro.regex.parser import parse as parse_regex
from repro.service import EmbeddedService, ServiceConfig
from repro.service.protocol import EncodedResult, encode_result, request

#: a quote, a backslash, a control character, an accented letter,
#: U+2028 and an astral character
ESCAPED = ['q"uote', "back\\slash", "ctl\x01", "café", "ls\u2028", "astral\U0001d548"]

#: a chain, acyclic non-chains, cyclic plans; nullable ones among each
EXPRS = [
    "p", "p ^q", "p?", "p | q", "(p | q) p", "p q? p", "p* q", "(p q)* p",
    "p*", "(p | q)*",
]


def run(coro):
    return asyncio.run(coro)


def escaped_store(seed: int, nodes: int = 14, edges: int = 80) -> TripleStore:
    rng = random.Random(seed)
    names = ESCAPED + [f"v{i}" for i in range(nodes)]
    store = TripleStore()
    for _ in range(edges):
        store.add(rng.choice(names), rng.choice("pq"), rng.choice(names))
    return store


def expected_text(store, expr, sources=None, targets=None) -> str:
    pairs = evaluate_rpq(store, parse_regex(expr, multi_char=True), sources, targets)
    return encode_result(
        {"semantics": "walk", "pairs": sorted(pairs), "count": len(pairs)}
    )


async def walk_text(service, expr, sources=None, targets=None) -> str:
    params = {"store": "g", "expr": expr}
    if sources is not None:
        params["sources"] = sources
    if targets is not None:
        params["targets"] = targets
    response = await service.core.handle(request("t", "rpq", params))
    assert response["ok"], response
    result = response["result"]
    assert isinstance(result, EncodedResult)
    return result


async def assert_walks_match(service, store, cases):
    for expr, sources, targets in cases:
        got = await walk_text(service, expr, sources, targets)
        assert got == expected_text(store, expr, sources, targets), (
            expr,
            sources,
            targets,
        )


def walk_cases(nodes):
    outside = ["", "ghost", "zz"]
    cases = []
    for expr in EXPRS:
        cases.append((expr, None, None))
        cases.append((expr, nodes[:3] + outside + nodes[:1], None))
        cases.append((expr, None, nodes[2:7] + ["ghost"]))
        cases.append((expr, outside + nodes[4:6], ["ghost", "zz"] + nodes[:4]))
    return cases


def test_walk_text_is_the_encoded_answer():
    store = escaped_store(1)
    nodes = sorted(store.nodes())

    async def scenario():
        async with EmbeddedService({"g": store}) as service:
            await assert_walks_match(service, store, walk_cases(nodes))

    run(scenario())


def test_walk_text_with_more_than_64_productive_sources():
    store = escaped_store(2, nodes=200, edges=600)
    plan_sources = {s for s, p, _o in store.triples() if p == "p"}
    assert len(plan_sources) > 64

    async def scenario():
        async with EmbeddedService({"g": store}) as service:
            await assert_walks_match(
                service, store, [(expr, None, None) for expr in EXPRS]
            )

    run(scenario())


def test_walk_text_over_a_mapped_image(tmp_path):
    store = escaped_store(3)
    path = tmp_path / "store.img"
    store.save(path)
    nodes = sorted(store.nodes())

    async def scenario():
        async with EmbeddedService({"g": str(path)}) as service:
            await assert_walks_match(service, store, walk_cases(nodes))

    run(scenario())


def test_walks_interleaved_with_writes_that_add_nodes():
    store = escaped_store(4)
    mirror = TripleStore(store.triples())
    rng = random.Random(4)

    async def scenario():
        async with EmbeddedService({"g": store}) as service:
            for step in range(30):
                name = f"{rng.choice(ESCAPED + ['a', 'zz'])}{step}"
                triple = (name, rng.choice("pq"), rng.choice(sorted(mirror.nodes())))
                await service.mutate("g", [triple])
                mirror.add(*triple)
                expr = rng.choice(EXPRS)
                await assert_walks_match(
                    service,
                    mirror,
                    [(expr, None, None), ("p*", [name, "ghost"], None)],
                )

    run(scenario())


def test_two_walking_threads_while_a_third_writes():
    """Three scheduler workers, no cache: the two walks of each round
    share the store's read gate while a write that adds nodes waits for
    it or runs first.  Every answer is the encoded answer over one of
    the store's states."""
    store = escaped_store(5)
    mirror = TripleStore(store.triples())
    rng = random.Random(5)
    # nullable, so every added node changes the all-pairs answer
    exprs = ["p*", "(p | q)*"]

    async def scenario():
        config = ServiceConfig(max_workers=3, cache_entries=0)
        async with EmbeddedService({"g": store}, config) as service:
            before = [expected_text(mirror, expr) for expr in exprs]
            for step in range(25):
                triple = (f"{rng.choice(ESCAPED)}{step}", "q", rng.choice(ESCAPED))
                mirror.add(*triple)
                after = [expected_text(mirror, expr) for expr in exprs]
                walks = [walk_text(service, expr) for expr in exprs]
                texts = await asyncio.gather(
                    *walks, service.mutate("g", [triple])
                )
                for index, expr in enumerate(exprs):
                    assert texts[index] in (before[index], after[index]), (
                        step,
                        expr,
                    )
                before = after

    run(scenario())
