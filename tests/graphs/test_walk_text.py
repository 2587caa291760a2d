"""The walk answer as sorted JSON text (``evaluate_rpq_json``) must be
byte for byte the compact ``json.dumps`` of ``sorted(evaluate_rpq(...))``
— the text the service used to encode from the set of pairs — on every
path through the engine's readout: all pairs and sourced, chain fold,
per-source kernels and the multi-source propagation, nullable
diagonals, target filters, names JSON must escape, mapped images, and a
store that grows between walks."""

import json
import random
import sys
import threading

from repro.graphs.engine import _name_order, _NameOrder, compile_rpq
from repro.graphs.paths import (
    evaluate_rpq,
    evaluate_rpq_json,
    evaluate_rpq_reference,
)
from repro.graphs.rdf import TripleStore
from repro.regex.parser import parse
from repro.store import MappedTripleStore

from .test_engine_equivalence import NFA_ONLY_EXPRS, labeled_powerlaw_store

#: chains, acyclic non-chains, cyclic plans, nullable ones among each
EXPRS = [
    "a", "abc", "a^b", "a?",
    "a+b", "(a+b)c", "ab?c", "a?b?",
    "a*b", "(ab)*c", "(a+b)*", "a*", "(^a)+",
] + NFA_ONLY_EXPRS

#: a quote, a backslash, a control character, an accented letter,
#: U+2028 and an astral character
ESCAPED = ['q"uote', "back\\slash", "ctl\x01", "café", "ls\u2028", "astral\U0001d548"]


def compact(pairs) -> str:
    return json.dumps(sorted(pairs), ensure_ascii=False, separators=(",", ":"))


def assert_text_matches(store, text, sources=None, targets=None):
    expr = parse(text)
    pairs = evaluate_rpq(store, expr, sources, targets)
    assert evaluate_rpq_json(store, expr, sources, targets) == (
        compact(pairs),
        len(pairs),
    ), (text, sources, targets)


def escaped_store(rng: random.Random) -> TripleStore:
    names = ESCAPED + [f"v{i}" for i in range(12)]
    store = TripleStore()
    for _ in range(90):
        store.add(rng.choice(names), rng.choice("abc"), rng.choice(names))
    return store


class TestByteIdentity:
    def test_all_pairs(self):
        store = labeled_powerlaw_store(random.Random(51), 40)
        for text in EXPRS:
            assert_text_matches(store, text)

    def test_nullable_expressions(self):
        store = labeled_powerlaw_store(random.Random(52), 30)
        nodes = sorted(store.nodes())
        for text in ["a?", "a*", "a?b?", "(a+b)*", "(ab)*", "a*b*c*"]:
            assert parse(text).nullable, text
            assert_text_matches(store, text)
            assert_text_matches(store, text, sources=nodes[:5])
            assert_text_matches(store, text, targets=nodes[3:9])

    def test_targets_with_unknown_names(self):
        store = labeled_powerlaw_store(random.Random(53), 30)
        targets = sorted(store.nodes())[:6] + ["ghost", "v999"]
        for text in EXPRS:
            assert_text_matches(store, text, targets=targets)
            assert_text_matches(
                store, text, sources=["v1", "ghost"], targets=targets
            )

    def test_sources_outside_the_graph(self):
        store = labeled_powerlaw_store(random.Random(54), 20)
        # names that sort before, between and after the graph's, twice
        sources = ["", "ghost", "v1", "v10x", "zz", "ghost", "v1"]
        for text in EXPRS:
            assert_text_matches(store, text, sources=sources)
            assert_text_matches(
                store, text, sources=sources, targets=["ghost", "v1", "zz"]
            )

    def test_empty_sources(self):
        store = labeled_powerlaw_store(random.Random(55), 10)
        assert evaluate_rpq_json(store, parse("a*"), sources=[]) == ("[]", 0)

    def test_names_that_need_escaping(self):
        rng = random.Random(56)
        for _trial in range(3):
            store = escaped_store(rng)
            for text in EXPRS:
                assert_text_matches(store, text)
                assert_text_matches(
                    store, text, sources=ESCAPED[:3] + ["g\\host"]
                )
                assert_text_matches(store, text, targets=ESCAPED[2:])

    def test_more_than_64_productive_sources(self):
        store = labeled_powerlaw_store(random.Random(57), 160)
        for text in ["a", "a+b", "(a+b)c", "(a+b)*", "a(^b)*c", NFA_ONLY_EXPRS[0]]:
            plan = compile_rpq(parse(text))
            productive = plan._resolve(store).productive(plan.start_mask)
            assert len(productive) > 64, text
            assert_text_matches(store, text)

    def test_propagation_batches(self, monkeypatch):
        # batches of 5 sources: many batches, the last one short
        from repro.graphs import engine

        monkeypatch.setattr(engine, "_BATCH_SOURCES", 5)
        store = labeled_powerlaw_store(random.Random(62), 50)
        targets = sorted(store.nodes())[::3]
        for text in EXPRS:
            expr = parse(text)
            assert evaluate_rpq(store, expr) == evaluate_rpq_reference(
                store, expr
            ), text
            assert_text_matches(store, text)
            assert_text_matches(store, text, targets=targets)

    def test_mapped_image(self, tmp_path):
        store = escaped_store(random.Random(58))
        path = tmp_path / "store.img"
        store.save(path)
        with MappedTripleStore.load(path) as mapped:
            for text in EXPRS:
                assert evaluate_rpq_json(mapped, parse(text)) == (
                    evaluate_rpq_json(store, parse(text))
                )
                assert_text_matches(mapped, text)
                assert_text_matches(mapped, text, sources=ESCAPED[:4])


class TestNameOrderTable:
    def test_walks_interleaved_with_writes_that_add_nodes(self):
        rng = random.Random(59)
        store = escaped_store(rng)
        fresh = ESCAPED + ["a", "zzz", "v5x", "été"]
        for step in range(40):
            name = f"{rng.choice(fresh)}{step}"
            store.add(name, rng.choice("abc"), rng.choice(sorted(store.nodes())))
            assert_text_matches(store, rng.choice(EXPRS))
            assert_text_matches(store, "a*", sources=[name, "ghost"])

    def test_a_grown_store_extends_the_table(self):
        store = labeled_powerlaw_store(random.Random(60), 20)
        before = _name_order(store)
        assert _name_order(store) is before
        store.add("new", "a", "v0")
        after = _name_order(store)
        assert after is not before
        # a published table is never changed
        assert len(before.rank) == len(after.rank) - 1
        names = store.node_names()
        assert [names[nid] for nid in after.order] == sorted(names)
        assert all(after.order[after.rank[nid]] == nid for nid in range(len(names)))

    def test_a_bulk_write_extends_the_table_like_a_fresh_build(self):
        rng = random.Random(62)
        store = labeled_powerlaw_store(rng, 50)
        _name_order(store)
        # more new names than the store had between two walks, falling
        # before, between and after the old ones
        for i in range(400):
            name = f"{rng.choice(ESCAPED + ['', 'v', 'w'])}{i}"
            store.add(name, rng.choice("abc"), rng.choice(["v0", name]))
        grown = _name_order(store)
        names = store.node_names()
        rebuilt = _NameOrder([], [], [], []).extended(names)
        assert grown == rebuilt
        assert [names[nid] for nid in grown.order] == sorted(names)
        for expr in EXPRS:
            assert_text_matches(store, expr)

    def test_concurrent_walks_over_a_grown_store(self):
        # every reader finds the table short and extends it at once; each
        # publishes a valid table and answers byte-identically
        store = labeled_powerlaw_store(random.Random(61), 60)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                store.add(f"w{round_}", "s", "v0")  # a predicate no walk reads
                # evaluate_rpq leaves the name-order table as it was
                expected = {}
                for text in EXPRS:
                    pairs = evaluate_rpq(store, parse(text))
                    expected[text] = (compact(pairs), len(pairs))
                failures = []
                barrier = threading.Barrier(4)

                def walk():
                    barrier.wait(10)
                    for text in EXPRS:
                        got = evaluate_rpq_json(store, parse(text))
                        if got != expected[text]:
                            failures.append(text)

                threads = [threading.Thread(target=walk) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                    assert not thread.is_alive()
                assert failures == []
        finally:
            sys.setswitchinterval(interval)
