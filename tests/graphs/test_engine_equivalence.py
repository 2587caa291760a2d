"""Randomized equivalence: the compiled-plan RPQ engine must return
exactly the answers of the seed (reference) procedures, across walk,
simple-path, and trail semantics, on power-law generated graphs with
inverse atoms in the mix (repro.graphs.engine vs repro.graphs.paths
references)."""

import random

from repro.graphs.engine import (
    ast_key,
    clear_plan_cache,
    compile_rpq,
    configure_plan_cache,
    plan_cache_info,
)
from repro.graphs.generator import web_graph
from repro.graphs.paths import (
    evaluate_rpq,
    evaluate_rpq_reference,
    exists_simple_path,
    exists_simple_path_reference,
    exists_trail,
    exists_trail_reference,
)
from repro.graphs.rdf import TripleStore
from repro.regex.parser import parse

WALK_EXPRS = [
    "a*b?",
    "(a+b)*",
    "a(^b)a?",
    "(^a)+",
    "(ab)+c?",
    "a?b*c?",
    "ab*+c",
    "(a+^c)(b+c)*",
    "abc",
]

SEARCH_EXPRS = ["a*b?", "(a+b)*", "a(^b)a?", "(ab)+", "ab*+c"]

DC_CHAIN_EXPRS = ["a*b?", "a?b*c?", "(a+b)*"]

#: plans that keep their Glushkov tables: a cyclic one whose subset
#: construction blows past _DFA_BLOWUP_LIMIT, and an acyclic chain and
#: an acyclic non-chain with more states than _DFA_STATE_LIMIT
NFA_ONLY_EXPRS = ["(a+b)*a" + "(a+b)" * 9, "a" * 25, "(a+^b)" * 13]


def labeled_powerlaw_store(
    rng: random.Random, num_nodes: int, labels=("a", "b", "c")
) -> TripleStore:
    """A preferential-attachment graph with random edge labels and a
    sprinkling of reverse edges (so ^p atoms have work to do)."""
    graph = web_graph(num_nodes, 2, rng)
    store = TripleStore()
    for u, neighbours in graph.items():
        for v in neighbours:
            if u < v:
                store.add(f"v{u}", rng.choice(labels), f"v{v}")
            if rng.random() < 0.3:
                store.add(f"v{v}", rng.choice(labels), f"v{u}")
    return store


class TestWalkEquivalence:
    def test_all_pairs(self):
        rng = random.Random(11)
        for _trial in range(5):
            store = labeled_powerlaw_store(rng, 30)
            for text in WALK_EXPRS:
                expr = parse(text)
                assert evaluate_rpq(store, expr) == evaluate_rpq_reference(
                    store, expr
                ), text

    def test_sources_and_targets(self):
        rng = random.Random(12)
        for _trial in range(5):
            store = labeled_powerlaw_store(rng, 40)
            nodes = sorted(store.nodes())
            for text in WALK_EXPRS:
                expr = parse(text)
                sources = rng.sample(nodes, 6)
                targets = rng.sample(nodes, 6)
                assert evaluate_rpq(
                    store, expr, sources=sources
                ) == evaluate_rpq_reference(store, expr, sources=sources)
                assert evaluate_rpq(
                    store, expr, sources=sources, targets=targets
                ) == evaluate_rpq_reference(
                    store, expr, sources=sources, targets=targets
                )

    def test_source_outside_graph(self):
        store = labeled_powerlaw_store(random.Random(13), 12)
        for text in ("a*", "a+"):
            expr = parse(text)
            assert evaluate_rpq(
                store, expr, sources=["ghost"]
            ) == evaluate_rpq_reference(store, expr, sources=["ghost"])

    def test_empty_sources_short_circuits(self):
        store = labeled_powerlaw_store(random.Random(14), 10)
        clear_plan_cache()
        assert evaluate_rpq(store, parse("(a+b)*c"), sources=[]) == set()
        info = plan_cache_info()
        assert info["misses"] == 0 and info["size"] == 0


class TestWideAllPairs:
    """Cyclic all-pairs on a store with more than 64 productive sources,
    so the propagation's source masks span several machine words."""

    def test_cyclic_plans_match_reference(self):
        store = labeled_powerlaw_store(random.Random(41), 160)
        targets = random.Random(42).sample(sorted(store.nodes()), 20)
        # nullable, inverse atom, a two-atom cycle, a Glushkov-table plan
        for text in ["(a+b)*", "a(^b)*c", "(ab)*c", NFA_ONLY_EXPRS[0]]:
            expr = parse(text)
            plan = compile_rpq(expr)
            assert plan.cyclic, text
            resolved = plan._resolve(store)
            assert len(resolved.productive(plan.start_mask)) > 64, text
            assert evaluate_rpq(store, expr) == evaluate_rpq_reference(
                store, expr
            ), text
            assert evaluate_rpq(
                store, expr, targets=targets
            ) == evaluate_rpq_reference(store, expr, targets=targets), text

    def test_productive_sources_follow_writes(self):
        store = labeled_powerlaw_store(random.Random(43), 80)
        expr = parse("a(b+c)*")
        plan = compile_rpq(expr)
        resolved = plan._resolve(store)
        productive = resolved.productive(plan.start_mask)
        assert plan._resolve(store).productive(plan.start_mask) is productive
        store.add("fresh", "a", "v0")
        assert plan._resolve(store) is not resolved
        after = evaluate_rpq(store, expr)
        assert after == evaluate_rpq_reference(store, expr)
        assert ("fresh", "v0") in after


class TestNFAOnlyPlans:
    def test_plans_keep_no_dfa(self):
        cyclic, chain, dag = (compile_rpq(parse(t)) for t in NFA_ONLY_EXPRS)
        assert not cyclic.determinized and cyclic.cyclic
        assert not chain.determinized and not chain.cyclic
        assert chain.num_states == 26
        assert not dag.determinized and not dag.cyclic
        assert compile_rpq(parse("(a+b)*a")).determinized

    def test_all_pairs_and_sources(self):
        rng = random.Random(31)
        for _trial in range(3):
            store = labeled_powerlaw_store(rng, 30)
            sources = rng.sample(sorted(store.nodes()), 6)
            for text in NFA_ONLY_EXPRS:
                expr = parse(text)
                assert evaluate_rpq(store, expr) == evaluate_rpq_reference(
                    store, expr
                ), text
                assert evaluate_rpq(
                    store, expr, sources=sources
                ) == evaluate_rpq_reference(store, expr, sources=sources), text

    def test_long_concatenation_compiles_and_evaluates(self):
        # thousands of plan states: compilation must not recurse per state
        expr = parse("a" * 3000)
        plan = compile_rpq(expr)
        assert plan.num_states == 3001 and not plan.cyclic
        store = TripleStore()
        for i in range(3004):
            store.add(f"v{i}", "a", f"v{i + 1}")
        sources = ["v0", "v3", "v7"]
        expected = evaluate_rpq_reference(store, expr, sources=sources)
        assert expected == {("v0", "v3000"), ("v3", "v3003")}
        assert evaluate_rpq(store, expr, sources=sources) == expected
        small = TripleStore()
        for i in range(8):
            small.add(f"v{i}", "a", f"v{i + 1}")
        assert evaluate_rpq(small, expr) == set()
        assert evaluate_rpq_reference(small, expr) == set()


class TestSearchEquivalence:
    def test_simple_path_and_trail(self):
        rng = random.Random(21)
        for _trial in range(3):
            store = labeled_powerlaw_store(rng, 10)
            nodes = sorted(store.nodes())[:7]
            for text in SEARCH_EXPRS:
                expr = parse(text)
                for u in nodes:
                    for v in nodes:
                        assert exists_simple_path(
                            store, expr, u, v
                        ) == exists_simple_path_reference(store, expr, u, v), (
                            text,
                            u,
                            v,
                        )
                        assert exists_trail(
                            store, expr, u, v
                        ) == exists_trail_reference(store, expr, u, v), (
                            text,
                            u,
                            v,
                        )

    def test_smart_ctract_fast_path(self):
        # downward-closed chains are decided by one walk, exactly
        rng = random.Random(22)
        for _trial in range(3):
            store = labeled_powerlaw_store(rng, 10)
            nodes = sorted(store.nodes())[:7]
            for text in DC_CHAIN_EXPRS:
                expr = parse(text)
                assert compile_rpq(expr).subword_closed, text
                for u in nodes:
                    for v in nodes:
                        assert exists_simple_path(
                            store, expr, u, v
                        ) == exists_simple_path_reference(store, expr, u, v), (
                            text,
                            u,
                            v,
                        )
                        assert exists_trail(
                            store, expr, u, v
                        ) == exists_trail_reference(store, expr, u, v), (
                            text,
                            u,
                            v,
                        )


class TestPlanCache:
    def test_stable_ast_key(self):
        assert ast_key(parse("a*b?")) == ast_key(parse("a* b?"))
        assert ast_key(parse("a*b?")) != ast_key(parse("a*b"))

    def test_plans_are_reused(self):
        clear_plan_cache()
        expr = parse("(a+b)*c")
        first = compile_rpq(expr)
        second = compile_rpq(parse("(a+b)*c"))
        assert first is second
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_lru_bound(self):
        clear_plan_cache()
        configure_plan_cache(2)
        try:
            a, b, c = parse("a"), parse("b"), parse("c")
            compile_rpq(a)
            compile_rpq(b)
            compile_rpq(c)  # evicts the plan for "a"
            assert plan_cache_info()["size"] == 2
            compile_rpq(a)
            assert plan_cache_info()["misses"] == 4
        finally:
            configure_plan_cache(256)
            clear_plan_cache()


class TestSpecializedClosures:
    """The walk kernel follows the language's shape, whichever way the
    plan was built."""

    def test_closure_selection(self):
        # chains fold through adjacency maps; other acyclic plans take
        # the one-pass DAG kernel; cyclic plans run the mask BFS —
        # determinized plans and Glushkov-table plans alike
        store = labeled_powerlaw_store(random.Random(22), 20)
        for text, variant in [
            ("abc", "_make_chain_bfs"),
            ("a", "_make_chain_bfs"),
            (NFA_ONLY_EXPRS[1], "_make_chain_bfs"),
            ("a(b+^c)", "_make_dag_bfs"),
            (NFA_ONLY_EXPRS[2], "_make_dag_bfs"),
            ("(ab)+", "_make_mask_bfs"),
            (NFA_ONLY_EXPRS[0], "_make_mask_bfs"),
        ]:
            plan = compile_rpq(parse(text))
            closure = plan._resolve(store).bfs_hits
            assert variant in closure.__qualname__, (text, variant)

    def test_specialization_tracks_store_mutation(self):
        store = labeled_powerlaw_store(random.Random(23), 25)
        expr = parse("ab?")
        before = evaluate_rpq(store, expr)
        store.add("v0", "a", "v1")
        store.add("v1", "b", "v2")
        after = evaluate_rpq(store, expr)
        assert after == evaluate_rpq_reference(store, expr)
        assert after >= {("v0", "v1"), ("v0", "v2")}
        assert before != after or ("v0", "v1") in before
