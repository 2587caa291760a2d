"""Tests for RPQ evaluation and power-law fitting
(repro.graphs.paths / repro.graphs.powerlaw)."""

import random

import pytest

from repro.graphs.generator import foaf_rdf, web_graph
from repro.graphs.paths import (
    evaluate_rpq,
    exists_simple_path,
    exists_simple_path_reference,
    exists_trail,
    exists_trail_reference,
)
from repro.graphs.powerlaw import (
    ccdf,
    degree_histogram,
    fit_power_law,
    looks_heavy_tailed,
)
from repro.graphs.rdf import TripleStore
from repro.regex.parser import parse


def chain_store() -> TripleStore:
    return TripleStore(
        [
            ("n1", "a", "n2"),
            ("n2", "a", "n3"),
            ("n3", "b", "n4"),
            ("n1", "b", "n4"),
        ]
    )


class TestWalkSemantics:
    def test_star_matches_zero_steps(self):
        pairs = evaluate_rpq(chain_store(), parse("a*"), sources=["n1"])
        assert ("n1", "n1") in pairs
        assert ("n1", "n3") in pairs

    def test_concatenation(self):
        pairs = evaluate_rpq(chain_store(), parse("a a b", multi_char=True))
        assert pairs == {("n1", "n4")}

    def test_union_path(self):
        pairs = evaluate_rpq(chain_store(), parse("b + aab"))
        assert ("n1", "n4") in pairs and ("n3", "n4") in pairs

    def test_targets_filter(self):
        pairs = evaluate_rpq(
            chain_store(), parse("a*b"), sources=["n1"], targets=["n4"]
        )
        assert pairs == {("n1", "n4")}

    def test_reachable(self):
        pairs = evaluate_rpq(chain_store(), parse("a+"), sources=["n1"])
        assert {v for _u, v in pairs} == {
            "n2",
            "n3",
        }

    def test_inverse_atoms(self):
        pairs = evaluate_rpq(chain_store(), parse("^a"), sources=["n3"])
        assert pairs == {("n3", "n2")}

    def test_two_way_round_trip(self):
        # wdt-style: go down a then back up a
        pairs = evaluate_rpq(chain_store(), parse("a(^a)"), sources=["n1"])
        assert ("n1", "n1") in pairs

    def test_count(self):
        assert len(evaluate_rpq(chain_store(), parse("b"))) == 2


class TestSimplePathAndTrail:
    def diamond(self) -> TripleStore:
        # a cycle where walk semantics differs from simple paths:
        # s -a-> m -a-> s (cycle), m -b-> t
        return TripleStore(
            [
                ("s", "a", "m"),
                ("m", "a", "s"),
                ("m", "b", "t"),
            ]
        )

    def test_simple_path_exists(self):
        store = self.diamond()
        assert exists_simple_path(store, parse("ab"), "s", "t")

    def test_simple_path_cannot_revisit(self):
        store = self.diamond()
        # a a a b needs to revisit s and m
        assert not exists_simple_path(store, parse("aaab"), "s", "t")
        # but a walk exists
        assert ("s", "t") in evaluate_rpq(store, parse("aaab"))

    def test_trail_allows_node_revisit(self):
        # s -a-> m -a-> s uses two distinct edges; then m... build a case
        store = TripleStore(
            [
                ("s", "a", "m"),
                ("m", "a", "s"),
                ("s", "b", "t"),
            ]
        )
        # word a a b: s->m->s->t repeats node s but no edge
        assert exists_trail(store, parse("aab"), "s", "t")
        assert not exists_simple_path(store, parse("aab"), "s", "t")

    def test_trail_cannot_reuse_edge(self):
        store = TripleStore([("s", "a", "s"), ("s", "b", "t")])
        # a a b would need the self-loop edge twice
        assert not exists_trail(store, parse("aab"), "s", "t")
        assert exists_trail(store, parse("ab"), "s", "t")

    def test_smart_agrees_with_exact_on_dc_chains(self):
        rng = random.Random(7)
        stores = [self.diamond(), chain_store()]
        exprs = [parse("a*b?"), parse("a?b*"), parse("(a+b)*")]
        for store in stores:
            nodes = sorted(store.nodes())
            for expr in exprs:
                for u in nodes:
                    for v in nodes:
                        assert exists_simple_path(
                            store, expr, u, v
                        ) == exists_simple_path_reference(store, expr, u, v), (
                            expr,
                            u,
                            v,
                        )
                        assert exists_trail(
                            store, expr, u, v
                        ) == exists_trail_reference(store, expr, u, v), (
                            expr,
                            u,
                            v,
                        )

    def test_epsilon_simple_path(self):
        store = chain_store()
        assert exists_simple_path(store, parse("a*"), "n1", "n1")


class TestPowerLaw:
    def test_fit_recovers_exponent(self):
        rng = random.Random(0)
        # sample from a discrete power law with alpha ~ 2.5 via inverse
        # transform on a zeta-ish distribution
        sample = []
        for _ in range(4000):
            u = rng.random()
            sample.append(max(1, int(round(u ** (-1 / 1.5)))))
        fit = fit_power_law(sample, k_min=2)
        assert 2.0 < fit.alpha < 3.2

    def test_fit_validates_input(self):
        with pytest.raises(ValueError):
            fit_power_law([], k_min=1)
        with pytest.raises(ValueError):
            fit_power_law([1, 2], k_min=0)

    def test_degenerate_sample(self):
        # a point mass at k_min yields a steep (large-α) fit
        fit = fit_power_law([2, 2, 2], k_min=2)
        assert fit.alpha > 3

    def test_ccdf_monotone(self):
        points = ccdf([1, 1, 2, 3, 3, 3, 10])
        assert points[0] == (1, 1.0)
        probabilities = [p for _k, p in points]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_histogram(self):
        assert degree_histogram([1, 1, 2]) == {1: 2, 2: 1}

    def test_web_graph_is_heavy_tailed(self):
        graph = web_graph(600, 2, random.Random(1))
        degrees = [len(neigh) for neigh in graph.values()]
        assert looks_heavy_tailed(degrees)

    def test_uniform_degrees_not_heavy_tailed(self):
        assert not looks_heavy_tailed([3] * 500)

    def test_foaf_in_degrees_heavy_tailed(self):
        store = foaf_rdf(500, random.Random(2))
        knows_in = [
            len(store.predecessors(node, "foaf:knows"))
            for node in store.nodes()
        ]
        degrees = [d for d in knows_in if d > 0]
        fit = fit_power_law(degrees, k_min=1)
        assert fit.alpha > 1.2
