"""Tests for the triple store and RDF metrics (repro.graphs.rdf)."""

import random

from repro.graphs.generator import foaf_rdf
from repro.graphs.rdf import TripleStore


def small_store() -> TripleStore:
    return TripleStore(
        [
            ("a", "p", "b"),
            ("a", "q", "c"),
            ("b", "p", "c"),
            ("d", "p", "b"),
        ]
    )


class TestStore:
    def test_len_and_contains(self):
        store = small_store()
        assert len(store) == 4
        assert ("a", "p", "b") in store
        assert ("a", "p", "c") not in store

    def test_duplicate_add_ignored(self):
        store = small_store()
        assert not store.add("a", "p", "b")
        assert len(store) == 4

    def test_pattern_all_bound(self):
        assert list(small_store().triples("a", "p", "b")) == [("a", "p", "b")]
        assert list(small_store().triples("a", "p", "x")) == []

    def test_pattern_subject_only(self):
        triples = set(small_store().triples(s="a"))
        assert triples == {("a", "p", "b"), ("a", "q", "c")}

    def test_pattern_predicate_only(self):
        triples = set(small_store().triples(p="p"))
        assert len(triples) == 3

    def test_pattern_object_only(self):
        triples = set(small_store().triples(o="b"))
        assert triples == {("a", "p", "b"), ("d", "p", "b")}

    def test_pattern_object_and_predicate(self):
        triples = set(small_store().triples(p="p", o="c"))
        assert triples == {("b", "p", "c")}

    def test_full_scan(self):
        assert len(list(small_store().triples())) == 4

    def test_sets(self):
        store = small_store()
        assert store.subjects() == {"a", "b", "d"}
        assert store.predicates() == {"p", "q"}
        assert store.objects() == {"b", "c"}
        assert store.nodes() == {"a", "b", "c", "d"}

    def test_navigation(self):
        store = small_store()
        assert store.successors("a", "p") == {"b"}
        assert store.predecessors("b", "p") == {"a", "d"}
        assert set(store.out_edges("a")) == {("p", "b"), ("q", "c")}
        assert set(store.in_edges("c")) == {("q", "a"), ("p", "b")}


class TestMetrics:
    def test_overlap_zero_when_disjoint(self):
        store = small_store()
        assert store.predicate_subject_overlap() == 0.0
        assert store.predicate_object_overlap() == 0.0

    def test_overlap_nonzero_when_predicate_is_subject(self):
        store = small_store()
        store.add("p", "q", "x")  # predicate p used as subject
        assert store.predicate_subject_overlap() > 0.0

    def test_predicate_lists(self):
        lists = small_store().predicate_lists()
        assert lists["a"] == frozenset({"p", "q"})
        assert lists["b"] == frozenset({"p"})

    def test_degrees(self):
        store = small_store()
        assert store.out_degrees()["a"] == 2
        assert store.in_degrees()["b"] == 2

    def test_multiplicities(self):
        store = TripleStore(
            [("s", "p", "o1"), ("s", "p", "o2"), ("s2", "p", "o1")]
        )
        assert sorted(store.sp_multiplicities()) == [1, 2]
        assert sorted(store.po_multiplicities()) == [1, 2]

    def test_dataset_report_keys(self):
        report = small_store().dataset_report()
        for key in ("triples", "ps_overlap", "sp_mean", "max_in_degree"):
            assert key in report
        assert report["triples"] == 4.0

    def test_undirected_adjacency(self):
        adjacency = small_store().undirected_adjacency()
        assert "a" in adjacency["b"] and "b" in adjacency["a"]


class TestFoafCalibration:
    """The generated FOAF data must reproduce the Section 7 findings."""

    def test_predicate_lists_concentrate(self):
        store = foaf_rdf(200, random.Random(1))
        # nearly every person has the same predicate list
        assert store.predicate_list_concentration() > 0.9
        assert store.distinct_predicate_lists() <= 3

    def test_sp_mostly_functional(self):
        store = foaf_rdf(200, random.Random(2))
        multiplicities = store.sp_multiplicities()
        ones = sum(1 for m in multiplicities if m == 1)
        assert ones / len(multiplicities) > 0.6

    def test_overlaps_zero(self):
        store = foaf_rdf(100, random.Random(3))
        assert store.predicate_subject_overlap() == 0.0


class TestInterningLayer:
    """The integer-interning substrate the compiled RPQ engine runs on."""

    def test_node_ids_roundtrip(self):
        store = small_store()
        for name in store.nodes():
            nid = store.node_id(name)
            assert nid is not None
            assert store.node_name(nid) == name
        assert store.node_id("missing") is None
        assert store.node_count() == len(store.nodes())

    def test_adjacency_matches_string_indexes(self):
        store = small_store()
        for predicate in store.predicates():
            pid = store.predicate_id(predicate)
            forward = store.forward_adjacency(pid)
            backward = store.backward_adjacency(pid)
            for name in store.nodes():
                nid = store.node_id(name)
                succ = {
                    store.node_name(other)
                    for other in forward.get(nid, [])
                }
                assert succ == set(store.successors(name, predicate))
                pred = {
                    store.node_name(other)
                    for other in backward.get(nid, [])
                }
                assert pred == set(store.predecessors(name, predicate))
        assert store.predicate_id("nope") is None

    def test_duplicate_add_does_not_duplicate_adjacency(self):
        store = small_store()
        assert not store.add("a", "p", "b")
        pid = store.predicate_id("p")
        assert store.forward_adjacency(pid)[store.node_id("a")].count(
            store.node_id("b")
        ) == 1

    def test_successor_frozensets_are_memoized_and_invalidated(self):
        store = small_store()
        first = store.successors("a", "p")
        assert store.successors("a", "p") is first
        version = store.version
        store.add("a", "p", "z")
        assert store.version == version + 1
        assert store.successors("a", "p") == frozenset({"b", "z"})
        assert store.predecessors("z", "p") == frozenset({"a"})


class TestFingerprint:
    """The O(1) *content* fingerprint that content-addresses cached
    results over a store: order-independent and portable across
    processes, yet changed by every successful mutation."""

    def test_stable_while_unmutated(self):
        store = small_store()
        assert store.fingerprint() == store.fingerprint()

    def test_every_successful_add_changes_it(self):
        store = small_store()
        seen = {store.fingerprint()}
        for i in range(20):
            assert store.add(f"n{i}", "p", f"n{i + 1}")
            fingerprint = store.fingerprint()
            assert fingerprint not in seen
            seen.add(fingerprint)

    def test_duplicate_add_leaves_it_unchanged(self):
        store = small_store()
        before = store.fingerprint()
        assert not store.add("a", "p", "b")
        assert store.fingerprint() == before

    def test_shape_is_content_digest_plus_size(self):
        store = small_store()
        fingerprint = store.fingerprint()
        digest, _, size = fingerprint.partition("-")
        assert digest.startswith("c") and size == f"t{len(store):x}"
        # derived from content, not from the session mutation counter:
        # a rebuilt store with a different version history agrees
        rebuilt = TripleStore(sorted(store.triples()))
        assert rebuilt.fingerprint() == fingerprint

    def test_growth_never_reuses_an_old_value(self):
        # growth-only stores cannot return to a previous fingerprint:
        # the triple set only gains elements, and the digest tracks it
        store = TripleStore()
        history = []
        for i in range(50):
            history.append(store.fingerprint())
            store.add("hub", f"p{i % 5}", f"n{i}")
        assert len(set(history)) == len(history)

    def test_independent_stores_with_same_content_match(self):
        a = small_store()
        b = small_store()
        assert a.fingerprint() == b.fingerprint()

    def test_insertion_order_does_not_matter(self):
        triples = [(f"s{i}", f"p{i % 3}", f"o{i % 7}") for i in range(25)]
        forward = TripleStore(triples)
        backward = TripleStore(reversed(triples))
        assert forward.fingerprint() == backward.fingerprint()

    def test_different_content_diverges(self):
        a = TripleStore([("a", "p", "b")])
        b = TripleStore([("a", "p", "c")])
        assert a.fingerprint() != b.fingerprint()

    def test_pickle_round_trip_preserves_it(self):
        import pickle

        store = small_store()
        copy = pickle.loads(pickle.dumps(store))
        assert set(copy.triples()) == set(store.triples())
        assert copy.fingerprint() == store.fingerprint()


class TestScopedFingerprint:
    """``fingerprint(predicates)``: the fingerprint of the sub-store of
    those predicates' triples, from the same digests as the whole."""

    def test_full_predicate_set_equals_the_whole_store(self):
        store = small_store()
        assert store.fingerprint(store.predicate_names()) == store.fingerprint()
        assert store.fingerprint(None) == store.fingerprint()

    def test_equals_the_fingerprint_of_the_restricted_store(self):
        triples = [(f"s{i}", f"p{i % 3}", f"o{i % 7}") for i in range(25)]
        store = TripleStore(triples)
        only = TripleStore(t for t in triples if t[1] in ("p0", "p2"))
        assert store.fingerprint(["p0", "p2"]) == only.fingerprint()
        # absent and repeated predicates add nothing
        assert store.fingerprint(["p2", "p0", "p0", "zz"]) == only.fingerprint()
        assert store.fingerprint([]) == TripleStore().fingerprint()

    def test_changes_exactly_on_writes_to_its_predicates(self):
        store = small_store()
        scoped = store.fingerprint(["p"])
        assert store.add("x", "q", "y")
        assert store.fingerprint(["p"]) == scoped
        other = store.fingerprint(["q"])
        assert not store.add("x", "q", "y")  # a duplicate adds nothing
        assert store.fingerprint(["q"]) == other
        assert store.add("x", "p", "y")
        assert store.fingerprint(["p"]) != scoped

    def test_pickle_round_trip_preserves_scopes(self):
        import pickle

        store = small_store()
        copy = pickle.loads(pickle.dumps(store))
        for predicate in store.predicate_names():
            assert copy.fingerprint([predicate]) == store.fingerprint([predicate])
