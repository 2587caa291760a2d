"""Tests for the corpus generators (repro.trees.schema_corpus /
repro.trees.xml_corpus) — the data substitutes of DESIGN.md §2."""

import random

import pytest

from repro.errors import SchemaError
from repro.trees.dtd import DTD
from repro.trees.schema_corpus import (
    DTDCorpusProfile,
    corpus_statistics,
    random_dtd,
    random_dtd_corpus,
)
from repro.trees.xml_corpus import (
    corpus_study,
    generate_corpus,
    inject_error,
    random_tree,
    serialize,
)
from repro.trees.xml_parser import check_well_formedness, parse_xml


class TestSchemaCorpus:
    def test_reproducible(self):
        c1 = random_dtd_corpus(5, seed=7)
        c2 = random_dtd_corpus(5, seed=7)
        assert [sorted(d.rules) for d in c1] == [sorted(d.rules) for d in c2]

    def test_statistics_calibration(self):
        corpus = random_dtd_corpus(60, seed=3)
        stats = corpus_statistics(corpus)
        assert stats["dtds"] == 60
        # CHARE and SORE dominance, as in the Bex et al. corpora
        assert stats["chare_fraction"] >= 0.7
        assert stats["sore_fraction"] >= 0.85
        # a recursive share in the vicinity of Choi's 35/60
        assert 0.2 <= stats["recursive_fraction"] <= 0.95

    def test_dtds_are_usable(self):
        rng = random.Random(5)
        dtd = random_dtd(rng)
        tree = random_tree(dtd, rng)
        assert dtd.validate(tree) or dtd.is_recursive()
        # non-recursive sampling always validates
        profile = DTDCorpusProfile(recursion_rate=0.0)
        dtd2 = random_dtd(rng, profile)
        tree2 = random_tree(dtd2, rng)
        assert dtd2.validate(tree2)


class TestTreeGeneration:
    def test_sampled_trees_valid(self):
        profile = DTDCorpusProfile(recursion_rate=0.0)
        rng = random.Random(11)
        for _ in range(10):
            dtd = random_dtd(rng, profile)
            tree = random_tree(dtd, rng)
            assert dtd.validate(tree)

    def test_node_budget_respected_loosely(self):
        profile = DTDCorpusProfile(recursion_rate=0.0)
        rng = random.Random(2)
        dtd = random_dtd(rng, profile)
        tree = random_tree(dtd, rng, max_nodes=30)
        # the budget caps growth; mandatory completions may overshoot a bit
        assert tree.node_count() < 300


class TestUnproductiveSchemas:
    """A DTD with no finite tree is refused before any node is grown."""

    def test_productive_labels_fixpoint(self):
        dtd = DTD.from_rules(
            {"r": "a b?", "a": "c*", "b": "b", "c": "r | d", "d": ""},
            start=["r"],
        )
        # b needs a b below it forever; r, a, c, d close
        assert dtd.productive_labels == frozenset({"r", "a", "c", "d"})

    def test_hand_written_unproductive_dtd_raises(self):
        dtd = DTD.from_rules({"r": "a", "a": "r"}, start=["r"])
        assert dtd.productive_labels == frozenset()
        with pytest.raises(SchemaError, match="no finite tree"):
            random_tree(dtd, random.Random(0))

    def test_reachable_unproductive_label_raises(self):
        # r itself closes (b is optional), but the sampler may pick b
        dtd = DTD.from_rules({"r": "a b?", "a": "", "b": "b"}, start=["r"])
        assert "r" in dtd.productive_labels
        with pytest.raises(SchemaError, match="b root no finite tree"):
            random_tree(dtd, random.Random(0))

    @pytest.mark.parametrize("seed", [303, 961])
    def test_random_dtd_without_finite_tree_raises(self, seed):
        dtd = random_dtd(random.Random(seed), DTDCorpusProfile(recursion_rate=0.3))
        assert not dtd.start_labels <= dtd.productive_labels
        with pytest.raises(SchemaError, match="no finite tree"):
            random_tree(dtd, random.Random(0))

    def test_productive_dtds_still_generate(self):
        profile = DTDCorpusProfile(recursion_rate=0.3)
        for seed in range(40):
            dtd = random_dtd(random.Random(seed), profile)
            assert dtd.validate(random_tree(dtd, random.Random(seed)))


class TestSerialization:
    def test_serialize_parse_roundtrip(self):
        rng = random.Random(1)
        profile = DTDCorpusProfile(recursion_rate=0.0)
        dtd = random_dtd(rng, profile)
        tree = random_tree(dtd, rng)
        again = parse_xml(serialize(tree))
        assert tree.equal_structure(again)

    def test_indent_mode(self):
        from repro.trees.tree import Tree

        text = serialize(Tree.build("a", "b"), indent=True)
        assert "\n" in text
        assert parse_xml(text).root.label == "a"


class TestErrorInjection:
    def test_each_kind_breaks_the_document(self):
        from repro.trees.tree import Tree

        text = serialize(
            Tree.build("a", ("b", "c"), "d")
        )
        rng = random.Random(9)
        for kind in [
            "tag-mismatch",
            "premature-end",
            "bad-encoding",
            "unescaped-char",
            "stray-end-tag",
            "multiple-roots",
        ]:
            corrupted = inject_error(text, kind, rng)
            report = check_well_formedness(corrupted)
            assert not report.well_formed, kind

    def test_unknown_kind(self):
        import pytest

        with pytest.raises(ValueError):
            inject_error("<a/>", "nonsense", random.Random(0))


class TestGeneratedStudy:
    def test_corpus_calibration(self):
        corpus = generate_corpus(200, seed=4)
        study = corpus_study(corpus)
        assert study["documents"] == 200
        # calibrated to the 85% well-formedness finding (±10pp slack)
        assert 0.70 <= study["well_formed_fraction"] <= 0.97

    def test_error_categories_reported(self):
        corpus = generate_corpus(300, seed=5, well_formed_rate=0.5)
        study = corpus_study(corpus)
        categories = study["error_categories"]
        assert sum(categories.values()) >= 100
        # the dominant categories of the study must appear
        assert any(
            key in categories
            for key in ("tag-mismatch", "premature-end", "bad-encoding")
        )

    def test_ground_truth_recorded(self):
        corpus = generate_corpus(50, seed=6, well_formed_rate=0.0)
        assert all(doc.injected_error for doc in corpus.documents)
