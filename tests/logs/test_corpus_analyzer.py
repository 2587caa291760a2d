"""Tests for corpora and the analysis battery
(repro.logs.corpus / repro.logs.analyzer / repro.logs.report)."""

import pytest

from repro.logs.analyzer import analyze_corpus, combine_reports
from repro.logs.corpus import QueryLogCorpus, merge_table2, normalize_text
from repro.logs.report import (
    render_figure3,
    render_table2,
    render_table3,
    render_table45,
    render_table6,
    render_table7,
    render_table8,
)
from repro.sparql.parser import parse_query
from repro.testing.reference import analyze_query


def small_corpus() -> QueryLogCorpus:
    texts = [
        "SELECT * WHERE { ?a <p> ?b }",
        "SELECT * WHERE { ?a <p> ?b }",  # duplicate
        "SELECT   *   WHERE { ?a <p> ?b }",  # duplicate modulo whitespace
        "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }",
        "SELECT * WHERE { ?a <p> ?b FILTER(?b != <x>) }",
        "SELECT * WHERE { ?a <p>* ?b }",
        "SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c } }",
        "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?a }",
        "THIS IS NOT SPARQL",
        "SELECT * WHERE { broken",
    ]
    return QueryLogCorpus.from_texts("test", texts)


class TestCorpus:
    def test_total_valid_unique(self):
        corpus = small_corpus()
        assert corpus.total == 10
        assert corpus.invalid == 2
        assert corpus.valid == 8
        assert corpus.unique == 6

    def test_normalization(self):
        assert normalize_text("SELECT  * \n WHERE") == "SELECT * WHERE"

    def test_multiplicity_tracked(self):
        corpus = small_corpus()
        first = corpus.entries[0]
        assert first.occurrences == 3

    def test_table2_row(self):
        assert small_corpus().table2_row() == ("test", 10, 8, 6)

    def test_merge_table2(self):
        rows = merge_table2([small_corpus(), small_corpus()])
        assert rows[-1] == ("Total", 20, 16, 12)


class TestAnalyzeQuery:
    def test_cq_analysis_fields(self):
        analysis = analyze_query(
            parse_query("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }")
        )
        assert analysis["triples"] == 2
        assert analysis["htw"] == 1
        assert analysis["fca"] is True
        assert analysis["shape_with"] == "chain"

    def test_cyclic_analysis(self):
        analysis = analyze_query(
            parse_query(
                "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?a }"
            )
        )
        assert analysis["htw"] == 2
        assert analysis["fca"] is False
        assert analysis["shape_with"] == "tw<=2"

    def test_path_analysis(self):
        analysis = analyze_query(
            parse_query("SELECT * WHERE { ?a <p>/<q>* ?b }")
        )
        assert analysis["path_buckets"] == ["ab*|a+"]
        ste, ctract, ttract = analysis["path_classes"][0]
        assert ste and ctract and ttract

    def test_optional_analysis(self):
        analysis = analyze_query(
            parse_query(
                "SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c } }"
            )
        )
        assert analysis["well_designed"] is True

    def test_non_cqf_has_no_htw(self):
        analysis = analyze_query(
            parse_query(
                "SELECT * WHERE { { ?a <p> ?b } UNION { ?a <q> ?b } }"
            )
        )
        assert "htw" not in analysis


class TestAnalyzeCorpus:
    def test_valid_weighting(self):
        report = analyze_corpus(small_corpus())
        # the duplicated single-triple query counts 3 in Valid, 1 in U
        assert report.triple_histogram.valid["1"] >= 3
        assert report.triple_histogram.unique["1"] >= 1
        v, u = report.triple_histogram.totals()
        assert v == 8 and u == 6

    def test_operator_sets(self):
        report = analyze_corpus(small_corpus())
        assert report.operator_sets.unique[()] == 1
        assert report.operator_sets.unique[("And",)] == 2  # chain + cycle
        assert report.operator_sets.unique[("Filter",)] == 1
        assert report.operator_sets.unique[("2RPQ",)] == 1
        assert report.operator_sets.unique[("Optional",)] == 1

    def test_subtotals(self):
        report = analyze_corpus(small_corpus())
        cq_v, cq_u = report.cq_subtotal()
        assert cq_u == 3  # single triple + chain + cycle
        cqf_v, cqf_u = report.cq_f_subtotal()
        assert cqf_u == 4

    def test_htw_counter(self):
        report = analyze_corpus(small_corpus())
        assert report.htw.unique[1] == 3
        assert report.htw.unique[2] == 1

    def test_shapes_counter(self):
        report = analyze_corpus(small_corpus())
        assert report.shapes_with_constants.unique["chain"] >= 1
        assert report.shapes_with_constants.unique["tw<=2"] == 1

    def test_combine_reports(self):
        r1 = analyze_corpus(small_corpus())
        r2 = analyze_corpus(small_corpus())
        combined = combine_reports([r1, r2])
        assert combined.valid == 16
        assert combined.htw.unique[1] == 6


class TestRendering:
    def test_all_tables_render(self):
        corpus = small_corpus()
        report = analyze_corpus(corpus)
        assert "Total" in render_table2([corpus])
        assert "#Triples" in render_figure3(report)
        assert "Filter" in render_table3(report)
        assert "CQ+F subtotal" in render_table45(report)
        assert "C2RPQ+F subtotal" in render_table45(report, with_paths=True)
        assert "FCA" in render_table6(report)
        assert "chain" in render_table7(report)
        assert "Expression Type" in render_table8(report)

    def test_percentages_format(self):
        report = analyze_corpus(small_corpus())
        table = render_table45(report)
        assert "%" in table
