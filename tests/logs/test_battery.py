"""The fused single-traversal battery must be invisible in the study
results: encoded records byte-identical to the reference battery on
every workload query, and run_study counters unchanged counter for
counter when the fused battery (and the specialized RPQ closures it
ships with) drive the pipeline."""

import pytest

import repro.logs.battery as battery
from repro.errors import SPARQLParseError
from repro.logs.analyzer import (
    COUNTER_FIELDS,
    analyze_corpus,
    apply_analysis,
    encode_analysis,
    LogReport,
)
from repro.logs.battery import analyze_query_fused, clear_battery_memos
from repro.logs.corpus import QueryLogCorpus
from repro.logs.pipeline import run_study
from repro.logs.workload import ALL_PROFILES, DBPEDIA, generate_source_log
from repro.sparql.parser import parse_query
from repro.testing.reference import analyze_query


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_battery_memos()
    yield
    clear_battery_memos()


def reference_report(source, texts):
    """The report the *reference* battery produces, built query by
    query — no fused code anywhere on this path."""
    corpus = QueryLogCorpus.from_texts(source, texts)
    report = LogReport(
        source=source,
        total=corpus.total,
        valid=corpus.valid,
        unique=corpus.unique,
    )
    for entry in corpus.entries:
        apply_analysis(
            report, analyze_query(entry.query), entry.occurrences
        )
    return report


@pytest.mark.parametrize(
    "profile", ALL_PROFILES, ids=lambda p: p.name
)
def test_fused_matches_reference_on_workloads(profile):
    checked = 0
    for text in generate_source_log(profile, 120, seed=29):
        try:
            query = parse_query(text)
        except SPARQLParseError:
            continue
        checked += 1
        assert encode_analysis(analyze_query(query)) == encode_analysis(
            analyze_query_fused(query)
        ), text
    assert checked > 0


def test_run_study_counters_unchanged_by_fused_battery():
    texts = generate_source_log(DBPEDIA, 300, seed=31)
    reference = reference_report("DBpedia", texts)
    studied = run_study("DBpedia", texts)
    assert (studied.total, studied.valid, studied.unique) == (
        reference.total,
        reference.valid,
        reference.unique,
    )
    for name in COUNTER_FIELDS:
        assert (
            getattr(studied, name).items()
            == getattr(reference, name).items()
        ), name


def test_analyze_corpus_counters_unchanged_by_fused_battery():
    texts = generate_source_log(DBPEDIA, 300, seed=31)
    corpus = QueryLogCorpus.from_texts("DBpedia", texts)
    reference = reference_report("DBpedia", texts)
    report = analyze_corpus(corpus)
    for name in COUNTER_FIELDS:
        assert (
            getattr(report, name).items()
            == getattr(reference, name).items()
        ), name


def test_shape_memo_is_structure_keyed():
    # alpha-renamed and re-instantiated templates share one memo entry
    variants = [
        "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }",
        "SELECT * WHERE { ?x <p2> ?y . ?y <q2> ?z }",
        "SELECT * WHERE { ?s <other> ?t . ?t <edge> ?u }",
    ]
    results = [
        encode_analysis(analyze_query_fused(parse_query(text)))
        for text in variants
    ]
    assert len(battery._shape_memo) == 1
    # and the shared entry still matches the reference battery
    for text, record in zip(variants, results):
        assert record == encode_analysis(
            analyze_query(parse_query(text))
        )


def test_memo_overflow_resets_and_stays_correct(monkeypatch):
    monkeypatch.setattr(battery, "_MEMO_LIMIT", 2)
    texts = [
        "SELECT * WHERE { ?a <p> ?b }",
        "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }",
        "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?d }",
        "SELECT * WHERE { ?a <p> ?b . ?a <q> ?c . ?a <r> ?d }",
    ]
    for _round in range(2):
        for text in texts:
            query = parse_query(text)
            assert encode_analysis(
                analyze_query_fused(query)
            ) == encode_analysis(analyze_query(query))
    assert len(battery._shape_memo) <= 2


PATH_KEY_PAIR = (
    ("SELECT * WHERE { ?s <p>/^(<q>/<p>*) ?o }", "ab*c"),
    ("SELECT * WHERE { ?s <p>/(<q>/<p>*) ?o }", "abc*"),
)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_path_memo_key_separates_equal_forward_types(order):
    # both paths have forward type 'aba*'; only their reverses differ,
    # so whichever is classified first must not answer for the other
    clear_battery_memos()
    for text, bucket in PATH_KEY_PAIR[::order]:
        query = parse_query(text)
        record = analyze_query_fused(query)
        assert record["path_buckets"] == [bucket]
        assert encode_analysis(record) == encode_analysis(
            analyze_query(query)
        )
    assert len(battery._path_memo) == 2


def test_path_memo_bare_inverse_and_clear():
    # '^(^<p>)' types as 'a' both ways like '^<p>', but only a bare
    # inverse atom is the row '^a'
    for text, bucket in (
        ("SELECT * WHERE { ?s ^(^<p>) ?o }", "a1...ak"),
        ("SELECT * WHERE { ?s ^<p> ?o }", "^a"),
    ):
        query = parse_query(text)
        record = analyze_query_fused(query)
        assert record["path_buckets"] == [bucket]
        assert encode_analysis(record) == encode_analysis(
            analyze_query(query)
        )
    assert len(battery._path_memo) == 2
    clear_battery_memos()
    assert not battery._path_memo
