"""Externally managed process pools (the `pool=` parameter).

A long-lived caller — the serving layer, a study loop — creates one
ProcessPoolExecutor and lends it to stream_corpus / run_study.  The
borrowed pool must (a) produce results identical to both the sequential
path and the own-pool parallel path, and (b) be left running for the
next call."""

from concurrent.futures import ProcessPoolExecutor

from repro.logs.analyzer import analyze_corpus
from repro.logs.corpus import QueryLogCorpus
from repro.logs.pipeline import run_study, stream_corpus
from repro.logs.workload import DBPEDIA, generate_source_log

from .helpers import assert_reports_identical, synthetic_logs


def entries_of(texts):
    # an iterable of raw strings is a valid entry source
    return list(texts)


def test_stream_corpus_with_borrowed_pool_matches_from_texts():
    texts = generate_source_log(DBPEDIA, total=90, seed=11)
    expected = QueryLogCorpus.from_texts("dbpedia", texts)
    with ProcessPoolExecutor(max_workers=2) as pool:
        streamed = stream_corpus(
            "dbpedia", entries_of(texts), chunk_size=16, pool=pool
        )
    assert streamed.source == expected.source
    assert len(streamed.entries) == len(expected.entries)
    assert {e.key for e in streamed.entries} == {
        e.key for e in expected.entries
    }


def test_run_study_with_borrowed_pool_matches_sequential():
    texts = generate_source_log(DBPEDIA, total=90, seed=13)
    sequential = run_study("dbpedia", entries_of(texts))
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = run_study(
            "dbpedia", entries_of(texts), chunk_size=16, pool=pool
        )
        # the same pool serves a second, different study
        rerun = run_study(
            "dbpedia", entries_of(texts), chunk_size=32, pool=pool
        )
    assert_reports_identical(sequential, pooled)
    assert_reports_identical(sequential, rerun)


def test_borrowed_pool_is_not_shut_down():
    pool = ProcessPoolExecutor(max_workers=2)
    try:
        for source, texts in synthetic_logs():
            report = run_study(source, texts, chunk_size=16, pool=pool)
            corpus = QueryLogCorpus.from_texts(source, texts)
            assert_reports_identical(report, analyze_corpus(corpus))
        # a shut-down pool raises RuntimeError on submit; a borrowed
        # one must still accept work
        assert pool.submit(len, "still alive").result() == len(
            "still alive"
        )
    finally:
        pool.shutdown()
