"""The scalable pipeline must be invisible in the results: stream_corpus
builds the same corpus as the sequential add-loop, and run_study (fused
workers, with or without the persistent cache) returns reports identical,
counter for counter, to the sequential battery."""

import json
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.logs.analyzer import analyze_corpus
from repro.logs.corpus import QueryLogCorpus
from repro.logs.pipeline import (
    PipelineStats,
    iter_log_entries,
    run_study,
    stream_corpus,
)
from repro.logs.workload import (
    BRITISH_MUSEUM,
    DBPEDIA,
    WIKIDATA_ORGANIC,
    generate_source_log,
)

from .helpers import assert_reports_identical


@pytest.fixture(scope="module", params=["DBpedia", "WikiOrganic", "BritM"])
def workload(request):
    profile = {
        p.name: p for p in (DBPEDIA, WIKIDATA_ORGANIC, BRITISH_MUSEUM)
    }[request.param]
    texts = generate_source_log(profile, total=160, seed=11)
    return profile.name, texts


class TestStreamCorpus:
    def test_matches_from_texts_serial(self, workload):
        source, texts = workload
        reference = QueryLogCorpus.from_texts(source, texts)
        streamed = stream_corpus(source, texts)
        assert streamed.table2_row() == reference.table2_row()
        assert streamed.invalid == reference.invalid
        assert [
            (e.key, e.text, e.occurrences) for e in streamed.entries
        ] == [(e.key, e.text, e.occurrences) for e in reference.entries]

    def test_matches_from_texts_parallel(self, workload):
        source, texts = workload
        reference = QueryLogCorpus.from_texts(source, texts)
        streamed = stream_corpus(source, texts, workers=2, chunk_size=13)
        assert streamed.table2_row() == reference.table2_row()
        assert_reports_identical(
            analyze_corpus(streamed), analyze_corpus(reference)
        )

    def test_from_stream_classmethod(self, workload):
        source, texts = workload
        corpus = QueryLogCorpus.from_stream(source, texts, workers=2)
        assert corpus.table2_row() == QueryLogCorpus.from_texts(
            source, texts
        ).table2_row()

    def test_empty_stream(self):
        corpus = stream_corpus("empty", [])
        assert corpus.table2_row() == ("empty", 0, 0, 0)

    def test_all_invalid_stream(self):
        corpus = stream_corpus("broken", ["NOT SPARQL", "ALSO } BAD"])
        assert corpus.table2_row() == ("broken", 2, 0, 0)
        assert corpus.invalid == 2

    def test_single_cpu_fallback_warns_once_and_stays_identical(
        self, workload, single_cpu
    ):
        # the same downgrade as run_study: no pool on one usable CPU
        source, texts = workload
        reference = QueryLogCorpus.from_texts(source, texts)
        with pytest.warns(RuntimeWarning, match="one\\s+usable CPU"):
            streamed = stream_corpus(source, texts, workers=2, chunk_size=7)
        assert streamed.table2_row() == reference.table2_row()
        assert streamed.invalid == reference.invalid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream_corpus(source, texts, workers=2, chunk_size=7)


class TestRunStudy:
    def reference(self, source, texts):
        return analyze_corpus(QueryLogCorpus.from_texts(source, texts))

    def test_serial_identity(self, workload):
        source, texts = workload
        assert_reports_identical(
            run_study(source, texts), self.reference(source, texts)
        )

    def test_parallel_identity(self, workload):
        # an explicit pool bypasses the single-CPU sequential fallback,
        # so the process-pool path is exercised on any machine
        source, texts = workload
        with ProcessPoolExecutor(max_workers=2) as pool:
            report = run_study(
                source, texts, workers=2, chunk_size=7, pool=pool
            )
        assert_reports_identical(report, self.reference(source, texts))
        assert report.stats.chunks > 1

    def test_single_cpu_fallback_warns_once_and_stays_identical(
        self, workload, single_cpu
    ):
        source, texts = workload
        with pytest.warns(RuntimeWarning, match="one\\s+usable CPU"):
            report = run_study(source, texts, workers=2, chunk_size=7)
        assert_reports_identical(report, self.reference(source, texts))
        # the pool was skipped: everything ran as one sequential chunk
        assert (report.stats.chunks, report.stats.workers) == (1, 1)
        # the warning is one-time per process
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_study(source, texts, workers=2, chunk_size=7)

    def test_cache_cold_then_warm_identity(self, workload, tmp_path):
        source, texts = workload
        reference = self.reference(source, texts)
        cold = run_study(source, texts, cache=tmp_path)
        warm = run_study(source, texts, cache=tmp_path)
        assert_reports_identical(cold, reference)
        assert_reports_identical(warm, reference)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == cold.stats.unique_texts
        assert warm.stats.cache_misses == 0
        assert warm.stats.parsed_texts == 0
        assert warm.stats.cache_hit_rate == 1.0

    def test_cache_shared_across_overlapping_logs(self, tmp_path):
        first = generate_source_log(DBPEDIA, total=120, seed=3)
        second = first + generate_source_log(DBPEDIA, total=40, seed=4)
        run_study("DBpedia", first, cache=tmp_path)
        report = run_study("DBpedia", second, cache=tmp_path)
        assert_reports_identical(
            report, self.reference("DBpedia", second)
        )
        # the overlap is served from the cache, only the new tail parses
        assert report.stats.cache_hits > 0
        assert (
            report.stats.parsed_texts < report.stats.unique_texts
        )

    def test_stats_are_coherent(self, workload):
        source, texts = workload
        report = run_study(source, texts, workers=2)
        stats = report.stats
        assert isinstance(stats, PipelineStats)
        assert stats.entries == report.total == len(texts)
        assert stats.unique_texts >= report.unique
        for stage in (
            stats.ingest_seconds,
            stats.parse_analyze_seconds,
            stats.merge_seconds,
        ):
            assert stage >= 0.0
        assert stats.total_seconds >= max(
            stats.ingest_seconds, stats.parse_analyze_seconds
        )
        as_dict = stats.as_dict()
        assert as_dict["source"] == source
        assert "cache_hit_rate" in as_dict
        assert source in stats.summary()

    def test_empty_study(self):
        report = run_study("empty", [])
        assert (report.total, report.valid, report.unique) == (0, 0, 0)
        assert report.stats.parsed_texts == 0


class TestFileSources:
    def test_jsonl_source(self, tmp_path):
        texts = generate_source_log(DBPEDIA, total=60, seed=9)
        path = tmp_path / "log.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for index, text in enumerate(texts):
                # mix the two supported JSONL shapes
                if index % 2:
                    handle.write(json.dumps({"query": text}) + "\n")
                else:
                    handle.write(json.dumps(text) + "\n")
        assert list(iter_log_entries(path)) == texts
        assert_reports_identical(
            run_study("DBpedia", path),
            analyze_corpus(QueryLogCorpus.from_texts("DBpedia", texts)),
        )

    def test_plain_text_source(self, tmp_path):
        texts = [
            "SELECT * WHERE { ?a <p> ?b }",
            "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }",
            "NOT SPARQL AT ALL",
        ]
        path = tmp_path / "log.txt"
        path.write_text("\n".join(texts) + "\n", encoding="utf-8")
        corpus = stream_corpus("plain", path)
        assert corpus.table2_row() == ("plain", 3, 2, 2)

    def test_jsonl_rejects_entries_without_text(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"other": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            list(iter_log_entries(path))


class TestCorpusCounters:
    def test_valid_is_a_running_counter(self):
        corpus = QueryLogCorpus("t")
        assert corpus.valid == 0
        corpus.add("SELECT * WHERE { ?a <p> ?b }")
        corpus.add("SELECT  * WHERE { ?a <p> ?b }")  # duplicate
        corpus.add("broken {")
        assert corpus.valid == 2
        assert corpus.total == 3
        assert corpus.invalid == 1

    def test_constructor_supplied_entries_initialize_counter(self):
        base = QueryLogCorpus.from_texts(
            "t",
            [
                "SELECT * WHERE { ?a <p> ?b }",
                "SELECT * WHERE { ?a <p> ?b }",
                "SELECT * WHERE { ?a <q> ?b }",
            ],
        )
        rebuilt = QueryLogCorpus("t", entries=list(base.entries))
        assert rebuilt.valid == 3
        assert rebuilt.unique == 2
        # the derived index keeps add() deduplicating correctly
        rebuilt.add("SELECT * WHERE { ?a <q> ?b }")
        assert rebuilt.valid == 4
        assert rebuilt.unique == 2


class FakePool:
    """A lent 'pool' that records the tasks it is handed and runs them
    inline — wide enough on paper (``_max_workers``) to expose the
    fan-out bug on a 1-CPU test host."""

    def __init__(self, max_workers=4):
        self._max_workers = max_workers
        self.task_counts = []

    def map(self, fn, chunks):
        chunks = list(chunks)
        self.task_counts.append(len(chunks))
        return [fn(chunk) for chunk in chunks]


class TestFanoutRegression:
    """The parallel fan-out bug: a fixed chunk size turned moderate
    workloads into fewer chunks than workers, quietly idling most of the
    pool.  Chunk count must now scale with pool width."""

    def make_texts(self, total):
        return generate_source_log(DBPEDIA, total=total, seed=5)

    def test_run_study_fans_out_at_least_pool_width(self):
        # 160 entries with the default chunk_size=512 used to produce a
        # single chunk; a 4-wide pool ran the whole study serially
        texts = self.make_texts(160)
        pool = FakePool(max_workers=4)
        report = run_study("DBpedia", texts, pool=pool)
        assert report.stats.chunks >= 4
        assert_reports_identical(
            report,
            analyze_corpus(QueryLogCorpus.from_texts("DBpedia", texts)),
        )

    def test_stream_corpus_fans_out_at_least_pool_width(self):
        texts = self.make_texts(160)
        pool = FakePool(max_workers=4)
        corpus = stream_corpus("DBpedia", texts, pool=pool)
        assert pool.task_counts and pool.task_counts[0] >= 4
        reference = QueryLogCorpus.from_texts("DBpedia", texts)
        assert corpus.table2_row() == reference.table2_row()

    def test_stats_record_the_lent_pool_width(self):
        # workers unset: the width that ran is the lent pool's
        pool = FakePool(max_workers=4)
        stats = run_study("DBpedia", self.make_texts(160), pool=pool).stats
        assert stats.workers == 4
        assert stats.chunks == pool.task_counts[0]
        assert "4 worker(s)" in stats.summary()

    def test_stats_record_one_worker_inline(self):
        stats = run_study("DBpedia", self.make_texts(40), workers=1).stats
        assert (stats.workers, stats.chunks) == (1, 1)

    def test_explicit_workers_override_pool_width(self):
        texts = self.make_texts(160)
        pool = FakePool(max_workers=1)
        report = run_study("DBpedia", texts, workers=8, pool=pool)
        assert report.stats.chunks >= 8

    def test_small_inputs_still_one_item_chunks(self):
        texts = self.make_texts(3)
        pool = FakePool(max_workers=4)
        report = run_study("DBpedia", texts, pool=pool)
        # not enough work for every worker: one entry per chunk, no more
        assert report.stats.chunks <= 3
