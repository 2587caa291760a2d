"""End-to-end log-study pipeline vs the sequential seed path.

A ~100k-entry synthetic DBpedia-calibrated log — the regime of the
paper's corpus studies scaled to one machine.  Five phases, all checked
counter-for-counter against each other:

* ``sequential``  — the seed path: ``QueryLogCorpus.from_texts`` +
  ``analyze_corpus`` (kept as the reference oracle);
* ``fused``       — ``run_study(workers=1)``: dedup-first ingestion +
  the fused parse+analyze loop, single process;
* ``parallel``    — ``run_study(workers=N)``: fused process-pool
  workers (raw text in, compact counter partials out);
* ``cache_cold``  — ``run_study(workers=1, cache=dir)`` on an empty
  cache (pays the analysis *and* the cache build);
* ``cache_warm``  — the same study again: every unique text is served
  from the persistent cache, nothing is parsed or analyzed.

The parallel phase only buys wall-clock time when the hardware has the
cores — its >= 3x gate applies on >= 4 usable CPUs (the cold/warm cache
phases run ``workers=1`` so that ratio is hardware-independent).  The
measured numbers, per-stage timings, and cache hit-rates land in
``benchmarks/results/log_pipeline.json``.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_log_pipeline.py

(scale with ``REPRO_BENCH_LOG_ENTRIES`` / ``REPRO_BENCH_LOG_WORKERS``;
CI runs a reduced smoke scale) or via pytest, which also enforces the
speedup gates at full scale.
"""

import json
import os
import pathlib
import tempfile
import time

from repro.errors import SPARQLParseError
from repro.logs.analyzer import (
    COUNTER_FIELDS,
    analyze_corpus,
    encode_analysis,
)
from repro.logs.battery import analyze_query_fused, clear_battery_memos
from repro.logs.corpus import QueryLogCorpus
from repro.logs.pipeline import run_study
from repro.logs.workload import DBPEDIA, generate_source_log
from repro.sparql.parser import _Parser, parse_query
from repro.testing.reference import analyze_query, tokenize_reference

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "log_pipeline.json"
)
PARSE_ANALYZE_RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "parse_analyze.json"
)

ENTRIES = int(os.environ.get("REPRO_BENCH_LOG_ENTRIES", "100000"))
WORKERS = int(os.environ.get("REPRO_BENCH_LOG_WORKERS", "4"))
#: the parse+analyze microbenchmark runs on its own smaller log — it
#: times the per-query hot path directly, no pipeline plumbing
PA_ENTRIES = int(os.environ.get("REPRO_BENCH_PA_ENTRIES", "12000"))
PA_ROUNDS = int(os.environ.get("REPRO_BENCH_PA_ROUNDS", "3"))
SEED = 2022


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def assert_identical(reference, candidate, label):
    assert (reference.total, reference.valid, reference.unique) == (
        candidate.total,
        candidate.valid,
        candidate.unique,
    ), f"{label}: header mismatch"
    for name in COUNTER_FIELDS:
        assert (
            getattr(reference, name).items()
            == getattr(candidate, name).items()
        ), f"{label}: counter {name} diverges"


def run_benchmark():
    print(
        f"generating {ENTRIES} log entries "
        f"(REPRO_BENCH_LOG_ENTRIES to scale) ..."
    )
    texts = generate_source_log(DBPEDIA, ENTRIES, seed=SEED)

    timings = {}
    stages = {}

    started = time.perf_counter()
    corpus = QueryLogCorpus.from_texts("DBpedia", texts)
    reference = analyze_corpus(corpus)
    timings["sequential"] = time.perf_counter() - started

    def study_phase(label, **kwargs):
        started = time.perf_counter()
        report = run_study("DBpedia", texts, **kwargs)
        timings[label] = time.perf_counter() - started
        stages[label] = report.stats.as_dict()
        print(f"{label:>11}: {report.stats.summary()}")
        assert_identical(reference, report, label)
        return report

    study_phase("fused", workers=1)
    parallel_report = study_phase("parallel", workers=WORKERS)
    if _usable_cpus() >= 2:
        # the fan-out regression this repo once shipped: chunk count
        # derived from a fixed chunk size left most of the pool idle —
        # every worker must get work whenever the pool actually runs
        assert parallel_report.stats.chunks >= min(
            WORKERS, ENTRIES
        ), parallel_report.stats.as_dict()
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = study_phase("cache_cold", workers=1, cache=cache_dir)
        warm = study_phase("cache_warm", workers=1, cache=cache_dir)
        assert cold.stats.cache_hits == 0
        assert warm.stats.cache_misses == 0
        assert warm.stats.parsed_texts == 0

    result = {
        "entries": ENTRIES,
        "unique": reference.unique,
        "valid": reference.valid,
        "workers": WORKERS,
        "cpus": _usable_cpus(),
        "seconds": {
            name: round(value, 4) for name, value in timings.items()
        },
        "parallel_speedup": round(
            timings["sequential"] / timings["parallel"], 2
        ),
        "fused_speedup": round(
            timings["sequential"] / timings["fused"], 2
        ),
        "warm_over_cold_speedup": round(
            timings["cache_cold"] / timings["cache_warm"], 2
        ),
        "warm_over_sequential_speedup": round(
            timings["sequential"] / timings["cache_warm"], 2
        ),
        "stages": stages,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print("\n===== log_pipeline =====")
    print(json.dumps(result, indent=2))
    return result


def run_parse_analyze_benchmark():
    """The per-query hot path, old stack vs new stack.

    Reference: the interpreted-regex lexer (``tokenize_reference``)
    feeding the parser, then the multi-pass reference battery
    (``analyze_query``).  Optimized: the table-driven scanner
    (``parse_query``) and the single-traversal fused battery
    (``analyze_query_fused``).  The encoded analysis records must be
    byte-identical before any timing counts; the fused side clears the
    structural memos first, so it pays its own cold misses and only
    profits from repetition actually present in the log — the same
    regime ``analyze_corpus`` sees."""
    texts = generate_source_log(DBPEDIA, PA_ENTRIES, seed=SEED + 1)

    def reference_pass():
        records = []
        for text in texts:
            try:
                query = _Parser(
                    tokenize_reference(text), text
                ).parse_query()
            except SPARQLParseError:
                continue
            records.append(encode_analysis(analyze_query(query)))
        return records

    def fused_pass():
        clear_battery_memos()
        records = []
        for text in texts:
            try:
                query = parse_query(text)
            except SPARQLParseError:
                continue
            records.append(encode_analysis(analyze_query_fused(query)))
        return records

    reference_records = reference_pass()
    fused_records = fused_pass()
    assert reference_records == fused_records, (
        "fused parse+analyze records diverge from the reference stack"
    )
    valid = len(reference_records)

    best_reference = best_fused = float("inf")
    for _round in range(PA_ROUNDS):
        started = time.perf_counter()
        reference_pass()
        best_reference = min(
            best_reference, time.perf_counter() - started
        )
        started = time.perf_counter()
        fused_pass()
        best_fused = min(best_fused, time.perf_counter() - started)

    result = {
        "entries": PA_ENTRIES,
        "valid": valid,
        "rounds": PA_ROUNDS,
        "reference_seconds": round(best_reference, 4),
        "fused_seconds": round(best_fused, 4),
        "reference_us_per_query": round(
            best_reference / max(valid, 1) * 1e6, 1
        ),
        "fused_us_per_query": round(
            best_fused / max(valid, 1) * 1e6, 1
        ),
        "speedup": round(best_reference / max(best_fused, 1e-9), 2),
    }
    PARSE_ANALYZE_RESULTS_PATH.parent.mkdir(exist_ok=True)
    PARSE_ANALYZE_RESULTS_PATH.write_text(
        json.dumps(result, indent=2) + "\n"
    )
    print("\n===== parse_analyze =====")
    print(json.dumps(result, indent=2))
    return result


def test_parse_analyze_speedup():
    result = run_parse_analyze_benchmark()
    # table-driven lexer + fused battery vs regex lexer + reference
    # battery, identical output records: the whole point of the rewrite
    assert result["speedup"] >= 2.0, result


def test_log_pipeline_speedup():
    result = run_benchmark()
    assert result["entries"] >= 100_000
    # warm cache serves every unique text without parse or analysis;
    # the ratio is hardware-independent (both phases run workers=1).
    # The bar moved from 5x to 2.5x when the table-driven lexer and the
    # fused battery halved the cold side — the warm pass is unchanged,
    # the denominator got faster.
    assert result["warm_over_cold_speedup"] >= 2.5, result
    # process-pool speedup needs the cores to exist; on smaller hosts
    # the honest measurement is still recorded in the JSON artifact
    if result["cpus"] >= 4:
        assert result["parallel_speedup"] >= 3.0, result
    # the fused serial path must never regress vs the seed loop
    assert result["fused_speedup"] >= 0.9, result


if __name__ == "__main__":
    run_benchmark()
    run_parse_analyze_benchmark()
