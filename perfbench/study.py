"""The in-process study workloads.

* ``study-log``: one op is ``run_study(..., workers=1)`` over a 50-entry
  log slice, alternating DBpedia- and Wikidata-like profiles, from a pool
  of 400 distinct slices generated before the clock starts (the warm-up
  is one pass over the pool).  No wire, cache or graph: the SPARQL
  parser, the analysis battery and the pipeline do all the work.
* ``study-stream``: one op is one generated XML or JSON document fed in
  fixed-size chunks through ``trees.chunked`` and validated by the
  streaming NFTA validator against a DTD, a non-single-type EDTD or a
  BonXai schema (DTD documents also through ``validate_stream``); every
  tenth op is instead an antichain inclusion decision on the 2^k family.
  The documents cover the schema kinds, sizes 4-12 and a 30% invalid
  share in fixed proportions.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import inputs
import layers
from measure import ROOT, OpLog, peak_rss_kb, per_op, reset_peak_rss
from spans import Patcher, Recorder, Summary

LOG_SLICE = 50  #: log entries per study-log op
#: distinct slices per run.  The warm-up is one pass over all of them and
#: the timed window cycles through them again: the battery memoizes its
#: derivations by query shape, and the first sight of a large star query
#: costs up to ~300 ms, so a window over unseen slices measures how many
#: rare shapes it happened to meet (p99 spread ~0.8 across seeds); after
#: the pass it measures the warm battery, and the cold pass shows in
#: bench.warmup_s
LOG_SLICES = 400
LOG_WARMUP_OPS = LOG_SLICES
LOG_VERIFY_EVERY = 97  #: keep every 97th report for the oracle check
SETUP_REPS = 7  #: fresh-interpreter repetitions of the set-up

STREAM_CHUNK = 1024  #: characters per read of the chunked tokenizer
#: every (schema kind, size, valid-or-not) combination in fixed shares,
#: shuffled by the seed: the seed changes documents' content, not the mix,
#: so the latency percentiles of two seeds compare the same workload
STREAM_SIZES = range(4, 13)
STREAM_INVALID_IN_10 = 3
STREAM_REPEATS = 4  #: copies of each combination (1080 documents)
STREAM_WARMUP_OPS = 200
INCLUSION_EVERY = 10
INCLUSION_K = 40
INCLUSION_CHECK_K = 6  #: small enough for determinize-and-product


def _closed_loop(op: Callable[[int], None], start: int, seconds: float) -> Tuple[OpLog, int]:
    """One caller, in process: run ``op(i)`` back to back, with speed
    probes between ops, for a window of ``seconds``; the peak memory is
    that of the window."""
    # start from no collectable garbage, so the window's peak does not
    # depend on how much the warm-up happened to leave uncollected
    gc.collect()
    reset_peak_rss([os.getpid()])
    log = OpLog(seconds)
    index = start
    perf = time.perf_counter
    while log.running():
        began = perf()
        op(index)
        done = perf()
        log.record(done, done - began, True)
        if log.probe_due():
            log.probe()
        index += 1
    log.finish()
    log.rss_mb = peak_rss_kb(os.getpid()) / 1024.0
    return log, index


def _windows(op, start: int, seconds: int, trace: int, install, rec: Recorder):
    """The timed window; with tracing, an untraced half then a traced
    half (wrappers installed only for the second).  Returns (log of the
    reported window, untraced log)."""
    if not trace:
        log, _ = _closed_loop(op, start, seconds)
        return log, log
    untraced, index = _closed_loop(op, start, seconds / 2)
    patcher = Patcher()
    install(patcher, rec)
    rec.tracing = True
    try:
        traced, _ = _closed_loop(op, index, seconds / 2)
    finally:
        rec.tracing = False
        patcher.restore()
    return traced, untraced


def _span(rec: Recorder, name: str):
    return rec.span(name) if rec.tracing else contextlib.nullcontext()


#: study-log's set-up: importing the pipeline builds the SPARQL scanner tables
LOG_SETUP = "import repro.logs.pipeline"
#: study-stream's set-up: import the tree modules, compile the three
#: schemas and the inclusion family (the standard-library imports of
#: ``bench_tree_automata`` are loaded before the clock starts)
STREAM_SETUP = """
import repro.trees.automata, repro.trees.chunked, repro.trees.streaming
import inputs
for kind in sorted(inputs.SCHEMAS):
    inputs.compile_schema_of(kind)
for fails in (False, True):
    inputs.inclusion_pair(INCLUSION_K, fails)
"""


def _fresh_setup_s(body: str) -> Tuple[List[float], List[float]]:
    """Time ``body`` in fresh interpreters, so every repetition is as
    cold as a user's start.  Returns the times at the reference speed
    (probes just before and after ``body``) and the wall times."""
    code = "\n".join((
        "import json, os, pathlib, sys, time",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
        "import measure",
        f"INCLUSION_K = {INCLUSION_K}",
        "before = measure.speed_scale()",
        "started = time.perf_counter()",
        body,
        "wall = time.perf_counter() - started",
        "print(measure.at_reference(wall, before, measure.speed_scale()), wall)",
    ))
    times, walls = [], []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        scaled, wall = out.stdout.split()
        times.append(float(scaled))
        walls.append(float(wall))
    return times, walls


def _finish(result: Dict, log: OpLog, untraced: OpLog, rec: Recorder, workload: str, trace: int,
            extra, out: Path):
    tables = Summary(rec.spans).tables()
    result["log"] = log
    result["calls"] = tables["calls"]
    if trace:
        ops = log.attempted
        metrics = {
            "automata.compile_ms": layers.mean_ms(tables, "automata.compile"),
            "trace.unattributed_ms": layers.per_op_ms(tables, ("bench.op",), ops, "self"),
            "trace.overhead_ratio": layers.ratio(log.throughput, untraced.throughput),
        }
        metrics.update(extra(tables, ops))
        result["layers"] = metrics
        result["coverage_missing"] = layers.coverage_failures(workload, tables["calls"])
        (out / "spans.json").write_text(json.dumps(rec.spans))
    return result


# -- study-log -------------------------------------------------------------------------


def run_log(seed: int, seconds: int, trace: int, out: Path) -> Dict:
    from repro.logs import pipeline
    from repro.logs.analyzer import analyze_corpus, encode_report
    from repro.logs.corpus import QueryLogCorpus
    from repro.logs.workload import DBPEDIA, WIKIDATA_ORGANIC, generate_source_log

    slices = []
    for i in range(LOG_SLICES):
        name, profile = ("dbpedia", DBPEDIA) if i % 2 == 0 else ("wikidata", WIKIDATA_ORGANIC)
        slices.append((name, generate_source_log(profile, LOG_SLICE, seed=seed * 100003 + i)))
    result: Dict = {}
    result["setup_reps_s"], result["setup_wall_s"] = _fresh_setup_s(LOG_SETUP)
    result["setup_s"] = statistics.median(result["setup_reps_s"])
    rec = Recorder()
    kept: Dict[int, object] = {}
    stage = {"ingest": 0.0, "parse": 0.0, "analyze": 0.0, "merge": 0.0, "unique": 0, "entries": 0}

    def op(index: int) -> None:
        name, texts = slices[index % LOG_SLICES]
        with _span(rec, "bench.op"):
            report = pipeline.run_study(name, texts, workers=1)
        if rec.tracing:
            stats = report.stats
            stage["ingest"] += stats.ingest_seconds
            stage["parse"] += stats.parse_seconds
            stage["analyze"] += stats.analyze_seconds
            stage["merge"] += stats.merge_seconds
            stage["unique"] += stats.unique_texts
            stage["entries"] += stats.entries
        if index % LOG_VERIFY_EVERY == 0:
            kept[index] = report

    started = time.perf_counter()
    for index in range(LOG_WARMUP_OPS):
        op(index)
    result["warmup_s"] = time.perf_counter() - started
    log, untraced = _windows(op, LOG_WARMUP_OPS, seconds, trace, layers.install_study_log, rec)

    problems = []
    for index, report in sorted(kept.items()):
        name, texts = slices[index % LOG_SLICES]
        expected = analyze_corpus(QueryLogCorpus.from_texts(name, texts))
        if encode_report(report) != encode_report(expected):
            problems.append(f"run_study slice {index} differs from analyze_corpus")
    result["problems"] = problems
    result["verified"] = len(kept)

    def extra(tables: layers.Tables, ops: int) -> Dict[str, float]:
        return {
            "parser.tokenize_ms": layers.per_op_ms(tables, ("parser.tokenize",), ops),
            "parser.parse_ms": layers.per_op_ms(tables, ("parser.parse",), ops, "self"),
            "battery.analyze_ms": layers.per_op_ms(tables, ("battery.analyze",), ops),
            "pipeline.ingest_ms": per_op(stage["ingest"], ops) * 1000.0,
            "pipeline.parse_ms": per_op(stage["parse"], ops) * 1000.0,
            "pipeline.analyze_ms": per_op(stage["analyze"], ops) * 1000.0,
            "pipeline.merge_ms": per_op(stage["merge"], ops) * 1000.0,
            "pipeline.unique_ratio": layers.ratio(stage["unique"], stage["entries"]),
        }

    return _finish(result, log, untraced, rec, "study-log", trace, extra, out)


# -- study-stream ------------------------------------------------------------------------


def run_stream(seed: int, seconds: int, trace: int, out: Path) -> Dict:
    from repro.trees import streaming
    from repro.trees.automata import StreamingTreeValidator, contains_determinize
    from repro.trees.dtd import DTD

    kinds = sorted(inputs.SCHEMAS)
    rec = Recorder()
    result: Dict = {}
    result["setup_reps_s"], result["setup_wall_s"] = _fresh_setup_s(STREAM_SETUP)
    result["setup_s"] = statistics.median(result["setup_reps_s"])
    # the same compiles in this process, for the ops (and, traced, for
    # automata.compile_ms)
    setup_patches = Patcher()
    if trace:
        layers.install_compile(setup_patches, rec)
    try:
        automata = {kind: inputs.compile_schema_of(kind) for kind in kinds}
        pairs = [inputs.inclusion_pair(INCLUSION_K, fails) for fails in (False, True)]
    finally:
        setup_patches.restore()
    dtd_spec = inputs.SCHEMAS["dtd"]
    dtd = DTD.from_rules(dtd_spec["rules"], start=dtd_spec["start"])
    rng = random.Random(seed)
    docs = []
    plan = [
        (kind, size, slot < STREAM_INVALID_IN_10)
        for kind in kinds for size in STREAM_SIZES for slot in range(10)
    ] * STREAM_REPEATS
    rng.shuffle(plan)
    for kind, size, invalid in plan:
        docs.append((kind, inputs.document(rng, kind, size, invalid)))

    verdicts: Dict[int, bool] = {}
    inclusions: Dict[bool, bool] = {}
    counts = {"docs": 0, "events": 0, "cells": 0}
    problems: List[str] = []

    def op(index: int) -> None:
        with _span(rec, "bench.op"):
            if index % INCLUSION_EVERY == INCLUSION_EVERY - 1:
                fails = (index // INCLUSION_EVERY) % 2 == 1
                aut_a, aut_b = pairs[fails]
                inclusions[fails] = aut_a.included_in(aut_b)
                return
            # the count of document ops before this one: every document
            # comes round, whatever its place among the inclusion ops
            doc_index = (index - (index + 1) // INCLUSION_EVERY) % len(docs)
            kind, text = docs[doc_index]
            with _span(rec, "chunked.tokenize"):
                events = list(streaming.events_of(
                    io.StringIO(text), format=inputs.SCHEMAS[kind]["format"], chunk_size=STREAM_CHUNK))
            with _span(rec, "automata.validate"):
                validator = StreamingTreeValidator(automata[kind])
                for event in events:
                    if not validator.feed(event):
                        break
                verdict = validator.finish()
            if kind == "dtd" and streaming.validate_stream(dtd, events) != verdict:
                problems.append(f"validate_stream disagrees with the NFTA on document {doc_index}")
        if verdicts.setdefault(doc_index, verdict) != verdict:
            problems.append(f"document {doc_index} changed verdict between runs")
        if rec.tracing:
            counts["docs"] += 1
            counts["events"] += len(events)
            counts["cells"] = max(counts["cells"], validator.max_tracked_cells)

    started = time.perf_counter()
    for index in range(STREAM_WARMUP_OPS):
        op(index)
    result["warmup_s"] = time.perf_counter() - started
    log, untraced = _windows(
        op, STREAM_WARMUP_OPS, seconds, trace, layers.install_study_stream, rec)

    for doc_index, verdict in sorted(verdicts.items()):
        kind, text = docs[doc_index]
        if inputs.reference_verdict(kind, text) != verdict:
            problems.append(f"document {doc_index} ({kind}): streaming verdict {verdict} "
                            f"differs from EDTD.validate")
    if inclusions != {False: True, True: False}:
        problems.append(f"inclusion at k={INCLUSION_K} gave {inclusions}")
    for fails in (False, True):
        aut_a, aut_b = inputs.inclusion_pair(INCLUSION_CHECK_K, fails)
        if aut_a.included_in(aut_b) != contains_determinize(aut_a, aut_b):
            problems.append(f"antichain inclusion differs from contains_determinize at k={INCLUSION_CHECK_K}")
    result["problems"] = problems
    result["verified"] = len(verdicts)

    def extra(tables: layers.Tables, ops: int) -> Dict[str, float]:
        return {
            "chunked.tokenize_ms": layers.per_op_ms(tables, ("chunked.tokenize",), ops),
            "chunked.events_per_doc": per_op(counts["events"], counts["docs"]),
            "automata.validate_ms": layers.per_op_ms(tables, ("automata.validate",), ops),
            "streaming.dtd_validate_ms": layers.per_op_ms(tables, ("streaming.dtd_validate",), ops),
            "automata.tracked_cells_max": counts["cells"],
            "automata.inclusion_ms": layers.per_op_ms(tables, ("automata.inclusion",), ops),
        }

    return _finish(result, log, untraced, rec, "study-stream", trace, extra, out)
