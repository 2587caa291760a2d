"""The scalable end-to-end log-study pipeline.

The paper's headline studies run over logs of hundreds of millions of
entries; the sequential path (:meth:`QueryLogCorpus.add` per entry, then
:func:`analyze_corpus`) tokenizes and parses inline on one core and
keeps every raw text and AST resident.  This module is the
corpus-scale path, organized the way the Bonifati et al. log studies
were: **dedup first, shard, fuse, cache**.

* :func:`stream_corpus` / :meth:`QueryLogCorpus.from_stream` —
  streaming ingestion: normalize and count every raw entry first (one
  dict pass, duplicates never reach the parser), then parse only the
  unique texts, in chunks on a :class:`ProcessPoolExecutor` when
  ``workers`` > 1.  Workers receive raw text, never pickled ASTs.
* :func:`run_study` — the fused path: each worker parses a shard of
  unique texts *and* runs the single-traversal battery
  (:func:`repro.logs.battery.analyze_query_fused`) in the same process,
  shipping back only a compact partial :class:`LogReport` plus
  ``(key, record)`` pairs (``record`` = the JSON-able
  :func:`encode_analysis` form, or ``None`` for unparseable text).
  Partials merge through the existing :func:`combine_reports`; no AST
  ever crosses the process boundary in either direction.
* An opt-in persistent :class:`~repro.logs.cache.AnalysisCache` makes
  repeated studies over overlapping logs incremental: cache hits skip
  parsing *and* analysis, and a battery-fingerprint mismatch silently
  invalidates stale records.
* Every :func:`run_study` report carries a :class:`PipelineStats` with
  per-stage timings and cache accounting (printed by the benchmarks).

Identity contract: ``run_study`` reports are counter-for-counter equal
to ``analyze_corpus(QueryLogCorpus.from_texts(...))`` — asserted by the
``log-pipeline`` differential oracle of :mod:`repro.testing` on
randomized workloads.  One documented precondition, inherited from
textual dedup itself: entries with the same whitespace-normalized key
must have the same parse verdict (the sequential path also parses only
the first occurrence of a key it has accepted).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional as Opt,
    Tuple,
    Union,
)

from ..errors import SPARQLParseError
from ..sparql.ast import Query
from ..sparql.parser import parse_query
from ..core.parallelism import fan_out, pool_width
from .analyzer import (
    LogReport,
    apply_analysis,
    combine_reports,
    encode_analysis,
)
from .battery import analyze_query_fused
from .cache import AnalysisCache, cache_key
from .corpus import ParsedEntry, QueryLogCorpus, normalize_text

#: unique texts per process-pool task
DEFAULT_CHUNK_SIZE = 512

Source = Union[str, Path, Iterable[str]]
CacheSpec = Union[None, str, Path, AnalysisCache]


@dataclass
class PipelineStats:
    """Per-stage observability for one :func:`run_study` run."""

    source: str
    #: processes stage 3 actually ran on: 1 inline, else the pool width
    workers: int = 0
    chunks: int = 0
    entries: int = 0  #: raw entries ingested (== report.total)
    unique_texts: int = 0  #: distinct normalized keys, valid + invalid
    parsed_texts: int = 0  #: texts actually parsed this run
    cache_hits: int = 0
    cache_misses: int = 0
    ingest_seconds: float = 0.0
    parse_analyze_seconds: float = 0.0
    #: time inside :func:`~repro.sparql.parser.parse_query` across all
    #: workers (a subset of ``parse_analyze_seconds``; under a process
    #: pool the worker-side sums can exceed the stage wall-clock)
    parse_seconds: float = 0.0
    #: time inside the fused battery + :func:`encode_analysis`, same
    #: accounting as ``parse_seconds``
    analyze_seconds: float = 0.0
    merge_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "workers": self.workers,
            "chunks": self.chunks,
            "entries": self.entries,
            "unique_texts": self.unique_texts,
            "parsed_texts": self.parsed_texts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "ingest_seconds": round(self.ingest_seconds, 4),
            "parse_analyze_seconds": round(self.parse_analyze_seconds, 4),
            "parse_seconds": round(self.parse_seconds, 4),
            "analyze_seconds": round(self.analyze_seconds, 4),
            "merge_seconds": round(self.merge_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
        }

    def summary(self) -> str:
        return (
            f"[{self.source}] {self.entries} entries "
            f"({self.unique_texts} unique, {self.parsed_texts} parsed, "
            f"cache hit-rate {100.0 * self.cache_hit_rate:.1f}%) in "
            f"{self.total_seconds:.2f}s — ingest "
            f"{self.ingest_seconds:.2f}s, parse+analyze "
            f"{self.parse_analyze_seconds:.2f}s "
            f"(parse {self.parse_seconds:.2f}s, analyze "
            f"{self.analyze_seconds:.2f}s) "
            f"({self.workers} worker(s), {self.chunks} chunk(s)), "
            f"merge {self.merge_seconds:.2f}s"
        )


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


def iter_log_entries(
    source: Source, text_field: str = "query"
) -> Iterator[str]:
    """Raw entry texts from a source.

    * an iterable of strings is passed through;
    * a ``str``/``Path`` names a log file read line by line —
      ``.jsonl``/``.json`` files hold one JSON value per line (either a
      string or an object whose ``text_field`` — falling back to
      ``"text"`` — holds the query), anything else is one raw query per
      line (the usual shape of exported endpoint logs).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        jsonl = path.suffix.lower() in (".jsonl", ".json")
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if not jsonl:
                    yield line
                    continue
                value = json.loads(line)
                if isinstance(value, str):
                    yield value
                elif isinstance(value, dict):
                    text = value.get(text_field, value.get("text"))
                    if not isinstance(text, str):
                        raise ValueError(
                            f"JSONL entry without a {text_field!r} or "
                            f"'text' string field: {line[:80]!r}"
                        )
                    yield text
                else:
                    raise ValueError(
                        f"JSONL entry is neither string nor object: "
                        f"{line[:80]!r}"
                    )
    else:
        yield from source


def _ingest(
    texts: Iterable[str],
) -> Tuple[int, Dict[str, int], Dict[str, str], List[str]]:
    """Dedup-first pass: one dict probe per raw entry, no parsing.
    Returns (total, multiplicity per key, first raw text per key, keys
    in first-seen order)."""
    total = 0
    counts: Dict[str, int] = {}
    first_text: Dict[str, str] = {}
    order: List[str] = []
    get = counts.get
    for text in texts:
        total += 1
        key = normalize_text(text)
        seen = get(key)
        if seen is None:
            counts[key] = 1
            first_text[key] = text
            order.append(key)
        else:
            counts[key] = seen + 1
    return total, counts, first_text, order


def _open_cache(cache: CacheSpec) -> Opt[AnalysisCache]:
    if cache is None or isinstance(cache, AnalysisCache):
        return cache
    return AnalysisCache(cache)


# ---------------------------------------------------------------------------
# streaming ingestion -> corpus
# ---------------------------------------------------------------------------


def _parse_worker(
    chunk: List[Tuple[str, str]]
) -> List[Tuple[str, Opt[Query]]]:
    """Process-pool worker: parse one chunk of (key, raw text) pairs;
    ``None`` marks a text that does not parse."""
    out: List[Tuple[str, Opt[Query]]] = []
    for key, text in chunk:
        try:
            out.append((key, parse_query(text)))
        except (SPARQLParseError, RecursionError):
            out.append((key, None))
    return out


def stream_corpus(
    source: str,
    entries: Source,
    workers: Opt[int] = None,
    chunk_size: Opt[int] = None,
    text_field: str = "query",
    pool: Opt[ProcessPoolExecutor] = None,
) -> QueryLogCorpus:
    """Streaming ingestion: build a :class:`QueryLogCorpus` equal to
    ``QueryLogCorpus.from_texts(source, entries)`` but dedup-first —
    duplicates never reach the parser — and, with ``workers`` > 1 (or an
    externally managed ``pool``, which is borrowed and left running),
    with the unique texts parsed in chunks on a process pool.  The
    inline/pool choice, including the single-CPU downgrade, is
    :func:`~repro.core.parallelism.fan_out`'s."""
    chunk_size = chunk_size or DEFAULT_CHUNK_SIZE
    total, counts, first_text, order = _ingest(
        iter_log_entries(entries, text_field)
    )
    chunks = fan_out(
        _parse_worker,
        [(key, first_text[key]) for key in order],
        workers=workers,
        pool=pool,
        chunk_size=chunk_size,
    )
    invalid = 0
    parsed_entries: List[ParsedEntry] = []
    for key, query in (pair for chunk in chunks for pair in chunk):
        if query is None:
            invalid += counts[key]
        else:
            parsed_entries.append(
                ParsedEntry(first_text[key], key, query, counts[key])
            )
    return QueryLogCorpus(
        source, total=total, invalid=invalid, entries=parsed_entries
    )


# ---------------------------------------------------------------------------
# fused parse+analyze study
# ---------------------------------------------------------------------------


#: one :func:`_study_worker` result: counters-only report, invalid
#: occurrences, invalid unique keys, ``(key, record)`` pairs for the
#: cache, parse seconds, analyze seconds
StudyPartial = Tuple[
    LogReport, int, int, List[Tuple[str, Opt[Dict[str, Any]]]], float, float
]


def _study_worker(
    source: str, triples: List[Tuple[str, str, int]]
) -> StudyPartial:
    """Process-pool worker: parse *and* analyze one shard of
    (key, raw text, multiplicity) triples in the same process.

    Returns a compact partial: a :class:`LogReport` holding only
    counters, the invalid occurrence/unique counts, the
    ``(key, record)`` pairs for the cache — no AST travels back — and
    the seconds spent parsing vs analyzing, so
    :class:`PipelineStats` can attribute the stage cost.
    """
    report = LogReport(source, 0, 0, 0)
    records: List[Tuple[str, Opt[Dict[str, Any]]]] = []
    invalid = 0
    invalid_unique = 0
    parse_seconds = 0.0
    analyze_seconds = 0.0
    perf = time.perf_counter
    for key, text, multiplicity in triples:
        started = perf()
        try:
            query = parse_query(text)
        except (SPARQLParseError, RecursionError):
            parse_seconds += perf() - started
            records.append((key, None))
            invalid += multiplicity
            invalid_unique += 1
            continue
        parsed_at = perf()
        parse_seconds += parsed_at - started
        record = encode_analysis(analyze_query_fused(query))
        analyze_seconds += perf() - parsed_at
        apply_analysis(report, record, multiplicity)
        records.append((key, record))
    return (
        report,
        invalid,
        invalid_unique,
        records,
        parse_seconds,
        analyze_seconds,
    )


def _merge_study(
    source: str, total: int, unique: int, partials: List[StudyPartial]
) -> LogReport:
    """Merge study partials via :func:`combine_reports`.  Partials carry
    counters only, so the Table 2 header numbers are restored from the
    dedup accounting: ``total`` raw entries and ``unique`` distinct
    keys, less the invalid ones the partials counted."""
    report = combine_reports([result[0] for result in partials], name=source)
    report.total = total
    report.valid = total - sum(result[1] for result in partials)
    report.unique = unique - sum(result[2] for result in partials)
    return report


def run_study(
    source: str,
    entries: Source,
    workers: Opt[int] = None,
    cache: CacheSpec = None,
    chunk_size: Opt[int] = None,
    text_field: str = "query",
    pool: Opt[ProcessPoolExecutor] = None,
) -> LogReport:
    """The fused end-to-end study: raw entries in, :class:`LogReport`
    out, counter-for-counter identical to
    ``analyze_corpus(QueryLogCorpus.from_texts(source, entries))``.

    Stages (each timed on ``report.stats``):

    1. *ingest* — dedup-first streaming pass over the raw entries;
    2. *cache* — known keys are folded in from the
       :class:`AnalysisCache` (``cache`` may be a directory path or an
       open cache; ``None`` disables caching);
    3. *parse+analyze* — remaining unique texts go to fused workers
       through :func:`~repro.core.parallelism.fan_out` (``workers`` > 1
       on more than one usable CPU: a process pool; otherwise inline);
    4. *merge* — partials combine via :func:`combine_reports`, new
       records are flushed to the cache.

    ``pool`` lends an externally managed
    :class:`~concurrent.futures.ProcessPoolExecutor` for stage 3 and
    leaves it running afterwards — the long-lived serving deployment
    runs periodic studies without per-call pool construction.  Without
    it (and ``workers`` > 1) a fresh pool lives only for the call; on a
    single usable CPU the stage runs inline with a one-time
    ``RuntimeWarning`` instead.
    """
    overall_started = time.perf_counter()
    chunk_size = chunk_size or DEFAULT_CHUNK_SIZE
    stats = PipelineStats(source=source)

    stage_started = time.perf_counter()
    total, counts, first_text, order = _ingest(
        iter_log_entries(entries, text_field)
    )
    stats.ingest_seconds = time.perf_counter() - stage_started
    stats.entries = total
    stats.unique_texts = len(order)

    stage_started = time.perf_counter()
    cache_obj = _open_cache(cache)
    cached_partial = LogReport(source, 0, 0, 0)
    invalid = 0
    invalid_unique = 0
    pending: List[Tuple[str, str, int]] = []
    if cache_obj is not None:
        cache_obj.load()
        hits_before, misses_before = cache_obj.hits, cache_obj.misses
        for key in order:
            hit, record = cache_obj.get(cache_key(key))
            if not hit:
                pending.append((key, first_text[key], counts[key]))
            elif record is None:
                invalid += counts[key]
                invalid_unique += 1
            else:
                apply_analysis(cached_partial, record, counts[key])
        stats.cache_hits = cache_obj.hits - hits_before
        stats.cache_misses = cache_obj.misses - misses_before
    else:
        pending = [(key, first_text[key], counts[key]) for key in order]
    stats.parsed_texts = len(pending)

    results = fan_out(
        partial(_study_worker, source),
        pending,
        workers=workers,
        pool=pool,
        chunk_size=chunk_size,
    )
    stats.chunks = len(results)
    # fan_out runs inline as exactly one chunk and fans out as >= 2
    stats.workers = 1 if len(results) == 1 else pool_width(workers, pool)
    for *_, parse_seconds, analyze_seconds in results:
        stats.parse_seconds += parse_seconds
        stats.analyze_seconds += analyze_seconds
    stats.parse_analyze_seconds = time.perf_counter() - stage_started

    stage_started = time.perf_counter()
    # the cache hits fold in as one more partial
    cached = (cached_partial, invalid, invalid_unique, [], 0.0, 0.0)
    report = _merge_study(
        source, total, stats.unique_texts, [cached, *results]
    )
    if cache_obj is not None:
        for _, _, _, records, _, _ in results:
            for key, record in records:
                cache_obj.put(cache_key(key), record)
        cache_obj.flush()
    stats.merge_seconds = time.perf_counter() - stage_started
    stats.total_seconds = time.perf_counter() - overall_started
    report.stats = stats
    return report
