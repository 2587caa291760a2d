"""Query-log corpora, calibrated workloads, and the analysis pipeline.

Public surface:

* Workloads: :class:`SourceProfile`, :class:`QueryGenerator`,
  :func:`generate_source_log`, the per-source profiles
  (:data:`DBPEDIA`, :data:`WIKIDATA_ROBOTIC`, …)
* Corpora: :class:`QueryLogCorpus`, :func:`normalize_text`
* Analysis: :func:`analyze_corpus`, :func:`analyze_query` (reference),
  :func:`analyze_query_fused` (the single-traversal production
  battery), :class:`LogReport`, :func:`combine_reports`
* Pipeline: :func:`run_study` (fused parse+analyze workers — the one
  batch path for studies over raw text), :func:`stream_corpus`
  (dedup-first parallel ingestion),
  :class:`PipelineStats`, :class:`AnalysisCache`,
  :func:`battery_fingerprint`
* Reports: the ``render_table*`` functions of :mod:`repro.logs.report`
"""

from .analyzer import (
    BATTERY_VERSION,
    COUNTER_FIELDS,
    LogReport,
    VUCounter,
    analyze_corpus,
    analyze_query,
    apply_analysis,
    combine_reports,
    encode_analysis,
)
from .battery import analyze_query_fused, clear_battery_memos
from .cache import AnalysisCache, battery_fingerprint, cache_key
from .corpus import (
    ParsedEntry,
    QueryLogCorpus,
    merge_table2,
    normalize_text,
)
from .pipeline import (
    PipelineStats,
    iter_log_entries,
    run_study,
    stream_corpus,
)
from .report import (
    render_figure3,
    render_path_classes,
    render_table2,
    render_table3,
    render_table45,
    render_table6,
    render_table7,
    render_table8,
    render_well_designed,
)
from .workload import (
    ALL_PROFILES,
    BIOPORTAL,
    BRITISH_MUSEUM,
    DBPEDIA,
    DBPEDIA_FAMILY,
    LGD,
    QueryGenerator,
    SourceProfile,
    WIKIDATA_FAMILY,
    WIKIDATA_ORGANIC,
    WIKIDATA_ROBOTIC,
    generate_source_log,
)

__all__ = [
    "AnalysisCache",
    "BATTERY_VERSION",
    "COUNTER_FIELDS",
    "LogReport",
    "PipelineStats",
    "VUCounter",
    "analyze_corpus",
    "analyze_query",
    "analyze_query_fused",
    "apply_analysis",
    "clear_battery_memos",
    "battery_fingerprint",
    "cache_key",
    "combine_reports",
    "encode_analysis",
    "iter_log_entries",
    "run_study",
    "stream_corpus",
    "ParsedEntry",
    "QueryLogCorpus",
    "merge_table2",
    "normalize_text",
    "render_figure3",
    "render_path_classes",
    "render_table2",
    "render_table3",
    "render_table45",
    "render_table6",
    "render_table7",
    "render_table8",
    "render_well_designed",
    "ALL_PROFILES",
    "BIOPORTAL",
    "BRITISH_MUSEUM",
    "DBPEDIA",
    "DBPEDIA_FAMILY",
    "LGD",
    "QueryGenerator",
    "SourceProfile",
    "WIKIDATA_FAMILY",
    "WIKIDATA_ORGANIC",
    "WIKIDATA_ROBOTIC",
    "generate_source_log",
]
