"""Query-log corpora, calibrated workloads, and the analysis pipeline.

Public surface:

* Workloads: :class:`SourceProfile`, :class:`QueryGenerator`,
  :func:`generate_source_log`, the per-source profiles
  (:data:`DBPEDIA`, :data:`WIKIDATA_ROBOTIC`, …)
* Corpora: :class:`QueryLogCorpus`, :func:`normalize_text`
* Analysis: :func:`analyze_corpus`, :func:`analyze_query_fused` (the
  single-traversal battery; its multi-pass reference,
  ``analyze_query``, lives in :mod:`repro.testing.reference`),
  :class:`LogReport`, :func:`combine_reports`
* Pipeline: :func:`run_study` (fused parse+analyze workers — the one
  batch path for studies over raw text), :func:`stream_corpus`
  (dedup-first parallel ingestion),
  :class:`PipelineStats`, :class:`AnalysisCache`,
  :func:`battery_fingerprint`
* Reports: the ``render_table*`` functions of :mod:`repro.logs.report`
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "analyzer": (
        "BATTERY_VERSION", "COUNTER_FIELDS", "LogReport", "VUCounter", "analyze_corpus",
        "apply_analysis", "combine_reports", "encode_analysis",
    ),
    "battery": ("analyze_query_fused", "clear_battery_memos"),
    "cache": ("AnalysisCache", "battery_fingerprint", "cache_key"),
    "corpus": ("ParsedEntry", "QueryLogCorpus", "merge_table2", "normalize_text"),
    "pipeline": ("PipelineStats", "iter_log_entries", "run_study", "stream_corpus"),
    "report": (
        "render_figure3", "render_path_classes", "render_table2", "render_table3",
        "render_table45", "render_table6", "render_table7", "render_table8",
        "render_well_designed",
    ),
    "workload": (
        "ALL_PROFILES", "BIOPORTAL", "BRITISH_MUSEUM", "DBPEDIA", "DBPEDIA_FAMILY",
        "LGD", "QueryGenerator", "SourceProfile", "WIKIDATA_FAMILY", "WIKIDATA_ORGANIC",
        "WIKIDATA_ROBOTIC", "generate_source_log",
    ),
})
