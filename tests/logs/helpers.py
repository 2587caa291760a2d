"""Shared helpers for the log-study tests: report identity and small
synthetic logs."""

from repro.logs.analyzer import COUNTER_FIELDS, LogReport
from repro.logs.workload import DBPEDIA, WIKIDATA_ORGANIC, generate_source_log


def synthetic_logs():
    """``(source, raw texts)`` for two calibrated 120-entry logs."""
    return [
        (profile.name, generate_source_log(profile, total=120, seed=7))
        for profile in (DBPEDIA, WIKIDATA_ORGANIC)
    ]


def assert_reports_identical(left: LogReport, right: LogReport):
    assert left.source == right.source
    assert (left.total, left.valid, left.unique) == (
        right.total,
        right.valid,
        right.unique,
    )
    for name in COUNTER_FIELDS:
        assert getattr(left, name).items() == getattr(right, name).items(), name
