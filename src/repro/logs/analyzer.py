"""The SHARQL-style analysis battery (Sections 9.3–9.6).

:func:`analyze_corpus` runs every structural analysis over a corpus and
returns a :class:`LogReport` holding Valid- and Unique-weighted counters
for each of the paper's tables:

* triple-count histogram (Figure 3),
* keyword features (Table 3),
* operator-set fragments and the CQ / CQ+F / C2RPQ+F subtotals
  (Tables 4–5),
* hypertree width and free-connex acyclicity of CQ+F queries (Table 6),
* canonical-graph shapes, with and without constants (Table 7),
* property-path type buckets plus STE / C_tract / T_tract coverage
  (Table 8 and the Section 9.6 discussion),
* well-designedness of the And/Filter/Optional fragment (Section 9.4).

Every per-query analysis is computed once per *unique* query and then
weighted by its multiplicity for the Valid numbers — exactly how a study
over hundreds of millions of queries has to operate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional as Opt, Tuple

from .battery import analyze_query_fused
from .corpus import QueryLogCorpus

#: Version of the analysis battery.  Bump whenever the battery
#: (:func:`repro.logs.battery.analyze_query_fused` and its reference,
#: :func:`repro.testing.reference.analyze_query`) or
#: :func:`apply_analysis` change what they compute or how results are
#: keyed — the persistent cache (:mod:`repro.logs.cache`) folds it into
#: its fingerprint, so stale cached analyses invalidate automatically.
BATTERY_VERSION = "1"

#: The counter fields of :class:`LogReport`, in declaration order; the
#: single source of truth for merging, fingerprinting, and the identity
#: checks of the differential oracle.
COUNTER_FIELDS = (
    "triple_histogram",
    "features",
    "operator_sets",
    "query_types",
    "htw",
    "free_connex",
    "shapes_with_constants",
    "shapes_without_constants",
    "path_buckets",
    "path_classes",
    "well_designed",
    "union_well_designed",
    "well_behaved",
)


class VUCounter:
    """A counter that tracks Valid (multiplicity-weighted) and Unique
    counts per key."""

    def __init__(self):
        self.valid: Counter = Counter()
        self.unique: Counter = Counter()

    def add(self, key, multiplicity: int) -> None:
        self.valid[key] += multiplicity
        self.unique[key] += 1

    def items(self):
        keys = sorted(set(self.valid) | set(self.unique), key=str)
        return [(key, self.valid[key], self.unique[key]) for key in keys]

    def totals(self) -> Tuple[int, int]:
        return sum(self.valid.values()), sum(self.unique.values())


@dataclass
class LogReport:
    """All analysis results for one corpus."""

    source: str
    total: int
    valid: int
    unique: int
    triple_histogram: VUCounter = field(default_factory=VUCounter)
    features: VUCounter = field(default_factory=VUCounter)
    operator_sets: VUCounter = field(default_factory=VUCounter)
    query_types: VUCounter = field(default_factory=VUCounter)
    htw: VUCounter = field(default_factory=VUCounter)
    free_connex: VUCounter = field(default_factory=VUCounter)
    shapes_with_constants: VUCounter = field(default_factory=VUCounter)
    shapes_without_constants: VUCounter = field(default_factory=VUCounter)
    path_buckets: VUCounter = field(default_factory=VUCounter)
    path_classes: VUCounter = field(default_factory=VUCounter)
    well_designed: VUCounter = field(default_factory=VUCounter)
    union_well_designed: VUCounter = field(default_factory=VUCounter)
    well_behaved: VUCounter = field(default_factory=VUCounter)
    #: per-stage timings and cache accounting when the report was built
    #: by :func:`repro.logs.pipeline.run_study` (a
    #: :class:`~repro.logs.pipeline.PipelineStats`); ``None`` for the
    #: sequential battery
    stats: Opt[object] = field(default=None, repr=False, compare=False)

    # subtotals over operator sets ------------------------------------------------

    def fragment_subtotal(self, allowed: frozenset) -> Tuple[int, int]:
        valid = unique = 0
        for key, v, u in self.operator_sets.items():
            if frozenset(key) <= allowed:
                valid += v
                unique += u
        return valid, unique

    def cq_subtotal(self) -> Tuple[int, int]:
        return self.fragment_subtotal(frozenset({"And"}))

    def cq_f_subtotal(self) -> Tuple[int, int]:
        return self.fragment_subtotal(frozenset({"And", "Filter"}))

    def c2rpq_f_subtotal(self) -> Tuple[int, int]:
        return self.fragment_subtotal(
            frozenset({"And", "Filter", "2RPQ"})
        )


def _histogram_bucket(count: int) -> str:
    """Figure 3 buckets: 0..10 and '11+'."""
    return str(count) if count <= 10 else "11+"


def apply_analysis(
    report: LogReport, analysis: Dict[str, object], multiplicity: int
) -> None:
    """Fold one per-query analysis into a report's counters.

    Accepts both the in-memory form of
    :func:`~repro.logs.battery.analyze_query_fused` and the
    JSON round-tripped form of :func:`encode_analysis` (sets arrive as
    lists, tuples as lists) — every counter key built here is identical
    for the two, which is what makes the parallel and cached pipeline
    paths counter-for-counter equal to the sequential battery.
    """
    report.query_types.add(analysis["type"], multiplicity)
    if analysis["type"] == "DESCRIBE":
        # the paper omits DESCRIBE from the per-feature statistics
        return
    report.triple_histogram.add(
        _histogram_bucket(analysis["triples"]), multiplicity
    )
    for feature in analysis["features"]:
        report.features.add(feature, multiplicity)
    report.operator_sets.add(
        tuple(sorted(analysis["operators"])), multiplicity
    )
    if "htw" in analysis and analysis["htw"] is not None:
        report.htw.add(analysis["htw"], multiplicity)
        report.free_connex.add(bool(analysis["fca"]), multiplicity)
    if "shape_with" in analysis:
        report.shapes_with_constants.add(
            analysis["shape_with"], multiplicity
        )
        report.shapes_without_constants.add(
            analysis["shape_without"], multiplicity
        )
    if "well_designed" in analysis:
        report.well_designed.add(
            bool(analysis["well_designed"]), multiplicity
        )
        report.well_behaved.add(
            bool(analysis["well_behaved"]), multiplicity
        )
    if "uwd" in analysis:
        report.union_well_designed.add(
            bool(analysis["uwd"]), multiplicity
        )
    for bucket in analysis.get("path_buckets", ()):
        report.path_buckets.add(bucket, multiplicity)
    for ste, ctract, ttract in analysis.get("path_classes", ()):
        report.path_classes.add(
            (
                "ste" if ste else "non-ste",
                "ctract" if ctract else "non-ctract",
                "ttract" if ttract else "non-ttract",
            ),
            multiplicity,
        )


def encode_analysis(analysis: Dict[str, object]) -> Dict[str, object]:
    """The JSON-able form of an
    :func:`~repro.logs.battery.analyze_query_fused` result.

    Sets become sorted lists and bool-triples become lists; everything
    else (ints, bools, strings, the ``htw: None`` marker) is already
    JSON.  :func:`apply_analysis` accepts this form directly, so the
    encoded record is what workers ship back and what the persistent
    cache stores — never an AST.
    """
    out: Dict[str, object] = {}
    for key, value in analysis.items():
        if key in ("features", "operators"):
            out[key] = sorted(value)
        elif key == "path_classes":
            out[key] = [
                [bool(ste), bool(ctract), bool(ttract)]
                for ste, ctract, ttract in value
            ]
        else:
            out[key] = value
    return out


def analyze_corpus(corpus: QueryLogCorpus) -> LogReport:
    """Run the full battery over one corpus (the sequential reference
    path — :func:`repro.logs.pipeline.run_study` is checked against it
    counter for counter)."""
    report = LogReport(
        corpus.source, corpus.total, corpus.valid, corpus.unique
    )
    for query, multiplicity in corpus.iter_valid():
        apply_analysis(report, analyze_query_fused(query), multiplicity)
    return report


def _encode_key(key) -> object:
    """A JSON-able tagged form of one counter key.

    Counter keys are strings, ints, bools, or tuples of those
    (operator sets, path classes); JSON cannot key objects by tuple and
    would conflate ``True``/``1`` and ``"3"``/``3``, so every key is
    tagged with its type and restored exactly by :func:`_decode_key`.
    """
    if isinstance(key, bool):
        return ["b", key]
    if isinstance(key, int):
        return ["i", key]
    if isinstance(key, str):
        return ["s", key]
    if isinstance(key, tuple):
        return ["t", [_encode_key(part) for part in key]]
    if key is None:
        return ["n"]
    raise TypeError(f"unencodable counter key: {key!r}")


def _decode_key(encoded) -> object:
    tag = encoded[0]
    if tag == "b":
        return bool(encoded[1])
    if tag == "i":
        return int(encoded[1])
    if tag == "s":
        return encoded[1]
    if tag == "t":
        return tuple(_decode_key(part) for part in encoded[1])
    if tag == "n":
        return None
    raise ValueError(f"unknown counter-key tag: {tag!r}")


def encode_report(report: LogReport) -> Dict[str, object]:
    """The JSON-able form of a :class:`LogReport` — the battery
    endpoint's wire payload, and how sharded workers ship counter
    partials to the coordinator.  :func:`decode_report` restores a
    report whose counters compare equal (``stats`` is not carried)."""
    return {
        "source": report.source,
        "total": report.total,
        "valid": report.valid,
        "unique": report.unique,
        "counters": {
            attribute: [
                [_encode_key(key), valid, unique]
                for key, valid, unique in getattr(report, attribute).items()
            ]
            for attribute in COUNTER_FIELDS
        },
    }


def decode_report(payload: Dict[str, object]) -> LogReport:
    """The :class:`LogReport` a :func:`encode_report` payload encodes."""
    report = LogReport(
        payload["source"],
        payload["total"],
        payload["valid"],
        payload["unique"],
    )
    for attribute in COUNTER_FIELDS:
        counter: VUCounter = getattr(report, attribute)
        for encoded, valid, unique in payload["counters"][attribute]:
            key = _decode_key(encoded)
            counter.valid[key] = valid
            counter.unique[key] = unique
    return report


def combine_reports(
    reports: List[LogReport], name: str = "combined"
) -> LogReport:
    """Merge per-source reports (e.g. the DBpedia–BritM family)."""
    combined = LogReport(
        name,
        sum(r.total for r in reports),
        sum(r.valid for r in reports),
        sum(r.unique for r in reports),
    )
    for report in reports:
        for attribute in COUNTER_FIELDS:
            source: VUCounter = getattr(report, attribute)
            target: VUCounter = getattr(combined, attribute)
            target.valid.update(source.valid)
            target.unique.update(source.unique)
    return combined
