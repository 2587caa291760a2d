"""Tables 4 and 5: operator-set fragments of the two query-log families.

Table 4 (DBpedia–BritM) paper numbers: none 33.3% (36.3%), And 4.7%
(8.9%), Filter 9.5% (16.9%), And+Filter 3.0% (4.8%), CQ+F subtotal
50.5% (66.9%).  The shape to reproduce: the CQ+F subtotal is roughly
half of all queries, and the "none" row (single-atom queries) is the
largest single row.

Table 5 (Wikidata) paper numbers: CQ+F subtotal 19.9% (11.7%) — much
lower than the 50.5% of DBpedia–BritM — while adding the 2RPQ rows lifts
the C2RPQ+F subtotal to 34.7% (21.1%).  The shape to reproduce: property
paths are what makes the difference in Wikidata.

The rendered tables must equal the committed
``benchmarks/results/table4_opsets_dbpedia.txt`` and
``table5_opsets_wikidata.txt`` byte for byte; the tests read those files
and never rewrite them.
"""

import pytest

from repro.core import PracticalStudy, StudyScale
from repro.logs import render_table45

from .helpers import assert_matches_committed


@pytest.fixture(scope="module")
def study() -> PracticalStudy:
    return PracticalStudy(StudyScale(queries_per_source=150, seed=2022))


def test_table4_reproduction(study):
    report = study.family_report("dbpedia")
    assert_matches_committed("table4_opsets_dbpedia", render_table45(report, with_paths=False))

    cqf_valid, _ = report.cq_f_subtotal()
    assert 0.3 < cqf_valid / report.valid < 0.75
    # 'none' is the largest of the four CQ+F rows
    none_count = report.operator_sets.valid.get((), 0)
    for key in (("And",), ("Filter",), ("And", "Filter")):
        assert none_count >= report.operator_sets.valid.get(key, 0) * 0.5


def test_table5_reproduction(study):
    report = study.family_report("wikidata")
    assert_matches_committed("table5_opsets_wikidata", render_table45(report, with_paths=True))

    cqf_valid, _ = report.cq_f_subtotal()
    c2rpqf_valid, _ = report.c2rpq_f_subtotal()
    # adding the path rows must lift the subtotal substantially
    assert c2rpqf_valid > cqf_valid * 1.2
    # and the Wikidata CQ+F share is lower than DBpedia-BritM's
    dbpedia = study.family_report("dbpedia")
    dbpedia_cqf, _ = dbpedia.cq_f_subtotal()
    assert cqf_valid / report.valid < dbpedia_cqf / dbpedia.valid
