"""Table 8: the property-path type taxonomy on Wikidata-style logs.

Paper numbers (robotic, Valid): a* 50.5%, ab*/a+ 17.1%, plain sequences
a1…ak 24.3%, disjunctions A 5.5%, everything else in the long tail.
Section 9.6 also reports that > 98% of paths are simple transitive
expressions and that nearly all are in C_tract / T_tract — both
reproduced here.

The rendered table must equal the committed
``benchmarks/results/table8_pathtypes.txt`` byte for byte; the test
reads that file and never rewrites it.
"""

from repro.core import PracticalStudy, StudyScale
from repro.logs import render_path_classes, render_table8

from .helpers import assert_matches_committed


def test_table8_reproduction():
    study = PracticalStudy(StudyScale(queries_per_source=150, seed=2022))
    report = study.family_report("wikidata")
    table = render_table8(report)
    classes = render_path_classes(report)
    assert_matches_committed(
        "table8_pathtypes",
        table + "\n\n== Section 9.6 classes ==\n" + classes,
    )

    buckets = report.path_buckets
    valid_total, _ = buckets.totals()
    assert valid_total > 0
    # a* is the single dominant type
    a_star = buckets.valid.get("a*", 0)
    assert a_star / valid_total > 0.3
    assert a_star >= max(
        count for bucket, count in buckets.valid.items() if bucket != "a*"
    )

    # STE / C_tract / T_tract coverage (Section 9.6: near-total)
    classes_counter = report.path_classes
    class_total, _ = classes_counter.totals()
    ste = sum(
        count
        for key, count in classes_counter.valid.items()
        if key[0] == "ste"
    )
    ctract = sum(
        count
        for key, count in classes_counter.valid.items()
        if key[1] == "ctract"
    )
    ttract = sum(
        count
        for key, count in classes_counter.valid.items()
        if key[2] == "ttract"
    )
    assert ste / class_total > 0.95
    assert ctract / class_total > 0.98
    assert ttract >= ctract
