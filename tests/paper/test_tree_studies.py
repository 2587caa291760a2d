"""Sections 3–4: the tree-side practical studies.

Regenerates (on the calibrated synthetic corpora of DESIGN.md §2):

* the Grijzenhout–Marx well-formedness study: ~85% well-formed with the
  published error-category mix;
* the Choi / Bex et al. DTD corpus statistics: recursion rate near
  35/60, CHARE share > 90%, SORE share > 99% (our generator's targets),
  parse depths in the observed 1–9 band.

Each rendered table must equal its committed copy under
``benchmarks/results/`` byte for byte; the tests read those files and
never rewrite them.
"""

from repro.trees import (
    corpus_statistics,
    corpus_study,
    generate_corpus,
    random_dtd_corpus,
)

from .helpers import assert_matches_committed


def test_xml_wellformedness_study():
    corpus = generate_corpus(250, seed=2022, num_dtds=5)
    study = corpus_study(corpus)
    lines = [
        f"documents:     {study['documents']}",
        f"well-formed:   {study['well_formed_fraction']:.1%}"
        "   (study: 85%)",
        "error categories:",
    ]
    for category, count in sorted(
        study["error_categories"].items(), key=lambda kv: -kv[1]
    ):
        lines.append(f"   {category:16s} {count}")
    assert_matches_committed("tree_study_wellformedness", "\n".join(lines))

    assert 0.7 <= study["well_formed_fraction"] <= 0.97
    top = sorted(study["error_categories"].items(), key=lambda kv: -kv[1])
    # the study's dominant categories must dominate here too
    assert top[0][0] in ("tag-mismatch", "premature-end", "bad-encoding")


def test_dtd_corpus_study():
    corpus = random_dtd_corpus(60, seed=2022)
    stats = corpus_statistics(corpus)
    lines = [
        f"DTDs:                 {stats['dtds']}",
        f"recursive:            {stats['recursive_fraction']:.1%}"
        "   (Choi: 35/60 = 58%)",
        f"rules:                {stats['rules']}",
        f"CHARE content models: {stats['chare_fraction']:.1%}"
        "   (Bex et al.: 92%)",
        f"SORE content models:  {stats['sore_fraction']:.1%}"
        "   (Bex et al.: 99%)",
        f"deterministic:        {stats['deterministic_fraction']:.1%}",
        f"max parse depth:      {stats['max_parse_depth']}"
        "   (Choi: 1-9)",
        f"max document depth:   {stats['max_document_depth']}"
        "   (Choi: up to 20 for non-recursive)",
    ]
    assert_matches_committed("tree_study_dtd_corpus", "\n".join(lines))

    assert stats["chare_fraction"] > 0.7
    assert stats["sore_fraction"] > 0.85
    assert 0.2 <= stats["recursive_fraction"] <= 0.95
    assert stats["max_parse_depth"] <= 12
