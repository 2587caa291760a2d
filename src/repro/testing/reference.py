"""Reference implementations kept as differential oracles.

Production modules carry one implementation per operation; the slower,
obviously-correct versions the fast paths were derived from live here,
where the oracles of :mod:`repro.testing.oracles` and the tests import
them.

* :func:`tokenize_reference` — the original SPARQL lexer, one regex
  alternation per token.  :func:`repro.sparql.parser.tokenize` must
  produce the same token stream (kinds, texts, positions) and the same
  error message and position on malformed input; the ``lexer`` target
  fuzzes that.
* :func:`analyze_query` — the multi-pass analysis battery, one library
  call per metric.  :func:`repro.logs.battery.analyze_query_fused`
  must return the identical dict; the ``fused-battery`` target fuzzes
  that.
"""

from __future__ import annotations

import re
from typing import Dict, List

from ..errors import SPARQLParseError
from ..sparql.ast import PathPattern, Query
from ..sparql.features import (
    count_triple_patterns,
    is_opt_fragment,
    operator_set,
    query_features,
)
from ..sparql.hypergraph import (
    canonical_hypergraph,
    hypertree_width,
    is_free_connex_acyclic,
)
from ..sparql.parser import _Token
from ..sparql.pathtypes import (
    path_in_ctract,
    path_in_ttract,
    path_is_simple_transitive,
    table8_bucket,
)
from ..sparql.shapes import (
    is_suitable_for_graph_analysis,
    query_shape,
)
from ..sparql.welldesigned import (
    is_union_of_well_designed,
    is_well_behaved,
    is_well_designed,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\s]*>)
  | (?P<STRING>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<VAR>[?$][A-Za-z_][A-Za-z_0-9]*)
  | (?P<BNODE>_:[A-Za-z_0-9]+)
  | (?P<NUMBER>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<PNAME>[A-Za-z_][A-Za-z_0-9.\-]*:[A-Za-z_0-9.\-]*|:[A-Za-z_0-9.\-]+)
  | (?P<KEYWORD>[A-Za-z_][A-Za-z_0-9\-]*)
  | (?P<OP>\^\^|&&|\|\||!=|<=|>=|[{}()\[\].;,*+?/|^!=<>@-])
    """,
    re.VERBOSE,
)


def tokenize_reference(text: str) -> List[_Token]:
    """The original regex lexer: one mega-alternation per token."""
    tokens: List[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SPARQLParseError(
                f"unexpected character {text[pos]!r}", position=pos
            )
        kind = match.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


def analyze_query(query: Query) -> Dict[str, object]:
    """All per-query analysis results (memoized per unique query by the
    corpus loop).

    This is the *reference* battery: each metric is an independent
    library call, at the cost of re-walking the AST per metric.  The
    production paths (:func:`~repro.logs.analyzer.analyze_corpus`, the
    study pipeline, the service) run
    :func:`repro.logs.battery.analyze_query_fused`, which must stay
    observably identical — the ``fused-battery`` differential oracle
    fuzzes the equivalence against this implementation."""
    out: Dict[str, object] = {}
    out["triples"] = count_triple_patterns(query)
    out["features"] = query_features(query)
    out["operators"] = operator_set(query)
    out["type"] = query.query_type

    operators = out["operators"]
    if operators <= {"And", "Filter"} and out["triples"] > 0:
        hypergraph = canonical_hypergraph(query)
        try:
            out["htw"] = hypertree_width(hypergraph, max_k=4)
        except ValueError:
            out["htw"] = None
        out["fca"] = is_free_connex_acyclic(query)
    if is_suitable_for_graph_analysis(query):
        out["shape_with"] = query_shape(query, with_constants=True)
        out["shape_without"] = query_shape(query, with_constants=False)
    if is_opt_fragment(query):
        out["well_designed"] = is_well_designed(query.pattern)
        out["well_behaved"] = is_well_behaved(query.pattern)
    if operators <= {"And", "Filter", "Optional", "Union"}:
        out["uwd"] = is_union_of_well_designed(query.pattern)
    paths = [
        node.path
        for node in query.pattern.walk()
        if isinstance(node, PathPattern)
    ]
    if paths:
        out["path_buckets"] = [table8_bucket(path) for path in paths]
        out["path_classes"] = [
            (
                path_is_simple_transitive(path),
                path_in_ctract(path),
                path_in_ttract(path),
            )
            for path in paths
        ]
    return out
