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
* :func:`match_path_reference` — SPARQL property paths read as
  relations over the store, one set operation per path operator.
  :class:`repro.sparql.evaluation.Evaluator`, which runs paths on the
  compiled RPQ engine, must bind the same pairs in the same order; the
  ``sparql-path`` target fuzzes that.
* :func:`thompson` — the classical Thompson epsilon-NFA, an independent
  construction the tests hold :func:`repro.regex.automata.glushkov` to
  (same language on every word).
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional as Opt, Set, Tuple

from ..errors import SPARQLParseError
from ..graphs.rdf import TripleStore
from ..regex.ast import (
    Concat,
    Empty,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)
from ..regex.automata import EPS, NFA
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
from ..sparql.paths_ast import (
    PathAlternative,
    PathAtom,
    PathInverse,
    PathNegatedSet,
    PathOptional,
    PathPlus,
    PathSequence,
    PathStar,
    PropertyPath,
)
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


Pairs = Set[Tuple[str, str]]


def match_path_reference(
    store: TripleStore,
    path: PropertyPath,
    subject: Opt[str] = None,
    obj: Opt[str] = None,
) -> List[Tuple[str, str]]:
    """The sorted ``(subject, object)`` node pairs ``path`` relates, with
    ``subject``/``obj`` the bound ends (``None`` when free).

    Each operator is its relation: an IRI its edges, ``^`` the converse,
    ``/`` composition, ``|`` union, ``?`` union with the identity, ``+``
    the transitive closure, ``*`` the reflexive-transitive closure.  A
    negated set ``!(F|^I)`` is the edges whose predicate is outside
    ``F`` when ``F`` is non-empty, plus the converse edges whose
    predicate is outside ``I`` when ``I`` is non-empty.  The identity
    ranges over the store's nodes and the bound ends, so a zero-length
    path matches a bound end outside the store."""
    domain = set(store.nodes())
    domain.update(end for end in (subject, obj) if end is not None)
    identity = frozenset((node, node) for node in domain)
    pairs = _path_relation(store, path, identity)
    return sorted(
        (s, o)
        for s, o in pairs
        if subject in (None, s) and obj in (None, o)
    )


def _path_relation(
    store: TripleStore, path: PropertyPath, identity: FrozenSet
) -> Pairs:
    if isinstance(path, PathAtom):
        return {(s, o) for s, _p, o in store.triples(None, path.iri, None)}
    if isinstance(path, PathInverse):
        return {(o, s) for s, o in _path_relation(store, path.child, identity)}
    if isinstance(path, PathSequence):
        out = set(identity)
        for part in path.parts:
            out = _compose(out, _path_relation(store, part, identity))
        return out
    if isinstance(path, PathAlternative):
        out = set()
        for part in path.parts:
            out |= _path_relation(store, part, identity)
        return out
    if isinstance(path, PathOptional):
        return _path_relation(store, path.child, identity) | identity
    if isinstance(path, (PathPlus, PathStar)):
        step = _path_relation(store, path.child, identity)
        closure = set(step)
        while True:
            grown = closure | _compose(closure, step)
            if grown == closure:
                break
            closure = grown
        return closure | identity if isinstance(path, PathStar) else closure
    if isinstance(path, PathNegatedSet):
        out = set()
        for s, p, o in store.triples():
            if path.forward and p not in path.forward:
                out.add((s, o))
            if path.inverse and p not in path.inverse:
                out.add((o, s))
        return out
    raise TypeError(f"unknown path node {path!r}")


def _compose(left: Pairs, right: Pairs) -> Pairs:
    successors: Dict[str, Set[str]] = {}
    for s, o in right:
        successors.setdefault(s, set()).add(o)
    return {
        (s, target)
        for s, middle in left
        for target in successors.get(middle, ())
    }


def thompson(expr: Regex) -> NFA:
    """The classical Thompson epsilon-NFA (one initial, one final state)."""
    nfa = NFA(0, set(), set(), [], set())

    def build(node: Regex) -> Tuple[int, int]:
        if isinstance(node, Empty):
            start, end = nfa.add_state(), nfa.add_state()
            return start, end
        if isinstance(node, Epsilon):
            start, end = nfa.add_state(), nfa.add_state()
            nfa.add_transition(start, EPS, end)
            return start, end
        if isinstance(node, Symbol):
            start, end = nfa.add_state(), nfa.add_state()
            nfa.add_transition(start, node.label, end)
            return start, end
        if isinstance(node, Concat):
            first_start, prev_end = build(node.parts[0])
            for part in node.parts[1:]:
                nxt_start, nxt_end = build(part)
                nfa.add_transition(prev_end, EPS, nxt_start)
                prev_end = nxt_end
            return first_start, prev_end
        if isinstance(node, Union):
            start, end = nfa.add_state(), nfa.add_state()
            for part in node.parts:
                sub_start, sub_end = build(part)
                nfa.add_transition(start, EPS, sub_start)
                nfa.add_transition(sub_end, EPS, end)
            return start, end
        if isinstance(node, Star):
            start, end = nfa.add_state(), nfa.add_state()
            sub_start, sub_end = build(node.child)
            nfa.add_transition(start, EPS, sub_start)
            nfa.add_transition(start, EPS, end)
            nfa.add_transition(sub_end, EPS, sub_start)
            nfa.add_transition(sub_end, EPS, end)
            return start, end
        if isinstance(node, Plus):
            start, end = nfa.add_state(), nfa.add_state()
            sub_start, sub_end = build(node.child)
            nfa.add_transition(start, EPS, sub_start)
            nfa.add_transition(sub_end, EPS, sub_start)
            nfa.add_transition(sub_end, EPS, end)
            return start, end
        if isinstance(node, Optional):
            start, end = nfa.add_state(), nfa.add_state()
            sub_start, sub_end = build(node.child)
            nfa.add_transition(start, EPS, sub_start)
            nfa.add_transition(start, EPS, end)
            nfa.add_transition(sub_end, EPS, end)
            return start, end
        raise TypeError(f"unknown node {node!r}")

    start, end = build(expr)
    nfa.initial = {start}
    nfa.finals = {end}
    return nfa
