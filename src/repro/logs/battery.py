"""The fused analysis battery: one AST traversal per query.

:func:`repro.testing.reference.analyze_query` composes the per-query
analyses out of independent library calls (`count_triple_patterns`,
`query_features`, `operator_set`, the shape/hypergraph/well-designedness
preconditions), each of which re-walks the AST — a typical query is
traversed eight to ten times, and ``operator_set`` alone three times.
At corpus scale that interpreted dispatch dominates the study runtime.

:func:`analyze_query_fused` collects every fact those analyses need in
**one** stack traversal (tracking whether a node sits inside an EXISTS
constraint, the only place where the library's two walk disciplines
differ) and then derives the battery output in post-passes over the
collected atoms and filters — building the canonical graph and
hypergraph directly instead of re-walking the tree.  The expensive
derivations that depend only on collected *structure* (shape ladder,
hypertree width, free-connex acyclicity, and each property path's
Table 8 bucket and fragment classes, keyed by its IRI-free type) are
additionally memoized on that structure, which template-generated
real-world logs hit hard.

The output contract is strict: for every query the result dict is
key-for-key and value-for-value identical to ``analyze_query`` — same
keys, same insertion order, same list orders — so the
:func:`~repro.logs.analyzer.encode_analysis` form is byte-identical and
:data:`~repro.logs.analyzer.BATTERY_VERSION` does not change.  The old
battery lives on as the reference oracle in
:mod:`repro.testing.reference`; the ``fused-battery`` differential
target in :mod:`repro.testing` fuzzes the equivalence.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional as Opt, Set, Tuple

from ..sparql.ast import (
    And,
    Bind,
    EmptyPattern,
    Filter,
    Graph,
    Minus,
    Optional as OptPattern,
    PathPattern,
    Query,
    Service,
    SubQuery,
    TriplePattern,
    Union as UnionPattern,
    Values,
    Var,
)
from ..sparql.features import _exists_list, is_simple_filter
from ..sparql.hypergraph import Hypergraph, hypertree_width, is_acyclic
from ..sparql.pathtypes import (
    path_in_ctract,
    path_in_ttract,
    path_is_simple_transitive,
    path_type_key,
    table8_bucket,
)
from ..sparql.shapes import CanonicalGraph, _node_key, shape_of
from ..sparql.welldesigned import (
    _check_wd,
    certain_variables,
    is_union_of_well_designed,
)

_K_TRIPLE = 0
_K_PATH = 1
_K_AND = 2
_K_FILTER = 3
_K_OPT = 4
_K_UNION = 5
_K_GRAPH = 6
_K_VALUES = 7
_K_BIND = 8
_K_MINUS = 9
_K_SERVICE = 10
_K_SUB = 11
_K_EMPTY = 12

_NODE_KIND = {
    TriplePattern: _K_TRIPLE,
    PathPattern: _K_PATH,
    And: _K_AND,
    Filter: _K_FILTER,
    OptPattern: _K_OPT,
    UnionPattern: _K_UNION,
    Graph: _K_GRAPH,
    Values: _K_VALUES,
    Bind: _K_BIND,
    Minus: _K_MINUS,
    Service: _K_SERVICE,
    SubQuery: _K_SUB,
    EmptyPattern: _K_EMPTY,
}

_CQ_F_OPS = frozenset({"And", "Filter"})
_OPT_OPS = frozenset({"And", "Filter", "Optional"})
_UWD_OPS = frozenset({"And", "Filter", "Optional", "Union"})

_AGGREGATE_FEATURES = (
    ("COUNT", "Count"),
    ("AVG", "Avg"),
    ("MIN", "Min"),
    ("MAX", "Max"),
    ("SUM", "Sum"),
)

#: structure-keyed memo bound; on overflow the memos reset (the working
#: set of a template-generated log is far below this)
_MEMO_LIMIT = 65536
_shape_memo: Dict[Tuple, Tuple[str, str]] = {}
_htw_memo: Dict[Tuple, Opt[int]] = {}
_fca_memo: Dict[Tuple, bool] = {}
_path_memo: Dict[Tuple, Tuple[str, Tuple]] = {}


def clear_battery_memos() -> None:
    """Drop the structure-keyed derivation memos (for tests/benchmarks
    that want cold-path timings)."""
    _shape_memo.clear()
    _htw_memo.clear()
    _fca_memo.clear()
    _path_memo.clear()


class _Facts:
    """Everything one traversal learns about a query pattern."""

    __slots__ = (
        "triples",
        "operators",
        "features",
        "saw_and",
        "plain_atoms",
        "plain_filters",
        "exists_filters",
        "plain_paths",
        "plain_optionals",
        "subqueries",
    )

    def __init__(self) -> None:
        self.triples = 0
        self.operators: Set[str] = set()
        self.features: Set[str] = set()
        self.saw_and = False
        self.plain_atoms: List = []
        self.plain_filters: List[Filter] = []
        self.exists_filters: List[Filter] = []
        self.plain_paths: List = []
        self.plain_optionals = 0
        self.subqueries: List[Query] = []


def _collect(pattern) -> _Facts:
    """One preorder traversal, descending into EXISTS subpatterns with
    an ``in_exists`` flag: the plain collections (atoms, filters, paths,
    optionals) see exactly the nodes ``Pattern.walk()`` yields, in the
    same relative order, while the counts/sets cover the extended walk
    of :func:`~repro.sparql.features._walk_with_expressions`."""
    facts = _Facts()
    operators_add = facts.operators.add
    features_add = facts.features.add
    kind_of = _NODE_KIND
    stack: List[Tuple[object, bool]] = [(pattern, False)]
    pop = stack.pop
    push = stack.append
    while stack:
        node, in_exists = pop()
        kind = kind_of[node.__class__]
        if kind == _K_TRIPLE:
            facts.triples += 1
            if not in_exists:
                facts.plain_atoms.append(node)
        elif kind == _K_AND:
            facts.saw_and = True
            operators_add("And")
            push((node.right, in_exists))
            push((node.left, in_exists))
        elif kind == _K_FILTER:
            operators_add("Filter")
            features_add("Filter")
            if in_exists:
                facts.exists_filters.append(node)
            else:
                facts.plain_filters.append(node)
            push((node.pattern, in_exists))
            for exists in _exists_list(node.constraint):
                features_add(
                    "NotExists" if exists.negated else "Exists"
                )
                push((exists.pattern, True))
        elif kind == _K_OPT:
            operators_add("Optional")
            features_add("Optional")
            if not in_exists:
                facts.plain_optionals += 1
            push((node.right, in_exists))
            push((node.left, in_exists))
        elif kind == _K_PATH:
            facts.triples += 1
            operators_add("2RPQ")
            features_add("PropertyPath")
            if not in_exists:
                facts.plain_atoms.append(node)
                facts.plain_paths.append(node.path)
        elif kind == _K_UNION:
            operators_add("Union")
            features_add("Union")
            push((node.right, in_exists))
            push((node.left, in_exists))
        elif kind == _K_GRAPH:
            operators_add("Graph")
            features_add("Graph")
            push((node.pattern, in_exists))
        elif kind == _K_VALUES:
            operators_add("Values")
            features_add("Values")
        elif kind == _K_BIND:
            # Bind is an operator-set member but not a Table 3 feature
            operators_add("Bind")
        elif kind == _K_MINUS:
            operators_add("Minus")
            features_add("Minus")
            push((node.right, in_exists))
            push((node.left, in_exists))
        elif kind == _K_SERVICE:
            operators_add("Service")
            features_add("Service")
            push((node.pattern, in_exists))
        elif kind == _K_SUB:
            operators_add("SubQuery")
            facts.subqueries.append(node.query)
            push((node.query.pattern, in_exists))
        # _K_EMPTY: nothing to record, no children
    return facts


def _modifier_features(query: Query, features: Set[str]) -> None:
    """The solution-modifier and aggregate features of one (sub)query —
    the non-pattern half of :func:`~repro.sparql.features.query_features`."""
    modifier = query.modifier
    if modifier.distinct:
        features.add("Distinct")
    if modifier.limit is not None:
        features.add("Limit")
    if modifier.offset is not None:
        features.add("Offset")
    if modifier.order_by:
        features.add("OrderBy")
    if modifier.group_by:
        features.add("GroupBy")
    if modifier.having:
        features.add("Having")
    aggregates = query.aggregates_used()
    if aggregates:
        for name, feature in _AGGREGATE_FEATURES:
            if name in aggregates:
                features.add(feature)


def _is_graph_pattern(plain_atoms) -> bool:
    """:func:`~repro.sparql.shapes.is_graph_pattern` over the collected
    plain atoms (identical logic, no re-walk)."""
    predicate_vars: Dict[str, int] = {}
    other_positions: Set[str] = set()
    for node in plain_atoms:
        if isinstance(node, TriplePattern):
            predicate = node.predicate
            if isinstance(predicate, Var):
                predicate_vars[predicate.name] = (
                    predicate_vars.get(predicate.name, 0) + 1
                )
            for term in (node.subject, node.object):
                if isinstance(term, Var):
                    other_positions.add(term.name)
    for name, count in predicate_vars.items():
        if count > 1 or name in other_positions:
            return False
    return True


def _shape_from(
    pairs: Tuple, filter_entries: Tuple, with_constants: bool
) -> str:
    """Build the canonical graph straight from collected atom/filter
    structure (same result as
    :func:`~repro.sparql.shapes.canonical_graph` + ``shape_of``)."""
    adjacency: Dict[Tuple[str, str, bool], Set] = {}
    edge_count = 0
    self_loops = 0
    for subject, obj in pairs:
        a, b = subject, obj
        if not with_constants:
            if a is not None and a[2]:
                a = None
            if b is not None and b[2]:
                b = None
        if a is None or b is None:
            for node in (a, b):
                if node is not None:
                    adjacency.setdefault(node, set())
            continue
        neighbours = adjacency.setdefault(a, set())
        adjacency.setdefault(b, set())
        if a == b:
            self_loops += 1
            edge_count += 1
            continue
        if b not in neighbours:
            edge_count += 1
        neighbours.add(b)
        adjacency[b].add(a)
    for entry in filter_entries:
        if len(entry) == 2:
            a = ("var", entry[0], False)
            b = ("var", entry[1], False)
            neighbours = adjacency.setdefault(a, set())
            adjacency.setdefault(b, set())
            if a == b:
                self_loops += 1
                edge_count += 1
                continue
            if b not in neighbours:
                edge_count += 1
            neighbours.add(b)
            adjacency[b].add(a)
        else:
            adjacency.setdefault(("var", entry[0], False), set())
    return shape_of(CanonicalGraph(adjacency, edge_count, self_loops))


def _shapes(pairs: Tuple, filter_entries: Tuple) -> Tuple[str, str]:
    # the shape ladder is isomorphism-invariant, so node identities are
    # canonicalized to first-occurrence indexes before the memo probe:
    # re-instantiations of one template (fresh constants, renamed
    # variables, same structure) collapse onto a single memo entry
    rename: Dict[Tuple[str, str, bool], Tuple[str, int, bool]] = {}
    rename_get = rename.get
    norm_pairs = []
    for subject, obj in pairs:
        if subject is None:
            a = None
        else:
            a = rename_get(subject)
            if a is None:
                a = rename[subject] = (
                    subject[0],
                    len(rename),
                    subject[2],
                )
        if obj is None:
            b = None
        else:
            b = rename_get(obj)
            if b is None:
                b = rename[obj] = (obj[0], len(rename), obj[2])
        norm_pairs.append((a, b))
    norm_entries = []
    for entry in filter_entries:
        renamed = []
        for name in entry:
            node = ("var", name, False)
            mapped = rename_get(node)
            if mapped is None:
                mapped = rename[node] = ("var", len(rename), False)
            renamed.append(mapped[1])
        norm_entries.append(tuple(renamed))
    key = (tuple(norm_pairs), tuple(norm_entries))
    shapes = _shape_memo.get(key)
    if shapes is None:
        shapes = (
            _shape_from(key[0], key[1], True),
            _shape_from(key[0], key[1], False),
        )
        if len(_shape_memo) >= _MEMO_LIMIT:
            _shape_memo.clear()
        _shape_memo[key] = shapes
    return shapes


def _hypertree_width(edges: Tuple[FrozenSet[str], ...]) -> Opt[int]:
    if edges in _htw_memo:
        return _htw_memo[edges]
    try:
        width: Opt[int] = hypertree_width(Hypergraph(edges), max_k=4)
    except ValueError:
        width = None
    if len(_htw_memo) >= _MEMO_LIMIT:
        _htw_memo.clear()
    _htw_memo[edges] = width
    return width


def _free_connex(
    edges: Tuple[FrozenSet[str], ...], free: FrozenSet[str]
) -> bool:
    vertices: Set[str] = set()
    for edge in edges:
        vertices |= edge
    free = free & vertices
    key = (edges, free)
    result = _fca_memo.get(key)
    if result is None:
        hypergraph = Hypergraph(edges)
        if not is_acyclic(hypergraph):
            result = False
        elif not free:
            result = True
        else:
            result = is_acyclic(hypergraph.with_edge(free))
        if len(_fca_memo) >= _MEMO_LIMIT:
            _fca_memo.clear()
        _fca_memo[key] = result
    return result


def _path_verdicts(path) -> Tuple[str, Tuple]:
    """The Table 8 bucket and the (simple transitive, C_tract, T_tract)
    verdicts of one path, computed once per type key."""
    key = path_type_key(path)
    verdicts = _path_memo.get(key)
    if verdicts is None:
        verdicts = (
            table8_bucket(path),
            (
                path_is_simple_transitive(path),
                path_in_ctract(path),
                path_in_ttract(path),
            ),
        )
        if len(_path_memo) >= _MEMO_LIMIT:
            _path_memo.clear()
        _path_memo[key] = verdicts
    return verdicts


def analyze_query_fused(query: Query) -> Dict[str, object]:
    """Single-traversal equivalent of
    :func:`~repro.testing.reference.analyze_query` (identical output)."""
    pattern = query.pattern
    facts = _collect(pattern)
    operators = facts.operators
    features = facts.features

    _modifier_features(query, features)
    for sub in facts.subqueries:
        _modifier_features(sub, features)
    if facts.saw_and:
        features.add("And")

    out: Dict[str, object] = {}
    out["triples"] = facts.triples
    out["features"] = frozenset(features)
    out["operators"] = frozenset(operators)
    out["type"] = query.query_type

    plain_filters = facts.plain_filters
    filter_vars: Opt[List[List[str]]] = None

    def filter_var_names() -> List[List[str]]:
        nonlocal filter_vars
        if filter_vars is None:
            filter_vars = [
                sorted(
                    variable.name
                    for variable in node.constraint.variables()
                )
                for node in plain_filters
            ]
        return filter_vars

    if operators <= _CQ_F_OPS and facts.triples > 0:
        edges = tuple(
            frozenset(v.name for v in atom._own_variables())
            for atom in facts.plain_atoms
        ) + tuple(
            frozenset(names)
            for names in filter_var_names()
            if names
        )
        out["htw"] = _hypertree_width(edges)
        if query.select_star():
            free: Set[str] = set()
            for edge in edges:
                free |= edge
            out["fca"] = _free_connex(edges, frozenset(free))
        else:
            out["fca"] = _free_connex(
                edges,
                frozenset(p.variable.name for p in query.projections),
            )

    if (
        operators <= _CQ_F_OPS
        and _is_graph_pattern(facts.plain_atoms)
        and all(
            is_simple_filter(node.constraint)
            for node in plain_filters
        )
        and all(
            is_simple_filter(node.constraint)
            for node in facts.exists_filters
        )
    ):
        pairs = tuple(
            (_node_key(atom.subject), _node_key(atom.object))
            for atom in facts.plain_atoms
        )
        entries = tuple(
            tuple(names)
            for names in filter_var_names()
            if 1 <= len(names) <= 2
        )
        shape_with, shape_without = _shapes(pairs, entries)
        out["shape_with"] = shape_with
        out["shape_without"] = shape_without

    if operators <= _OPT_OPS:
        # the And/Filter/Optional fragment precondition of
        # is_well_designed holds by construction here, and a pattern
        # with no plain Optional is trivially well-designed
        well_designed = (
            _check_wd(pattern, pattern)
            if facts.plain_optionals
            else True
        )
        out["well_designed"] = well_designed
        well_behaved = well_designed
        if well_designed:
            for node in plain_filters:
                if not (
                    node.constraint.variables()
                    <= certain_variables(node.pattern)
                ):
                    well_behaved = False
                    break
        out["well_behaved"] = well_behaved

    if operators <= _UWD_OPS:
        if "Union" in operators:
            out["uwd"] = is_union_of_well_designed(pattern)
        else:
            out["uwd"] = well_designed

    if facts.plain_paths:
        verdicts = [_path_verdicts(path) for path in facts.plain_paths]
        out["path_buckets"] = [bucket for bucket, _ in verdicts]
        out["path_classes"] = [classes for _, classes in verdicts]
    return out
