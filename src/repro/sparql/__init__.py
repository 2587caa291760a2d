"""SPARQL: the query model, parser, evaluator and structural analyses of
Section 9.

Public surface:

* Model: :mod:`repro.sparql.ast`, :mod:`repro.sparql.paths_ast`
* Parsing: :func:`parse_query`
* Evaluation: :class:`Evaluator`, :func:`evaluate`,
  :func:`query_predicates`
* Analyses: :func:`query_features`, :func:`operator_set`,
  :func:`count_triple_patterns`, :func:`is_cq`, :func:`is_cq_f`,
  :func:`is_c2rpq_f`, :func:`is_well_designed`, :func:`is_well_behaved`,
  :func:`is_acyclic`, :func:`is_free_connex_acyclic`,
  :func:`query_hypertree_width`, :func:`query_shape`,
  :func:`path_type`, :func:`table8_bucket`
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "ast": (
        "And", "Bind", "BlankNode", "BoolExpr", "Comparison", "EmptyPattern",
        "ExistsExpr", "Expression", "Filter", "FunctionCall", "Graph", "IRI", "Literal",
        "Minus", "Optional", "OrderCondition", "PathPattern", "Pattern", "Projection",
        "Query", "Service", "SolutionModifier", "SubQuery", "TermExpr", "TriplePattern",
        "Union", "Values", "Var",
    ),
    "evaluation": ("Evaluator", "evaluate", "query_predicates"),
    "features": (
        "TABLE3_FEATURES", "count_triple_patterns", "filter_constraints", "is_c2rpq",
        "is_c2rpq_f", "is_cq", "is_cq_f", "is_opt_fragment", "is_safe_filter",
        "is_simple_filter", "operator_set", "query_features", "uses_property_paths",
    ),
    "hypergraph": (
        "Hypergraph", "canonical_hypergraph", "hypertree_width",
        "hypertree_width_at_most", "is_acyclic", "is_free_connex_acyclic",
        "query_hypertree_width", "triple_hypergraph",
    ),
    "parser": ("parse_query",),
    "paths_ast": (
        "PathAlternative", "PathAtom", "PathInverse", "PathNegatedSet", "PathOptional",
        "PathPlus", "PathSequence", "PathStar", "PropertyPath", "path_to_regex",
    ),
    "pathtypes": (
        "TABLE8_BUCKETS", "aggregate_type", "path_in_ctract", "path_in_ttract",
        "path_is_simple_transitive", "path_type", "table8_bucket", "type_regex",
    ),
    "serialize": ("serialize_query",),
    "shapes": (
        "SHAPE_LADDER", "canonical_graph", "cumulative_shape", "is_graph_pattern",
        "is_suitable_for_graph_analysis", "query_shape", "shape_of",
    ),
    "welldesigned": (
        "certain_variables", "is_union_of_well_designed", "is_well_behaved",
        "is_well_designed", "query_well_designed",
    ),
})
