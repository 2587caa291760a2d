"""Graph-structured data: the RDF substrate of Sections 7–10.

Public surface:

* Store: :class:`TripleStore`
* Generators: :func:`road_network`, :func:`web_graph`, :func:`p2p_network`,
  :func:`hierarchy_graph`, :func:`foaf_rdf`, :func:`rdf_from_graph`
* Treewidth: :func:`treewidth_interval`, upper/lower bound heuristics,
  :class:`TreeDecomposition`, :func:`is_valid_decomposition`
* Power laws: :func:`fit_power_law`, :func:`ccdf`, :func:`looks_heavy_tailed`
* Path queries: :func:`evaluate_rpq`, :func:`evaluate_rpq_json` (the
  same answer as sorted compact JSON text), :func:`exists_simple_path`,
  :func:`exists_trail` (on the compiled engine's kernels: a chain fold;
  for other plans from given sources a one-pass DAG kernel (acyclic) or
  a grouped mask BFS (cyclic), and for all pairs a level-synchronous
  multi-source BFS grouped per automaton state; and one
  simple-path/trail DFS that hands downward-closed chains to a walk)
* Compiled plans: :class:`CompiledRPQ`, :func:`compile_rpq`,
  :func:`configure_plan_cache`, :func:`plan_cache_info`,
  :func:`clear_plan_cache`
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "engine": (
        "CompiledRPQ", "clear_plan_cache", "compile_rpq", "configure_plan_cache",
        "plan_cache_info",
    ),
    "generator": (
        "foaf_rdf", "hierarchy_graph", "p2p_network", "rdf_from_graph", "road_network",
        "web_graph",
    ),
    "parallel": (),
    "paths": (
        "evaluate_rpq", "evaluate_rpq_json", "exists_simple_path", "exists_trail",
    ),
    "powerlaw": (
        "PowerLawFit", "ccdf", "degree_histogram", "fit_power_law",
        "looks_heavy_tailed",
    ),
    "rdf": ("Triple", "TripleStore"),
    "treewidth": (
        "TreeDecomposition", "TreewidthInterval", "exact_treewidth_small",
        "is_valid_decomposition", "lower_bound_degeneracy", "lower_bound_mmd_plus",
        "make_graph", "treewidth_interval", "upper_bound_min_degree",
        "upper_bound_min_fill",
    ),
})
