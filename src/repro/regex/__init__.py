"""Regular expressions and automata: the recurring theme of the paper.

Public surface of :mod:`repro.regex`:

* AST and parsing: :mod:`repro.regex.ast`, :func:`parse`
* Automata: :func:`glushkov`, :class:`NFA`, :class:`DFA`
* Decision problems: :func:`contains`, :func:`equivalent`,
  :func:`intersection_nonempty`
* Determinism: :func:`is_deterministic`, :func:`is_deterministic_definable`
* Fragments: :func:`is_chare`, :func:`is_sore`, :func:`is_k_ore`,
  :func:`in_fragment`, :func:`is_simple_transitive`, :func:`is_ctract`,
  :func:`is_ttract`
* Fragment-specific algorithms: :mod:`repro.regex.chare`
* The Appendix A reduction: :mod:`repro.regex.reduction`
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "ast": (
        "EMPTY", "EPSILON", "Concat", "Empty", "Epsilon", "Optional", "Plus", "Regex",
        "Star", "Symbol", "Union", "concat", "literal", "optional", "plus", "star",
        "symbol", "union", "word",
    ),
    "automata": ("DFA", "NFA", "glushkov", "minimal_dfa"),
    "chare": (
        "best_containment", "best_intersection", "block_form", "canonical_block_form",
        "containment_a_aplus", "containment_a_disj", "containment_in_downward_closed",
        "equivalent_blocks", "intersection_a_aplus", "intersection_a_disj",
        "is_downward_closed_chain",
    ),
    "classes": (
        "FACTOR_TYPES", "SimpleFactor", "as_simple_factor", "chare_factors",
        "factor_type_signature", "in_fragment", "is_chare", "is_ctract", "is_k_ore",
        "is_simple_transitive", "is_sore", "is_ttract", "max_occurrences",
    ),
    "convert": (),
    "determinism": (
        "determinism_violation", "is_deterministic", "is_deterministic_definable",
    ),
    "generators": ("ChareProfile", "default_alphabet", "random_chare", "random_regex"),
    "ops": (
        "accepts", "containment_counterexample", "contains", "enumerate_words",
        "equivalent", "intersection_nonempty", "intersection_witness", "is_contained",
        "language_is_empty", "language_is_universal",
    ),
    "parser": ("parse",),
    "reduction": (
        "DNFFormula", "assignment_word", "random_dnf", "validity_to_containment",
    ),
    "sampling": ("EmptyLanguageError", "sample_word", "sample_words"),
})
