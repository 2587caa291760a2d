"""Tree-structured data: the XML/JSON substrate of Sections 3–6.

Public surface:

* Trees: :class:`Tree`, :class:`TreeNode`
* Parsing: :func:`parse_xml`, :func:`check_well_formedness`,
  :func:`attempt_repair`, :func:`parse_json`, :func:`parse_json_tree`
* Schemas: :class:`DTD`, :func:`parse_dtd`, :class:`EDTD`,
  :func:`validate_single_type`, :class:`PatternSchema`
* Streaming: :class:`StreamingDTDValidator`, :func:`validate_stream`,
  :func:`events_of` (chunked XML/JSON sources), :func:`iter_xml_events`,
  :func:`iter_json_events`.  Each format has one lexer over a chunked
  feeder: the parsers above fold its tokens and the event streams
  project them, so both report a lexical error alike.
* Tree automata: :class:`TreeAutomaton` (antichain inclusion,
  simulation reduction), :class:`StreamingTreeValidator`,
  :func:`validate_events`, :func:`schema_contains`
* Inference: :func:`infer_sore`, :func:`infer_chare`, :func:`learn_k_ore`,
  :func:`infer_dtd`
* Queries: :class:`XPathQuery`
* Corpora: :func:`generate_corpus`, :func:`random_dtd_corpus`
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "automata": (
        "StreamingTreeValidator", "TreeAutomaton", "compile_schema",
        "contains_determinize", "schema_contains", "schema_equivalent",
        "universal_automaton", "validate_events", "validate_events_or_raise",
    ),
    "bonxai": ("PathPattern", "PatternRule", "PatternSchema"),
    "chunked": (),
    "dtd": (
        "DTD", "parse_dtd", "sgml_unordered", "sgml_unordered_approximation",
        "uses_any_type",
    ),
    "edtd": ("EDTD", "validate_single_type"),
    "inference": (
        "build_soa", "infer_chare", "infer_dtd", "infer_sore", "learn_increasing_k",
        "learn_k_ore", "soa_accepts", "soa_to_sore",
    ),
    "json_parser": (
        "iter_json_events", "json_nesting_depth", "json_to_tree", "parse_json",
        "parse_json_tree",
    ),
    "jsonschema": (
        "JSONSchema", "corpus_study_json_schemas", "random_json_schema",
        "schema_report",
    ),
    "schema_corpus": (
        "DTDCorpusProfile", "corpus_statistics", "random_dtd", "random_dtd_corpus",
    ),
    "streaming": (
        "StreamingDTDValidator", "events_of", "memory_bound", "validate_stream",
        "validate_stream_or_raise",
    ),
    "tree": ("Tree", "TreeNode", "is_broad_and_shallow"),
    "xml_corpus": (
        "CorpusDocument", "XMLCorpus", "corpus_study", "generate_corpus",
        "inject_error", "random_tree", "serialize",
    ),
    "xml_parser": (
        "ERROR_CATEGORIES", "WellFormednessReport", "XMLError", "attempt_repair",
        "check_well_formedness", "iter_xml_events", "parse_xml",
    ),
    "xpath": (
        "XPathQuery", "axes_used", "is_downward", "is_tree_pattern", "syntax_size",
    ),
    "xpath_corpus": ("XPathGenerator", "XPathProfile", "xpath_corpus_study"),
})
