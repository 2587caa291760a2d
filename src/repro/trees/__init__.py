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

from .automata import (
    StreamingTreeValidator,
    TreeAutomaton,
    compile_schema,
    contains_determinize,
    schema_contains,
    schema_equivalent,
    universal_automaton,
    validate_events,
    validate_events_or_raise,
)
from .bonxai import PathPattern, PatternRule, PatternSchema
from .dtd import (
    DTD,
    parse_dtd,
    sgml_unordered,
    sgml_unordered_approximation,
    uses_any_type,
)
from .edtd import EDTD, validate_single_type
from .inference import (
    build_soa,
    infer_chare,
    infer_dtd,
    infer_sore,
    learn_increasing_k,
    learn_k_ore,
    soa_accepts,
    soa_to_sore,
)
from .json_parser import (
    iter_json_events,
    json_nesting_depth,
    json_to_tree,
    parse_json,
    parse_json_tree,
)
from .jsonschema import (
    JSONSchema,
    corpus_study_json_schemas,
    random_json_schema,
    schema_report,
)
from .schema_corpus import (
    DTDCorpusProfile,
    corpus_statistics,
    random_dtd,
    random_dtd_corpus,
)
from .streaming import (
    StreamingDTDValidator,
    events_of,
    memory_bound,
    validate_stream,
    validate_stream_or_raise,
)
from .tree import Tree, TreeNode, is_broad_and_shallow
from .xml_corpus import (
    CorpusDocument,
    XMLCorpus,
    corpus_study,
    generate_corpus,
    inject_error,
    random_tree,
    serialize,
)
from .xml_parser import (
    ERROR_CATEGORIES,
    WellFormednessReport,
    XMLError,
    attempt_repair,
    check_well_formedness,
    iter_xml_events,
    parse_xml,
)
from .xpath import (
    XPathQuery,
    axes_used,
    is_downward,
    is_tree_pattern,
    syntax_size,
)
from .xpath_corpus import (
    XPathGenerator,
    XPathProfile,
    xpath_corpus_study,
)

__all__ = [
    "StreamingTreeValidator",
    "TreeAutomaton",
    "compile_schema",
    "contains_determinize",
    "schema_contains",
    "schema_equivalent",
    "universal_automaton",
    "validate_events",
    "validate_events_or_raise",
    "iter_json_events",
    "iter_xml_events",
    "PathPattern",
    "PatternRule",
    "PatternSchema",
    "DTD",
    "parse_dtd",
    "sgml_unordered",
    "sgml_unordered_approximation",
    "uses_any_type",
    "EDTD",
    "validate_single_type",
    "build_soa",
    "infer_chare",
    "infer_dtd",
    "infer_sore",
    "learn_increasing_k",
    "learn_k_ore",
    "soa_accepts",
    "soa_to_sore",
    "json_nesting_depth",
    "json_to_tree",
    "parse_json",
    "parse_json_tree",
    "DTDCorpusProfile",
    "corpus_statistics",
    "random_dtd",
    "random_dtd_corpus",
    "StreamingDTDValidator",
    "events_of",
    "memory_bound",
    "validate_stream",
    "validate_stream_or_raise",
    "Tree",
    "TreeNode",
    "is_broad_and_shallow",
    "CorpusDocument",
    "XMLCorpus",
    "corpus_study",
    "generate_corpus",
    "inject_error",
    "random_tree",
    "serialize",
    "ERROR_CATEGORIES",
    "WellFormednessReport",
    "XMLError",
    "attempt_repair",
    "check_well_formedness",
    "parse_xml",
    "XPathQuery",
    "axes_used",
    "is_downward",
    "is_tree_pattern",
    "syntax_size",
    "JSONSchema",
    "corpus_study_json_schemas",
    "random_json_schema",
    "schema_report",
    "XPathGenerator",
    "XPathProfile",
    "xpath_corpus_study",
]
