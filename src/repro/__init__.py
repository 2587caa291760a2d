"""repro — a toolkit for empirical theory-of-data studies.

Open-source reproduction of the systems surveyed in Wim Martens,
"Towards Theory for Real-World Data" (PODS 2022).  Subpackages:

* :mod:`repro.regex` — regular expressions, automata, fragments,
  decision procedures (Sections 2, 4.2, Appendix A).
* :mod:`repro.trees` — tree-structured data: XML/JSON, DTDs, extended
  DTDs, pattern-based schemas, streaming validation, schema inference
  (Sections 3–6).
* :mod:`repro.graphs` — graph-structured data: RDF stores, dataset
  generators, treewidth estimation, regular path queries (Section 7).
* :mod:`repro.sparql` — the SPARQL fragment: parsing, evaluation and the
  structural analyses behind Tables 3–8 (Section 9).
* :mod:`repro.logs` — query-log corpora, calibrated workload generators,
  and the SHARQL-style analysis pipeline (Sections 9, 11).
* :mod:`repro.core` — the practical-study orchestration layer tying the
  pieces together.
* :mod:`repro.testing` — seedable differential fuzzing harness pitting
  the fast implementations against reference oracles.
* :mod:`repro.service` and :mod:`repro.store` — the query server and the
  memory-mapped triple-store images it serves.

Package names resolve on first use: ``import repro.trees.streaming``
loads only the modules that :mod:`repro.trees.streaming` itself
imports, and
``repro.sparql.parse_query`` imports :mod:`repro.sparql.parser` the
first time it is read (:mod:`repro._exports`).
"""

__version__ = "1.0.0"

from ._exports import lazy_surface

_SUBPACKAGES = ("core", "errors", "graphs", "logs", "regex", "sparql", "testing", "trees")

__getattr__, __dir__, _ = lazy_surface(__name__, dict.fromkeys((*_SUBPACKAGES, "service", "store"), ()))
__all__ = [*_SUBPACKAGES, "__version__"]
