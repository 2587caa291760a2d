"""Seeded input generators shared by the benchmark and its server process.

The same ``--seed`` gives the same graphs, query texts, schemas and
documents.  The program under test only ever sees these generated
inputs; it never sees the seed.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def bench_module(name: str):
    """A module of the repository's ``benchmarks/``: its graph, query and
    automaton generators and reference helpers are reused, not copied."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    return importlib.import_module(name)


# -- graphs ----------------------------------------------------------------------


def iri(name: str) -> str:
    return f"<{name}>"


def mix_relations() -> Tuple[str, ...]:
    """serve-mix relations: ``bench_service``'s three predicates."""
    return tuple(bench_module("bench_service").PREDICATES)


def shard_relations() -> Tuple[str, ...]:
    """serve-sharded relations: ``bench_service``'s sharded vocabulary,
    enough predicates that both shards own work."""
    return tuple(bench_module("bench_service").SHARD_PREDICATES)


def store_triples(sharded: bool, seed: int, nodes: int) -> List[Tuple[str, str, str]]:
    """``bench_service``'s preferential-attachment store, each edge twice:
    under the RPQ name (the RPQ lexer reads plain tokens) and under its IRI
    form ``<knows>`` between ``<nI>`` nodes (SPARQL matches store strings
    lexically), so ``rpq`` and ``query`` address the same relation."""
    bench_service = bench_module("bench_service")
    build = bench_service.build_sharded_store if sharded else bench_service.build_store
    triples = []
    for s, p, o in sorted(build(nodes, seed).triples()):
        triples.append((s, p, o))
        triples.append((iri(s), iri(p), iri(o)))
    return triples


# -- RPQ and SPARQL texts -------------------------------------------------------------


def walk_expressions() -> List[str]:
    """``bench_service``'s RPQ expression pool."""
    return bench_module("bench_service").expr_pool()


def path_expressions() -> List[str]:
    """The finite-language part of the pool: simple-path and trail search
    is exponential in general, and an op must end within its budget."""
    return [expr for expr in walk_expressions() if "*" not in expr]


QUERY_TEMPLATES = (
    "SELECT ?y WHERE {{ <n{i}> <{a}> ?y }}",
    "SELECT ?y ?z WHERE {{ <n{i}> <{a}> ?y . ?y <{b}> ?z }}",
    "ASK {{ <n{i}> <{a}> ?y . ?y <{b}> <n{j}> }}",
    "SELECT ?x WHERE {{ ?x <{a}> <n{i}> }}",
)


def log_texts(seed: int, total: int) -> List[str]:
    """``total`` raw log queries, half DBpedia-like and half
    Wikidata-like, in a seeded interleaving."""
    from repro.logs.workload import DBPEDIA, WIKIDATA_ORGANIC, generate_source_log

    half = total // 2
    texts = generate_source_log(DBPEDIA, half, seed=seed) + generate_source_log(
        WIKIDATA_ORGANIC, total - half, seed=seed + 1
    )
    random.Random(seed).shuffle(texts)
    return texts


# -- schemas and documents ------------------------------------------------------------

#: one schema per kind.  The DTD and the BonXai schema describe XML
#: libraries (the BonXai one allows nested chapters); the EDTD is
#: non-single-type (three types share the label ``item``) over JSON.
SCHEMAS: Dict[str, Dict] = {
    "dtd": {
        "schema_kind": "dtd",
        "format": "xml",
        "rules": {
            "lib": "(book)*",
            "book": "title author author* year? chapter*",
            "chapter": "title (para | fig)*",
            "title": "", "author": "", "year": "", "para": "", "fig": "",
        },
        "start": ["lib"],
    },
    "edtd": {
        "schema_kind": "edtd",
        "format": "json",
        "rules": {
            "troot": "tsecs",
            "tsecs": "(tia | tib)*",
            "tia": "tp",
            "tib": "th tp",
            "th": "",
            "tp": "(tleaf)*",
            "tleaf": "",
        },
        "start": ["troot"],
        "mu": {"troot": "$", "tsecs": "secs", "tia": "item", "tib": "item",
               "th": "h", "tp": "p", "tleaf": "item"},
    },
    "bonxai": {
        "schema_kind": "bonxai",
        "format": "xml",
        "rules": {
            "/lib": "(book)*",
            "//book": "title author author* chapter*",
            "//chapter": "title (para | chapter)*",
            "//title": "", "//author": "", "//para": "",
        },
    },
}


def _xml_library(rng: random.Random, books: int, nested: bool, invalid: bool) -> str:
    out = ["<lib>"]
    broken = rng.randrange(books) if invalid else -1

    def chapter(depth: int, index: int) -> None:
        out.append("<chapter>")
        out.append(f"<title>Chapter {index}</title>")
        for k in range(rng.randrange(1, 5)):
            if nested and depth < 3 and rng.random() < 0.25:
                chapter(depth + 1, k)
            elif not nested and rng.random() < 0.3:
                out.append('<fig ref="f%d"/>' % k)
            else:
                out.append(f"<para>Paragraph {k} of chapter {index}.</para>")
        out.append("</chapter>")

    for b in range(books):
        out.append("<book>")
        if b != broken:
            out.append(f"<title>Book {b}</title>")
        for a in range(rng.randrange(1, 4)):
            out.append(f"<author>Author {a}</author>")
        if not nested and rng.random() < 0.5:
            out.append(f"<year>{1900 + b}</year>")
        for c in range(rng.randrange(1, 5)):
            chapter(0, c)
        out.append("</book>")
    out.append("</lib>")
    return "".join(out)


def _json_sections(rng: random.Random, items: int, invalid: bool) -> str:
    broken = rng.randrange(items) if invalid else -1
    secs = []
    for i in range(items):
        leaves = [rng.randrange(1000) for _ in range(rng.randrange(0, 6))]
        if i == broken:
            secs.append({"p": leaves, "h": f"heading {i}"})
        elif rng.random() < 0.5:
            secs.append({"h": f"heading {i}", "p": leaves})
        else:
            secs.append({"p": leaves})
    return json.dumps({"secs": secs})


def document(rng: random.Random, kind: str, size: int, invalid: bool) -> str:
    """One document for schema ``kind``; ``size`` scales its element count."""
    if kind == "dtd":
        return _xml_library(rng, size, nested=False, invalid=invalid)
    if kind == "bonxai":
        return _xml_library(rng, size, nested=True, invalid=invalid)
    return _json_sections(rng, 4 * size, invalid)


def compile_schema_of(kind: str):
    """The program's compile call for one of ``SCHEMAS``."""
    from repro.trees import automata
    from repro.trees.bonxai import PatternSchema
    from repro.trees.dtd import DTD
    from repro.trees.edtd import EDTD

    spec = SCHEMAS[kind]
    if kind == "dtd":
        return automata.TreeAutomaton.from_dtd(DTD.from_rules(spec["rules"], start=spec["start"]))
    if kind == "edtd":
        return automata.TreeAutomaton.from_edtd(
            EDTD.from_rules(spec["rules"], start=spec["start"], mu=spec["mu"])
        )
    return automata.compile_schema(PatternSchema.from_rules(spec["rules"]))


def reference_verdict(kind: str, text: str) -> bool:
    """``EDTD.validate`` on the materialized tree: the oracle for every
    streaming verdict (a DTD is the EDTD with identity typing)."""
    from repro.errors import JSONParseError, XMLParseError
    from repro.trees.bonxai import PatternSchema
    from repro.trees.edtd import EDTD
    from repro.trees.json_parser import parse_json_tree
    from repro.trees.xml_parser import parse_xml

    spec = SCHEMAS[kind]
    if kind == "bonxai":
        edtd = PatternSchema.from_rules(spec["rules"]).to_edtd()
    else:
        edtd = EDTD.from_rules(spec["rules"], start=spec["start"], mu=spec.get("mu"))
    try:
        tree = parse_json_tree(text) if spec["format"] == "json" else parse_xml(text)
    except (JSONParseError, XMLParseError):
        return False
    return edtd.validate(tree)


def inclusion_pair(k: int, fails: bool):
    """``bench_tree_automata``'s 2^k family: ``A_k ⊆ B_k`` holds, its
    ``fails`` variant does not."""
    return bench_module("bench_tree_automata").inclusion_pair(k, fails)
