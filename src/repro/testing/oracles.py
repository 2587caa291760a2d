"""Differential oracles: fast path vs reference path on generated input.

Each oracle bundles five things: a case generator, a divergence check
(``None`` means "agrees"), shrink candidates for failing cases, and an
``encode``/``decode`` pair mapping cases to JSON-able objects for the
checked-in regression corpus.

Register new oracles in :data:`ORACLES`; the runner, the CLI and the
corpus replay tests discover them by name.
"""

from __future__ import annotations

import dataclasses
import io
import json as _stdjson
import random
import tempfile
from collections import deque
from typing import Any, Dict, Iterable, List, Optional as Opt, Set, Tuple

from ..errors import (
    DTDParseError,
    JSONParseError,
    RegexParseError,
    SchemaError,
    SPARQLParseError,
    XMLParseError,
)
from ..graphs.paths import (
    evaluate_rpq,
    evaluate_rpq_reference,
    exists_simple_path,
    exists_simple_path_reference,
    exists_trail,
    exists_trail_reference,
)
from ..graphs.rdf import TripleStore
from ..logs.analyzer import (
    COUNTER_FIELDS,
    LogReport,
    analyze_corpus,
    encode_analysis,
)
from ..logs.battery import analyze_query_fused
from ..logs.corpus import QueryLogCorpus
from ..logs.pipeline import run_study
from ..logs.workload import ALL_PROFILES, generate_source_log
from ..regex.ast import Concat, Optional as OptRegex, Plus, Regex, Star, Union
from ..regex.automata import glushkov
from ..regex.determinism import is_deterministic
from ..sparql.ast import IRI, PathPattern, Var
from ..sparql.evaluation import Evaluator
from ..sparql.parser import parse_query, tokenize
from ..sparql.serialize import serialize_query
from ..trees.automata import (
    StreamingTreeValidator,
    TreeAutomaton,
    contains_determinize,
    validate_events,
)
from ..trees.dtd import DTD
from ..trees.edtd import EDTD
from ..trees.json_parser import iter_json_events, parse_json
from ..trees.streaming import validate_stream
from ..trees.tree import Tree, TreeNode
from ..trees.xml_parser import (
    BAD_ENCODING,
    check_well_formedness,
    iter_xml_events,
)
from .generators import (
    Event,
    random_dtd_rules,
    random_edtd_rules,
    random_event_stream,
    path_from_json,
    path_to_json,
    random_json_text,
    random_path_case,
    random_regex_ast,
    random_rpq_case,
    random_sparql_text,
    random_store_writes,
    random_xml_document,
    regex_from_json,
    regex_to_json,
)
from .reference import (
    analyze_query,
    match_path_reference,
    tokenize_reference,
)
from .shrink import sequence_candidates, text_candidates


class Oracle:
    """Base class of differential oracles (see module docstring)."""

    name: str = ""
    description: str = ""

    def generate(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def check(self, case: Any) -> Opt[str]:
        """A divergence message, or ``None`` when both sides agree (a
        case outside the oracle's precondition also returns ``None``)."""
        raise NotImplementedError

    def shrink_candidates(self, case: Any) -> Iterable[Any]:
        return iter(())

    def encode(self, case: Any) -> Any:
        return case

    def decode(self, obj: Any) -> Any:
        return obj


# ---------------------------------------------------------------------------
# JSON: custom scanner vs stdlib
# ---------------------------------------------------------------------------


def _reject_constant(text: str) -> None:
    # stdlib json accepts NaN/Infinity by default, an extension RFC 8259
    # (and our scanner) rejects; pin the oracle to the strict grammar.
    raise ValueError(f"non-RFC constant {text!r}")


def _typed_equal(a: Any, b: Any) -> bool:
    """Equality that does not conflate bool/int or int/float."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            k in b and _typed_equal(v, b[k]) for k, v in a.items()
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(
            _typed_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


class JSONOracle(Oracle):
    name = "json"
    description = (
        "custom JSON scanner vs stdlib json (verdict + value), and the "
        "event stream vs the strict parser (verdict + error)"
    )

    def generate(self, rng: random.Random) -> str:
        return random_json_text(rng)

    def check(self, case: str) -> Opt[str]:
        try:
            ours: Tuple[str, Any] = ("ok", parse_json(case))
        except JSONParseError as exc:
            ours = ("err", (exc.category, exc.position))
        except Exception as exc:
            return (
                f"custom parser leaked {type(exc).__name__}: {exc} "
                f"(JSONParseError expected)"
            )
        try:
            list(iter_json_events(case, chunk_size=7))
            stream: Tuple[str, Any] = ("ok", None)
        except JSONParseError as exc:
            stream = ("err", (exc.category, exc.position))
        except Exception as exc:
            return (
                f"event stream leaked {type(exc).__name__}: {exc} "
                f"(JSONParseError expected)"
            )
        verdict = ours if ours[0] == "err" else ("ok", None)
        if stream != verdict:
            return f"stream/strict divergence: stream={stream} strict={verdict}"
        try:
            std: Tuple[str, Any] = (
                "ok",
                _stdjson.loads(case, parse_constant=_reject_constant),
            )
        except RecursionError:
            return None
        except Exception:
            std = ("err", None)
        if ours[0] != std[0]:
            return (
                f"accept/reject divergence: custom={ours[0]} "
                f"stdlib={std[0]}"
            )
        if ours[0] == "ok" and not _typed_equal(ours[1], std[1]):
            return (
                f"value divergence: custom={ours[1]!r} stdlib={std[1]!r}"
            )
        return None

    def shrink_candidates(self, case: str) -> Iterable[str]:
        return text_candidates(case)


# ---------------------------------------------------------------------------
# XML: the chunked event stream vs one chunk vs the tree parser
# ---------------------------------------------------------------------------


def _xml_stream(source, chunk_size: int) -> Tuple[List[Event], Opt[tuple]]:
    """The events of ``iter_xml_events`` (adjacent text merged, since
    text splits at chunk boundaries) and its ``(category, position)``
    error, or ``None`` when the stream ends cleanly."""
    events: List[Event] = []
    try:
        for kind, value in iter_xml_events(source, chunk_size):
            if kind == "text" and events and events[-1][0] == "text":
                events[-1] = ("text", events[-1][1] + value)
            else:
                events.append((kind, value))
    except XMLParseError as exc:
        return events, (exc.category, exc.position)
    return events, None


class XMLOracle(Oracle):
    name = "xml"
    description = (
        "iter_xml_events at a small chunk size vs one chunk (events or "
        "error), its error vs check_well_formedness, and its start/end "
        "events vs the parsed tree"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return {"chunk": rng.randrange(1, 65), "data": random_xml_document(rng)}

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        data = case["data"]
        chunked_source = data if isinstance(data, bytes) else io.StringIO(data)
        chunked = _xml_stream(chunked_source, case["chunk"])
        whole = _xml_stream(data, max(1, len(data)))
        report = check_well_formedness(data)
        reported = [(error.category, error.position) for error in report.errors]
        if whole[1] is not None and whole[1] not in reported:
            return (
                f"one-chunk stream error {whole[1]} is not among "
                f"check_well_formedness's {reported}"
            )
        if chunked != whole and not self._bad_bytes_explain(
            data, whole[1], chunked[1]
        ):
            return f"chunk {case['chunk']} vs one chunk: {chunked} vs {whole}"
        if report.well_formed:
            structure = [event for event in whole[0] if event[0] != "text"]
            expected = list(report.tree.root.events())
            if structure != expected:
                return (
                    f"stream structure {structure} differs from the "
                    f"parsed tree's {expected}"
                )
        return None

    @staticmethod
    def _bad_bytes_explain(
        data: Any, whole: Opt[tuple], chunked: Opt[tuple]
    ) -> bool:
        """Whether undecodable bytes explain why small chunks differ
        from one: in one chunk, decoding fails before the first token;
        small chunks yield the events before those bytes and then fail
        on them with the same error, or first meet a lexical error
        before them, which must be one :func:`check_well_formedness`
        reports for the decodable prefix."""
        if not (
            isinstance(data, bytes)
            and whole is not None
            and whole[0] == BAD_ENCODING
        ):
            return False
        if chunked == whole:
            return True
        if chunked is None or chunked[1] > whole[1]:
            return False
        prefix = data.decode("utf-8-sig", errors="replace")[: whole[1]]
        return chunked in [
            (error.category, error.position)
            for error in check_well_formedness(prefix).errors
        ]

    def shrink_candidates(self, case: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
        for data in text_candidates(case["data"]):
            yield {**case, "data": data}
        if case["chunk"] > 1:
            yield {**case, "chunk": case["chunk"] // 2}

    def encode(self, case: Dict[str, Any]) -> Dict[str, Any]:
        data = case["data"]
        if isinstance(data, bytes):
            return {"chunk": case["chunk"], "bytes": data.decode("latin-1")}
        return {"chunk": case["chunk"], "text": data}

    def decode(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        if "bytes" in obj:
            return {"chunk": obj["chunk"], "data": obj["bytes"].encode("latin-1")}
        return {"chunk": obj["chunk"], "data": obj["text"]}


# ---------------------------------------------------------------------------
# DTD: streaming validator vs in-memory validation
# ---------------------------------------------------------------------------


def _tree_of_events(events: List[Event]) -> Opt[Tree]:
    """The document tree of an event stream, or ``None`` when the stream
    is not a single balanced element (text events are ignored; any other
    unknown kind makes the stream malformed)."""
    root: Opt[TreeNode] = None
    stack: List[TreeNode] = []
    for kind, label in events:
        if kind == "text":
            continue
        if kind == "start":
            node = TreeNode(label)
            if stack:
                stack[-1].add_child(node)
            elif root is None:
                root = node
            else:
                return None  # second root element
            stack.append(node)
        elif kind == "end":
            if not stack or stack[-1].label != label:
                return None  # unbalanced
            stack.pop()
        else:
            return None  # unknown event kind
    if stack or root is None:
        return None
    return Tree(root)


class DTDStreamOracle(Oracle):
    name = "dtd-stream"
    description = (
        "validate_stream vs DTD.validate on the event's tree and vs the "
        "NFTA run on a freshly compiled automaton"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        rules, start = random_dtd_rules(rng)
        return {
            "rules": rules,
            "start": start,
            "events": [list(e) for e in random_event_stream(rng)],
        }

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        try:
            dtd = DTD.from_rules(case["rules"], start=[case["start"]])
        except (DTDParseError, RegexParseError):
            return None  # malformed rule text is outside the oracle
        events = [tuple(e) for e in case["events"]]
        streaming = validate_stream(dtd, events)
        tree = _tree_of_events(events)
        reference = tree is not None and dtd.validate(tree)
        if streaming != reference:
            return (
                f"stream/in-memory divergence: streaming={streaming} "
                f"in-memory={reference}"
            )
        fresh = validate_events(TreeAutomaton.from_dtd(dtd), events)
        if streaming != fresh:
            return (
                f"validate_stream={streaming} but a freshly compiled "
                f"automaton says {fresh}"
            )
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        for events in sequence_candidates(case["events"]):
            yield {**case, "events": events}
        for label in list(case["rules"]):
            if label == case["start"]:
                continue
            smaller = dict(case["rules"])
            del smaller[label]
            yield {**case, "rules": smaller}
        for label, body in case["rules"].items():
            if body:
                yield {**case, "rules": {**case["rules"], label: ""}}


# ---------------------------------------------------------------------------
# RPQ: compiled engine vs reference evaluators, all three semantics
# ---------------------------------------------------------------------------


class RPQOracle(Oracle):
    name = "rpq"
    description = (
        "compiled RPQ engine vs *_reference under walk/simple-path/trail"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return random_rpq_case(rng)

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        store = TripleStore()
        for s, p, o in case["triples"]:
            store.add(s, p, o)
        expr = regex_from_json(case["expr"])
        source, target = case["source"], case["target"]
        semantics = case["semantics"]
        if semantics == "walk":
            # all pairs, all pairs into one target (the server passes
            # `targets` through without `sources`), one source-target pair
            for sources, targets in (
                (None, None),
                (None, [target]),
                ([source], [target]),
            ):
                fast = evaluate_rpq(store, expr, sources, targets)
                ref = evaluate_rpq_reference(store, expr, sources, targets)
                if fast != ref:
                    return (
                        f"walk divergence (sources={sources}, "
                        f"targets={targets}): engine-only="
                        f"{sorted(fast - ref)} reference-only={sorted(ref - fast)}"
                    )
            return None
        if semantics == "simple":
            fast = exists_simple_path(store, expr, source, target)
            ref = exists_simple_path_reference(store, expr, source, target)
            if fast != ref:
                return (
                    f"simple-path divergence at ({source}, {target}): "
                    f"engine={fast} reference={ref}"
                )
            return None
        fast = exists_trail(store, expr, source, target)
        ref = exists_trail_reference(store, expr, source, target)
        if fast != ref:
            return (
                f"trail divergence at ({source}, {target}): "
                f"engine={fast} reference={ref}"
            )
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        for triples in sequence_candidates(case["triples"]):
            yield {**case, "triples": triples}
        expr = regex_from_json(case["expr"])
        for candidate in _regex_candidates(expr):
            yield {**case, "expr": regex_to_json(candidate)}


# ---------------------------------------------------------------------------
# Regex determinism: syntactic Glushkov test vs brute-force search
# ---------------------------------------------------------------------------


def _brute_force_unambiguous(expr: Regex) -> bool:
    """One-unambiguity by exploration of the trimmed Glushkov automaton.

    BKW define determinism over the *marked language*: after any marked
    prefix, the next symbol must determine the next position among the
    positions that can still complete to a marked word.  Explore the
    reachable subsets, drop non-co-accessible positions, and look for a
    subset with two live same-symbol successors.
    """
    nfa = glushkov(expr)
    num_states = len(nfa.transitions)
    reverse: List[Set[int]] = [set() for _ in range(num_states)]
    for src in range(num_states):
        for targets in nfa.transitions[src].values():
            for dst in targets:
                reverse[dst].add(src)
    alive: Set[int] = set(nfa.finals)
    queue = deque(alive)
    while queue:
        state = queue.popleft()
        for prev in reverse[state]:
            if prev not in alive:
                alive.add(prev)
                queue.append(prev)
    start = frozenset(nfa.initial)
    seen = {start}
    frontier = deque([start])
    while frontier:
        subset = frontier.popleft()
        merged: Dict[str, Set[int]] = {}
        for state in subset:
            for label, targets in nfa.transitions[state].items():
                merged.setdefault(label, set()).update(
                    t for t in targets if t in alive
                )
        for targets in merged.values():
            if len(targets) > 1:
                return False
            if not targets:
                continue
            nxt = frozenset(targets)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


def _regex_candidates(expr: Regex) -> Iterable[Regex]:
    """Strictly smaller variants of an expression (hoist a child, drop a
    part of an n-ary node, shrink a child in place)."""
    if isinstance(expr, (Union, Concat)):
        for part in expr.parts:
            yield part
        if len(expr.parts) > 2:
            for i in range(len(expr.parts)):
                yield type(expr)(expr.parts[:i] + expr.parts[i + 1 :])
        for i, part in enumerate(expr.parts):
            for candidate in _regex_candidates(part):
                yield type(expr)(
                    expr.parts[:i] + (candidate,) + expr.parts[i + 1 :]
                )
    elif isinstance(expr, (Star, Plus, OptRegex)):
        yield expr.child
        for candidate in _regex_candidates(expr.child):
            yield type(expr)(candidate)


class RegexDeterminismOracle(Oracle):
    name = "regex-determinism"
    description = "is_deterministic vs brute-force Glushkov ambiguity search"

    _ALPHABET = ("a", "b", "c")

    def generate(self, rng: random.Random) -> Regex:
        return random_regex_ast(
            rng, self._ALPHABET, rng.randrange(1, 5), allow_empty=True
        )

    def check(self, case: Regex) -> Opt[str]:
        syntactic = is_deterministic(case)
        brute = _brute_force_unambiguous(case)
        if syntactic != brute:
            return (
                f"determinism divergence on {case}: syntactic={syntactic} "
                f"brute-force={brute}"
            )
        return None

    def shrink_candidates(self, case: Regex) -> Iterable[Regex]:
        return _regex_candidates(case)

    def encode(self, case: Regex) -> Any:
        return {"expr": regex_to_json(case)}

    def decode(self, obj: Any) -> Regex:
        return regex_from_json(obj["expr"])


# ---------------------------------------------------------------------------
# Log pipeline: fused run_study (workers + cache) vs sequential battery
# ---------------------------------------------------------------------------


def _report_divergence(
    reference: LogReport, candidate: LogReport
) -> Opt[str]:
    """First counter (or header) where two reports differ, or ``None``."""
    header = ("total", "valid", "unique")
    for name in header:
        left, right = getattr(reference, name), getattr(candidate, name)
        if left != right:
            return f"header {name}: sequential={left} pipeline={right}"
    for name in COUNTER_FIELDS:
        left = getattr(reference, name).items()
        right = getattr(candidate, name).items()
        if left != right:
            return (
                f"counter {name}: sequential={left!r} pipeline={right!r}"
            )
    return None


class LogPipelineOracle(Oracle):
    name = "log-pipeline"
    description = (
        "run_study (dedup-first pipeline, fused workers, analysis "
        "cache) vs sequential analyze_corpus"
    )

    _PROFILES = tuple(profile.name for profile in ALL_PROFILES)

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return {
            "profile": rng.choice(self._PROFILES),
            "total": rng.randint(3, 24),
            "seed": rng.randrange(1 << 20),
            # the pool path is heavyweight, so it is sampled, not the
            # default; a dedicated pytest test covers it deterministically
            "workers": 2 if rng.random() < 0.1 else 0,
            "chunk_size": rng.choice((1, 3, 8, 64)),
            "cache": rng.random() < 0.5,
        }

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        profile = {p.name: p for p in ALL_PROFILES}[case["profile"]]
        texts = generate_source_log(
            profile, case["total"], seed=case["seed"]
        )
        reference = analyze_corpus(
            QueryLogCorpus.from_texts(profile.name, texts)
        )
        runs: List[Tuple[str, LogReport]] = []
        if case["cache"]:
            with tempfile.TemporaryDirectory() as tmp:
                for label in ("cold-cache", "warm-cache"):
                    runs.append(
                        (
                            label,
                            run_study(
                                profile.name,
                                texts,
                                workers=case["workers"],
                                cache=tmp,
                                chunk_size=case["chunk_size"],
                            ),
                        )
                    )
        else:
            runs.append(
                (
                    "uncached",
                    run_study(
                        profile.name,
                        texts,
                        workers=case["workers"],
                        chunk_size=case["chunk_size"],
                    ),
                )
            )
        for label, report in runs:
            message = _report_divergence(reference, report)
            if message is not None:
                return f"{label} run: {message}"
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        if case["total"] > 1:
            yield {**case, "total": case["total"] // 2}
            yield {**case, "total": case["total"] - 1}
        if case["workers"]:
            yield {**case, "workers": 0}
        if case["cache"]:
            yield {**case, "cache": False}
        if case["chunk_size"] > 1:
            yield {**case, "chunk_size": 1}


# ---------------------------------------------------------------------------
# SPARQL: parse -> serialize -> parse round trip
# ---------------------------------------------------------------------------


class SPARQLRoundTripOracle(Oracle):
    name = "sparql-roundtrip"
    description = "parse→serialize→parse preserves the AST (modulo text)"

    def generate(self, rng: random.Random) -> str:
        return random_sparql_text(rng)

    def check(self, case: str) -> Opt[str]:
        try:
            first = parse_query(case)
        except SPARQLParseError:
            return None  # unparseable input is outside the oracle
        except RecursionError:
            return None
        except Exception as exc:
            return f"parser crashed: {type(exc).__name__}: {exc}"
        try:
            rendered = serialize_query(first)
        except Exception as exc:
            return f"serializer failed: {type(exc).__name__}: {exc}"
        try:
            second = parse_query(rendered)
        except Exception as exc:
            return (
                f"serialized form does not reparse: {rendered!r} "
                f"({type(exc).__name__}: {exc})"
            )
        if dataclasses.replace(first, text=None) != dataclasses.replace(
            second, text=None
        ):
            return f"round-trip AST mismatch via {rendered!r}"
        return None

    def shrink_candidates(self, case: str) -> Iterable[str]:
        return text_candidates(case)


# ---------------------------------------------------------------------------
# SPARQL property paths: the evaluator (compiled RPQ engine) vs relations
# ---------------------------------------------------------------------------


def _path_end(text: str):
    return Var(text[1:]) if text.startswith("?") else IRI(text)


class SPARQLPathOracle(Oracle):
    name = "sparql-path"
    description = (
        "Evaluator property-path matches (compiled RPQ engine) vs the "
        "relational reading of the path AST, rows in order"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return random_path_case(rng)

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        store = TripleStore()
        for s, p, o in case["triples"]:
            store.add(s, p, o)
        path = path_from_json(case["path"])
        ends = (case["subject"], case["object"])
        pattern = PathPattern(_path_end(ends[0]), path, _path_end(ends[1]))
        rows = Evaluator(store).evaluate_pattern(pattern)
        bound = [None if end.startswith("?") else end for end in ends]
        expected = []
        for pair in match_path_reference(store, path, *bound):
            row: Dict[str, str] = {}
            for end, node in zip(ends, pair):
                if end.startswith("?"):
                    if row.setdefault(end[1:], node) != node:
                        break
            else:
                expected.append(row)
        if rows != expected:
            return (
                f"{ends[0]} {path} {ends[1]}: evaluator={rows} "
                f"reference={expected}"
            )
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        for triples in sequence_candidates(case["triples"]):
            yield {**case, "triples": triples}
        for child in path_from_json(case["path"]).children():
            yield {**case, "path": path_to_json(child)}
        for end, variable in (("subject", "?x"), ("object", "?y")):
            if not case[end].startswith("?"):
                yield {**case, end: variable}


# ---------------------------------------------------------------------------
# Service: embedded serving layer vs direct library calls
# ---------------------------------------------------------------------------


def _read_predicates(expr: Regex) -> Set[str]:
    """The store predicates an RPQ expression reads (``^p`` reads ``p``)."""
    return {
        label[1:] if label.startswith("^") else label
        for label in expr.alphabet()
    }


class ServiceOracle(Oracle):
    name = "service"
    description = (
        "EmbeddedService responses (engine and cached, before and after "
        "write batches) vs direct library calls"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        roll = rng.random()
        if roll < 0.5:
            case = random_rpq_case(rng)
            expr = regex_from_json(case["expr"])
            # the service takes expression *text*; reuse the RPQ case
            # generator and render its AST (both sides re-parse the text,
            # so rendering ambiguity cannot cause a false divergence)
            generated = {
                "kind": "rpq",
                "triples": case["triples"],
                "expr": str(expr),
                "source": case["source"],
                "target": case["target"],
                "semantics": case["semantics"],
            }
            if rng.random() < 0.5:
                generated["writes"] = random_store_writes(
                    rng, case["triples"], _read_predicates(expr)
                )
            return generated
        kind = "sparql" if roll < 0.75 else "log"
        return {"kind": kind, "query": random_sparql_text(rng)}

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        import asyncio

        return asyncio.run(self._check(case))

    async def _check(self, case: Dict[str, Any]) -> Opt[str]:
        """Ask twice (engine answer, then cached answer), then after
        each write batch ask twice again; every answer must equal direct
        library calls on a mirror store given the same writes."""
        from ..regex.parser import parse as parse_regex
        from ..service import EmbeddedService

        store = TripleStore()
        if case["kind"] == "rpq":
            for s, p, o in case["triples"]:
                store.add(s, p, o)
        mirror = TripleStore(store.triples())
        # what a cached answer reads: the expression's predicates, or
        # the whole store for a nullable all-pairs walk (its diagonal)
        scope: Opt[Set[str]] = None
        if case["kind"] == "rpq":
            try:
                expr = parse_regex(case["expr"], multi_char=True)
            except RegexParseError:
                expr = None
            if expr is not None and not (
                case["semantics"] == "walk" and expr.nullable
            ):
                scope = _read_predicates(expr)
        async with EmbeddedService({"g": store}) as service:
            message = await self._ask_twice(
                service, case, mirror, "", ["engine", "cache"]
            )
            if message is not None:
                return message
            for index, batch in enumerate(case.get("writes") or ()):
                label = f"after write {index}: "
                response = await service.request(
                    "mutate", {"store": "g", "triples": batch}
                )
                added = [p for s, p, o in batch if mirror.add(s, p, o)]
                if not response.get("ok"):
                    return f"{label}mutate failed: {response.get('error')}"
                if response["result"]["added"] != len(added):
                    return (
                        f"{label}mutate added {response['result']['added']} "
                        f"triples, the mirror store {len(added)}"
                    )
                # a write that added nothing the answer reads leaves its
                # key, and its cache entry, in place
                changed = bool(added) and (
                    scope is None or not scope.isdisjoint(added)
                )
                message = await self._ask_twice(
                    service,
                    case,
                    mirror,
                    label,
                    ["engine" if changed else "cache", "cache"],
                )
                if message is not None:
                    return message
        return None

    async def _ask_twice(
        self,
        service: Any,
        case: Dict[str, Any],
        store: TripleStore,
        label: str,
        served_wanted: List[str],
    ) -> Opt[str]:
        kind = case["kind"]
        responses = []
        for _ in range(2):
            if kind == "rpq":
                params = {
                    "store": "g",
                    "expr": case["expr"],
                    "semantics": case["semantics"],
                }
                if case["semantics"] != "walk":
                    params["source"] = case["source"]
                    params["target"] = case["target"]
                responses.append(await service.request("rpq", params))
            else:
                responses.append(
                    await service.request(kind, {"query": case["query"]})
                )
        expected, expected_error = self._expected(case, store)
        for which, response in zip(("first ask", "second ask"), responses):
            message = self._compare(
                f"{label}{which}", response, expected, expected_error
            )
            if message is not None:
                return message
        served = [r.get("served_from") for r in responses]
        if expected_error is None and served != served_wanted:
            return f"{label}served_from sequence {served}, wanted {served_wanted}"
        return None

    @staticmethod
    def _expected(
        case: Dict[str, Any], store: TripleStore
    ) -> Tuple[Opt[Dict[str, Any]], Opt[str]]:
        """``(expected result fields, expected error code)`` from direct
        library calls."""
        from ..errors import BadRequest
        from ..regex.parser import parse as parse_regex
        from ..sparql.features import (
            count_triple_patterns,
            operator_set,
            query_features,
        )

        kind = case["kind"]
        if kind == "rpq":
            try:
                expr = parse_regex(case["expr"], multi_char=True)
            except RegexParseError:
                return None, BadRequest.code
            if case["semantics"] == "walk":
                pairs = evaluate_rpq(store, expr)
                return {
                    "semantics": "walk",
                    "pairs": sorted(list(pair) for pair in pairs),
                    "count": len(pairs),
                }, None
            decide = (
                exists_simple_path
                if case["semantics"] == "simple"
                else exists_trail
            )
            return {
                "semantics": case["semantics"],
                "exists": decide(store, expr, case["source"], case["target"]),
            }, None
        try:
            query = parse_query(case["query"])
        except (SPARQLParseError, RecursionError):
            query = None
        if kind == "sparql":
            if query is None:
                return {"valid": False}, None
            return {
                "valid": True,
                "canonical": serialize_query(query),
                "query_type": query.query_type,
                "triples": count_triple_patterns(query),
                "features": sorted(query_features(query)),
                "operators": sorted(operator_set(query)),
            }, None
        if query is None:
            return {"valid": False, "record": None}, None
        return {
            "valid": True,
            "record": encode_analysis(analyze_query(query)),
        }, None

    @staticmethod
    def _compare(
        which: str,
        response: Dict[str, Any],
        expected: Opt[Dict[str, Any]],
        expected_error: Opt[str],
    ) -> Opt[str]:
        if expected_error is not None:
            if response.get("ok"):
                return (
                    f"{which}: service accepted what the library rejects "
                    f"(wanted error {expected_error})"
                )
            code = (response.get("error") or {}).get("code")
            if code != expected_error:
                return f"{which}: error code {code}, wanted {expected_error}"
            return None
        if not response.get("ok"):
            return f"{which}: service failed: {response.get('error')}"
        result = response["result"]
        for field, wanted in (expected or {}).items():
            if result.get(field) != wanted:
                return (
                    f"{which}: field {field!r} diverges: "
                    f"service={result.get(field)!r} direct={wanted!r}"
                )
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        if case["kind"] == "rpq":
            writes = case.get("writes") or []
            for index, batch in enumerate(writes):
                yield {**case, "writes": writes[:index] + writes[index + 1 :]}
                for position in range(len(batch)):
                    smaller = batch[:position] + batch[position + 1 :]
                    if smaller:
                        yield {
                            **case,
                            "writes": writes[:index] + [smaller] + writes[index + 1 :],
                        }
            for index in range(len(case["triples"])):
                smaller = list(case["triples"])
                del smaller[index]
                yield {**case, "triples": smaller}
            for text in text_candidates(case["expr"]):
                yield {**case, "expr": text}
        else:
            for text in text_candidates(case["query"]):
                yield {**case, "query": text}


# ---------------------------------------------------------------------------
# SPARQL: table-driven scanner vs the reference regex lexer
# ---------------------------------------------------------------------------


#: junk injected into otherwise-wellformed queries so the oracle also
#: exercises the *error* paths: both lexers must reject at the same
#: position with the same message
_LEXER_JUNK = "\\`§\x00\x7f@~"


class LexerOracle(Oracle):
    name = "lexer"
    description = (
        "table-driven scanner vs the reference regex lexer: same "
        "token stream, same error positions"
    )

    def generate(self, rng: random.Random) -> str:
        text = random_sparql_text(rng)
        if rng.random() < 0.3:
            # corrupt the text so error-position parity is fuzzed too
            at = rng.randrange(len(text) + 1)
            junk = rng.choice(_LEXER_JUNK)
            text = text[:at] + junk + text[at:]
        return text

    def check(self, case: str) -> Opt[str]:
        try:
            expected = tokenize_reference(case)
            expected_error = None
        except SPARQLParseError as exc:
            expected, expected_error = None, (str(exc), exc.position)
        try:
            actual = tokenize(case)
            actual_error = None
        except SPARQLParseError as exc:
            actual, actual_error = None, (str(exc), exc.position)
        if expected_error != actual_error:
            return (
                f"error divergence: reference={expected_error!r} "
                f"scanner={actual_error!r}"
            )
        if expected_error is not None:
            return None
        if len(expected) != len(actual):
            return (
                f"token count: reference={len(expected)} "
                f"scanner={len(actual)}"
            )
        for ref_token, new_token in zip(expected, actual):
            if (ref_token.kind, ref_token.text, ref_token.pos) != (
                new_token.kind,
                new_token.text,
                new_token.pos,
            ):
                return (
                    f"token divergence at {ref_token.pos}: "
                    f"reference={ref_token!r} scanner={new_token!r}"
                )
        return None

    def shrink_candidates(self, case: str) -> Iterable[str]:
        return text_candidates(case)


# ---------------------------------------------------------------------------
# Logs: fused single-traversal battery vs the reference battery
# ---------------------------------------------------------------------------


class FusedBatteryOracle(Oracle):
    name = "fused-battery"
    description = (
        "analyze_query_fused vs the reference analyze_query: "
        "byte-identical encoded analysis records"
    )

    def generate(self, rng: random.Random) -> str:
        return random_sparql_text(rng)

    def check(self, case: str) -> Opt[str]:
        try:
            query = parse_query(case)
        except SPARQLParseError:
            return None  # unparseable input is outside the oracle
        except RecursionError:
            return None
        except Exception as exc:
            return f"parser crashed: {type(exc).__name__}: {exc}"
        try:
            reference = encode_analysis(analyze_query(query))
        except Exception as exc:
            return f"reference battery crashed: {type(exc).__name__}: {exc}"
        try:
            fused = encode_analysis(analyze_query_fused(query))
        except Exception as exc:
            return f"fused battery crashed: {type(exc).__name__}: {exc}"
        if reference != fused:
            return (
                f"analysis records diverge: reference={reference!r} "
                f"fused={fused!r}"
            )
        return None

    def shrink_candidates(self, case: str) -> Iterable[str]:
        return text_candidates(case)


# ---------------------------------------------------------------------------
# Mapped store: the mmap image vs the in-memory store it was frozen from
# ---------------------------------------------------------------------------


class MmapStoreOracle(Oracle):
    name = "mmap-store"
    description = (
        "MappedTripleStore (frozen mmap image) vs the in-memory "
        "TripleStore across every query family"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return random_rpq_case(rng)

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        import os

        from ..store.mmapstore import MappedTripleStore

        store = TripleStore()
        for s, p, o in case["triples"]:
            store.add(s, p, o)
        expr = regex_from_json(case["expr"])
        source, target = case["source"], case["target"]
        with tempfile.TemporaryDirectory() as tmp:
            fingerprint = store.save(os.path.join(tmp, "case.img"))
            with MappedTripleStore.load(os.path.join(tmp, "case.img")) as mapped:
                if fingerprint != store.fingerprint():
                    return (
                        f"save() returned {fingerprint}, live store says "
                        f"{store.fingerprint()}"
                    )
                if mapped.fingerprint() != store.fingerprint():
                    return (
                        f"fingerprint divergence: mapped="
                        f"{mapped.fingerprint()} live={store.fingerprint()}"
                    )
                if set(mapped.triples()) != set(store.triples()):
                    return "triple-set divergence after save/load"
                if mapped.nodes() != store.nodes() or (
                    mapped.predicates() != store.predicates()
                ):
                    return "node/predicate-set divergence after save/load"
                fast = evaluate_rpq(store, expr)
                frozen = evaluate_rpq(mapped, expr)
                if fast != frozen:
                    return (
                        f"walk all-pairs divergence: live-only="
                        f"{sorted(fast - frozen)} mapped-only="
                        f"{sorted(frozen - fast)}"
                    )
                fast = evaluate_rpq(
                    store, expr, sources=[source], targets=[target]
                )
                frozen = evaluate_rpq(
                    mapped, expr, sources=[source], targets=[target]
                )
                if fast != frozen:
                    return (
                        f"walk filtered divergence at ({source}, {target}): "
                        f"live={sorted(fast)} mapped={sorted(frozen)}"
                    )
                for semantics, decide in (
                    ("simple", exists_simple_path),
                    ("trail", exists_trail),
                ):
                    live = decide(store, expr, source, target)
                    image = decide(mapped, expr, source, target)
                    if live != image:
                        return (
                            f"{semantics}-path divergence at "
                            f"({source}, {target}): live={live} mapped={image}"
                        )
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        for triples in sequence_candidates(case["triples"]):
            yield {**case, "triples": triples}
        expr = regex_from_json(case["expr"])
        for candidate in _regex_candidates(expr):
            yield {**case, "expr": regex_to_json(candidate)}


# ---------------------------------------------------------------------------
# Sharded service tier vs the single-process engine
# ---------------------------------------------------------------------------


#: bracketed vocabulary for full-evaluation (op ``query``) cases — the
#: evaluator matches predicates by the IRI's lexical form, so the store
#: must use the same ``<...>`` spelling the query text does
_QUERY_PREDICATES = ("<p>", "<q>", "<r>", "<hot>")
_QUERY_NODES = tuple(f"<n{i}>" for i in range(8))
#: safe evaluation templates: no ORDER BY / LIMIT (tie order is
#: implementation-defined; the service ships rows canonically sorted).
#: The last three make the sharded union load every predicate: a
#: negated set, a nullable path, a FILTER EXISTS.
_QUERY_TEMPLATES = (
    "SELECT ?x ?y WHERE { ?x %P0 ?y }",
    "SELECT ?x ?z WHERE { ?x %P0 ?y . ?y %P1 ?z }",
    "SELECT ?x ?p ?y WHERE { ?x ?p ?y }",
    "ASK { ?x %P0 ?y }",
    "SELECT ?x WHERE { { ?x %P0 ?y } UNION { ?x %P1 ?y } }",
    "SELECT ?x ?y WHERE { ?x %P0 ?y OPTIONAL { ?y %P1 ?z } }",
    "SELECT ?x ?y WHERE { ?x %P0+ ?y }",
    "SELECT ?x ?y WHERE { ?x (%P0|%P1)* ?y }",
    "SELECT DISTINCT ?x WHERE { ?x %P0 ?y . ?x %P1 ?z }",
    "SELECT ?x ?y WHERE { ?x !(%P0|^%P1) ?y }",
    "SELECT ?x WHERE { ?x (%P0/%P1)* <n1> }",
    "SELECT ?x WHERE { ?x %P0 ?y FILTER EXISTS { ?y %P1 ?z } }",
)
#: multi-shard RPQ expressions for the label-skewed / cyclic stores:
#: hot-sandwiched paths, cycles over every predicate, and an absent
#: predicate ("s") that no shard owns
_SKEW_EXPRS = (
    "hot* (p|q) hot*",
    "(hot|p)*",
    "hot hot*",
    "(p|q|r)*",
    "q hot* ^p",
    "s s*",
    "(p|s)* hot",
)


class ShardedServiceOracle(Oracle):
    name = "sharded-service"
    description = (
        "EmbeddedService over a sharded deployment (owner-routed "
        "worker processes, multi-shard requests on the coordinator "
        "union) vs the same service over the in-memory store: engine "
        "and cached answers for rpq, battery and full SPARQL "
        "evaluation (query op)"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        shards = rng.choice([2, 3, 4])
        roll = rng.random()
        if roll < 0.45:
            case = random_rpq_case(rng)
            return {
                "kind": "rpq",
                "triples": case["triples"],
                "expr": str(regex_from_json(case["expr"])),
                "source": case["source"],
                "target": case["target"],
                "semantics": case["semantics"],
                "shards": shards,
            }
        if roll < 0.7:
            # label-skewed cyclic store: a cold multi-predicate ring
            # (cyclic walks that revisit nodes in new automaton states)
            # plus a hot predicate carrying most triples
            nodes = [f"n{i}" for i in range(rng.randrange(4, 8))]
            triples = set()
            for index, node in enumerate(nodes):
                triples.add(
                    (
                        node,
                        rng.choice(("p", "q", "r")),
                        nodes[(index + 1) % len(nodes)],
                    )
                )
            for _ in range(rng.randrange(4, 20)):
                triples.add(
                    (rng.choice(nodes), "hot", rng.choice(nodes))
                )
            endpoints = nodes + ["ghost"]
            return {
                "kind": "rpq",
                "triples": [list(t) for t in sorted(triples)],
                "expr": rng.choice(_SKEW_EXPRS),
                "source": rng.choice(endpoints),
                "target": rng.choice(endpoints),
                "semantics": rng.choice(("walk", "walk", "simple", "trail")),
                "shards": shards,
            }
        if roll < 0.9:
            node_pool = _QUERY_NODES[: rng.randrange(3, len(_QUERY_NODES) + 1)]
            triples = sorted(
                {
                    (
                        rng.choice(node_pool),
                        rng.choice(_QUERY_PREDICATES),
                        rng.choice(node_pool),
                    )
                    for _ in range(rng.randrange(0, 16))
                }
            )
            template = rng.choice(_QUERY_TEMPLATES)
            query = template.replace(
                "%P0", rng.choice(_QUERY_PREDICATES)
            ).replace("%P1", rng.choice(_QUERY_PREDICATES))
            return {
                "kind": "query",
                "triples": [list(t) for t in triples],
                "query": query,
                "shards": shards,
            }
        case = random_rpq_case(rng)
        return {
            "kind": "battery",
            "triples": case["triples"],
            "queries": [
                random_sparql_text(rng)
                for _ in range(rng.randrange(1, 4))
            ],
            "shards": shards,
        }

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        import asyncio

        return asyncio.run(self._check(case))

    async def _check(self, case: Dict[str, Any]) -> Opt[str]:
        import os

        from ..service import EmbeddedService
        from ..service.shard import shard_store

        store = TripleStore()
        for s, p, o in case["triples"]:
            store.add(s, p, o)
        with tempfile.TemporaryDirectory() as tmp:
            shard_store(
                store, os.path.join(tmp, "g"), shards=case["shards"]
            )
            async with EmbeddedService(
                {"g": os.path.join(tmp, "g")}
            ) as sharded, EmbeddedService({"g": store}) as single:
                if case["kind"] == "rpq":
                    params: Dict[str, Any] = {
                        "store": "g",
                        "expr": case["expr"],
                        "semantics": case["semantics"],
                    }
                    if case["semantics"] != "walk":
                        params["source"] = case["source"]
                        params["target"] = case["target"]
                    op = "rpq"
                elif case["kind"] == "query":
                    params = {"store": "g", "query": case["query"]}
                    op = "query"
                else:
                    params = {
                        "store": "g",
                        "queries": case["queries"],
                        "source": "oracle",
                    }
                    op = "battery"
                # ask each deployment twice: first answer from the
                # engine, second from the cache — all four must agree
                # (the cache keys are fingerprint-addressed and the
                # shard manifest preserves the source fingerprint, so
                # both deployments derive identical keys)
                for which in ("engine", "cached"):
                    a = await sharded.request(op, params)
                    b = await single.request(op, params)
                    message = self._compare(which, a, b)
                    if message is not None:
                        return message
        return None

    @staticmethod
    def _compare(
        which: str, sharded: Dict[str, Any], single: Dict[str, Any]
    ) -> Opt[str]:
        if sharded.get("ok") != single.get("ok"):
            return (
                f"{which}: outcome divergence: sharded ok="
                f"{sharded.get('ok')} single ok={single.get('ok')}"
            )
        if not sharded.get("ok"):
            a = (sharded.get("error") or {}).get("code")
            b = (single.get("error") or {}).get("code")
            if a != b:
                return f"{which}: error code sharded={a} single={b}"
            return None
        if sharded["result"] != single["result"]:
            return (
                f"{which}: result divergence: "
                f"sharded={sharded['result']!r} single={single['result']!r}"
            )
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        for triples in sequence_candidates(case["triples"]):
            yield {**case, "triples": triples}
        if case["shards"] > 2:
            yield {**case, "shards": 2}
        if case["kind"] == "rpq":
            for text in text_candidates(case["expr"]):
                yield {**case, "expr": text}
        elif case["kind"] == "query":
            pass  # query texts shrink poorly; the triples already do
        else:
            for index in range(len(case["queries"])):
                smaller = list(case["queries"])
                del smaller[index]
                if smaller:
                    yield {**case, "queries": smaller}


# ---------------------------------------------------------------------------
# Tree automata: streaming NFTA run vs EDTD.validate; antichain inclusion
# vs determinize-and-product and bounded tree enumeration
# ---------------------------------------------------------------------------


def _small_trees(labels: Tuple[str, ...], budget: int) -> List[Tree]:
    """A deterministic, breadth-ordered enumeration of small unranked
    trees over ``labels`` (depth ≤ 2, each node ≤ 2 children), capped at
    ``budget`` trees — the brute-force membership probe behind the
    inclusion oracle."""

    def layer(depth: int) -> List[TreeNode]:
        if depth <= 0:
            return [TreeNode(label) for label in labels]
        below = layer(depth - 1)
        nodes: List[TreeNode] = []
        child_seqs: List[List[TreeNode]] = [[]]
        child_seqs += [[c] for c in below]
        if depth == 1:
            child_seqs += [[c1, c2] for c1 in below for c2 in below]
        for label in labels:
            for seq in child_seqs:
                node = TreeNode(label)
                for child in seq:
                    node.add_child(_copy_node(child))
                nodes.append(node)
        return nodes

    trees = [Tree(node) for node in layer(2)]
    return trees[:budget]


def _copy_node(node: TreeNode) -> TreeNode:
    fresh = TreeNode(node.label)
    for child in node.children:
        fresh.add_child(_copy_node(child))
    return fresh


def _edtd_of(spec: Dict[str, Any]) -> Opt[EDTD]:
    try:
        return EDTD.from_rules(
            spec["rules"], start=list(spec["start"]), mu=dict(spec["mu"])
        )
    except (DTDParseError, RegexParseError, SchemaError, ValueError):
        return None  # malformed rule text is outside the oracle


def _stream_run(automaton: TreeAutomaton, events) -> Tuple[bool, int, int]:
    """(verdict, max_stack_depth, max_tracked_cells) of one streaming run."""
    validator = StreamingTreeValidator(automaton)
    all(map(validator.feed, events))
    return validator.finish(), validator.max_stack_depth, validator.max_tracked_cells


class TreeAutomataOracle(Oracle):
    name = "tree-automata"
    description = (
        "streaming NFTA run (cold, then warm table) vs EDTD.validate; "
        "antichain inclusion vs determinize-and-product and small-tree "
        "enumeration"
    )

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        if rng.random() < 0.6:
            rules, start, mu = random_edtd_rules(rng)
            return {
                "kind": "stream",
                "rules": rules,
                "start": start,
                "mu": mu,
                "events": [list(e) for e in random_event_stream(rng)],
            }
        rules_a, start_a, mu_a = random_edtd_rules(rng)
        if rng.random() < 0.3:
            # bias toward inclusion actually holding: B is A plus slack
            rules_b = dict(rules_a)
            for t in list(rules_b):
                if rng.random() < 0.5:
                    rules_b[t] = f"(({rules_b[t]})|({t}*))" if rules_b[t] else f"({t}*)"
            side_b = {"rules": rules_b, "start": start_a, "mu": mu_a}
        else:
            rules_b, start_b, mu_b = random_edtd_rules(rng)
            side_b = {"rules": rules_b, "start": start_b, "mu": mu_b}
        return {
            "kind": "inclusion",
            "a": {"rules": rules_a, "start": start_a, "mu": mu_a},
            "b": side_b,
        }

    def check(self, case: Dict[str, Any]) -> Opt[str]:
        if case["kind"] == "stream":
            return self._check_stream(case)
        return self._check_inclusion(case)

    def _check_stream(self, case: Dict[str, Any]) -> Opt[str]:
        edtd = _edtd_of(case)
        if edtd is None:
            return None
        events = [tuple(e) for e in case["events"]]
        automaton = TreeAutomaton.from_edtd(edtd)
        cold = _stream_run(automaton, events)
        warm = _stream_run(automaton, events)
        if warm != cold:
            return f"a warm table changed the run: cold={cold} warm={warm}"
        streaming = cold[0]
        tree = _tree_of_events(events)
        reference = tree is not None and edtd.validate(tree)
        if streaming != reference:
            return (
                f"stream/in-memory divergence: streaming={streaming} "
                f"EDTD.validate={reference}"
            )
        reduced = validate_events(automaton.reduce(), events)
        if reduced != streaming:
            return (
                f"reduction changed the verdict: full={streaming} "
                f"reduced={reduced}"
            )
        return None

    def _check_inclusion(self, case: Dict[str, Any]) -> Opt[str]:
        edtd_a = _edtd_of(case["a"])
        edtd_b = _edtd_of(case["b"])
        if edtd_a is None or edtd_b is None:
            return None
        aut_a = TreeAutomaton.from_edtd(edtd_a)
        aut_b = TreeAutomaton.from_edtd(edtd_b)
        antichain = aut_a.included_in(aut_b)
        reference = contains_determinize(aut_a, aut_b)
        if antichain != reference:
            return (
                f"inclusion divergence: antichain={antichain} "
                f"determinize-product={reference}"
            )
        labels = tuple(
            sorted(set(aut_a.alphabet) | set(aut_b.alphabet))
        ) or ("a",)
        for tree in _small_trees(labels, budget=150):
            in_a = aut_a.validate(tree)
            if in_a != edtd_a.validate(tree):
                return "membership divergence: TreeAutomaton vs EDTD (A)"
            if antichain and in_a and not aut_b.validate(tree):
                return (
                    "enumeration counterexample: inclusion reported True "
                    "but a small tree is in A and not in B"
                )
        return None

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        if case["kind"] == "stream":
            for events in sequence_candidates(case["events"]):
                yield {**case, "events": events}
            for t, body in case["rules"].items():
                if body:
                    yield {**case, "rules": {**case["rules"], t: ""}}
        else:
            for side in ("a", "b"):
                spec = case[side]
                for t in list(spec["rules"]):
                    if t in spec["start"]:
                        continue
                    smaller = dict(spec["rules"])
                    del smaller[t]
                    yield {**case, side: {**spec, "rules": smaller}}
                for t, body in spec["rules"].items():
                    if body:
                        yield {
                            **case,
                            side: {
                                **spec,
                                "rules": {**spec["rules"], t: ""},
                            },
                        }


ORACLES: Dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        JSONOracle(),
        XMLOracle(),
        DTDStreamOracle(),
        RPQOracle(),
        RegexDeterminismOracle(),
        SPARQLRoundTripOracle(),
        SPARQLPathOracle(),
        LogPipelineOracle(),
        ServiceOracle(),
        LexerOracle(),
        FusedBatteryOracle(),
        MmapStoreOracle(),
        ShardedServiceOracle(),
        TreeAutomataOracle(),
    )
}
