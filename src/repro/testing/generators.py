"""Seedable, grammar-aware input generators for the fuzzing harness.

Every generator is a pure function of the :class:`random.Random` it is
handed, so a fixed seed reproduces the exact case sequence (asserted by
``tests/testing/test_generators.py``).  Generators aim for the shape of
the paper's data: small labeled trees, DTD content models, regexes over
2–4 letter alphabets, RPQ expressions with inverse atoms, and the
SPARQL fragment of Section 9.
"""

from __future__ import annotations

import json as _json
import random
from typing import Any, Dict, Iterable, List, Optional as Opt, Tuple

from ..graphs.engine import _DFA_BLOWUP_LIMIT, _DFA_STATE_LIMIT
from ..regex.ast import (
    EMPTY,
    EPSILON,
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

Event = Tuple[str, str]

# ---------------------------------------------------------------------------
# Regex ASTs and their corpus encoding
# ---------------------------------------------------------------------------
#
# Corpus entries store regex ASTs as nested JSON arrays, NOT the academic
# string notation: ``str(Concat((Plus(a), b)))`` is ``"a+ b"``, which the
# context-disambiguated '+' reparses as a Union — the encoding must not
# depend on that ambiguity.


def regex_to_json(expr: Regex) -> list:
    if isinstance(expr, Empty):
        return ["empty"]
    if isinstance(expr, Epsilon):
        return ["eps"]
    if isinstance(expr, Symbol):
        return ["sym", expr.label]
    if isinstance(expr, Union):
        return ["union"] + [regex_to_json(p) for p in expr.parts]
    if isinstance(expr, Concat):
        return ["cat"] + [regex_to_json(p) for p in expr.parts]
    if isinstance(expr, Star):
        return ["star", regex_to_json(expr.child)]
    if isinstance(expr, Plus):
        return ["plus", regex_to_json(expr.child)]
    if isinstance(expr, Optional):
        return ["opt", regex_to_json(expr.child)]
    raise TypeError(f"cannot encode regex node {expr!r}")


def regex_from_json(obj: list) -> Regex:
    tag = obj[0]
    if tag == "empty":
        return EMPTY
    if tag == "eps":
        return EPSILON
    if tag == "sym":
        return Symbol(obj[1])
    if tag == "union":
        return Union(tuple(regex_from_json(p) for p in obj[1:]))
    if tag == "cat":
        return Concat(tuple(regex_from_json(p) for p in obj[1:]))
    if tag == "star":
        return Star(regex_from_json(obj[1]))
    if tag == "plus":
        return Plus(regex_from_json(obj[1]))
    if tag == "opt":
        return Optional(regex_from_json(obj[1]))
    raise ValueError(f"unknown regex tag {tag!r}")


def random_regex_ast(
    rng: random.Random,
    alphabet: Tuple[str, ...],
    depth: int,
    allow_empty: bool = True,
) -> Regex:
    """A random expression tree; ``allow_empty`` admits ``[]`` leaves
    (the source of the one-unambiguity trimming bug)."""
    if depth <= 0:
        leaves: List[Regex] = [Symbol(rng.choice(alphabet))]
        if rng.random() < 0.25:
            leaves = [EPSILON]
        if allow_empty and rng.random() < 0.12:
            leaves = [EMPTY]
        return leaves[0]
    kind = rng.randrange(6)
    if kind == 0:
        return Union(
            tuple(
                random_regex_ast(rng, alphabet, depth - 1, allow_empty)
                for _ in range(rng.randrange(2, 4))
            )
        )
    if kind == 1:
        return Concat(
            tuple(
                random_regex_ast(rng, alphabet, depth - 1, allow_empty)
                for _ in range(rng.randrange(2, 4))
            )
        )
    if kind == 2:
        return Star(random_regex_ast(rng, alphabet, depth - 1, allow_empty))
    if kind == 3:
        return Plus(random_regex_ast(rng, alphabet, depth - 1, allow_empty))
    if kind == 4:
        return Optional(
            random_regex_ast(rng, alphabet, depth - 1, allow_empty)
        )
    return random_regex_ast(rng, alphabet, depth - 1, allow_empty)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

_JSON_KEYS = ("a", "bb", "key", "名前", "x y", "", "it\tem")
_JSON_STRINGS = (
    "",
    "plain",
    "with \"quotes\" and \\backslash",
    "unicode: café 𝄞",
    "line\nbreak\ttab",
    " control",
)
# token-level splices that exercise the number/string grammar edges
_JSON_SPLICES = (
    "1e",
    "1.e5",
    "-.",
    "01",
    "1.",
    "-",
    "+1",
    "0x1",
    "1e+",
    ".5",
    "00",
    "\\u12",
    "\\ud834",
    "\\udd1e",
    "\\u+123",
    "\\x41",
    'tru',
    "nul",
    "NaN",
    "Infinity",
    ",,",
    "[",
    "}",
    '"',
    "\x01",
    "\x1f",
)


def _random_json_value(rng: random.Random, depth: int) -> Any:
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.randrange(7)
        if kind == 0:
            return rng.choice((True, False, None))
        if kind == 1:
            return rng.randrange(-1000, 1000)
        if kind == 2:
            return rng.choice((0, -0, 10**18, -(10**12)))
        if kind == 3:
            mantissa = rng.randrange(-999, 1000)
            exponent = rng.randrange(-20, 20)
            return float(f"{mantissa}e{exponent}")
        return rng.choice(_JSON_STRINGS)
    if rng.random() < 0.5:
        return {
            rng.choice(_JSON_KEYS)
            + str(i): _random_json_value(rng, depth - 1)
            for i in range(rng.randrange(0, 4))
        }
    return [
        _random_json_value(rng, depth - 1)
        for _ in range(rng.randrange(0, 4))
    ]


def random_json_text(rng: random.Random) -> str:
    """A JSON document: usually valid (possibly oddly formatted), often
    mutated at the text level to probe reject paths."""
    value = _random_json_value(rng, rng.randrange(1, 5))
    text = _json.dumps(
        value,
        ensure_ascii=rng.random() < 0.5,
        separators=rng.choice(((",", ":"), (", ", ": "))),
    )
    roll = rng.random()
    if roll < 0.45:
        return text
    # mutate: splice a grammar-edge token, delete a slice, or flip a char
    mutated = text
    for _ in range(rng.randrange(1, 3)):
        op = rng.randrange(3)
        if op == 0:
            at = rng.randrange(len(mutated) + 1)
            mutated = (
                mutated[:at] + rng.choice(_JSON_SPLICES) + mutated[at:]
            )
        elif op == 1 and len(mutated) > 1:
            start = rng.randrange(len(mutated))
            end = min(len(mutated), start + rng.randrange(1, 4))
            mutated = mutated[:start] + mutated[end:]
        elif mutated:
            at = rng.randrange(len(mutated))
            mutated = (
                mutated[:at]
                + rng.choice('{}[],:"\\-+.eE0123 \t\n')
                + mutated[at + 1 :]
            )
    return mutated


# ---------------------------------------------------------------------------
# XML documents
# ---------------------------------------------------------------------------

#: element names: plain, and with every punctuation an XML name allows
_XML_NAMES = ("a", "b", "x:y", "d.e-f", "_g", "h1")
_XML_ATTRIBUTES = (("id", "1"), ("x:k", "a b"), ("k-2", "&amp;"), ("e", ""))
_XML_VALUES = ("hi", "a & b", "x<y>z", "  ", "&amp;")
_XML_SPLICES = (
    "<!-- c -->",
    "<![CDATA[x<y]]>",
    "<?pi x?>",
    "<!DOCTYPE d [<!ELEMENT d ANY>]>",
    "<a/ >",
    "</a >",
    "</a/>",
    "<a\n>",
    "<a k='1'>",
    "<1/>",
    "&bogus;",
    "<",
    "/>",
)
_XML_CHARS = "<>/!?-[]=\"' &;:a1\n"


def random_xml_document(rng: random.Random) -> Any:
    """An XML document (``str``, or ``bytes`` with undecodable bytes):
    the serialized :func:`~repro.trees.xml_corpus.random_tree` of a
    random DTD with renamed elements, some attributes and text, often
    corrupted by :func:`~repro.trees.xml_corpus.inject_error` and a
    one-character edit or splice."""
    from ..trees.schema_corpus import DTDCorpusProfile, random_dtd
    from ..trees.xml_corpus import (
        DEFAULT_ERROR_MIX,
        inject_error,
        random_tree,
        serialize,
    )

    # no injected non-deterministic rule: it can leave a label with no
    # finite subtree, which random_tree refuses with a SchemaError
    profile = DTDCorpusProfile(
        num_labels_min=2, num_labels_max=6, nondeterministic_rate=0.0
    )
    tree = random_tree(
        random_dtd(rng, profile), rng, max_nodes=rng.randrange(1, 40)
    )
    names: Dict[str, str] = {}
    for node in tree.root.walk():
        node.label = names.setdefault(node.label, rng.choice(_XML_NAMES))
        if rng.random() < 0.15:
            node.attributes = dict(rng.sample(_XML_ATTRIBUTES, 2))
        if rng.random() < 0.15:
            node.value = rng.choice(_XML_VALUES)
    text = serialize(tree, indent=rng.random() < 0.5)
    if rng.random() < 0.4:
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:at] + rng.choice(_XML_SPLICES) + text[at:]
        elif op == 1:
            text = text[:at] + rng.choice(_XML_CHARS) + text[at:]
        else:
            # delete (op 2) or replace (op 3) one character
            text = (
                text[:at]
                + (rng.choice(_XML_CHARS) if op == 3 else "")
                + text[at + 1 :]
            )
    if rng.random() < 0.3:
        kind = rng.choice([kind for kind, _share in DEFAULT_ERROR_MIX])
        return inject_error(text, kind, rng)
    return text


# ---------------------------------------------------------------------------
# DTDs, trees and event streams
# ---------------------------------------------------------------------------

_DTD_LABELS = ("a", "b", "c", "d")


def _random_content_model(
    rng: random.Random,
    depth: int,
    atoms: Tuple[str, ...] = _DTD_LABELS,
) -> str:
    """A textual rule body parseable by ``parse_regex(multi_char=True)``;
    composites are always parenthesized so the rendering is unambiguous."""
    if depth <= 0:
        if rng.random() < 0.15:
            return "()"
        return rng.choice(atoms)
    kind = rng.randrange(6)
    if kind == 0:
        return (
            "("
            + _random_content_model(rng, depth - 1, atoms)
            + " "
            + _random_content_model(rng, depth - 1, atoms)
            + ")"
        )
    if kind == 1:
        return (
            "("
            + _random_content_model(rng, depth - 1, atoms)
            + "|"
            + _random_content_model(rng, depth - 1, atoms)
            + ")"
        )
    if kind == 2:
        return "(" + _random_content_model(rng, depth - 1, atoms) + ")*"
    if kind == 3:
        return "(" + _random_content_model(rng, depth - 1, atoms) + ")?"
    if kind == 4:
        return "(" + _random_content_model(rng, depth - 1, atoms) + ")+"
    return _random_content_model(rng, depth - 1, atoms)


def random_dtd_rules(
    rng: random.Random,
) -> Tuple[Dict[str, str], str]:
    """Textual rules for :meth:`repro.trees.dtd.DTD.from_rules` plus the
    start label."""
    rules = {
        label: (
            ""
            if rng.random() < 0.2
            else _random_content_model(rng, rng.randrange(1, 3))
        )
        for label in _DTD_LABELS
        if rng.random() < 0.85
    }
    start = rng.choice(_DTD_LABELS)
    rules.setdefault(start, _random_content_model(rng, 1))
    return rules, start


_EDTD_TYPES = ("ta", "tb", "tc", "td", "te")
_EDTD_TARGET_LABELS = ("a", "b", "c")


def random_edtd_rules(
    rng: random.Random,
) -> Tuple[Dict[str, str], List[str], Dict[str, str]]:
    """Textual rules for :meth:`repro.trees.edtd.EDTD.from_rules` plus
    start types and the renaming µ.  Types are drawn from a pool larger
    than the label set µ maps onto, so µ-collisions (two types with the
    same element name — the non-single-type regime where streaming needs
    candidate *sets*) are the common case, not the corner case."""
    types = [t for t in _EDTD_TYPES if rng.random() < 0.8]
    if not types:
        types = [rng.choice(_EDTD_TYPES)]
    atoms = tuple(types)
    rules = {
        t: (
            ""
            if rng.random() < 0.25
            else _random_content_model(rng, rng.randrange(1, 3), atoms)
        )
        for t in types
    }
    mu = {t: rng.choice(_EDTD_TARGET_LABELS) for t in types}
    start = sorted(
        {rng.choice(types) for _ in range(rng.randrange(1, 3))}
    )
    return rules, start, mu


def random_event_stream(rng: random.Random) -> List[Event]:
    """A SAX-style event stream: half the time the stream of a random
    (often invalid) tree with text events injected, half the time an
    arbitrary start/end/text sequence probing unbalanced cases."""
    events: List[Event] = []
    if rng.random() < 0.5:
        depth = 0
        for _ in range(rng.randrange(1, 14)):
            roll = rng.random()
            if roll < 0.2 and depth > 0:
                events.append(("end", events[-1][1] if rng.random() < 0.5 else rng.choice(_DTD_LABELS)))
                depth -= 1
            elif roll < 0.35:
                events.append(("text", rng.choice(("", "hi", " "))))
            else:
                events.append(("start", rng.choice(_DTD_LABELS)))
                depth += 1
        # sometimes close the document properly, sometimes leave it open
        if rng.random() < 0.7:
            stack: List[str] = []
            balanced: List[Event] = []
            for kind, label in events:
                if kind == "start":
                    stack.append(label)
                elif kind == "end":
                    if not stack:
                        continue
                    label = stack.pop()
                balanced.append((kind, label))
            while stack:
                balanced.append(("end", stack.pop()))
            events = balanced
    else:
        for _ in range(rng.randrange(0, 12)):
            kind = rng.choice(("start", "end", "text"))
            events.append((kind, rng.choice(_DTD_LABELS + ("hi",))))
    return events


# ---------------------------------------------------------------------------
# RPQ cases
# ---------------------------------------------------------------------------

_RPQ_NODES = ("n0", "n1", "n2", "n3", "n4", "n5", "n6")
_RPQ_PREDICATES = ("p", "q", "r")
_RPQ_ATOMS = ("p", "q", "r", "^p", "^q")


def _nfa_only_rpq_expr(rng: random.Random) -> Regex:
    """An expression whose compiled plan keeps its Glushkov tables: a
    ``(x|y)* x (x|y)^k`` whose subset construction passes
    ``_DFA_BLOWUP_LIMIT`` states, or a concatenation of more than
    ``_DFA_STATE_LIMIT`` mostly optional atoms (so a small graph still
    has answers)."""
    x, y = (Symbol(label) for label in rng.sample(_RPQ_ATOMS, 2))
    if rng.random() < 0.5:
        pair = Union((x, y))
        width = _DFA_BLOWUP_LIMIT.bit_length() - 1
        return Concat((Star(pair), x) + (pair,) * width)
    factors: List[Regex] = []
    for _ in range(rng.randrange(_DFA_STATE_LIMIT + 1, _DFA_STATE_LIMIT + 7)):
        atom = Symbol(rng.choice(_RPQ_ATOMS))
        roll = rng.random()
        factors.append(
            Optional(atom) if roll < 0.7 else Star(atom) if roll < 0.8 else atom
        )
    return Concat(tuple(factors))


def random_rpq_case(rng: random.Random) -> Dict[str, Any]:
    """A store + expression + endpoints + semantics choice.  One case in
    eight draws an expression past the engine's determinization limits,
    so plans built from Glushkov tables get fuzzed next to determinized
    ones."""
    node_pool = _RPQ_NODES[: rng.randrange(2, len(_RPQ_NODES) + 1)]
    triples = sorted(
        {
            (
                rng.choice(node_pool),
                rng.choice(_RPQ_PREDICATES),
                rng.choice(node_pool),
            )
            for _ in range(rng.randrange(0, 13))
        }
    )
    if rng.random() < 0.125:
        expr = _nfa_only_rpq_expr(rng)
    else:
        expr = random_regex_ast(
            rng, _RPQ_ATOMS, rng.randrange(1, 4), allow_empty=True
        )
    ghosts = node_pool + ("ghost",)
    return {
        "triples": [list(t) for t in triples],
        "expr": regex_to_json(expr),
        "source": rng.choice(ghosts),
        "target": rng.choice(ghosts),
        "semantics": rng.choice(("walk", "simple", "trail")),
    }


def random_store_writes(
    rng: random.Random,
    triples: List[List[str]],
    read_predicates: Iterable[str],
) -> List[List[List[str]]]:
    """One to three write batches against an RPQ case's store: triples
    over predicates the expression reads and over ones it does not,
    duplicates of present triples (which add nothing), and fresh nodes
    (which grow a nullable expression's all-pairs diagonal)."""
    inside = sorted(set(read_predicates))
    outside = [p for p in _RPQ_PREDICATES + ("s",) if p not in inside]
    present = [list(t) for t in triples]
    batches: List[List[List[str]]] = []
    for batch_index in range(rng.randrange(1, 4)):
        nodes = list(_RPQ_NODES[:3]) + [f"f{batch_index}"]
        batch: List[List[str]] = []
        for _ in range(rng.randrange(1, 4)):
            roll = rng.random()
            if roll < 0.25 and present:
                batch.append(list(rng.choice(present)))
                continue
            predicate = rng.choice(
                inside if inside and (roll < 0.65 or not outside) else outside
            )
            triple = [rng.choice(nodes), predicate, rng.choice(nodes)]
            batch.append(triple)
            present.append(triple)
        batches.append(batch)
    return batches


def random_walk_filters(
    rng: random.Random,
) -> Tuple[Opt[List[str]], Opt[List[str]]]:
    """``(sources, targets)`` for a walk over an RPQ case's store: each
    absent or a list, possibly empty or with repeats, drawn from the
    case's nodes, ``f0`` (a node only writes add) and ``ghost`` (never
    in the graph)."""
    pool = _RPQ_NODES[:4] + ("f0", "ghost")

    def draw() -> Opt[List[str]]:
        if rng.random() < 0.5:
            return None
        return [rng.choice(pool) for _ in range(rng.randrange(0, 5))]

    return draw(), draw()


#: node names JSON must escape or carry as raw non-ASCII text: a quote,
#: a backslash, a control character, an accented letter, U+2028 and an
#: astral character
_ESCAPED_NODES = (
    'n"0', "n\\1", "n\x012", "n\u00e93", "n\u20284", "n\U0001d5485", 'n\\"6'
)


def escaped_node_names(rng: random.Random) -> Dict[str, str]:
    """A renaming of the RPQ case nodes (``n0`` … ``n6``, fresh ``f*``
    nodes, ``ghost``) onto names JSON must escape, in shuffled order, so
    the escaped names sort differently from their plain originals."""
    plain = list(_RPQ_NODES) + ["f0", "f1", "f2", "ghost"]
    escaped = list(_ESCAPED_NODES) + ["f\t0", "\u00e9f1", "f2\u2028", "gh\\ost"]
    rng.shuffle(escaped)
    return dict(zip(plain, escaped))


def rename_nodes(value: Any, renaming: Dict[str, str]) -> Any:
    """``value`` — a node name or nested lists of names and predicates —
    with every name in ``renaming`` renamed (predicate names are never
    node names)."""
    if isinstance(value, str):
        return renaming.get(value, value)
    if isinstance(value, list):
        return [rename_nodes(item, renaming) for item in value]
    return value


# ---------------------------------------------------------------------------
# SPARQL property paths and their corpus encoding
# ---------------------------------------------------------------------------

_PATH_NODES = tuple(f"<n{i}>" for i in range(5))
_PATH_PREDICATES = ("<p>", "<q>", "<r>")
#: path atoms: the store's predicates plus one it never contains
_PATH_IRIS = _PATH_PREDICATES + ("<s>",)


def path_to_json(path: PropertyPath) -> list:
    if isinstance(path, PathAtom):
        return ["atom", path.iri]
    if isinstance(path, PathInverse):
        return ["inv", path_to_json(path.child)]
    if isinstance(path, PathSequence):
        return ["seq"] + [path_to_json(p) for p in path.parts]
    if isinstance(path, PathAlternative):
        return ["alt"] + [path_to_json(p) for p in path.parts]
    if isinstance(path, PathStar):
        return ["star", path_to_json(path.child)]
    if isinstance(path, PathPlus):
        return ["plus", path_to_json(path.child)]
    if isinstance(path, PathOptional):
        return ["opt", path_to_json(path.child)]
    if isinstance(path, PathNegatedSet):
        return ["nps", list(path.forward), list(path.inverse)]
    raise TypeError(f"cannot encode path node {path!r}")


def path_from_json(obj: list) -> PropertyPath:
    tag = obj[0]
    if tag == "atom":
        return PathAtom(obj[1])
    if tag == "inv":
        return PathInverse(path_from_json(obj[1]))
    if tag == "seq":
        return PathSequence(tuple(path_from_json(p) for p in obj[1:]))
    if tag == "alt":
        return PathAlternative(tuple(path_from_json(p) for p in obj[1:]))
    if tag == "star":
        return PathStar(path_from_json(obj[1]))
    if tag == "plus":
        return PathPlus(path_from_json(obj[1]))
    if tag == "opt":
        return PathOptional(path_from_json(obj[1]))
    if tag == "nps":
        return PathNegatedSet(tuple(obj[1]), tuple(obj[2]))
    raise ValueError(f"unknown path tag {tag!r}")


def random_property_path(rng: random.Random, depth: int) -> PropertyPath:
    """A random path tree: atoms, ``^``, sequences, alternatives,
    ``*``/``+``/``?`` and negated sets with forward and/or inverse
    atoms."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.25:
            forward = rng.sample(_PATH_IRIS, rng.randrange(0, 3))
            inverse = rng.sample(
                _PATH_IRIS, rng.randrange(0 if forward else 1, 3)
            )
            return PathNegatedSet(tuple(forward), tuple(inverse))
        return PathAtom(rng.choice(_PATH_IRIS))
    kind = rng.randrange(6)
    if kind in (0, 1):
        parts = tuple(
            random_property_path(rng, depth - 1)
            for _ in range(rng.randrange(2, 4))
        )
        return PathSequence(parts) if kind == 0 else PathAlternative(parts)
    child = random_property_path(rng, depth - 1)
    return (PathInverse, PathStar, PathPlus, PathOptional)[kind - 2](child)


def random_path_case(rng: random.Random) -> Dict[str, Any]:
    """A small ``<…>`` store, a random property path, and its two ends:
    each a variable (possibly the same one), a store node, or a node the
    store does not contain."""
    node_pool = _PATH_NODES[: rng.randrange(2, len(_PATH_NODES) + 1)]
    triples = sorted(
        {
            (
                rng.choice(node_pool),
                rng.choice(_PATH_PREDICATES),
                rng.choice(node_pool),
            )
            for _ in range(rng.randrange(0, 12))
        }
    )
    ends = []
    for variable in ("?x", "?y"):
        roll = rng.random()
        if roll < 0.5:
            ends.append(variable)
        elif roll < 0.6:
            ends.append("?x")
        elif roll < 0.9:
            ends.append(rng.choice(node_pool))
        else:
            ends.append("<ghost>")
    return {
        "triples": [list(t) for t in triples],
        "path": path_to_json(
            random_property_path(rng, rng.randrange(1, 4))
        ),
        "subject": ends[0],
        "object": ends[1],
    }


# ---------------------------------------------------------------------------
# SPARQL queries
# ---------------------------------------------------------------------------

_SPARQL_VARS = ("?x", "?y", "?z", "?s", "?o")
_SPARQL_IRIS = (":p", ":q", "foaf:knows", "<http://ex.org/p>", "a")
_SPARQL_NODES = (":n1", "<http://ex.org/n>", "_:b1")
_SPARQL_LITERALS = (
    '"plain"',
    '"a\\nb"',
    '"quo\\"te"',
    '"back\\\\slash"',
    '"caf\\u00e9"',
    '"tab\\there"',
    '"x"@en',
    '"5"^^xsd:int',
    '"w"^^<http://www.w3.org/2001/XMLSchema#string>',
    "3",
    "-2.5",
    "1e3",
    "true",
    "false",
)


def _sparql_term(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(_SPARQL_VARS)
    if roll < 0.65:
        return rng.choice(_SPARQL_NODES)
    if roll < 0.95:
        return rng.choice(_SPARQL_LITERALS)
    return "[]"


def _sparql_path(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        atom = rng.choice(_SPARQL_IRIS)
        if rng.random() < 0.3:
            return "^" + (atom if atom != "a" else ":p")
        return atom
    kind = rng.randrange(5)
    if kind < 3:
        inner = _sparql_path(rng, depth - 1)
        if kind == 2:
            path = f"({inner})" + rng.choice("*+?")
        else:
            op = "/" if kind == 0 else "|"
            path = f"({inner}{op}{_sparql_path(rng, depth - 1)})"
        # the inverse of a compound path is typed through its child,
        # unlike '^atom', which is one label of its own
        if rng.random() < 0.2:
            return f"^({path})"
        return path
    if kind == 3:
        return "!(" + "|".join(
            rng.sample((":p", ":q", "^:r"), rng.randrange(1, 3))
        ) + ")"
    return _sparql_path(rng, depth - 1)


def _sparql_predicate(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(_SPARQL_IRIS)
    if roll < 0.7:
        return rng.choice(_SPARQL_VARS)
    return _sparql_path(rng, rng.randrange(1, 3))


def _sparql_triple(rng: random.Random) -> str:
    return (
        f"{_sparql_term(rng)} {_sparql_predicate(rng)} {_sparql_term(rng)}"
    )


def _sparql_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(_SPARQL_VARS)
        return rng.choice(_SPARQL_LITERALS)
    kind = rng.randrange(7)
    if kind == 0:
        op = rng.choice(("=", "!=", "<", "<=", ">", ">=", "+", "*"))
        return (
            f"({_sparql_expr(rng, depth - 1)} {op} "
            f"{_sparql_expr(rng, depth - 1)})"
        )
    if kind == 1:
        op = rng.choice(("&&", "||"))
        return (
            f"({_sparql_expr(rng, depth - 1)} {op} "
            f"{_sparql_expr(rng, depth - 1)})"
        )
    if kind == 2:
        return f"!({_sparql_expr(rng, depth - 1)})"
    if kind == 3:
        name = rng.choice(("regex", "lang", "str", "bound", "COUNT"))
        return f"{name}({_sparql_expr(rng, depth - 1)})"
    if kind == 4:
        return (
            f"({rng.choice(_SPARQL_VARS)} IN "
            f"({', '.join(rng.choice(_SPARQL_LITERALS) for _ in range(2))}))"
        )
    if kind == 5:
        return f"EXISTS {{ {_sparql_triple(rng)} }}"
    return _sparql_expr(rng, depth - 1)


def _sparql_group(rng: random.Random, depth: int) -> str:
    parts: List[str] = []
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if depth > 0 and roll < 0.12:
            parts.append("OPTIONAL " + _sparql_group(rng, depth - 1))
        elif depth > 0 and roll < 0.2:
            parts.append(
                _sparql_group(rng, depth - 1)
                + " UNION "
                + _sparql_group(rng, depth - 1)
            )
        elif depth > 0 and roll < 0.25:
            parts.append("MINUS " + _sparql_group(rng, depth - 1))
        elif roll < 0.35:
            parts.append(f"FILTER ({_sparql_expr(rng, 2)})")
        elif roll < 0.42:
            parts.append(
                f"BIND(({_sparql_expr(rng, 1)}) AS "
                f"?b{rng.randrange(10)})"
            )
        elif roll < 0.48:
            rows = " ".join(
                f"( {rng.choice(_SPARQL_LITERALS + ('UNDEF',))} )"
                for _ in range(rng.randrange(1, 3))
            )
            parts.append(
                f"VALUES ( {rng.choice(_SPARQL_VARS)} ) {{ {rows} }}"
            )
        elif depth > 0 and roll < 0.53:
            parts.append(
                f"GRAPH {rng.choice(_SPARQL_VARS + _SPARQL_NODES[:2])} "
                + _sparql_group(rng, depth - 1)
            )
        else:
            parts.append(_sparql_triple(rng) + " .")
    return "{ " + " ".join(parts) + " }"


def _sparql_modifier(rng: random.Random) -> str:
    parts: List[str] = []
    if rng.random() < 0.25:
        parts.append(f"GROUP BY {rng.choice(_SPARQL_VARS)}")
        if rng.random() < 0.5:
            parts.append(f"HAVING ((COUNT({rng.choice(_SPARQL_VARS)}) > 1))")
    if rng.random() < 0.3:
        var = rng.choice(_SPARQL_VARS)
        parts.append(
            "ORDER BY " + (f"DESC({var})" if rng.random() < 0.5 else var)
        )
    if rng.random() < 0.3:
        parts.append(f"LIMIT {rng.randrange(100)}")
    if rng.random() < 0.2:
        parts.append(f"OFFSET {rng.randrange(50)}")
    return " ".join(parts)


def random_sparql_text(rng: random.Random) -> str:
    form = rng.randrange(10)
    group = _sparql_group(rng, rng.randrange(1, 3))
    modifier = _sparql_modifier(rng)
    if form < 6:
        head = "SELECT"
        if rng.random() < 0.25:
            head += rng.choice((" DISTINCT", " REDUCED"))
        if rng.random() < 0.4:
            head += " *"
        else:
            for _ in range(rng.randrange(1, 3)):
                if rng.random() < 0.25:
                    head += (
                        f" (({_sparql_expr(rng, 1)}) AS"
                        f" ?a{rng.randrange(10)})"
                    )
                else:
                    head += " " + rng.choice(_SPARQL_VARS)
        text = f"{head} WHERE {group}"
    elif form < 8:
        text = f"ASK {group}"
    elif form == 8:
        template = " . ".join(
            f"{rng.choice(_SPARQL_VARS)} {rng.choice(_SPARQL_IRIS)} "
            f"{_sparql_term(rng)}"
            for _ in range(rng.randrange(1, 3))
        )
        text = f"CONSTRUCT {{ {template} }} WHERE {group}"
    else:
        text = f"DESCRIBE {rng.choice(_SPARQL_VARS)} WHERE {group}"
    if modifier:
        text += " " + modifier
    if rng.random() < 0.15:
        text = "PREFIX foaf: <http://xmlns.com/foaf/0.1/> " + text
    return text
