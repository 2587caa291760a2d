"""Document Type Definitions (Definition 4.1) and their analyses.

A DTD is a triple ``(Σ, ρ, S)``: labels, a rule function assigning a
regular expression to every label, and a set of start labels.  This
module provides:

* the :class:`DTD` model with validation of labeled ordered trees;
* a parser for real DTD syntax (``<!ELEMENT person (name, birthplace)>``)
  including ``EMPTY``, ``ANY``, ``#PCDATA`` and mixed content;
* a parser for the paper's rule syntax (``person -> name birthplace``);
* the structural analyses of the early practical studies (Section 4.1):
  *recursion* detection (Choi found 35/60 DTDs recursive) and the
  *maximum document depth* of non-recursive DTDs (up to 20 in his
  corpus);
* per-rule expression analyses: determinism (the XML standard requires
  deterministic content models), chain shape, and k-ORE statistics —
  the inputs of the Bex et al. studies (Section 4.2).
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional as Opt, Set, Tuple

from ..errors import DTDParseError, SchemaError, ValidationError
from ..regex.ast import EPSILON, Concat, Empty, Plus, Regex, Star, Symbol, Union
from ..regex.automata import glushkov
from ..regex.classes import is_chare, is_sore, max_occurrences
from ..regex.determinism import is_deterministic
from ..regex.parser import parse as parse_regex
from .tree import Tree

#: Sentinel label for text content (#PCDATA) in parsed real-world DTDs.
PCDATA = "#PCDATA"


@dataclass
class DTD:
    """A Document Type Definition ``(Σ, ρ, S)``.

    ``rules`` maps each label to the regular expression its children must
    match; labels mentioned in rule bodies but without a rule of their
    own implicitly map to ``ε`` (they must be leaves) unless
    ``strict=True`` is passed to :meth:`validate`.
    """

    rules: Dict[str, Regex]
    start_labels: FrozenSet[str]

    def __post_init__(self):
        self.start_labels = frozenset(self.start_labels)
        if not self.start_labels:
            raise SchemaError("a DTD needs at least one start label")
        self._automata: Dict[str, object] = {}

    @classmethod
    def from_rules(cls, rules: Dict[str, str], start: Iterable[str]) -> "DTD":
        """Build from textual rules in the paper's notation::

            DTD.from_rules(
                {"persons": "person*",
                 "person": "name birthplace",
                 "birthplace": "city state country?"},
                start=["persons"],
            )
        """
        parsed = {
            label: (
                EPSILON
                if not body.strip()
                else parse_regex(body, multi_char=True)
            )
            for label, body in rules.items()
        }
        return cls(parsed, frozenset(start))

    # -- Σ ----------------------------------------------------------------------

    def alphabet(self) -> FrozenSet[str]:
        """The label set Σ: rule heads, rule-body labels and start labels."""
        labels: Set[str] = set(self.rules) | set(self.start_labels)
        for body in self.rules.values():
            labels |= body.alphabet()
        return frozenset(labels)

    def expression_for(self, label: str) -> Regex:
        """ρ(label); labels without an explicit rule map to ε."""
        return self.rules.get(label, EPSILON)

    @cached_property
    def tree_automaton(self):
        """This DTD as a ``TreeAutomaton``, compiled once (on first use)."""
        from .automata import TreeAutomaton

        return TreeAutomaton.from_dtd(self)

    @cached_property
    def productive_labels(self) -> FrozenSet[str]:
        """The labels that root at least one finite valid tree: the least
        fixpoint of "ρ(a) accepts a word over productive labels"."""
        productive: Set[str] = set()
        pending = set(self.alphabet())
        grown = True
        while grown:
            grown = False
            for label in list(pending):
                if _has_word_over(self.expression_for(label), productive):
                    productive.add(label)
                    pending.discard(label)
                    grown = True
        return frozenset(productive)

    # -- validation (Definition 4.1) --------------------------------------------

    def _automaton(self, label: str):
        if label not in self._automata:
            self._automata[label] = glushkov(self.expression_for(label))
        return self._automata[label]

    def validate(self, tree: Tree, strict: bool = False) -> bool:
        """Whether ``tree`` is valid w.r.t. this DTD.

        ``strict=True`` additionally requires every label in the tree to
        be declared in Σ (the behaviour of real validators).
        """
        return self.first_violation(tree, strict=strict) is None

    def first_violation(
        self, tree: Tree, strict: bool = False
    ) -> Opt[str]:
        """A human-readable description of the first violation, or None."""
        sigma = self.alphabet() if strict else None
        if tree.root.label not in self.start_labels:
            return (
                f"root label {tree.root.label!r} is not a start label "
                f"(allowed: {sorted(self.start_labels)})"
            )
        for node in tree.root.walk():
            if sigma is not None and node.label not in sigma:
                return f"label {node.label!r} is not declared in the DTD"
            word = node.child_word()
            if not self._automaton(node.label).accepts(word):
                return (
                    f"children of <{node.label}> are {' '.join(word) or 'ε'},"
                    f" which does not match {self.expression_for(node.label)}"
                )
        return None

    def validate_or_raise(self, tree: Tree, strict: bool = False) -> None:
        violation = self.first_violation(tree, strict=strict)
        if violation is not None:
            raise ValidationError(violation)

    # -- structural analyses (Section 4.1) ---------------------------------------

    def reachability_graph(self) -> Dict[str, Set[str]]:
        """Edges ``a -> b`` when ``b`` appears in some word of ρ(a) —
        equivalently, when ``b`` occurs syntactically in ρ(a) on a path
        not killed by the empty language."""
        graph: Dict[str, Set[str]] = {}
        for label in self.alphabet():
            body = self.expression_for(label)
            graph[label] = set(body.alphabet()) if not body.matches_nothing() else set()
        return graph

    def is_recursive(self) -> bool:
        """Choi's recursion test: does the label graph have a directed
        cycle?"""
        graph = self.reachability_graph()
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {label: WHITE for label in graph}
        for start in graph:
            if color[start] != WHITE:
                continue
            stack: List[Tuple[str, Iterable]] = [(start, iter(graph[start]))]
            color[start] = GRAY
            while stack:
                node, successors = stack[-1]
                advanced = False
                for nxt in successors:
                    if nxt not in color:
                        continue
                    if color[nxt] == GRAY:
                        return True
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(graph[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False

    def max_document_depth(self) -> Opt[int]:
        """The maximal depth of a document valid w.r.t. this DTD.

        ``None`` for recursive DTDs (unbounded).  Choi observed that the
        non-recursive DTDs in his corpus still allowed depths up to 20.
        """
        if self.is_recursive():
            return None
        graph = self.reachability_graph()
        memo: Dict[str, int] = {}

        def depth_of(label: str) -> int:
            if label in memo:
                return memo[label]
            successors = graph.get(label, set())
            result = 1 + max(
                (depth_of(nxt) for nxt in successors), default=0
            )
            memo[label] = result
            return result

        return max(depth_of(start) for start in self.start_labels)

    # -- expression analyses (Section 4.2) ----------------------------------------

    def expression_report(self) -> Dict[str, dict]:
        """Per-rule statistics in the style of the Bex et al. study."""
        report = {}
        for label, body in self.rules.items():
            report[label] = {
                "deterministic": is_deterministic(body),
                "chare": is_chare(body),
                "max_occurrences": max_occurrences(body),
                "sore": is_sore(body),
                "parse_depth": body.parse_depth(),
                "size": body.size(),
            }
        return report

    def all_content_models_deterministic(self) -> bool:
        """The XML-standard constraint (Appendix D of the XML spec)."""
        return all(is_deterministic(body) for body in self.rules.values())


# ---------------------------------------------------------------------------
# Real DTD syntax
# ---------------------------------------------------------------------------

_ELEMENT_RE = _re.compile(
    r"<!ELEMENT\s+([^\s>]+)\s+(.*?)>", _re.DOTALL
)


def _has_word_over(expr: Regex, labels: Set[str]) -> bool:
    """Whether ``expr`` accepts some word whose labels all lie in ``labels``."""
    if isinstance(expr, Symbol):
        return expr.label in labels
    if isinstance(expr, Union):
        return any(_has_word_over(part, labels) for part in expr.parts)
    if isinstance(expr, Concat):
        return all(_has_word_over(part, labels) for part in expr.parts)
    if isinstance(expr, Plus):
        return _has_word_over(expr.child, labels)
    # ε, a star and an option accept the empty word; ∅ accepts nothing
    return not isinstance(expr, Empty)


def _content_model_to_regex(model: str) -> Regex:
    """Translate a DTD content model to our regex AST.

    Handles ``EMPTY``, ``ANY``, ``(#PCDATA)``, mixed content
    ``(#PCDATA | a | b)*`` and the ordinary ``,``/``|`` syntax with
    ``?``/``*``/``+`` modifiers.
    """
    model = model.strip()
    if model == "EMPTY":
        return EPSILON
    if model == "ANY":
        # ANY admits any children; Σ is not known locally, so represent it
        # as a reserved wildcard the validator special-cases.  We encode
        # ANY as (#ANY)* over a reserved symbol; DTDs parsed from real
        # syntax replace it with the full alphabet at the end.
        return Star(Symbol("#ANY"))
    # mixed content: (#PCDATA | a | b)* — text is invisible to the tree
    # abstraction, so this is (a + b)*
    stripped = model.replace(" ", "")
    mixed = _re.fullmatch(r"\(#PCDATA(\|[^)|]+)*\)\*?", stripped)
    if mixed:
        inner = stripped[1:].rstrip("*").rstrip(")")
        labels = [part for part in inner.split("|") if part and part != "#PCDATA"]
        if not labels:
            return EPSILON
        if len(labels) == 1:
            return Star(Symbol(labels[0]))
        return Star(Union(tuple(Symbol(lbl) for lbl in labels)))
    # ordinary content: ',' is concatenation; '|' stays union and '+'
    # is always postfix (union_plus=False)
    translated = model.replace(",", " ")
    try:
        return parse_regex(translated, multi_char=True, union_plus=False)
    except Exception as exc:  # re-raise with DTD context
        raise DTDParseError(
            f"cannot parse content model {model!r}: {exc}"
        ) from exc


def parse_dtd(
    text: str, start: Opt[Iterable[str]] = None
) -> DTD:
    """Parse real DTD syntax (a sequence of ``<!ELEMENT …>`` declarations).

    ``start`` defaults to the labels that never occur in any rule body
    (the natural root candidates); if every label occurs in a body, the
    first declared element is used.
    """
    rules: Dict[str, Regex] = {}
    order: List[str] = []
    for match in _ELEMENT_RE.finditer(text):
        label, model = match.group(1), match.group(2)
        if label in rules:
            raise DTDParseError(f"duplicate declaration for {label!r}")
        rules[label] = _content_model_to_regex(model)
        order.append(label)
    if not rules:
        raise DTDParseError("no <!ELEMENT> declarations found")
    # resolve the ANY wildcard now that Σ is known
    sigma = set(rules)
    for body in rules.values():
        sigma |= {lbl for lbl in body.alphabet() if lbl != "#ANY"}
    any_expansion = (
        Star(Union(tuple(Symbol(lbl) for lbl in sorted(sigma))))
        if len(sigma) > 1
        else Star(Symbol(next(iter(sigma))))
    )

    def expand(expr: Regex) -> Regex:
        if expr == Star(Symbol("#ANY")):
            return any_expansion
        return expr

    rules = {label: expand(body) for label, body in rules.items()}
    if start is None:
        used_in_bodies: Set[str] = set()
        for body in rules.values():
            used_in_bodies |= body.alphabet()
        roots = [label for label in order if label not in used_in_bodies]
        start = roots or [order[0]]
    return DTD(rules, frozenset(start))


def uses_any_type(text: str) -> bool:
    """Whether a DTD document uses the ANY content type — a rarity in
    practice (1 of 103 DTDs in the Bex et al. corpus, Section 4.5)."""
    for match in _ELEMENT_RE.finditer(text):
        if match.group(2).strip() == "ANY":
            return True
    return False


# SGML's & operator: the workaround study of Sahuguet (Section 4.1) noted
# users encode (a & b & c) as (a + b + c)*, a drastic overapproximation.
def sgml_unordered(labels: Iterable[str]) -> Regex:
    """The exact unordered concatenation a1 & … & an: the union of all
    permutations (exponential, which is why users approximate it)."""
    from itertools import permutations

    from ..regex.ast import concat as smart_concat, union as smart_union

    labels = list(labels)
    perms = [
        smart_concat(*[Symbol(lbl) for lbl in perm])
        for perm in permutations(labels)
    ]
    return smart_union(*perms)


def sgml_unordered_approximation(labels: Iterable[str]) -> Regex:
    """The practical workaround ``(a1 + … + an)*`` — the drastic
    overapproximation Sahuguet observed in real DTDs."""
    labels = list(labels)
    if len(labels) == 1:
        return Star(Symbol(labels[0]))
    return Star(Union(tuple(Symbol(lbl) for lbl in labels)))
