"""Streaming (SAX-style) validation of XML event streams against DTDs.

Section 4.1 discusses streaming validation: non-recursive DTDs are
precisely those admitting constant-memory streaming validation of
well-formed input (Segoufin & Vianu).  This module implements the
stack-of-automata validator whose memory is bounded by

    (maximum document depth) × (largest content-model automaton),

which is a *constant* (independent of document length) exactly when the
DTD is non-recursive — the validator exposes its high-water stack depth
so the bench/tests can demonstrate the bound.

Events are ``("start", label)`` / ``("end", label)`` pairs; text events
are ignored by the structural abstraction.

Arbitrary (recursive, non-single-type) schemas stream through the
generalized NFTA validator in :mod:`repro.trees.automata`, for which
:class:`StreamingDTDValidator` is the one-candidate-per-label special
case.  :func:`events_of` feeds either validator straight from chunked
file-like XML/JSON input without materializing a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional as Opt, Tuple

from ..errors import ValidationError
from ..regex.automata import NFA, glushkov
from .dtd import DTD
from .tree import Tree, TreeNode

Event = Tuple[str, str]


def events_of(
    source, *, format: Opt[str] = None, chunk_size: int = 65536
) -> Iterator[Event]:
    """The document-order event stream of ``source``.

    ``source`` may be a :class:`~repro.trees.tree.Tree` (walked
    directly), or a ``str`` / ``bytes`` / file-like object tokenized
    *incrementally* in ``chunk_size`` pieces via
    :func:`~repro.trees.xml_parser.iter_xml_events` or
    :func:`~repro.trees.json_parser.iter_json_events` — no tree is ever
    built, so multi-GB corpora stream in memory bounded by document
    depth.  ``format`` forces ``"xml"`` or ``"json"``; when omitted,
    textual input is sniffed by its first non-whitespace character (after
    a UTF-8 byte-order mark in bytes; ``<`` means XML) and file-like
    input defaults to XML.
    """
    if isinstance(source, Tree):
        return _tree_events(source)
    if format is None:
        if isinstance(source, (str, bytes, bytearray)):
            if isinstance(source, str):
                head = source.lstrip()[:1]
            else:  # bytes are decoded as utf-8-sig: skip the mark
                head = source.removeprefix(b"\xef\xbb\xbf").lstrip()[:1]
            xml = head in ("<", b"<")
        else:
            xml = True
        format = "xml" if xml else "json"
    if format == "xml":
        from .xml_parser import iter_xml_events

        return iter_xml_events(source, chunk_size=chunk_size)
    if format == "json":
        from .json_parser import iter_json_events

        return iter_json_events(source, chunk_size=chunk_size)
    raise ValueError(f"unknown event-stream format {format!r}")


def _tree_events(tree: Tree) -> Iterator[Event]:
    def emit(node: TreeNode) -> Iterator[Event]:
        yield ("start", node.label)
        for child in node.children:
            yield from emit(child)
        yield ("end", node.label)

    return emit(tree.root)


@dataclass
class StreamingDTDValidator:
    """Incremental validator; feed events, then call :meth:`finish`.

    Attributes
    ----------
    dtd:
        The DTD to validate against.
    max_stack_depth:
        High-water mark of the automaton stack — the validator's memory
        footprint, constant for non-recursive DTDs.
    """

    dtd: DTD
    max_stack_depth: int = 0
    _automata: Dict[str, NFA] = field(default_factory=dict)
    _stack: List[Tuple[str, FrozenSet[int]]] = field(default_factory=list)
    _done: bool = False
    _failed: Opt[str] = None

    def _automaton(self, label: str) -> NFA:
        if label not in self._automata:
            self._automata[label] = glushkov(self.dtd.expression_for(label))
        return self._automata[label]

    def feed(self, event: Event) -> bool:
        """Process one event; returns False once the stream is invalid."""
        if self._failed:
            return False
        kind, label = event
        if kind == "start":
            if not self._stack:
                if self._done:
                    self._failed = "second root element"
                    return False
                if label not in self.dtd.start_labels:
                    self._failed = f"root {label!r} is not a start label"
                    return False
            else:
                parent_label, states = self._stack[-1]
                nfa = self._automaton(parent_label)
                nxt = nfa.step(states, label)
                if not nxt:
                    self._failed = (
                        f"child {label!r} not allowed here under "
                        f"{parent_label!r}"
                    )
                    return False
                self._stack[-1] = (parent_label, nxt)
            own = self._automaton(label)
            self._stack.append(
                (label, own.epsilon_closure(own.initial))
            )
            self.max_stack_depth = max(self.max_stack_depth, len(self._stack))
            return True
        if kind == "text":
            # The structural abstraction ignores character data, so text
            # events never change validator state (they may appear anywhere,
            # even outside the root, mirroring ignorable whitespace).
            return True
        if kind == "end":
            if not self._stack or self._stack[-1][0] != label:
                self._failed = f"unbalanced end event for {label!r}"
                return False
            own_label, states = self._stack.pop()
            nfa = self._automaton(own_label)
            if not states & nfa.finals:
                self._failed = (
                    f"element {own_label!r} ended with incomplete content"
                )
                return False
            if not self._stack:
                self._done = True
            return True
        self._failed = f"unknown event kind {kind!r}"
        return False

    def finish(self) -> bool:
        """Whether the consumed stream was a valid document."""
        if self._failed:
            return False
        return self._done and not self._stack

    @property
    def failure(self) -> Opt[str]:
        return self._failed


def validate_stream(dtd: DTD, events: Iterable[Event]) -> bool:
    """Validate an event stream in one pass."""
    validator = StreamingDTDValidator(dtd)
    for event in events:
        if not validator.feed(event):
            return False
    return validator.finish()


def validate_stream_or_raise(dtd: DTD, events: Iterable[Event]) -> None:
    validator = StreamingDTDValidator(dtd)
    for event in events:
        if not validator.feed(event):
            raise ValidationError(validator.failure or "invalid stream")
    if not validator.finish():
        raise ValidationError(validator.failure or "premature end of stream")


def memory_bound(dtd: DTD) -> Opt[int]:
    """The provable stack-depth bound for this DTD.

    Equals the maximum document depth for non-recursive DTDs and ``None``
    (unbounded) for recursive ones — the dichotomy of Segoufin & Vianu
    cited in Section 4.1.
    """
    return dtd.max_document_depth()
