"""Streaming (SAX-style) validation of XML event streams against DTDs.

Section 4.1 discusses streaming validation: non-recursive DTDs are
precisely those admitting constant-memory streaming validation of
well-formed input (Segoufin & Vianu).  This module exposes the
stack-of-automata validator for DTDs, whose memory is bounded by

    (maximum document depth) × (largest content-model automaton),

which is a *constant* (independent of document length) exactly when the
DTD is non-recursive — the validator exposes its high-water stack depth
so the bench/tests can demonstrate the bound.

Events are ``("start", label)`` / ``("end", label)`` pairs; text events
are ignored by the structural abstraction.

There is one streaming engine, the NFTA validator of
:mod:`repro.trees.automata`, which also runs arbitrary (recursive,
non-single-type) schemas: :class:`StreamingDTDValidator`,
:func:`validate_stream` and :func:`validate_stream_or_raise` run it on
the DTD's tree automaton (one candidate per label), compiled once per
:class:`~repro.trees.dtd.DTD`.  A misplaced child fails at its start
event, a non-start root label at the root's start event.
:func:`events_of` feeds the validator straight from chunked file-like
XML/JSON input without materializing a tree.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional as Opt, Tuple

from ..errors import ValidationError
from .automata import StreamingTreeValidator, validate_events
from .dtd import DTD
from .json_parser import iter_json_events
from .tree import Tree
from .xml_parser import iter_xml_events

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
        return iter_xml_events(source, chunk_size=chunk_size)
    if format == "json":
        return iter_json_events(source, chunk_size=chunk_size)
    raise ValueError(f"unknown event-stream format {format!r}")


def _tree_events(tree: Tree) -> Iterator[Event]:
    return tree.root.events()


class StreamingDTDValidator(StreamingTreeValidator):
    """The NFTA run on ``dtd``'s tree automaton (compiled once per DTD);
    feed events, then call :meth:`finish`.  ``max_stack_depth`` is the
    high-water mark of the frame stack — the validator's memory
    footprint, constant for non-recursive DTDs."""

    def __init__(self, dtd: DTD):
        super().__init__(dtd.tree_automaton)
        self.dtd = dtd


def validate_stream(dtd: DTD, events: Iterable[Event]) -> bool:
    """Validate an event stream in one pass."""
    return validate_events(dtd.tree_automaton, events)


def validate_stream_or_raise(dtd: DTD, events: Iterable[Event]) -> None:
    validator = StreamingDTDValidator(dtd)
    if not (all(map(validator.feed, events)) and validator.finish()):
        raise ValidationError(validator.failure or "premature end of stream")


def memory_bound(dtd: DTD) -> Opt[int]:
    """The provable stack-depth bound for this DTD.

    Equals the maximum document depth for non-recursive DTDs and ``None``
    (unbounded) for recursive ones — the dichotomy of Segoufin & Vianu
    cited in Section 4.1.
    """
    return dtd.max_document_depth()
