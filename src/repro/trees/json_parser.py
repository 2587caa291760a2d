"""A from-scratch JSON parser and the JSON-to-labeled-tree mapping.

The paper treats JSON documents as node-labeled trees (Figure 1b/1c):
object keys become node labels; arrays are ordered children.  As with
XML, there is no single "correct" mapping (Example 3.1) — we implement
the common one:

* the document root is a node labeled ``root_label`` (default ``"$"``);
* a key ``k`` becomes a child node labeled ``k``;
* array elements become children labeled ``item_label`` (default
  ``"item"``) of the array's node, preserving order;
* scalars are stored in the node's ``value``.

The parser is hand-written so that malformed documents yield classified
:class:`~repro.errors.JSONParseError`\\ s, mirroring the XML study's
error-taxonomy approach.  One scanner and one grammar walk,
:func:`_tokens`, read a :class:`~repro.trees.chunked.ChunkFeeder`:
:func:`parse_json` folds the walk's tokens into Python values and
:func:`iter_json_events` relabels them as ``start``/``end`` events, so
both reject a document with the same category at the same position.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, List, Tuple

from ..errors import JSONParseError
from .chunked import ChunkFeeder
from .tree import Tree, TreeNode

# JSON error categories (for corpus studies in the XML-study style)
UNTERMINATED_STRING = "unterminated-string"
TRAILING_DATA = "trailing-data"
BAD_LITERAL = "bad-literal"
MISSING_DELIMITER = "missing-delimiter"
UNEXPECTED_END = "unexpected-end"
BAD_ESCAPE = "bad-escape"
CONTROL_CHAR = "control-character"

_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_PLAIN = re.compile(r'[^"\\\x00-\x1f]*')  # string characters kept as-is
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")
# RFC 8259 numbers, with the fraction and exponent digits optional so a
# missing digit is reported where it is missing
_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?")
_LITERALS = (("true", True), ("false", False), ("null", None))

# What the grammar walk expects next.
_VALUE, _FIRST_ITEM, _KEY, _FIRST_KEY, _COLON, _AFTER = range(6)

_OPEN_OBJECT = ("{", None)
_OPEN_ARRAY = ("[", None)
_CLOSE = ("end", None)


class _More(Exception):
    """The token runs past the buffered text: refill and scan it again."""


def _error(message: str, category: str, position: int) -> JSONParseError:
    return JSONParseError(message, position=position, category=category)


def _expected(want: str, found: str, position: int) -> JSONParseError:
    return _error(
        f"expected {want!r}, found {found!r}",
        MISSING_DELIMITER if found else UNEXPECTED_END,
        position,
    )


def _u_escape(buf: str, i: int, eof: bool, base: int) -> Tuple[int, int]:
    """One ``\\uXXXX`` code unit whose hex digits start at ``buf[i]``."""
    if i + 4 > len(buf) and not eof:
        raise _More
    if _HEX4.match(buf, i) is None:
        raise _error("bad \\u escape", BAD_ESCAPE, base + i)
    return int(buf[i : i + 4], 16), i + 4


def _string(buf: str, i: int, eof: bool, base: int) -> Tuple[str, int]:
    """Decode the string whose opening quote precedes ``buf[i]``.
    Returns (value, index past the closing quote)."""
    n = len(buf)
    j = _PLAIN.match(buf, i).end()
    if j < n and buf[j] == '"':
        return buf[i:j], j + 1
    parts = [buf[i:j]]
    while True:
        if j >= n:
            if not eof:
                raise _More
            raise _error("unterminated string", UNTERMINATED_STRING, base + j)
        ch = buf[j]
        if ch == '"':
            return "".join(parts), j + 1
        if ch != "\\":
            raise _error(
                f"unescaped control character {ch!r} in string",
                CONTROL_CHAR,
                base + j,
            )
        if j + 1 >= n:
            if not eof:
                raise _More
            raise _error(
                "unterminated escape", UNTERMINATED_STRING, base + j + 1
            )
        esc = buf[j + 1]
        j += 2
        if esc == "u":
            unit, j = _u_escape(buf, j, eof, base)
            # An escaped high surrogate followed by an escaped low
            # surrogate encodes one astral code point (backslash-u D834
            # then DD1E decodes to U+1D11E); unpaired surrogates are kept
            # as-is, matching the stdlib decoder.
            if 0xD800 <= unit <= 0xDBFF:
                if j + 2 > n and not eof:
                    raise _More
                if buf.startswith("\\u", j):
                    low, after = _u_escape(buf, j + 2, eof, base)
                    if 0xDC00 <= low <= 0xDFFF:
                        unit = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        j = after
            parts.append(chr(unit))
        elif esc in _ESCAPES:
            parts.append(_ESCAPES[esc])
        else:
            raise _error(f"bad escape \\{esc}", BAD_ESCAPE, base + j)
        end = _PLAIN.match(buf, j).end()
        parts.append(buf[j:end])
        j = end


def _number(buf: str, p: int, eof: bool, base: int) -> Tuple[Any, int]:
    """Scan a number with the exact RFC 8259 grammar.

    ``int`` is ``0`` or a non-zero digit followed by digits (so ``01``
    stops after the ``0`` and the ``1`` becomes trailing input, as in
    the stdlib tokenizer); ``frac``/``exp`` require at least one digit.
    """
    n = len(buf)
    match = _NUMBER.match(buf, p)
    if match is None:  # a minus sign without digits
        if p + 1 >= n and not eof:
            raise _More
        raise _error("malformed number", BAD_LITERAL, base + p + 1)
    if match.end() >= n and not eof:
        raise _More
    frac, exp = match.group(1, 2)
    if frac == ".":
        raise _error(
            "expected digits after decimal point", BAD_LITERAL, base + match.end(1)
        )
    if exp is not None and exp[-1] not in "0123456789":
        raise _error("expected digits in exponent", BAD_LITERAL, base + match.end(2))
    raw = match.group()
    return (float(raw) if frac or exp else int(raw)), match.end()


def _literal(buf: str, p: int, eof: bool, base: int) -> Tuple[Any, int]:
    if len(buf) - p < 5 and not eof:
        raise _More
    for word, value in _LITERALS:
        if buf.startswith(word, p):
            return value, p + len(word)
    raise _error(f"unexpected character {buf[p]!r}", BAD_LITERAL, base + p)


def _tokens(feeder: ChunkFeeder) -> Iterator[Tuple[str, Any]]:
    """The grammar walk over ``feeder``'s input, as tokens in document
    order: ``("{", None)`` and ``("[", None)`` open a container,
    ``("end", None)`` closes the innermost one, ``("key", name)``
    precedes each member value, and ``("value", scalar)`` is a string,
    number, ``true``, ``false`` or ``null``.

    Malformed input raises :class:`~repro.errors.JSONParseError` once the
    tokens before the error have been yielded.
    """
    buf, p, base, eof = feeder.buf, feeder.pos, feeder.base, feeder.eof
    closers: List[str] = []  # the bracket each open container awaits
    state = _VALUE
    while True:
        try:
            n = len(buf)
            p = _WHITESPACE.match(buf, p).end()
            if p >= n and not eof:
                raise _More
            ch = buf[p] if p < n else ""
            if state == _AFTER:
                if not closers:
                    if ch:
                        raise _error(
                            "trailing data after document", TRAILING_DATA, base + p
                        )
                    return
                if ch == ",":
                    p += 1
                    state = _KEY if closers[-1] == "}" else _VALUE
                    continue
                if ch != closers[-1]:
                    raise _expected(closers[-1], ch, base + p)
                p += 1
                closers.pop()
                token = _CLOSE
            elif state == _COLON:
                if ch != ":":
                    raise _expected(":", ch, base + p)
                p += 1
                state = _VALUE
                continue
            elif (ch == "}" and state == _FIRST_KEY) or (
                ch == "]" and state == _FIRST_ITEM
            ):
                p += 1
                closers.pop()
                token = _CLOSE
                state = _AFTER
            elif state == _KEY or state == _FIRST_KEY:
                if ch != '"':
                    raise _error(
                        "object keys must be strings",
                        BAD_LITERAL if ch else UNEXPECTED_END,
                        base + p,
                    )
                key, p = _string(buf, p + 1, eof, base)
                token = ("key", key)
                state = _COLON
            elif ch == "{":
                p += 1
                closers.append("}")
                token = _OPEN_OBJECT
                state = _FIRST_KEY
            elif ch == "[":
                p += 1
                closers.append("]")
                token = _OPEN_ARRAY
                state = _FIRST_ITEM
            else:
                if ch == '"':
                    value, p = _string(buf, p + 1, eof, base)
                elif not ch:
                    raise _error("unexpected end of input", UNEXPECTED_END, base + p)
                elif ch in "-0123456789":
                    value, p = _number(buf, p, eof, base)
                else:
                    value, p = _literal(buf, p, eof, base)
                token = ("value", value)
                state = _AFTER
        except _More:
            feeder.pos = p
            feeder.refill()
            buf, p, base, eof = feeder.buf, feeder.pos, feeder.base, feeder.eof
            continue
        yield token


def parse_json(text: str) -> Any:
    """Parse a JSON document into Python values (dict/list/scalars)."""
    containers: List[Any] = []
    keys: List[str] = []
    value: Any = None
    for kind, payload in _tokens(ChunkFeeder(text)):
        if kind == "key":
            keys.append(payload)
            continue
        if kind == "{":
            containers.append({})
            continue
        if kind == "[":
            containers.append([])
            continue
        value = containers.pop() if kind == "end" else payload
        if containers:
            parent = containers[-1]
            if type(parent) is list:
                parent.append(value)
            else:
                parent[keys.pop()] = value
    return value


def json_to_tree(
    value: Any, root_label: str = "$", item_label: str = "item"
) -> Tree:
    """Map a parsed JSON value to a node-labeled ordered tree."""

    def build(label: str, val: Any) -> TreeNode:
        node = TreeNode(label)
        if isinstance(val, dict):
            for key, sub in val.items():
                node.add_child(build(key, sub))
        elif isinstance(val, list):
            for sub in val:
                node.add_child(build(item_label, sub))
        else:
            node.value = val
        return node

    return Tree(build(root_label, value))


def parse_json_tree(
    text: str, root_label: str = "$", item_label: str = "item"
) -> Tree:
    """Parse JSON text directly into a labeled tree."""
    return json_to_tree(parse_json(text), root_label, item_label)


def json_nesting_depth(value: Any) -> int:
    """Maximum nesting depth of a parsed JSON value (scalars have depth 1).

    The Maiwald et al. schema study (Section 4.5) reports maximum nesting
    depths of 3–43 for non-recursive JSON schemas; this is the document
    analogue of that metric.  Iterative, so it measures any value
    :func:`parse_json` accepts.
    """
    deepest = 0
    stack = [(value, 1)]
    while stack:
        value, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(value, dict):
            value = value.values()
        elif not isinstance(value, list):
            continue
        stack.extend((child, depth + 1) for child in value)
    return deepest



# ----------------------------------------------------------------------
# Incremental event streaming (chunked, no value / Tree construction)
# ----------------------------------------------------------------------


def _json_decode_error(message: str, position: int) -> JSONParseError:
    return JSONParseError(message, position=position, category=BAD_LITERAL)


def iter_json_events(
    source,
    chunk_size: int = 65536,
    root_label: str = "$",
    item_label: str = "item",
):
    """Yield ``("start", label)`` / ``("end", label)`` events
    incrementally from JSON ``source`` (a ``str``, ``bytes``, or
    file-like object), following :func:`json_to_tree`'s labeling: the
    root is ``root_label``, object members are labelled by their key,
    array elements by ``item_label``, and scalars are leaves.

    The document is read in ``chunk_size`` pieces and never parsed into
    a value, so memory is bounded by nesting depth plus one chunk.  The
    events come from the grammar walk :func:`parse_json` folds, so
    malformed input raises :class:`~repro.errors.JSONParseError` with
    the category and position :func:`parse_json` reports.  (One
    deliberate divergence from ``events_of(parse_json_tree(text))``:
    duplicate object keys each yield their own events here, while
    ``dict`` semantics keep only the last.)
    """
    feeder = ChunkFeeder(source, chunk_size, error_factory=_json_decode_error)
    labels: List[str] = []  # the label of each open container
    label = root_label
    for kind, payload in _tokens(feeder):
        if kind == "key":
            label = payload
        elif kind == "value":
            yield ("start", label)
            yield ("end", label)
        elif kind == "end":
            yield ("end", labels.pop())
            label = item_label
        else:
            yield ("start", label)
            labels.append(label)
            label = item_label
