"""A from-scratch XML parser with the well-formedness error taxonomy of
the Grijzenhout & Marx study (Section 3.1).

The study found that 85% of 180k crawled XML files are well-formed and
that 9 error categories account for 99% of the violations, the top three
(79.9%) being *tag mismatch*, *premature end of data* and *improper
encoding*.

One tokenizer, :func:`_tokens`, is the only code that scans XML text.
It reads a :class:`~repro.trees.chunked.ChunkFeeder` and yields start
tags (name, attributes, self-closing), end tags, raw character data and
CDATA sections.  A recoverable lexical error (a malformed attribute, a
``<`` that starts no tag, a bad reference in an attribute value) is a
token too; a fatal one (premature end inside markup, a malformed end
tag, undecodable bytes) raises.  Every entry point consumes those
tokens:

* :func:`check_well_formedness` folds them into a
  :class:`~repro.trees.tree.Tree`, adding the structural checks (tag
  balance, root count, text outside the root), entity decoding of
  character data and recovery, and collects *all* detected violations,
  mirroring how the study classified its corpus;
* :func:`parse_xml` raises the first of those violations as
  :class:`~repro.errors.XMLParseError` with a machine-readable
  ``category``;
* :func:`attempt_repair` — the simple recovery strategies the study
  suggests are feasible for the dominant categories (auto-closing and
  re-pairing mismatched tags);
* :func:`iter_xml_events` projects the tokens to ``start``/``end``/
  ``text`` events over chunked input and raises at the first error
  token, so a lexical error has the same category and position as the
  first error :func:`check_well_formedness` reports.

The parser covers the XML subset relevant for structural studies:
elements, attributes, text, comments, processing instructions, CDATA and
an optional XML declaration.  DOCTYPE internal subsets are skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Optional as Opt, Tuple

from ..errors import XMLParseError
from .chunked import ChunkFeeder
from .tree import Tree, TreeNode

# Error categories, named after the study's taxonomy.
TAG_MISMATCH = "tag-mismatch"  # opening and ending tag mismatch
PREMATURE_END = "premature-end"  # premature end of data in tag
BAD_ENCODING = "bad-encoding"  # improper UTF-8 encoding
UNCLOSED_ELEMENT = "unclosed-element"  # EOF with open elements
JUNK_AFTER_ROOT = "junk-after-root"  # content after the root element
MULTIPLE_ROOTS = "multiple-roots"
EMPTY_DOCUMENT = "empty-document"
BAD_ATTRIBUTE = "bad-attribute"  # malformed attribute syntax
UNESCAPED_CHAR = "unescaped-char"  # raw '<' or '&' in text content
STRAY_END_TAG = "stray-end-tag"  # end tag with no open element

ERROR_CATEGORIES = (
    TAG_MISMATCH,
    PREMATURE_END,
    BAD_ENCODING,
    UNCLOSED_ELEMENT,
    JUNK_AFTER_ROOT,
    MULTIPLE_ROOTS,
    EMPTY_DOCUMENT,
    BAD_ATTRIBUTE,
    UNESCAPED_CHAR,
    STRAY_END_TAG,
)

_NAME_CHARS = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_NAME = re.compile(_NAME_CHARS)
# a plain tag: <name>, <name/> or </name>, no attributes; group 1 is an
# end tag's name, group 2 a start tag's, group 3 the self-closing slash
_PLAIN_TAG = re.compile(
    rf"<(?:/({_NAME_CHARS})\s*|({_NAME_CHARS})\s*(/)?)>"
)
_SPACE = re.compile(r"\s*")
_UNQUOTED = re.compile(r"[^\s>/]*")
_RESYNC = re.compile(r"[>/]")
_DOCTYPE_STOP = re.compile(r"[\[\]>]")


@dataclass
class XMLError:
    """One classified well-formedness violation."""

    category: str
    message: str
    position: int


@dataclass
class WellFormednessReport:
    """Outcome of :func:`check_well_formedness`.

    ``tree`` is always the best-effort recovered tree (when a root could
    be identified); it is only guaranteed faithful when ``well_formed``.
    """

    well_formed: bool
    errors: List[XMLError]
    tree: Opt[Tree] = None

    @property
    def primary_category(self) -> Opt[str]:
        return self.errors[0].category if self.errors else None


def _decode_entities(text: str, scanner_pos: int, errors: List[XMLError]) -> str:
    out: List[str] = []
    i = 0
    n = len(text)
    known = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
    while i < n:
        ch = text[i]
        if ch == "&":
            end = text.find(";", i + 1)
            if end == -1 or end - i > 12:
                errors.append(
                    XMLError(
                        UNESCAPED_CHAR,
                        "unescaped '&' in content",
                        scanner_pos + i,
                    )
                )
                out.append("&")
                i += 1
                continue
            entity = text[i + 1 : end]
            if entity.startswith("#"):
                try:
                    code = (
                        int(entity[2:], 16)
                        if entity[1:2] in ("x", "X")
                        else int(entity[1:])
                    )
                    out.append(chr(code))
                except ValueError:
                    errors.append(
                        XMLError(
                            UNESCAPED_CHAR,
                            f"bad character reference &{entity};",
                            scanner_pos + i,
                        )
                    )
            elif entity in known:
                out.append(known[entity])
            else:
                errors.append(
                    XMLError(
                        UNESCAPED_CHAR,
                        f"unknown entity &{entity};",
                        scanner_pos + i,
                    )
                )
            i = end + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ----------------------------------------------------------------------
# The tokenizer
#
# Most markup is a plain tag (a name, optional space, ``>`` or ``/>``):
# :func:`_tokens` lexes one with a single ``_PLAIN_TAG`` match, but only
# where :func:`_markup` would not ask for a refill (at end of input, or
# with at least 9 characters buffered), so text runs split at the same
# chunk boundaries either way.  Every other ``<`` goes to :func:`_markup`.
# ----------------------------------------------------------------------


class _More(Exception):
    """The token runs past the buffered text: refill and scan it again."""


def _cut(eof: bool, message: str, position: int) -> Exception:
    """What a token that reaches the end of the buffer raises: a rescan
    request while more input may come, else premature end of data."""
    if not eof:
        return _More()
    return XMLParseError(message, position=position, category=PREMATURE_END)


def _attributes(
    buf: str, i: int, eof: bool, base: int, errors: List[XMLError]
) -> Tuple[dict, bool, int]:
    """Scan a start tag's attributes from ``buf[i]`` (just past its name)
    up to ``>`` or ``/>``.  Returns (attributes, self_closing, end).

    Malformed attributes are recorded in ``errors`` and skipped; a tag
    or value the input ends inside is fatal (premature end).
    """
    n = len(buf)
    attributes: dict = {}
    while True:
        i = _SPACE.match(buf, i).end()
        if i >= n:
            raise _cut(eof, "premature end of data inside tag", base + i)
        ch = buf[i]
        if ch == ">":
            return attributes, False, i + 1
        if ch == "/":
            if i + 1 >= n and not eof:
                raise _More
            if buf.startswith("/>", i):
                return attributes, True, i + 2
        match = _NAME.match(buf, i)
        if match is None:
            errors.append(
                XMLError(
                    BAD_ATTRIBUTE, f"malformed attribute near {ch!r}", base + i
                )
            )
            # resynchronize: always consume at least one character (a
            # lone '/' not followed by '>' would otherwise loop), then
            # skip to the next delimiter
            stop = _RESYNC.search(buf, i + 1)
            if stop is None and not eof:
                raise _More
            i = n if stop is None else stop.start()
            continue
        name = match.group()
        i = _SPACE.match(buf, match.end()).end()
        if i >= n and not eof:
            raise _More
        if i >= n or buf[i] != "=":
            errors.append(
                XMLError(
                    BAD_ATTRIBUTE, f"attribute {name!r} without value", base + i
                )
            )
            attributes[name] = ""
            continue
        i = _SPACE.match(buf, i + 1).end()
        if i >= n and not eof:
            raise _More
        quote = buf[i] if i < n else ""
        if quote != '"' and quote != "'":
            errors.append(
                XMLError(
                    BAD_ATTRIBUTE,
                    f"unquoted value for attribute {name!r}",
                    base + i,
                )
            )
            end = _UNQUOTED.match(buf, i).end()
            if end >= n and not eof:
                raise _More
            attributes[name] = buf[i:end]
            i = end
            continue
        i += 1
        end = buf.find(quote, i)
        if end == -1:
            raise _cut(
                eof, f"unterminated value for attribute {name!r}", base + i
            )
        attributes[name] = _decode_entities(buf[i:end], base + i, errors)
        i = end + 1


def _markup(
    buf: str, p: int, eof: bool, base: int, errors: List[XMLError]
) -> Tuple[Opt[tuple], int]:
    """Scan the markup starting at ``buf[p] == '<'``.  Returns (token or
    None for skipped markup, end); recoverable errors go to ``errors``."""
    n = len(buf)
    if n - p < 9 and not eof:  # the longest prefix told apart: <![CDATA[
        raise _More
    second = buf[p + 1 : p + 2]
    if second == "/":
        match = _NAME.match(buf, p + 2)
        i = _SPACE.match(buf, match.end() if match else p + 2).end()
        if i < n and match is not None and buf[i] == ">":
            return ("end", match.group(), base + p), i + 1
        if i >= n and not eof:
            raise _More
        raise XMLParseError(
            "malformed end tag",
            position=base + p,
            category=PREMATURE_END if i >= n else TAG_MISMATCH,
        )
    if second == "!":
        if buf.startswith("<![CDATA[", p):
            end = buf.find("]]>", p + 9)
            if end == -1:
                raise _cut(eof, "unterminated CDATA section", base + p)
            return ("cdata", buf[p + 9 : end], base + p), end + 3
        if buf.startswith("<!--", p):
            end = buf.find("-->", p + 4)
            if end == -1:
                raise _cut(eof, "unterminated comment", base + p)
            return None, end + 3
        if buf.startswith("<!DOCTYPE", p) or buf.startswith("<!doctype", p):
            depth = 0
            i = p
            while True:
                stop = _DOCTYPE_STOP.search(buf, i)
                if stop is None:
                    raise _cut(eof, "unterminated DOCTYPE", base + n)
                i = stop.end()
                if buf[i - 1] == "[":
                    depth += 1
                elif buf[i - 1] == "]":
                    depth -= 1
                elif depth <= 0:
                    return None, i
    elif second == "?":
        end = buf.find("?>", p + 2)
        if end == -1:
            raise _cut(eof, "unterminated processing instruction", base + p)
        return None, end + 2
    match = _NAME.match(buf, p + 1)
    if match is None:
        errors.append(
            XMLError(UNESCAPED_CHAR, "unescaped '<' in content", base + p)
        )
        return None, p + 1
    attributes, self_closing, end = _attributes(
        buf, match.end(), eof, base, errors
    )
    return ("start", match.group(), attributes, self_closing, base + p), end


def _tokens(feeder: ChunkFeeder) -> Iterator[tuple]:
    """The XML tokens of ``feeder``'s input, in document order:

    * ``("start", name, attributes, self_closing, position)``
    * ``("end", name, position)``
    * ``("text", raw, position)`` — character data, entity references
      undecoded; a run may come in pieces when it spans chunks
    * ``("cdata", content, position)``
    * ``("error", XMLError)`` — a recoverable lexical error

    Comments, processing instructions and DOCTYPE are skipped.  Fatal
    errors raise :class:`~repro.errors.XMLParseError`; recoverable errors
    found inside the same markup are yielded first.

    A plain tag (``<name>``, ``<name/>`` or ``</name>``, space allowed
    before ``>`` or ``/>``) takes one compiled match and yields the token
    :func:`_markup` would, when ``eof`` or at least 9 characters are
    buffered from its ``<`` (where :func:`_markup` does not refill).
    """
    plain_tag = _PLAIN_TAG.match
    buf, p, base, eof = feeder.buf, feeder.pos, feeder.base, feeder.eof
    while True:
        n = len(buf)
        if p >= n:
            feeder.pos = p
            if not feeder.refill():
                return
            buf, p, base, eof = feeder.buf, feeder.pos, feeder.base, feeder.eof
            continue
        if buf[p] != "<":
            # a text run; yield what the buffer holds, so a run longer
            # than a chunk costs no more than a chunk of memory
            end = buf.find("<", p)
            if end == -1:
                end = n
            yield ("text", buf[p:end], base + p)
            p = end
            continue
        if n - p >= 9 or eof:
            tag = plain_tag(buf, p)
            if tag is not None:
                end_name, name, slash = tag.groups()
                if end_name is None:
                    yield ("start", name, {}, slash is not None, base + p)
                else:
                    yield ("end", end_name, base + p)
                p = tag.end()
                continue
        errors: List[XMLError] = []
        try:
            token, end = _markup(buf, p, eof, base, errors)
        except _More:
            feeder.pos = p
            feeder.refill()
            buf, p, base, eof = feeder.buf, feeder.pos, feeder.base, feeder.eof
            continue
        except XMLParseError:
            for error in errors:
                yield ("error", error)
            raise
        for error in errors:
            yield ("error", error)
        p = end
        if token is not None:
            yield token


def _xml_decode_error(message: str, position: int) -> XMLParseError:
    return XMLParseError(message, position=position, category=BAD_ENCODING)


# ----------------------------------------------------------------------
# Folds over the tokens
# ----------------------------------------------------------------------


def parse_xml(text: str) -> Tree:
    """Parse ``text`` into a :class:`Tree`, raising on the first error."""
    report = check_well_formedness(text)
    if not report.well_formed:
        first = report.errors[0]
        raise XMLParseError(
            first.message, position=first.position, category=first.category
        )
    assert report.tree is not None
    return report.tree


def check_well_formedness(data) -> WellFormednessReport:
    """Classify ``data`` (str or bytes) like the Grijzenhout–Marx study.

    Byte input is decoded as UTF-8 (a leading byte-order mark is
    allowed) before the first token; decoding failures are the study's
    third-most-common category (:data:`BAD_ENCODING`), reported at the
    character offset of the first undecodable byte.  Collection is
    best-effort: after a fatal error (premature end) the scan stops,
    while recoverable errors (bad attributes, mismatched tags) are
    recorded and the scan continues.
    """
    if isinstance(data, bytes):
        # one chunk: an encoding error is then the document's only error
        feeder = ChunkFeeder(data, len(data), error_factory=_xml_decode_error)
    else:
        feeder = ChunkFeeder(data)
    errors: List[XMLError] = []
    root: Opt[TreeNode] = None
    stack: List[TreeNode] = []
    try:
        for token in _tokens(feeder):
            kind = token[0]
            if kind == "start":
                _, name, attributes, self_closing, tag_pos = token
                node = TreeNode(name, attributes=attributes)
                if stack:
                    stack[-1].add_child(node)
                elif root is None:
                    root = node
                else:
                    errors.append(
                        XMLError(
                            MULTIPLE_ROOTS,
                            f"second root element <{name}>",
                            tag_pos,
                        )
                    )
                if not self_closing:
                    stack.append(node)
            elif kind == "end":
                _, name, tag_pos = token
                if not stack:
                    errors.append(
                        XMLError(
                            STRAY_END_TAG,
                            f"end tag </{name}> with no open element",
                            tag_pos,
                        )
                    )
                    continue
                open_node = stack[-1]
                if open_node.label != name:
                    errors.append(
                        XMLError(
                            TAG_MISMATCH,
                            f"end tag </{name}> does not match open "
                            f"<{open_node.label}>",
                            tag_pos,
                        )
                    )
                    # recovery: close the innermost matching ancestor if
                    # one exists, else drop the end tag
                    labels = [node.label for node in stack]
                    if name in labels:
                        while stack and stack[-1].label != name:
                            stack.pop()
                        if stack:
                            stack.pop()
                    continue
                stack.pop()
            elif kind == "text":
                _, chunk, start = token
                if not chunk.strip():
                    continue
                if stack:
                    decoded = _decode_entities(chunk, start, errors)
                    node = stack[-1]
                    node.value = (node.value or "") + decoded.strip()
                else:
                    category = (
                        JUNK_AFTER_ROOT if root is not None else EMPTY_DOCUMENT
                    )
                    errors.append(
                        XMLError(
                            category,
                            "character data outside the root element",
                            start,
                        )
                    )
            elif kind == "cdata":
                if stack:
                    node = stack[-1]
                    node.value = (node.value or "") + token[1]
            else:
                errors.append(token[1])
    except XMLParseError as exc:
        errors.append(
            XMLError(exc.category or PREMATURE_END, exc.message, exc.position or 0)
        )
        return WellFormednessReport(False, errors)

    if stack:
        open_labels = ", ".join(node.label for node in stack)
        errors.append(
            XMLError(
                UNCLOSED_ELEMENT,
                f"end of document with open elements: {open_labels}",
                feeder.position,
            )
        )
    if root is None:
        errors.append(
            XMLError(EMPTY_DOCUMENT, "no root element found", 0)
        )
    tree = Tree(root) if root is not None else None
    return WellFormednessReport(not errors, errors, tree)


def attempt_repair(text: str) -> Opt[Tree]:
    """Best-effort repair for the dominant error categories.

    The study observed that 9 categories cover 99% of violations and
    that the top ones are mechanically repairable.  We auto-close open
    elements at EOF, re-pair mismatched end tags with the innermost
    matching ancestor, and drop stray end tags / junk after the root.
    Returns the repaired tree, or ``None`` when no root can be recovered.
    """
    report = check_well_formedness(text)
    if report.well_formed:
        return report.tree
    positions = [
        err.position
        for err in report.errors
        if err.category == PREMATURE_END
    ]
    if positions:
        # premature-end repairs: truncate at the error and close elements
        truncated = text[: min(positions)]
        cut = truncated.rfind("<")
        if cut > 0:
            truncated = truncated[:cut]
        repaired = _close_all_open(truncated)
        return check_well_formedness(repaired).tree
    # the collecting parser already applied tag re-pairing and junk
    # dropping while building; its recovered tree is the repair
    if report.tree is not None:
        return report.tree
    return check_well_formedness(_close_all_open(text)).tree


def _close_all_open(text: str) -> str:
    """Append missing end tags, in reverse open order, for the elements
    the tokens open before the input ends or a fatal error stops them."""
    stack: List[str] = []
    try:
        for token in _tokens(ChunkFeeder(text)):
            if token[0] == "start" and not token[3]:
                stack.append(token[1])
            elif token[0] == "end" and token[1] in stack:
                while stack.pop() != token[1]:
                    pass
    except XMLParseError:
        pass
    return text + "".join(f"</{name}>" for name in reversed(stack))


# ----------------------------------------------------------------------
# Incremental event streaming (chunked, no Tree construction)
# ----------------------------------------------------------------------


def iter_xml_events(source, chunk_size: int = 65536):
    """Yield ``("start", name)`` / ``("end", name)`` / ``("text", data)``
    events incrementally from ``source`` — a ``str``, ``bytes``, or a
    file-like object read in ``chunk_size`` pieces.

    No :class:`~repro.trees.tree.Tree` is ever built: memory is bounded
    by the largest single token (tag, comment, CDATA section) plus one
    chunk, so multi-GB documents stream in constant memory.  The events
    are the tokens of the tokenizer :func:`check_well_formedness` folds,
    so a lexical error (premature end of markup, a malformed tag or
    attribute, a ``<`` that starts no tag, undecodable bytes) raises
    :class:`~repro.errors.XMLParseError` with the category and position
    the strict parser reports for it.  Structure is the *consumer's*
    job: tag balance, root count and text outside the root are checked
    by the streaming validators (as malformed streams) and by the tree
    fold, not here.

    Self-closing elements yield a ``start`` immediately followed by the
    matching ``end``.  Comments, processing instructions, DOCTYPE and
    the XML declaration are skipped; CDATA yields its content as text.
    Entity references in text are passed through undecoded and
    unchecked (validation only looks at structure).  Text may be split
    across several ``text`` events at chunk boundaries.
    """
    feeder = ChunkFeeder(source, chunk_size, error_factory=_xml_decode_error)
    for token in _tokens(feeder):
        kind = token[0]
        if kind == "start":
            yield ("start", token[1])
            if token[3]:
                yield ("end", token[1])
        elif kind == "end":
            yield ("end", token[1])
        elif kind == "error":
            error = token[1]
            raise XMLParseError(
                error.message, position=error.position, category=error.category
            )
        elif token[1]:
            yield ("text", token[1])
