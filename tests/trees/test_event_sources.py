"""Chunked event sources: the incremental XML/JSON tokenizers must
produce the same structural events as parse-then-walk, at any chunk
size, from strings, bytes and file-like objects — and reject broken
input with the same typed, categorized errors as the strict parsers."""

import io
import random

import pytest

from repro.errors import JSONParseError, XMLParseError
from repro.trees import (
    DTD,
    iter_json_events,
    iter_xml_events,
    parse_json,
    parse_xml,
    random_tree,
    serialize,
    validate_events,
)
from repro.trees.json_parser import json_to_tree
from repro.trees.xml_parser import check_well_formedness
from repro.trees.streaming import _tree_events, events_of

CHUNK_SIZES = (1, 3, 7, 64, 65536)


def structural(events):
    """Drop text events (the tokenizers may split text at chunk
    boundaries; the structural stream is the comparable part)."""
    return [e for e in events if e[0] != "text"]


def text_of(events):
    return "".join(payload for kind, payload in events if kind == "text")


# ---------------------------------------------------------------------------
# XML
# ---------------------------------------------------------------------------


def test_xml_events_match_parse_then_walk_at_every_chunk_size():
    dtd = DTD.from_rules(
        {"r": "(a|b)*", "a": "(b?)", "b": ""}, start=["r"]
    )
    rng = random.Random(3)
    for _ in range(40):
        text = serialize(random_tree(dtd, rng))
        reference = structural(_tree_events(parse_xml(text)))
        for chunk_size in CHUNK_SIZES:
            got = structural(iter_xml_events(text, chunk_size=chunk_size))
            assert got == reference, (chunk_size, text)


def test_xml_bytes_and_file_like_sources():
    text = "<r><a>héllo — ünïcode</a><b/></r>"
    reference = list(iter_xml_events(text))
    assert structural(reference) == [
        ("start", "r"),
        ("start", "a"),
        ("end", "a"),
        ("start", "b"),
        ("end", "b"),
        ("end", "r"),
    ]
    data = text.encode("utf-8")
    for chunk_size in CHUNK_SIZES:
        # chunk_size 1 splits the multi-byte characters across reads
        assert (
            structural(iter_xml_events(data, chunk_size=chunk_size))
            == structural(reference)
        )
        assert (
            structural(
                iter_xml_events(io.BytesIO(data), chunk_size=chunk_size)
            )
            == structural(reference)
        )
    assert text_of(iter_xml_events(data, chunk_size=1)) == text_of(reference)


def test_xml_markup_noise_is_skipped_cdata_becomes_text():
    text = (
        "<?xml version='1.0'?><!DOCTYPE r [<!ELEMENT r ANY>]>"
        "<r><!-- note --><![CDATA[a < b]]><a x='1'/></r>"
    )
    events = list(iter_xml_events(text, chunk_size=5))
    assert structural(events) == [
        ("start", "r"),
        ("start", "a"),
        ("end", "a"),
        ("end", "r"),
    ]
    assert "a < b" in text_of(events)


@pytest.mark.parametrize(
    "text,category",
    [
        ("<r><a", "premature-end"),
        ("<r></r", "premature-end"),
        ("<r x=1></r>", "bad-attribute"),
        ("<1r/>", "unescaped-char"),
    ],
)
def test_xml_lexical_errors_are_typed_and_categorized(text, category):
    with pytest.raises(XMLParseError) as info:
        list(iter_xml_events(text, chunk_size=2))
    assert info.value.category == category


def test_xml_invalid_utf8_bytes_raise_bad_encoding():
    # the character offset of the first undecodable byte, at every chunk
    # size and in the tree parser too: 'é' is 2 bytes but 1 character
    cases = (
        (b"<r>\xff\xfe</r>", 3),
        ("<r>é".encode("utf-8") + b"\xff</r>", 4),
        ("é<r>".encode("utf-8") + b"\xff", 4),
        ("<r>é".encode("utf-8")[:-1], 3),  # truncated multi-byte tail
    )
    for data, position in cases:
        strict = check_well_formedness(data).errors[0]
        assert (strict.category, strict.position) == ("bad-encoding", position)
        for chunk_size in CHUNK_SIZES:
            for source in (data, io.BytesIO(data)):
                with pytest.raises(XMLParseError) as info:
                    list(iter_xml_events(source, chunk_size=chunk_size))
                assert (info.value.category, info.value.position) == (
                    "bad-encoding",
                    position,
                ), (data, chunk_size)


def test_utf8_byte_order_mark_is_skipped():
    xml = b"\xef\xbb\xbf<r><a/></r>"
    for chunk_size in CHUNK_SIZES:
        assert structural(iter_xml_events(xml, chunk_size=chunk_size)) == [
            ("start", "r"),
            ("start", "a"),
            ("end", "a"),
            ("end", "r"),
        ]
        assert list(iter_json_events(b"\xef\xbb\xbf[1]", chunk_size=chunk_size)) == [
            ("start", "$"),
            ("start", "item"),
            ("end", "item"),
            ("end", "$"),
        ]
    dtd = DTD.from_rules({"r": "(a)*", "a": ""}, start=["r"])
    assert validate_events(dtd, events_of(xml))
    json_dtd = DTD.from_rules({"$": "(item)*", "item": ""}, start=["$"])
    assert validate_events(json_dtd, events_of(b"\xef\xbb\xbf [1, 2]"))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

JSON_SAMPLES = (
    '{"a": [1, 2, {"b": null}], "c": "x"}',
    "[]",
    "{}",
    '[true, false, null, -1.5e3, "s"]',
    '"just a string"',
    "42",
    '{"k": {"k": {"k": []}}}',
    '["\\u00e9\\u0050", "\\ud83d\\ude00", "\\ud800"]',
    '{"名前": "値", "x y": [""]}',
)


def test_json_events_match_parse_then_walk_at_every_chunk_size():
    for text in JSON_SAMPLES:
        tree = json_to_tree(parse_json(text))
        reference = structural(_tree_events(tree))
        for chunk_size in CHUNK_SIZES:
            got = structural(iter_json_events(text, chunk_size=chunk_size))
            assert got == reference, (chunk_size, text)
            got_bytes = structural(
                iter_json_events(
                    io.BytesIO(text.encode("utf-8")), chunk_size=chunk_size
                )
            )
            assert got_bytes == reference, (chunk_size, text)


@pytest.mark.parametrize(
    "text,category",
    [
        ('{"a": "x', "unterminated-string"),
        ('{"a": 1} trailing', "trailing-data"),
        ('{"a": 01}', "missing-delimiter"),
        ('{"a": truth}', "bad-literal"),
        ('{"a" 1}', "missing-delimiter"),
        ("[1, 2", "unexpected-end"),
        ('"\t"', "control-character"),
    ],
)
def test_json_lexical_errors_are_typed_and_categorized(text, category):
    with pytest.raises(JSONParseError) as info:
        list(iter_json_events(text, chunk_size=2))
    assert info.value.category == category


# ---------------------------------------------------------------------------
# One lexer per format: the stream raises the strict parser's first error
# ---------------------------------------------------------------------------


def _strict_first_error(text):
    if text.lstrip().startswith("<"):
        first = check_well_formedness(text).errors[0]
        return first.category, first.position
    with pytest.raises(JSONParseError) as info:
        parse_json(text)
    return info.value.category, info.value.position


@pytest.mark.parametrize(
    "text",
    [
        "<r></r x>",
        "<r><!FOO bar></r>",
        "<r><1/></r>",
        "[trueish]",
        "[tru]",
        "[nul]",
        "[True]",
        '{"a":1,}',
    ],
)
def test_stream_raises_the_strict_parsers_first_error(text):
    expected = _strict_first_error(text)
    for chunk_size in (1, 2, 7, 65536):
        with pytest.raises((XMLParseError, JSONParseError)) as info:
            list(events_of(text, chunk_size=chunk_size))
        assert (info.value.category, info.value.position) == expected, (
            chunk_size
        )


# ---------------------------------------------------------------------------
# events_of dispatch
# ---------------------------------------------------------------------------


def test_events_of_dispatches_on_source_type():
    dtd = DTD.from_rules({"r": "(a)*", "a": ""}, start=["r"])
    assert validate_events(dtd, events_of("<r><a/><a/></r>"))
    assert validate_events(dtd, events_of(b"<r><a/></r>"))
    assert validate_events(dtd, events_of(io.BytesIO(b"<r/>")))
    tree = parse_xml("<r><a/></r>")
    assert validate_events(dtd, events_of(tree))
    # JSON sniffed from the first non-whitespace character
    json_dtd = DTD.from_rules(
        {"$": "(item)*", "item": ""}, start=["$"]
    )
    assert validate_events(json_dtd, events_of("  [1, 2, 3]"))
    assert validate_events(
        json_dtd, events_of(io.BytesIO(b"[1]"), format="json")
    )
    with pytest.raises(ValueError):
        list(events_of("<r/>", format="yaml"))


def test_events_of_streams_without_materializing_the_document():
    class Counting(io.BytesIO):
        reads = 0

        def read(self, size=-1):
            Counting.reads += 1
            return super().read(size)

    chunks = b"<r>" + b"<a></a>" * 5000 + b"</r>"
    dtd = DTD.from_rules({"r": "(a)*", "a": ""}, start=["r"])
    source = Counting(chunks)
    assert validate_events(dtd, events_of(source, chunk_size=1024))
    assert Counting.reads > 10  # consumed incrementally, not one slurp
