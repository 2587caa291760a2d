"""Tests for the XML parser and error taxonomy (repro.trees.xml_parser)."""

import pytest

from repro.errors import XMLParseError
from repro.trees.xml_parser import (
    BAD_ATTRIBUTE,
    BAD_ENCODING,
    EMPTY_DOCUMENT,
    JUNK_AFTER_ROOT,
    MULTIPLE_ROOTS,
    PREMATURE_END,
    STRAY_END_TAG,
    TAG_MISMATCH,
    UNCLOSED_ELEMENT,
    UNESCAPED_CHAR,
    attempt_repair,
    check_well_formedness,
    parse_xml,
)

FIG1_XML = (
    '<persons>\n'
    '  <person pers_id="1">\n'
    "    <name>Aretha</name>\n"
    "    <birthplace>\n"
    "      <city>Memphis</city>\n"
    "      <state>Tennessee</state>\n"
    "      <country>US</country>\n"
    "    </birthplace>\n"
    "  </person>\n"
    "</persons>"
)


class TestWellFormed:
    def test_figure1_document(self):
        tree = parse_xml(FIG1_XML)
        assert tree.root.label == "persons"
        assert tree.depth() == 4
        person = tree.root.children[0]
        assert person.attributes == {"pers_id": "1"}
        assert person.children[0].value == "Aretha"

    def test_self_closing(self):
        tree = parse_xml("<a><b/><c/></a>")
        assert tree.root.child_word() == ("b", "c")

    def test_comments_and_pi_skipped(self):
        tree = parse_xml(
            "<?xml version='1.0'?><!-- hi --><a><!-- x --><b/></a>"
        )
        assert tree.root.child_word() == ("b",)

    def test_doctype_skipped(self):
        tree = parse_xml('<!DOCTYPE a [<!ELEMENT a (b)>]><a><b/></a>')
        assert tree.root.label == "a"

    def test_cdata(self):
        tree = parse_xml("<a><![CDATA[1 < 2 & 3]]></a>")
        assert tree.root.value == "1 < 2 & 3"

    def test_entities_decoded(self):
        tree = parse_xml("<a>x &lt; y &amp; z</a>")
        assert tree.root.value == "x < y & z"

    def test_numeric_entities(self):
        tree = parse_xml("<a>&#65;&#x42;</a>")
        assert tree.root.value == "AB"

    def test_bytes_input_utf8(self):
        report = check_well_formedness("<a>é</a>".encode("utf-8"))
        assert report.well_formed

    def test_utf8_byte_order_mark_is_allowed(self):
        report = check_well_formedness(b"\xef\xbb\xbf<r><a/></r>")
        assert report.well_formed
        assert report.tree.root.child_word() == ("a",)


class TestErrorTaxonomy:
    """Each of the study's categories must be detected and classified."""

    def test_tag_mismatch(self):
        report = check_well_formedness("<a><b></a>")
        assert not report.well_formed
        assert report.primary_category == TAG_MISMATCH

    def test_premature_end_in_tag(self):
        report = check_well_formedness("<a><b attr='x")
        assert not report.well_formed
        assert report.primary_category == PREMATURE_END

    def test_bad_encoding(self):
        report = check_well_formedness(b"<a>\xff\xfe</a>")
        assert not report.well_formed
        assert report.primary_category == BAD_ENCODING

    @pytest.mark.parametrize(
        "data,position",
        [
            (b"<r>\xff</r>", 3),
            ("é<r>".encode("utf-8") + b"\xff", 4),  # 5 bytes, 4 characters
            (b"\xef\xbb\xbf<r>\xff", 3),  # the byte-order mark is not text
            (b"\xff\xfe<r/>", 0),  # a UTF-16 mark stays invalid
        ],
    )
    def test_bad_encoding_reports_the_character_offset(self, data, position):
        report = check_well_formedness(data)
        assert [(e.category, e.position) for e in report.errors] == [
            (BAD_ENCODING, position)
        ]

    def test_unclosed_element(self):
        report = check_well_formedness("<a><b></b>")
        assert not report.well_formed
        assert report.primary_category == UNCLOSED_ELEMENT

    def test_multiple_roots(self):
        report = check_well_formedness("<a/><b/>")
        assert not report.well_formed
        assert report.primary_category == MULTIPLE_ROOTS

    def test_junk_after_root(self):
        report = check_well_formedness("<a/>junk")
        assert not report.well_formed
        assert report.primary_category == JUNK_AFTER_ROOT

    def test_empty_document(self):
        report = check_well_formedness("   ")
        assert not report.well_formed
        assert report.primary_category == EMPTY_DOCUMENT

    def test_bad_attribute(self):
        report = check_well_formedness("<a x=1></a>")
        assert not report.well_formed
        assert any(e.category == BAD_ATTRIBUTE for e in report.errors)

    def test_unescaped_ampersand(self):
        report = check_well_formedness("<a>fish & chips</a>")
        assert not report.well_formed
        assert any(e.category == UNESCAPED_CHAR for e in report.errors)

    def test_stray_end_tag(self):
        report = check_well_formedness("<a></a></b>")
        assert not report.well_formed
        assert any(e.category == STRAY_END_TAG for e in report.errors)

    def test_parse_xml_raises_with_category(self):
        with pytest.raises(XMLParseError) as info:
            parse_xml("<a><b></a>")
        assert info.value.category == TAG_MISMATCH

    def test_multiple_errors_collected(self):
        report = check_well_formedness("<a x=1><b></a>")
        categories = {e.category for e in report.errors}
        assert BAD_ATTRIBUTE in categories
        assert TAG_MISMATCH in categories


class TestRepair:
    def test_repair_unclosed(self):
        tree = attempt_repair("<a><b><c/>")
        assert tree is not None
        assert tree.root.label == "a"
        assert tree.root.children[0].label == "b"

    def test_repair_mismatch_repairs_to_ancestor(self):
        tree = attempt_repair("<a><b><c></b></a>")
        assert tree is not None
        assert tree.root.label == "a"

    def test_repair_premature_end(self):
        tree = attempt_repair('<a><b attr="x')
        assert tree is not None
        assert tree.root.label == "a"

    def test_repair_well_formed_is_identity(self):
        tree = attempt_repair(FIG1_XML)
        assert tree is not None
        assert tree.node_count() == 7

    def test_repair_hopeless(self):
        assert attempt_repair("just text, no tags") is None


class TestRoundTrip:
    def test_serialize_and_reparse(self):
        from repro.trees.xml_corpus import serialize

        tree = parse_xml(FIG1_XML)
        text = serialize(tree)
        again = parse_xml(text)
        assert tree.equal_structure(again)
