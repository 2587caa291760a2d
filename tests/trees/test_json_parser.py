"""Tests for the JSON parser and tree mapping (repro.trees.json_parser)."""

import pytest

from repro.errors import JSONParseError
from repro.trees.json_parser import (
    json_nesting_depth,
    json_to_tree,
    parse_json,
    parse_json_tree,
)

FIG1_JSON = (
    '{"persons": [{"pers_id": 1, "name": "Aretha",'
    ' "birthplace": {"city": "Memphis", "state": "Tennessee",'
    ' "country": "US"}}]}'
)


class TestParsing:
    def test_scalars(self):
        assert parse_json("42") == 42
        assert parse_json("-3.5") == -3.5
        assert parse_json("1e3") == 1000.0
        assert parse_json("true") is True
        assert parse_json("false") is False
        assert parse_json("null") is None
        assert parse_json('"hi"') == "hi"

    def test_nested(self):
        value = parse_json(FIG1_JSON)
        assert value["persons"][0]["birthplace"]["city"] == "Memphis"

    def test_empty_containers(self):
        assert parse_json("{}") == {}
        assert parse_json("[]") == []

    def test_string_escapes(self):
        assert parse_json(r'"a\nb\t\"c\" \\ A"') == 'a\nb\t"c" \\ A'

    def test_whitespace_tolerant(self):
        assert parse_json('  { "a" : [ 1 , 2 ] }  ') == {"a": [1, 2]}


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            "[1, 2",
            '{"a": }',
            '{"a" 1}',
            "{'a': 1}",
            '"unterminated',
            "tru",
            "1 2",
            r'"\q"',
            "-",
            "[1,,2]",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(JSONParseError):
            parse_json(text)

    def test_error_has_category(self):
        with pytest.raises(JSONParseError) as info:
            parse_json('"abc')
        assert info.value.category == "unterminated-string"

    def test_trailing_data_category(self):
        with pytest.raises(JSONParseError) as info:
            parse_json("{} extra")
        assert info.value.category == "trailing-data"


class TestTreeMapping:
    def test_figure1_shape(self):
        tree = parse_json_tree(FIG1_JSON)
        assert tree.root.label == "$"
        persons = tree.root.children[0]
        assert persons.label == "persons"
        item = persons.children[0]
        assert item.label == "item"
        assert [c.label for c in item.children] == [
            "pers_id",
            "name",
            "birthplace",
        ]

    def test_scalars_in_values(self):
        tree = parse_json_tree('{"a": 7}')
        assert tree.root.children[0].value == 7

    def test_custom_labels(self):
        tree = parse_json_tree(
            "[1, 2]", root_label="doc", item_label="elem"
        )
        assert tree.root.label == "doc"
        assert [c.label for c in tree.root.children] == ["elem", "elem"]

    def test_array_order_preserved(self):
        tree = parse_json_tree('["x", "y", "z"]')
        assert [c.value for c in tree.root.children] == ["x", "y", "z"]

    def test_json_to_tree_on_parsed_value(self):
        tree = json_to_tree({"k": [True]})
        assert tree.root.children[0].children[0].value is True


class TestNestingDepth:
    @pytest.mark.parametrize(
        "text,depth",
        [
            ("1", 1),
            ("[]", 1),
            ("[1]", 2),
            ('{"a": {"b": {"c": 1}}}', 4),
            ('{"a": [ {"b": 1} ]}', 4),
        ],
    )
    def test_depths(self, text, depth):
        assert json_nesting_depth(parse_json(text)) == depth


class TestDeepNesting:
    """The parser is iterative: nesting far past the interpreter's
    recursion limit parses, and the JSON oracle counts a
    ``RecursionError`` from it as a leak."""

    def test_deep_arrays(self):
        depth = 50_000
        value = parse_json("[" * depth + "]" * depth)
        levels = 0
        while value:
            (value,) = value
            levels += 1
        assert (levels, value) == (depth - 1, [])

    def test_nesting_depth_of_deep_values(self):
        depth = 50_000
        assert json_nesting_depth(parse_json("[" * depth + "]" * depth)) == depth
        value = parse_json('{"a": ' * 20_000 + "[1, {}]" + "}" * 20_000)
        assert json_nesting_depth(value) == 20_002

    def test_deep_objects(self):
        depth = 20_000
        value = parse_json('{"a": ' * depth + "1" + "}" * depth)
        levels = 0
        while isinstance(value, dict):
            value = value["a"]
            levels += 1
        assert (levels, value) == (depth, 1)

    def test_deep_unterminated_array_is_a_parse_error(self):
        with pytest.raises(JSONParseError):
            parse_json("[" * 50_000)
