"""Tests for the regular-expression parser (repro.regex.parser)."""

import pytest

from repro.errors import RegexParseError
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Concat,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
)
from repro.regex.parser import MAX_NESTING, parse


class TestAtoms:
    def test_single_symbol(self):
        assert parse("a") == Symbol("a")

    def test_epsilon_parens(self):
        assert parse("()") == EPSILON

    def test_epsilon_keyword(self):
        assert parse("eps") == EPSILON

    def test_empty_language(self):
        assert parse("[]") == EMPTY

    def test_punctuation_symbols(self):
        assert parse("#") == Symbol("#")
        assert parse("$") == Symbol("$")


class TestConcatenation:
    def test_juxtaposition(self):
        assert parse("ab") == Concat((Symbol("a"), Symbol("b")))

    def test_whitespace_separated(self):
        assert parse("a b c") == Concat(
            (Symbol("a"), Symbol("b"), Symbol("c"))
        )

    def test_dot_separator(self):
        assert parse("a.b") == Concat((Symbol("a"), Symbol("b")))

    def test_comma_separator(self):
        assert parse("a, b") == Concat((Symbol("a"), Symbol("b")))


class TestUnion:
    def test_plus_union(self):
        assert parse("a+b") == Union((Symbol("a"), Symbol("b")))

    def test_pipe_union(self):
        assert parse("a|b") == Union((Symbol("a"), Symbol("b")))

    def test_three_way(self):
        assert parse("a+b+c") == Union(
            (Symbol("a"), Symbol("b"), Symbol("c"))
        )

    def test_union_binds_looser_than_concat(self):
        assert parse("ab+cd") == Union(
            (
                Concat((Symbol("a"), Symbol("b"))),
                Concat((Symbol("c"), Symbol("d"))),
            )
        )


class TestPostfix:
    def test_star(self):
        assert parse("a*") == Star(Symbol("a"))

    def test_optional(self):
        assert parse("a?") == Optional(Symbol("a"))

    def test_postfix_plus_at_end(self):
        assert parse("a+") == Plus(Symbol("a"))

    def test_postfix_plus_before_paren_close(self):
        assert parse("(a+)b") == Concat((Plus(Symbol("a")), Symbol("b")))

    def test_plus_before_symbol_is_union(self):
        # the paper's convention: 'a+b' is a union
        assert parse("a+b") == Union((Symbol("a"), Symbol("b")))

    def test_double_postfix(self):
        assert parse("a*?") == Optional(Star(Symbol("a")))

    def test_postfix_on_group(self):
        assert parse("(ab)*") == Star(Concat((Symbol("a"), Symbol("b"))))


class TestPaperExpressions:
    def test_deterministic_example(self):
        expr = parse("b*a(b*a)*")
        assert expr == Concat(
            (
                Star(Symbol("b")),
                Symbol("a"),
                Star(Concat((Star(Symbol("b")), Symbol("a")))),
            )
        )

    def test_nondeterministic_example(self):
        expr = parse("(a+b)*a")
        assert expr == Concat(
            (Star(Union((Symbol("a"), Symbol("b")))), Symbol("a"))
        )

    def test_bkw_counterexample(self):
        expr = parse("(a+b)*a(a+b)")
        assert isinstance(expr, Concat)
        assert len(expr.parts) == 3

    def test_chare_example(self):
        expr = parse("a*abb*")
        assert expr == Concat(
            (
                Star(Symbol("a")),
                Symbol("a"),
                Symbol("b"),
                Star(Symbol("b")),
            )
        )


class TestMultiCharMode:
    def test_dtd_content_model(self):
        expr = parse("name birthplace?", multi_char=True)
        assert expr == Concat(
            (Symbol("name"), Optional(Symbol("birthplace")))
        )

    def test_starred_identifier(self):
        assert parse("person*", multi_char=True) == Star(Symbol("person"))

    def test_union_of_identifiers(self):
        expr = parse(
            "birthplace-US + birthplace-Intl", multi_char=True
        )
        assert expr == Union(
            (Symbol("birthplace-US"), Symbol("birthplace-Intl"))
        )

    def test_single_char_mode_splits(self):
        assert parse("ab") == Concat((Symbol("a"), Symbol("b")))
        assert parse("ab", multi_char=True) == Symbol("ab")


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "(", ")", "(a", "a)", "*", "*a", "a(*)", "|a", "a|", "["],
    )
    def test_malformed(self, text):
        with pytest.raises(RegexParseError):
            parse(text)

    def test_error_reports_position(self):
        with pytest.raises(RegexParseError) as info:
            parse("a)")
        assert info.value.position == 1

    @pytest.mark.parametrize(
        "nested",
        [
            lambda n: "(" * n + "a" + ")" * n,
            lambda n: "a" + "*" * n,
            lambda n: "(" * n + "a" + "b|a)" * n,
            lambda n: "(" * (n // 2) + "a" + ")?" * (n // 2) + "+" * (n % 2),
        ],
    )
    def test_nesting_bound(self, nested):
        # groups and postfix operators each nest one level; one past the
        # bound is a parse error, not a RecursionError
        parse(nested(MAX_NESTING))
        with pytest.raises(RegexParseError, match="nests deeper"):
            parse(nested(MAX_NESTING + 1))
        with pytest.raises(RegexParseError, match="nests deeper"):
            parse(nested(3000))
