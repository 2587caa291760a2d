"""Parser for the paper's regular-expression syntax.

Supports the academic notation used throughout the paper::

    (a+b)*a(a+b)?      union written '+', concatenation by juxtaposition
    b* a (b* a)*       whitespace-separated concatenation
    ab*c*              single-character symbols

as well as a multi-character mode for DTD content models::

    name birthplace?          (multi_char=True)
    person*, name, city       commas are concatenation separators

Union can always be written ``|`` unambiguously.  The token ``+`` is
*context-disambiguated*: it denotes union when followed by something that
can start an expression (the paper's convention, as in ``(a + b)``), and
one-or-more otherwise (as in ``a+``).  In the rare case you need
"one-or-more followed by concatenation" in academic mode, parenthesize:
``(a+)b``.

Epsilon can be written ``()`` or ``eps``; the empty language ``[]``.

Nesting is bounded: each group and each postfix operator adds one level
on top of what it applies to, and an expression nested deeper than
:data:`MAX_NESTING` levels is a :class:`~repro.errors.RegexParseError`.
Every consumer of the AST (plan keys, automata constructions,
rendering) recurses once or more per level, so the bound turns a
stack overflow into a parse error.
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..errors import RegexParseError
from .ast import (
    EMPTY,
    EPSILON,
    Concat,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)

_PUNCT_SYMBOLS = "#$%&@;:<>=~"

#: Deepest nesting of groups and postfix operators :func:`parse` accepts.
MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str  # SYM LPAREN RPAREN STAR PLUS QMARK PIPE EPS EMPTYLANG
    text: str
    pos: int


def _tokenize(text: str, multi_char: bool) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch in ".,·":  # whitespace / explicit concat
            i += 1
            continue
        if ch == "(":
            # '()' is epsilon
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == ")":
                tokens.append(_Token("EPS", "()", i))
                i = j + 1
                continue
            tokens.append(_Token("LPAREN", "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ")", i))
            i += 1
            continue
        if ch == "[":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == "]":
                tokens.append(_Token("EMPTYLANG", "[]", i))
                i = j + 1
                continue
            raise RegexParseError("expected ']' after '['", position=i)
        if ch == "*":
            tokens.append(_Token("STAR", "*", i))
            i += 1
            continue
        if ch == "+":
            tokens.append(_Token("PLUS", "+", i))
            i += 1
            continue
        if ch == "?":
            tokens.append(_Token("QMARK", "?", i))
            i += 1
            continue
        if ch == "|":
            tokens.append(_Token("PIPE", "|", i))
            i += 1
            continue
        if ch in ("ε",):  # 'ε'
            tokens.append(_Token("EPS", ch, i))
            i += 1
            continue
        if ch in ("∅",):  # '∅'
            tokens.append(_Token("EMPTYLANG", ch, i))
            i += 1
            continue
        if ch == "^":
            # inverse atom of 2RPQs: '^p' is ONE symbol traversing a
            # p-edge backwards (Section 9.6)
            j = i + 1
            if j < n and (text[j].isalnum() or text[j] == "_"):
                if multi_char:
                    k = j
                    while k < n and (text[k].isalnum() or text[k] in "_-:"):
                        k += 1
                else:
                    k = j + 1
                tokens.append(_Token("SYM", "^" + text[j:k], i))
                i = k
                continue
            raise RegexParseError(
                "'^' must be followed by a label", position=i
            )
        if ch.isalnum() or ch == "_" or ch in _PUNCT_SYMBOLS:
            if multi_char and (ch.isalnum() or ch == "_"):
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_-"):
                    j += 1
                name = text[i:j]
                if name == "eps":
                    tokens.append(_Token("EPS", name, i))
                else:
                    tokens.append(_Token("SYM", name, i))
                i = j
                continue
            # academic mode: each character is its own symbol, but allow
            # the spelled-out 'eps' keyword.
            if text.startswith("eps", i) and (
                i + 3 >= n or not text[i + 3].isalnum()
            ):
                tokens.append(_Token("EPS", "eps", i))
                i += 3
                continue
            tokens.append(_Token("SYM", ch, i))
            i += 1
            continue
        raise RegexParseError(f"unexpected character {ch!r}", position=i)
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: List[_Token], source: str, union_plus: bool = True):
        self.tokens = tokens
        self.source = source
        self.index = 0
        self.union_plus = union_plus
        # open groups on the descent, and the nesting height of the
        # subexpression parsed last (groups and postfix operators count)
        self.open_groups = 0
        self.height = 0

    def peek(self, ahead: int = 0):
        pos = self.index + ahead
        if pos < len(self.tokens):
            return self.tokens[pos]
        return None

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token is None or token.kind != kind:
            at = token.pos if token else len(self.source)
            raise RegexParseError(f"expected {kind}", position=at)
        return self.advance()

    # grammar: expr := term (('+'|'|') term)*
    #          term := factor+
    #          factor := atom ('*'|'?'|postfix '+')*
    #          atom := SYM | '(' expr ')' | EPS | EMPTYLANG

    def _nest(self, height: int, token: _Token) -> int:
        if height > MAX_NESTING:
            raise RegexParseError(
                f"expression nests deeper than {MAX_NESTING} groups and "
                f"postfix operators",
                position=token.pos,
            )
        return height

    def parse_expr(self) -> Regex:
        parts = [self.parse_term()]
        height = self.height
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind == "PIPE" or (
                token.kind == "PLUS" and self._plus_is_union()
            ):
                self.advance()
                parts.append(self.parse_term())
                height = max(height, self.height)
                continue
            break
        self.height = height
        if len(parts) == 1:
            return parts[0]
        return Union(tuple(parts))

    def _plus_is_union(self) -> bool:
        """A '+' token is union when followed by an expression start.

        With ``union_plus=False`` (DTD content models, where '|' is the
        only choice operator) '+' is always the postfix operator.
        """
        if not self.union_plus:
            return False
        nxt = self.peek(1)
        return nxt is not None and nxt.kind in (
            "SYM",
            "LPAREN",
            "EPS",
            "EMPTYLANG",
        )

    def parse_term(self) -> Regex:
        parts = [self.parse_factor()]
        height = self.height
        while True:
            token = self.peek()
            if token is None or token.kind in ("PIPE", "RPAREN"):
                break
            if token.kind == "PLUS":
                break  # handled by parse_expr (union) -- postfix '+' was
                # already consumed inside parse_factor.
            if token.kind in ("STAR", "QMARK"):
                raise RegexParseError(
                    "dangling postfix operator", position=token.pos
                )
            parts.append(self.parse_factor())
            height = max(height, self.height)
        self.height = height
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def parse_factor(self) -> Regex:
        node = self.parse_atom()
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind == "STAR":
                node = Star(node)
            elif token.kind == "QMARK":
                node = Optional(node)
            elif token.kind == "PLUS" and not self._plus_is_union():
                node = Plus(node)
            else:
                break
            self.height = self._nest(self.height + 1, token)
            self.advance()
        return node

    def parse_atom(self) -> Regex:
        token = self.peek()
        if token is None:
            raise RegexParseError(
                "unexpected end of expression", position=len(self.source)
            )
        if token.kind == "LPAREN":
            self.open_groups = self._nest(self.open_groups + 1, token)
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN")
            self.open_groups -= 1
            self.height = self._nest(self.height + 1, token)
            return inner
        self.height = 0
        if token.kind == "SYM":
            self.advance()
            return Symbol(token.text)
        if token.kind == "EPS":
            self.advance()
            return EPSILON
        if token.kind == "EMPTYLANG":
            self.advance()
            return EMPTY
        raise RegexParseError(
            f"unexpected token {token.text!r}", position=token.pos
        )


def parse(
    text: str, multi_char: bool = False, union_plus: bool = True
) -> Regex:
    """Parse ``text`` into a :class:`~repro.regex.ast.Regex`.

    Parameters
    ----------
    text:
        The expression in academic notation (see module docstring).
    multi_char:
        When true, identifiers are tokenized maximally (``name`` is one
        symbol); when false (default), each alphanumeric character is its
        own symbol (``ab*`` is ``a . b*``).
    union_plus:
        When false, ``+`` is always the one-or-more postfix operator and
        union must be written ``|`` (the convention of DTD content
        models).

    Raises
    ------
    RegexParseError
        If the input is empty or malformed.
    """
    tokens = _tokenize(text, multi_char)
    if not tokens:
        raise RegexParseError("empty expression", position=0)
    parser = _Parser(tokens, text, union_plus=union_plus)
    expr = parser.parse_expr()
    if parser.index != len(tokens):
        leftover = parser.tokens[parser.index]
        raise RegexParseError(
            f"trailing input {leftover.text!r}", position=leftover.pos
        )
    return expr
