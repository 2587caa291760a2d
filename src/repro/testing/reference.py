"""Reference implementations kept as differential oracles.

Production modules carry one implementation per operation; the slower,
obviously-correct versions the fast paths were derived from live here,
where the oracles of :mod:`repro.testing.oracles` and the tests import
them.

* :func:`tokenize_reference` — the original SPARQL lexer, one regex
  alternation per token.  :func:`repro.sparql.parser.tokenize` must
  produce the same token stream (kinds, texts, positions) and the same
  error message and position on malformed input; the ``lexer`` target
  fuzzes that.
"""

from __future__ import annotations

import re
from typing import List

from ..errors import SPARQLParseError
from ..sparql.parser import _Token

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\s]*>)
  | (?P<STRING>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<VAR>[?$][A-Za-z_][A-Za-z_0-9]*)
  | (?P<BNODE>_:[A-Za-z_0-9]+)
  | (?P<NUMBER>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<PNAME>[A-Za-z_][A-Za-z_0-9.\-]*:[A-Za-z_0-9.\-]*|:[A-Za-z_0-9.\-]+)
  | (?P<KEYWORD>[A-Za-z_][A-Za-z_0-9\-]*)
  | (?P<OP>\^\^|&&|\|\||!=|<=|>=|[{}()\[\].;,*+?/|^!=<>@-])
    """,
    re.VERBOSE,
)


def tokenize_reference(text: str) -> List[_Token]:
    """The original regex lexer: one mega-alternation per token."""
    tokens: List[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SPARQLParseError(
                f"unexpected character {text[pos]!r}", position=pos
            )
        kind = match.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens
