"""A parser for the SPARQL 1.1 subset the paper's analyses need.

Covers: prologue (BASE/PREFIX), SELECT (with DISTINCT/REDUCED,
projection expressions and aggregates), ASK, CONSTRUCT, DESCRIBE, group
graph patterns with ``.``-separated triples blocks, predicate-object
lists (``;``) and object lists (``,``), OPTIONAL, UNION, MINUS, GRAPH,
SERVICE [SILENT], BIND, VALUES, FILTER with a practical expression
grammar (boolean connectives, comparisons, arithmetic, IN, function
calls, EXISTS/NOT EXISTS), subqueries, property paths (``/ | ^ * + ?``,
negated property sets, ``a`` as rdf:type), and the literal zoo (strings
with language tags and datatypes, numbers, booleans, blank nodes).

Everything parses into :mod:`repro.sparql.ast`.  Binary operators build
left-deep trees (``t1 . t2 . t3`` becomes ``And(And(t1, t2), t3)``),
matching the Bonifati et al. analysis conventions.
"""

from __future__ import annotations

import re as _re
from typing import List, Optional as Opt, Tuple

from ..errors import SPARQLParseError
from .ast import (
    And,
    Bind,
    BlankNode,
    BoolExpr,
    Comparison,
    EmptyPattern,
    ExistsExpr,
    Expression,
    Filter,
    FunctionCall,
    Graph,
    IRI,
    Literal,
    Minus,
    Optional as OptPattern,
    OrderCondition,
    PathPattern,
    Pattern,
    Projection,
    Query,
    Service,
    SolutionModifier,
    StarExpr,
    SubQuery,
    Term,
    TermExpr,
    TriplePattern,
    Union as UnionPattern,
    Values,
    Var,
)
from .paths_ast import (
    PathAtom,
    PathInverse,
    PathNegatedSet,
    PathOptional,
    PathPlus,
    PathStar,
    PropertyPath,
    alternative,
    sequence,
)

# Tight per-class scanners for the table-driven lexer.  Each is a
# single character class (no alternation), so the sre engine runs them
# as one linear scan; the first-match/fallback semantics of the
# reference lexer's single alternation
# (:func:`repro.testing.reference.tokenize_reference`) are reproduced
# by the dispatch logic in :func:`tokenize`.
_IRIREF_RE = _re.compile(r'<[^<>"{}|^`\\\s]*>')
_STRING_DQ_RE = _re.compile(r'"(?:[^"\\]|\\.)*"')
_STRING_SQ_RE = _re.compile(r"'(?:[^'\\]|\\.)*'")
_NUMBER_RE = _re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_PNAME_SPAN_RE = _re.compile(r"[A-Za-z_0-9.\-]*")
#: prefix span plus an optional ':' + local span, in one scan; group 1
#: is present iff the name is a PNAME
_NAME_RE = _re.compile(r"[A-Za-z_0-9.\-]*(:[A-Za-z_0-9.\-]*)?")
_VARNAME_SPAN_RE = _re.compile(r"[A-Za-z_0-9]*")
_BNODE_BODY_RE = _re.compile(r"[A-Za-z_0-9]+")

_A_KEYWORD = "a"  # rdf:type shorthand
#: the tokens after a path's first IRI that continue the path
_PATH_OPS = frozenset("|/*+?")
#: the keywords that start a construct inside a group graph pattern
_GROUP_KEYWORDS = frozenset(
    ("OPTIONAL", "MINUS", "FILTER", "BIND", "VALUES", "GRAPH", "SERVICE")
)
RDF_TYPE = IRI("rdf:type")

_STRING_ESCAPES = {
    "t": "\t",
    "n": "\n",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
_HEX_DIGITS = "0123456789abcdefABCDEF"


def _unescape_string(raw: str, pos: int) -> str:
    """Decode the escape sequences of a quoted string's body.

    ``pos`` is the source offset of ``raw`` so error positions point at
    the offending escape, not the token start.
    """
    if "\\" not in raw:
        return raw
    out: List[str] = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise SPARQLParseError(
                "dangling backslash in string", position=pos + i
            )
        esc = raw[i + 1]
        if esc in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[esc])
            i += 2
            continue
        if esc in ("u", "U"):
            width = 4 if esc == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) < width or any(
                c not in _HEX_DIGITS for c in hexpart
            ):
                raise SPARQLParseError(
                    f"bad \\{esc} escape in string", position=pos + i
                )
            code = int(hexpart, 16)
            if code > 0x10FFFF:
                raise SPARQLParseError(
                    "string escape beyond U+10FFFF", position=pos + i
                )
            out.append(chr(code))
            i += 2 + width
            continue
        raise SPARQLParseError(
            f"bad escape \\{esc} in string", position=pos + i
        )
    return "".join(out)


class _Token:
    __slots__ = ("kind", "text", "pos", "_upper")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos
        self._upper: Opt[str] = None

    def upper(self) -> str:
        up = self._upper
        if up is None:
            up = self._upper = self.text.upper()
        return up

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})"


# First-character dispatch classes for :func:`tokenize`.
_SCAN_WS = 1
_SCAN_NAME = 2
_SCAN_SIMPLE_OP = 3
_SCAN_VAR = 4
_SCAN_STRING = 5
_SCAN_IRI = 6
_SCAN_DIGIT = 7
_SCAN_DOT = 8
_SCAN_SIGN = 9
_SCAN_CARET = 10
_SCAN_BANG = 11
_SCAN_GT = 12
_SCAN_PIPE = 13
_SCAN_AMP = 14
_SCAN_COLON = 15
_SCAN_COMMENT = 16

_ASCII_WS = frozenset(" \t\n\r\x0b\x0c")
_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
)
_DIGITS = frozenset("0123456789")

_DISPATCH: dict = {}
for _ch in _ASCII_WS:
    _DISPATCH[_ch] = _SCAN_WS
for _ch in _NAME_START:
    _DISPATCH[_ch] = _SCAN_NAME
for _ch in _DIGITS:
    _DISPATCH[_ch] = _SCAN_DIGIT
for _ch in "{}()[];,*/=@":
    _DISPATCH[_ch] = _SCAN_SIMPLE_OP
_DISPATCH.update(
    {
        "?": _SCAN_VAR,
        "$": _SCAN_VAR,
        '"': _SCAN_STRING,
        "'": _SCAN_STRING,
        "<": _SCAN_IRI,
        ".": _SCAN_DOT,
        "+": _SCAN_SIGN,
        "-": _SCAN_SIGN,
        "^": _SCAN_CARET,
        "!": _SCAN_BANG,
        ">": _SCAN_GT,
        "|": _SCAN_PIPE,
        "&": _SCAN_AMP,
        ":": _SCAN_COLON,
        "#": _SCAN_COMMENT,
    }
)
del _ch


def tokenize(text: str) -> List[_Token]:
    """Table-driven scanner: first-char dispatch plus tight per-class
    scanners, with ``str.find`` fast paths for strings and comments.

    Produces exactly the token stream (and error positions) of the
    single-regex reference lexer,
    :func:`repro.testing.reference.tokenize_reference`; replacing its
    interpreted nine-way alternation with direct dispatch roughly
    halves tokenize time on real query logs.
    """
    tokens: List[_Token] = []
    append = tokens.append
    dispatch = _DISPATCH
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        code = dispatch.get(ch)
        if code == _SCAN_WS:
            pos += 1
            while pos < n and text[pos] in _ASCII_WS:
                pos += 1
            continue
        if code == _SCAN_NAME:
            # BNODE wins over PNAME (regex alternation order) and its
            # body class has no '.'/'-', so '_:a.b' lexes as '_:a'.
            if ch == "_" and pos + 1 < n and text[pos + 1] == ":":
                body = _BNODE_BODY_RE.match(text, pos + 2)
                if body is not None:
                    end = body.end()
                    append(_Token("BNODE", text[pos:end], pos))
                    pos = end
                    continue
            # the prefix span class excludes ':', so the PNAME
            # alternative matches iff the char right after the greedy
            # span is ':' — no backtracking needed, and one scan
            # resolves both the span and the colon test
            match = _NAME_RE.match(text, pos + 1)
            end = match.end()
            if match.group(1) is not None:
                append(_Token("PNAME", text[pos:end], pos))
                pos = end
                continue
            # KEYWORD has the PNAME prefix class minus '.', so the
            # keyword ends at the first dot of the span (if any)
            dot = text.find(".", pos + 1, end)
            if dot != -1:
                end = dot
            append(_Token("KEYWORD", text[pos:end], pos))
            pos = end
            continue
        if code == _SCAN_SIMPLE_OP:
            append(_Token("OP", ch, pos))
            pos += 1
            continue
        if code == _SCAN_VAR:
            if pos + 1 < n and text[pos + 1] in _NAME_START:
                end = _VARNAME_SPAN_RE.match(text, pos + 2).end()
                append(_Token("VAR", text[pos:end], pos))
                pos = end
                continue
            if ch == "?":
                append(_Token("OP", "?", pos))
                pos += 1
                continue
            raise SPARQLParseError(
                f"unexpected character {ch!r}", position=pos
            )
        if code == _SCAN_STRING:
            close = text.find(ch, pos + 1)
            if close != -1 and text.find("\\", pos + 1, close) == -1:
                close += 1
                append(_Token("STRING", text[pos:close], pos))
                pos = close
                continue
            pattern = _STRING_DQ_RE if ch == '"' else _STRING_SQ_RE
            match = pattern.match(text, pos)
            if match is None:
                raise SPARQLParseError(
                    f"unexpected character {ch!r}", position=pos
                )
            append(_Token("STRING", match.group(), pos))
            pos = match.end()
            continue
        if code == _SCAN_IRI:
            match = _IRIREF_RE.match(text, pos)
            if match is not None:
                append(_Token("IRIREF", match.group(), pos))
                pos = match.end()
                continue
            if pos + 1 < n and text[pos + 1] == "=":
                append(_Token("OP", "<=", pos))
                pos += 2
                continue
            append(_Token("OP", "<", pos))
            pos += 1
            continue
        if code == _SCAN_DIGIT:
            match = _NUMBER_RE.match(text, pos)
            append(_Token("NUMBER", match.group(), pos))
            pos = match.end()
            continue
        if code == _SCAN_DOT:
            if pos + 1 < n and text[pos + 1] in _DIGITS:
                match = _NUMBER_RE.match(text, pos)
                append(_Token("NUMBER", match.group(), pos))
                pos = match.end()
                continue
            append(_Token("OP", ".", pos))
            pos += 1
            continue
        if code == _SCAN_SIGN:
            nxt = text[pos + 1] if pos + 1 < n else ""
            if nxt in _DIGITS or (
                nxt == "."
                and pos + 2 < n
                and text[pos + 2] in _DIGITS
            ):
                match = _NUMBER_RE.match(text, pos)
                append(_Token("NUMBER", match.group(), pos))
                pos = match.end()
                continue
            append(_Token("OP", ch, pos))
            pos += 1
            continue
        if code == _SCAN_COLON:
            end = _PNAME_SPAN_RE.match(text, pos + 1).end()
            if end == pos + 1:
                # the ':'-led PNAME alternative needs a nonempty local
                # part, and ':' is not an OP
                raise SPARQLParseError(
                    f"unexpected character {ch!r}", position=pos
                )
            append(_Token("PNAME", text[pos:end], pos))
            pos = end
            continue
        if code == _SCAN_CARET:
            if pos + 1 < n and text[pos + 1] == "^":
                append(_Token("OP", "^^", pos))
                pos += 2
                continue
            append(_Token("OP", "^", pos))
            pos += 1
            continue
        if code == _SCAN_BANG:
            if pos + 1 < n and text[pos + 1] == "=":
                append(_Token("OP", "!=", pos))
                pos += 2
                continue
            append(_Token("OP", "!", pos))
            pos += 1
            continue
        if code == _SCAN_GT:
            if pos + 1 < n and text[pos + 1] == "=":
                append(_Token("OP", ">=", pos))
                pos += 2
                continue
            append(_Token("OP", ">", pos))
            pos += 1
            continue
        if code == _SCAN_PIPE:
            if pos + 1 < n and text[pos + 1] == "|":
                append(_Token("OP", "||", pos))
                pos += 2
                continue
            append(_Token("OP", "|", pos))
            pos += 1
            continue
        if code == _SCAN_AMP:
            if pos + 1 < n and text[pos + 1] == "&":
                append(_Token("OP", "&&", pos))
                pos += 2
                continue
            raise SPARQLParseError(
                f"unexpected character {ch!r}", position=pos
            )
        if code == _SCAN_COMMENT:
            newline = text.find("\n", pos + 1)
            pos = n if newline == -1 else newline
            continue
        # not in the dispatch table: non-ASCII whitespace is skipped
        # (the reference's \s), anything else is an error
        if ch.isspace():
            pos += 1
            continue
        raise SPARQLParseError(
            f"unexpected character {ch!r}", position=pos
        )
    return tokens


#: the binding :func:`parse_query` calls, looked up at call time so a
#: profiler can wrap the lexer by rebinding this one name
_tokenize = tokenize


class _Parser:
    __slots__ = (
        "tokens",
        "source",
        "index",
        "prefixes",
        "base",
        "_bnode_counter",
        "_n",
    )

    def __init__(self, tokens: List[_Token], source: str):
        self.tokens = tokens
        self.source = source
        self.index = 0
        self.prefixes = {}
        self.base: Opt[str] = None
        self._bnode_counter = 0
        self._n = len(tokens)

    # -- token plumbing (the helpers below inline peek(): they run
    # hundreds of thousands of times per corpus and the extra call
    # frame was the single biggest parse cost after lexing) -----------

    def peek(self, ahead: int = 0) -> Opt[_Token]:
        pos = self.index + ahead
        return self.tokens[pos] if pos < self._n else None

    def at_keyword(self, *words: str) -> bool:
        pos = self.index
        if pos >= self._n:
            return False
        token = self.tokens[pos]
        if token.kind != "KEYWORD":
            return False
        up = token._upper
        if up is None:
            up = token._upper = token.text.upper()
        return up in words

    def at_op(self, *ops: str) -> bool:
        pos = self.index
        if pos >= self._n:
            return False
        token = self.tokens[pos]
        return token.kind == "OP" and token.text in ops

    def advance(self) -> _Token:
        pos = self.index
        if pos >= self._n:
            raise SPARQLParseError(
                "unexpected end of query", position=len(self.source)
            )
        self.index = pos + 1
        return self.tokens[pos]

    def expect_op(self, op: str) -> _Token:
        pos = self.index
        token = self.tokens[pos] if pos < self._n else None
        if token is None or token.kind != "OP" or token.text != op:
            at = token.pos if token else len(self.source)
            raise SPARQLParseError(f"expected {op!r}", position=at)
        self.index = pos + 1
        return token

    def expect_keyword(self, word: str) -> _Token:
        pos = self.index
        token = self.tokens[pos] if pos < self._n else None
        if (
            token is None
            or token.kind != "KEYWORD"
            or token.upper() != word
        ):
            at = token.pos if token else len(self.source)
            raise SPARQLParseError(f"expected {word}", position=at)
        self.index = pos + 1
        return token

    # -- entry point ------------------------------------------------------------

    def parse_query(self) -> Query:
        self.parse_prologue()
        if self.at_keyword("SELECT"):
            query = self.parse_select()
        elif self.at_keyword("ASK"):
            query = self.parse_ask()
        elif self.at_keyword("CONSTRUCT"):
            query = self.parse_construct()
        elif self.at_keyword("DESCRIBE"):
            query = self.parse_describe()
        else:
            token = self.peek()
            at = token.pos if token else len(self.source)
            raise SPARQLParseError(
                "expected SELECT, ASK, CONSTRUCT or DESCRIBE", position=at
            )
        if self.index != len(self.tokens):
            raise SPARQLParseError(
                f"trailing input {self.peek().text!r}",
                position=self.peek().pos,
            )
        return query

    def parse_prologue(self) -> None:
        while True:
            if self.at_keyword("PREFIX"):
                self.advance()
                name_token = self.advance()
                if name_token.kind not in ("PNAME",):
                    raise SPARQLParseError(
                        "expected prefix name", position=name_token.pos
                    )
                iri_token = self.advance()
                if iri_token.kind != "IRIREF":
                    raise SPARQLParseError(
                        "expected IRI after prefix", position=iri_token.pos
                    )
                self.prefixes[name_token.text.rstrip(":")] = iri_token.text
                continue
            if self.at_keyword("BASE"):
                self.advance()
                iri_token = self.advance()
                if iri_token.kind != "IRIREF":
                    raise SPARQLParseError(
                        "expected IRI after BASE", position=iri_token.pos
                    )
                self.base = iri_token.text
                continue
            break

    # -- query forms -------------------------------------------------------------

    def parse_select(self, subquery: bool = False) -> Query:
        self.expect_keyword("SELECT")
        distinct = reduced = False
        if self.at_keyword("DISTINCT"):
            self.advance()
            distinct = True
        elif self.at_keyword("REDUCED"):
            self.advance()
            reduced = True
        projections: List[Projection] = []
        star = False
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind == "OP" and token.text == "*":
                self.advance()
                star = True
                break
            if token.kind == "VAR":
                self.advance()
                projections.append(Projection(Var(token.text[1:])))
                continue
            if token.kind == "OP" and token.text == "(":
                self.advance()
                expression = self.parse_expression()
                self.expect_keyword("AS")
                var_token = self.advance()
                if var_token.kind != "VAR":
                    raise SPARQLParseError(
                        "expected variable after AS", position=var_token.pos
                    )
                self.expect_op(")")
                projections.append(
                    Projection(Var(var_token.text[1:]), expression)
                )
                continue
            break
        if not star and not projections:
            token = self.peek()
            at = token.pos if token else len(self.source)
            raise SPARQLParseError(
                "SELECT needs * or a projection list", position=at
            )
        if self.at_keyword("WHERE"):
            self.advance()
        pattern = self.parse_group_graph_pattern()
        modifier = self.parse_solution_modifier(distinct, reduced)
        return Query(
            "SELECT",
            pattern,
            modifier,
            tuple(projections),
            text=None if subquery else self.source,
        )

    def parse_ask(self) -> Query:
        self.expect_keyword("ASK")
        if self.at_keyword("WHERE"):
            self.advance()
        pattern = self.parse_group_graph_pattern()
        modifier = self.parse_solution_modifier(False, False)
        return Query("ASK", pattern, modifier, text=self.source)

    def parse_construct(self) -> Query:
        self.expect_keyword("CONSTRUCT")
        self.expect_op("{")
        template: List[TriplePattern] = []
        while not self.at_op("}"):
            for pattern in self.parse_triples_same_subject():
                if isinstance(pattern, TriplePattern):
                    template.append(pattern)
                else:
                    raise SPARQLParseError(
                        "property paths are not allowed in CONSTRUCT "
                        "templates",
                        position=self.peek().pos if self.peek() else 0,
                    )
            if self.at_op("."):
                self.advance()
        self.expect_op("}")
        self.expect_keyword("WHERE")
        pattern = self.parse_group_graph_pattern()
        modifier = self.parse_solution_modifier(False, False)
        return Query(
            "CONSTRUCT",
            pattern,
            modifier,
            construct_template=tuple(template),
            text=self.source,
        )

    def parse_describe(self) -> Query:
        self.expect_keyword("DESCRIBE")
        terms: List[Term] = []
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind == "VAR":
                self.advance()
                terms.append(Var(token.text[1:]))
                continue
            if token.kind in ("IRIREF", "PNAME"):
                self.advance()
                terms.append(IRI(token.text))
                continue
            if token.kind == "OP" and token.text == "*":
                self.advance()
                continue
            break
        pattern: Pattern = EmptyPattern()
        if self.at_keyword("WHERE"):
            self.advance()
            pattern = self.parse_group_graph_pattern()
        elif self.at_op("{"):
            pattern = self.parse_group_graph_pattern()
        modifier = self.parse_solution_modifier(False, False)
        return Query(
            "DESCRIBE",
            pattern,
            modifier,
            describe_terms=tuple(terms),
            text=self.source,
        )

    # -- solution modifiers --------------------------------------------------------

    def parse_solution_modifier(
        self, distinct: bool, reduced: bool
    ) -> SolutionModifier:
        group_by: List[Expression] = []
        having: List[Expression] = []
        order_by: List[OrderCondition] = []
        limit: Opt[int] = None
        offset: Opt[int] = None
        while True:
            if self.at_keyword("GROUP"):
                self.advance()
                self.expect_keyword("BY")
                while True:
                    token = self.peek()
                    if token is None:
                        break
                    if token.kind == "VAR":
                        self.advance()
                        group_by.append(TermExpr(Var(token.text[1:])))
                        continue
                    if token.kind == "OP" and token.text == "(":
                        self.advance()
                        group_by.append(self.parse_expression())
                        self.expect_op(")")
                        continue
                    break
                continue
            if self.at_keyword("HAVING"):
                self.advance()
                self.expect_op("(")
                having.append(self.parse_expression())
                self.expect_op(")")
                continue
            if self.at_keyword("ORDER"):
                self.advance()
                self.expect_keyword("BY")
                while True:
                    if self.at_keyword("ASC", "DESC"):
                        descending = self.advance().upper() == "DESC"
                        self.expect_op("(")
                        expression = self.parse_expression()
                        self.expect_op(")")
                        order_by.append(
                            OrderCondition(expression, descending)
                        )
                        continue
                    token = self.peek()
                    if token is not None and token.kind == "VAR":
                        self.advance()
                        order_by.append(
                            OrderCondition(TermExpr(Var(token.text[1:])))
                        )
                        continue
                    break
                continue
            if self.at_keyword("LIMIT"):
                self.advance()
                limit = int(self.advance().text)
                continue
            if self.at_keyword("OFFSET"):
                self.advance()
                offset = int(self.advance().text)
                continue
            break
        return SolutionModifier(
            distinct,
            reduced,
            tuple(group_by),
            tuple(having),
            tuple(order_by),
            limit,
            offset,
        )

    # -- group graph patterns ---------------------------------------------------------

    def parse_group_graph_pattern(self) -> Pattern:
        self.expect_op("{")
        if self.at_keyword("SELECT"):
            inner = self.parse_select(subquery=True)
            self.expect_op("}")
            return SubQuery(inner)
        current: Opt[Pattern] = None
        pending_filters: List[Expression] = []

        def combine(new_pattern: Pattern) -> None:
            nonlocal current
            if current is None:
                current = new_pattern
            else:
                current = And(current, new_pattern)

        tokens = self.tokens
        while True:
            # read the current token once: only '{' or a group keyword
            # starts a construct, every other token a triples block
            pos = self.index
            token = tokens[pos] if pos < self._n else None
            word = None
            if token is not None:
                kind = token.kind
                if kind == "OP":
                    if token.text == "}":
                        break
                    if token.text == "{":
                        word = "{"
                elif kind == "KEYWORD":
                    word = token.upper()
                    if word not in _GROUP_KEYWORDS:
                        word = None
            if word is None:
                for pattern in self.parse_triples_same_subject():
                    combine(pattern)
            elif word == "{":
                inner = self.parse_group_graph_pattern()
                # group followed by UNION?
                while self.at_keyword("UNION"):
                    self.advance()
                    right = self.parse_group_graph_pattern()
                    inner = UnionPattern(inner, right)
                combine(inner)
            else:
                self.index = pos + 1
                if word == "OPTIONAL":
                    right = self.parse_group_graph_pattern()
                    left = current if current is not None else EmptyPattern()
                    current = OptPattern(left, right)
                elif word == "MINUS":
                    right = self.parse_group_graph_pattern()
                    left = current if current is not None else EmptyPattern()
                    current = Minus(left, right)
                elif word == "FILTER":
                    pending_filters.append(self.parse_constraint())
                elif word == "BIND":
                    self.expect_op("(")
                    expression = self.parse_expression()
                    self.expect_keyword("AS")
                    var_token = self.advance()
                    if var_token.kind != "VAR":
                        raise SPARQLParseError(
                            "expected variable after AS",
                            position=var_token.pos,
                        )
                    self.expect_op(")")
                    combine(Bind(expression, Var(var_token.text[1:])))
                elif word == "VALUES":
                    combine(self.parse_values())
                elif word == "GRAPH":
                    graph_term = self.parse_term()
                    inner = self.parse_group_graph_pattern()
                    combine(Graph(graph_term, inner))
                else:  # SERVICE
                    silent = False
                    if self.at_keyword("SILENT"):
                        self.advance()
                        silent = True
                    endpoint = self.parse_term()
                    inner = self.parse_group_graph_pattern()
                    combine(Service(endpoint, inner, silent))
            # the '.' after a construct or a triples block is optional
            if self.at_op("."):
                self.advance()
        self.expect_op("}")
        result: Pattern = current if current is not None else EmptyPattern()
        for constraint in pending_filters:
            result = Filter(result, constraint)
        return result

    def parse_values(self) -> Values:
        variables: List[Var] = []
        token = self.peek()
        if token is not None and token.kind == "VAR":
            self.advance()
            variables.append(Var(token.text[1:]))
        else:
            self.expect_op("(")
            while not self.at_op(")"):
                var_token = self.advance()
                if var_token.kind != "VAR":
                    raise SPARQLParseError(
                        "expected variable in VALUES",
                        position=var_token.pos,
                    )
                variables.append(Var(var_token.text[1:]))
            self.expect_op(")")
        self.expect_op("{")
        rows: List[Tuple[Opt[Term], ...]] = []
        while not self.at_op("}"):
            if len(variables) == 1 and not self.at_op("("):
                rows.append((self._parse_data_value(),))
                continue
            self.expect_op("(")
            row: List[Opt[Term]] = []
            while not self.at_op(")"):
                row.append(self._parse_data_value())
            self.expect_op(")")
            if len(row) != len(variables):
                raise SPARQLParseError(
                    "VALUES row arity mismatch",
                    position=self.peek().pos if self.peek() else 0,
                )
            rows.append(tuple(row))
        self.expect_op("}")
        return Values(tuple(variables), tuple(rows))

    def _parse_data_value(self) -> Opt[Term]:
        if self.at_keyword("UNDEF"):
            self.advance()
            return None
        return self.parse_term()

    # -- triples ----------------------------------------------------------------------

    def parse_triples_same_subject(self) -> List[Pattern]:
        subject = self.parse_term()
        out: List[Pattern] = []
        while True:
            predicate = self.parse_verb()
            while True:
                obj = self.parse_term()
                if isinstance(predicate, PropertyPath):
                    if isinstance(predicate, PathAtom):
                        out.append(
                            TriplePattern(subject, IRI(predicate.iri), obj)
                        )
                    else:
                        out.append(PathPattern(subject, predicate, obj))
                else:
                    out.append(TriplePattern(subject, predicate, obj))
                if self.at_op(","):
                    self.advance()
                    continue
                break
            if self.at_op(";"):
                self.advance()
                if self.at_op(".", ";") or self.at_op("}"):
                    continue  # dangling ';'
                continue
            break
        return out

    def parse_verb(self):
        """A predicate: variable, or a property path (an IRI is the
        trivial path and is lowered back to a TriplePattern)."""
        pos = self.index
        if pos >= self._n:
            raise SPARQLParseError(
                "expected predicate", position=len(self.source)
            )
        token = self.tokens[pos]
        kind = token.kind
        if kind == "VAR":
            self.index = pos + 1
            return Var(token.text[1:])
        if kind == "IRIREF" or kind == "PNAME":
            # a plain IRI predicate, the common case, skips the
            # five-level path descent when no path operator follows
            following = self.tokens[pos + 1] if pos + 1 < self._n else None
            if (
                following is None
                or following.kind != "OP"
                or following.text not in _PATH_OPS
            ):
                self.index = pos + 1
                return PathAtom(token.text)
        return self.parse_path()

    # property paths -------------------------------------------------------------

    def parse_path(self) -> PropertyPath:
        return self.parse_path_alternative()

    def parse_path_alternative(self) -> PropertyPath:
        parts = [self.parse_path_sequence()]
        while self.at_op("|"):
            self.advance()
            parts.append(self.parse_path_sequence())
        return alternative(*parts)

    def parse_path_sequence(self) -> PropertyPath:
        parts = [self.parse_path_elt()]
        while self.at_op("/"):
            self.advance()
            parts.append(self.parse_path_elt())
        return sequence(*parts)

    def parse_path_elt(self) -> PropertyPath:
        if self.at_op("^"):
            self.advance()
            inner = self.parse_path_primary_with_mod()
            return PathInverse(inner)
        return self.parse_path_primary_with_mod()

    def parse_path_primary_with_mod(self) -> PropertyPath:
        primary = self.parse_path_primary()
        while True:
            if self.at_op("*"):
                self.advance()
                primary = PathStar(primary)
                continue
            if self.at_op("+"):
                self.advance()
                primary = PathPlus(primary)
                continue
            if self.at_op("?"):
                self.advance()
                primary = PathOptional(primary)
                continue
            break
        return primary

    def parse_path_primary(self) -> PropertyPath:
        token = self.peek()
        if token is None:
            raise SPARQLParseError(
                "expected path", position=len(self.source)
            )
        if token.kind in ("IRIREF", "PNAME"):
            self.advance()
            return PathAtom(token.text)
        if token.kind == "KEYWORD" and token.text == _A_KEYWORD:
            self.advance()
            return PathAtom(RDF_TYPE.value)
        if token.kind == "OP" and token.text == "(":
            self.advance()
            inner = self.parse_path()
            self.expect_op(")")
            return inner
        if token.kind == "OP" and token.text == "!":
            self.advance()
            return self.parse_negated_set()
        raise SPARQLParseError(
            f"unexpected token {token.text!r} in path", position=token.pos
        )

    def parse_negated_set(self) -> PathNegatedSet:
        forward: List[str] = []
        inverse: List[str] = []

        def one() -> None:
            if self.at_op("^"):
                self.advance()
                token = self.advance()
                inverse.append(
                    RDF_TYPE.value
                    if token.kind == "KEYWORD" and token.text == _A_KEYWORD
                    else token.text
                )
            else:
                token = self.advance()
                forward.append(
                    RDF_TYPE.value
                    if token.kind == "KEYWORD" and token.text == _A_KEYWORD
                    else token.text
                )

        if self.at_op("("):
            self.advance()
            one()
            while self.at_op("|"):
                self.advance()
                one()
            self.expect_op(")")
        else:
            one()
        return PathNegatedSet(tuple(forward), tuple(inverse))

    # -- terms ------------------------------------------------------------------------

    def parse_term(self) -> Term:
        token = self.peek()
        if token is None:
            raise SPARQLParseError(
                "expected term", position=len(self.source)
            )
        if token.kind == "VAR":
            self.advance()
            return Var(token.text[1:])
        if token.kind in ("IRIREF", "PNAME"):
            self.advance()
            return IRI(token.text)
        if token.kind == "BNODE":
            self.advance()
            return BlankNode(token.text[2:])
        if token.kind == "STRING":
            self.advance()
            lexical = _unescape_string(token.text[1:-1], token.pos + 1)
            language = None
            datatype = None
            if self.at_op("@"):
                self.advance()
                lang_token = self.advance()
                language = lang_token.text
            elif self.at_op("^^"):
                self.advance()
                type_token = self.advance()
                datatype = type_token.text
            return Literal(lexical, language, datatype)
        if token.kind == "NUMBER":
            self.advance()
            return Literal(token.text, datatype="xsd:decimal" if "." in token.text or "e" in token.text.lower() else "xsd:integer")
        if token.kind == "KEYWORD" and token.upper() in ("TRUE", "FALSE"):
            self.advance()
            return Literal(token.text.lower(), datatype="xsd:boolean")
        if token.kind == "KEYWORD" and token.text == _A_KEYWORD:
            self.advance()
            return RDF_TYPE
        if token.kind == "OP" and token.text == "[":
            self.advance()
            self.expect_op("]")
            self._bnode_counter += 1
            return BlankNode(f"anon{self._bnode_counter}")
        raise SPARQLParseError(
            f"unexpected token {token.text!r}", position=token.pos
        )

    # -- expressions ---------------------------------------------------------------------

    def parse_constraint(self) -> Expression:
        token = self.peek()
        if token is not None and token.kind == "OP" and token.text == "(":
            self.advance()
            expression = self.parse_expression()
            self.expect_op(")")
            return expression
        if self.at_keyword("EXISTS"):
            self.advance()
            return ExistsExpr(self.parse_group_graph_pattern(), False)
        if self.at_keyword("NOT"):
            self.advance()
            self.expect_keyword("EXISTS")
            return ExistsExpr(self.parse_group_graph_pattern(), True)
        # bare function call: FILTER regex(?x, "y")
        return self.parse_primary_expression()

    def parse_expression(self) -> Expression:
        return self.parse_or()

    def parse_or(self) -> Expression:
        left = self.parse_and()
        operands = [left]
        while self.at_op("||"):
            self.advance()
            operands.append(self.parse_and())
        if len(operands) == 1:
            return left
        return BoolExpr("||", tuple(operands))

    def parse_and(self) -> Expression:
        left = self.parse_relational()
        operands = [left]
        while self.at_op("&&"):
            self.advance()
            operands.append(self.parse_relational())
        if len(operands) == 1:
            return left
        return BoolExpr("&&", tuple(operands))

    def parse_relational(self) -> Expression:
        left = self.parse_additive()
        if self.at_op("=", "!=", "<", "<=", ">", ">="):
            op = self.advance().text
            right = self.parse_additive()
            return Comparison(op, left, right)
        if self.at_keyword("IN"):
            self.advance()
            return Comparison("IN", left, self.parse_expression_list())
        if self.at_keyword("NOT"):
            self.advance()
            self.expect_keyword("IN")
            return Comparison("NOT IN", left, self.parse_expression_list())
        return left

    def parse_expression_list(self) -> Expression:
        self.expect_op("(")
        args: List[Expression] = []
        while not self.at_op(")"):
            args.append(self.parse_expression())
            if self.at_op(","):
                self.advance()
        self.expect_op(")")
        return FunctionCall("LIST", tuple(args))

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while self.at_op("+", "-"):
            op = self.advance().text
            right = self.parse_multiplicative()
            left = Comparison(op, left, right)
        return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            right = self.parse_unary()
            left = Comparison(op, left, right)
        return left

    def parse_unary(self) -> Expression:
        if self.at_op("!"):
            self.advance()
            return BoolExpr("!", (self.parse_unary(),))
        if self.at_op("-"):
            self.advance()
            inner = self.parse_unary()
            return Comparison(
                "-", TermExpr(Literal("0", datatype="xsd:integer")), inner
            )
        return self.parse_primary_expression()

    def parse_primary_expression(self) -> Expression:
        token = self.peek()
        if token is None:
            raise SPARQLParseError(
                "expected expression", position=len(self.source)
            )
        if token.kind == "OP" and token.text == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if self.at_keyword("EXISTS"):
            self.advance()
            return ExistsExpr(self.parse_group_graph_pattern(), False)
        if self.at_keyword("NOT"):
            self.advance()
            self.expect_keyword("EXISTS")
            return ExistsExpr(self.parse_group_graph_pattern(), True)
        if token.kind == "KEYWORD":
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == "OP" and nxt.text == "(":
                return self.parse_function_call()
            # bare keywords true/false handled by parse_term
        if token.kind == "PNAME":
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == "OP" and nxt.text == "(":
                return self.parse_function_call()
        return TermExpr(self.parse_term())

    def parse_function_call(self) -> Expression:
        name_token = self.advance()
        name = name_token.text
        self.expect_op("(")
        distinct = False
        if self.at_keyword("DISTINCT"):
            self.advance()
            distinct = True
        args: List[Expression] = []
        if self.at_op("*"):
            self.advance()
            args.append(StarExpr())
        else:
            while not self.at_op(")"):
                args.append(self.parse_expression())
                if self.at_op(","):
                    self.advance()
                    continue
                if self.at_op(";"):  # GROUP_CONCAT(...; separator="…")
                    self.advance()
                    while not self.at_op(")"):
                        self.advance()
                    break
        self.expect_op(")")
        canonical = (
            name.upper()
            if name.upper()
            in (
                "COUNT",
                "SUM",
                "AVG",
                "MIN",
                "MAX",
                "SAMPLE",
                "GROUP_CONCAT",
            )
            else name.lower()
        )
        return FunctionCall(canonical, tuple(args), distinct)


def parse_query(text: str) -> Query:
    """Parse a SPARQL query string into a :class:`~repro.sparql.ast.Query`.

    Raises :class:`~repro.errors.SPARQLParseError` for queries outside
    the supported subset — the log pipeline counts those as invalid
    (the Total vs Valid distinction of Table 2).
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, text)
    return parser.parse_query()
