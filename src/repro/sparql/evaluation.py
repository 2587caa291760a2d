"""SPARQL pattern and query evaluation over a
:class:`~repro.graphs.rdf.TripleStore` (the Evaluation problem of
Section 9.1).

Semantics follow Pérez, Arenas & Gutiérrez: solutions are partial
mappings from variables to RDF terms; ``And`` is the compatible join,
``Optional`` the left outer join (the operator whose unrestricted use
makes Evaluation PSPACE-complete), ``Union`` the bag union, ``Filter``
a selection, ``Minus`` the SPARQL 1.1 anti-join.  Property paths run on
the compiled RPQ engine (:func:`~repro.graphs.paths.evaluate_rpq`, walk
semantics, as the standard prescribes): a negated property set expands
to the store predicates it admits (see
:func:`~repro.sparql.paths_ast.path_to_regex`).

Filter expressions implement the practically dominant builtins
(comparisons, logical connectives, arithmetic, ``bound``, ``lang``,
``datatype``, ``str``, ``regex``, ``sameTerm``, ``isIRI``/``isLiteral``
/``isBlank``, ``IN``); an expression that errors makes the row fail the
filter, as in SPARQL.  ``SERVICE`` requires a ``service_resolver``
callback (there is no network in a library); without one it raises
:class:`~repro.errors.UnsupportedFeatureError`.
"""

from __future__ import annotations

import re as _re
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional as Opt

from ..errors import UnsupportedFeatureError
from ..graphs.paths import evaluate_rpq
from ..graphs.rdf import TripleStore
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
    Pattern,
    PathPattern,
    Query,
    Service,
    StarExpr,
    SubQuery,
    TermExpr,
    TriplePattern,
    Union as UnionPattern,
    Values,
    Var,
)
from .paths_ast import PathInverse, PathNegatedSet, path_to_regex

Solution = Dict[str, object]  # variable name -> term value (str or Literal)


class _EvalError(Exception):
    """SPARQL expression evaluation error (row fails the filter)."""


def _term_value(term, solution: Opt[Solution] = None):
    """Ground a term: variables look up the solution, IRIs/literals map
    to plain strings / Literal objects."""
    if isinstance(term, Var):
        if solution is None or term.name not in solution:
            raise _EvalError(f"unbound variable ?{term.name}")
        return solution[term.name]
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, Literal):
        return term
    if isinstance(term, BlankNode):
        # blank nodes in patterns act as non-projected variables
        name = f"_bnode_{term.name}"
        if solution is None or name not in solution:
            raise _EvalError(f"unbound blank node _:{term.name}")
        return solution[name]
    raise _EvalError(f"cannot ground {term!r}")


def _pattern_slot(term, solution: Solution):
    """Value for an index lookup, or None when the term is a free
    variable in this solution."""
    if isinstance(term, Var):
        value = solution.get(term.name)
        return _as_node(value) if value is not None else None
    if isinstance(term, BlankNode):
        value = solution.get(f"_bnode_{term.name}")
        return _as_node(value) if value is not None else None
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, Literal):
        return _as_node(term)
    return None


def _as_node(value) -> str:
    """Node id used in the store for a grounded value."""
    return str(value)


def _bind_term(term, node_value, solution: Solution) -> Opt[Solution]:
    """Extend ``solution`` so that ``term`` matches ``node_value``."""
    if isinstance(term, Var):
        key = term.name
    elif isinstance(term, BlankNode):
        key = f"_bnode_{term.name}"
    elif isinstance(term, IRI):
        return solution if term.value == node_value else None
    elif isinstance(term, Literal):
        return solution if _as_node(term) == node_value else None
    else:
        return None
    existing = solution.get(key)
    if existing is not None:
        return solution if _as_node(existing) == node_value else None
    extended = dict(solution)
    extended[key] = node_value
    return extended


def _compatible(left: Solution, right: Solution) -> Opt[Solution]:
    merged = dict(left)
    for key, value in right.items():
        if key in merged:
            if _as_node(merged[key]) != _as_node(value):
                return None
        else:
            merged[key] = value
    return merged


class Evaluator:
    """Evaluates patterns and whole queries over a triple store."""

    def __init__(
        self,
        store: TripleStore,
        service_resolver: Opt[
            Callable[[str, Pattern], List[Solution]]
        ] = None,
    ):
        self.store = store
        self.service_resolver = service_resolver

    # -- pattern evaluation ------------------------------------------------------

    def evaluate_pattern(self, pattern: Pattern) -> List[Solution]:
        return list(self._eval(pattern, [{}]))

    def _eval(
        self, pattern: Pattern, inputs: List[Solution]
    ) -> List[Solution]:
        if isinstance(pattern, EmptyPattern):
            return list(inputs)
        if isinstance(pattern, TriplePattern):
            out: List[Solution] = []
            for solution in inputs:
                out.extend(self._match_triple(pattern, solution))
            return out
        if isinstance(pattern, PathPattern):
            return self._match_path(pattern, inputs)
        if isinstance(pattern, And):
            return self._eval(pattern.right, self._eval(pattern.left, inputs))
        if isinstance(pattern, UnionPattern):
            return self._eval(pattern.left, inputs) + self._eval(
                pattern.right, inputs
            )
        if isinstance(pattern, OptPattern):
            left_solutions = self._eval(pattern.left, inputs)
            out = []
            for solution in left_solutions:
                extensions = self._eval(pattern.right, [solution])
                out.extend(extensions if extensions else [solution])
            return out
        if isinstance(pattern, Filter):
            candidates = self._eval(pattern.pattern, inputs)
            return [
                solution
                for solution in candidates
                if self._truthy(pattern.constraint, solution)
            ]
        if isinstance(pattern, Minus):
            left_solutions = self._eval(pattern.left, inputs)
            right_solutions = self._eval(pattern.right, [{}])
            out = []
            for solution in left_solutions:
                removed = False
                for other in right_solutions:
                    shared = set(solution) & set(other)
                    if shared and _compatible(solution, other) is not None:
                        removed = True
                        break
                if not removed:
                    out.append(solution)
            return out
        if isinstance(pattern, Bind):
            out = []
            for solution in inputs:
                try:
                    value = self._value(pattern.expression, solution)
                except _EvalError:
                    out.append(solution)
                    continue
                if pattern.variable.name in solution:
                    if _as_node(solution[pattern.variable.name]) == _as_node(
                        value
                    ):
                        out.append(solution)
                    continue
                extended = dict(solution)
                extended[pattern.variable.name] = value
                out.append(extended)
            return out
        if isinstance(pattern, Values):
            out = []
            for solution in inputs:
                for row in pattern.rows:
                    candidate = dict(solution)
                    ok = True
                    for variable, term in zip(pattern.variables_list, row):
                        if term is None:
                            continue
                        value = _as_node(_term_value(term, {}))
                        existing = candidate.get(variable.name)
                        if existing is not None and _as_node(existing) != value:
                            ok = False
                            break
                        candidate[variable.name] = value
                    if ok:
                        out.append(candidate)
            return out
        if isinstance(pattern, Graph):
            # single-graph store: GRAPH constrains nothing but binds the
            # graph variable to the default graph name
            return self._eval(pattern.pattern, inputs)
        if isinstance(pattern, Service):
            if self.service_resolver is None:
                if pattern.silent:
                    return list(inputs)
                raise UnsupportedFeatureError(
                    "SERVICE requires a service_resolver callback"
                )
            endpoint = (
                pattern.endpoint.value
                if isinstance(pattern.endpoint, IRI)
                else str(pattern.endpoint)
            )
            remote = self.service_resolver(endpoint, pattern.pattern)
            out = []
            for solution in inputs:
                for other in remote:
                    merged = _compatible(solution, other)
                    if merged is not None:
                        out.append(merged)
            return out
        if isinstance(pattern, SubQuery):
            inner = self.evaluate_select(pattern.query)
            out = []
            for solution in inputs:
                for other in inner:
                    merged = _compatible(solution, other)
                    if merged is not None:
                        out.append(merged)
            return out
        raise UnsupportedFeatureError(
            f"cannot evaluate pattern {type(pattern).__name__}"
        )

    def _match_triple(
        self, pattern: TriplePattern, solution: Solution
    ) -> Iterator[Solution]:
        s = _pattern_slot(pattern.subject, solution)
        p = _pattern_slot(pattern.predicate, solution)
        o = _pattern_slot(pattern.object, solution)
        for subject, predicate, obj in self.store.triples(s, p, o):
            step1 = _bind_term(pattern.subject, subject, solution)
            if step1 is None:
                continue
            step2 = _bind_term(pattern.predicate, predicate, step1)
            if step2 is None:
                continue
            step3 = _bind_term(pattern.object, obj, step2)
            if step3 is not None:
                yield step3

    def _match_path(
        self, pattern: PathPattern, inputs: List[Solution]
    ) -> List[Solution]:
        """Property-path matches on the compiled RPQ engine: walks from
        the bound subject, else back from the bound object, else over
        all pairs.  Per solution, rows come in (subject, object) order.

        As SPARQL 1.1 defines zero-length paths, a nullable path matches
        every store node and every bound end, in the store or not, to
        itself."""
        predicates = self.store.predicates()
        forward = path_to_regex(pattern.path, predicates)
        backward = None
        out: List[Solution] = []
        for solution in inputs:
            source = _pattern_slot(pattern.subject, solution)
            target = _pattern_slot(pattern.object, solution)
            if source is None and target is not None:
                if backward is None:
                    backward = path_to_regex(
                        PathInverse(pattern.path), predicates
                    )
                pairs = {
                    (s, o)
                    for o, s in evaluate_rpq(self.store, backward, [target])
                }
            else:
                pairs = evaluate_rpq(
                    self.store,
                    forward,
                    None if source is None else [source],
                    None if target is None else [target],
                )
            for subject, obj in sorted(pairs):
                step = _bind_term(pattern.subject, subject, solution)
                if step is not None:
                    step = _bind_term(pattern.object, obj, step)
                if step is not None:
                    out.append(step)
        return out

    # -- expression evaluation -----------------------------------------------------

    def _truthy(self, expression: Expression, solution: Solution) -> bool:
        try:
            return bool(self._value(expression, solution))
        except _EvalError:
            return False

    def _value(self, expression: Expression, solution: Solution):
        if isinstance(expression, TermExpr):
            return _term_value(expression.term, solution)
        if isinstance(expression, Comparison):
            return self._compare(expression, solution)
        if isinstance(expression, BoolExpr):
            if expression.op == "!":
                return not self._truthy_strict(
                    expression.operands[0], solution
                )
            if expression.op == "&&":
                return all(
                    self._truthy_strict(operand, solution)
                    for operand in expression.operands
                )
            return any(
                self._truthy_strict(operand, solution)
                for operand in expression.operands
            )
        if isinstance(expression, ExistsExpr):
            matches = self._eval(expression.pattern, [dict(solution)])
            return (not matches) if expression.negated else bool(matches)
        if isinstance(expression, FunctionCall):
            return self._call(expression, solution)
        if isinstance(expression, StarExpr):
            raise _EvalError("* outside aggregate")
        raise _EvalError(f"cannot evaluate {expression!r}")

    def _truthy_strict(
        self, expression: Expression, solution: Solution
    ) -> bool:
        return bool(self._value(expression, solution))

    def _compare(self, expression: Comparison, solution: Solution):
        op = expression.op
        if op in ("IN", "NOT IN"):
            left = _as_node(self._value(expression.left, solution))
            members = {
                _as_node(self._value(arg, solution))
                for arg in expression.right.args  # type: ignore[attr-defined]
            }
            inside = left in members
            return inside if op == "IN" else not inside
        left = self._value(expression.left, solution)
        right = self._value(expression.right, solution)
        if op in ("+", "-", "*", "/"):
            lnum, rnum = _numeric(left), _numeric(right)
            if op == "+":
                return lnum + rnum
            if op == "-":
                return lnum - rnum
            if op == "*":
                return lnum * rnum
            if rnum == 0:
                raise _EvalError("division by zero")
            return lnum / rnum
        try:
            lnum, rnum = _numeric(left), _numeric(right)
            left, right = lnum, rnum
        except _EvalError:
            left, right = _as_node(left), _as_node(right)
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise _EvalError(f"unknown operator {op}")

    def _call(self, expression: FunctionCall, solution: Solution):
        name = expression.name.lower()
        args = expression.args
        if name == "bound":
            term = args[0]
            if isinstance(term, TermExpr) and isinstance(term.term, Var):
                return term.term.name in solution
            raise _EvalError("bound() needs a variable")
        if name == "lang":
            literal = _as_literal(self._value(args[0], solution))
            if literal is not None:
                return literal.language or ""
            return ""
        if name == "datatype":
            literal = _as_literal(self._value(args[0], solution))
            if literal is not None:
                return literal.datatype or "xsd:string"
            raise _EvalError("datatype() needs a literal")
        if name == "str":
            return _lexical(self._value(args[0], solution))
        if name == "regex":
            text = _lexical(self._value(args[0], solution))
            pattern_text = _lexical(self._value(args[1], solution))
            flags = 0
            if len(args) > 2:
                if "i" in _lexical(self._value(args[2], solution)):
                    flags |= _re.IGNORECASE
            return _re.search(pattern_text, text, flags) is not None
        if name == "sameterm":
            return _as_node(self._value(args[0], solution)) == _as_node(
                self._value(args[1], solution)
            )
        if name == "isiri" or name == "isuri":
            value = self._value(args[0], solution)
            return isinstance(value, str) and not value.startswith('"')
        if name == "isliteral":
            return _as_literal(self._value(args[0], solution)) is not None
        if name == "isblank":
            value = self._value(args[0], solution)
            return isinstance(value, str) and value.startswith("_:")
        raise _EvalError(f"unsupported function {expression.name}")

    # -- query evaluation --------------------------------------------------------------

    def evaluate_select(self, query: Query) -> List[Solution]:
        solutions = self.evaluate_pattern(query.pattern)
        modifier = query.modifier
        if modifier.group_by or query.aggregates_used():
            solutions = self._aggregate(query, solutions)
        elif query.projections:
            solutions = [
                self._project(query, solution) for solution in solutions
            ]
        if modifier.distinct or modifier.reduced:
            seen = set()
            unique: List[Solution] = []
            for solution in solutions:
                key = tuple(sorted((k, _as_node(v)) for k, v in solution.items()))
                if key not in seen:
                    seen.add(key)
                    unique.append(solution)
            solutions = unique
        for condition in reversed(modifier.order_by):
            def sort_key(solution, cond=condition):
                try:
                    value = self._value(cond.expression, solution)
                except _EvalError:
                    return (0, "")
                if isinstance(value, (int, float)):
                    return (1, value)
                return (2, _as_node(value))

            solutions = sorted(
                solutions, key=sort_key, reverse=condition.descending
            )
        offset = modifier.offset or 0
        if offset:
            solutions = solutions[offset:]
        if modifier.limit is not None:
            solutions = solutions[: modifier.limit]
        return solutions

    def _project(self, query: Query, solution: Solution) -> Solution:
        out: Solution = {}
        for projection in query.projections:
            if projection.expression is None:
                if projection.variable.name in solution:
                    out[projection.variable.name] = solution[
                        projection.variable.name
                    ]
            else:
                try:
                    out[projection.variable.name] = self._value(
                        projection.expression, solution
                    )
                except _EvalError:
                    pass
        return out

    def _aggregate(
        self, query: Query, solutions: List[Solution]
    ) -> List[Solution]:
        groups: Dict[tuple, List[Solution]] = {}
        for solution in solutions:
            key_parts = []
            for group_expr in query.modifier.group_by:
                try:
                    key_parts.append(_as_node(self._value(group_expr, solution)))
                except _EvalError:
                    key_parts.append(None)
            groups.setdefault(tuple(key_parts), []).append(solution)
        if not query.modifier.group_by:
            groups = {(): solutions} if solutions else {(): []}
        out: List[Solution] = []
        for key, members in groups.items():
            row: Solution = {}
            for group_expr, value in zip(query.modifier.group_by, key):
                if isinstance(group_expr, TermExpr) and isinstance(
                    group_expr.term, Var
                ):
                    if value is not None:
                        row[group_expr.term.name] = value
            for projection in query.projections:
                if projection.expression is None:
                    if members and projection.variable.name in members[0]:
                        row[projection.variable.name] = members[0][
                            projection.variable.name
                        ]
                    continue
                row[projection.variable.name] = self._aggregate_value(
                    projection.expression, members
                )
            keep = True
            for having in query.modifier.having:
                try:
                    if not self._aggregate_value(having, members):
                        keep = False
                except _EvalError:
                    keep = False
            if keep:
                out.append(row)
        return out

    def _aggregate_value(self, expression: Expression, members: List[Solution]):
        if isinstance(expression, FunctionCall) and expression.name in (
            "COUNT",
            "SUM",
            "AVG",
            "MIN",
            "MAX",
            "SAMPLE",
        ):
            values = []
            for member in members:
                if expression.args and isinstance(
                    expression.args[0], StarExpr
                ):
                    values.append(1)
                    continue
                try:
                    values.append(self._value(expression.args[0], member))
                except _EvalError:
                    continue
            if expression.distinct:
                seen = set()
                deduped = []
                for value in values:
                    key = _as_node(value)
                    if key not in seen:
                        seen.add(key)
                        deduped.append(value)
                values = deduped
            if expression.name == "COUNT":
                return len(values)
            if not values:
                raise _EvalError("aggregate over empty group")
            if expression.name == "SAMPLE":
                return values[0]
            numbers = [_numeric(v) for v in values]
            if expression.name == "SUM":
                return sum(numbers)
            if expression.name == "AVG":
                return sum(numbers) / len(numbers)
            if expression.name == "MIN":
                return min(numbers)
            return max(numbers)
        if isinstance(expression, Comparison):
            left = self._aggregate_value(expression.left, members)
            right = self._aggregate_value(expression.right, members)
            return Evaluator._compare_values(expression.op, left, right)
        if isinstance(expression, TermExpr) and members:
            return self._value(expression, members[0])
        raise _EvalError(f"cannot aggregate {expression!r}")

    @staticmethod
    def _compare_values(op: str, left, right):
        try:
            left, right = _numeric(left), _numeric(right)
        except _EvalError:
            left, right = _as_node(left), _as_node(right)
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise _EvalError(f"unknown operator {op}")

    def evaluate_ask(self, query: Query) -> bool:
        return bool(self.evaluate_pattern(query.pattern))

    def evaluate_construct(self, query: Query) -> TripleStore:
        result = TripleStore()
        for solution in self.evaluate_pattern(query.pattern):
            for template in query.construct_template:
                try:
                    s = _as_node(_term_value(template.subject, solution))
                    p = _as_node(_term_value(template.predicate, solution))
                    o = _as_node(_term_value(template.object, solution))
                except _EvalError:
                    continue
                result.add(s, p, o)
        return result

    def evaluate(self, query: Query):
        """Dispatch on the query type.  DESCRIBE is implementation-
        defined per the standard; ours returns the concise bounded
        description (all outgoing triples) of the described nodes."""
        if query.query_type == "SELECT":
            return self.evaluate_select(query)
        if query.query_type == "ASK":
            return self.evaluate_ask(query)
        if query.query_type == "CONSTRUCT":
            return self.evaluate_construct(query)
        if query.query_type == "DESCRIBE":
            result = TripleStore()
            nodes = []
            for term in query.describe_terms:
                if isinstance(term, IRI):
                    nodes.append(term.value)
                elif isinstance(term, Var):
                    for solution in self.evaluate_pattern(query.pattern):
                        if term.name in solution:
                            nodes.append(_as_node(solution[term.name]))
            for node in nodes:
                for s, p, o in self.store.triples(node, None, None):
                    result.add(s, p, o)
            return result
        raise UnsupportedFeatureError(
            f"unknown query type {query.query_type}"
        )


_NODE_LITERAL_RE = _re.compile(
    r'^"(?P<lexical>(?:[^"\\]|\\.)*)"(?:@(?P<lang>[A-Za-z\-]+)'
    r"|\^\^(?P<datatype>\S+))?$"
)


def parse_node_literal(text: str) -> Opt[Literal]:
    """Recover a :class:`Literal` from its node-string encoding
    (``'"30"^^xsd:integer'`` → ``Literal("30", datatype="xsd:integer")``).

    Store nodes are plain strings; literal-valued objects round-trip
    through :func:`str`, and this inverse lets filters see through it.
    """
    match = _NODE_LITERAL_RE.match(text)
    if match is None:
        return None
    return Literal(
        match.group("lexical"), match.group("lang"), match.group("datatype")
    )


def _as_literal(value) -> Opt[Literal]:
    if isinstance(value, Literal):
        return value
    if isinstance(value, str) and value.startswith('"'):
        return parse_node_literal(value)
    return None


def _lexical(value) -> str:
    """The lexical form: literals lose quotes/tags, other terms are
    rendered as-is."""
    literal = _as_literal(value)
    if literal is not None:
        return literal.lexical
    return str(value)


def _numeric(value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return value
    literal = _as_literal(value)
    if literal is not None:
        value = literal.lexical
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError as exc:
                raise _EvalError(str(exc)) from exc
    raise _EvalError(f"not numeric: {value!r}")


def query_predicates(query: Query) -> Opt[FrozenSet[str]]:
    """The store predicates evaluating ``query`` reads, or ``None`` when
    its answer may depend on the whole store: a variable predicate, a
    negated property set (it reads the vocabulary), a nullable path (its
    zero-length match reads the node set), DESCRIBE (it reads every
    triple of a node), and an EXISTS or sub-query (whose patterns this
    walk does not enter).

    Any store holding all triples of these predicates answers the query
    as the full store does; the sharded ``query`` op evaluates on a
    union of just them."""
    if query.query_type == "DESCRIBE":
        return None
    expressions = [p.expression for p in query.projections]
    expressions += query.modifier.group_by + query.modifier.having
    expressions += [c.expression for c in query.modifier.order_by]
    out = set()
    for node in query.pattern.walk():
        if isinstance(node, SubQuery):
            return None
        if isinstance(node, Filter):
            expressions.append(node.constraint)
        elif isinstance(node, Bind):
            expressions.append(node.expression)
        elif isinstance(node, TriplePattern):
            if not isinstance(node.predicate, IRI):
                return None
            out.add(node.predicate.value)
        elif isinstance(node, PathPattern):
            path = node.path
            if path_to_regex(path, ()).nullable or any(
                isinstance(step, PathNegatedSet) for step in path.walk()
            ):
                return None
            out |= path.iris()
    if any(_mentions_exists(e) for e in expressions):
        return None
    return frozenset(out)


def _mentions_exists(expression) -> bool:
    if isinstance(expression, ExistsExpr):
        return True
    if isinstance(expression, Comparison):
        return _mentions_exists(expression.left) or _mentions_exists(
            expression.right
        )
    if isinstance(expression, BoolExpr):
        return any(_mentions_exists(e) for e in expression.operands)
    if isinstance(expression, FunctionCall):
        return any(_mentions_exists(e) for e in expression.args)
    return False


def evaluate(store: TripleStore, query: Query, **kwargs):
    """Convenience one-shot evaluation."""
    return Evaluator(store, **kwargs).evaluate(query)
