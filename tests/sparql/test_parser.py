"""Tests for the SPARQL parser (repro.sparql.parser)."""

import pytest

from repro.errors import SPARQLParseError
from repro.sparql.ast import (
    And,
    Bind,
    BlankNode,
    Comparison,
    ExistsExpr,
    Filter,
    Graph,
    IRI,
    Literal,
    Minus,
    Optional as OptPattern,
    PathPattern,
    Service,
    SubQuery,
    TriplePattern,
    Union as UnionPattern,
    Values,
    Var,
)
from repro.sparql.parser import parse_query
from repro.sparql.paths_ast import (
    PathAlternative,
    PathAtom,
    PathInverse,
    PathNegatedSet,
    PathOptional,
    PathPlus,
    PathSequence,
    PathStar,
)

WIKIDATA_EXAMPLE = """
SELECT ?label ?coord ?subj
WHERE { ?subj wdt:P31/wdt:P279* wd:Q839954 .
        ?subj wdt:P625 ?coord .
        ?subj rdfs:label ?label FILTER(lang(?label)="en") }
"""


S, O = Var("s"), Var("o")


class TestQueryForms:
    def test_select(self):
        query = parse_query("SELECT ?x WHERE { ?x ?p ?o }")
        assert query.query_type == "SELECT"
        assert [p.variable.name for p in query.projections] == ["x"]

    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?x ?p ?o }")
        assert query.select_star()

    def test_select_distinct(self):
        query = parse_query("SELECT DISTINCT ?x WHERE { ?x ?p ?o }")
        assert query.modifier.distinct

    def test_select_reduced(self):
        query = parse_query("SELECT REDUCED ?x WHERE { ?x ?p ?o }")
        assert query.modifier.reduced

    def test_ask(self):
        query = parse_query("ASK { ?x ?p ?o }")
        assert query.query_type == "ASK"

    def test_construct(self):
        query = parse_query(
            "CONSTRUCT { ?s <knows> ?o } WHERE { ?s <met> ?o }"
        )
        assert query.query_type == "CONSTRUCT"
        assert len(query.construct_template) == 1

    def test_describe(self):
        query = parse_query("DESCRIBE <thing>")
        assert query.query_type == "DESCRIBE"
        assert query.describe_terms == (IRI("<thing>"),)

    def test_prologue(self):
        query = parse_query(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
            "BASE <http://example.org/>\n"
            "SELECT ?x WHERE { ?x foaf:knows ?y }"
        )
        assert query.query_type == "SELECT"

    def test_where_optional_keyword(self):
        assert parse_query("SELECT * { ?s ?p ?o }").query_type == "SELECT"

    def test_paper_example(self):
        query = parse_query(WIKIDATA_EXAMPLE)
        paths = [
            node
            for node in query.pattern.walk()
            if isinstance(node, PathPattern)
        ]
        assert len(paths) == 1
        assert isinstance(paths[0].path, PathSequence)


class TestTriples:
    def test_plain_triple(self):
        query = parse_query("SELECT * WHERE { ?s <p> <o> }")
        triple = query.pattern
        assert isinstance(triple, TriplePattern)
        assert triple.predicate == IRI("<p>")

    def test_a_shorthand(self):
        query = parse_query("SELECT * WHERE { ?s a <Person> }")
        assert query.pattern.predicate == IRI("rdf:type")

    def test_predicate_object_list(self):
        query = parse_query("SELECT * WHERE { ?s <p> ?a ; <q> ?b }")
        triples = [
            node
            for node in query.pattern.walk()
            if isinstance(node, TriplePattern)
        ]
        assert len(triples) == 2
        assert all(t.subject == Var("s") for t in triples)

    def test_object_list(self):
        query = parse_query("SELECT * WHERE { ?s <p> ?a , ?b , ?c }")
        triples = [
            node
            for node in query.pattern.walk()
            if isinstance(node, TriplePattern)
        ]
        assert len(triples) == 3

    def test_left_deep_and(self):
        query = parse_query("SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d }")
        assert isinstance(query.pattern, And)
        assert isinstance(query.pattern.left, And)

    def test_literals(self):
        query = parse_query(
            'SELECT * WHERE { ?s <p> "text" . ?s <q> 42 . ?s <r> 3.5 . '
            '?s <t> "hi"@en . ?s <u> "5"^^xsd:int . ?s <v> true }'
        )
        literals = [
            node.object
            for node in query.pattern.walk()
            if isinstance(node, TriplePattern)
        ]
        assert Literal("text") in literals
        assert Literal("42", datatype="xsd:integer") in literals
        assert Literal("hi", language="en") in literals
        assert Literal("5", datatype="xsd:int") in literals
        assert Literal("true", datatype="xsd:boolean") in literals

    def test_blank_nodes(self):
        query = parse_query("SELECT * WHERE { _:b <p> [] }")
        triple = query.pattern
        assert isinstance(triple.subject, BlankNode)
        assert isinstance(triple.object, BlankNode)


class TestOperators:
    def test_optional(self):
        query = parse_query(
            "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } }"
        )
        assert isinstance(query.pattern, OptPattern)

    def test_union(self):
        query = parse_query(
            "SELECT * WHERE { { ?a <p> ?b } UNION { ?a <q> ?b } }"
        )
        assert isinstance(query.pattern, UnionPattern)

    def test_three_way_union(self):
        query = parse_query(
            "SELECT * WHERE { { ?a <p> ?b } UNION { ?a <q> ?b } "
            "UNION { ?a <r> ?b } }"
        )
        assert isinstance(query.pattern, UnionPattern)
        assert isinstance(query.pattern.left, UnionPattern)

    def test_filter(self):
        query = parse_query("SELECT * WHERE { ?x <p> ?y FILTER(?y > 3) }")
        assert isinstance(query.pattern, Filter)
        assert isinstance(query.pattern.constraint, Comparison)

    def test_minus(self):
        query = parse_query(
            "SELECT * WHERE { ?x <p> ?y MINUS { ?x <q> ?y } }"
        )
        assert isinstance(query.pattern, Minus)

    def test_graph(self):
        query = parse_query(
            "SELECT * WHERE { GRAPH ?g { ?x <p> ?y } }"
        )
        assert isinstance(query.pattern, Graph)

    def test_service(self):
        query = parse_query(
            "SELECT * WHERE { SERVICE <endpoint> { ?x <p> ?y } }"
        )
        assert isinstance(query.pattern, Service)
        assert not query.pattern.silent

    def test_service_silent(self):
        query = parse_query(
            "SELECT * WHERE { SERVICE SILENT <e> { ?x <p> ?y } }"
        )
        assert query.pattern.silent

    def test_bind(self):
        query = parse_query(
            "SELECT * WHERE { ?x <p> ?y BIND(?y + 1 AS ?z) }"
        )
        binds = [n for n in query.pattern.walk() if isinstance(n, Bind)]
        assert len(binds) == 1
        assert binds[0].variable == Var("z")

    def test_values_single_var(self):
        query = parse_query(
            "SELECT * WHERE { VALUES ?x { <a> <b> } ?x <p> ?y }"
        )
        values = [n for n in query.pattern.walk() if isinstance(n, Values)]
        assert len(values) == 1
        assert len(values[0].rows) == 2

    def test_values_multi_var_undef(self):
        query = parse_query(
            "SELECT * WHERE { VALUES (?x ?y) { (<a> UNDEF) (<b> <c>) } }"
        )
        values = query.pattern
        assert values.rows[0][1] is None

    def test_subquery(self):
        query = parse_query(
            "SELECT * WHERE { { SELECT ?x WHERE { ?x <p> ?y } LIMIT 2 } }"
        )
        assert isinstance(query.pattern, SubQuery)
        assert query.pattern.query.modifier.limit == 2

    def test_exists_in_filter(self):
        query = parse_query(
            "SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?y <q> ?z } }"
        )
        assert isinstance(query.pattern.constraint, ExistsExpr)
        assert not query.pattern.constraint.negated

    def test_not_exists(self):
        query = parse_query(
            "SELECT * WHERE { ?x <p> ?y FILTER NOT EXISTS { ?y <q> ?z } }"
        )
        assert query.pattern.constraint.negated


class TestPropertyPaths:
    def path_of(self, text):
        query = parse_query(f"SELECT * WHERE {{ ?s {text} ?o }}")
        node = query.pattern
        assert isinstance(node, PathPattern), text
        return node.path

    def test_sequence(self):
        path = self.path_of("<p>/<q>")
        assert isinstance(path, PathSequence)

    def test_alternative(self):
        path = self.path_of("<p>|<q>")
        assert isinstance(path, PathAlternative)

    def test_star_plus_optional(self):
        assert isinstance(self.path_of("<p>*"), PathStar)
        assert isinstance(self.path_of("<p>+"), PathPlus)
        from repro.sparql.paths_ast import PathOptional

        assert isinstance(self.path_of("<p>?"), PathOptional)

    def test_inverse(self):
        path = self.path_of("^<p>")
        assert isinstance(path, PathInverse)

    def test_negated_set(self):
        path = self.path_of("!(<p>|^<q>)")
        assert isinstance(path, PathNegatedSet)
        assert path.forward == ("<p>",)
        assert path.inverse == ("<q>",)

    def test_negated_single(self):
        path = self.path_of("!<p>")
        assert path.forward == ("<p>",)

    def test_wikidata_style(self):
        path = self.path_of("wdt:P31/wdt:P279*")
        assert isinstance(path, PathSequence)
        first, second = path.parts
        assert first == PathAtom("wdt:P31")
        assert isinstance(second, PathStar)

    def test_bare_iri_is_triple_not_path(self):
        query = parse_query("SELECT * WHERE { ?s <p> ?o }")
        assert isinstance(query.pattern, TriplePattern)

    def test_grouping(self):
        path = self.path_of("(<p>/<q>)+")
        assert isinstance(path, PathPlus)


class TestFastPaths:
    """A plain IRI predicate skips the path descent and a group reads
    its current token once; neither may change an AST or an error."""

    @pytest.mark.parametrize(
        "predicate, expected",
        [
            ("<p>", TriplePattern(S, IRI("<p>"), O)),
            (":p", TriplePattern(S, IRI(":p"), O)),
            ("a", TriplePattern(S, IRI("rdf:type"), O)),
            ("<p>*", PathPattern(S, PathStar(PathAtom("<p>")), O)),
            ("<p>+", PathPattern(S, PathPlus(PathAtom("<p>")), O)),
            ("<p>?", PathPattern(S, PathOptional(PathAtom("<p>")), O)),
            (
                "<p>/<q>",
                PathPattern(
                    S, PathSequence((PathAtom("<p>"), PathAtom("<q>"))), O
                ),
            ),
            (
                "<p>|<q>",
                PathPattern(
                    S,
                    PathAlternative((PathAtom("<p>"), PathAtom("<q>"))),
                    O,
                ),
            ),
            ("^<p>", PathPattern(S, PathInverse(PathAtom("<p>")), O)),
        ],
    )
    def test_predicate_ast(self, predicate, expected):
        query = parse_query(f"SELECT * WHERE {{ ?s {predicate} ?o }}")
        assert query.pattern == expected

    def test_lower_case_group_keywords_dispatch(self):
        query = parse_query(
            "SELECT * WHERE { ?s <p> ?o optional { ?o <q> ?x } "
            "filter(?x) minus { ?s <r> ?o } }"
        )
        assert isinstance(query.pattern, Filter)
        minus = query.pattern.pattern
        assert isinstance(minus, Minus)
        assert isinstance(minus.left, OptPattern)
        assert minus.left.left == TriplePattern(S, IRI("<p>"), O)
        assert minus.right == TriplePattern(S, IRI("<r>"), O)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            (
                "SELECT * WHERE { ?s <p> }",
                "unexpected token '}' (at position 24)",
                24,
            ),
            (
                "SELECT * WHERE { ?s <p> ?o optional }",
                "expected '{' (at position 36)",
                36,
            ),
        ],
    )
    def test_error_unchanged(self, text, message, position):
        with pytest.raises(SPARQLParseError) as info:
            parse_query(text)
        assert (str(info.value), info.value.position) == (message, position)


class TestModifiers:
    def test_limit_offset(self):
        query = parse_query("SELECT * WHERE { ?s ?p ?o } LIMIT 7 OFFSET 3")
        assert query.modifier.limit == 7
        assert query.modifier.offset == 3

    def test_order_by(self):
        query = parse_query(
            "SELECT * WHERE { ?s ?p ?o } ORDER BY DESC(?o) ?s"
        )
        assert len(query.modifier.order_by) == 2
        assert query.modifier.order_by[0].descending
        assert not query.modifier.order_by[1].descending

    def test_group_by_having(self):
        query = parse_query(
            "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } "
            "GROUP BY ?s HAVING (COUNT(*) > 1)"
        )
        assert len(query.modifier.group_by) == 1
        assert len(query.modifier.having) == 1
        assert query.aggregates_used() == {"COUNT"}

    def test_aggregate_distinct(self):
        query = parse_query(
            "SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ?p ?o }"
        )
        assert query.projections[0].expression.distinct


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "FROB { }",
            "SELECT WHERE { ?s ?p ?o }",
            "SELECT * WHERE { ?s ?p }",
            "SELECT * WHERE { ?s ?p ?o",
            "SELECT * WHERE { ?s ?p ?o } trailing",
            "SELECT * WHERE { FILTER }",
            "SELECT * WHERE { VALUES (?x) { (<a> <b>) } }",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(SPARQLParseError):
            parse_query(text)

    def test_error_position(self):
        with pytest.raises(SPARQLParseError) as info:
            parse_query("SELECT * WHERE { ?s ?p ?o } trailing")
        assert info.value.position is not None
