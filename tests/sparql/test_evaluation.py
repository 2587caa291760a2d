"""Tests for SPARQL evaluation (repro.sparql.evaluation)."""

import pytest

from repro.errors import UnsupportedFeatureError
from repro.graphs.rdf import TripleStore
from repro.sparql.evaluation import Evaluator, evaluate
from repro.sparql.parser import parse_query


def store() -> TripleStore:
    return TripleStore(
        [
            ("<alice>", "<knows>", "<bob>"),
            ("<bob>", "<knows>", "<carol>"),
            ("<carol>", "<knows>", "<dave>"),
            ("<alice>", "<age>", '"30"^^xsd:integer'),
            ("<bob>", "<age>", '"25"^^xsd:integer'),
            ("<alice>", "<name>", '"Alice"'),
            ("<bob>", "<name>", '"Bob"'),
            ("<carol>", "<type>", "<Person>"),
        ]
    )


def run(text: str, data: TripleStore = None):
    return evaluate(data or store(), parse_query(text))


class TestBasicMatching:
    def test_single_triple(self):
        rows = run("SELECT ?x WHERE { ?x <knows> <bob> }")
        assert rows == [{"x": "<alice>"}]

    def test_join(self):
        rows = run("SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }")
        pairs = {(r["a"], r["c"]) for r in rows}
        assert pairs == {
            ("<alice>", "<carol>"),
            ("<bob>", "<dave>"),
        }

    def test_constant_subject(self):
        rows = run("SELECT ?y WHERE { <alice> <knows> ?y }")
        assert rows == [{"y": "<bob>"}]

    def test_variable_predicate(self):
        rows = run("SELECT ?p WHERE { <carol> ?p ?o }")
        assert {r["p"] for r in rows} == {"<knows>", "<type>"}

    def test_no_match(self):
        assert run("SELECT ?x WHERE { ?x <likes> ?y }") == []

    def test_shared_variable_selfjoin(self):
        rows = run("SELECT ?x WHERE { ?x <knows> ?x }")
        assert rows == []


class TestOperators:
    def test_union(self):
        rows = run(
            "SELECT ?x WHERE { { ?x <knows> <bob> } UNION "
            "{ ?x <knows> <dave> } }"
        )
        assert {r["x"] for r in rows} == {"<alice>", "<carol>"}

    def test_optional_binds_when_present(self):
        rows = run(
            "SELECT ?x ?n WHERE { ?x <knows> ?y OPTIONAL "
            "{ ?x <name> ?n } }"
        )
        by_x = {r["x"]: r.get("n") for r in rows}
        assert by_x["<alice>"] == '"Alice"'
        assert by_x["<carol>"] is None  # unbound stays absent

    def test_optional_keeps_row_when_absent(self):
        rows = run(
            "SELECT ?x WHERE { ?x <knows> ?y OPTIONAL { ?x <noprop> ?z } }"
        )
        assert len(rows) == 3

    def test_filter_comparison(self):
        rows = run(
            "SELECT ?x WHERE { ?x <age> ?a FILTER(?a > 26) }"
        )
        assert rows == [{"x": "<alice>"}]

    def test_filter_boolean_ops(self):
        rows = run(
            "SELECT ?x WHERE { ?x <age> ?a FILTER(?a > 20 && ?a < 28) }"
        )
        assert rows == [{"x": "<bob>"}]

    def test_filter_regex(self):
        rows = run(
            'SELECT ?x WHERE { ?x <name> ?n FILTER regex(?n, "^A") }'
        )
        assert rows == [{"x": "<alice>"}]

    def test_filter_bound(self):
        rows = run(
            "SELECT ?x WHERE { ?x <knows> ?y OPTIONAL { ?x <age> ?a } "
            "FILTER(bound(?a)) }"
        )
        assert {r["x"] for r in rows} == {"<alice>", "<bob>"}

    def test_filter_error_drops_row(self):
        # comparing a non-numeric literal numerically errors -> dropped
        rows = run("SELECT ?x WHERE { ?x <name> ?n FILTER(?n < 3) }")
        assert rows == []

    def test_minus(self):
        rows = run(
            "SELECT ?x WHERE { ?x <knows> ?y MINUS { ?x <age> ?a } }"
        )
        # alice and bob have ages -> removed? MINUS shares only ?x? no:
        # right side binds ?x and ?a; shared var ?x; compatible rows are
        # removed
        assert {r["x"] for r in rows} == {"<carol>"}

    def test_values_join(self):
        rows = run(
            "SELECT ?x ?y WHERE { VALUES ?x { <alice> <carol> } "
            "?x <knows> ?y }"
        )
        assert {(r["x"], r["y"]) for r in rows} == {
            ("<alice>", "<bob>"),
            ("<carol>", "<dave>"),
        }

    def test_bind(self):
        rows = run(
            "SELECT ?x ?b WHERE { ?x <age> ?a BIND(?a + 10 AS ?b) }"
        )
        values = {r["x"]: r["b"] for r in rows}
        assert values["<alice>"] == 40

    def test_exists_filter(self):
        rows = run(
            "SELECT ?x WHERE { ?x <knows> ?y FILTER EXISTS "
            "{ ?x <age> ?a } }"
        )
        assert {r["x"] for r in rows} == {"<alice>", "<bob>"}

    def test_not_exists_filter(self):
        rows = run(
            "SELECT ?x WHERE { ?x <knows> ?y FILTER NOT EXISTS "
            "{ ?x <age> ?a } }"
        )
        assert {r["x"] for r in rows} == {"<carol>"}

    def test_subquery(self):
        rows = run(
            "SELECT ?x WHERE { { SELECT ?x WHERE { ?x <knows> ?y } } "
            "?x <age> ?a }"
        )
        assert {r["x"] for r in rows} == {"<alice>", "<bob>"}

    def test_service_without_resolver(self):
        with pytest.raises(UnsupportedFeatureError):
            run(
                "SELECT * WHERE { SERVICE <remote> { ?x <p> ?y } }"
            )

    def test_service_silent_without_resolver(self):
        rows = run(
            "SELECT ?x WHERE { ?x <knows> <bob> "
            "SERVICE SILENT <remote> { ?x <p> ?y } }"
        )
        assert rows == [{"x": "<alice>"}]

    def test_service_with_resolver(self):
        def resolver(endpoint, pattern):
            assert endpoint == "<remote>"
            return [{"y": "<external>"}]

        evaluator = Evaluator(store(), service_resolver=resolver)
        query = parse_query(
            "SELECT ?x ?y WHERE { ?x <knows> <bob> "
            "SERVICE <remote> { ?y <p> ?z } }"
        )
        rows = evaluator.evaluate(query)
        assert rows == [{"x": "<alice>", "y": "<external>"}]


class TestPropertyPaths:
    def test_star(self):
        rows = run("SELECT ?y WHERE { <alice> <knows>* ?y }")
        assert {r["y"] for r in rows} == {
            "<alice>",
            "<bob>",
            "<carol>",
            "<dave>",
        }

    def test_plus(self):
        rows = run("SELECT ?y WHERE { <alice> <knows>+ ?y }")
        assert {r["y"] for r in rows} == {"<bob>", "<carol>", "<dave>"}

    def test_sequence(self):
        rows = run("SELECT ?y WHERE { <alice> <knows>/<knows> ?y }")
        assert rows == [{"y": "<carol>"}]

    def test_alternative(self):
        rows = run("SELECT ?o WHERE { <alice> <age>|<name> ?o }")
        assert len(rows) == 2

    def test_inverse(self):
        rows = run("SELECT ?x WHERE { <bob> ^<knows> ?x }")
        assert rows == [{"x": "<alice>"}]

    def test_negated_set(self):
        rows = run("SELECT ?o WHERE { <alice> !<knows> ?o }")
        assert {r["o"] for r in rows} == {'"30"^^xsd:integer', '"Alice"'}

    def test_both_endpoints_bound(self):
        rows = run("SELECT * WHERE { <alice> <knows>+ <dave> }")
        assert rows == [{}]

    def test_inverse_only_negated_set_walks_inverse_edges_only(self):
        data = TripleStore(
            [("<a>", "<p>", "<b>"), ("<a>", "<q>", "<c>"),
             ("<d>", "<q>", "<a>")]
        )
        rows = run("SELECT ?y WHERE { <a> !(^<p>) ?y }", data)
        assert rows == [{"y": "<d>"}]
        assert run("SELECT ?y WHERE { <a> !(^<q>) ?y }", data) == []

    def test_zero_length_path_at_a_bound_end_outside_the_store(self):
        rows = run("SELECT ?x WHERE { ?x <knows>* <zed> }")
        assert rows == [{"x": "<zed>"}]
        rows = run("SELECT ?y WHERE { <zed> <knows>? ?y }")
        assert rows == [{"y": "<zed>"}]

    def test_paths_run_on_cached_engine_plans(self):
        from repro.graphs.engine import plan_cache_info

        text = "SELECT ?x ?y WHERE { ?x <knows>/<knows> ?y }"
        first = run(text)
        hits = plan_cache_info()["hits"]
        assert run(text) == first
        assert plan_cache_info()["hits"] > hits


class TestQueryPredicates:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("SELECT ?x WHERE { ?x <p> ?y . ?y <q>/^<r> ?z }",
             {"<p>", "<q>", "<r>"}),
            ("SELECT ?x WHERE { ?x <p>+ ?y OPTIONAL { ?y <q> ?z } }",
             {"<p>", "<q>"}),
            ("ASK { <a> <p> ?y FILTER (?y != <b>) }", {"<p>"}),
            ("SELECT ?x WHERE { ?x ?p ?y }", None),
            ("SELECT ?x WHERE { ?x !<p> ?y }", None),
            ("SELECT ?x WHERE { <a> <p>* ?x }", None),
            ("SELECT ?x WHERE { ?x (<p>/<q>?)? ?y }", None),
            ("DESCRIBE <a>", None),
            ("SELECT ?x WHERE { ?x <p> ?y FILTER EXISTS { ?y <q> ?z } }",
             None),
            ("SELECT ?x WHERE { ?x <p> ?y "
             "{ SELECT ?y WHERE { ?y <q> ?z } } }", None),
        ],
    )
    def test_predicates_read(self, text, expected):
        from repro.sparql.evaluation import query_predicates

        result = query_predicates(parse_query(text))
        assert result == (None if expected is None else frozenset(expected))


class TestPatternExecutor:
    """The evaluator's data-access contract: a store holding only the
    triples of the predicates ``query_predicates`` names is a drop-in
    replacement for the full store."""

    def test_store_backed_executor_matches_direct_evaluation(self):
        from repro.sparql.evaluation import query_predicates

        data = store()
        for text in (
            "SELECT ?x ?y WHERE { ?x <knows> ?y }",
            "SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }",
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
            "SELECT ?x WHERE { <alice> <knows>+ ?x }",
            "ASK { ?x <type> <Person> }",
        ):
            query = parse_query(text)
            predicates = query_predicates(query)
            narrowed = TripleStore(
                t for t in data.triples()
                if predicates is None or t[1] in predicates
            )
            direct = Evaluator(data).evaluate(query)
            routed = Evaluator(narrowed).evaluate(query)
            if isinstance(direct, bool):
                assert routed == direct, text
            else:
                key = lambda row: sorted(row.items())
                assert sorted(routed, key=key) == sorted(direct, key=key)


class TestSolutionModifiers:
    def test_distinct(self):
        rows = run("SELECT DISTINCT ?p WHERE { ?s ?p ?o }")
        assert len(rows) == len({r["p"] for r in rows})

    def test_limit_offset(self):
        all_rows = run("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")
        window = run(
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 3 OFFSET 2"
        )
        assert window == all_rows[2:5]

    def test_order_by_desc(self):
        rows = run(
            "SELECT ?x ?a WHERE { ?x <age> ?a } ORDER BY DESC(?a)"
        )
        ages = [r["a"] for r in rows]
        assert ages == sorted(ages, key=str, reverse=True)

    def test_count_star(self):
        rows = run("SELECT (COUNT(*) AS ?n) WHERE { ?s <knows> ?o }")
        assert rows == [{"n": 3}]

    def test_group_by_count(self):
        rows = run(
            "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s"
        )
        counts = {r["s"]: r["n"] for r in rows}
        assert counts["<alice>"] == 3
        assert counts["<carol>"] == 2

    def test_sum_avg(self):
        rows = run(
            "SELECT (SUM(?a) AS ?total) (AVG(?a) AS ?mean) "
            "WHERE { ?x <age> ?a }"
        )
        assert rows[0]["total"] == 55
        assert rows[0]["mean"] == 27.5

    def test_having(self):
        rows = run(
            "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } "
            "GROUP BY ?s HAVING (COUNT(*) > 2)"
        )
        assert {r["s"] for r in rows} == {"<alice>", "<bob>"}

    def test_count_distinct(self):
        rows = run(
            "SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?s ?p ?o }"
        )
        assert rows == [{"n": 4}]


class TestOtherQueryTypes:
    def test_ask_true(self):
        assert run("ASK { <alice> <knows> <bob> }") is True

    def test_ask_false(self):
        assert run("ASK { <bob> <knows> <alice> }") is False

    def test_construct(self):
        result = run(
            "CONSTRUCT { ?x <friendOf> ?y } WHERE { ?x <knows> ?y }"
        )
        assert len(result) == 3
        assert ("<alice>", "<friendOf>", "<bob>") in result

    def test_describe(self):
        result = run("DESCRIBE <alice>")
        assert len(result) == 3
