"""Golden token-stream tests: the table-driven scanner must be
indistinguishable from the reference regex lexer — same token kinds,
texts, and positions on well-formed input, same error message and
position on malformed input."""

import json
from pathlib import Path

import pytest

from repro.errors import SPARQLParseError
from repro.logs.workload import ALL_PROFILES, generate_source_log
from repro.sparql.parser import tokenize
from repro.testing.reference import tokenize_reference

CORPUS_DIR = Path(__file__).parent.parent / "testing" / "corpus"

#: token-dense handwritten queries covering every token class
GOLDEN_QUERIES = [
    "SELECT * WHERE { ?s ?p ?o }",
    "PREFIX ex: <http://e/> SELECT * WHERE { ex:a.b ex:p ?o }",
    "SELECT * WHERE { ?s <http://x#y> 1.5e-3 . ?s <p> -2 }",
    'SELECT * WHERE { ?s :p "a\\nb\\"c"@en-GB . ?s :q \'x\' }',
    'SELECT * WHERE { ?s :p "caf\\u00e9"^^<http://t> }',
    "SELECT DISTINCT ?a WHERE { ?a a ex:T ; ex:p ?b , ?c }",
    "ASK { ?s (ex:p|^ex:q)+/ex:r* ?o }",
    "SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c } "
    "FILTER (?c > 3 && !BOUND(?b) || ?a != ?b) }",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s "
    "HAVING (COUNT(*) > 1) ORDER BY DESC(?n) LIMIT 10 OFFSET 5",
    "SELECT * WHERE { VALUES ?x { <a> UNDEF 2 } ?x ?p [] }",
    "SELECT * WHERE { ?a <p> ?b MINUS { ?a <q> ?b } }",
    "CONSTRUCT { ?s ex:p ?o } WHERE { ?s ex:q ?o }",
    "# leading comment\nSELECT * # trailing comment\nWHERE { ?s ?p ?o }",
    "SELECT * WHERE { _:b1 ?p true . _:b1 ?q false }",
    # an unclosed IRI is not a lex error: '<' falls back to the
    # comparison operator in both lexers, identically
    "SELECT * WHERE { ?s <p> <unclosed }",
]

MALFORMED_INPUTS = [
    "SELECT * WHERE { ?s \\ <p> ?o }",
    'SELECT * WHERE { ?s <p> "unterminated }',
    "SELECT * WHERE { ?s § ?o }",
    "SELECT * WHERE { ?s ?p ?o } \x00",
]


def stream(tokens):
    return [(token.kind, token.text, token.pos) for token in tokens]


@pytest.mark.parametrize("text", GOLDEN_QUERIES)
def test_golden_token_streams(text):
    assert stream(tokenize(text)) == stream(tokenize_reference(text))


@pytest.mark.parametrize("text", MALFORMED_INPUTS)
def test_error_parity(text):
    with pytest.raises(SPARQLParseError) as expected:
        tokenize_reference(text)
    with pytest.raises(SPARQLParseError) as actual:
        tokenize(text)
    assert actual.value.position == expected.value.position
    assert str(actual.value) == str(expected.value)


def _corpus_texts():
    """Every SPARQL text in the checked-in regression corpora."""
    texts = []
    for name in ("sparql-roundtrip", "lexer", "fused-battery"):
        path = CORPUS_DIR / f"{name}.jsonl"
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                if isinstance(entry.get("case"), str):
                    texts.append(entry["case"])
    return texts


def test_regression_corpus_parity():
    for text in _corpus_texts():
        try:
            expected = stream(tokenize_reference(text))
            expected_error = None
        except SPARQLParseError as exc:
            expected, expected_error = None, (str(exc), exc.position)
        try:
            actual = stream(tokenize(text))
            actual_error = None
        except SPARQLParseError as exc:
            actual, actual_error = None, (str(exc), exc.position)
        assert expected_error == actual_error, text
        assert expected == actual, text


def test_workload_parity():
    # the generated study corpora: the token mix the pipeline lexes
    for profile in ALL_PROFILES:
        for text in generate_source_log(profile, 40, seed=5):
            assert stream(tokenize(text)) == stream(
                tokenize_reference(text)
            ), text
