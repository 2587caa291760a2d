"""Tests for automata constructions (repro.regex.automata)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.regex.ast import Symbol
from repro.regex.automata import (
    glushkov,
    minimal_dfa,
    product_intersection,
)
from repro.regex.generators import random_regex
from repro.regex.parser import parse
from repro.regex.sampling import sample_word
from repro.testing.reference import thompson


def words(*texts):
    return [tuple(t) for t in texts]


class TestGlushkov:
    def test_accepts_basic(self):
        nfa = glushkov(parse("ab*c"))
        assert nfa.accepts(tuple("ac"))
        assert nfa.accepts(tuple("abbbc"))
        assert not nfa.accepts(tuple("bc"))
        assert not nfa.accepts(tuple("ab"))

    def test_epsilon_in_language(self):
        nfa = glushkov(parse("a*"))
        assert nfa.accepts(())
        assert nfa.accepts(tuple("aaa"))

    def test_state_count_is_positions_plus_one(self):
        nfa = glushkov(parse("(a+b)*a(a+b)"))
        # 5 symbol occurrences -> 6 states
        assert nfa.num_states == 6

    def test_no_epsilon_transitions(self):
        nfa = glushkov(parse("(a?b)*c+d?"))
        for trans in nfa.transitions:
            assert "" not in trans

    def test_nullable_middle_parts(self):
        # regression: a? a? between mandatory symbols must be transparent
        nfa = glushkov(parse("#a?a?#"))
        assert nfa.accepts(tuple("##"))
        assert nfa.accepts(tuple("#a#"))
        assert nfa.accepts(tuple("#aa#"))
        assert not nfa.accepts(tuple("#aaa#"))

    def test_nullable_chain_of_stars(self):
        nfa = glushkov(parse("a*b*c*d"))
        assert nfa.accepts(tuple("d"))
        assert nfa.accepts(tuple("ad"))
        assert nfa.accepts(tuple("cd"))
        assert nfa.accepts(tuple("abcd"))
        assert not nfa.accepts(tuple("ba"))

    def test_plus_of_nullable(self):
        nfa = glushkov(parse("(a?)+"))
        assert nfa.accepts(())
        assert nfa.accepts(tuple("aa"))


class TestThompson:
    def test_agrees_with_glushkov_on_fixed_cases(self):
        for text in ["ab*c", "(a+b)*a", "a?b?c?", "(ab+c)*", "a+"]:
            expr = parse(text)
            g, t = glushkov(expr), thompson(expr)
            for w in words("", "a", "b", "c", "ab", "ac", "abc", "abbc", "ca"):
                assert g.accepts(w) == t.accepts(w), (text, w)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_agrees_with_glushkov_randomized(self, seed):
        rng = random.Random(seed)
        expr = random_regex("abc", depth=3, rng=rng)
        g, t = glushkov(expr), thompson(expr)
        # sampled positive words must be accepted by both
        if not expr.matches_nothing():
            for _ in range(5):
                w = sample_word(expr, rng, max_repeat=4)
                assert g.accepts(w), (expr, w)
                assert t.accepts(w), (expr, w)
        # random words must get identical verdicts
        for _ in range(10):
            w = tuple(
                rng.choice("abc") for _ in range(rng.randint(0, 6))
            )
            assert g.accepts(w) == t.accepts(w), (expr, w)


class TestDeterminize:
    def test_complete_over_alphabet(self):
        dfa = glushkov(parse("ab")).determinize()
        for row in dfa.transitions:
            assert set(row) == {"a", "b"}

    def test_accepts_matches_nfa(self):
        expr = parse("(a+b)*abb")
        nfa = glushkov(expr)
        dfa = nfa.determinize()
        for w in words("abb", "aabb", "babb", "ab", "", "abba"):
            assert dfa.accepts(w) == nfa.accepts(w)

    def test_complement(self):
        dfa = glushkov(parse("a*")).determinize()
        comp = dfa.complement()
        assert not comp.accepts(())
        assert not comp.accepts(tuple("aa"))
        # complement over {a}: rejects everything -> empty
        assert comp.is_empty()


class TestMinimize:
    def test_minimal_sizes_known(self):
        # L = (a+b)*abb has the classical 4-state minimal DFA
        dfa = minimal_dfa(parse("(a+b)*abb"))
        assert dfa.num_states == 4

    def test_minimal_single_state(self):
        dfa = minimal_dfa(parse("(a+b)*"))
        assert dfa.num_states == 1
        assert dfa.finals == {0}

    def test_canonical_equivalent_expressions(self):
        d1 = minimal_dfa(parse("(a+b)*a"))
        d2 = minimal_dfa(parse("b*a(b*a)*"))
        assert d1.isomorphic_to(d2)

    def test_non_equivalent_not_isomorphic(self):
        d1 = minimal_dfa(parse("a*"))
        d2 = minimal_dfa(parse("a+"))
        assert not d1.isomorphic_to(d2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_minimize_preserves_language(self, seed):
        rng = random.Random(seed)
        expr = random_regex("ab", depth=3, rng=rng)
        nfa = glushkov(expr)
        dfa = nfa.determinize().minimize()
        for _ in range(12):
            w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            assert dfa.accepts(w) == nfa.accepts(w), (expr, w)


class TestProduct:
    def test_intersection_nonempty(self):
        a = glushkov(parse("a*b"))
        b = glushkov(parse("ab*"))
        product = product_intersection([a, b])
        assert product.accepts(tuple("ab"))
        assert not product.is_empty()

    def test_intersection_empty(self):
        a = glushkov(parse("aa"))
        b = glushkov(parse("bb"))
        product = product_intersection([a, b])
        assert product.is_empty()

    def test_three_way(self):
        autos = [
            glushkov(parse(t)) for t in ["a*b*", "(ab)*", "a?b?"]
        ]
        product = product_intersection(autos)
        assert product.accepts(())
        assert product.accepts(tuple("ab"))
        assert not product.accepts(tuple("ba"))


class TestShortestWord:
    def test_epsilon(self):
        assert glushkov(parse("a*")).shortest_accepted_word() == ()

    def test_nonempty(self):
        assert glushkov(parse("aab")).shortest_accepted_word() == (
            "a",
            "a",
            "b",
        )

    def test_empty_language(self):
        assert glushkov(parse("[]")).shortest_accepted_word() is None

    def test_picks_shorter_branch(self):
        w = glushkov(parse("aaa+b")).shortest_accepted_word()
        assert w == ("b",)


class TestReverse:
    def test_reverse_language(self):
        nfa = glushkov(parse("ab*c")).reverse()
        assert nfa.accepts(tuple("cba"))
        assert nfa.accepts(tuple("ca"))
        assert not nfa.accepts(tuple("ac"))
