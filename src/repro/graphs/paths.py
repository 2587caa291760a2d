"""Regular path query evaluation over RDF graphs (Sections 9.2, 9.6).

Three semantics, mirroring the theory the paper surveys:

* **Homomorphism (walk) semantics** — what SPARQL property paths use:
  a pair (u, v) is an answer when *some walk* from u to v spells a word
  of the language.  :func:`evaluate_rpq` implements the classical
  product-of-graph-and-automaton BFS, polynomial in graph × automaton.
* **Simple-path semantics** — the walk must not repeat nodes.
  NP-complete in general (Mendelzon & Wood); tractable exactly for the
  class C_tract (Bagan, Bonifati & Groz).  :func:`exists_simple_path`
  is the exact (exponential worst-case) decision procedure, except on
  downward-closed chains, which it decides by walk semantics (cutting
  cycles out of a matching walk keeps the word in a subword-closed
  language, so walk-reachability and simple-path-reachability
  coincide — the tractability mechanism behind C_tract).
* **Trail semantics** — no repeated *edges* (the Cypher default);
  :func:`exists_trail` is the exact procedure, with the same
  downward-closed-chain route.

Two-way expressions (2RPQs) are supported by the inverse-atom
convention: a symbol ``^p`` traverses a ``p``-edge backwards.

Evaluation is delegated to the compiled-plan engine
(:mod:`repro.graphs.engine`): expressions are compiled once into
bitmask-stepping plans, cached per canonical AST, and run on the
store's integer-interned adjacency.  The original direct procedures are
kept as ``*_reference`` functions — they define the semantics, back the
randomized equivalence tests, and serve as the benchmark baseline.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, Optional as Opt, Set, Tuple

from ..regex.ast import Regex
from ..regex.automata import NFA, glushkov
from .engine import compile_rpq
from .rdf import TripleStore


def _step_graph(
    store: TripleStore, node: str, label: str
) -> FrozenSet[str]:
    """Successors of ``node`` under atom ``label`` (inverse-aware)."""
    if label.startswith("^"):
        return store.predecessors(node, label[1:])
    return store.successors(node, label)


def evaluate_rpq(
    store: TripleStore,
    expr: Regex,
    sources: Opt[Iterable[str]] = None,
    targets: Opt[Iterable[str]] = None,
) -> Set[Tuple[str, str]]:
    """All pairs (u, v) connected by a walk spelling a word of L(expr).

    Product BFS over (graph node, automaton state) using the compiled
    plan for ``expr``; when ``sources`` is given only those start nodes
    are explored.  ``targets`` filters the *answers*, not the
    exploration: the walk may pass through any node of the graph, and
    only the final (u, v) pairs are restricted to ``v in targets``.
    """
    if sources is not None:
        sources = list(sources)
        if not sources:
            return set()  # nothing to explore; skip compiling the plan
    return compile_rpq(expr).evaluate(store, sources, targets)


def evaluate_rpq_json(
    store: TripleStore,
    expr: Regex,
    sources: Opt[Iterable[str]] = None,
    targets: Opt[Iterable[str]] = None,
) -> Tuple[str, int]:
    """:func:`evaluate_rpq`'s answer as the compact JSON text of its
    sorted pair list, and the number of pairs: byte for byte
    ``json.dumps(sorted(pairs), ensure_ascii=False, separators=(",",
    ":"))``, made from node ids without building the set of pairs."""
    if sources is not None:
        sources = list(sources)
        if not sources:
            return "[]", 0
    return compile_rpq(expr).evaluate_json(store, sources, targets)


def evaluate_rpq_reference(
    store: TripleStore,
    expr: Regex,
    sources: Opt[Iterable[str]] = None,
    targets: Opt[Iterable[str]] = None,
) -> Set[Tuple[str, str]]:
    """The seed evaluator: uncompiled per-source product BFS over the
    string-keyed indexes.  Semantically authoritative, kept as the
    equivalence-test oracle and benchmark baseline."""
    nfa = glushkov(expr)
    start_states = nfa.epsilon_closure(nfa.initial)
    start_nodes = (
        list(sources) if sources is not None else sorted(store.nodes())
    )
    target_filter = set(targets) if targets is not None else None
    answers: Set[Tuple[str, str]] = set()
    for source in start_nodes:
        seen: Set[Tuple[str, int]] = {
            (source, state) for state in start_states
        }
        queue = deque(seen)
        if start_states & nfa.finals:
            if target_filter is None or source in target_filter:
                answers.add((source, source))
        while queue:
            node, state = queue.popleft()
            for label in nfa.transitions[state]:
                for next_state in nfa.transitions[state][label]:
                    for next_node in _step_graph(store, node, label):
                        pair = (next_node, next_state)
                        if pair in seen:
                            continue
                        seen.add(pair)
                        queue.append(pair)
                        if next_state in nfa.finals:
                            if (
                                target_filter is None
                                or next_node in target_filter
                            ):
                                answers.add((source, next_node))
    return answers


# ---------------------------------------------------------------------------
# Simple paths and trails (exact procedures)
# ---------------------------------------------------------------------------


def _search(
    store: TripleStore,
    nfa: NFA,
    source: str,
    target: str,
    forbid_nodes: bool,
) -> bool:
    """DFS over (node, state-set) with the visited-node or visited-edge
    set threaded through — exact but worst-case exponential."""
    start = nfa.epsilon_closure(nfa.initial)
    if source == target and (start & nfa.finals):
        return True

    def labels_from(states: FrozenSet[int]) -> Set[str]:
        out: Set[str] = set()
        for state in states:
            out.update(nfa.transitions[state].keys())
        return out

    def step_states(states: FrozenSet[int], label: str) -> FrozenSet[int]:
        return nfa.step(states, label)

    def dfs(
        node: str,
        states: FrozenSet[int],
        used_nodes: FrozenSet[str],
        used_edges: FrozenSet[Tuple[str, str, str]],
    ) -> bool:
        for label in sorted(labels_from(states)):
            next_states = step_states(states, label)
            if not next_states:
                continue
            for next_node in sorted(_step_graph(store, node, label)):
                if forbid_nodes and next_node in used_nodes:
                    continue
                if label.startswith("^"):
                    edge = (next_node, label[1:], node)
                else:
                    edge = (node, label, next_node)
                if not forbid_nodes and edge in used_edges:
                    continue
                if next_node == target and (next_states & nfa.finals):
                    return True
                if dfs(
                    next_node,
                    next_states,
                    used_nodes | {next_node},
                    used_edges | {edge},
                ):
                    return True
        return False

    return dfs(source, start, frozenset({source}), frozenset())


def exists_simple_path(
    store: TripleStore, expr: Regex, source: str, target: str
) -> bool:
    """Exact simple-path decision (no repeated nodes); NP-hard in
    general, fine on study-sized graphs, and one walk on
    downward-closed chains."""
    return compile_rpq(expr).search(store, source, target, forbid_nodes=True)


def exists_trail(
    store: TripleStore, expr: Regex, source: str, target: str
) -> bool:
    """Exact trail decision (no repeated edges); one walk on
    downward-closed chains."""
    return compile_rpq(expr).search(store, source, target, forbid_nodes=False)


def exists_simple_path_reference(
    store: TripleStore, expr: Regex, source: str, target: str
) -> bool:
    """Uncompiled simple-path decision (the equivalence-test oracle)."""
    return _search(store, glushkov(expr), source, target, forbid_nodes=True)


def exists_trail_reference(
    store: TripleStore, expr: Regex, source: str, target: str
) -> bool:
    """Uncompiled trail decision (the equivalence-test oracle)."""
    return _search(store, glushkov(expr), source, target, forbid_nodes=False)
