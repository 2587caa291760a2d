"""Compiled regular-path-query plans: the performance layer under
:mod:`repro.graphs.paths`.

The seed evaluator re-derived the Glushkov automaton on every call and
walked string-keyed dict indexes one source at a time, allocating a
fresh ``frozenset`` per step.  At the corpus scales the paper's studies
operate on (hundreds of millions of queries, million-triple graphs)
that is the difference between minutes and days.  This module compiles
an expression once into a :class:`CompiledRPQ` plan and evaluates it on
the store's integer-interned indexes:

* **Plan cache** — ``glushkov(expr)`` is computed once per canonical
  expression (keyed by a stable structural AST key, LRU-bounded;
  see :func:`configure_plan_cache`).
* **Bitmask state sets** — automaton state sets are ``int`` bitmasks;
  per-label transition tables map a state to the bitmask of successor
  states, so the product BFS steps with integer ``|``/``&`` instead of
  ``FrozenSet[int]`` churn.  Repeated (state set, label) steps hit a
  per-plan memo that persists across queries.
* **Small-automaton determinization** — plans whose Glushkov automaton
  is small also carry a trimmed DFA (dead states marked); the product
  BFS and the simple-path/trail DFS then track a single int per
  automaton component and prune dead prefixes.
* **Alphabet restriction** — at evaluation time the plan keeps only the
  atoms whose predicate actually occurs in the store, resolved straight
  to the store's per-predicate integer adjacency dicts; all-pairs
  evaluation additionally restricts sources to nodes with a productive
  first edge.
* **Multi-source evaluation** — for cyclic automata (unbounded walks,
  where per-source reachable sets are large and overlap) the all-pairs
  case (``sources=None``) collapses the n per-source BFS runs of the
  reference into one frontier propagation over the product graph that
  carries a *source bitmask* per (node, state) vertex; bounded-walk
  (acyclic) automata keep the pruned per-source BFS, whose frontiers
  are tiny.

All entry points return exactly the same answers as the reference
procedures in :mod:`repro.graphs.paths` (enforced by the randomized
equivalence tests in ``tests/graphs/test_engine_equivalence.py``).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from typing import Dict, FrozenSet, Iterable, List, Optional as Opt, Set, Tuple

from ..regex.ast import (
    Concat,
    Empty,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)
from ..regex.automata import glushkov
from .rdf import TripleStore

#: Determinize plans whose NFA has at most this many states …
_DFA_STATE_LIMIT = 24
#: … aborting if the subset construction exceeds this many DFA states.
_DFA_BLOWUP_LIMIT = 512
#: Bound on the per-plan (label, state-set) -> state-set step memo.
_STEP_MEMO_LIMIT = 8192


def predicates_read(labels: Iterable[str]) -> FrozenSet[str]:
    """The store predicates RPQ atoms read: an inverse atom ``^p`` walks
    ``p``'s edges backwards, so it reads ``p``."""
    return frozenset(
        label[1:] if label.startswith("^") else label for label in labels
    )


def ast_key(expr: Regex) -> Tuple:
    """A stable structural key for an expression.

    Two expressions share a key iff they are syntactically identical, so
    the key is safe to use as a cache key across processes and sessions
    (unlike ``id``-based keys) and never collides across node types.
    """
    if isinstance(expr, Symbol):
        return ("sym", expr.label)
    if isinstance(expr, Empty):
        return ("empty",)
    if isinstance(expr, Epsilon):
        return ("eps",)
    if isinstance(expr, Concat):
        return ("cat",) + tuple(ast_key(p) for p in expr.parts)
    if isinstance(expr, Union):
        return ("alt",) + tuple(ast_key(p) for p in expr.parts)
    if isinstance(expr, Star):
        return ("star", ast_key(expr.child))
    if isinstance(expr, Plus):
        return ("plus", ast_key(expr.child))
    if isinstance(expr, Optional):
        return ("opt", ast_key(expr.child))
    raise TypeError(f"unknown node {expr!r}")


def _iter_bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(states: Iterable[int]) -> int:
    mask = 0
    for state in states:
        mask |= 1 << state
    return mask


def _topological_order(successors: List[Iterable[int]]) -> List[int]:
    """Kahn's in-degree count over states ``0 .. n-1``: the states in
    topological order, leaving out every state on or behind a cycle.
    Iterative, so automata with thousands of states cannot exhaust the
    interpreter stack."""
    indegree = [0] * len(successors)
    for targets in successors:
        for nxt in targets:
            indegree[nxt] += 1
    queue = deque(q for q, degree in enumerate(indegree) if not degree)
    order: List[int] = []
    while queue:
        q = queue.popleft()
        order.append(q)
        for nxt in successors[q]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                queue.append(nxt)
    return order


#: one resolved atom: (label, NFA delta table, adjacency, pid, inverse)
_Step = Tuple[str, List[int], Dict[int, List[int]], int, bool]


def _specialize_dfa_rows(
    table: List[Dict[str, int]], finals_mask: int, steps: List[_Step]
) -> Tuple:
    """Per-DFA-state step rows: for each state, the usable
    ``(adjacency, next state, accepting)`` tuples: "which steps apply
    in this state and where do they go" is answered once per plan/store
    pair instead of by a label lookup per (frontier item, step)."""
    rows = []
    for row in table:
        entries = []
        for label, _delta, adjacency, _pid, _inv in steps:
            nxt = row.get(label)
            if nxt is not None:
                entries.append(
                    (adjacency, nxt, bool(finals_mask & (1 << nxt)))
                )
        rows.append(tuple(entries))
    return tuple(rows)


def _chain_of(plan_order: Tuple, finals: Tuple[int, ...]):
    """If the acyclic plan is one linear chain of single-step states
    ending in its only final state, the adjacency maps to fold through,
    in order; ``None`` otherwise."""
    adjacencies = []
    expect = 0
    for state, entries in plan_order:
        if state != expect or len(entries) != 1:
            return None
        adjacency, nxt, _accepting = entries[0]
        adjacencies.append(adjacency)
        expect = nxt
    if not adjacencies or finals != (expect,):
        return None
    return adjacencies


def _make_chain_bfs(adjacencies: List[Dict[int, List[int]]]):
    """The specialized product-BFS closure for a linear-chain plan
    (``a.b.c``): fold the frontier through one adjacency map per hop —
    no state table, no visited bookkeeping (each hop dedupes into a
    fresh set), answers come straight out of the last fold."""
    first_get = adjacencies[0].get
    rest_gets = tuple(adjacency.get for adjacency in adjacencies[1:])

    def bfs_hits(sid: int) -> Set[int]:
        nodes = first_get(sid)
        if not nodes:
            return set()
        for adjacency_get in rest_gets:
            frontier: Set[int] = set()
            frontier_update = frontier.update
            for neighbours in map(adjacency_get, nodes):
                if neighbours:
                    frontier_update(neighbours)
            if not frontier:
                return frontier
            nodes = frontier
        # single-hop chains fall through with `nodes` still the raw
        # adjacency row (a list on live stores, a memoryview slice on
        # mapped images) — normalize anything that isn't already a set
        return nodes if type(nodes) is set else set(nodes)

    return bfs_hits


def _make_dfa_dag_bfs(rows: Tuple, finals_mask: int):
    """The specialized product-BFS closure for an *acyclic* DFA plan.

    With no cycles in the state graph, the per-level BFS collapses into
    one pass over the states in topological order, carrying the set of
    graph nodes reachable in each state: every transition becomes a
    single C-speed ``set.update(neighbours)`` per source-state node
    instead of a Python-level visited check per neighbour.  The
    node-sets computed this way are exactly the visited-(node, state)
    relation of a per-level product BFS, so the hit set is identical
    (state 0 is unreachable by edges in a DAG, so the seed never leaks
    into the answer)."""
    num_states = len(rows)
    topo = _topological_order(
        [[nxt for _adjacency, nxt, _accepting in entries] for entries in rows]
    )
    plan_order = tuple(
        (state, rows[state]) for state in topo if rows[state]
    )
    finals = tuple(
        state
        for state in topo
        if state and (finals_mask >> state) & 1
    )

    chain = _chain_of(plan_order, finals)
    if chain is not None:
        return _make_chain_bfs(chain)
    if len(finals) == 1:
        final_state = finals[0]

        def bfs_hits_single_final(sid: int) -> Set[int]:
            sets: List[Opt[Set[int]]] = [None] * num_states
            sets[0] = {sid}
            for state, entries in plan_order:
                nodes = sets[state]
                if not nodes:
                    continue
                for adjacency, nxt, _accepting in entries:
                    out = sets[nxt]
                    if out is None:
                        out = sets[nxt] = set()
                    out_update = out.update
                    for neighbours in map(adjacency.get, nodes):
                        if neighbours:
                            out_update(neighbours)
            nodes = sets[final_state]
            return nodes if nodes is not None else set()

        return bfs_hits_single_final

    def bfs_hits(sid: int) -> Set[int]:
        sets: List[Opt[Set[int]]] = [None] * num_states
        sets[0] = {sid}
        for state, entries in plan_order:
            nodes = sets[state]
            if not nodes:
                continue
            for adjacency, nxt, _accepting in entries:
                out = sets[nxt]
                if out is None:
                    out = sets[nxt] = set()
                out_update = out.update
                for neighbours in map(adjacency.get, nodes):
                    if neighbours:
                        out_update(neighbours)
        hits: Set[int] = set()
        for state in finals:
            nodes = sets[state]
            if nodes:
                hits |= nodes
        return hits

    return bfs_hits


def _make_dfa_bfs(rows: Tuple):
    """The specialized product-BFS closure for a DFA plan.

    The frontier is grouped *per automaton state* (state -> node list)
    rather than held as (node, state) tuples: step dispatch, the target
    visited-set, and the accepting flag hoist out of the per-node loop,
    and visitedness is one set membership per (node, state) instead of
    bitmask dict arithmetic.  Visit order differs from a tuple-frontier
    BFS but the visited-(node, state) relation — and therefore the hit
    set — is identical."""
    num_states = len(rows)

    def bfs_hits(sid: int) -> Set[int]:
        visited: List[Opt[Set[int]]] = [None] * num_states
        visited[0] = {sid}
        current: Dict[int, List[int]] = {0: [sid]}
        hits: Set[int] = set()
        hits_add = hits.add
        while current:
            advanced: Dict[int, List[int]] = {}
            for state, nodes in current.items():
                for adjacency, nxt, accepting in rows[state]:
                    seen = visited[nxt]
                    if seen is None:
                        seen = visited[nxt] = set()
                    seen_add = seen.add
                    adjacency_get = adjacency.get
                    bucket = advanced.get(nxt)
                    for nid in nodes:
                        neighbours = adjacency_get(nid)
                        if not neighbours:
                            continue
                        for other in neighbours:
                            if other in seen:
                                continue
                            seen_add(other)
                            if bucket is None:
                                bucket = advanced[nxt] = []
                            bucket.append(other)
                            if accepting:
                                hits_add(other)
            current = advanced
        return hits

    return bfs_hits


def _make_nfa_bfs(
    steps: List[_Step],
    start_mask: int,
    finals_mask: int,
    memo: Dict[Tuple[str, int], int],
):
    """The specialized product-BFS closure for an NFA-only plan: the
    frontier is grouped per gained state-set, so the (label, state set)
    step memo — shared with the plan, persisting across queries — is
    probed once per (group, label) instead of once per frontier item."""
    spec = tuple(
        (label, delta, adjacency)
        for label, delta, adjacency, _pid, _inv in steps
    )
    limit = _STEP_MEMO_LIMIT

    def bfs_hits(sid: int) -> Set[int]:
        reached: Dict[int, int] = {sid: start_mask}
        reached_get = reached.get
        current: Dict[int, List[int]] = {start_mask: [sid]}
        hits: Set[int] = set()
        hits_add = hits.add
        memo_get = memo.get
        while current:
            advanced: Dict[int, List[int]] = {}
            advanced_get = advanced.get
            for mask, nodes in current.items():
                for label, delta, adjacency in spec:
                    key = (label, mask)
                    targets = memo_get(key)
                    if targets is None:
                        targets = 0
                        rest = mask
                        while rest:
                            low = rest & -rest
                            targets |= delta[low.bit_length() - 1]
                            rest ^= low
                        if len(memo) >= limit:
                            memo.clear()
                        memo[key] = targets
                    if not targets:
                        continue
                    adjacency_get = adjacency.get
                    for nid in nodes:
                        neighbours = adjacency_get(nid)
                        if not neighbours:
                            continue
                        for other in neighbours:
                            old = reached_get(other, 0)
                            gained = targets & ~old
                            if gained:
                                reached[other] = old | gained
                                bucket = advanced_get(gained)
                                if bucket is None:
                                    bucket = advanced[gained] = []
                                bucket.append(other)
                                if gained & finals_mask:
                                    hits_add(other)
            current = advanced
        return hits

    return bfs_hits


class _SpecializedPlan:
    """The specialized artifacts for one (plan, resolved steps) pair:
    the product-BFS closure and the per-state propagation rows."""

    __slots__ = ("bfs_hits", "prop_rows")

    def __init__(self, plan: "CompiledRPQ", steps: List[_Step]):
        if plan.dfa_table is not None:
            rows = _specialize_dfa_rows(
                plan.dfa_table, plan.dfa_finals_mask, steps
            )
            if plan.cyclic:
                self.bfs_hits = _make_dfa_bfs(rows)
            else:
                self.bfs_hits = _make_dfa_dag_bfs(
                    rows, plan.dfa_finals_mask
                )
            self.prop_rows = tuple(
                tuple(
                    (adjacency, (row[label],))
                    for label, _delta, adjacency, _pid, _inv in steps
                    if label in row
                )
                for row in plan.dfa_table
            )
        else:
            self.bfs_hits = _make_nfa_bfs(
                steps, plan.start_mask, plan.finals_mask, plan._step_memo
            )
            self.prop_rows = tuple(
                tuple(
                    (adjacency, tuple(_iter_bits(delta[q])))
                    for _label, delta, adjacency, _pid, _inv in steps
                    if delta[q]
                )
                for q in range(plan.num_states)
            )


class CompiledRPQ:
    """A compiled evaluation plan for one regular path expression."""

    __slots__ = (
        "expr",
        "nfa",
        "num_states",
        "start_mask",
        "finals_mask",
        "accepts_empty",
        "atoms",
        "deltas",
        "dfa_table",
        "dfa_finals_mask",
        "cyclic",
        "_step_memo",
        "_atoms_cache",
        "_special_cache",
    )

    def __init__(self, expr: Regex):
        self.expr = expr
        nfa = glushkov(expr)
        self.nfa = nfa
        self.num_states = nfa.num_states
        start = nfa.epsilon_closure(nfa.initial)
        self.start_mask = _mask_of(start)
        self.finals_mask = _mask_of(nfa.finals)
        self.accepts_empty = bool(self.start_mask & self.finals_mask)
        # per-label transition tables: deltas[label][q] is the bitmask of
        # states reachable from q by reading label (epsilon-closed)
        self.atoms: List[str] = sorted(nfa.alphabet)
        self.deltas: Dict[str, List[int]] = {}
        for label in self.atoms:
            table = []
            for q in range(nfa.num_states):
                targets = nfa.transitions[q].get(label)
                if targets:
                    table.append(_mask_of(nfa.epsilon_closure(targets)))
                else:
                    table.append(0)
            self.deltas[label] = table
        # dfa_table[q][label] -> next dfa state; only live (final-reaching)
        # states are kept, so a missing entry means "dead end, prune"
        self.dfa_table: Opt[List[Dict[str, int]]] = None
        self.dfa_finals_mask = 0
        if nfa.num_states <= _DFA_STATE_LIMIT:
            self._try_determinize()
        self.cyclic = self._has_productive_cycle()
        self._step_memo: Dict[Tuple[str, int], int] = {}
        self._atoms_cache: Opt[Tuple] = None
        self._special_cache: Opt[Tuple[List[_Step], _SpecializedPlan]] = None

    # -- compilation -------------------------------------------------------------

    def _try_determinize(self) -> None:
        """Bounded subset construction over the bitmask tables, trimmed
        to live states (those from which a final state is reachable)."""
        index: Dict[int, int] = {self.start_mask: 0}
        table: List[Dict[str, int]] = [{}]
        finals: Set[int] = set()
        if self.accepts_empty:
            finals.add(0)
        queue = deque([self.start_mask])
        while queue:
            mask = queue.popleft()
            src = index[mask]
            for label in self.atoms:
                delta = self.deltas[label]
                rest = mask
                nxt = 0
                while rest:
                    low = rest & -rest
                    nxt |= delta[low.bit_length() - 1]
                    rest ^= low
                if not nxt:
                    continue
                if nxt not in index:
                    if len(index) >= _DFA_BLOWUP_LIMIT:
                        return  # plan stays NFA-only
                    index[nxt] = len(table)
                    table.append({})
                    if nxt & self.finals_mask:
                        finals.add(index[nxt])
                    queue.append(nxt)
                table[src][label] = index[nxt]
        # trim dead states: reverse reachability from the finals
        reverse: List[Set[int]] = [set() for _ in table]
        for src, row in enumerate(table):
            for dst in row.values():
                reverse[dst].add(src)
        alive = set(finals)
        stack = list(finals)
        while stack:
            state = stack.pop()
            for prev in reverse[state]:
                if prev not in alive:
                    alive.add(prev)
                    stack.append(prev)
        self.dfa_table = [
            {
                label: dst
                for label, dst in row.items()
                if dst in alive
            }
            if src in alive
            else {}
            for src, row in enumerate(table)
        ]
        self.dfa_finals_mask = _mask_of(finals)

    def _has_productive_cycle(self) -> bool:
        """Whether the automaton can loop — i.e. the language contains
        unboundedly long words.  Bounded-walk plans keep cheap per-source
        BFS for all-pairs; looping plans switch to the multi-source
        propagation (their per-source reachable sets are large and
        heavily shared)."""
        successors: List[Iterable[int]]
        if self.dfa_table is not None:
            successors = [row.values() for row in self.dfa_table]
        else:
            successors = []
            for q in range(self.num_states):
                mask = 0
                for delta in self.deltas.values():
                    mask |= delta[q]
                successors.append(list(_iter_bits(mask)))
        return len(_topological_order(successors)) < len(successors)

    # -- store-side resolution --------------------------------------------------

    def _resolve_atoms(self, store: TripleStore) -> List[_Step]:
        """The alphabet restriction: atoms whose predicate exists in the
        store, resolved to (label, delta table, adjacency, pid, inverse).

        Memoized per (store, mutation version) — on repeated-expression
        workloads every query after the first skips the resolution."""
        cached = self._atoms_cache
        if cached is not None:
            store_ref, version, steps = cached
            if store_ref() is store and version == store.version:
                return steps
        steps = []
        for label in self.atoms:
            if label.startswith("^"):
                pid = store.predicate_id(label[1:])
                if pid is None:
                    continue
                adjacency = store.backward_adjacency(pid)
                inverse = True
            else:
                pid = store.predicate_id(label)
                if pid is None:
                    continue
                adjacency = store.forward_adjacency(pid)
                inverse = False
            if adjacency:
                steps.append(
                    (label, self.deltas[label], adjacency, pid, inverse)
                )
        self._atoms_cache = (weakref.ref(store), store.version, steps)
        return steps

    def _step_mask(self, label: str, delta: List[int], mask: int) -> int:
        """Memoized (state set, label) -> state set transition."""
        memo = self._step_memo
        key = (label, mask)
        result = memo.get(key)
        if result is None:
            result = 0
            rest = mask
            while rest:
                low = rest & -rest
                result |= delta[low.bit_length() - 1]
                rest ^= low
            if len(memo) >= _STEP_MEMO_LIMIT:
                memo.clear()
            memo[key] = result
        return result

    # -- walk semantics ----------------------------------------------------------

    def evaluate(
        self,
        store: TripleStore,
        sources: Opt[List[str]] = None,
        targets: Opt[Iterable[str]] = None,
    ) -> Set[Tuple[str, str]]:
        """All pairs (u, v) connected by a walk spelling a word of the
        language; identical to the reference product BFS.  ``targets``
        filters the answers, never the exploration."""
        target_filter = set(targets) if targets is not None else None
        steps = self._resolve_atoms(store)
        if sources is not None:
            return self._evaluate_sources(store, sources, steps, target_filter)
        return self._evaluate_all_pairs(store, steps, target_filter)

    def _specialized(self, steps: List[_Step]) -> _SpecializedPlan:
        """The specialized closures for ``steps``, built once per
        (store, mutation version): the ``steps`` list object itself is
        the :meth:`_resolve_atoms` memo value, so identity is the
        freshness check (holding it here also pins it against reuse)."""
        cached = self._special_cache
        if cached is not None and cached[0] is steps:
            return cached[1]
        special = _SpecializedPlan(self, steps)
        self._special_cache = (steps, special)
        return special

    def _evaluate_sources(
        self,
        store: TripleStore,
        sources: Iterable[str],
        steps: List[_Step],
        target_filter: Opt[Set[str]],
    ) -> Set[Tuple[str, str]]:
        """One bitmask BFS per requested source node."""
        answers: Set[Tuple[str, str]] = set()
        names = store.node_names()
        bfs_hits = self._specialized(steps).bfs_hits
        for source in sources:
            if self.accepts_empty and (
                target_filter is None or source in target_filter
            ):
                answers.add((source, source))
            sid = store.node_id(source)
            if sid is None:
                continue  # node outside the graph: no walks at all
            for nid in bfs_hits(sid):
                name = names[nid]
                if target_filter is None or name in target_filter:
                    answers.add((source, name))
        return answers

    def _start_labels(self, steps: List[_Step]) -> List[_Step]:
        """The steps usable on the very first transition."""
        if self.dfa_table is not None:
            row = self.dfa_table[0]
            return [step for step in steps if step[0] in row]
        start = self.start_mask
        return [
            step
            for step in steps
            if self._step_mask(step[0], step[1], start)
        ]

    def _productive_source_ids(self, steps: List[_Step]) -> List[int]:
        """Node ids with at least one usable first edge — the only nodes
        whose BFS can produce a non-trivial answer."""
        candidates: Set[int] = set()
        for _label, _delta, adjacency, _pid, _inv in self._start_labels(steps):
            candidates.update(adjacency.keys())
        return sorted(candidates)

    def _evaluate_all_pairs(
        self,
        store: TripleStore,
        steps: List[_Step],
        target_filter: Opt[Set[str]],
    ) -> Set[Tuple[str, str]]:
        names = store.node_names()
        answers: Set[Tuple[str, str]] = set()
        if self.accepts_empty:
            for name in names:
                if target_filter is None or name in target_filter:
                    answers.add((name, name))
        if not steps:
            return answers
        productive = self._productive_source_ids(steps)
        if not productive:
            return answers
        if self.cyclic:
            self._all_pairs_propagate(
                names, productive, steps, target_filter, answers
            )
        else:
            bfs_hits = self._specialized(steps).bfs_hits
            for sid in productive:
                source = names[sid]
                for nid in bfs_hits(sid):
                    name = names[nid]
                    if target_filter is None or name in target_filter:
                        answers.add((source, name))
        return answers

    def _all_pairs_propagate(
        self,
        names: List[str],
        productive: List[int],
        steps: List[_Step],
        target_filter: Opt[Set[str]],
        answers: Set[Tuple[str, str]],
    ) -> None:
        """Single multi-source frontier propagation over the product
        graph: every (node, state) vertex carries the bitmask of
        (productive) source nodes that reach it, so the n per-source BFS
        runs of the reference collapse into one pass of word-wide
        integer ORs."""
        if self.dfa_table is not None:
            num_states = len(self.dfa_table)
            start_states = [0]
            finals_mask = self.dfa_finals_mask
        else:
            num_states = self.num_states
            start_states = list(_iter_bits(self.start_mask))
            finals_mask = self.finals_mask
        # per-state (adjacency, decoded target states) rows: no label
        # dispatch and no bitmask decoding per dequeued vertex
        rows = self._specialized(steps).prop_rows
        # masks[nid * num_states + q] = bitmask over *compacted* source
        # indexes (bit i  <->  productive[i]) reaching (nid, q)
        masks: Dict[int, int] = {}
        pending: Dict[int, int] = {}
        queue: deque = deque()
        for position, sid in enumerate(productive):
            bit = 1 << position
            for q in start_states:
                key = sid * num_states + q
                masks[key] = masks.get(key, 0) | bit
                pending[key] = pending.get(key, 0) | bit
                queue.append(key)
        masks_get = masks.get
        pending_pop = pending.pop
        queue_append = queue.append
        while queue:
            key = queue.popleft()
            delta_sources = pending_pop(key, 0)
            if not delta_sources:
                continue
            nid, q = divmod(key, num_states)
            for adjacency, targets in rows[q]:
                neighbours = adjacency.get(nid)
                if not neighbours:
                    continue
                for other in neighbours:
                    base = other * num_states
                    for target in targets:
                        other_key = base + target
                        old = masks_get(other_key, 0)
                        gained = delta_sources & ~old
                        if gained:
                            masks[other_key] = old | gained
                            if other_key in pending:
                                pending[other_key] |= gained
                            else:
                                pending[other_key] = gained
                                queue_append(other_key)
        # a seeded start vertex with a final state only occurs when the
        # language is nullable, and those (u, u) pairs were added above,
        # so reading the raw masks never invents an answer
        for key, sources_mask in masks.items():
            nid, q = divmod(key, num_states)
            if not (finals_mask >> q) & 1:
                continue
            name = names[nid]
            if target_filter is not None and name not in target_filter:
                continue
            for position in _iter_bits(sources_mask):
                answers.add((names[productive[position]], name))

    # -- simple-path / trail search ------------------------------------------------

    def search(
        self,
        store: TripleStore,
        source: str,
        target: str,
        forbid_nodes: bool,
    ) -> bool:
        """Exact simple-path (``forbid_nodes``) or trail decision —
        the compiled counterpart of the reference DFS, identical result."""
        if source == target and self.accepts_empty:
            return True
        sid = store.node_id(source)
        tid = store.node_id(target)
        if sid is None or tid is None:
            return False
        steps = self._resolve_atoms(store)
        if not steps:
            return False
        if self.dfa_table is not None:
            return self._search_dfa(steps, sid, tid, forbid_nodes)
        return self._search_nfa(steps, sid, tid, forbid_nodes)

    def _search_dfa(
        self, steps: List[_Step], sid: int, tid: int, forbid_nodes: bool
    ) -> bool:
        table = self.dfa_table
        finals_mask = self.dfa_finals_mask
        used_nodes = {sid}
        used_edges: Set[Tuple[int, int, int]] = set()

        def dfs(nid: int, state: int) -> bool:
            row = table[state]
            if not row:
                return False
            for label, _delta, adjacency, pid, inverse in steps:
                next_state = row.get(label)
                if next_state is None:
                    continue
                neighbours = adjacency.get(nid)
                if not neighbours:
                    continue
                accepting = (finals_mask >> next_state) & 1
                for other in neighbours:
                    if forbid_nodes:
                        if other in used_nodes:
                            continue
                        if other == tid and accepting:
                            return True
                        used_nodes.add(other)
                        if dfs(other, next_state):
                            return True
                        used_nodes.discard(other)
                    else:
                        edge = (
                            (other, pid, nid) if inverse else (nid, pid, other)
                        )
                        if edge in used_edges:
                            continue
                        if other == tid and accepting:
                            return True
                        used_edges.add(edge)
                        if dfs(other, next_state):
                            return True
                        used_edges.discard(edge)
            return False

        return dfs(sid, 0)

    def _search_nfa(
        self, steps: List[_Step], sid: int, tid: int, forbid_nodes: bool
    ) -> bool:
        finals = self.finals_mask
        used_nodes = {sid}
        used_edges: Set[Tuple[int, int, int]] = set()
        step_mask = self._step_mask

        def dfs(nid: int, mask: int) -> bool:
            for label, delta, adjacency, pid, inverse in steps:
                next_mask = step_mask(label, delta, mask)
                if not next_mask:
                    continue
                neighbours = adjacency.get(nid)
                if not neighbours:
                    continue
                accepting = next_mask & finals
                for other in neighbours:
                    if forbid_nodes:
                        if other in used_nodes:
                            continue
                        if other == tid and accepting:
                            return True
                        used_nodes.add(other)
                        if dfs(other, next_mask):
                            return True
                        used_nodes.discard(other)
                    else:
                        edge = (
                            (other, pid, nid) if inverse else (nid, pid, other)
                        )
                        if edge in used_edges:
                            continue
                        if other == tid and accepting:
                            return True
                        used_edges.add(edge)
                        if dfs(other, next_mask):
                            return True
                        used_edges.discard(edge)
            return False

        return dfs(sid, self.start_mask)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

_cache_lock = threading.Lock()
_plan_cache: "OrderedDict[Tuple, CompiledRPQ]" = OrderedDict()
_plan_cache_maxsize = 256
_plan_cache_hits = 0
_plan_cache_misses = 0


def compile_rpq(expr: Regex) -> CompiledRPQ:
    """The compiled plan for ``expr``, from the LRU cache when possible.

    Plans are store-independent (the alphabet restriction is resolved
    per evaluation), so one cached plan serves every graph.
    """
    global _plan_cache_hits, _plan_cache_misses
    key = ast_key(expr)
    with _cache_lock:
        plan = _plan_cache.get(key)
        if plan is not None:
            _plan_cache.move_to_end(key)
            _plan_cache_hits += 1
            return plan
    plan = CompiledRPQ(expr)
    with _cache_lock:
        _plan_cache_misses += 1
        _plan_cache[key] = plan
        while len(_plan_cache) > _plan_cache_maxsize:
            _plan_cache.popitem(last=False)
    return plan


def configure_plan_cache(maxsize: int) -> None:
    """Set the plan cache bound (evicting LRU entries if shrinking)."""
    global _plan_cache_maxsize
    if maxsize < 1:
        raise ValueError("plan cache needs room for at least one plan")
    with _cache_lock:
        _plan_cache_maxsize = maxsize
        while len(_plan_cache) > _plan_cache_maxsize:
            _plan_cache.popitem(last=False)


def clear_plan_cache() -> None:
    global _plan_cache_hits, _plan_cache_misses
    with _cache_lock:
        _plan_cache.clear()
        _plan_cache_hits = 0
        _plan_cache_misses = 0


def plan_cache_info() -> Dict[str, int]:
    with _cache_lock:
        return {
            "hits": _plan_cache_hits,
            "misses": _plan_cache_misses,
            "size": len(_plan_cache),
            "maxsize": _plan_cache_maxsize,
        }
