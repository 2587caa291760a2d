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
* **One plan encoding** — every plan is ``(start mask, finals mask,
  per-label deltas, state count)``: automaton state sets are ``int``
  bitmasks and ``deltas[label][q]`` is the bitmask of states reached
  from ``q`` by reading ``label``.  Small automata go through a bounded
  subset construction, trimmed to live states, whose output is the same
  form with one bit per DFA state; larger ones keep the Glushkov
  tables.  The usable steps out of each state set are computed once per
  (plan, store) pair and reused across queries.
* **Alphabet restriction** — at evaluation time the plan keeps only the
  atoms whose predicate actually occurs in the store, resolved straight
  to the store's per-predicate integer adjacency dicts; all-pairs
  evaluation additionally restricts sources to nodes with a productive
  first edge, computed once per resolution.
* **Kernels by language shape** — a chain (``a.b.c``) folds the
  frontier through one adjacency map per hop, for given ``sources``
  and all pairs alike.  Any other plan answers all pairs with a
  level-synchronous multi-source BFS grouped per automaton state
  (MS-BFS) that carries a *source bitmask* per (node, state) vertex,
  one per batch of 256 productive sources, so a mask stays a few
  machine words wide.  For given ``sources`` an acyclic one takes one
  pass over its states in topological order and a cyclic one a mask
  BFS grouped per gained state set.  Simple paths and trails share one
  DFS, except downward-closed chains (the core of the tractable class
  C_tract), which one sourced walk decides exactly.
* **One readout, two views** — a walk's answer is read out as (source
  id, target id) pairs, none twice.  :meth:`CompiledRPQ.evaluate` maps
  them to a set of name pairs; :meth:`CompiledRPQ.evaluate_json` keys
  each pair ``rank[u] * n + rank[v]`` by the ranks of the names in the
  store's name order, so one integer sort puts the pairs in ``sorted``
  order, and joins each name's JSON text (encoded once per store) into
  the compact JSON of the sorted pair list.

All entry points return exactly the same answers as the reference
procedures in :mod:`repro.graphs.paths` (enforced by the randomized
equivalence tests in ``tests/graphs/test_engine_equivalence.py``).
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from collections import OrderedDict, deque
from itertools import repeat
from json.encoder import encode_basestring
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional as Opt,
    Set,
    Tuple,
)

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
from ..regex.chare import is_downward_closed_chain
from .rdf import TripleStore

#: Determinize plans whose NFA has at most this many states …
_DFA_STATE_LIMIT = 24
#: … aborting if the subset construction exceeds this many DFA states.
_DFA_BLOWUP_LIMIT = 512
#: Bound on the per-resolution state set -> usable steps table.
_MOVES_LIMIT = 8192
#: Sources per multi-source BFS batch: a source mask stays a few
#: machine words wide, where Python's integer ORs are cheap (MS-BFS
#: runs register-width batches too).
_BATCH_SOURCES = 256


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


def _step(delta: List[int], mask: int) -> int:
    """The state set reached from the state set ``mask`` by one
    transition of the per-state table ``delta``."""
    result = 0
    while mask:
        low = mask & -mask
        result |= delta[low.bit_length() - 1]
        mask ^= low
    return result


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


#: one resolved atom: (delta table, adjacency, pid, inverse)
_Step = Tuple[List[int], Dict[int, List[int]], int, bool]
#: per state, one (adjacency lookup, next state) entry per usable
#: transition out of it
_Entries = Tuple[Tuple[Tuple[Callable[[int], Opt[List[int]]], int], ...], ...]


def _chain_of(plan_order: Tuple, start: int, finals: Tuple[int, ...]):
    """If the acyclic plan is one linear chain of single-step states
    from ``start`` to its only final state, the adjacency lookups to
    fold through, in order; ``None`` otherwise."""
    gets = []
    expect = start
    for state, entries in plan_order:
        if state != expect or len(entries) != 1:
            return None
        adjacency_get, nxt = entries[0]
        gets.append(adjacency_get)
        expect = nxt
    if not gets or finals != (expect,):
        return None
    return gets


def _make_chain_bfs(gets: List[Callable[[int], Opt[List[int]]]]):
    """The walk kernel for a linear-chain plan (``a.b.c``): fold the
    frontier through one adjacency map per hop — no state table, no
    visited bookkeeping (each hop dedupes into a fresh set), answers
    come straight out of the last fold.  All-pairs walks run it once
    per productive source: on chains it beats the propagation."""
    first_get = gets[0]
    rest_gets = tuple(gets[1:])

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


def _acyclic_order(entries: _Entries, start_mask: int, finals_mask: int):
    """For an acyclic plan: its states with usable entries in
    topological order, its start states, and its final states other
    than the start states."""
    topo = _topological_order([[nxt for _get, nxt in row] for row in entries])
    plan_order = tuple(
        (state, entries[state]) for state in topo if entries[state]
    )
    finals = tuple(
        state
        for state in topo
        if (finals_mask >> state) & 1 and not (start_mask >> state) & 1
    )
    return plan_order, tuple(_iter_bits(start_mask)), finals


def _make_dag_bfs(num_states: int, plan_order: Tuple, starts: Tuple, finals: Tuple):
    """The walk kernel for an *acyclic* plan that is not a chain, from
    given sources (all-pairs walks propagate instead).

    With no cycles in the state graph, the per-level BFS collapses into
    one pass over the states in topological order, carrying the set of
    graph nodes reachable in each state: every transition becomes a
    single C-speed ``set.update(neighbours)`` per source-state node
    instead of a Python-level visited check per neighbour.  The
    node-sets computed this way are exactly the visited-(node, state)
    relation of a per-level product BFS, so the hit set is identical.
    The start state has no incoming transition (in the Glushkov
    automaton and in its subset construction alike), so its seed never
    leaks into the answer."""

    def bfs_hits(sid: int) -> Set[int]:
        sets: List[Opt[Set[int]]] = [None] * num_states
        for state in starts:
            sets[state] = {sid}
        for state, row in plan_order:
            nodes = sets[state]
            if not nodes:
                continue
            for adjacency_get, nxt in row:
                out = sets[nxt]
                if out is None:
                    out = sets[nxt] = set()
                out_update = out.update
                for neighbours in map(adjacency_get, nodes):
                    if neighbours:
                        out_update(neighbours)
        # the per-state sets are this call's own, so the first non-empty
        # final set can become the answer without a copy
        hits: Opt[Set[int]] = None
        for state in finals:
            nodes = sets[state]
            if nodes:
                if hits is None:
                    hits = nodes
                else:
                    hits |= nodes
        return hits if hits is not None else set()

    return bfs_hits


def _make_mask_bfs(moves, start_mask: int, finals_mask: int):
    """The walk kernel for a cyclic plan from given sources (all-pairs
    walks propagate instead): the frontier is grouped per gained state
    set, so the usable steps out of a state set are looked up once per
    group instead of once per frontier item."""

    def bfs_hits(sid: int) -> Set[int]:
        reached: Dict[int, int] = {sid: start_mask}
        reached_get = reached.get
        current: Dict[int, List[int]] = {start_mask: [sid]}
        hits: Set[int] = set()
        hits_add = hits.add
        while current:
            advanced: Dict[int, List[int]] = {}
            advanced_get = advanced.get
            for mask, nodes in current.items():
                for adjacency, targets, _pid, _inverse in moves(mask):
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


class _Resolved:
    """A plan resolved against one (store, mutation version): the usable
    steps, the per-state entries, the usable steps out of each state set
    met so far, the walk kernel for the plan's shape (``chain`` says
    whether it is the chain fold) and, once an all-pairs query asks,
    the productive sources.  Every kernel returns a set of its own,
    which the caller may change."""

    __slots__ = (
        "steps", "entries", "bfs_hits", "chain", "by_mask", "_productive"
    )

    def __init__(self, plan: "CompiledRPQ", steps: List[_Step]):
        self.steps = steps
        self.entries: _Entries = tuple(
            tuple(
                (adjacency.get, nxt)
                for delta, adjacency, _pid, _inverse in steps
                for nxt in _iter_bits(delta[q])
            )
            for q in range(plan.num_states)
        )
        self.by_mask: Dict[int, Tuple] = {}
        self._productive: Opt[List[int]] = None
        self.chain = False
        if plan.cyclic:
            self.bfs_hits = _make_mask_bfs(
                self.moves, plan.start_mask, plan.finals_mask
            )
            return
        plan_order, starts, finals = _acyclic_order(
            self.entries, plan.start_mask, plan.finals_mask
        )
        gets = _chain_of(plan_order, starts[0], finals)
        if gets is not None:
            self.chain = True
            self.bfs_hits = _make_chain_bfs(gets)
        else:
            self.bfs_hits = _make_dag_bfs(
                plan.num_states, plan_order, starts, finals
            )

    def productive(self, start_mask: int) -> List[int]:
        """Node ids with a usable first edge out of the start states
        ``start_mask``, ascending — the only sources whose walks can
        produce a non-trivial answer.  Computed once per resolution."""
        if self._productive is None:
            candidates: Set[int] = set()
            for adjacency, _nxt, _pid, _inverse in self.moves(start_mask):
                candidates.update(adjacency.keys())
            self._productive = sorted(candidates)
        return self._productive

    def moves(self, mask: int) -> Tuple:
        """``(adjacency, next state set, pid, inverse)`` for every step
        that leaves the state set ``mask`` somewhere, memoized (bounded)
        across the queries of this resolution."""
        entries = self.by_mask.get(mask)
        if entries is None:
            entries = tuple(
                (adjacency, nxt, pid, inverse)
                for delta, adjacency, pid, inverse in self.steps
                if (nxt := _step(delta, mask))
            )
            if len(self.by_mask) >= _MOVES_LIMIT:
                self.by_mask.clear()
            self.by_mask[mask] = entries
        return entries


class _NameOrder(NamedTuple):
    """A store's node names in sorted order: ``order`` lists the node
    ids by name, ``rank[nid]`` is the position of ``nid`` in it,
    ``texts[nid]`` is the JSON string literal of its name
    (``encode_basestring`` is the encoder of ``json.dumps(...,
    ensure_ascii=False)``) and ``ordered_texts`` holds the literals in
    name order.  Sorting pairs of names is sorting pairs of ranks.

    Node ids only grow, so a write extends the table instead of
    rebuilding it: only new names are encoded, and they are merged into
    the order.
    A published table is never changed — readers walking under the
    store's shared gate at once may each extend the table they read
    and publish theirs; every one of them is valid."""

    order: List[int]
    rank: List[int]
    texts: List[str]
    ordered_texts: List[str]

    def extended(self, names: List[str]) -> "_NameOrder":
        count = len(names)
        fresh = range(len(self.texts), count)
        name_of = names.__getitem__
        texts = self.texts + [encode_basestring(names[nid]) for nid in fresh]
        # the old order and the sorted new ids are two sorted runs, which
        # one Timsort pass merges
        order = self.order + sorted(fresh, key=name_of)
        order.sort(key=name_of)
        ordered_texts = list(map(texts.__getitem__, order))
        rank = [0] * count
        for position, nid in enumerate(order):
            rank[nid] = position
        return _NameOrder(order, rank, texts, ordered_texts)


_name_orders: "weakref.WeakKeyDictionary[TripleStore, _NameOrder]" = (
    weakref.WeakKeyDictionary()
)


def _name_order(store: TripleStore) -> _NameOrder:
    """The name-order table covering every node of ``store``, extended
    and published with one assignment when the store has grown."""
    names = store.node_names()
    table = _name_orders.get(store)
    if table is None or len(table.texts) < len(names):
        table = (table or _NameOrder([], [], [], [])).extended(names)
        _name_orders[store] = table
    return table


class CompiledRPQ:
    """A compiled evaluation plan for one regular path expression."""

    __slots__ = (
        "expr",
        "num_states",
        "start_mask",
        "finals_mask",
        "accepts_empty",
        "atoms",
        "deltas",
        "determinized",
        "cyclic",
        "subword_closed",
        "_resolved",
    )

    def __init__(self, expr: Regex):
        self.expr = expr
        nfa = glushkov(expr)
        self.num_states = nfa.num_states
        self.start_mask = _mask_of(nfa.epsilon_closure(nfa.initial))
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
        self.determinized = (
            nfa.num_states <= _DFA_STATE_LIMIT and self._determinize()
        )
        self.cyclic = self._has_productive_cycle()
        # downward-closed chains (every factor starred or optional) have
        # subword-closed languages: walks decide simple paths and trails
        self.subword_closed = is_downward_closed_chain(expr)
        self._resolved: Opt[Tuple] = None

    # -- compilation -------------------------------------------------------------

    def _determinize(self) -> bool:
        """Bounded subset construction over the bitmask tables, trimmed
        to live states (those from which a final state is reachable).

        On success the plan's tables are replaced by the DFA's in the
        same form, one bit per DFA state, with transitions into dead
        states dropped; past ``_DFA_BLOWUP_LIMIT`` states the NFA tables
        stay and this returns ``False``."""
        index: Dict[int, int] = {self.start_mask: 0}
        table: List[Dict[str, int]] = [{}]
        queue = deque([self.start_mask])
        while queue:
            mask = queue.popleft()
            row = table[index[mask]]
            for label in self.atoms:
                nxt = _step(self.deltas[label], mask)
                if not nxt:
                    continue
                if nxt not in index:
                    if len(index) >= _DFA_BLOWUP_LIMIT:
                        return False
                    index[nxt] = len(table)
                    table.append({})
                    queue.append(nxt)
                row[label] = index[nxt]
        # the index maps each subset to its DFA state, in insertion order
        finals = [
            state
            for state, subset in enumerate(index)
            if subset & self.finals_mask
        ]
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
        self.deltas = {
            label: [
                1 << row[label]
                if src in alive and row.get(label) in alive
                else 0
                for src, row in enumerate(table)
            ]
            for label in self.atoms
        }
        self.num_states = len(table)
        self.start_mask = 1
        self.finals_mask = _mask_of(finals)
        return True

    def _has_productive_cycle(self) -> bool:
        """Whether the automaton can loop — i.e. the language contains
        unboundedly long words.  From given sources, acyclic plans take
        the one-pass DAG kernel (or the chain fold) and looping plans
        the mask BFS."""
        successors = []
        for q in range(self.num_states):
            mask = 0
            for delta in self.deltas.values():
                mask |= delta[q]
            successors.append(list(_iter_bits(mask)))
        return len(_topological_order(successors)) < len(successors)

    # -- store-side resolution --------------------------------------------------

    def _resolve(self, store: TripleStore) -> _Resolved:
        """The alphabet restriction — atoms whose predicate exists in
        the store, resolved to (delta table, adjacency, pid, inverse) —
        with the rows and walk kernel built on it.

        Memoized per (store, mutation version) — on repeated-expression
        workloads every query after the first skips the resolution."""
        cached = self._resolved
        if cached is not None:
            store_ref, version, resolved = cached
            if store_ref() is store and version == store.version:
                return resolved
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
                steps.append((self.deltas[label], adjacency, pid, inverse))
        resolved = _Resolved(self, steps)
        self._resolved = (weakref.ref(store), store.version, resolved)
        return resolved

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
        heads, tails, outside = self._walk(store, sources, targets)
        name_of = store.node_names().__getitem__
        answers = set(zip(map(name_of, heads), map(name_of, tails)))
        answers.update(zip(outside, outside))
        return answers

    def evaluate_json(
        self,
        store: TripleStore,
        sources: Opt[List[str]] = None,
        targets: Opt[Iterable[str]] = None,
    ) -> Tuple[str, int]:
        """``evaluate``'s answer as the compact JSON text of its sorted
        pair list — byte for byte ``json.dumps(sorted(pairs),
        ensure_ascii=False, separators=(",", ":"))`` — and the number
        of pairs.

        Each pair is keyed by the ranks of its names in the store's name
        order (:func:`_name_order`), so sorting the pairs sorts
        integers, and each name's JSON text is made once per store, not
        once per answer."""
        heads, tails, outside = self._walk(store, sources, targets)
        table = _name_order(store)
        rank = table.rank
        width = len(rank)
        keys = [rank[u] * width + rank[v] for u, v in zip(heads, tails)]
        keys.sort()
        texts = table.ordered_texts
        pieces = [
            "[" + texts[key // width] + "," + texts[key % width] + "]"
            for key in keys
        ]
        if outside:
            # (x, x) pairs of sources outside the graph, slotted in by
            # name; inserting the largest first keeps the slots valid
            names, order = store.node_names(), table.order
            leads = [names[order[key // width]] for key in keys]
            for name in sorted(outside, reverse=True):
                text = encode_basestring(name)
                pieces.insert(bisect_left(leads, name), f"[{text},{text}]")
        return "[" + ",".join(pieces) + "]", len(pieces)

    def _walk(
        self,
        store: TripleStore,
        sources: Opt[Iterable[str]],
        targets: Opt[Iterable[str]],
    ) -> Tuple[List[int], List[int], List[str]]:
        """The walk answer at the id level, shared by :meth:`evaluate`
        and :meth:`evaluate_json`: every answer (u, v) between nodes of
        the graph once, as ``u = heads[i]`` and ``v = tails[i]``, and
        the requested sources outside the graph whose empty walk (x, x)
        answers.

        Sourced walks run the plan's walk kernel once per distinct
        source.  All-pairs walks of a chain fold once per productive
        source; every other plan runs :meth:`_all_pairs_propagate` on
        each batch of ``_BATCH_SOURCES`` productive sources."""
        heads: List[int] = []
        tails: List[int] = []
        outside: List[str] = []
        target_names = set(targets) if targets is not None else None
        wanted: Opt[Set[int]] = None
        if target_names is not None:
            wanted = set(map(store.node_id, target_names))
            wanted.discard(None)
        resolved = self._resolve(store)
        nullable = self.accepts_empty
        if sources is not None:
            walked = []
            for source in dict.fromkeys(sources):
                sid = store.node_id(source)
                if sid is not None:
                    walked.append(sid)
                elif nullable and (
                    target_names is None or source in target_names
                ):
                    # node outside the graph: no walk but the empty one
                    outside.append(source)
        else:
            walked = resolved.productive(self.start_mask)
            if nullable:
                # the empty walk of every node without a productive
                # first edge; the productive ones answer (u, u) below
                seeded = set(walked)
                heads.extend(
                    nid
                    for nid in (
                        range(store.node_count()) if wanted is None else wanted
                    )
                    if nid not in seeded
                )
                tails.extend(heads)
            if not resolved.chain:
                head, tail = heads.append, tails.append
                for start in range(0, len(walked), _BATCH_SOURCES):
                    batch = walked[start : start + _BATCH_SOURCES]
                    final = self._all_pairs_propagate(batch, resolved.entries)
                    if wanted is not None:
                        final = {
                            nid: final[nid] for nid in wanted if nid in final
                        }
                    for nid, mask in final.items():
                        while mask:
                            low = mask & -mask
                            head(batch[low.bit_length() - 1])
                            tail(nid)
                            mask ^= low
                return heads, tails, outside
        bfs_hits = resolved.bfs_hits
        for sid in walked:
            hits = bfs_hits(sid)
            if nullable:
                hits.add(sid)
            if wanted is not None:
                hits &= wanted
            heads.extend(repeat(sid, len(hits)))
            tails.extend(hits)
        return heads, tails, outside

    def _all_pairs_propagate(
        self, productive: List[int], entries: _Entries
    ) -> Dict[int, int]:
        """Level-synchronous multi-source BFS over the product graph,
        grouped per automaton state (MS-BFS, Then et al., VLDB 2014):
        maps each node reached in a final state to the mask of the
        sources that reach it, ``productive[i]`` owning bit ``i``.

        ``reached[q]`` maps each node to the mask of sources that reach
        it in state ``q``, and ``frontier[q]`` to the bits it newly
        gained there in the last level.  A level runs each state's
        frontier through each of that state's entries with one adjacency
        lookup per node, so the n per-source BFS runs of the reference
        collapse into integer ORs, and each source bit enters each
        (node, state) vertex once.  A state with no entries keeps no
        frontier: its gains only answer.  The final states' masks are
        ORed per node, so no pair is read twice."""
        num_states = self.num_states
        seeds = {sid: 1 << i for i, sid in enumerate(productive)}
        reached: List[Dict[int, int]] = [{} for _ in range(num_states)]
        frontier: List[Dict[int, int]] = [{} for _ in range(num_states)]
        for q in _iter_bits(self.start_mask):
            reached[q] = dict(seeds)
            frontier[q] = seeds
        while any(frontier):
            advanced: List[Dict[int, int]] = [{} for _ in range(num_states)]
            for q, level in enumerate(frontier):
                if not level:
                    continue
                for adjacency_get, nxt in entries[q]:
                    seen = reached[nxt]
                    seen_get = seen.get
                    out = advanced[nxt] if entries[nxt] else None
                    out_get = out.get if out is not None else None
                    for nid, bits in level.items():
                        neighbours = adjacency_get(nid)
                        if not neighbours:
                            continue
                        for other in neighbours:
                            old = seen_get(other, 0)
                            new = old | bits
                            if new != old:
                                seen[other] = new
                                if out is not None:
                                    out[other] = out_get(other, 0) | (new ^ old)
            frontier = advanced
        # a seeded start vertex in a final state only occurs when the
        # language is nullable, where (u, u) answers anyway
        levels = [reached[q] for q in _iter_bits(self.finals_mask) if reached[q]]
        if len(levels) == 1:
            return levels[0]
        final: Dict[int, int] = {}
        final_get = final.get
        for level in levels:
            for nid, mask in level.items():
                final[nid] = final_get(nid, 0) | mask
        return final

    # -- simple-path / trail search ------------------------------------------------

    def search(
        self,
        store: TripleStore,
        source: str,
        target: str,
        forbid_nodes: bool,
    ) -> bool:
        """Exact simple-path (``forbid_nodes``) or trail decision —
        the compiled counterpart of the reference DFS, identical result.

        A subword-closed plan is decided by one walk from ``source``:
        cutting the cycles out of a matching walk removes infixes, which
        keeps the word in the language, and leaves a simple path, which
        is also a trail."""
        if source == target and self.accepts_empty:
            return True
        sid = store.node_id(source)
        tid = store.node_id(target)
        if sid is None or tid is None:
            return False
        resolved = self._resolve(store)
        if not resolved.steps:
            return False
        if self.subword_closed:
            return tid in resolved.bfs_hits(sid)
        finals = self.finals_mask
        used_nodes = {sid}
        used_edges: Set[Tuple[int, int, int]] = set()
        by_mask_get = resolved.by_mask.get
        moves = resolved.moves

        def dfs(nid: int, mask: int) -> bool:
            entries = by_mask_get(mask)
            if entries is None:
                entries = moves(mask)
            for adjacency, next_mask, pid, inverse in entries:
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
