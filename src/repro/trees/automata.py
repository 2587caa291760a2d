"""Bottom-up nondeterministic finite tree automata over unranked trees.

This module is the tree-side engine layer: every schema formalism in
:mod:`repro.trees` — :class:`~repro.trees.dtd.DTD`,
:class:`~repro.trees.edtd.EDTD`, and BonXai
:class:`~repro.trees.bonxai.PatternSchema` — compiles into one common
:class:`TreeAutomaton` representation, and the expensive decision
problems run on that representation instead of on per-label regular
expressions:

* **Antichain inclusion and universality** (`included_in`,
  `is_universal`) decide ``L(A) ⊆ L(B)`` without determinizing ``B``,
  in the style of the VATA tree-automata library (arXiv 1204.3240).
  The search explores pairs ``(q, P)`` where ``q`` is a state some tree
  reaches in ``A`` and ``P`` is the *exact* set of states the same tree
  reaches in ``B``, keeping only ⊆-minimal ``P`` per ``q``; a
  counterexample is a pair with ``q`` accepting in ``A`` and ``P``
  disjoint from ``B``'s accepting states.  Pruning is sound because
  shrinking a subtree's ``B``-reach can only shrink every ancestor's
  ``B``-reach, and the failure condition is downward closed.
* **Downward-simulation reduction** (`reduce`) computes the greatest
  label-preserving downward simulation and quotients the automaton by
  mutual simulation, shrinking it before any product construction.
  Mutually downward-similar states admit exactly the same trees, so the
  quotient preserves the language.
* **Streaming runs** (:class:`StreamingTreeValidator`) execute the
  automaton in a single pass over ``("start", label)`` /
  ``("end", label)`` event streams, keeping one frame per *open*
  element — for each candidate state, the subset of its horizontal
  (content-model) NFA states reachable on the children seen so far.
  Memory is bounded by document depth × frame width, never by document
  size, for arbitrary recursive, non-single-type schemas and for DTDs.
  A lazily determinized table (:class:`_Table`) makes each child one
  memoized lookup per parent candidate; real content models are almost
  all deterministic (arXiv 1805.12503), so it stays small.

States are integers; ``names[q]`` is the state's unique name (the DTD
label or EDTD type it came from) and doubles as the letter the
horizontal word automata read, so the existing Glushkov construction
from :mod:`repro.regex.automata` is reused unchanged.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import MalformedStreamError, SchemaError, ValidationError
from ..regex.automata import EPS, NFA, glushkov
from .dtd import DTD
from .edtd import EDTD
from .tree import Tree

__all__ = [
    "TreeAutomaton",
    "StreamingTreeValidator",
    "compile_schema",
    "contains_determinize",
    "schema_contains",
    "schema_equivalent",
    "universal_automaton",
    "validate_events",
    "validate_events_or_raise",
]


#: Bound on the memoized entries of one automaton's horizontal table
#: (:class:`_Table`); each interns at most one cell per candidate.
_TABLE_LIMIT = 1 << 16
_TABLE_LOCK = threading.Lock()  #: held while any table fills a miss


class _Counterexample(Exception):
    """Internal: aborts an inclusion search as soon as a witness exists."""


@dataclass
class TreeAutomaton:
    """A bottom-up NFTA over unranked, labelled, ordered trees.

    ``names[q]`` — unique state name (also the horizontal letter for q).
    ``labels[q]`` — the tree label µ(q) that state q assigns.
    ``horizontals[q]`` — word NFA over state names; a node may be typed
    ``q`` iff its label is ``labels[q]`` and some word formed by picking
    one reachable state per child is accepted by ``horizontals[q]``.
    ``roots`` — accepting states for the root.
    """

    names: Tuple[str, ...]
    labels: Tuple[str, ...]
    horizontals: Tuple[NFA, ...]
    roots: FrozenSet[int]

    def __post_init__(self):
        self.names = tuple(self.names)
        self.labels = tuple(self.labels)
        self.horizontals = tuple(self.horizontals)
        self.roots = frozenset(self.roots)
        if not (len(self.names) == len(self.labels) == len(self.horizontals)):
            raise SchemaError("names, labels and horizontals must align")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("tree-automaton state names must be unique")
        for q in self.roots:
            if not 0 <= q < len(self.names):
                raise SchemaError(f"root state {q} out of range")
        self.index: Dict[str, int] = {name: q for q, name in enumerate(self.names)}
        by_label: Dict[str, List[int]] = {}
        for q, label in enumerate(self.labels):
            by_label.setdefault(label, []).append(q)
        self._by_label: Dict[str, Tuple[int, ...]] = {
            label: tuple(states) for label, states in by_label.items()
        }
        self._inits: Tuple[FrozenSet[int], ...] = tuple(
            nfa.epsilon_closure(nfa.initial) for nfa in self.horizontals
        )
        self._finals: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(nfa.finals) for nfa in self.horizontals
        )
        self._table: Optional[_Table] = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_dtd(cls, dtd: DTD) -> "TreeAutomaton":
        """Compile a DTD: one state per label, roots = start labels."""
        names = tuple(sorted(dtd.alphabet()))
        horizontals = tuple(glushkov(dtd.expression_for(name)) for name in names)
        roots = frozenset(q for q, name in enumerate(names) if name in dtd.start_labels)
        return cls(names=names, labels=names, horizontals=horizontals, roots=roots)

    @classmethod
    def from_edtd(cls, edtd: EDTD) -> "TreeAutomaton":
        """Compile an EDTD: one state per type, labelled through µ."""
        names = tuple(sorted(edtd.types()))
        labels = tuple(edtd.mu.get(name, name) for name in names)
        horizontals = tuple(glushkov(edtd.expression_for(name)) for name in names)
        roots = frozenset(q for q, name in enumerate(names) if name in edtd.start_types)
        return cls(names=names, labels=labels, horizontals=horizontals, roots=roots)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def alphabet(self) -> FrozenSet[str]:
        """The tree-label alphabet Σ this automaton speaks."""
        return frozenset(self.labels)

    def states_for_label(self, label: str) -> Tuple[int, ...]:
        return self._by_label.get(label, ())

    def state_count(self) -> int:
        return len(self.names)

    def horizontal_state_count(self) -> int:
        return sum(nfa.num_states for nfa in self.horizontals)

    def describe(self) -> Dict[str, int]:
        return {
            "states": self.state_count(),
            "horizontal_states": self.horizontal_state_count(),
            "labels": len(self._by_label),
            "roots": len(self.roots),
        }

    # ------------------------------------------------------------------
    # Tree runs
    # ------------------------------------------------------------------

    def validate(self, tree: Tree) -> bool:
        """Does the automaton accept ``tree``?  Matches ``EDTD.validate``
        on automata compiled with :meth:`from_edtd`.  Runs the streaming
        validator over the tree's events: one stepping path for both."""
        return validate_events(self, tree.root.events())

    def _current_table(self, full: Optional["_Table"] = None) -> "_Table":
        """The table, built on first use; a ``full`` one is replaced, never
        cleared, so runs holding it keep valid cell ids (two threads
        replacing it at once is harmless: each run keeps its own)."""
        if self._table is None or self._table is full:
            self._table = _Table(self)
        return self._table

    # ------------------------------------------------------------------
    # Emptiness, universality, inclusion
    # ------------------------------------------------------------------

    def realizable_states(self) -> FrozenSet[int]:
        """States reachable by at least one finite tree (fixpoint)."""
        realized: set = set()
        changed = True
        while changed:
            changed = False
            letters = [self.names[q] for q in realized]
            for q in range(len(self.names)):
                if q in realized:
                    continue
                if self._horizontal_nonempty_over(q, letters):
                    realized.add(q)
                    changed = True
        return frozenset(realized)

    def _horizontal_nonempty_over(self, q: int, letters: List[str]) -> bool:
        nfa = self.horizontals[q]
        finals = self._finals[q]
        start = self._inits[q]
        if start & finals:
            return True
        seen = {start}
        queue = deque([start])
        while queue:
            states = queue.popleft()
            for letter in letters:
                nxt = nfa.step(states, letter)
                if not nxt or nxt in seen:
                    continue
                if nxt & finals:
                    return True
                seen.add(nxt)
                queue.append(nxt)
        return False

    def is_empty(self) -> bool:
        return not (self.realizable_states() & self.roots)

    def is_universal(self, alphabet: Optional[Iterable[str]] = None) -> bool:
        """Does the automaton accept *every* tree over ``alphabet``
        (default: its own label alphabet)?  Antichain-based."""
        sigma = frozenset(alphabet) if alphabet is not None else self.alphabet
        return universal_automaton(sigma).included_in(self)

    def included_in(self, other: "TreeAutomaton") -> bool:
        """Antichain decision of ``L(self) ⊆ L(other)``."""
        try:
            _antichain_inclusion(self, other)
        except _Counterexample:
            return False
        return True

    def equivalent_to(self, other: "TreeAutomaton") -> bool:
        return self.included_in(other) and other.included_in(self)

    # ------------------------------------------------------------------
    # Downward-simulation reduction
    # ------------------------------------------------------------------

    def downward_simulation(self) -> FrozenSet[Tuple[int, int]]:
        """Greatest relation R with (q, q') ∈ R iff labels agree and
        every horizontal word of q has an R-matching word of q' —
        i.e. q' downward-simulates q."""
        n = len(self.names)
        sim = {
            (q, q2)
            for q in range(n)
            for q2 in range(n)
            if self.labels[q] == self.labels[q2]
        }
        changed = True
        while changed:
            changed = False
            for pair in sorted(sim):
                q, q2 = pair
                if q == q2:
                    continue
                if not self._relaxed_contained(q, q2, sim):
                    sim.discard(pair)
                    changed = True
        return frozenset(sim)

    def _relaxed_contained(self, q: int, q2: int, sim) -> bool:
        """Is every word of horizontals[q] matched, letter by letter
        modulo ``sim``, by a word of horizontals[q2]?"""
        na, nb = self.horizontals[q], self.horizontals[q2]
        fa, fb = self._finals[q], self._finals[q2]
        n = len(self.names)
        start = (self._inits[q], self._inits[q2])
        seen = {start}
        queue = deque([start])
        while queue:
            left, right = queue.popleft()
            if (left & fa) and not (right & fb):
                return False
            letters = set()
            for s in left:
                letters.update(na.transitions[s].keys())
            letters.discard(EPS)
            for letter in letters:
                left2 = na.step(left, letter)
                if not left2:
                    continue
                qc = self.index.get(letter)
                right2: FrozenSet[int] = frozenset()
                if qc is not None:
                    for sim_qc in range(n):
                        if (qc, sim_qc) in sim:
                            right2 |= nb.step(right, self.names[sim_qc])
                nxt = (left2, right2)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return True

    def reduce(self) -> "TreeAutomaton":
        """Quotient by mutual downward simulation.  Mutually similar
        states are reached by exactly the same trees, so merging them
        (and renaming horizontal letters to class representatives)
        preserves the language."""
        sim = self.downward_simulation()
        n = len(self.names)
        rep = list(range(n))
        for q in range(n):
            for q2 in range(q):
                if rep[q2] == q2 and (q, q2) in sim and (q2, q) in sim:
                    rep[q] = q2
                    break
        reps = sorted({r for r in rep})
        new_index = {r: i for i, r in enumerate(reps)}
        rename = {self.names[q]: self.names[rep[q]] for q in range(n)}
        members: Dict[int, List[int]] = {r: [] for r in reps}
        for q in range(n):
            members[rep[q]].append(q)
        horizontals = tuple(
            self._merge_horizontals(members[r], rename) for r in reps
        )
        roots = frozenset(
            new_index[r] for r in reps if any(q in self.roots for q in members[r])
        )
        return TreeAutomaton(
            names=tuple(self.names[r] for r in reps),
            labels=tuple(self.labels[r] for r in reps),
            horizontals=horizontals,
            roots=roots,
        )

    def _merge_horizontals(self, states: List[int], rename: Dict[str, str]) -> NFA:
        transitions: List[Dict[str, set]] = []
        initial: set = set()
        finals: set = set()
        offset = 0
        for q in states:
            nfa = self.horizontals[q]
            for src in range(nfa.num_states):
                merged: Dict[str, set] = {}
                for letter, dsts in nfa.transitions[src].items():
                    key = rename.get(letter, letter)
                    merged.setdefault(key, set()).update(d + offset for d in dsts)
                transitions.append(merged)
            initial.update(i + offset for i in nfa.initial)
            finals.update(f + offset for f in nfa.finals)
            offset += nfa.num_states
        return NFA(
            num_states=offset,
            initial=initial,
            finals=finals,
            transitions=transitions,
        )


def universal_automaton(alphabet: Iterable[str]) -> TreeAutomaton:
    """The automaton accepting every tree over ``alphabet``: one state
    per label whose horizontal language is (all states)*."""
    names = tuple(sorted(set(alphabet)))
    loop: Dict[str, set] = {name: {0} for name in names}
    horizontals = tuple(
        NFA(num_states=1, initial={0}, finals={0}, transitions=[dict(loop)])
        for _ in names
    )
    return TreeAutomaton(
        names=names,
        labels=names,
        horizontals=horizontals,
        roots=frozenset(range(len(names))),
    )


def compile_schema(schema) -> TreeAutomaton:
    """Compile any tree schema (DTD, EDTD, BonXai PatternSchema, or an
    already-compiled automaton) into a :class:`TreeAutomaton`."""
    from .bonxai import PatternSchema

    if isinstance(schema, TreeAutomaton):
        return schema
    if isinstance(schema, DTD):
        return TreeAutomaton.from_dtd(schema)
    if isinstance(schema, EDTD):
        return TreeAutomaton.from_edtd(schema)
    if isinstance(schema, PatternSchema):
        return TreeAutomaton.from_edtd(schema.to_edtd())
    raise SchemaError(f"cannot compile {type(schema).__name__} to a tree automaton")


def schema_contains(bigger, smaller) -> bool:
    """``L(smaller) ⊆ L(bigger)`` for any two schemas, via antichains."""
    return compile_schema(smaller).included_in(compile_schema(bigger))


def schema_equivalent(first, second) -> bool:
    a, b = compile_schema(first), compile_schema(second)
    return a.included_in(b) and b.included_in(a)


# ----------------------------------------------------------------------
# Antichain inclusion
# ----------------------------------------------------------------------


class _LabelSearch:
    """Per-label configuration space of an inclusion search.

    A config pairs, for every A-candidate and B-candidate of the label,
    the subset of its horizontal NFA reached on the children consumed so
    far.  Configs are stepped by discovered (q, P) pairs: the A side by
    the letter ``name(q)``, the B side by the union over letters in P.
    """

    __slots__ = ("label", "ca", "cb", "configs", "cursors", "seen")

    def __init__(self, aut_a: TreeAutomaton, aut_b: TreeAutomaton, label: str):
        self.ca = aut_a.states_for_label(label)
        self.cb = aut_b.states_for_label(label)
        self.label = label
        initial = (
            tuple(aut_a._inits[q] for q in self.ca),
            tuple(aut_b._inits[q] for q in self.cb),
        )
        self.configs = [initial]
        self.cursors = [0]
        self.seen = {initial}


def _antichain_inclusion(aut_a: TreeAutomaton, aut_b: TreeAutomaton) -> None:
    """Raises :class:`_Counterexample` iff L(aut_a) ⊄ L(aut_b)."""
    roots_a, roots_b = aut_a.roots, aut_b.roots
    minimal: Dict[int, List[FrozenSet[int]]] = {}
    pairs: List[Tuple[int, FrozenSet[int]]] = []

    def admit(qa: int, P: FrozenSet[int]) -> None:
        if qa in roots_a and not (P & roots_b):
            raise _Counterexample
        bucket = minimal.setdefault(qa, [])
        for existing in bucket:
            if existing <= P:
                return
        bucket[:] = [existing for existing in bucket if not (P <= existing)]
        bucket.append(P)
        pairs.append((qa, P))

    def emit(search: _LabelSearch, config) -> None:
        a_parts, b_parts = config
        P = frozenset(
            qb
            for qb, states in zip(search.cb, b_parts)
            if states & aut_b._finals[qb]
        )
        for qa, states in zip(search.ca, a_parts):
            if states & aut_a._finals[qa]:
                admit(qa, P)

    def step(search: _LabelSearch, config, pair):
        qc, P = pair
        a_letter = aut_a.names[qc]
        a_parts = tuple(
            aut_a.horizontals[qa].step(states, a_letter) if states else states
            for qa, states in zip(search.ca, config[0])
        )
        if not any(a_parts):
            return None
        b_letters = [aut_b.names[p] for p in P]
        b_parts = []
        for qb, states in zip(search.cb, config[1]):
            nxt: FrozenSet[int] = frozenset()
            if states:
                nfa = aut_b.horizontals[qb]
                for letter in b_letters:
                    nxt |= nfa.step(states, letter)
            b_parts.append(nxt)
        return (a_parts, tuple(b_parts))

    searches = [
        _LabelSearch(aut_a, aut_b, label) for label in sorted(set(aut_a.labels))
    ]
    searches = [s for s in searches if s.ca]
    for search in searches:
        emit(search, search.configs[0])

    advanced = True
    while advanced:
        advanced = False
        for search in searches:
            ci = 0
            while ci < len(search.configs):
                config = search.configs[ci]
                cursor = search.cursors[ci]
                while cursor < len(pairs):
                    nxt = step(search, config, pairs[cursor])
                    cursor += 1
                    advanced = True
                    if nxt is not None and nxt not in search.seen:
                        search.seen.add(nxt)
                        search.configs.append(nxt)
                        search.cursors.append(0)
                        emit(search, nxt)
                search.cursors[ci] = cursor
                ci += 1


# ----------------------------------------------------------------------
# Determinize-and-product baseline (kept for benchmarking and as an
# independent reference implementation for the differential oracle)
# ----------------------------------------------------------------------


def contains_determinize(aut_a: TreeAutomaton, aut_b: TreeAutomaton) -> bool:
    """Decide ``L(aut_a) ⊆ L(aut_b)`` the classical way: eagerly subset-
    determinize ``aut_b`` bottom-up (every per-label configuration is
    completed against every discovered macro-state), then search the
    product of ``aut_a`` with the complement.  Exponentially slower than
    the antichain search on nondeterministic content models — that gap
    is exactly what ``benchmarks/bench_tree_automata.py`` measures."""
    macros, tables = _determinize_full(aut_b)
    roots_b = aut_b.roots

    # Product phase: pairs (qa, macro-id) reachable by some tree.
    pairs: List[Tuple[int, int]] = []
    seen_pairs = set()

    def admit(qa: int, macro_id: int) -> bool:
        if (qa, macro_id) in seen_pairs:
            return False
        seen_pairs.add((qa, macro_id))
        pairs.append((qa, macro_id))
        return qa in aut_a.roots and not (macros[macro_id] & roots_b)

    class _ProductSearch:
        __slots__ = ("ca", "table", "configs", "cursors", "seen")

        def __init__(self, label):
            self.ca = aut_a.states_for_label(label)
            self.table = tables.get(label)
            initial = (
                tuple(aut_a._inits[q] for q in self.ca),
                0 if self.table is not None else -1,
            )
            self.configs = [initial]
            self.cursors = [0]
            self.seen = {initial}

    def emit(search, config) -> bool:
        a_parts, cfg_id = config
        if search.table is not None:
            macro_id = search.table["accept"][cfg_id]
        else:
            macro_id = _EMPTY_MACRO_ID
        for qa, states in zip(search.ca, a_parts):
            if states & aut_a._finals[qa]:
                if admit(qa, macro_id):
                    return True
        return False

    _EMPTY_MACRO_ID = _intern_macro(macros, {m: i for i, m in enumerate(macros)}, frozenset())

    searches = [
        _ProductSearch(label) for label in sorted(set(aut_a.labels))
    ]
    searches = [s for s in searches if s.ca]
    for search in searches:
        if emit(search, search.configs[0]):
            return False

    advanced = True
    while advanced:
        advanced = False
        for search in searches:
            ci = 0
            while ci < len(search.configs):
                a_parts, cfg_id = search.configs[ci]
                cursor = search.cursors[ci]
                while cursor < len(pairs):
                    qc, macro_id = pairs[cursor]
                    cursor += 1
                    advanced = True
                    letter = aut_a.names[qc]
                    stepped = tuple(
                        aut_a.horizontals[qa].step(states, letter) if states else states
                        for qa, states in zip(search.ca, a_parts)
                    )
                    if not any(stepped):
                        continue
                    if search.table is not None:
                        nxt_cfg = search.table["trans"].get((cfg_id, macro_id))
                        if nxt_cfg is None:
                            # macro discovered only in the product phase
                            # (possible when A's alphabet exceeds B's);
                            # stepping by it keeps the same B config —
                            # B has no candidate to consume the child.
                            nxt_cfg = search.table["dead"]
                    else:
                        nxt_cfg = -1
                    nxt = (stepped, nxt_cfg)
                    if nxt not in search.seen:
                        search.seen.add(nxt)
                        search.configs.append(nxt)
                        search.cursors.append(0)
                        if emit(search, nxt):
                            return False
                search.cursors[ci] = cursor
                ci += 1
    return True


def _intern_macro(macros, macro_ix, macro) -> int:
    if macro in macro_ix:
        return macro_ix[macro]
    macro_ix[macro] = len(macros)
    macros.append(macro)
    return macro_ix[macro]


def _determinize_full(aut: TreeAutomaton):
    """Eager bottom-up subset determinization: enumerate every reachable
    macro-state and complete every per-label config DFA against every
    macro letter.  This is the expensive part the antichain avoids."""
    macros: List[FrozenSet[int]] = []
    macro_ix: Dict[FrozenSet[int], int] = {}
    tables: Dict[str, Dict] = {}

    class _DetSearch:
        __slots__ = ("cb", "configs", "cursors", "seen", "accept", "trans", "dead")

        def __init__(self, label):
            self.cb = aut.states_for_label(label)
            initial = tuple(aut._inits[q] for q in self.cb)
            self.configs = [initial]
            self.cursors = [0]
            self.seen = {initial: 0}
            self.accept: List[int] = []
            self.trans: Dict[Tuple[int, int], int] = {}
            self.dead = 0  # patched once the all-empty config exists

    def macro_of(search, config) -> int:
        macro = frozenset(
            qb for qb, states in zip(search.cb, config) if states & aut._finals[qb]
        )
        return _intern_macro(macros, macro_ix, macro)

    searches = {label: _DetSearch(label) for label in sorted(set(aut.labels))}
    for search in searches.values():
        search.accept.append(macro_of(search, search.configs[0]))

    advanced = True
    while advanced:
        advanced = False
        for search in searches.values():
            ci = 0
            while ci < len(search.configs):
                config = search.configs[ci]
                cursor = search.cursors[ci]
                while cursor < len(macros):
                    macro = macros[cursor]
                    letters = [aut.names[p] for p in macro]
                    stepped = []
                    for qb, states in zip(search.cb, config):
                        nxt: FrozenSet[int] = frozenset()
                        if states:
                            nfa = aut.horizontals[qb]
                            for letter in letters:
                                nxt |= nfa.step(states, letter)
                        stepped.append(nxt)
                    nxt_config = tuple(stepped)
                    if nxt_config not in search.seen:
                        search.seen[nxt_config] = len(search.configs)
                        search.configs.append(nxt_config)
                        search.cursors.append(0)
                        search.accept.append(macro_of(search, nxt_config))
                    search.trans[(ci, cursor)] = search.seen[nxt_config]
                    cursor += 1
                    advanced = True
                search.cursors[ci] = cursor
                ci += 1

    for label, search in searches.items():
        dead_config = tuple(frozenset() for _ in search.cb)
        if dead_config not in search.seen:
            search.seen[dead_config] = len(search.configs)
            search.configs.append(search.configs[0])  # placeholder slot
            search.configs[-1] = dead_config
            search.cursors.append(len(macros))
            search.accept.append(_intern_macro(macros, macro_ix, frozenset()))
        dead = search.seen[dead_config]
        tables[label] = {
            "accept": search.accept,
            "trans": search.trans,
            "dead": dead,
        }
    return macros, tables


# ----------------------------------------------------------------------
# Horizontal table and streaming execution
# ----------------------------------------------------------------------


class _Table:
    """The horizontal runs of one automaton, determinized lazily.

    A *cell* is an integer naming one (candidate state ``q``, subset of
    ``q``'s horizontal NFA states), with its ``q``, size and finality.
    Memoized: ``starts[label]`` (initial cells, total size),
    ``steps[(cell, reach)]`` (the cell after a child typed by some state
    of ``reach``, -1 if none survives) and ``admits[(cell, label)]``
    (does any candidate of ``label`` step the cell).  Hits are plain dict
    reads, so threads share a table; misses fill it under a lock.  An
    event misses at most ``widest + 1`` times, so a run that moves to a
    fresh table once ``entries`` passes ``room`` keeps it in bounds.
    """

    def __init__(self, aut: TreeAutomaton):
        self.aut = aut
        self.ids: Dict[Tuple[int, FrozenSet[int]], int] = {}
        self.keys, self.states, self.sizes, self.finals = [], [], [], []
        self.starts, self.steps, self.admits = {}, {}, {}
        self.entries = 0
        self.room = _TABLE_LIMIT - 1 - max(map(len, aut._by_label.values()), default=0)

    def cell(self, q: int, subset: FrozenSet[int]) -> int:
        key = (q, subset)
        with _TABLE_LOCK:
            cid = self.ids.get(key)
            if cid is None:
                cid = self.ids[key] = len(self.keys)
                self.keys.append(key)
                self.states.append(q)
                self.sizes.append(len(subset))
                self.finals.append(bool(subset & self.aut._finals[q]))
        return cid

    def _put(self, memo: Dict, key, value):
        with _TABLE_LOCK:
            self.entries += 1
            memo[key] = value
        return value

    def start(self, label: str) -> Tuple[Tuple[int, ...], int]:
        aut = self.aut
        cells = tuple(self.cell(q, aut._inits[q]) for q in aut.states_for_label(label))
        return self._put(self.starts, label, (cells, sum(self.sizes[c] for c in cells)))

    def step(self, cid: int, reach: Tuple[int, ...]) -> int:
        q, subset = self.keys[cid]
        nfa, names = self.aut.horizontals[q], self.aut.names
        nxt = frozenset().union(*(nfa.step(subset, names[qc]) for qc in reach))
        return self._put(self.steps, (cid, reach), self.cell(q, nxt) if nxt else -1)

    def admit(self, cid: int, label: str) -> bool:
        q, subset = self.keys[cid]
        nfa, names = self.aut.horizontals[q], self.aut.names
        ok = any(nfa.step(subset, names[qc]) for qc in self.aut.states_for_label(label))
        return self._put(self.admits, (cid, label), ok)


@dataclass
class StreamingTreeValidator:
    """Single-pass NFTA run over ``("start"|"end"|"text", payload)``
    events.

    One frame per open element holds a table cell (:class:`_Table`) for
    each still-live candidate state; dead candidates are dropped at once,
    so a frame is the antichain of runs that can still complete.  A start
    event rejects a child no parent cell admits at once.  Peak memory is
    ``max_stack_depth`` frames of at most ``max_tracked_cells`` total
    automaton states — bounded by document *depth*, never length.

    Verdicts are byte-identical to ``EDTD.validate`` on the event stream
    of the same document (and to ``DTD.validate`` for DTD-compiled
    automata): a structurally malformed stream, like an unparseable
    document, is simply invalid.  Use
    :func:`validate_events_or_raise` to distinguish the two failure
    kinds as typed exceptions.
    """

    automaton: TreeAutomaton
    max_stack_depth: int = 0
    max_tracked_cells: int = 0
    #: open frames: (label, cells, total subset size)
    _stack: List[Tuple[str, Tuple[int, ...], int]] = field(default_factory=list)
    _table: Optional[_Table] = None
    _cells: int = 0
    _done: bool = False
    _accepted: bool = False
    _failed: Optional[str] = None
    _malformed: bool = False

    def __post_init__(self):
        self._table = self.automaton._current_table()

    @property
    def failure(self) -> Optional[str]:
        return self._failed

    @property
    def malformed(self) -> bool:
        """True when the failure was a broken event stream rather than a
        schema violation."""
        return self._malformed

    def _fail(self, message: str) -> bool:
        self._failed = message
        return False

    def _fail_malformed(self, message: str) -> bool:
        self._failed = message
        self._malformed = True
        return False

    def feed(self, event) -> bool:
        """Consume one event; returns False once the run has failed."""
        if self._failed is not None:
            return False
        try:
            kind, payload = event
        except (TypeError, ValueError):
            return self._fail_malformed(f"malformed event {event!r}")
        if kind == "text":
            return True
        table = self._table
        if table.entries > table.room:
            table = self._migrate()
        stack = self._stack
        if kind == "start":
            if stack:
                parent_label, parent, _ = stack[-1]
                admits = table.admits
                for cid in parent:
                    ok = admits.get((cid, payload))
                    if ok is None:
                        ok = table.admit(cid, payload)
                    if ok:
                        break
                else:
                    return self._fail(
                        f"child {payload!r} not allowed here under {parent_label!r}"
                    )
            elif self._done:
                return self._fail_malformed("second root element in stream")
            cells, size = table.starts.get(payload) or table.start(payload)
            if not cells:
                return self._fail(f"no schema type admits element {payload!r}")
            if not stack and not any(
                table.states[cid] in self.automaton.roots for cid in cells
            ):
                return self._fail(f"root element {payload!r} admits no start type")
            stack.append((payload, cells, size))
            if len(stack) > self.max_stack_depth:
                self.max_stack_depth = len(stack)
            self._cells += size
            if self._cells > self.max_tracked_cells:
                self.max_tracked_cells = self._cells
            return True
        if kind == "end":
            if not stack:
                return self._fail_malformed(f"unbalanced end event {payload!r}")
            label, frame, size = stack.pop()
            if label != payload:
                return self._fail_malformed(
                    f"end event {payload!r} does not close open element {label!r}"
                )
            self._cells -= size
            finals, states = table.finals, table.states
            reach = tuple([states[cid] for cid in frame if finals[cid]])
            if not stack:
                self._done = True
                if not any(q in self.automaton.roots for q in reach):
                    return self._fail("root element admits no start type")
                self._accepted = True
                return True
            if not reach:
                return self._fail(f"children of {payload!r} admit no type")
            parent_label, parent, before = stack[-1]
            steps, sizes = table.steps, table.sizes
            cells = []
            after = 0
            for cid in parent:
                to = steps.get((cid, reach))
                if to is None:
                    to = table.step(cid, reach)
                if to >= 0:
                    cells.append(to)
                    after += sizes[to]
            if not cells:
                return self._fail(
                    f"element {payload!r} is not allowed under {parent_label!r} here"
                )
            stack[-1] = (parent_label, tuple(cells), after)
            self._cells += after - before
            if self._cells > self.max_tracked_cells:
                self.max_tracked_cells = self._cells
            return True
        return self._fail_malformed(f"unknown event kind {kind!r}")

    def _migrate(self) -> _Table:
        """Move the open frames to the automaton's fresh table."""
        old = self._table
        new = self._table = self.automaton._current_table(old)
        self._stack = [
            (label, tuple(new.cell(*old.keys[c]) for c in frame), size)
            for label, frame, size in self._stack
        ]
        return new

    def finish(self) -> bool:
        """True iff the whole stream formed exactly one valid document."""
        return (
            self._failed is None
            and self._done
            and not self._stack
            and self._accepted
        )


def validate_events(schema, events) -> bool:
    """Validate an event stream against any schema (or a pre-compiled
    :class:`TreeAutomaton`) in a single pass."""
    validator = StreamingTreeValidator(compile_schema(schema))
    return all(map(validator.feed, events)) and validator.finish()


def validate_events_or_raise(schema, events) -> StreamingTreeValidator:
    """Like :func:`validate_events` but raises
    :class:`~repro.errors.MalformedStreamError` for broken streams and
    :class:`~repro.errors.ValidationError` for schema violations;
    returns the validator (with its high-water metrics) on success."""
    validator = StreamingTreeValidator(compile_schema(schema))
    all(map(validator.feed, events))
    if validator.finish():
        return validator
    if validator.failure is None:
        # no event ever failed: the stream simply never became one
        # complete document (empty, or elements left open) — that is
        # structural breakage, not a schema violation
        if validator._stack:
            raise MalformedStreamError(
                f"stream ended with {len(validator._stack)} element(s) "
                "still open"
            )
        raise MalformedStreamError("stream contained no document")
    if validator.malformed:
        raise MalformedStreamError(validator.failure)
    raise ValidationError(validator.failure)
