"""Finite automata: Glushkov construction, subset construction, products,
minimization, and the basic language algorithms.

Everything downstream (containment, determinism, the BKW test, RPQ
evaluation) sits on this module.  Its one construction,
:func:`glushkov`, builds the *position automaton* of an expression.  It is
epsilon-free, has exactly ``#positions + 1`` states, and is the canonical
tool for deciding *determinism* of expressions: an expression is
deterministic (one-unambiguous) iff its Glushkov automaton is
deterministic (Brüggemann-Klein & Wood).  The classical Thompson
epsilon-NFA is kept only as a cross-check, in
:func:`repro.testing.reference.thompson`.  :class:`NFA` still supports
epsilon transitions (:data:`EPS`) for automata built elsewhere.

States are plain integers.  Alphabets are sets of label strings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional as Opt, Set, Tuple

from .ast import (
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

EPS = ""  # epsilon transition label inside NFAs (labels are never empty)


@dataclass
class NFA:
    """A nondeterministic finite automaton.

    Attributes
    ----------
    num_states:
        States are ``0 .. num_states - 1``.
    initial:
        Set of initial states.
    finals:
        Set of accepting states.
    transitions:
        ``transitions[q]`` maps a label (or :data:`EPS`) to a set of
        successor states.
    alphabet:
        The labels this automaton may read (epsilon excluded).
    """

    num_states: int
    initial: Set[int]
    finals: Set[int]
    transitions: List[Dict[str, Set[int]]]
    alphabet: Set[str] = field(default_factory=set)

    def __post_init__(self):
        if not self.alphabet:
            for trans in self.transitions:
                for label in trans:
                    if label != EPS:
                        self.alphabet.add(label)

    # -- construction helpers --------------------------------------------------

    @classmethod
    def empty_language(cls) -> "NFA":
        return cls(1, {0}, set(), [{}])

    @classmethod
    def epsilon_language(cls) -> "NFA":
        return cls(1, {0}, {0}, [{}])

    def add_state(self) -> int:
        self.transitions.append({})
        self.num_states += 1
        return self.num_states - 1

    def add_transition(self, src: int, label: str, dst: int) -> None:
        self.transitions[src].setdefault(label, set()).add(dst)
        if label != EPS:
            self.alphabet.add(label)

    # -- core algorithms --------------------------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """All states reachable from ``states`` via epsilon transitions."""
        seen = set(states)
        stack = list(seen)
        while stack:
            state = stack.pop()
            for nxt in self.transitions[state].get(EPS, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def step(self, states: Iterable[int], label: str) -> FrozenSet[int]:
        """One label step followed by epsilon closure."""
        direct = set()
        for state in states:
            direct.update(self.transitions[state].get(label, ()))
        return self.epsilon_closure(direct)

    def accepts(self, word: Iterable[str]) -> bool:
        """Membership test by on-the-fly subset simulation."""
        current = self.epsilon_closure(self.initial)
        for label in word:
            current = self.step(current, label)
            if not current:
                return False
        return bool(current & self.finals)

    def is_empty(self) -> bool:
        """Whether the accepted language is empty (no final state reachable)."""
        seen = set(self.initial)
        queue = deque(seen)
        while queue:
            state = queue.popleft()
            if state in self.finals:
                return False
            for targets in self.transitions[state].values():
                for nxt in targets:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
        return True

    def shortest_accepted_word(self) -> Opt[Tuple[str, ...]]:
        """A shortest accepted word, or None if the language is empty.

        BFS over subset states, tracking one witness label per step.
        """
        start = self.epsilon_closure(self.initial)
        if start & self.finals:
            return ()
        seen = {start}
        queue: deque = deque([(start, ())])
        while queue:
            states, prefix = queue.popleft()
            labels = set()
            for state in states:
                labels.update(
                    lbl for lbl in self.transitions[state] if lbl != EPS
                )
            for label in sorted(labels):
                nxt = self.step(states, label)
                if not nxt or nxt in seen:
                    continue
                word = prefix + (label,)
                if nxt & self.finals:
                    return word
                seen.add(nxt)
                queue.append((nxt, word))
        return None

    def reverse(self) -> "NFA":
        """The automaton for the reversed language."""
        rev = NFA(
            self.num_states,
            set(self.finals),
            set(self.initial),
            [{} for _ in range(self.num_states)],
            set(self.alphabet),
        )
        for src, trans in enumerate(self.transitions):
            for label, targets in trans.items():
                for dst in targets:
                    rev.transitions[dst].setdefault(label, set()).add(src)
        return rev

    def determinize(self, alphabet: Opt[Set[str]] = None) -> "DFA":
        """Subset construction producing a *complete* DFA.

        The DFA is complete over ``alphabet`` (defaults to the NFA's own);
        completeness is what makes complementation a final-set flip.
        """
        sigma = sorted(alphabet if alphabet is not None else self.alphabet)
        start = self.epsilon_closure(self.initial)
        index: Dict[FrozenSet[int], int] = {start: 0}
        table: List[Dict[str, int]] = [{}]
        finals: Set[int] = set()
        if start & self.finals:
            finals.add(0)
        queue = deque([start])
        while queue:
            states = queue.popleft()
            src = index[states]
            for label in sigma:
                nxt = self.step(states, label)
                if nxt not in index:
                    index[nxt] = len(table)
                    table.append({})
                    if nxt & self.finals:
                        finals.add(index[nxt])
                    queue.append(nxt)
                table[src][label] = index[nxt]
        return DFA(len(table), 0, finals, table, set(sigma))


@dataclass
class DFA:
    """A complete deterministic finite automaton.

    ``transitions[q][label]`` is the unique successor; every state has a
    transition for every letter of :attr:`alphabet` (a sink state plays the
    role of "undefined").
    """

    num_states: int
    initial: int
    finals: Set[int]
    transitions: List[Dict[str, int]]
    alphabet: Set[str]

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.initial
        for label in word:
            nxt = self.transitions[state].get(label)
            if nxt is None:
                return False
            state = nxt
        return state in self.finals

    def complement(self) -> "DFA":
        """The DFA for the complement language (same alphabet)."""
        return DFA(
            self.num_states,
            self.initial,
            set(range(self.num_states)) - self.finals,
            [dict(trans) for trans in self.transitions],
            set(self.alphabet),
        )

    def reachable_states(self) -> Set[int]:
        seen = {self.initial}
        queue = deque([self.initial])
        while queue:
            state = queue.popleft()
            for nxt in self.transitions[state].values():
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def is_empty(self) -> bool:
        return not (self.reachable_states() & self.finals)

    def minimize(self) -> "DFA":
        """Hopcroft's partition-refinement minimization.

        The result is complete, trimmed to reachable states, and canonical
        up to state numbering (states are renumbered in BFS order from the
        initial state, so two equivalent DFAs minimize to *identical*
        structures — used by the equivalence and BKW tests).
        """
        reachable = sorted(self.reachable_states())
        remap = {old: new for new, old in enumerate(reachable)}
        n = len(reachable)
        finals = {remap[q] for q in self.finals if q in remap}
        trans = [
            {lbl: remap[dst] for lbl, dst in self.transitions[old].items()}
            for old in reachable
        ]
        sigma = sorted(self.alphabet)

        # inverse transition table for Hopcroft
        inverse: Dict[str, List[Set[int]]] = {
            label: [set() for _ in range(n)] for label in sigma
        }
        for src in range(n):
            for label, dst in trans[src].items():
                inverse[label][dst].add(src)

        non_finals = set(range(n)) - finals
        partition: List[Set[int]] = [s for s in (finals, non_finals) if s]
        worklist: List[Set[int]] = [min(partition, key=len)] if len(
            partition
        ) == 2 else list(partition)

        while worklist:
            splitter = worklist.pop()
            for label in sigma:
                predecessors = set()
                for state in splitter:
                    predecessors |= inverse[label][state]
                if not predecessors:
                    continue
                new_partition: List[Set[int]] = []
                for block in partition:
                    inter = block & predecessors
                    diff = block - predecessors
                    if inter and diff:
                        new_partition.append(inter)
                        new_partition.append(diff)
                        if block in worklist:
                            worklist.remove(block)
                            worklist.append(inter)
                            worklist.append(diff)
                        else:
                            worklist.append(min(inter, diff, key=len))
                    else:
                        new_partition.append(block)
                partition = new_partition

        block_of = {}
        for idx, block in enumerate(partition):
            for state in block:
                block_of[state] = idx

        # renumber blocks in BFS order from the initial block for canonicity
        start_block = block_of[remap[self.initial]]
        order = {start_block: 0}
        queue = deque([start_block])
        block_trans: Dict[int, Dict[str, int]] = {}
        while queue:
            blk = queue.popleft()
            representative = next(iter(partition[blk]))
            row = {}
            for label in sigma:
                dst_block = block_of[trans[representative][label]]
                row[label] = dst_block
                if dst_block not in order:
                    order[dst_block] = len(order)
                    queue.append(dst_block)
            block_trans[blk] = row

        m = len(order)
        new_trans: List[Dict[str, int]] = [{} for _ in range(m)]
        new_finals: Set[int] = set()
        for blk, new_id in order.items():
            new_trans[new_id] = {
                label: order[dst] for label, dst in block_trans[blk].items()
            }
            representative = next(iter(partition[blk]))
            if representative in finals:
                new_finals.add(new_id)
        return DFA(m, 0, new_finals, new_trans, set(sigma))

    def to_nfa(self) -> NFA:
        nfa = NFA(
            self.num_states,
            {self.initial},
            set(self.finals),
            [
                {label: {dst} for label, dst in trans.items()}
                for trans in self.transitions
            ],
            set(self.alphabet),
        )
        return nfa

    def isomorphic_to(self, other: "DFA") -> bool:
        """Structural equality for canonically-minimized DFAs."""
        if (
            self.num_states != other.num_states
            or self.alphabet != other.alphabet
            or self.finals != other.finals
            or self.initial != other.initial
        ):
            return False
        return self.transitions == other.transitions


# ---------------------------------------------------------------------------
# Glushkov (position) automaton
# ---------------------------------------------------------------------------


@dataclass
class _PositionSets:
    nullable: bool
    first: Set[int]
    last: Set[int]
    follow: Dict[int, Set[int]]


def _positions(expr: Regex, counter: List[int], labels: Dict[int, str]):
    """Linearize: assign a unique position to every Symbol occurrence and
    compute (nullable, first, last, follow) bottom-up."""
    if isinstance(expr, Empty):
        return _PositionSets(False, set(), set(), {})
    if isinstance(expr, Epsilon):
        return _PositionSets(True, set(), set(), {})
    if isinstance(expr, Symbol):
        pos = counter[0]
        counter[0] += 1
        labels[pos] = expr.label
        return _PositionSets(False, {pos}, {pos}, {pos: set()})
    if isinstance(expr, Concat):
        parts = [_positions(p, counter, labels) for p in expr.parts]
        follow: Dict[int, Set[int]] = {}
        for part in parts:
            for pos, targets in part.follow.items():
                follow.setdefault(pos, set()).update(targets)
        # chain pending last positions -> first(next part); nullable parts
        # are "transparent", so pending positions accumulate across them
        pending: Set[int] = set(parts[0].last)
        for right in parts[1:]:
            for pos in pending:
                follow.setdefault(pos, set()).update(right.first)
            if right.nullable:
                pending |= right.last
            else:
                pending = set(right.last)
        nullable = all(p.nullable for p in parts)
        first: Set[int] = set()
        for part in parts:
            first |= part.first
            if not part.nullable:
                break
        last: Set[int] = set()
        for part in reversed(parts):
            last |= part.last
            if not part.nullable:
                break
        return _PositionSets(nullable, first, last, follow)
    if isinstance(expr, Union):
        parts = [_positions(p, counter, labels) for p in expr.parts]
        follow = {}
        first = set()
        last = set()
        for part in parts:
            for pos, targets in part.follow.items():
                follow.setdefault(pos, set()).update(targets)
            first |= part.first
            last |= part.last
        nullable = any(p.nullable for p in parts)
        return _PositionSets(nullable, first, last, follow)
    if isinstance(expr, (Star, Plus)):
        inner = _positions(expr.child, counter, labels)
        follow = {pos: set(t) for pos, t in inner.follow.items()}
        for pos in inner.last:
            follow.setdefault(pos, set()).update(inner.first)
        nullable = True if isinstance(expr, Star) else inner.nullable
        return _PositionSets(nullable, set(inner.first), set(inner.last), follow)
    if isinstance(expr, Optional):
        inner = _positions(expr.child, counter, labels)
        return _PositionSets(True, inner.first, inner.last, inner.follow)
    raise TypeError(f"unknown node {expr!r}")


def glushkov(expr: Regex) -> NFA:
    """The Glushkov position automaton of ``expr``.

    State 0 is the (only) initial state; state ``i + 1`` corresponds to
    position ``i`` of the linearized expression.  The automaton has no
    epsilon transitions, and every transition into state ``i + 1`` carries
    the label of position ``i`` — the property underlying the determinism
    test in :mod:`repro.regex.determinism`.
    """
    counter = [0]
    labels: Dict[int, str] = {}
    sets = _positions(expr, counter, labels)
    num_positions = counter[0]
    nfa = NFA(
        num_positions + 1,
        {0},
        set(),
        [{} for _ in range(num_positions + 1)],
        set(labels.values()),
    )
    for pos in sets.first:
        nfa.add_transition(0, labels[pos], pos + 1)
    for pos, targets in sets.follow.items():
        for target in targets:
            nfa.add_transition(pos + 1, labels[target], target + 1)
    nfa.finals = {pos + 1 for pos in sets.last}
    if sets.nullable:
        nfa.finals.add(0)
    return nfa


def glushkov_position_labels(expr: Regex) -> Dict[int, str]:
    """Map Glushkov state ``pos + 1`` back to its symbol label (for the
    determinism diagnostics)."""
    counter = [0]
    labels: Dict[int, str] = {}
    _positions(expr, counter, labels)
    return {pos + 1: label for pos, label in labels.items()}


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def product_intersection(automata: List[NFA]) -> NFA:
    """On-the-fly product automaton for the intersection of several NFAs.

    Only the reachable part of the product is materialized, which keeps the
    common case (early-empty intersections) cheap; the worst case is the
    usual exponential product.
    """
    if not automata:
        raise ValueError("need at least one automaton")
    alphabet = set.intersection(*[a.alphabet for a in automata]) if len(
        automata
    ) > 1 else set(automata[0].alphabet)

    closures = [a.epsilon_closure(a.initial) for a in automata]
    start = tuple(closures)
    index: Dict[Tuple[FrozenSet[int], ...], int] = {start: 0}
    result = NFA(1, {0}, set(), [{}], set(alphabet))
    if all(c & a.finals for c, a in zip(start, automata)):
        result.finals.add(0)
    queue = deque([start])
    while queue:
        states = queue.popleft()
        src = index[states]
        for label in alphabet:
            nxt = tuple(
                a.step(component, label)
                for a, component in zip(automata, states)
            )
            if any(not component for component in nxt):
                continue
            if nxt not in index:
                index[nxt] = len(result.transitions)
                result.transitions.append({})
                result.num_states += 1
                if all(
                    component & a.finals
                    for component, a in zip(nxt, automata)
                ):
                    result.finals.add(index[nxt])
                queue.append(nxt)
            result.add_transition(src, label, index[nxt])
    return result


def minimal_dfa(expr: Regex) -> DFA:
    """The canonical minimal complete DFA of an expression's language."""
    return glushkov(expr).determinize().minimize()
