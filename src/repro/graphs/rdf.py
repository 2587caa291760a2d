"""An RDF triple store and the dataset metrics of Section 7.

An RDF data set is a set of triples ``(s, p, o)``.  The store keeps the
three classical permutation indexes (SPO, POS, OSP) so that any triple
pattern with constants in any positions is answered by index lookup —
the substrate the SPARQL evaluator (:mod:`repro.sparql.evaluation`) and
the RPQ engine (:mod:`repro.graphs.paths`) run on.

The analysis methods reproduce the practical-study metrics:

* :meth:`TripleStore.predicate_subject_overlap` /
  :meth:`predicate_object_overlap` — the ratios
  ``|P ∩ S| / |P ∪ S|`` and ``|P ∩ O| / |P ∪ O|`` of Fernandez et al.,
  which are ~0 in real data (justifying the edge-labeled-graph
  abstraction);
* :meth:`predicate_lists` — the per-subject predicate sets ``L_s``; in
  real data ~99% of subjects share one of few lists;
* :meth:`out_degrees` / :meth:`in_degrees` — the degree distributions in
  which power laws were observed (Ding & Finin, Bachlechner & Strang);
* :meth:`sp_multiplicities` / :meth:`po_multiplicities` — how many
  objects a (s, p) pair relates to, and how many subjects a (p, o) pair.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional as Opt, Set, Tuple

from ..core.hashing import accumulate, accumulator_hex, item_digest

Triple = Tuple[str, str, str]


def _render_fingerprint(accumulator: int, size: int) -> str:
    return f"c{accumulator_hex(accumulator, size)}-t{size:x}"


def combine_content(contents: Iterable[Tuple[int, int]]) -> str:
    """The fingerprint of the union of disjoint triple sets, each given
    as its ``(accumulator, triple count)`` — how per-predicate contents,
    wherever they are held, combine into a scoped fingerprint."""
    acc = size = 0
    for p_acc, p_size in contents:
        acc = accumulate(acc, p_acc)
        size += p_size
    return _render_fingerprint(acc, size)


class TripleStore:
    """An in-memory RDF store with SPO / POS / OSP indexes.

    Alongside the classical string-keyed permutation indexes the store
    maintains an *interning layer*: every node (subject or object) and
    every predicate is assigned a dense integer id on first sight, and
    per-predicate forward/backward adjacency is kept as ``{node id:
    [successor ids]}`` dicts.  The compiled RPQ engine
    (:mod:`repro.graphs.engine`) runs entirely on these integer indexes;
    the string-keyed API stays the source of truth for everything else.
    """

    def __init__(self, triples: Opt[Iterable[Triple]] = None):
        self._spo: Dict[str, Dict[str, Set[str]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._pos: Dict[str, Dict[str, Set[str]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._osp: Dict[str, Dict[str, Set[str]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._size = 0
        # interning layer ---------------------------------------------------
        self._node_ids: Dict[str, int] = {}
        self._node_names: List[str] = []
        self._pred_ids: Dict[str, int] = {}
        # _fwd[pid][nid] = successor node ids, _bwd[pid][nid] = predecessors
        self._fwd: List[Dict[int, List[int]]] = []
        self._bwd: List[Dict[int, List[int]]] = []
        self._version = 0
        # order-independent content accumulator (sum of per-triple
        # digests): fingerprint() derives from it in O(1); the same
        # digests summed per predicate give (accumulator, triple count)
        # of each predicate's sub-store, for fingerprint(predicates)
        self._content_acc = 0
        self._pred_content: Dict[str, Tuple[int, int]] = {}
        # memoized frozensets handed out by successors()/predecessors()
        self._succ_cache: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self._pred_cache: Dict[Tuple[str, str], FrozenSet[str]] = {}
        if triples:
            for s, p, o in triples:
                self.add(s, p, o)

    def _intern_node(self, name: str) -> int:
        nid = self._node_ids.get(name)
        if nid is None:
            nid = len(self._node_names)
            self._node_ids[name] = nid
            self._node_names.append(name)
        return nid

    def _intern_predicate(self, name: str) -> int:
        pid = self._pred_ids.get(name)
        if pid is None:
            pid = len(self._fwd)
            self._pred_ids[name] = pid
            self._fwd.append({})
            self._bwd.append({})
        return pid

    def add(self, s: str, p: str, o: str) -> bool:
        """Insert a triple; returns False when it was already present."""
        if o in self._spo[s][p]:
            return False
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        self._size += 1
        sid = self._intern_node(s)
        oid = self._intern_node(o)
        pid = self._intern_predicate(p)
        self._fwd[pid].setdefault(sid, []).append(oid)
        self._bwd[pid].setdefault(oid, []).append(sid)
        self._version += 1
        digest = item_digest([s, p, o])
        self._content_acc = accumulate(self._content_acc, digest)
        acc, count = self._pred_content.get(p, (0, 0))
        self._pred_content[p] = (accumulate(acc, digest), count + 1)
        self._succ_cache.pop((s, p), None)
        self._pred_cache.pop((o, p), None)
        return True

    def __len__(self) -> int:
        return self._size

    def __reduce__(self):
        # the defaultdict-of-lambda indexes are not picklable; ship the
        # triple list and rebuild on the other side.  The content
        # fingerprint is order-independent, so the copy reports the
        # same fingerprint as the original (the mutation counter resets
        # — it is per-process by design).  Mapped stores override this
        # to ship only their image path.
        return (TripleStore, (sorted(self.triples()),))

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        return o in self._spo.get(s, {}).get(p, set())

    def triples(
        self,
        s: Opt[str] = None,
        p: Opt[str] = None,
        o: Opt[str] = None,
    ) -> Iterator[Triple]:
        """All triples matching the (possibly wildcarded) pattern.

        The best index for the bound positions is chosen automatically.
        """
        if s is not None:
            by_predicate = self._spo.get(s, {})
            predicates = [p] if p is not None else list(by_predicate)
            for predicate in predicates:
                objects = by_predicate.get(predicate, set())
                if o is not None:
                    if o in objects:
                        yield (s, predicate, o)
                else:
                    for obj in objects:
                        yield (s, predicate, obj)
            return
        if o is not None:
            by_subject = self._osp.get(o, {})
            for subject, predicates in by_subject.items():
                for predicate in predicates:
                    if p is None or predicate == p:
                        yield (subject, predicate, o)
            return
        if p is not None:
            for obj, subjects in self._pos.get(p, {}).items():
                for subject in subjects:
                    yield (subject, p, obj)
            return
        for subject, by_predicate in self._spo.items():
            for predicate, objects in by_predicate.items():
                for obj in objects:
                    yield (subject, predicate, obj)

    # -- basic sets ---------------------------------------------------------------

    def subjects(self) -> FrozenSet[str]:
        return frozenset(
            s for s, by_p in self._spo.items() if any(by_p.values())
        )

    def predicates(self) -> FrozenSet[str]:
        return frozenset(
            p for p, by_o in self._pos.items() if any(by_o.values())
        )

    def objects(self) -> FrozenSet[str]:
        return frozenset(
            o for o, by_s in self._osp.items() if any(by_s.values())
        )

    def nodes(self) -> FrozenSet[str]:
        """Subjects and objects — the nodes of the edge-labeled graph."""
        return frozenset(self._node_names)

    # -- edge-labeled-graph navigation (used by the RPQ engine) ---------------------

    def successors(self, node: str, predicate: str) -> FrozenSet[str]:
        key = (node, predicate)
        cached = self._succ_cache.get(key)
        if cached is None:
            cached = frozenset(self._spo.get(node, {}).get(predicate, ()))
            self._succ_cache[key] = cached
        return cached

    def predecessors(self, node: str, predicate: str) -> FrozenSet[str]:
        key = (node, predicate)
        cached = self._pred_cache.get(key)
        if cached is None:
            cached = frozenset(self._pos.get(predicate, {}).get(node, ()))
            self._pred_cache[key] = cached
        return cached

    # -- integer interning layer (the compiled engine's substrate) -------------------

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped on every successful add)."""
        return self._version

    def fingerprint(self, predicates: Opt[Iterable[str]] = None) -> str:
        """The persistent content fingerprint of the store's data, or of
        the sub-store of its ``predicates`` triples.

        Derived from incrementally maintained accumulators (sums of
        per-triple SHA-256 digests, see :mod:`repro.core.hashing`), so it
        is *order-independent* and *portable*: two stores holding the
        same triples report the same fingerprint regardless of insertion
        order, process, or machine, and a
        :class:`~repro.store.mmapstore.MappedTripleStore` opened from an
        image reports the fingerprint of the store that was frozen.

        With ``predicates`` the fingerprint is that of the store
        restricted to those predicates (absent ones contribute nothing),
        built from per-predicate sums of the same digests — so for the
        full predicate set it equals ``fingerprint()``, and it changes
        exactly when a triple over one of ``predicates`` is added.  An
        answer that reads only those predicates can be cached under it
        and survive writes to every other predicate.  Any successful
        :meth:`add` changes the whole-store fingerprint (up to SHA-256
        collisions); stores only grow, so no fingerprint ever recurs.
        """
        if predicates is None:
            return _render_fingerprint(self._content_acc, self._size)
        return combine_content(
            self._predicate_content(predicate) for predicate in set(predicates)
        )

    def _predicate_content(self, predicate: str) -> Tuple[int, int]:
        """``(accumulator, triple count)`` of one predicate's triples."""
        return self._pred_content.get(predicate, (0, 0))

    def save(self, path) -> str:
        """Freeze the store into an on-disk mmap image (see
        :mod:`repro.store.mmapstore` for the format); returns the
        written fingerprint.  Open it with
        :meth:`repro.store.mmapstore.MappedTripleStore.load`."""
        from ..store.mmapstore import write_image

        return write_image(self, path)

    def node_count(self) -> int:
        return len(self._node_names)

    def node_id(self, name: str) -> Opt[int]:
        """Dense integer id of a node, or None if it never occurred."""
        return self._node_ids.get(name)

    def node_name(self, nid: int) -> str:
        return self._node_names[nid]

    def node_names(self) -> List[str]:
        """All node names indexed by their dense ids (do not mutate)."""
        return self._node_names

    def predicate_id(self, name: str) -> Opt[int]:
        """Dense integer id of a predicate, or None if absent."""
        return self._pred_ids.get(name)

    def predicate_names(self) -> List[str]:
        """All predicate names indexed by their dense ids."""
        names: List[str] = [""] * len(self._pred_ids)
        for name, pid in self._pred_ids.items():
            names[pid] = name
        return names

    def forward_adjacency(self, pid: int) -> Dict[int, List[int]]:
        """``{subject id: [object ids]}`` for one predicate (do not mutate)."""
        return self._fwd[pid]

    def backward_adjacency(self, pid: int) -> Dict[int, List[int]]:
        """``{object id: [subject ids]}`` for one predicate (do not mutate)."""
        return self._bwd[pid]

    def out_edges(self, node: str) -> Iterator[Tuple[str, str]]:
        """(predicate, object) pairs leaving ``node``."""
        for predicate, objects in self._spo.get(node, {}).items():
            for obj in objects:
                yield predicate, obj

    def in_edges(self, node: str) -> Iterator[Tuple[str, str]]:
        """(predicate, subject) pairs entering ``node``."""
        for subject, predicates in self._osp.get(node, {}).items():
            for predicate in predicates:
                yield predicate, subject

    # -- Fernandez et al. metrics (Section 7) ----------------------------------------

    def predicate_subject_overlap(self) -> float:
        """``|P ∩ S| / |P ∪ S|`` — near zero in real data, which is what
        licenses the edge-labeled directed graph abstraction."""
        predicates, subjects = self.predicates(), self.subjects()
        union = predicates | subjects
        if not union:
            return 0.0
        return len(predicates & subjects) / len(union)

    def predicate_object_overlap(self) -> float:
        """``|P ∩ O| / |P ∪ O|``."""
        predicates, objects = self.predicates(), self.objects()
        union = predicates | objects
        if not union:
            return 0.0
        return len(predicates & objects) / len(union)

    def predicate_lists(self) -> Dict[str, FrozenSet[str]]:
        """``L_s`` for every subject: the set of outgoing predicates."""
        return {
            s: frozenset(by_p)
            for s, by_p in self._spo.items()
            if any(by_p.values())
        }

    def predicate_list_concentration(self) -> float:
        """Fraction of subjects covered by the most common predicate
        lists needed to reach 99% coverage would be a study choice; we
        report the fraction of subjects whose list equals one of the top
        few distinct lists — concretely, the share of the single most
        common list (1.0 means every subject has the same list)."""
        lists = Counter(self.predicate_lists().values())
        total = sum(lists.values())
        if not total:
            return 0.0
        return lists.most_common(1)[0][1] / total

    def distinct_predicate_lists(self) -> int:
        return len(set(self.predicate_lists().values()))

    def out_degrees(self) -> Dict[str, int]:
        """Number of triples per subject (the out-degree distribution)."""
        return {
            s: sum(len(objs) for objs in by_p.values())
            for s, by_p in self._spo.items()
            if any(by_p.values())
        }

    def in_degrees(self) -> Dict[str, int]:
        """Number of triples per object (the in-degree distribution)."""
        return {
            o: sum(len(preds) for preds in by_s.values())
            for o, by_s in self._osp.items()
            if any(by_s.values())
        }

    def sp_multiplicities(self) -> List[int]:
        """|{o : (s,p,o) ∈ G}| per (s, p) pair — mostly 1 in real data."""
        return [
            len(objects)
            for by_p in self._spo.values()
            for objects in by_p.values()
            if objects
        ]

    def po_multiplicities(self) -> List[int]:
        """|{s : (s,p,o) ∈ G}| per (p, o) pair — mean near 1 but with a
        heavy tail (high standard deviation) in real data."""
        return [
            len(subjects)
            for by_o in self._pos.values()
            for subjects in by_o.values()
            if subjects
        ]

    def dataset_report(self) -> Dict[str, float]:
        """The headline metrics of a Fernandez-style characterization."""
        sp = self.sp_multiplicities()
        po = self.po_multiplicities()

        def mean(values: List[int]) -> float:
            return sum(values) / len(values) if values else 0.0

        def std(values: List[int]) -> float:
            if not values:
                return 0.0
            mu = mean(values)
            return (sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5

        in_deg = list(self.in_degrees().values())
        out_deg = list(self.out_degrees().values())
        return {
            "triples": float(len(self)),
            "subjects": float(len(self.subjects())),
            "predicates": float(len(self.predicates())),
            "objects": float(len(self.objects())),
            "ps_overlap": self.predicate_subject_overlap(),
            "po_overlap": self.predicate_object_overlap(),
            "distinct_predicate_lists": float(
                self.distinct_predicate_lists()
            ),
            "sp_mean": mean(sp),
            "sp_std": std(sp),
            "po_mean": mean(po),
            "po_std": std(po),
            "max_in_degree": float(max(in_deg, default=0)),
            "mean_in_degree": mean(in_deg),
            "max_out_degree": float(max(out_deg, default=0)),
            "mean_out_degree": mean(out_deg),
        }

    # -- projection to an unlabeled undirected graph (for treewidth) ------------------

    def undirected_adjacency(self) -> Dict[str, Set[str]]:
        adjacency: Dict[str, Set[str]] = defaultdict(set)
        for s, _p, o in self.triples():
            if s != o:
                adjacency[s].add(o)
                adjacency[o].add(s)
            else:
                adjacency.setdefault(s, set())
        return dict(adjacency)
