"""The sharded store tier: partitioned images, worker processes, and
the scatter-gather coordinator.

One GIL bounds the single-process service however many threads it runs
— real parallelism needs processes, and PR 6's memory-mapped images
were built so processes could share triple data zero-copy.  This module
closes the loop:

* :func:`shard_store` partitions a :class:`~repro.graphs.rdf.TripleStore`
  **by predicate** over a consistent-hash ring (:class:`ShardRing`) into
  N frozen per-shard images plus a ``manifest.json``
  (:class:`ShardManifest`) recording the layout, the per-shard
  fingerprints, and — crucially — the *source store's* content
  fingerprint, so a sharded deployment addresses exactly the result-cache
  keys the single-process deployment over the same data would.
* :class:`ShardWorker` is one worker process (a single-slot
  :class:`~concurrent.futures.ProcessPoolExecutor`) attached to one
  shard image.  Workers attach via :func:`repro.store.mmapstore.attach`
  (per-process memoized), so each holds its shard's pages mapped once
  and keeps its own compiled-plan and specialization caches across
  requests.
* :class:`ShardGroup` is the coordinator: it routes whole queries to a
  single shard when every predicate of the expression lives there
  (consistent-hash routing, the fast path), and otherwise runs the RPQ
  product BFS as a **name-level frontier exchange** — frontier
  ``(source token, node name, NFA state mask)`` entries are scattered
  to owning shards, advanced one edge level against the shard-local
  adjacency (:meth:`~repro.graphs.engine.CompiledRPQ.frontier_step`),
  and the partial frontiers merged by the coordinator, which alone
  decides which state bits are new.  Log batteries scatter
  ``(key, text, multiplicity)`` chunks over the workers, one per shard,
  reusing :func:`~repro.logs.pipeline.run_study`'s dedup and merge.
* :class:`ShardPatternExecutor` gives the SPARQL evaluator the same
  owners() routing: concrete-predicate triple patterns and path steps
  read the owner shard's image directly (coordinator-side zero-copy
  attach — the pages are already mapped by the shard's workers), and
  variable-predicate scans union per-predicate owner reads, so ``query``
  requests never fall back to a gathered union store.

The exchange is *payload-aware* and runs in barrier rounds:

* **Label pruning** (``label_prune=True``) — the coordinator attaches
  each shard image itself and consults the per-node label summary
  written at :func:`shard_store` time (image format 2, see
  :mod:`repro.store.mmapstore`): a frontier entry ships to a shard only
  when its mask has a pending transition on a predicate the shard owns
  *and* the node actually has a matching local edge.  Skewed workloads
  stop paying broadcast cost; entries a broadcast would have shipped
  are counted in ``pruned_entries``.  Images without a summary
  (format 1, or > 63 predicates) degrade gracefully to shard-level
  predicate pruning plus node-existence pruning.
* **Barrier rounds** — each round scatters every shard's buffered
  entries through :meth:`ShardGroup.scatter` (so the exchange shares
  its replica failover), gathers all partials, and merges them before
  the next round.  The reached/newness bookkeeping stays coordinator-
  owned, so both the answers and the byte counters below are
  deterministic for a given store and expression.

``scatter_bytes`` / ``gather_bytes`` / ``rounds`` / ``pruned_entries``
counters (estimated wire payload: token + name UTF-8 bytes plus a
constant per entry, deterministic across hosts) accumulate on the group
and mirror into the service's :class:`~.metrics.ServiceMetrics` when
the group is mounted in a :class:`~.server.ServiceCore`.

Partitioning by predicate makes single-predicate reads (and any
expression whose alphabet maps to one shard) local to one worker, while
multi-predicate expressions degrade gracefully to the frontier
exchange.  Masks crossing the process boundary are always *NFA* masks:
Glushkov state numbering is canonical per expression, so masks produced
by independent worker processes compose; DFA state numbers are a
process-local artifact and never leave a worker.

Failure handling: every shard may have several *attachments*
(``replicas``).  A worker that dies mid-call surfaces as
:class:`~concurrent.futures.process.BrokenProcessPool`; the coordinator
fails over to the next live attachment, respawns the broken one, and
only raises the typed :class:`~repro.errors.ShardError` when a shard
has no live attachment even after a respawn.  All coordinator methods
are blocking and run on the service scheduler's worker threads, so the
existing admission-control / deadline / single-flight machinery wraps
the scatter path unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from bisect import bisect_right
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional as Opt,
    Sequence,
    Set,
    Tuple,
)

from ..errors import ShardError, StoreUnavailableError
from ..graphs.engine import compile_rpq
from ..graphs.rdf import TripleStore
from ..logs.analyzer import LogReport
from ..logs.pipeline import _ingest, _merge_study, _study_worker
from ..regex.parser import parse as parse_regex
from ..sparql.evaluation import PatternExecutor

#: manifest format version (bump on incompatible layout changes)
MANIFEST_FORMAT = 1

#: manifest file name inside a shard directory
MANIFEST_NAME = "manifest.json"

#: virtual ring points per shard — enough that predicate load spreads
#: evenly for realistic predicate counts without making routing lookups
#: measurably slower
RING_POINTS = 64

#: battery scatter chunk bound (payload size only; fan-out is one chunk
#: per shard, see :meth:`ShardGroup.battery`)
BATTERY_CHUNK_SIZE = 256

#: union-store LRU entries kept per group for multi-shard simple/trail
#: decisions (read at eviction time)
_UNION_CACHE_ENTRIES = 8

#: estimated per-entry wire overhead of one frontier-exchange entry
#: beyond its token/name text: the 8-byte state mask plus framing.  The
#: byte counters exist to compare pruned against broadcast payload, so
#: the accounting must be deterministic and host-independent — it is an
#: estimate of serialized size, not a measurement of pickle output.
ENTRY_OVERHEAD_BYTES = 12


def _entries_bytes(entries: Iterable[Tuple[str, str, int]]) -> int:
    """Estimated scatter/gather payload of frontier entries."""
    total = 0
    for token, name, _mask in entries:
        total += (
            len(token.encode("utf-8"))
            + len(name.encode("utf-8"))
            + ENTRY_OVERHEAD_BYTES
        )
    return total


def _point(value: str) -> int:
    """A 64-bit hash position on the ring (sha256-based: stable across
    processes, runs, and machines — routing must never depend on
    ``PYTHONHASHSEED``)."""
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
    )


class ShardRing:
    """Consistent-hash ring mapping predicate names to shard indexes."""

    __slots__ = ("shards", "_points", "_owners")

    def __init__(self, shards: int, points: int = RING_POINTS):
        if shards < 1:
            raise ValueError("a ring needs at least one shard")
        self.shards = shards
        marks: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(points):
                marks.append((_point(f"shard:{shard}:{replica}"), shard))
        marks.sort()
        self._points = [mark for mark, _ in marks]
        self._owners = [shard for _, shard in marks]

    def shard_of(self, predicate: str) -> int:
        """The shard owning ``predicate`` (first ring mark clockwise)."""
        position = bisect_right(self._points, _point(predicate))
        if position == len(self._points):
            position = 0
        return self._owners[position]


@dataclass
class ShardManifest:
    """The on-disk description of one sharded layout."""

    directory: Path
    shards: int
    ring_points: int
    images: List[str]
    #: content fingerprint of the *source* store — the cache-key
    #: identity of the sharded deployment
    source_fingerprint: str
    total_triples: int
    shard_triples: List[int]
    shard_fingerprints: List[str]
    #: predicate name -> owning shard, for every predicate the source
    #: store actually contained (authoritative for routing; the ring is
    #: only consulted at write time)
    predicates: Dict[str, int] = field(default_factory=dict)

    def image_path(self, shard: int) -> Path:
        return self.directory / self.images[shard]

    def owners(self, predicates: Iterable[str]) -> List[int]:
        """The shards holding at least one of ``predicates`` (sorted;
        predicates the store never contained own nothing)."""
        return sorted(
            {
                self.predicates[predicate]
                for predicate in predicates
                if predicate in self.predicates
            }
        )

    def save(self) -> Path:
        path = self.directory / MANIFEST_NAME
        payload = {
            "format": MANIFEST_FORMAT,
            "shards": self.shards,
            "ring_points": self.ring_points,
            "images": self.images,
            "source_fingerprint": self.source_fingerprint,
            "total_triples": self.total_triples,
            "shard_triples": self.shard_triples,
            "shard_fingerprints": self.shard_fingerprints,
            "predicates": self.predicates,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, target: Any) -> "ShardManifest":
        """Open a manifest from a shard directory or a manifest path,
        raising the typed ``store_unavailable`` error on anything
        missing or malformed (callers registered the path; the failure
        must reach remote clients reconstructably)."""
        path = Path(target)
        if path.is_dir():
            path = path / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StoreUnavailableError(f"no shard manifest at {path}")
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreUnavailableError(
                f"unreadable shard manifest {path}: {exc}"
            )
        if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
            raise StoreUnavailableError(
                f"{path} is not a format-{MANIFEST_FORMAT} shard manifest"
            )
        try:
            manifest = cls(
                directory=path.parent,
                shards=payload["shards"],
                ring_points=payload["ring_points"],
                images=list(payload["images"]),
                source_fingerprint=payload["source_fingerprint"],
                total_triples=payload["total_triples"],
                shard_triples=list(payload["shard_triples"]),
                shard_fingerprints=list(payload["shard_fingerprints"]),
                predicates=dict(payload["predicates"]),
            )
        except (KeyError, TypeError) as exc:
            raise StoreUnavailableError(
                f"shard manifest {path} is missing fields: {exc}"
            )
        for image in manifest.images:
            if not (manifest.directory / image).exists():
                raise StoreUnavailableError(
                    f"shard image {image} named by {path} does not exist"
                )
        return manifest


def shard_store(
    store: TripleStore,
    directory: Any,
    shards: int,
    ring_points: int = RING_POINTS,
) -> ShardManifest:
    """Partition ``store`` by predicate into ``shards`` frozen images
    under ``directory`` and write the manifest.

    Every triple lands on exactly one shard (its predicate's ring
    owner), so shard edge sets are disjoint and their union is the
    source store; a shard that receives no predicate still gets a
    (valid, empty) image so the worker topology is uniform.
    """
    from ..store.mmapstore import write_image

    ring = ShardRing(shards, ring_points)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    parts = [TripleStore() for _ in range(shards)]
    predicates: Dict[str, int] = {}
    for predicate in store.predicate_names():
        predicates[predicate] = ring.shard_of(predicate)
    for s, p, o in store.triples():
        parts[predicates[p]].add(s, p, o)
    images: List[str] = []
    fingerprints: List[str] = []
    for index, part in enumerate(parts):
        name = f"shard-{index:04d}.img"
        write_image(part, directory / name)
        images.append(name)
        fingerprints.append(part.fingerprint())
    manifest = ShardManifest(
        directory=directory,
        shards=shards,
        ring_points=ring_points,
        images=images,
        source_fingerprint=store.fingerprint(),
        total_triples=len(store),
        shard_triples=[len(part) for part in parts],
        shard_fingerprints=fingerprints,
        predicates=predicates,
    )
    manifest.save()
    return manifest


# -- worker-side task functions ---------------------------------------------
#
# Module-level so they pickle by reference.  Every store-touching task
# takes the image path and goes through attach() — memoized per process,
# so after the first call the worker holds its shard mapped and every
# compiled plan / specialization cache it builds persists across calls.


@lru_cache(maxsize=256)
def _compiled(expr_text: str):
    """Parse + compile, memoized per process by raw expression text
    (the per-shard plan cache; compile_rpq adds structural dedup)."""
    return compile_rpq(parse_regex(expr_text, multi_char=True))


def _shard(image: str):
    from ..store.mmapstore import attach

    return attach(image)


def _task_ping(image: str) -> Dict[str, Any]:
    store = _shard(image)
    return {"pid": os.getpid(), "triples": len(store)}


def _task_node_names(image: str) -> List[str]:
    return list(_shard(image).node_names())


def _task_productive_sources(image: str, expr_text: str) -> List[str]:
    return _compiled(expr_text).productive_source_names(_shard(image))


def _task_frontier_step(
    image: str, expr_text: str, entries: List[Tuple[str, str, int]]
) -> List[Tuple[str, str, int]]:
    return _compiled(expr_text).frontier_step(_shard(image), entries)


def _task_evaluate_full(
    image: str,
    expr_text: str,
    sources: Opt[List[str]],
    targets: Opt[List[str]],
) -> List[Tuple[str, str]]:
    pairs = _compiled(expr_text).evaluate(_shard(image), sources, targets)
    return sorted(pairs)


def _task_search(
    image: str, expr_text: str, source: str, target: str, forbid_nodes: bool
) -> bool:
    return bool(
        _compiled(expr_text).search(_shard(image), source, target, forbid_nodes)
    )


def _task_edges(
    image: str, predicates: List[str]
) -> List[Tuple[str, str, str]]:
    store = _shard(image)
    wanted = set(predicates)
    return [
        triple for triple in store.triples() if triple[1] in wanted
    ]


def _task_die() -> None:  # pragma: no cover - the worker never returns
    """Test/chaos hook: kill the worker process from inside (hard exit,
    so the coordinator sees BrokenProcessPool exactly as on a crash)."""
    os._exit(1)


class ShardWorker:
    """One worker process attached to one shard image.

    A single-slot :class:`ProcessPoolExecutor` *is* the process: calls
    serialize through it, a crash surfaces as
    :class:`BrokenProcessPool`, and :meth:`respawn` replaces the
    process while keeping this object (and its identity in the group)
    stable.
    """

    def __init__(self, shard: int, replica: int, image: str):
        self.shard = shard
        self.replica = replica
        self.image = image
        self.respawns = 0
        self.broken = False
        self._executor = ProcessPoolExecutor(max_workers=1)

    def submit(self, fn: Callable, *args):
        """Submit without waiting; raises :class:`BrokenProcessPool`
        immediately when the process is already known-dead."""
        return self._executor.submit(fn, *args)

    def call(self, fn: Callable, *args):
        return self.submit(fn, *args).result()

    def ping(self) -> Dict[str, Any]:
        return self.call(_task_ping, self.image)

    def respawn(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(max_workers=1)
        self.respawns += 1
        self.broken = False

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


class ShardGroup:
    """The coordinator over one sharded layout: routing, scatter-gather
    evaluation, replica failover, and lifecycle.

    All public evaluation methods are blocking (they run on the service
    scheduler's worker threads) and return exactly what the
    single-process engine would for the same request — the
    ``sharded-service`` differential oracle holds them to it.
    """

    def __init__(
        self,
        target: Any,
        replicas: int = 1,
        *,
        label_prune: bool = True,
    ):
        if replicas < 1:
            raise ValueError("every shard needs at least one attachment")
        self.manifest = ShardManifest.load(target)
        self.replicas = replicas
        #: label-pruned scatter (False: broadcast the frontier to every
        #: owner shard, the pre-pruning behaviour — kept for comparison
        #: benchmarks and equivalence tests)
        self.label_prune = label_prune
        self.failovers = 0
        # exchange payload accounting (see module docstring); mirrored
        # into the service metrics registry when mounted in a core
        self.scatter_bytes = 0
        self.gather_bytes = 0
        self.rounds = 0
        self.pruned_entries = 0
        self.scattered_entries = 0
        self.service_metrics: Opt[Any] = None
        self._lock = threading.Lock()
        #: test/chaos instrumentation: called once per gather round
        self.gather_hook: Opt[Callable[[], None]] = None
        self.workers: List[List[ShardWorker]] = [
            [
                ShardWorker(shard, replica, str(self.manifest.image_path(shard)))
                for replica in range(replicas)
            ]
            for shard in range(self.manifest.shards)
        ]
        self._node_names: Opt[List[str]] = None
        self._union_cache: "OrderedDict[Tuple[str, frozenset], TripleStore]" = (
            OrderedDict()
        )
        self._mapped: List[Opt[Any]] = [None] * self.manifest.shards
        self._executor: Opt["ShardPatternExecutor"] = None

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """The *source* store's content fingerprint: result-cache keys
        of a sharded deployment equal the single-process ones."""
        return self.manifest.source_fingerprint

    def __len__(self) -> int:
        return self.manifest.total_triples

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        for attachments in self.workers:
            for worker in attachments:
                worker.close()

    def check_health(self) -> Dict[str, Any]:
        """Ping every attachment, respawning any that are broken.
        Returns a summary (used by the server's periodic health task
        and surfaced through ``stats``)."""
        healthy = 0
        respawned = 0
        for attachments in self.workers:
            for worker in attachments:
                try:
                    worker.ping()
                    healthy += 1
                except (BrokenProcessPool, RuntimeError):
                    with self._lock:
                        worker.respawn()
                    respawned += 1
                    try:
                        worker.ping()
                        healthy += 1
                    except (BrokenProcessPool, RuntimeError):
                        worker.broken = True
        return {
            "attachments": self.manifest.shards * self.replicas,
            "healthy": healthy,
            "respawned": respawned,
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "shards": self.manifest.shards,
            "replicas": self.replicas,
            "total_triples": self.manifest.total_triples,
            "shard_triples": list(self.manifest.shard_triples),
            "source_fingerprint": self.manifest.source_fingerprint,
            "failovers": self.failovers,
            "respawns": sum(
                worker.respawns
                for attachments in self.workers
                for worker in attachments
            ),
            "label_prune": self.label_prune,
            "scatter_bytes": self.scatter_bytes,
            "gather_bytes": self.gather_bytes,
            "rounds": self.rounds,
            "pruned_entries": self.pruned_entries,
            "scattered_entries": self.scattered_entries,
        }

    def _account(
        self,
        *,
        scatter: int = 0,
        gather: int = 0,
        rounds: int = 0,
        pruned: int = 0,
        entries: int = 0,
    ) -> None:
        """Fold one walk's exchange accounting into the group counters
        and, when mounted in a service core, the shared metrics
        registry (walks run concurrently on scheduler threads, hence
        the lock)."""
        with self._lock:
            self.scatter_bytes += scatter
            self.gather_bytes += gather
            self.rounds += rounds
            self.pruned_entries += pruned
            self.scattered_entries += entries
            metrics = self.service_metrics
            if metrics is not None:
                metrics.scatter_bytes += scatter
                metrics.gather_bytes += gather
                metrics.shard_rounds += rounds
                metrics.pruned_entries += pruned

    # -- coordinator-side image attach -------------------------------------------

    def _shard_mapped(self, shard: int):
        """The shard's image mapped into *this* process (zero-copy; the
        physical pages are shared with the shard's worker processes).
        Scatter pruning reads the per-node label summaries through it,
        and :class:`ShardPatternExecutor` serves owners()-routed SPARQL
        reads from it without an IPC round trip.

        The per-process :func:`~repro.store.mmapstore.attach` cache owns
        the mapping — several groups over one directory share it, so
        :meth:`close` deliberately leaves it attached."""
        mapped = self._mapped[shard]
        if mapped is None:
            from ..store.mmapstore import attach

            mapped = attach(self.manifest.image_path(shard))
            self._mapped[shard] = mapped
        return mapped

    def executor(self) -> "ShardPatternExecutor":
        """The group's owners()-routed SPARQL pattern executor (one per
        group; the underlying shard images are frozen)."""
        if self._executor is None:
            self._executor = ShardPatternExecutor(self)
        return self._executor

    # -- calls with failover -----------------------------------------------------

    def call_shard(self, shard: int, fn: Callable, *args):
        """One call against ``shard``, trying each attachment in order
        and respawning the primary as a last resort."""
        attachments = self.workers[shard]
        for worker in attachments:
            if worker.broken:
                continue
            try:
                return worker.call(fn, *args)
            except BrokenProcessPool:
                worker.broken = True
                self.failovers += 1
        primary = attachments[0]
        with self._lock:
            if primary.broken:
                primary.respawn()
        try:
            return primary.call(fn, *args)
        except BrokenProcessPool:
            primary.broken = True
            raise ShardError(
                f"shard {shard} has no live worker (respawn failed)"
            )

    def _live_worker(self, shard: int) -> ShardWorker:
        for worker in self.workers[shard]:
            if not worker.broken:
                return worker
        return self.workers[shard][0]

    def scatter(self, jobs: Sequence[Tuple[int, Callable, Tuple]]) -> List[Any]:
        """Run ``(shard, fn, args)`` jobs concurrently — one in-flight
        call per job, gathered in order once all have finished.  A job
        whose worker died fails over through :meth:`call_shard` (which
        respawns if needed); the gather hook fires once per round, after
        all results are in."""
        submitted: List[Tuple[int, Callable, Tuple, Opt[ShardWorker], Any]] = []
        for shard, fn, args in jobs:
            worker = self._live_worker(shard)
            try:
                future = worker.submit(fn, *args)
            except (BrokenProcessPool, RuntimeError):
                worker.broken = True
                submitted.append((shard, fn, args, None, None))
                continue
            submitted.append((shard, fn, args, worker, future))
        # block on the whole round in one call: this module-level
        # ``wait`` is where perfbench's traced run times worker wait
        wait([future for *_, future in submitted if future is not None])
        results: List[Any] = []
        for shard, fn, args, worker, future in submitted:
            if future is None:
                self.failovers += 1
                results.append(self.call_shard(shard, fn, *args))
                continue
            try:
                results.append(future.result())
            except BrokenProcessPool:
                worker.broken = True
                self.failovers += 1
                results.append(self.call_shard(shard, fn, *args))
        if self.gather_hook is not None:
            self.gather_hook()
        return results

    # -- node-name union ---------------------------------------------------------

    def node_names(self) -> List[str]:
        """All node names of the source store (union over shards —
        every node exists through some triple, and every triple lives on
        exactly one shard).  Shard images are frozen, so the union is
        computed once and cached for the group's lifetime."""
        if self._node_names is None:
            seen: Set[str] = set()
            for names in self.scatter(
                [
                    (shard, _task_node_names, (worker.image,))
                    for shard, worker in enumerate(
                        attachments[0] for attachments in self.workers
                    )
                ]
            ):
                seen.update(names)
            self._node_names = sorted(seen)
        return self._node_names

    # -- RPQ: walk semantics -----------------------------------------------------

    @staticmethod
    def _expr_predicates(plan) -> List[str]:
        """The store predicates an expression can read (inverse atoms
        use the same predicate's backward edges, which live wherever the
        predicate's triples do)."""
        return sorted(
            {
                atom[1:] if atom.startswith("^") else atom
                for atom in plan.atoms
            }
        )

    def evaluate_walk(
        self,
        expr_text: str,
        sources: Opt[List[str]],
        targets: Opt[List[str]],
    ) -> Set[Tuple[str, str]]:
        """All-pairs walk evaluation, identical to
        ``compile_rpq(expr).evaluate(store, sources, targets)`` on the
        unsharded store."""
        plan = _compiled(expr_text)
        target_filter = set(targets) if targets is not None else None
        owners = self.manifest.owners(self._expr_predicates(plan))
        answers: Set[Tuple[str, str]] = set()
        if plan.accepts_empty:
            diagonal = sources if sources is not None else self.node_names()
            for name in diagonal:
                if target_filter is None or name in target_filter:
                    answers.add((name, name))
        if not owners:
            return answers
        if len(owners) == 1:
            # every readable predicate lives on one shard: the whole
            # evaluation is local to it.  Its accepts_empty diagonal
            # covers only shard-local nodes — a subset of the full
            # diagonal added above, so the union stays exact.
            shard = owners[0]
            pairs = self.call_shard(
                shard,
                _task_evaluate_full,
                self.workers[shard][0].image,
                expr_text,
                sources,
                targets,
            )
            answers.update(tuple(pair) for pair in pairs)
            return answers
        return self._walk_frontier_exchange(
            plan, expr_text, owners, sources, target_filter, answers
        )

    def _exchange_contexts(
        self, plan, owners: List[int]
    ) -> Dict[int, List[Tuple[str, List[int], bool, Opt[int]]]]:
        """Per owner shard, the NFA atoms whose predicate the shard owns
        as ``(label, delta, inverse, summary bit)``.  The summary bit is
        the predicate's position in the *shard image's* label bitmasks
        (``None`` when the image carries no summary — format-1 images or
        > 63 predicates — in which case node-level pruning degrades to
        node-existence pruning for that atom)."""
        contexts: Dict[int, List[Tuple[str, List[int], bool, Opt[int]]]] = {}
        for shard in owners:
            mapped = self._shard_mapped(shard)
            summarized = mapped.has_label_summary
            atoms: List[Tuple[str, List[int], bool, Opt[int]]] = []
            for label in plan.atoms:
                inverse = label.startswith("^")
                predicate = label[1:] if inverse else label
                if self.manifest.predicates.get(predicate) != shard:
                    continue
                bit: Opt[int] = None
                if summarized:
                    pid = mapped.predicate_id(predicate)
                    if pid is not None:
                        bit = 1 << pid
                atoms.append((label, plan.deltas[label], inverse, bit))
            contexts[shard] = atoms
        return contexts

    def _walk_frontier_exchange(
        self,
        plan,
        expr_text: str,
        owners: List[int],
        sources: Opt[List[str]],
        target_filter: Opt[Set[str]],
        answers: Set[Tuple[str, str]],
    ) -> Set[Tuple[str, str]]:
        """The distributed product BFS: the coordinator owns the
        ``(source, node) -> state mask`` table and which bits are new;
        workers own the edges and advance the frontier one level.

        Scatter is label-pruned (an entry ships to a shard only when
        its mask has a pending transition the shard's labels — and,
        with an image summary, the node's own labels — can serve)
        unless the group was built with ``label_prune=False``; pruning
        changes the payload, never the answer set.  Rounds are barriers:
        every shard with buffered entries is scattered to, and all
        partials merge before the next round.
        """
        if sources is not None:
            seeds = sorted(set(sources))
        else:
            seeds_set: Set[str] = set()
            for names in self.scatter(
                [
                    (
                        shard,
                        _task_productive_sources,
                        (self.workers[shard][0].image, expr_text),
                    )
                    for shard in owners
                ]
            ):
                seeds_set.update(names)
            seeds = sorted(seeds_set)
        if not seeds:
            return answers
        start_mask = plan.start_mask
        finals_mask = plan.finals_mask
        step_mask = plan._step_mask
        # seed entries carry the full start mask; hits are only ever
        # recorded off edge steps (the empty-walk diagonal is the
        # caller's, exactly as in the single-process engine)
        reached: Dict[Tuple[str, str], int] = {
            (name, name): start_mask for name in seeds
        }
        contexts = (
            self._exchange_contexts(plan, owners) if self.label_prune else None
        )
        # (relevant, has unsummarized atom, pending out bits, in bits)
        # per (shard, mask) — masks repeat heavily across a frontier
        need_memo: Dict[Tuple[int, int], Tuple[bool, bool, int, int]] = {}
        pending: Dict[int, Dict[Tuple[str, str], int]] = {
            shard: {} for shard in owners
        }
        stats = {"scatter": 0, "gather": 0, "rounds": 0, "pruned": 0, "entries": 0}

        def needs(shard: int, mask: int) -> Tuple[bool, bool, int, int]:
            key = (shard, mask)
            got = need_memo.get(key)
            if got is None:
                relevant = False
                unsummarized = False
                out_bits = 0
                in_bits = 0
                for label, delta, inverse, bit in contexts[shard]:
                    if step_mask(label, delta, mask):
                        relevant = True
                        if bit is None:
                            unsummarized = True
                        elif inverse:
                            in_bits |= bit
                        else:
                            out_bits |= bit
                got = (relevant, unsummarized, out_bits, in_bits)
                need_memo[key] = got
            return got

        def enqueue(token: str, name: str, mask: int) -> None:
            """Buffer one gained entry towards every shard that can
            extend it (all owners when pruning is off)."""
            key = (token, name)
            for shard in owners:
                if contexts is None:
                    buffer = pending[shard]
                    buffer[key] = buffer.get(key, 0) | mask
                    continue
                ship = False
                relevant, unsummarized, out_bits, in_bits = needs(shard, mask)
                if relevant:
                    mapped = self._mapped[shard]
                    nid = mapped.node_id(name)
                    if nid is not None:
                        if unsummarized:
                            ship = True
                        elif (
                            out_bits and mapped.out_label_mask(nid) & out_bits
                        ) or (in_bits and mapped.in_label_mask(nid) & in_bits):
                            ship = True
                if ship:
                    buffer = pending[shard]
                    buffer[key] = buffer.get(key, 0) | mask
                else:
                    stats["pruned"] += 1

        for name in seeds:
            enqueue(name, name, start_mask)
        try:
            while True:
                jobs: List[Tuple[int, Callable, Tuple]] = []
                for shard in owners:
                    buffer = pending[shard]
                    if not buffer:
                        continue
                    entries = [(t, n, m) for (t, n), m in buffer.items()]
                    pending[shard] = {}
                    stats["scatter"] += _entries_bytes(entries)
                    stats["entries"] += len(entries)
                    stats["rounds"] += 1
                    jobs.append(
                        (
                            shard,
                            _task_frontier_step,
                            (self.workers[shard][0].image, expr_text, entries),
                        )
                    )
                if not jobs:
                    break
                # fold each worker's advanced frontier into the reached
                # table; gained bits record hits and re-enter the buffers
                for partial in self.scatter(jobs):
                    stats["gather"] += _entries_bytes(partial)
                    for token, name, mask in partial:
                        old = reached.get((token, name), 0)
                        gained = mask & ~old
                        if not gained:
                            continue
                        reached[(token, name)] = old | gained
                        if gained & finals_mask and (
                            target_filter is None or name in target_filter
                        ):
                            answers.add((token, name))
                        enqueue(token, name, gained)
        finally:
            self._account(
                scatter=stats["scatter"],
                gather=stats["gather"],
                rounds=stats["rounds"],
                pruned=stats["pruned"],
                entries=stats["entries"],
            )
        return answers

    # -- RPQ: simple-path / trail semantics --------------------------------------

    def exists(
        self, expr_text: str, source: str, target: str, semantics: str
    ) -> bool:
        """Simple-path / trail existence, identical to the
        single-process :meth:`~repro.graphs.engine.CompiledRPQ.search`."""
        plan = _compiled(expr_text)
        forbid_nodes = semantics == "simple"
        if source == target and plan.accepts_empty:
            return True
        predicates = self._expr_predicates(plan)
        owners = self.manifest.owners(predicates)
        if not owners:
            return False
        if len(owners) == 1:
            # the DFS only ever walks expression-labeled edges, and they
            # are all on this shard; a source/target missing from the
            # shard has no such edge anywhere, which decides False in
            # both deployments
            shard = owners[0]
            return bool(
                self.call_shard(
                    shard,
                    _task_search,
                    self.workers[shard][0].image,
                    expr_text,
                    source,
                    target,
                    forbid_nodes,
                )
            )
        union = self._union_store(owners, predicates)
        return bool(plan.search(union, source, target, forbid_nodes))

    def _union_store(
        self, owners: List[int], predicates: List[str]
    ) -> TripleStore:
        """The expression-relevant edges gathered into one coordinator-
        side store (simple/trail DFS needs global used-node/used-edge
        state, which does not decompose over shards).  Shard edge sets
        are disjoint, so trail edge-multiplicity is preserved; the
        result is LRU-cached per ``(source fingerprint, predicate set)``
        — frozen shards never invalidate an entry, but a rebuilt group
        over a different source store can never collide with one."""
        key = (self.manifest.source_fingerprint, frozenset(predicates))
        cached = self._union_cache.get(key)
        if cached is not None:
            self._union_cache.move_to_end(key)
            return cached
        union = TripleStore()
        for edges in self.scatter(
            [
                (
                    shard,
                    _task_edges,
                    (self.workers[shard][0].image, predicates),
                )
                for shard in owners
            ]
        ):
            for s, p, o in edges:
                union.add(s, p, o)
        self._union_cache[key] = union
        while len(self._union_cache) > _UNION_CACHE_ENTRIES:
            self._union_cache.popitem(last=False)
        return union

    # -- log battery -------------------------------------------------------------

    def battery(self, source: str, texts: List[str]) -> LogReport:
        """The corpus-level battery over raw query texts, scattered
        across the shard workers and merged counter-for-counter
        identical to ``analyze_corpus(QueryLogCorpus.from_texts(...))``.

        Dedup and merge are :func:`~repro.logs.pipeline.run_study`'s
        (no parsing on the coordinator): unique normalized texts ship
        once with their multiplicity, chunks round-robin over the
        shards, and the partial reports merge with the Table 2 headers
        restored from the dedup accounting."""
        total, counts, first_text, order = _ingest(texts)
        entries = [(key, first_text[key], counts[key]) for key in order]
        shards = self.manifest.shards
        # one chunk per shard, not fanout_chunk_size's four per worker:
        # every chunk is one more IPC round trip, and 12-query batteries
        # over 2 shards measured 2.8-3.2 ms/op this way against
        # 4.2-4.6 ms/op split four ways per shard (2-CPU Linux host)
        size = max(
            1, min(BATTERY_CHUNK_SIZE, -(-len(entries) // max(1, shards)))
        )
        starts = range(0, len(entries), size)
        partials = self.scatter(
            [
                (index % shards, _study_worker, (source, entries[at : at + size]))
                for index, at in enumerate(starts)
            ]
        )
        return _merge_study(source, total, len(order), partials)


class ShardPatternExecutor(PatternExecutor):
    """Owners()-routed SPARQL data surface over a :class:`ShardGroup`.

    Every concrete-predicate access goes straight to the shard that
    owns the predicate — through the coordinator-side zero-copy mapping
    of that shard's image, so pattern evaluation pays neither an IPC
    round trip nor the union-store gather the existence queries use.
    Variable-predicate accesses union over the owner shards in
    deterministic (shard, predicate) order.  Shard images partition the
    source store's triples exactly, so the union *is* the source store.
    """

    def __init__(self, group: "ShardGroup"):
        self.group = group
        # no single backing store — the base class attribute stays
        # unset on purpose so any accidental direct use fails loudly
        self.store = None

    def _owner_mapped(self, predicate: str):
        """The owner shard's coordinator-side mapping, or ``None`` for
        a predicate the source store never contained."""
        shard = self.group.manifest.predicates.get(predicate)
        if shard is None:
            return None
        return self.group._shard_mapped(shard)

    def _shards(self) -> List[int]:
        return list(range(self.group.manifest.shards))

    def scan(
        self, s: Opt[str], p: Opt[str], o: Opt[str]
    ) -> Iterator[Tuple[str, str, str]]:
        if p is None:
            for predicate in sorted(self.group.manifest.predicates):
                yield from self.scan(s, predicate, o)
            return
        mapped = self._owner_mapped(p)
        if mapped is None:
            return
        if s is not None:
            targets = mapped.successors(s, p)
            if o is not None:
                if o in targets:
                    yield (s, p, o)
                return
            for target in sorted(targets):
                yield (s, p, target)
            return
        if o is not None:
            for source in sorted(mapped.predecessors(o, p)):
                yield (source, p, o)
            return
        # both ends free: hydration-free CSR scan of the owner image
        yield from mapped.triples(None, p, None)

    def successors(self, node: str, predicate: str) -> FrozenSet[str]:
        mapped = self._owner_mapped(predicate)
        if mapped is None:
            return frozenset()
        return mapped.successors(node, predicate)

    def predecessors(self, node: str, predicate: str) -> FrozenSet[str]:
        mapped = self._owner_mapped(predicate)
        if mapped is None:
            return frozenset()
        return mapped.predecessors(node, predicate)

    def out_edges(self, node: str) -> Iterator[Tuple[str, str]]:
        for shard in self._shards():
            mapped = self.group._shard_mapped(shard)
            if mapped.node_id(node) is None:
                continue
            for predicate in mapped.predicate_names():
                for target in sorted(mapped.successors(node, predicate)):
                    yield (predicate, target)

    def in_edges(self, node: str) -> Iterator[Tuple[str, str]]:
        for shard in self._shards():
            mapped = self.group._shard_mapped(shard)
            if mapped.node_id(node) is None:
                continue
            for predicate in mapped.predicate_names():
                for source in sorted(mapped.predecessors(node, predicate)):
                    yield (predicate, source)

    def nodes(self) -> FrozenSet[str]:
        return frozenset(self.group.node_names())
