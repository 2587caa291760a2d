"""The sharded store tier: partitioned images, worker processes, and
the scatter-gather coordinator.

One GIL bounds the single-process service however many threads it runs
— real parallelism needs processes, and the memory-mapped images of
:mod:`repro.store.mmapstore` let processes share triple data zero-copy.
This module closes the loop:

* :func:`shard_store` partitions a :class:`~repro.graphs.rdf.TripleStore`
  **by predicate** over a consistent-hash ring (:class:`ShardRing`) into
  N frozen per-shard images plus a ``manifest.json``
  (:class:`ShardManifest`) recording the layout, the per-shard
  fingerprints, and — crucially — the *source store's* content
  fingerprint, so a sharded deployment addresses exactly the result-cache
  keys the single-process deployment over the same data would.
* :class:`ShardWorker` is one worker process attached to one shard
  image, driven over one persistent duplex pipe: the worker loop
  (:func:`_serve`) answers each ``(fn, args)`` request with ``(ok,
  value)``, and a per-worker lock keeps one request in flight per pipe.
  Workers attach via :func:`repro.store.mmapstore.attach` (per-process
  memoized), so each holds its shard's pages mapped once and keeps its
  own compiled-plan and specialization caches across requests.
* :class:`ShardGroup` is the coordinator: it routes whole requests to a
  single shard when every predicate of the expression lives there
  (consistent-hash routing), and log batteries scatter ``(key, text,
  multiplicity)`` chunks over the workers, one per shard, reusing
  :func:`~repro.logs.pipeline.run_study`'s dedup and merge.
* :meth:`ShardGroup.union_store` is one coordinator-side
  :class:`~repro.graphs.rdf.TripleStore` grown a predicate at a time
  from the mapped shard images (zero-copy reads, no worker round trip).
  Every request whose expression spans several shards runs on it: walk
  evaluation, simple-path and trail searches (whose DFS needs global
  used-node / used-edge state), and full SPARQL evaluation (the
  ``query`` op, loading the predicates
  :func:`~repro.sparql.evaluation.query_predicates` names).

Partitioning by predicate makes single-predicate reads (and any
expression whose alphabet maps to one shard) local to one worker.

Failure handling: every shard may have several *attachments*
(``replicas``).  A worker that dies mid-call (end of file, a reset or a
broken pipe on its connection) surfaces as
:class:`~concurrent.futures.process.BrokenProcessPool`; the coordinator
fails over to the next live attachment, respawns the broken one, and
only raises the typed :class:`~repro.errors.ShardError` when a shard
has no live attachment even after a respawn.  An exception a task
raises inside a live worker is sent back and re-raised in the caller.
All coordinator methods are blocking and run on the service scheduler's
worker threads, so the existing admission-control / deadline /
single-flight machinery wraps the scatter path unchanged.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
from bisect import bisect_right
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional as Opt,
    Sequence,
    Set,
    Tuple,
)

from ..errors import ShardError, StoreUnavailableError
from ..graphs.engine import compile_rpq, predicates_read
from ..graphs.rdf import TripleStore, combine_content
from ..logs.analyzer import LogReport
from ..logs.pipeline import _ingest, _merge_study, _study_worker
from ..regex.parser import parse as parse_regex

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


def _task_evaluate_full(
    image: str,
    expr_text: str,
    sources: Opt[List[str]],
    targets: Opt[List[str]],
) -> Set[Tuple[str, str]]:
    return _compiled(expr_text).evaluate(_shard(image), sources, targets)


def _task_search(
    image: str, expr_text: str, source: str, target: str, forbid_nodes: bool
) -> bool:
    return bool(
        _compiled(expr_text).search(_shard(image), source, target, forbid_nodes)
    )


def _task_die() -> None:  # pragma: no cover - the worker never returns
    """Test/chaos hook: kill the worker process from inside (hard exit,
    so the coordinator sees BrokenProcessPool exactly as on a crash)."""
    os._exit(1)


def _serve(conn: Connection) -> None:
    """The worker process loop: answer each ``(fn, args)`` request with
    ``(True, result)``, or ``(False, exception)`` when the task raised,
    until the coordinator closes its end."""
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # an unpicklable result or exception
            conn.send((False, RuntimeError(f"unpicklable shard reply: {exc!r}")))


class _Reply:
    """One request in flight on a worker's pipe.  The worker's lock is
    held from the send until :meth:`result` has read the reply, so
    replies of concurrent callers never cross."""

    __slots__ = ("worker", "conn")

    def __init__(self, worker: "ShardWorker", conn: Connection):
        self.worker = worker
        self.conn = conn

    def result(self, timeout: Opt[float] = None) -> Any:
        """Read the reply (once): the task's return value.  Re-raises
        the task's exception, and raises :class:`BrokenProcessPool` when
        the worker died."""
        if timeout is not None and not self.conn.poll(timeout):
            # still pending: the lock stays held for a later result()
            raise TimeoutError(
                f"shard worker {self.worker.shard}/"
                f"{self.worker.replica} gave no reply in {timeout} s"
            )
        try:
            ok, value = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise BrokenProcessPool(
                f"shard worker {self.worker.shard}/"
                f"{self.worker.replica} died: {exc!r}"
            ) from exc
        finally:
            self.worker._lock.release()
        if not ok:
            raise value
        return value


class ShardWorker:
    """One worker process attached to one shard image.

    The process runs :func:`_serve` on one end of a duplex
    :func:`multiprocessing.Pipe`; the coordinator keeps the other.  A
    per-worker lock is held from each send until its reply is read, so
    calls serialize through the pipe.  A dead process (end of file, a
    reset or a broken pipe) surfaces as :class:`BrokenProcessPool`, and
    :meth:`respawn` replaces the process while keeping this object (and
    its identity in the group) stable.
    """

    def __init__(self, shard: int, replica: int, image: str):
        self.shard = shard
        self.replica = replica
        self.image = image
        self.respawns = 0
        self.broken = False
        self._lock = threading.Lock()
        self._start()

    def _start(self) -> None:
        # the default start method, as the executor this replaced used:
        # fork on Linux, where a spawned interpreter would add its
        # import time to every worker start and respawn
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_serve, args=(child,), daemon=True
        )
        process.start()
        child.close()
        self._conn: Opt[Connection] = conn
        self._process = process

    def _stop(self) -> None:
        """End the process and close the pipe (caller holds the lock)."""
        process = self._process
        if process.is_alive():
            process.terminate()
        process.join(5)
        if process.is_alive():  # pragma: no cover - ignored SIGTERM
            process.kill()
            process.join()
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def submit(self, fn: Callable, *args) -> _Reply:
        """Send one request and return its pending reply without
        waiting.  Blocks while another request to this worker is in
        flight; raises :class:`BrokenProcessPool` when the pipe is
        already broken and :class:`RuntimeError` after :meth:`close`."""
        self._lock.acquire()
        try:
            conn = self._conn
            if conn is None:
                raise RuntimeError(
                    f"shard worker {self.shard}/{self.replica} is closed"
                )
            conn.send((fn, args))
        except OSError as exc:
            self._lock.release()
            raise BrokenProcessPool(
                f"shard worker {self.shard}/{self.replica} died: {exc!r}"
            ) from exc
        except BaseException:
            self._lock.release()
            raise
        return _Reply(self, conn)

    def call(self, fn: Callable, *args):
        return self.submit(fn, *args).result()

    def ping(self) -> Dict[str, Any]:
        return self.call(_task_ping, self.image)

    def respawn(self) -> None:
        with self._lock:
            self._stop()
            self._start()
        self.respawns += 1
        self.broken = False

    def close(self) -> None:
        """Stop the process.  A request still in flight fails as
        :class:`BrokenProcessPool`; later submits raise
        :class:`RuntimeError`."""
        # terminate first: the in-flight reader sees end of file and
        # releases the lock
        self._process.terminate()
        with self._lock:
            self._stop()


class ShardGroup:
    """The coordinator over one sharded layout: owner routing, the
    union store, battery scatter, replica failover, and lifecycle.

    All public evaluation methods are blocking (they run on the service
    scheduler's worker threads) and return exactly what the
    single-process engine would for the same request — the
    ``sharded-service`` differential oracle holds them to it.
    """

    def __init__(self, target: Any, replicas: int = 1):
        if replicas < 1:
            raise ValueError("every shard needs at least one attachment")
        self.manifest = ShardManifest.load(target)
        self.replicas = replicas
        self.failovers = 0
        self._lock = threading.Lock()
        self.workers: List[List[ShardWorker]] = [
            [
                ShardWorker(shard, replica, str(self.manifest.image_path(shard)))
                for replica in range(replicas)
            ]
            for shard in range(self.manifest.shards)
        ]
        self._node_names: Opt[List[str]] = None
        #: the coordinator-side union and the predicates loaded into it,
        #: published together (see :meth:`union_store`)
        self._union: Tuple[TripleStore, FrozenSet[str]] = (
            TripleStore(),
            frozenset(),
        )
        self._mapped: List[Opt[Any]] = [None] * self.manifest.shards

    # -- identity ----------------------------------------------------------------

    def fingerprint(self, predicates: Opt[Iterable[str]] = None) -> str:
        """The *source* store's content fingerprint, or that of its
        ``predicates`` sub-store (combined from the owner shards'
        images): result-cache keys of a sharded deployment equal the
        single-process ones."""
        if predicates is None:
            return self.manifest.source_fingerprint
        owner = self.manifest.predicates
        return combine_content(
            self._shard_mapped(owner[predicate])._predicate_content(predicate)
            for predicate in set(predicates)
            if predicate in owner
        )

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
            # always 0 (no exchange); perfbench/serve.py reads them
            "rounds": 0,
            "scatter_bytes": 0,
            "gather_bytes": 0,
            "pruned_entries": 0,
            "scattered_entries": 0,
        }

    # -- coordinator-side image attach -------------------------------------------

    def _shard_mapped(self, shard: int):
        """The shard's image mapped into *this* process (zero-copy; the
        physical pages are shared with the shard's worker processes).
        :meth:`union_store` loads predicates and :meth:`fingerprint`
        reads per-predicate content from it, both without an IPC round
        trip.

        The per-process :func:`~repro.store.mmapstore.attach` cache owns
        the mapping — several groups over one directory share it, so
        :meth:`close` deliberately leaves it attached."""
        mapped = self._mapped[shard]
        if mapped is None:
            from ..store.mmapstore import attach

            mapped = attach(self.manifest.image_path(shard))
            self._mapped[shard] = mapped
        return mapped

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
                with self._lock:
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
        """Run ``(shard, fn, args)`` jobs concurrently and return their
        results in job order.

        Each sub-round sends at most one request per shard, in ascending
        shard order (so two concurrent scatters take worker locks in the
        same order and cannot deadlock), then blocks on the module-level
        ``wait`` until every reply is read.  Further jobs for a shard go
        to later sub-rounds: two requests queued on one pipe could
        deadlock on its buffer.  A job whose worker died fails over
        through :meth:`call_shard` (which respawns if needed).  A task's
        exception is re-raised only after every pending reply of its
        sub-round is read."""
        results: List[Any] = [None] * len(jobs)
        todo = sorted(range(len(jobs)), key=lambda index: jobs[index][0])
        failed: List[int] = []
        while todo:
            batch: List[int] = []
            later: List[int] = []
            shards: Set[int] = set()
            for index in todo:
                shard = jobs[index][0]
                (later if shard in shards else batch).append(index)
                shards.add(shard)
            todo = later
            error: Opt[BaseException] = None
            pending: Dict[Connection, Tuple[int, _Reply]] = {}
            for index in batch:
                shard, fn, args = jobs[index]
                worker = self._live_worker(shard)
                try:
                    reply = worker.submit(fn, *args)
                except BrokenProcessPool:
                    worker.broken = True
                    failed.append(index)
                    continue
                except BaseException as exc:
                    error = exc
                    break
                pending[reply.conn] = (index, reply)
            while pending:
                for conn in wait(list(pending)):
                    index, reply = pending.pop(conn)
                    try:
                        results[index] = reply.result()
                    except BrokenProcessPool:
                        reply.worker.broken = True
                        failed.append(index)
                    except BaseException as exc:
                        if error is None:
                            error = exc
            if error is not None:
                raise error
        for index in failed:
            shard, fn, args = jobs[index]
            with self._lock:
                self.failovers += 1
            results[index] = self.call_shard(shard, fn, *args)
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
        return sorted(predicates_read(plan.atoms))

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
        predicates = self._expr_predicates(plan)
        owners = self.manifest.owners(predicates)
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
            answers.update(pairs)
            return answers
        # the expression spans shards: evaluate on the coordinator
        # union, whose diagonal is again a subset of the one above
        answers.update(
            plan.evaluate(self.union_store(predicates), sources, targets)
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
        union = self.union_store(predicates)
        return bool(plan.search(union, source, target, forbid_nodes))

    def union_store(
        self, predicates: Opt[Collection[str]] = None
    ) -> TripleStore:
        """A coordinator-side store holding every edge of ``predicates``
        (all of the source store's when ``None``): multi-shard walks,
        simple/trail DFS (whose global used-node/used-edge state does
        not decompose over shards) and full SPARQL evaluation read it.

        One union serves every caller: it grows one predicate at a
        time from the owner shard's coordinator-side mapping (zero-copy
        reads, no worker round trip), and holds at most the source
        store's predicates.  A walk, a search or a query reads only its
        own predicates, so edges of other loaded predicates change no
        answer.  Shard edge sets are disjoint, so trail edge-multiplicity
        is preserved.  Growth copies the published store under the group
        lock and publishes ``(store, predicates)`` as one tuple: a
        concurrent reader never sees a store being mutated or a
        predicate set paired with an older store.  The images are
        frozen, so nothing ever invalidates it."""
        if predicates is None:
            predicates = self.manifest.predicates
        union, loaded = self._union
        if loaded.issuperset(predicates):
            return union
        with self._lock:
            union, loaded = self._union
            missing = sorted(p for p in predicates if p not in loaded)
            if missing:
                union = TripleStore(union.triples())
                for predicate in missing:
                    shard = self.manifest.predicates.get(predicate)
                    if shard is None:
                        continue
                    for s, p, o in self._shard_mapped(shard).triples(
                        None, predicate, None
                    ):
                        union.add(s, p, o)
                self._union = (union, loaded.union(missing))
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
