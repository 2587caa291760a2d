"""Memory-mapped persistent triple-store images.

The paper's program is empirical theory over real-world *scale*, and
the process pool is how this toolkit reaches more than one core — but a
pool is only as cheap as what crosses it.  Shipping a pickled
:class:`~repro.graphs.rdf.TripleStore` to every worker costs a full
serialize/deserialize of the data per process and loses the store's
identity (and with it every fingerprint-keyed cache) at each hop.  This
module replaces that with an *artifact*: the store is frozen once into
an on-disk image, and every consumer — worker processes, the service
tier, the next session after a restart — attaches to the same image by
path and reads the same physical pages.

Image layout (format 2)
-----------------------

::

    magic        8 bytes   b"REPROIMG"
    header_len   8 bytes   unsigned little-endian
    header       JSON (UTF-8): format version, byte order, fingerprint,
                 content accumulator, triple/node counts, predicate
                 names, per-predicate content (optional), and a
                 section table of [offset, length] pairs
    sections     8-byte-aligned raw arrays:
                 * node_blob / node_offsets — the interned string
                   table: UTF-8 bytes plus int64 offsets (offsets[i] ..
                   offsets[i+1] is node i's name)
                 * per predicate, forward and backward CSR adjacency:
                   keys (sorted node ids with at least one edge),
                   indptr (len(keys)+1 prefix offsets), targets
                   (neighbour ids, sorted per key)

Format-1 images have the same layout and remain fully loadable.  Older
format-2 writers also emitted ``label_out``/``label_in`` per-node
bitmask sections; the reader ignores them.  "Node n has an edge under
predicate p" is ``n in forward_adjacency(p)`` (or
``backward_adjacency`` for incoming edges), a bisect on mapped keys.
The optional ``predicate_content`` header key (one ``[accumulator hex,
triple count]`` pair per predicate, in ``predicates`` order) makes a
scoped fingerprint a header lookup; images written before it derive
those pairs from the mapped triples on first demand.

All arrays are little-endian int64.  The header carries the writing
store's content fingerprint (the same order-independent digest
:meth:`TripleStore.fingerprint` maintains incrementally), so a mapped
store reports the *identical* fingerprint as the live store it was
frozen from — fingerprint-keyed caches (the service result cache, the
log analysis cache) stay addressable across processes and restarts.

Zero-copy reads
---------------

:class:`MappedTripleStore` subclasses :class:`TripleStore` but never
materializes dict indexes for the hot path: the compiled RPQ engine
consumes ``forward_adjacency``/``backward_adjacency`` mappings, and
here those are :class:`_CSRAdjacency` views whose lookups bisect the
mapped ``keys`` array and return a ``memoryview`` slice of the mapped
``targets`` pages — no ids are copied, and N worker processes share one
set of physical pages.  The string-keyed API (the SPARQL evaluator, the
dataset metrics) hydrates lazily: the first string-index access builds
the classical SPO/POS/OSP dicts from the mapped arrays, so purely
integer workloads never pay for them.

Pickling a mapped store ships only its *path* (see
:meth:`MappedTripleStore.__reduce__`): a process-pool task that closes
over a mapped store costs a few hundred bytes on the wire, and the
receiving process re-attaches via the per-process :func:`attach` cache,
so many tasks in one worker share one mapping.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
from bisect import bisect_left
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional as Opt, Tuple, Union

from ..core.hashing import accumulate, item_digest
from ..errors import StoreFrozenError, StoreImageError
from ..graphs.rdf import TripleStore

MAGIC = b"REPROIMG"
FORMAT_VERSION = 2
#: header formats this reader accepts (both share one layout; sections
#: this reader does not know are ignored)
SUPPORTED_FORMATS = (1, 2)
_PREFIX = struct.Struct("<8sQ")  # magic + header length
_ITEM = struct.Struct("<q")


PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _csr_of(adjacency: Dict[int, List[int]]) -> Tuple[List[int], List[int], List[int]]:
    """(keys, indptr, targets) of one adjacency dict — keys sorted,
    targets sorted per key, so identical data yields identical bytes
    regardless of insertion order."""
    keys = sorted(adjacency)
    indptr = [0]
    targets: List[int] = []
    for key in keys:
        targets.extend(sorted(adjacency[key]))
        indptr.append(len(targets))
    return keys, indptr, targets


def _pack(values: List[int]) -> bytes:
    out = bytearray(len(values) * 8)
    pack_into = _ITEM.pack_into
    for index, value in enumerate(values):
        pack_into(out, index * 8, value)
    return bytes(out)


def write_image(store: TripleStore, path: PathLike) -> str:
    """Freeze ``store`` into an image at ``path`` (atomic: written to a
    sibling temp file, fsynced, then renamed over).  Returns the
    content fingerprint recorded in the header."""
    if isinstance(store, MappedTripleStore):
        raise StoreFrozenError(
            "store is already a mapped image; copy the file instead"
        )
    path = Path(path)
    names = store.node_names()
    blob_parts: List[bytes] = []
    offsets = [0]
    position = 0
    for name in names:
        encoded = name.encode("utf-8")
        blob_parts.append(encoded)
        position += len(encoded)
        offsets.append(position)
    node_blob = b"".join(blob_parts)
    predicates = store.predicate_names()

    sections: List[Tuple[str, bytes]] = [
        ("node_blob", node_blob),
        ("node_offsets", _pack(offsets)),
    ]
    csr_table: List[List[str]] = []
    for pid in range(len(predicates)):
        entry: List[str] = []
        for direction, adjacency in (
            ("f", store.forward_adjacency(pid)),
            ("b", store.backward_adjacency(pid)),
        ):
            keys, indptr, targets = _csr_of(adjacency)
            for part, values in (
                ("keys", keys),
                ("indptr", indptr),
                ("targets", targets),
            ):
                section_name = f"{direction}{part}_{pid}"
                sections.append((section_name, _pack(values)))
                entry.append(section_name)
        csr_table.append(entry)

    header: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "byteorder": "little",
        "fingerprint": store.fingerprint(),
        "content_acc": f"{store._content_acc:x}",
        "triples": len(store),
        "nodes": len(names),
        "predicates": predicates,
        "predicate_content": [
            [f"{acc:x}", count]
            for acc, count in map(store._predicate_content, predicates)
        ],
        "csr": csr_table,
    }
    # lay the sections out after the header, 8-byte aligned
    placed: Dict[str, Tuple[int, int]] = {}
    # two passes: the header's own length shifts the offsets, so fix the
    # header size first with placeholder offsets of the right magnitude
    def layout(header_bytes_len: int) -> int:
        base = _PREFIX.size + header_bytes_len
        base += (-base) % 8
        cursor = base
        for name, payload in sections:
            placed[name] = (cursor, len(payload))
            cursor += len(payload)
            cursor += (-cursor) % 8
        return base

    header["sections"] = {name: [0, 0] for name, _ in sections}
    provisional = json.dumps(header, ensure_ascii=False).encode("utf-8")
    # offsets rendered as fixed-width strings would complicate nothing;
    # instead iterate: recompute until the encoded length stabilizes
    # (it does after one extra round, since digit counts are bounded)
    for _ in range(4):
        layout(len(provisional))
        header["sections"] = {
            name: list(placed[name]) for name, _ in sections
        }
        encoded = json.dumps(header, ensure_ascii=False).encode("utf-8")
        if len(encoded) == len(provisional):
            provisional = encoded
            break
        provisional = encoded
    else:  # pragma: no cover - the loop converges in <= 2 rounds
        raise StoreImageError("header layout failed to converge")
    base = layout(len(provisional))
    header["sections"] = {name: list(placed[name]) for name, _ in sections}
    encoded = json.dumps(header, ensure_ascii=False).encode("utf-8")
    if len(encoded) != len(provisional):  # pragma: no cover
        raise StoreImageError("header layout failed to converge")

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_PREFIX.pack(MAGIC, len(encoded)))
        handle.write(encoded)
        cursor = _PREFIX.size + len(encoded)
        padding = (-cursor) % 8
        handle.write(b"\x00" * padding)
        cursor += padding
        for name, payload in sections:
            offset, _length = placed[name]
            if offset != cursor:  # pragma: no cover - layout invariant
                raise StoreImageError("section layout drifted")
            handle.write(payload)
            cursor += len(payload)
            padding = (-cursor) % 8
            handle.write(b"\x00" * padding)
            cursor += padding
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return header["fingerprint"]


def freeze(store: TripleStore, path: PathLike) -> "MappedTripleStore":
    """Write ``store``'s image to ``path`` and open it mapped."""
    write_image(store, path)
    return MappedTripleStore.load(path)


# ---------------------------------------------------------------------------
# header peeking
# ---------------------------------------------------------------------------


def read_header(path: PathLike) -> Dict[str, Any]:
    """The image header as a dict — a plain read, no mmap, so callers
    can inspect fingerprints and counts without attaching."""
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise StoreImageError(f"{path}: truncated image prefix")
        magic, header_len = _PREFIX.unpack(prefix)
        if magic != MAGIC:
            raise StoreImageError(
                f"{path}: not a repro store image (magic {magic!r})"
            )
        # bound the declared length by the actual file size before
        # allocating: a corrupt length field must be a typed error,
        # not a giant read() attempt
        remaining = os.fstat(handle.fileno()).st_size - _PREFIX.size
        if header_len < 0 or header_len > remaining:
            raise StoreImageError(
                f"{path}: image header declares {header_len} bytes but "
                f"only {remaining} follow the prefix"
            )
        encoded = handle.read(header_len)
    if len(encoded) < header_len:
        raise StoreImageError(f"{path}: truncated image header")
    try:
        header = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreImageError(f"{path}: corrupt image header: {exc}")
    if not isinstance(header, dict):
        raise StoreImageError(f"{path}: image header is not an object")
    if header.get("format") not in SUPPORTED_FORMATS:
        raise StoreImageError(
            f"{path}: unsupported image format {header.get('format')!r}"
        )
    if header.get("byteorder") != sys.byteorder:
        raise StoreImageError(
            f"{path}: image byte order {header.get('byteorder')!r} does "
            f"not match this host ({sys.byteorder})"
        )
    return header


def image_fingerprint(path: PathLike) -> str:
    """The content fingerprint recorded in an image's header."""
    return read_header(path)["fingerprint"]


# ---------------------------------------------------------------------------
# zero-copy adjacency views
# ---------------------------------------------------------------------------


class _CSRAdjacency:
    """A read-only ``{node id: neighbour ids}`` mapping over mapped CSR
    arrays.

    ``get`` bisects the sorted ``keys`` array and answers with a
    ``memoryview`` slice of the ``targets`` pages — the engine iterates
    it, folds it into sets, and never copies.  Implements exactly the
    mapping surface the compiled engine and the hydration pass use
    (``get``/``[]``/``in``/``keys``/``items``/``values``/len/bool/iter).
    """

    __slots__ = ("_keys", "_indptr", "_targets")

    def __init__(self, keys, indptr, targets):
        self._keys = keys
        self._indptr = indptr
        self._targets = targets

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return len(self._keys) > 0

    def __iter__(self):
        return iter(self._keys)

    def keys(self):
        return self._keys

    def __contains__(self, nid: int) -> bool:
        keys = self._keys
        index = bisect_left(keys, nid)
        return index < len(keys) and keys[index] == nid

    def get(self, nid: int, default=None):
        keys = self._keys
        index = bisect_left(keys, nid)
        if index == len(keys) or keys[index] != nid:
            return default
        indptr = self._indptr
        return self._targets[indptr[index] : indptr[index + 1]]

    def __getitem__(self, nid: int):
        row = self.get(nid)
        if row is None:
            raise KeyError(nid)
        return row

    def items(self):
        indptr, targets = self._indptr, self._targets
        for index, key in enumerate(self._keys):
            yield key, targets[indptr[index] : indptr[index + 1]]

    def values(self):
        indptr, targets = self._indptr, self._targets
        for index in range(len(self._keys)):
            yield targets[indptr[index] : indptr[index + 1]]

    def _release(self) -> None:
        for view in (self._keys, self._indptr, self._targets):
            view.release()


# ---------------------------------------------------------------------------
# the mapped store
# ---------------------------------------------------------------------------

#: per-process attach cache: many pool tasks, one mapping per image
_ATTACHED: Dict[str, "MappedTripleStore"] = {}


def attach(path: PathLike) -> "MappedTripleStore":
    """Open ``path`` mapped, memoized per process.  This is the unpickle
    target of :meth:`MappedTripleStore.__reduce__`: every task a worker
    receives for the same image resolves to the same store object (and
    therefore the same engine specialization caches)."""
    key = os.path.abspath(str(path))
    store = _ATTACHED.get(key)
    if store is None:
        store = MappedTripleStore(key)
        _ATTACHED[key] = store
    return store


def detach_all() -> None:
    """Drop the per-process attach cache (tests use this to simulate a
    fresh worker process)."""
    _ATTACHED.clear()


class MappedTripleStore(TripleStore):
    """A :class:`TripleStore` opened read-only from an on-disk image.

    The engine-facing integer API (``forward_adjacency`` /
    ``backward_adjacency`` / ``node_id`` / ``node_names`` /
    ``predicate_id`` / ``fingerprint``) is served straight from the
    mapped arrays; the string-keyed dict indexes hydrate lazily on
    first use.  Mutation raises :class:`~repro.errors.StoreFrozenError`.
    """

    def __init__(self, path: PathLike):
        # deliberately no super().__init__(): a mapped store has no
        # mutable dict indexes — the three string-keyed index attributes
        # are lazy properties below
        self._path = os.path.abspath(str(path))
        header = read_header(self._path)
        with open(self._path, "rb") as handle:
            self._mmap = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        self._mv = memoryview(self._mmap)
        sections = header.get("sections")
        if not isinstance(sections, dict):
            raise StoreImageError(f"{self._path}: header has no sections")

        def section(name: str) -> memoryview:
            try:
                offset, length = sections[name]
            except (KeyError, TypeError, ValueError):
                raise StoreImageError(
                    f"{self._path}: missing section {name!r}"
                )
            # the header is input: a negative offset would otherwise
            # slice from the end of the file
            if not (
                type(offset) is int
                and type(length) is int
                and offset >= 0
                and length >= 0
                and offset + length <= len(self._mv)
            ):
                raise StoreImageError(
                    f"{self._path}: section {name!r} out of bounds"
                )
            return self._mv[offset : offset + length]

        def int64(name: str) -> memoryview:
            view = section(name)
            if len(view) % 8:
                raise StoreImageError(
                    f"{self._path}: section {name!r} is not int64-sized"
                )
            return view.cast("q")

        try:
            self._num_nodes = int(header["nodes"])
            self._size = int(header["triples"])
            self._content_acc = int(header.get("content_acc", "0"), 16)
            self._header_fingerprint = header["fingerprint"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreImageError(
                f"{self._path}: malformed header field {exc}"
            )
        self._version = 0
        self._node_blob = section("node_blob")
        self._node_offsets = int64("node_offsets")
        if len(self._node_offsets) != self._num_nodes + 1:
            raise StoreImageError(
                f"{self._path}: string table offsets disagree with the "
                f"node count"
            )
        predicates = header.get("predicates")
        if not isinstance(predicates, list):
            raise StoreImageError(f"{self._path}: header has no predicates")
        self._pred_names: List[str] = [str(name) for name in predicates]
        self._pred_ids = {
            name: pid for pid, name in enumerate(self._pred_names)
        }
        csr = header.get("csr")
        if not isinstance(csr, list) or len(csr) != len(self._pred_names):
            raise StoreImageError(f"{self._path}: CSR table disagrees")
        self._fwd = []
        self._bwd = []
        for entry in csr:
            if not isinstance(entry, list) or len(entry) != 6:
                raise StoreImageError(
                    f"{self._path}: CSR entry {entry!r} does not name "
                    f"six sections"
                )
            fk, fi, ft, bk, bi, bt = entry
            self._fwd.append(_CSRAdjacency(int64(fk), int64(fi), int64(ft)))
            self._bwd.append(_CSRAdjacency(int64(bk), int64(bi), int64(bt)))
        self._succ_cache = {}
        self._pred_cache = {}
        # per-predicate content accumulators: read from the header when
        # the writer recorded them, else derived on first demand (the
        # image is frozen, so each is computed at most once)
        self._pred_content = {}
        recorded = header.get("predicate_content")
        if recorded is not None:
            try:
                if not isinstance(recorded, list) or len(recorded) != len(
                    self._pred_names
                ):
                    raise ValueError("not one pair per predicate")
                self._pred_content = {
                    name: (int(acc, 16), int(count))
                    for name, (acc, count) in zip(self._pred_names, recorded)
                }
            except (TypeError, ValueError) as exc:
                raise StoreImageError(
                    f"{self._path}: malformed predicate_content: {exc}"
                )
        self._names: Opt[List[str]] = None
        self._ids_map: Opt[Dict[str, int]] = None
        self._string_indexes: Opt[Tuple[dict, dict, dict]] = None
        self._closed = False

    @classmethod
    def load(cls, path: PathLike) -> "MappedTripleStore":
        """Open an image written by :func:`write_image` /
        :meth:`TripleStore.save`.  The heavy data stays on the mapped
        pages; opening costs a header parse plus one memoryview per
        array, independent of triple count."""
        return cls(path)

    @property
    def path(self) -> str:
        """Absolute path of the backing image."""
        return self._path

    def close(self) -> None:
        """Release the mapping (best effort: views handed out by
        ``forward_adjacency`` rows stay valid only until this call)."""
        if self._closed:
            return
        self._closed = True
        for adjacency in (*self._fwd, *self._bwd):
            adjacency._release()
        self._node_offsets.release()
        self._node_blob.release()
        self._mv.release()
        self._mmap.close()
        _ATTACHED.pop(self._path, None)

    def __enter__(self) -> "MappedTripleStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pickling: the path is the payload --------------------------------------

    def __reduce__(self):
        return (attach, (self._path,))

    # -- frozen-ness -------------------------------------------------------------

    def add(self, s: str, p: str, o: str) -> bool:
        raise StoreFrozenError(
            f"store mapped from {self._path} is frozen; load the triples "
            f"into a TripleStore, mutate, and save a new image"
        )

    def fingerprint(self, predicates: Opt[Iterable[str]] = None) -> str:
        """The content fingerprint recorded at freeze time — identical
        to the live store's at :func:`write_image` time, across every
        process that maps this image.  A ``predicates`` scope combines
        the per-predicate content the header records (see
        :meth:`_predicate_content`), so it agrees with the live store's."""
        if predicates is None:
            return self._header_fingerprint
        return super().fingerprint(predicates)

    def _predicate_content(self, predicate: str) -> Tuple[int, int]:
        """``(accumulator, triple count)`` of one predicate's triples: a
        dict lookup, or for an image whose header lacks
        ``predicate_content``, one pass over the predicate's triples."""
        content = self._pred_content.get(predicate)
        if content is None:
            if predicate not in self._pred_ids:
                return (0, 0)
            acc = count = 0
            for triple in self.triples(p=predicate):
                acc = accumulate(acc, item_digest(list(triple)))
                count += 1
            content = (acc, count)
            self._pred_content[predicate] = content
        return content

    # -- engine-facing integer API ------------------------------------------------

    def node_count(self) -> int:
        return self._num_nodes

    def node_name(self, nid: int) -> str:
        names = self._names
        if names is not None:
            return names[nid]
        if not 0 <= nid < self._num_nodes:
            raise IndexError(nid)
        offsets = self._node_offsets
        return str(
            self._node_blob[offsets[nid] : offsets[nid + 1]], "utf-8"
        )

    def node_names(self) -> List[str]:
        names = self._names
        if names is None:
            blob = bytes(self._node_blob)
            offsets = self._node_offsets
            names = [
                blob[offsets[i] : offsets[i + 1]].decode("utf-8")
                for i in range(self._num_nodes)
            ]
            self._names = names
        return names

    def node_id(self, name: str) -> Opt[int]:
        ids_map = self._ids_map
        if ids_map is None:
            ids_map = {
                node: nid for nid, node in enumerate(self.node_names())
            }
            self._ids_map = ids_map
        return ids_map.get(name)

    def predicate_names(self) -> List[str]:
        return list(self._pred_names)

    # predicate_id / forward_adjacency / backward_adjacency / version
    # are inherited: _pred_ids, _fwd, _bwd, and _version are all set up
    # in __init__ with mapped-backed values

    # -- string-keyed fast paths (no hydration) -----------------------------------

    def __contains__(self, triple) -> bool:
        s, p, o = triple
        pid = self._pred_ids.get(p)
        if pid is None:
            return False
        sid, oid = self.node_id(s), self.node_id(o)
        if sid is None or oid is None:
            return False
        row = self._fwd[pid].get(sid)
        if row is None:
            return False
        index = bisect_left(row, oid)  # targets are sorted per key
        return index < len(row) and row[index] == oid

    def successors(self, node: str, predicate: str) -> FrozenSet[str]:
        key = (node, predicate)
        cached = self._succ_cache.get(key)
        if cached is None:
            cached = self._row_names(self._fwd, node, predicate)
            self._succ_cache[key] = cached
        return cached

    def predecessors(self, node: str, predicate: str) -> FrozenSet[str]:
        key = (node, predicate)
        cached = self._pred_cache.get(key)
        if cached is None:
            cached = self._row_names(self._bwd, node, predicate)
            self._pred_cache[key] = cached
        return cached

    def _row_names(self, side, node: str, predicate: str) -> FrozenSet[str]:
        pid = self._pred_ids.get(predicate)
        nid = self.node_id(node)
        if pid is None or nid is None:
            return frozenset()
        row = side[pid].get(nid)
        if not row:
            return frozenset()
        names = self.node_names()
        return frozenset(names[oid] for oid in row)

    def nodes(self) -> FrozenSet[str]:
        return frozenset(self.node_names())

    def predicates(self) -> FrozenSet[str]:
        # every predicate in an image has at least one triple (live
        # stores only intern predicates on successful add)
        return frozenset(self._pred_names)

    def subjects(self) -> FrozenSet[str]:
        names = self.node_names()
        return frozenset(
            names[nid]
            for adjacency in self._fwd
            for nid in adjacency.keys()
        )

    def objects(self) -> FrozenSet[str]:
        names = self.node_names()
        return frozenset(
            names[nid]
            for adjacency in self._bwd
            for nid in adjacency.keys()
        )

    # -- lazy hydration of the classical dict indexes -----------------------------

    def _hydrate(self) -> Tuple[dict, dict, dict]:
        """Build SPO/POS/OSP string-keyed dicts from the mapped arrays
        (once, on first demand — the SPARQL evaluator and the dataset
        metrics walk these; the RPQ engine never does)."""
        indexes = self._string_indexes
        if indexes is None:
            names = self.node_names()
            spo: Dict[str, Dict[str, set]] = {}
            pos: Dict[str, Dict[str, set]] = {}
            osp: Dict[str, Dict[str, set]] = {}
            for pid, predicate in enumerate(self._pred_names):
                by_object = pos.setdefault(predicate, {})
                for sid, row in self._fwd[pid].items():
                    subject = names[sid]
                    objects = {names[oid] for oid in row}
                    spo.setdefault(subject, {})[predicate] = objects
                    for obj in objects:
                        by_object.setdefault(obj, set()).add(subject)
                        osp.setdefault(obj, {}).setdefault(
                            subject, set()
                        ).add(predicate)
            indexes = (spo, pos, osp)
            self._string_indexes = indexes
        return indexes

    @property
    def _spo(self):
        return self._hydrate()[0]

    @property
    def _pos(self):
        return self._hydrate()[1]

    @property
    def _osp(self):
        return self._hydrate()[2]

    # -- iteration ----------------------------------------------------------------

    def triples(
        self,
        s: Opt[str] = None,
        p: Opt[str] = None,
        o: Opt[str] = None,
    ) -> Iterator[Tuple[str, str, str]]:
        if s is None and o is None:
            # full or per-predicate scans come straight off the CSR
            # arrays — no hydration for the common analytics pass
            names = self.node_names()
            predicates = (
                [p] if p is not None else list(self._pred_names)
            )
            for predicate in predicates:
                pid = self._pred_ids.get(predicate)
                if pid is None:
                    continue
                for sid, row in self._fwd[pid].items():
                    subject = names[sid]
                    for oid in row:
                        yield (subject, predicate, names[oid])
            return
        yield from super().triples(s, p, o)
