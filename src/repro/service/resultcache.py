"""The in-memory result cache of the serving layer.

Entries are content-addressed by ``(endpoint, store fingerprint,
canonical query text, semantics)`` — hashed with the same SHA-256
discipline the persistent log cache uses
(:func:`repro.core.hashing.text_key`), so the two caching layers share
one key derivation and cannot drift.

* The *store fingerprint* is scoped to what the answer reads
  (:meth:`repro.graphs.rdf.TripleStore.fingerprint`): an RPQ answer is
  keyed by the fingerprint of the sub-store of its expression's
  predicates, anything that may read the whole store (a SPARQL
  evaluation, a nullable all-pairs walk) by the whole-store one.  A
  write changes exactly the fingerprints of the scopes it touches, so
  the next identical query over one of them derives a different key and
  misses, while answers over untouched predicates stay addressable.
  The key is the correctness guarantee: no fingerprint ever recurs on a
  growth-only store, so an entry computed against superseded data can
  never be asked for again.
* Each store-reading entry also records its scope ``(store,
  predicates)`` — ``predicates`` ``None`` for the whole store — and
  :meth:`ResultCache.drop` removes the entries a write made
  unreachable, so they free their slots at once instead of evicting
  live answers on their way out of the LRU.  Dropping only frees
  capacity: a read that raced the write and lands after the drop sits
  under a key nobody can ask again until it ages out.
* The *canonical text* absorbs formatting noise: whitespace-normalized
  query text for the SPARQL endpoints (the corpus dedup key), the
  structural AST key for RPQ expressions (rendered text is ambiguous in
  academic union-``+`` notation, the AST key is not).
* The *semantics* component separates walk / simple-path / trail
  answers for one expression, and the endpoint name separates the
  namespaces of unrelated operations.

The cache is a bounded LRU.  It holds each answer's encoded JSON text
(:class:`~repro.service.protocol.EncodedResult`, made once on the
worker that computed it), never ASTs or live lists: a hit is spliced
into its response frame as it is, so a cached response is
byte-identical to the engine response it memoizes, and one immutable
string per entry leaves the garbage collector nothing to traverse.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Iterable, Optional as Opt, Set, Tuple

from ..core.hashing import text_key

#: default bound on resident entries
DEFAULT_MAX_ENTRIES = 4096


def result_key(
    endpoint: str,
    store_fingerprint: str,
    canonical_text: str,
    semantics: str,
) -> str:
    """The content address of one serving-layer answer."""
    payload = json.dumps(
        [endpoint, store_fingerprint, canonical_text, semantics],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return text_key(payload)


#: what a store-reading answer depends on: ``(store name, predicate
#: names)``, or ``(store name, None)`` for the whole store
Scope = Tuple[str, Opt[Iterable[str]]]


class ResultCache:
    """Bounded LRU over content-addressed result payloads, with
    write-scoped invalidation (:meth:`drop`)."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0 (0 disables caching)")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        #: key -> (store, predicates or None) of store-reading entries
        self._scopes: Dict[str, Tuple[str, Opt[FrozenSet[str]]]] = {}
        #: (store, predicate) -> keys reading it; (store, None) -> keys
        #: reading the whole store.  A write's drop costs what it removes,
        #: not a scan of the cache
        self._readers: Dict[Tuple[str, Opt[str]], Set[str]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, payload)`` — the payload may legitimately be falsy,
        which is why the hit flag exists (same contract as the log
        cache)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def put(self, key: str, payload: Any, scope: Opt[Scope] = None) -> None:
        """Store ``payload`` under ``key``.  ``scope`` names what the
        answer read — ``(store, predicates)``, ``(store, None)`` for the
        whole store — so :meth:`drop` can find it; ``None`` marks a
        store-free answer no write affects."""
        if not self.max_entries:
            return  # caching disabled: every lookup stays a miss
        if key in self._entries:
            self._entries.move_to_end(key)
            self._unindex(key)
        self._entries[key] = payload
        if scope is not None:
            store, predicates = scope
            if predicates is not None:
                predicates = frozenset(predicates)
            self._scopes[key] = (store, predicates)
            for predicate in _scope_keys(predicates):
                self._readers.setdefault((store, predicate), set()).add(key)
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._unindex(evicted)
            self.evictions += 1

    def drop(self, store: str, predicates: Iterable[str]) -> int:
        """Remove every entry a write adding ``predicates`` triples to
        ``store`` can change: those reading one of the predicates, and
        those reading the whole store.  A write that added nothing
        changes nothing.  Returns how many went."""
        written = set(predicates)
        if not written:
            return 0
        doomed = set(self._readers.get((store, None), ()))
        for predicate in written:
            doomed.update(self._readers.get((store, predicate), ()))
        for key in doomed:
            del self._entries[key]
            self._unindex(key)
        self.invalidated += len(doomed)
        return len(doomed)

    def _unindex(self, key: str) -> None:
        scope = self._scopes.pop(key, None)
        if scope is None:
            return
        store, predicates = scope
        for predicate in _scope_keys(predicates):
            keys = self._readers[(store, predicate)]
            keys.discard(key)
            if not keys:
                del self._readers[(store, predicate)]

    def clear(self) -> None:
        self._entries.clear()
        self._scopes.clear()
        self._readers.clear()

    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }


def _scope_keys(predicates: Opt[FrozenSet[str]]) -> Iterable[Opt[str]]:
    """The reader-index slots of one scope: its predicates, or the
    single whole-store slot ``None``."""
    return predicates if predicates is not None else (None,)
