"""The in-memory result cache of the serving layer.

Entries are content-addressed by ``(endpoint, store fingerprint,
canonical query text, semantics)`` — hashed with the same SHA-256
discipline the persistent log cache uses
(:func:`repro.core.hashing.text_key`), so the two caching layers share
one key derivation and cannot drift.

* The *store fingerprint* (:meth:`repro.graphs.rdf.TripleStore.fingerprint`)
  is monotone under mutation, so any write to a store silently
  invalidates every cached answer over it: the next identical query
  derives a different key and misses.  Stale entries are never served;
  they age out of the LRU.
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
from typing import Any, Dict, Optional as Opt, Tuple

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


class ResultCache:
    """Bounded LRU over content-addressed result payloads."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0 (0 disables caching)")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

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

    def put(self, key: str, payload: Any) -> None:
        if not self.max_entries:
            return  # caching disabled: every lookup stays a miss
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = payload
            return
        self._entries[key] = payload
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }
