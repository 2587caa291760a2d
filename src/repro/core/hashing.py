"""Shared content-addressing helpers.

Two caches in the toolkit key their entries by content: the persistent
log-analysis cache (:mod:`repro.logs.cache`) and the serving layer's
result cache (:mod:`repro.service.resultcache`).  Both must use the
*same* discipline — SHA-256 over a canonical text, plus a truncated
digest of a JSON payload for versioned invalidation — or the two drift
and one of them silently serves stale or duplicated work.  This module
is the single home of that discipline; the log cache re-exports these
helpers unchanged, so existing on-disk caches keep their keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def text_key(normalized_text: str) -> str:
    """The content address of one canonical text: its full SHA-256 hex
    digest.  Callers normalize first (whitespace collapse for query
    texts, structural canonicalization for expressions); this function
    only hashes."""
    return hashlib.sha256(normalized_text.encode("utf-8")).hexdigest()


def payload_fingerprint(payload: Any, length: int = 16) -> str:
    """A short versioning digest of a JSON-able payload.

    The payload is serialized with sorted keys so dict ordering cannot
    change the digest.  The serialization deliberately matches what
    :func:`repro.logs.cache.battery_fingerprint` always used
    (``json.dumps(payload, sort_keys=True)`` with default separators):
    existing cache directories stay valid across the extraction of this
    helper.
    """
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:length]


# -- incremental, order-independent content accumulation -----------------------
#
# The triple store's content fingerprint must satisfy three constraints
# at once: O(1) per insertion (``add`` is the hottest write path in the
# system), independence from insertion order (two processes that load
# the same data in different orders must agree), and portability across
# process boundaries (the fingerprint is written into the mmap image
# header and compared against live stores).  A sum of per-item SHA-256
# digests modulo 2**256 gives all three: commutative, incremental, and
# as collision-resistant as cache addressing needs.

#: width of the accumulator ring (sum of 256-bit digests mod 2**256)
_ACC_BITS = 256
_ACC_MASK = (1 << _ACC_BITS) - 1


#: the canonical item serialization, built once: ``json.dumps`` with
#: these options would construct an encoder on every call, and
#: :func:`item_digest` runs once per triple added to a store
_ITEM_ENCODER = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":")
)


def item_digest(payload: Any) -> int:
    """The 256-bit digest of one JSON-able item, as an integer.

    Serialization follows the :func:`payload_fingerprint` discipline
    (canonical JSON, sorted keys) so the two derivations cannot drift.
    """
    blob = _ITEM_ENCODER.encode(payload).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest(), "big")


def accumulate(accumulator: int, digest: int) -> int:
    """Fold one :func:`item_digest` into an accumulator (commutative:
    the result does not depend on the order items were folded in)."""
    return (accumulator + digest) & _ACC_MASK


def accumulator_hex(accumulator: int, count: int, length: int = 16) -> str:
    """Render an accumulator plus an item count as a short hex digest —
    the same truncated-SHA-256 shape :func:`payload_fingerprint` emits,
    so consumers can treat both as opaque version strings."""
    digest = hashlib.sha256(
        accumulator.to_bytes(_ACC_BITS // 8, "big")
        + count.to_bytes(8, "big")
    ).hexdigest()
    return digest[:length]
