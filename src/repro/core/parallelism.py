"""Process-pool fan-out shared by every parallel stage.

Every batch stage that fans work out over a
:class:`~concurrent.futures.ProcessPoolExecutor` — the log-study
pipeline (:func:`repro.logs.pipeline.run_study` and
:func:`~repro.logs.pipeline.stream_corpus`) and the parallel RPQ
evaluator (:func:`repro.graphs.parallel.evaluate_rpq_many`) — goes
through one :func:`fan_out`, so they all make the same decisions the
same way:

* **Inline or pooled?**  Fewer than two items, or no lent pool and
  ``workers <= 1``, run inline as one chunk.  ``workers > 1`` on a
  single usable CPU also runs inline, with a one-time
  ``RuntimeWarning``: a pool cannot win on one core.
* **How wide is the pool really?**  ``workers`` may be unset while an
  externally managed pool is lent in, and CPU affinity can be narrower
  than ``os.cpu_count()``.
* **How many chunks should the work split into?**  A fixed chunk size
  quietly serializes moderate workloads (fewer than ``chunk_size *
  workers`` items produce fewer chunks than workers, idling part of the
  pool while paying its full cost) — the bug :func:`fanout_chunk_size`
  exists to keep fixed everywhere at once.
* **Whose pool?**  A lent pool is borrowed and left running; otherwise
  a pool lives only for the call.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional as Opt, Sequence

#: pool-balancing factor: aim for this many chunks per worker so one
#: heavy shard (expensive queries cluster) cannot straggle a whole stage
FANOUT_PER_WORKER = 4


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pool_width(workers: Opt[int], pool=None) -> int:
    """The effective number of workers a parallel stage will run on:
    an explicit ``workers`` wins, else the width of a lent pool, else
    the usable CPU count."""
    if workers and workers > 1:
        return workers
    if pool is not None:
        width = getattr(pool, "_max_workers", None)
        if isinstance(width, int) and width > 0:
            return width
    return usable_cpus()


def default_shard_count(requested: Opt[int] = None) -> int:
    """How many store shards a deployment should run: an explicit
    request wins, else one shard per usable CPU.  Sharding is
    process-level parallelism, so oversubscribing CPUs only adds
    scatter overhead — but a single-CPU host still gets one shard
    (the layout is about partitioning, not just speed)."""
    if requested is not None:
        if requested < 1:
            raise ValueError("a sharded deployment needs at least one shard")
        return requested
    return usable_cpus()


def fanout_chunk_size(total: int, workers: int, chunk_size: int) -> int:
    """The effective per-task chunk size for a pool of ``workers``.

    The chunk count is derived from the pool width first —
    ``max(workers * FANOUT_PER_WORKER, ceil(total / chunk_size))``,
    capped at ``total`` — so the configured ``chunk_size`` only bounds
    task payload size, never fan-out: every worker gets ~4 tasks for
    load balancing however small the workload is.
    """
    if total <= 0:
        return chunk_size
    workers = max(1, workers)
    chunks = min(
        total, max(workers * FANOUT_PER_WORKER, -(-total // chunk_size))
    )
    return -(-total // chunks)


def fanout_chunks(items: List, workers: int, chunk_size: int) -> List[List]:
    """Split ``items`` into pool tasks via :func:`fanout_chunk_size`."""
    if not items:
        return []
    size = fanout_chunk_size(len(items), workers, chunk_size)
    return [items[start : start + size] for start in range(0, len(items), size)]


#: one-time guard for the workers>1-on-one-CPU warning
_fallback_warned = False


def _warn_inline_fallback(fn: Callable, chunk: List) -> None:
    """Warn (once per process) that a parallel stage was downgraded.

    On a single usable CPU a process pool cannot win: the chunks still
    serialize through pickle and the workers time-slice one core, so the
    overhead is pure loss (the committed benchmark artifact measured a
    0.85x parallel "speedup" in exactly this situation).  The warning
    quantifies the per-chunk serialization cost so the downgrade is
    explainable from logs alone.
    """
    global _fallback_warned
    if _fallback_warned:
        return
    _fallback_warned = True
    started = time.perf_counter()
    payload_bytes = len(pickle.dumps((fn, chunk)))
    pickle_seconds = time.perf_counter() - started
    warnings.warn(
        f"workers>1 requested but only one usable CPU is available; "
        f"chunk serialization alone costs {pickle_seconds * 1e3:.2f} ms "
        f"per {len(chunk)}-item chunk ({payload_bytes} bytes) with no "
        f"parallelism to pay for it — running inline",
        RuntimeWarning,
        stacklevel=4,
    )


def fan_out(
    fn: Callable[[List], Any],
    items: Sequence,
    *,
    workers: Opt[int],
    pool: Opt[ProcessPoolExecutor],
    chunk_size: int,
) -> List[Any]:
    """``[fn(chunk) for chunk in chunks of items]``, on a process pool
    when one can pay.

    Runs inline as one chunk when there are fewer than two items, or
    when there is no lent ``pool`` and ``workers <= 1`` — or, with a
    one-time ``RuntimeWarning``, when ``workers > 1`` but only one CPU
    is usable.  Otherwise the items split via :func:`fanout_chunks`
    over :func:`pool_width` workers and map over the lent ``pool``
    (left running) or over a pool of ``workers`` processes that lives
    only for the call.  Results align with the chunks, in order.
    """
    items = list(items)
    if len(items) < 2 or (pool is None and not (workers and workers > 1)):
        return [fn(items)]
    chunks = fanout_chunks(items, pool_width(workers, pool), chunk_size)
    if pool is None and usable_cpus() < 2:
        _warn_inline_fallback(fn, chunks[0])
        return [fn(items)]
    if pool is not None:
        return list(pool.map(fn, chunks))
    with ProcessPoolExecutor(max_workers=workers) as own_pool:
        return list(own_pool.map(fn, chunks))
