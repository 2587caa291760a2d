"""Parallel RPQ evaluation with zero-copy workers.

The compiled engine (:mod:`repro.graphs.engine`) answers one RPQ at a
time; a study workload answers *batteries* of them over one graph.
:func:`evaluate_rpq_many` fans a list of expressions out over a
:class:`~concurrent.futures.ProcessPoolExecutor` — and over a
:class:`~repro.store.mmapstore.MappedTripleStore` the fan-out is
*zero-copy*: the store pickles as its image path (a few dozen bytes),
every worker re-attaches via the per-process
:func:`~repro.store.mmapstore.attach` cache, and all workers read the
same physical pages the OS mapped once.  No triple, node name, or
adjacency list ever crosses the pickle boundary in either direction of
a task — only expressions out and ``(source, target)`` name pairs back.

A live (mutable) :class:`~repro.graphs.rdf.TripleStore` also works but
is copied into every worker by pickling; callers with more than a
trivial store should ``save()`` it once and fan out over the mapped
image.  Chunking, pool ownership and the inline/pool choice are the
shared :func:`repro.core.parallelism.fan_out`'s: a handful of
expressions still spreads across every worker, and ``workers`` > 1 on
a single usable CPU runs inline with a one-time ``RuntimeWarning``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Iterable, List, Optional as Opt, Sequence, Set, Tuple

from ..core.parallelism import fan_out
from ..regex.ast import Regex
from .engine import compile_rpq
from .rdf import TripleStore

#: expressions per pool task before fan-out widening kicks in
DEFAULT_CHUNK_SIZE = 16


def _rpq_batch(
    store: TripleStore,
    sources: Opt[List[str]],
    targets: Opt[List[str]],
    exprs: List[Regex],
) -> List[Set[Tuple[str, str]]]:
    """Process-pool worker: evaluate one chunk of expressions.

    ``store`` arrives attached-by-path when it is a mapped image (see
    :meth:`~repro.store.mmapstore.MappedTripleStore.__reduce__`), so
    repeated tasks in one worker share one mapping *and* one engine
    specialization cache.
    """
    return [
        compile_rpq(expr).evaluate(store, sources=sources, targets=targets)
        for expr in exprs
    ]


def evaluate_rpq_many(
    store: TripleStore,
    exprs: Sequence[Regex],
    workers: Opt[int] = None,
    sources: Opt[Iterable[str]] = None,
    targets: Opt[Iterable[str]] = None,
    chunk_size: Opt[int] = None,
    pool: Opt[ProcessPoolExecutor] = None,
) -> List[Set[Tuple[str, str]]]:
    """Evaluate many RPQs over one store; answers align with ``exprs``.

    Each answer is the full ``{(source, target)}`` pair set of
    :meth:`CompiledRPQ.evaluate` (restricted to ``sources`` when
    given; ``targets`` filters the answers, not the exploration —
    the same contract as :func:`repro.graphs.paths.evaluate_rpq` and
    the service's ``rpq`` endpoint).  With ``workers`` > 1 — or a lent
    ``pool``, which is borrowed and left running — the expressions are
    fanned out over a process pool; otherwise they are evaluated
    inline.  The single-CPU downgrade is the one every batch stage
    shares (:func:`repro.core.parallelism.fan_out`): on one usable
    core the call runs inline with a one-time ``RuntimeWarning``.
    """
    batches = fan_out(
        partial(
            _rpq_batch,
            store,
            list(sources) if sources is not None else None,
            list(targets) if targets is not None else None,
        ),
        exprs,
        workers=workers,
        pool=pool,
        chunk_size=chunk_size or DEFAULT_CHUNK_SIZE,
    )
    return [answer for batch in batches for answer in batch]
