"""Admission control, deadlines, and single-flight deduplication.

The scheduler is the gate between the asyncio front-end and the
synchronous engines (RPQ evaluation, SPARQL parsing, the analysis
battery).  Engine work runs on a bounded thread pool; the event loop
only frames, routes, and accounts.  Three policies, in order:

* **Single-flight** — concurrent requests with the same content key
  collapse onto one engine execution: the first becomes the *leader*
  and runs, the rest become *followers* awaiting the leader's future.
  Followers bypass admission control entirely (they consume no queue
  slot and no worker), which is what makes a thundering herd of one
  hot query cost one execution.
* **Admission control** — at most ``max_queue`` leaders may wait for a
  worker slot; a leader arriving beyond that is shed immediately with
  a typed :class:`~repro.errors.ServiceOverloaded`.  Failing fast at
  admission beats queueing into timeout collapse: every accepted
  request still gets a correct answer.
* **Deadlines** — a request's deadline is enforced *around* worker
  execution: checked after the queue wait (a request that spent its
  budget queueing is failed before it wastes a worker) and awaited
  with a timeout during execution.  A timed-out request returns a
  structured :class:`~repro.errors.DeadlineExceeded` immediately, but
  the worker thread is never interrupted mid-computation — it runs to
  completion, releases its slot, resolves any followers, and its
  result still populates the result cache.  Cooperative overrun, not a
  poisoned pool.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional as Opt, Tuple

from ..errors import DeadlineExceeded, ServiceOverloaded

#: default worker-slot and queue bounds
DEFAULT_MAX_WORKERS = 4
DEFAULT_MAX_QUEUE = 64


class Scheduler:
    """The admission-controlled bridge onto a worker pool.

    One scheduler belongs to one event loop (its semaphore binds to the
    loop on first use).  It owns a thread pool sized to ``max_workers``
    and shuts it down on :meth:`close`.
    """

    def __init__(
        self,
        max_workers: int = DEFAULT_MAX_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_workers = max_workers
        self.max_queue = max_queue
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._slots = asyncio.Semaphore(max_workers)
        self._waiting = 0
        self._inflight: Dict[str, asyncio.Future] = {}
        self.executed = 0  #: engine executions actually started
        self.overruns = 0  #: executions that outlived their request

    # -- observability ----------------------------------------------------------

    @property
    def waiting(self) -> int:
        """Leaders currently waiting for a worker slot."""
        return self._waiting

    @property
    def inflight(self) -> int:
        """Distinct keys currently executing or queued."""
        return len(self._inflight)

    def stats(self) -> Dict[str, Any]:
        return {
            "max_workers": self.max_workers,
            "max_queue": self.max_queue,
            "waiting": self._waiting,
            "inflight": len(self._inflight),
            "executed": self.executed,
            "overruns": self.overruns,
        }

    # -- the scheduling core ----------------------------------------------------

    async def run(
        self,
        key: Opt[str],
        fn: Callable[[], Any],
        deadline: Opt[float] = None,
        on_result: Opt[Callable[[Any], None]] = None,
    ) -> Tuple[Any, bool]:
        """Execute ``fn`` on the pool under all three policies.

        ``key`` is the single-flight identity (``None`` disables
        deduplication for this call); ``deadline`` is an absolute
        ``loop.time()`` instant.  ``on_result`` runs on the event loop
        when the *execution* succeeds — even if this request already
        gave up on its deadline — which is how a timed-out computation
        still lands in the result cache.  Returns ``(result,
        coalesced)`` where ``coalesced`` is True when this call was a
        follower of an already-in-flight execution.  Raises ``fn``'s
        own exception, or :class:`ServiceOverloaded` /
        :class:`DeadlineExceeded`.
        """
        loop = asyncio.get_running_loop()
        if key is not None:
            existing = self._inflight.get(key)
            if existing is not None:
                return await self._await_deadline(existing, deadline), True

        future: asyncio.Future = loop.create_future()
        # a leader that times out abandons the future; swallow the
        # eventual exception so the loop never logs "never retrieved"
        future.add_done_callback(_retrieve_exception)
        if key is not None:
            self._inflight[key] = future

        try:
            # the queue bound applies only when every worker is busy:
            # max_queue=0 means "run if a slot is free, never wait"
            if self._slots.locked() and self._waiting >= self.max_queue:
                raise ServiceOverloaded(
                    f"admission queue full "
                    f"({self._waiting} waiting, bound {self.max_queue})"
                )
            self._waiting += 1
            try:
                await self._slots.acquire()
            finally:
                self._waiting -= 1
            if deadline is not None and loop.time() >= deadline:
                self._slots.release()
                raise DeadlineExceeded(
                    "deadline expired while queued for a worker"
                )
        except BaseException as exc:
            self._settle(key, future, exc)
            raise

        # slot held: hand the computation to the pool.  The slot is
        # released when the *thread* finishes — not when the awaiting
        # request gives up — so concurrency never exceeds max_workers.
        self.executed += 1
        task = loop.run_in_executor(self._executor, fn)
        task.add_done_callback(
            lambda done: self._finish(key, future, done, on_result)
        )
        try:
            return await self._await_deadline(future, deadline), False
        except DeadlineExceeded:
            self.overruns += 1
            raise

    async def _await_deadline(
        self, future: asyncio.Future, deadline: Opt[float]
    ) -> Any:
        """Await a shared future without cancelling it, bounded by the
        caller's deadline."""
        loop = asyncio.get_running_loop()
        if deadline is None:
            return await asyncio.shield(future)
        remaining = deadline - loop.time()
        if remaining <= 0:
            raise DeadlineExceeded("deadline expired before execution")
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), remaining
            )
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                f"no result within the {remaining * 1000.0:.0f} ms budget"
            ) from None

    def _finish(
        self,
        key: Opt[str],
        future: asyncio.Future,
        done: asyncio.Future,
        on_result: Opt[Callable[[Any], None]] = None,
    ) -> None:
        """Thread completion (runs on the event loop): release the
        slot, run the completion hook, resolve the shared future,
        retire the single-flight entry."""
        self._slots.release()
        exc = done.exception()
        result = None if exc else done.result()
        if exc is None and on_result is not None:
            try:
                on_result(result)
            except BaseException as hook_exc:
                exc, result = hook_exc, None
        self._settle(key, future, exc, result)

    def _settle(
        self,
        key: Opt[str],
        future: asyncio.Future,
        exc: Opt[BaseException],
        result: Any = None,
    ) -> None:
        if key is not None and self._inflight.get(key) is future:
            del self._inflight[key]
        if future.done():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)

    def close(self) -> None:
        """Shut down the pool without waiting for stragglers
        (overrunning threads finish on their own)."""
        self._executor.shutdown(wait=False)


def _retrieve_exception(future: asyncio.Future) -> None:
    if not future.cancelled():
        future.exception()
