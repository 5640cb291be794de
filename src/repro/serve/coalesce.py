"""The cross-client coalescing window.

The group planner's fused sweeps (:mod:`repro.engine.batch`) only amortize
within one ``distances_batch`` call — a fleet of clients each sending one
query at a time gets none of the 4.9x batching win.  The
:class:`CoalescingWindow` restores it *across* connections: in-flight
distance requests park for at most ``window_seconds`` (or until
``max_batch`` queries gather), then the merged batch runs through one
``distances_batch`` call and each request's future is resolved from its
slice of the merged answer.

Answers are identical to per-request execution by the engine's own batching
contract (batching is an execution strategy, not an approximation), so the
window trades a bounded few milliseconds of latency for one fused kernel
sweep instead of N.

``window_seconds=0`` degenerates to flush-on-submit: every request runs
immediately in its own batch (coalescing *off*), which is also what the
one-shot CLI core uses — no event-loop timer is ever armed, so it works
under a throwaway ``asyncio.run``.

Single-loop discipline: everything here runs on the daemon's event loop and
the runner is a synchronous engine call, so a flush is atomic from the
loop's point of view — no locks, no partially merged batches.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry, component_registry

__all__ = ["CoalescingWindow"]


class CoalescingWindow:
    """Merge concurrent distance requests into single engine batches.

    Parameters
    ----------
    runner:
        ``callable(queries) -> distances`` — the synchronous merged-batch
        executor (``engine.distances_batch``).
    window_seconds:
        How long the first request of a window waits for company; ``0``
        disables coalescing (flush on every submit).
    max_batch:
        Flush early once this many queries are pending, bounding both the
        merged batch size and the extra latency under load.
    metrics:
        Registry to host the ``serve.coalesce.*`` family (defaults to a
        component registry attached to the process default).
    """

    def __init__(self, runner: Callable[[List], Sequence[float]], *,
                 window_seconds: float = 0.002, max_batch: int = 512,
                 metrics: Optional[MetricsRegistry] = None):
        if window_seconds < 0:
            raise ValueError("window_seconds must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.runner = runner
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else component_registry(
            "serve.coalesce")
        self._pending: List[Tuple[List, "asyncio.Future", float]] = []
        self._pending_queries = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._batches = self.metrics.counter(
            "serve.coalesce.batches", "merged batches flushed to the engine")
        self._requests = self.metrics.counter(
            "serve.coalesce.requests", "requests that entered the window")
        self._queries = self.metrics.counter(
            "serve.coalesce.queries", "queries that entered the window")
        self._occupancy = self.metrics.histogram(
            "serve.coalesce.occupancy",
            "queries per merged batch (cross-client amortization)",
            buckets=SIZE_BUCKETS)
        self._wait_seconds = self.metrics.histogram(
            "serve.coalesce.wait_seconds",
            "time a request parked in the window before its batch ran")

    # ------------------------------------------------------------ reporting
    @property
    def pending_queries(self) -> int:
        """Queries currently parked in the open window."""
        return self._pending_queries

    # ------------------------------------------------------------ the window
    async def submit(self, queries: List) -> List[float]:
        """Park ``queries`` in the window; resolves with their answers.

        All queries of one submit stay contiguous in the merged batch, so
        the answer slice is positional.  Raises whatever the runner raised
        (every request of the failed batch sees the same exception).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((list(queries), future, time.perf_counter()))
        self._pending_queries += len(queries)
        self._requests.inc()
        self._queries.inc(len(queries))
        if self._pending_queries >= self.max_batch or self.window_seconds <= 0:
            self.flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.window_seconds, self.flush)
        return await future

    def flush(self) -> None:
        """Run the merged batch now and resolve every parked request.

        Synchronous and atomic on the loop: by the time it returns, every
        future that was pending is resolved (with answers or the runner's
        exception).  Also the drain hook — a draining daemon flushes so
        in-flight batches complete before shutdown.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        self._pending_queries = 0
        if not pending:
            return
        merged: List = []
        for queries, _, _ in pending:
            merged.extend(queries)
        resolved_at = time.perf_counter()
        self._batches.inc()
        self._occupancy.observe(len(merged))
        try:
            answers = list(self.runner(merged))
        except Exception as error:  # pragma: no cover - engine bugs only
            for _, future, _ in pending:
                if not future.done():
                    future.set_exception(error)
            return
        if len(answers) != len(merged):
            mismatch = RuntimeError(
                f"runner answered {len(answers)} of {len(merged)} queries")
            for _, future, _ in pending:
                if not future.done():
                    future.set_exception(mismatch)
            return
        offset = 0
        for queries, future, parked_at in pending:
            slice_ = answers[offset:offset + len(queries)]
            offset += len(queries)
            self._wait_seconds.observe(resolved_at - parked_at)
            if not future.done():  # client may have disconnected (cancelled)
                future.set_result(slice_)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CoalescingWindow window={self.window_seconds * 1000:.1f}ms "
                f"max_batch={self.max_batch} pending={self._pending_queries} "
                f"batches={self._batches.value}>")
