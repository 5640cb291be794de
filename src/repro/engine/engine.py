"""The :class:`QueryEngine` facade: serve distance queries against a snapshot.

One engine serves one :class:`~repro.engine.snapshot.SpannerSnapshot`.  Query
types:

* :meth:`QueryEngine.distance` — ``dist_{H \\ F}(s, t)`` for one query;
* :meth:`QueryEngine.distances_batch` — a whole batch at once, grouped by
  ``(source, fault set)`` so each group costs one masked kernel run;
* :meth:`QueryEngine.connectivity` — reachability under faults;
* :meth:`QueryEngine.stretch_audit` — compare the served (spanner) distance
  against the original graph under the same fault set, i.e. measure the
  stretch actually delivered (requires the snapshot to carry the original).

Caching: per-``(source, canonical fault set)`` full distance vectors in a
versioned LRU (:mod:`repro.engine.cache`).  A cache hit answers every target
of a group with list lookups; a miss costs one full masked SSSP.  With the
cache disabled (``cache_size=0``) groups run the early-exiting multi-target
kernel instead — cheaper for one-shot traffic, nothing worth keeping.

Answers are identical either way, and identical to the per-query reference
(one Dijkstra per query over ``ExclusionView``): batching and caching are
execution strategies, not approximations.  ``tests/test_engine.py`` holds
this line property-style.

Observability: every serving counter lives only on the engine's own metrics
registry (``engine.*`` family, attached to the process default — see
:mod:`repro.obs`); :meth:`stats` renders it as a dict.  Batch occupancy and
per-group kernel time are histograms; ``distances_batch`` opens a tracer
span so traces attribute kernel work to the batches that caused it.  Pooled
audit sweeps ship their counters back per chunk and fold through
:func:`repro.obs.merge_counters`, so parallel audits report exactly the
serial counters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.batch import (
    BatchGroup,
    MaskBuffer,
    MaskMatrix,
    multi_target_group,
    plan_batches,
    sssp_group,
)
from repro.engine.cache import ResultCache
from repro.engine.snapshot import SpannerSnapshot
from repro.faults.models import FaultSet, get_fault_model
from repro.graph.core import Node
from repro.graph.csr import CSRGraph
from repro.obs.metrics import SIZE_BUCKETS, component_registry, get_registry
from repro.obs.trace import get_tracer
from repro.paths.registry import KernelLike, get_kernels
from repro.runtime.backend import BackendLike, SerialBackend, get_backend
from repro.runtime.shard import split_sequence

_INF = math.inf
_RELATIVE_TOLERANCE = 1e-9


class EngineError(Exception):
    """Raised on invalid engine requests (e.g. audits without the original)."""


@dataclass(frozen=True)
class StretchAudit:
    """Outcome of one stretch audit: served distance vs ground truth.

    ``stretch`` is ``dist_{H \\ F} / dist_{G \\ F}`` (1.0 when the pair is
    disconnected in the surviving original — the demand is vacuous, exactly
    as in Definition 2).  ``within_budget`` records whether the fault set
    was within the snapshot's budget ``f``; only then does the construction
    promise ``ok``.
    """

    source: Node
    target: Node
    faults: FaultSet
    spanner_distance: float
    original_distance: float
    required_stretch: float
    within_budget: bool

    @property
    def stretch(self) -> float:
        if math.isinf(self.original_distance):
            return 1.0
        if self.original_distance == 0:
            # source == target: both distances are 0, stretch is trivially 1.
            return 1.0 if self.spanner_distance == 0 else _INF
        return self.spanner_distance / self.original_distance

    @property
    def ok(self) -> bool:
        """Whether the served distance honours the promised stretch."""
        return self.stretch <= self.required_stretch * (1.0 + _RELATIVE_TOLERANCE)


@dataclass(frozen=True)
class _AuditContext:
    """Picklable payload for sharded audit sweeps (shipped once per worker)."""

    csr_h: CSRGraph
    csr_g: CSRGraph
    fault_model: str
    kernel: str = "auto"


def _audit_chunk(ctx: _AuditContext,
                 chunk: List) -> Tuple[List[Tuple[float, float]], Dict[str, int]]:
    """Resolve one chunk of ``(source, target, canonical faults)`` audits.

    Returns the ``(spanner_distance, original_distance)`` pairs in request
    order plus a flat counters mapping (spanner / original kernel-run
    counts, plus ``engine.fused_sweeps`` when the chunk fused) — the
    workers' contribution to the engine registry, folded by the caller
    through :meth:`MetricsRegistry.merge_counters`.

    When the resolved backend exposes ``multi_source_multi_target``, all of
    a side's audits run in one fused sweep (mask-matrix rows, one kernel
    invocation) instead of one multi-target run per audit — the PR 6 fused
    serving-path idiom applied inside the worker.  The fused kernel
    replicates the single-source kernel's per-group semantics, so distances
    stay bit-identical to :meth:`QueryEngine.stretch_audit` either way;
    ``kernel_calls`` / ``audit_kernel_calls`` keep counting logical runs.
    """
    model = get_fault_model(ctx.fault_model)
    kernels = get_kernels(ctx.kernel)
    calls = [0, 0]  # [spanner, original]
    fused = 0
    results = [[_INF, _INF] for _ in chunk]
    for side, csr in enumerate((ctx.csr_h, ctx.csr_g)):
        backend = kernels.resolve(csr)
        # Audits whose endpoints the snapshot knows; the rest stay inf
        # without a kernel call, exactly as the per-audit loop behaves.
        pending = [(row, csr.index_of.get(source), csr.index_of.get(target), faults)
                   for row, (source, target, faults) in enumerate(chunk)]
        pending = [entry for entry in pending
                   if entry[1] is not None and entry[2] is not None]
        if not pending:
            continue
        if backend.multi_source_multi_target is not None and len(pending) > 1:
            vertex_masks, edge_masks = MaskMatrix(csr, model).apply(
                [faults for _, _, _, faults in pending])
            answers = backend.multi_source_multi_target(
                csr, [si for _, si, _, _ in pending],
                [[ti] for _, _, ti, _ in pending], vertex_masks, edge_masks)
            for group, (row, _, _, _) in enumerate(pending):
                results[row][side] = answers[group][0]
            calls[side] += len(pending)
            fused += 1
            continue
        for row, source_index, target_index, faults in pending:
            mask = model.new_mask(csr)
            for index in model.mask_indices(csr, faults):
                mask[index] = 1
            vertex_mask, edge_mask = model.kernel_masks(mask)
            results[row][side] = backend.multi_target_dijkstra_csr(
                csr, source_index, [target_index], vertex_mask, edge_mask)[0]
            calls[side] += 1
    counters = {"engine.kernel_calls": calls[0],
                "engine.audit_kernel_calls": calls[1]}
    if fused:
        counters["engine.fused_sweeps"] = fused
    return [(pair[0], pair[1]) for pair in results], counters


class QueryEngine:
    """Serve fault-tolerant distance queries against one spanner snapshot.

    Parameters
    ----------
    snapshot:
        The prebuilt spanner (plus metadata, plus optionally the original
        graph for audits).
    cache_size:
        LRU capacity in ``(source, fault set)`` distance vectors; ``0``
        disables caching (pure streaming mode).
    backend:
        Execution backend (:func:`repro.runtime.get_backend` spec) used by
        :meth:`stretch_audit_batch` to shard audit sweeps; serving-path
        queries always run in-process.  Defaults to serial.
    kernel:
        Kernel backend (:func:`repro.paths.get_kernels` spec) answering the
        distance queries; ``None`` auto-selects by graph size.  When the
        resolved backend ships multi-source kernels, whole plans are served
        by fused sweeps (one kernel invocation for many groups) — answers,
        counters and cache behaviour stay bit-identical to per-group runs.
    """

    def __init__(self, snapshot: SpannerSnapshot, *, cache_size: int = 256,
                 admit_threshold: int = 2, backend: BackendLike = None,
                 workers: int = 1, kernel: KernelLike = None):
        self.snapshot = snapshot
        self.model = get_fault_model(snapshot.fault_model)
        self.metrics = component_registry("engine")
        self.cache = ResultCache(cache_size, metrics=self.metrics)
        self.backend = get_backend(backend, workers)
        self.kernel = get_kernels(kernel)
        #: Admission policy: a full distance vector is computed and cached
        #: only when the expected reuse of its ``(source, faults)`` key —
        #: the group size, plus one if the key was requested before — reaches
        #: this threshold.  Cold singleton groups run the cheaper early-exit
        #: multi-target kernel instead, so one-shot traffic never pays for a
        #: vector nobody will read again.  ``1`` caches unconditionally.
        self.admit_threshold = admit_threshold
        self._queries_served = self.metrics.counter(
            "engine.queries_served", "distance queries answered")
        self._batches_planned = self.metrics.counter(
            "engine.batches_planned", "distances_batch calls planned")
        self._groups_executed = self.metrics.counter(
            "engine.groups_executed", "(source, fault set) groups served")
        self._kernel_calls = self.metrics.counter(
            "engine.kernel_calls", "logical serving kernel runs")
        # Multi-source kernel invocations; each replaces >= 2 logical kernel
        # runs (``kernel_calls`` keeps counting those, so batching metrics
        # stay comparable across kernel backends).
        self._fused_sweeps = self.metrics.counter(
            "engine.fused_sweeps", "multi-source kernel invocations")
        self._audits = self.metrics.counter(
            "engine.audits", "stretch audits resolved")
        self._audit_kernel_calls = self.metrics.counter(
            "engine.audit_kernel_calls", "ground-truth kernel runs for audits")
        self._busy_seconds = self.metrics.counter(
            "engine.busy_seconds", "wall time spent inside the engine")
        self._batch_occupancy = self.metrics.histogram(
            "engine.batch_occupancy", "queries per distances_batch call",
            buckets=SIZE_BUCKETS)
        self._group_kernel_seconds = self.metrics.histogram(
            "engine.group_kernel_seconds",
            "kernel time per served group / fused sweep")
        self._buffers: Dict[int, MaskBuffer] = {}
        self._matrices: Dict[int, MaskMatrix] = {}
        self._seen_keys: set = set()

    # ------------------------------------------------------------- internals
    def _buffer_for(self, csr: CSRGraph) -> MaskBuffer:
        """The reusable fault-mask buffer bound to ``csr``.

        Snapshots are recompiled (new object) after removals, so buffers are
        keyed by object identity; stale bindings are dropped.
        """
        key = id(csr)
        buffer = self._buffers.get(key)
        if buffer is None:
            if len(self._buffers) > 4:
                # Recompiled snapshots leave stale bindings behind; an engine
                # only ever serves two live CSRs (spanner + original).
                self._buffers.clear()
            buffer = MaskBuffer(csr, self.model)
            self._buffers[key] = buffer
        return buffer

    def _matrix_for(self, csr: CSRGraph) -> MaskMatrix:
        """The reusable fault-mask matrix bound to ``csr`` (fused sweeps)."""
        key = id(csr)
        matrix = self._matrices.get(key)
        if matrix is None:
            if len(self._matrices) > 4:
                self._matrices.clear()
            matrix = MaskMatrix(csr, self.model)
            self._matrices[key] = matrix
        return matrix

    def _multi_target(self, csr: CSRGraph, source_index: int,
                      canonical: FaultSet,
                      target_indices: List) -> List[float]:
        """Early-exit kernel run for the group; ``None`` targets answer inf."""
        known = [t for t in target_indices if t is not None]
        started = time.perf_counter()
        distances = multi_target_group(csr, self._buffer_for(csr), source_index,
                                       canonical, known, self.kernel)
        self._group_kernel_seconds.observe(time.perf_counter() - started)
        self._kernel_calls.inc()
        answered = iter(distances)
        return [next(answered) if t is not None else _INF for t in target_indices]

    def _serve_group(self, csr: CSRGraph, source: Node, canonical: FaultSet,
                     targets: Sequence[Node]) -> List[float]:
        """Distances for one ``(source, faults)`` group, in target order.

        Both execution strategies — cached full vector and early-exit
        multi-target run — produce bitwise-identical distances (enforced by
        ``tests/test_engine.py``), so the admission choice is purely about
        cost.
        """
        self._groups_executed.inc()
        index_of = csr.index_of
        source_index = index_of.get(source)
        if source_index is None:
            return [_INF] * len(targets)
        target_indices = [index_of.get(target) for target in targets]
        if not self.cache.enabled:
            return self._multi_target(csr, source_index, canonical, target_indices)
        key = (source, canonical)
        vector = self.cache.get(key)
        if vector is None:
            expected_reuse = len(targets) + (1 if key in self._seen_keys else 0)
            if expected_reuse < self.admit_threshold:
                # Cold singleton: remember the key so a repeat gets promoted,
                # but serve it with the cheap early-exit kernel for now.
                if len(self._seen_keys) > 16 * max(self.cache.capacity, 64):
                    self._seen_keys.clear()
                self._seen_keys.add(key)
                return self._multi_target(csr, source_index, canonical,
                                          target_indices)
            started = time.perf_counter()
            vector = sssp_group(csr, self._buffer_for(csr), source_index,
                                canonical, self.kernel)
            self._group_kernel_seconds.observe(time.perf_counter() - started)
            self._kernel_calls.inc()
            self.cache.put(key, vector)
        return [vector[t] if t is not None else _INF for t in target_indices]

    def _serve_plan_fused(self, csr: CSRGraph, plan,
                          results: List[float]) -> None:
        """Serve a whole plan with at most two multi-source kernel sweeps.

        Runs the exact per-group decision loop of :meth:`_serve_group` —
        same cache reads/writes, admission checks and counter bumps, in plan
        order — but *defers* the kernel work: admitted groups put an empty
        placeholder vector in the cache (plan keys are unique, so nothing
        reads it within this batch) and queue up; early-exit groups queue
        up likewise.  Each queue is then answered by one fused sweep over a
        :class:`MaskMatrix`, the placeholders filled in place, and answers
        scattered.  Every distance, counter and cache-state transition is
        bit-identical to the per-group path.
        """
        kernels = self.kernel.resolve(csr)
        index_of = csr.index_of
        multi_pending: List[Tuple[BatchGroup, int, List]] = []
        sssp_pending: List[Tuple[BatchGroup, int, List[float], List]] = []
        for group in plan.groups:
            self._groups_executed.inc()
            source_index = index_of.get(group.source)
            if source_index is None:
                continue  # results already hold inf
            target_indices = [index_of.get(t) for t in group.targets]
            if self.cache.enabled:
                key = (group.source, group.faults)
                vector = self.cache.get(key)
                if vector is not None:
                    for position, t in zip(group.positions, target_indices):
                        results[position] = vector[t] if t is not None else _INF
                    continue
                expected_reuse = len(group.targets) + (
                    1 if key in self._seen_keys else 0)
                if expected_reuse >= self.admit_threshold:
                    vector = []
                    self._kernel_calls.inc()
                    self.cache.put(key, vector)
                    sssp_pending.append(
                        (group, source_index, vector, target_indices))
                    continue
                if len(self._seen_keys) > 16 * max(self.cache.capacity, 64):
                    self._seen_keys.clear()
                self._seen_keys.add(key)
            self._kernel_calls.inc()
            multi_pending.append((group, source_index, target_indices))

        if sssp_pending:
            started = time.perf_counter()
            if len(sssp_pending) == 1:
                group, source_index, vector, _ = sssp_pending[0]
                vector[:] = sssp_group(csr, self._buffer_for(csr),
                                       source_index, group.faults, kernels)
            else:
                vm, em = self._matrix_for(csr).apply(
                    [group.faults for group, _, _, _ in sssp_pending])
                rows = kernels.multi_source_sssp(
                    csr, [si for _, si, _, _ in sssp_pending], vm, em)
                self._fused_sweeps.inc()
                for (_, _, vector, _), row in zip(sssp_pending, rows):
                    vector[:] = row
            self._group_kernel_seconds.observe(time.perf_counter() - started)
            for group, _, vector, target_indices in sssp_pending:
                for position, t in zip(group.positions, target_indices):
                    results[position] = vector[t] if t is not None else _INF

        if multi_pending:
            started = time.perf_counter()
            known_lists = [[t for t in tis if t is not None]
                           for _, _, tis in multi_pending]
            if len(multi_pending) == 1:
                group, source_index, _ = multi_pending[0]
                answers = [multi_target_group(
                    csr, self._buffer_for(csr), source_index, group.faults,
                    known_lists[0], kernels)]
            else:
                vm, em = self._matrix_for(csr).apply(
                    [group.faults for group, _, _ in multi_pending])
                answers = kernels.multi_source_multi_target(
                    csr, [si for _, si, _ in multi_pending], known_lists, vm, em)
                self._fused_sweeps.inc()
            self._group_kernel_seconds.observe(time.perf_counter() - started)
            for (group, _, target_indices), row in zip(multi_pending, answers):
                answered = iter(row)
                for position, t in zip(group.positions, target_indices):
                    results[position] = (next(answered) if t is not None
                                         else _INF)

    # --------------------------------------------------------------- queries
    def distance(self, source: Node, target: Node,
                 faults: Iterable = ()) -> float:
        """``dist_{H \\ F}(source, target)`` (``inf`` when unreachable/masked)."""
        return self.distances_batch([(source, target, tuple(faults))])[0]

    def distances_batch(self, queries: Sequence) -> List[float]:
        """Answer a batch of ``(source, target, faults)`` queries.

        Queries are grouped by ``(source, canonical fault set)``; each group
        costs at most one kernel run (zero on a cache hit).  The returned
        list is aligned with ``queries``.
        """
        started = time.perf_counter()
        with get_tracer().span("engine.distances_batch",
                               queries=len(queries)) as span:
            try:
                plan = plan_batches(queries, self.model)
                self._batches_planned.inc()
                self._queries_served.inc(plan.num_queries)
                self._batch_occupancy.observe(plan.num_queries)
                span.set(groups=plan.num_groups)
                self.cache.sync(self.snapshot.spanner.version)
                csr = self.snapshot.csr
                results: List[float] = [_INF] * plan.num_queries
                if (plan.num_groups > 1
                        and self.kernel.resolve(csr).multi_source_sssp is not None):
                    self._serve_plan_fused(csr, plan, results)
                    return results
                for group in plan.groups:
                    answers = self._serve_group(csr, group.source, group.faults,
                                                group.targets)
                    for position, answer in zip(group.positions, answers):
                        results[position] = answer
                return results
            finally:
                self._busy_seconds.inc(time.perf_counter() - started)

    def connectivity(self, source: Node, target: Node,
                     faults: Iterable = ()) -> bool:
        """Whether ``target`` is reachable from ``source`` in ``H \\ F``."""
        return not math.isinf(self.distance(source, target, faults))

    def stretch_audit(self, source: Node, target: Node,
                      faults: Iterable = ()) -> StretchAudit:
        """Compare the served distance against the original graph under ``F``.

        Requires the snapshot to carry the original graph; raises
        :class:`EngineError` otherwise.  The audit is the serving-layer twin
        of Definition 2: customers see ``dist_{H \\ F}``, the audit reports
        how far that is from the unserveable ground truth ``dist_{G \\ F}``.
        """
        original_csr = self.snapshot.original_csr
        if original_csr is None:
            raise EngineError(
                "stretch_audit needs a snapshot built with the original graph "
                "(SpannerSnapshot.original is None)"
            )
        faults = tuple(faults)
        canonical = self.model.canonical(faults)
        spanner_distance = self.distance(source, target, faults)
        started = time.perf_counter()
        try:
            self._audits.inc()
            index_of = original_csr.index_of
            source_index = index_of.get(source)
            target_index = index_of.get(target)
            if source_index is None or target_index is None:
                original_distance = _INF
            else:
                original_distance = multi_target_group(
                    original_csr, self._buffer_for(original_csr), source_index,
                    canonical, [target_index], self.kernel)[0]
                # Counted apart from kernel_calls: audits are ground-truth
                # lookups, not serving work, and must not skew the
                # batching-savings accounting below.
                self._audit_kernel_calls.inc()
        finally:
            self._busy_seconds.inc(time.perf_counter() - started)
        return StretchAudit(
            source=source,
            target=target,
            faults=canonical,
            spanner_distance=spanner_distance,
            original_distance=original_distance,
            required_stretch=self.snapshot.stretch,
            within_budget=len(canonical) <= self.snapshot.max_faults,
        )

    def stretch_audit_batch(self, requests: Sequence) -> List[StretchAudit]:
        """Audit a whole batch of ``(source, target, faults)`` requests.

        With the engine's default serial backend this is a plain loop over
        :meth:`stretch_audit` (counters and cache behave exactly as per-call
        audits).  With a pooled backend the requests shard across workers —
        each worker resolves both sides of its audits with the same masked
        multi-target kernel, so every :class:`StretchAudit` field is
        identical to the serial path.  Counter-merge rule for pooled runs:
        the batch planner and result cache are bypassed, so each audit
        counts one served query, one spanner kernel call, and one audit
        kernel call, while ``batches_planned``/``groups_executed`` are left
        untouched.
        """
        original_csr = self.snapshot.original_csr
        if original_csr is None:
            raise EngineError(
                "stretch_audit needs a snapshot built with the original graph "
                "(SpannerSnapshot.original is None)"
            )
        if isinstance(self.backend, SerialBackend):
            return [self.stretch_audit(source, target, faults)
                    for source, target, faults in requests]
        normalized = [(source, target, self.model.canonical(faults))
                      for source, target, faults in requests]
        started = time.perf_counter()
        try:
            context = _AuditContext(csr_h=self.snapshot.csr, csr_g=original_csr,
                                    fault_model=self.model.name,
                                    kernel=self.kernel.name)
            distance_pairs: List[Tuple[float, float]] = []
            # metrics=get_registry(): worker-side module counters (kernel
            # dispatch) fold into the process registry, while the explicit
            # per-chunk counts below land on the engine's own counters.
            for chunk_results, counters in self.backend.map(
                    _audit_chunk,
                    split_sequence(normalized, self.backend.workers),
                    context=context, metrics=get_registry()):
                self.metrics.merge_counters(counters)
                distance_pairs.extend(chunk_results)
            self._queries_served.inc(len(normalized))
            self._audits.inc(len(normalized))
            return [
                StretchAudit(
                    source=source,
                    target=target,
                    faults=canonical,
                    spanner_distance=spanner_distance,
                    original_distance=original_distance,
                    required_stretch=self.snapshot.stretch,
                    within_budget=len(canonical) <= self.snapshot.max_faults,
                )
                for (source, target, canonical), (spanner_distance, original_distance)
                in zip(normalized, distance_pairs)
            ]
        finally:
            self._busy_seconds.inc(time.perf_counter() - started)

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """Serving report: traffic, batching effectiveness, cache, throughput."""
        counts = self.metrics.counter_values("engine.")
        served, busy = counts["queries_served"], counts["busy_seconds"]
        return {
            "snapshot": self.snapshot.describe(),
            "queries_served": served,
            "batches_planned": counts["batches_planned"],
            "groups_executed": counts["groups_executed"],
            "kernel_calls": counts["kernel_calls"],
            "kernel_calls_saved": served - counts["kernel_calls"],
            "kernel": self.kernel.name,
            "fused_sweeps": counts["fused_sweeps"],
            "audits": counts["audits"],
            "audit_kernel_calls": counts["audit_kernel_calls"],
            "busy_seconds": busy,
            "queries_per_second": served / busy if busy > 0 else 0.0,
            "cache": self.cache.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryEngine {self.snapshot.fault_model} k={self.snapshot.stretch} "
            f"served={self._queries_served.value} "
            f"kernel_calls={self._kernel_calls.value}>"
        )
