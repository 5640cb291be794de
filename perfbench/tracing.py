"""Benchmark-owned spans around the public calls into each ``repro`` layer.

:func:`install` replaces layer entry points with thin wrappers that record
one span per call — name, start, end and the enclosing span — in memory;
:meth:`Recorder.dump` writes them out when the benchmark ends.  No file
under ``src/`` changes: the wrappers sit at the layer boundaries, from
outside.  Span names are ``<layer>.<call>`` so :func:`fold` can total them
per layer:

* ``graph``    — CSR compiles (``CSRGraph.from_graph``) and compactions;
* ``paths``    — every kernel call, through the kernel-backend registry;
* ``spanners`` — fault-check oracle queries and ``is_ft_spanner``;
* ``build``    — ``BuildSession.build`` and ``BuildSession.save_snapshot``;
* ``engine``   — ``QueryEngine.distances_batch``;
* ``dynamic``  — ``LiveEngine.apply`` and ``DynamicSpanner.apply``;
* ``serve``    — ``EngineCore.apply_updates``, the coalescing window's
  park-to-flush wait, and the frame / HTTP / JSON codec calls.

Counts that the program already keeps (cache hits, oracle screen outcomes,
repair counters) are read from its metrics registry in Prometheus text —
the daemon's ``/metrics`` body, or the same rendering in-process — by
:func:`parse_prometheus`.

Stamps are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), the same
clock the load generator uses, so daemon spans and client requests compare.
"""

import functools
import itertools
import json
import math
import os
import time

_clock = time.perf_counter


class Recorder:
    """In-memory span store: ``(id, parent, name, start, end)`` tuples.

    One stack of open spans: every process measured here runs its layers
    on a single thread (the daemon on its event loop).
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._ids = itertools.count(1)

    def _enter(self):
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        return span_id, parent, _clock()

    def _exit(self, name, span_id, parent, started):
        ended = _clock()
        self._open.pop()
        self.spans.append((span_id, parent, name, started, ended))

    def wrap(self, name, function):
        """``function`` with a span around each call."""
        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = self._enter()
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(name, *opened)
        return traced

    def wrap_coroutine(self, name, function):
        """A span around a coroutine whose body never suspends.

        ``EngineCore.apply_updates`` is ``async`` but runs to completion
        without awaiting, so the stack of open spans stays consistent.
        """
        @functools.wraps(function)
        async def traced(*args, **kwargs):
            opened = self._enter()
            try:
                return await function(*args, **kwargs)
            finally:
                self._exit(name, *opened)
        return traced

    def record(self, name, started, ended):
        """A span measured by the caller (no children, no parent)."""
        self.spans.append((next(self._ids), None, name, started, ended))

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def install(recorder):
    """Wrap every layer boundary listed in the module docstring."""
    import dataclasses

    from repro.build.session import BuildSession
    from repro.dynamic import repair
    from repro.dynamic.live import LiveEngine
    from repro.dynamic.maintain import DynamicSpanner
    from repro.engine.engine import QueryEngine
    from repro.graph.csr import CSRGraph
    from repro.paths import registry
    from repro.serve import daemon, wire
    from repro.serve.coalesce import CoalescingWindow
    from repro.serve.core import EngineCore
    from repro.spanners import fault_check, verify

    wrap = recorder.wrap

    # graph: full compiles and the incremental snapshot's compactions.
    CSRGraph.from_graph = classmethod(
        wrap("graph.csr_from_graph", CSRGraph.from_graph.__func__))
    CSRGraph.compact = wrap("graph.csr_compact", CSRGraph.compact)

    # paths: every registered backend's kernels (``auto`` resolves through
    # the registry at call time, so it picks up the wrapped backends).
    kernels = [field.name for field in dataclasses.fields(registry.KernelBackend)
               if field.name not in ("name", "description")]
    for name, backend in list(registry._REGISTRY.items()):
        if name == "auto":
            continue
        registry._REGISTRY[name] = dataclasses.replace(backend, **{
            kernel: wrap(f"paths.{kernel}", getattr(backend, kernel))
            for kernel in kernels if getattr(backend, kernel) is not None})

    # spanners: oracle queries (both entry points of every oracle class)
    # and verification.
    for oracle in (fault_check.ExhaustiveOracle,
                   fault_check.BranchAndBoundOracle,
                   fault_check.TieredOracle,
                   fault_check.GreedyPathPackingOracle):
        for method in ("find_breaking_fault_set",
                       "find_breaking_fault_set_csr"):
            if method in vars(oracle):
                setattr(oracle, method,
                        wrap("spanners.oracle", vars(oracle)[method]))
    verify.is_ft_spanner = wrap("spanners.verify", verify.is_ft_spanner)
    repair.is_ft_spanner = verify.is_ft_spanner

    # build: construction and snapshot save.
    BuildSession.build = wrap("build.construct", BuildSession.build)
    BuildSession.save_snapshot = wrap("build.snapshot",
                                      BuildSession.save_snapshot)

    # engine: the batch entry point every read goes through.
    QueryEngine.distances_batch = wrap("engine.distances_batch",
                                       QueryEngine.distances_batch)

    # dynamic: the live engine's write entry and the maintainer under it.
    LiveEngine.apply = wrap("dynamic.live_apply", LiveEngine.apply)
    DynamicSpanner.apply = wrap("dynamic.apply", DynamicSpanner.apply)

    # serve: the write path, the coalescing wait, and the codec (frame
    # unmasking, frame and HTTP response encoding, JSON both ways).
    EngineCore.apply_updates = recorder.wrap_coroutine(
        "serve.apply_updates", EngineCore.apply_updates)
    _install_window_wait(recorder, CoalescingWindow)
    wire._xor_mask = wrap("serve.wire.xor_mask", wire._xor_mask)
    daemon.encode_frame = wrap("serve.wire.encode_frame", daemon.encode_frame)
    daemon.response_bytes = wrap("serve.wire.response_bytes",
                                 daemon.response_bytes)
    daemon._json_bytes = wrap("serve.wire.json_bytes", daemon._json_bytes)
    daemon.json = _TracedJson(wrap("serve.wire.json_loads", json.loads))


class _TracedJson:
    """The ``json`` module as the daemon sees it, with ``loads`` traced."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


def _install_window_wait(recorder, window_class):
    """Record each request's park-to-flush wait in the coalescing window.

    ``submit`` stamps the request as it parks; ``flush`` takes every parked
    request at once, so the stamps collected since the last flush are
    exactly the requests it resolves.
    """
    submit = window_class.submit
    flush = window_class.flush
    parked = {}

    @functools.wraps(submit)
    async def traced_submit(self, queries):
        parked.setdefault(id(self), []).append(_clock())
        return await submit(self, queries)

    @functools.wraps(flush)
    def traced_flush(self):
        started = _clock()
        for stamp in parked.pop(id(self), ()):
            recorder.record("serve.coalesce_wait", stamp, started)
        return flush(self)

    window_class.submit = traced_submit
    window_class.flush = traced_flush


# ---------------------------------------------------------------------------
# Folding spans and counters into the per-layer table
# ---------------------------------------------------------------------------

#: Per-layer metrics a serving run takes from its ``run.py`` process (the
#: certification happens there, off the serving clock).
OFFLINE_LAYERS = ("spanners.verify_fault_sets", "spanners.verify_kernel_calls",
                  "spanners.verify_kernel_s")


def save_work(workdir, name, spans, counters):
    """Write one process's spans and counter deltas as ``<name>.json``."""
    with open(os.path.join(workdir, f"{name}.json"), "w") as handle:
        json.dump({"spans": spans, "counters": counters}, handle)


def _load(workdir, name):
    path = os.path.join(workdir, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def fold_workdir(workdir):
    """The per-layer table and per-span folds of one traced run's files.

    ``work.json`` holds the spans and counters of the process that did the
    measured work (the daemon, or ``run.py`` on build-fabric); ``offline.json``
    those of a serving run's ``run.py``, which supplies :data:`OFFLINE_LAYERS`;
    ``requests.json`` the load generator's records.
    """
    work = _load(workdir, "work")
    offline = _load(workdir, "offline")
    requests = _load(workdir, "requests")
    spans = [tuple(span) for span in work["spans"]]
    layers = layer_table(spans, work["counters"],
                         requests["records"] if requests else ())
    folds = {"work": fold(spans)}
    if offline is not None:
        offline_spans = [tuple(span) for span in offline["spans"]]
        offline_layers = layer_table(offline_spans, offline["counters"])
        for name in OFFLINE_LAYERS:
            layers[name] = offline_layers[name]
        folds["offline"] = fold(offline_spans)
    return layers, folds


def percentile(values, share):
    """Nearest-rank percentile (``share`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def fold(spans):
    """Per span name: count, total, self time, p50 and p99 (seconds).

    Self time is a span's duration minus the time its direct children
    cover (children never overlap on one stack).
    """
    child_time = {}
    for _, parent, _, started, ended in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + ended - started
    durations = {}
    selfs = {}
    for span_id, _, name, started, ended in spans:
        duration = ended - started
        durations.setdefault(name, []).append(duration)
        selfs[name] = (selfs.get(name, 0.0) + duration
                       - child_time.get(span_id, 0.0))
    return {name: {"count": len(values), "total_s": sum(values),
                   "self_s": selfs[name],
                   "p50_s": percentile(values, 0.50),
                   "p99_s": percentile(values, 0.99)}
            for name, values in sorted(durations.items())}


def parse_prometheus(text):
    """``{family or family{labels}: value}`` from Prometheus exposition."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        values[key] = float(value)
    return values


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _spans_under(spans, ancestor_name, prefix):
    """Spans named ``prefix*`` with an ancestor named ``ancestor_name``."""
    by_id = {span[0]: span for span in spans}
    found = []
    for span in spans:
        if not span[2].startswith(prefix):
            continue
        parent = span[1]
        while parent is not None:
            enclosing = by_id[parent]
            if enclosing[2] == ancestor_name:
                found.append(span)
                break
            parent = enclosing[1]
    return found


def layer_table(spans, counters, requests=()):
    """The per-layer metrics, under the names ``BENCHMARK.json`` declares.

    ``spans`` are the recorder's tuples (daemon and ``run.py`` alike),
    ``counters`` the parsed Prometheus text of the process that did the
    work, and ``requests`` the load generator's records (serving runs).
    """
    table = fold(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def count(name):
        return table.get(name, {}).get("count", 0)

    def durations(name):
        return [ended - started for _, _, span_name, started, ended in spans
                if span_name == name]

    def counter(family):
        return counters.get(family, 0.0)

    kernels = [name for name in table if name.startswith("paths.")]
    verify_kernels = _spans_under(spans, "spanners.verify", "paths.")
    oracle_ids = {span[0] for span in spans if span[2] == "spanners.oracle"}
    screened = sum(counter(f'repro_oracle_screen{{outcome="{outcome}"}}')
                   for outcome in ("accept", "reject"))
    applies = [(started, ended) for _, _, name, started, ended in spans
               if name == "serve.apply_updates"]
    reads = [record for record in requests
             if record[1] == "distance" and record[4] is not None]
    behind = sum(1 for record in reads
                 if any(record[3] < ended and started < record[4]
                        for started, ended in applies))
    lags = [record[3] - record[2] for record in requests
            if record[3] is not None]

    def latencies(verb):
        return [record[4] - record[2] for record in requests
                if record[0] == "open" and record[1] == verb
                and record[5] == 200]
    return {
        "graph.csr_compiles": count("graph.csr_from_graph"),
        "graph.csr_compile_s": (total("graph.csr_from_graph")
                                + total("graph.csr_compact")),
        "paths.kernel_calls": sum(count(name) for name in kernels),
        "paths.kernel_s": sum(total(name) for name in kernels),
        "spanners.oracle_queries": sum(
            1 for span in spans
            if span[2] == "spanners.oracle" and span[1] not in oracle_ids),
        "spanners.screen_hit_rate": _ratio(screened,
                                           counter("repro_oracle_queries")),
        # Screens answer a tiered oracle's queries; every other query (all
        # of them, for an unscreened exact oracle) runs the exact search.
        "spanners.exact_searches": (counter("repro_oracle_queries")
                                    - screened),
        "spanners.oracle_self_s": table.get("spanners.oracle",
                                            {}).get("self_s", 0.0),
        "spanners.verify_fault_sets": counter("repro_verify_fault_sets_checked"),
        "spanners.verify_kernel_calls": len(verify_kernels),
        "spanners.verify_kernel_s": sum(span[4] - span[3]
                                        for span in verify_kernels),
        "build.construct_s": total("build.construct"),
        "build.snapshot_s": total("build.snapshot"),
        "engine.batch_calls": count("engine.distances_batch"),
        "engine.batch_p50_ms": 1e3 * percentile(
            durations("engine.distances_batch"), 0.50),
        "engine.batch_p99_ms": 1e3 * percentile(
            durations("engine.distances_batch"), 0.99),
        "engine.groups_per_batch": _ratio(
            counter("repro_engine_groups_executed"),
            counter("repro_engine_batches_planned")),
        "engine.cache_hit_rate": _ratio(
            counter("repro_engine_cache_hits"),
            counter("repro_engine_cache_hits")
            + counter("repro_engine_cache_misses")),
        "engine.fused_sweeps": counter("repro_engine_fused_sweeps"),
        "engine.cache_invalidations": counter(
            "repro_engine_cache_invalidations"),
        "serve.batch_occupancy": _ratio(
            counter("repro_serve_coalesce_queries"),
            counter("repro_serve_coalesce_batches")),
        "serve.coalesce_wait_p99_ms": 1e3 * percentile(
            durations("serve.coalesce_wait"), 0.99),
        "serve.wire_s": sum(total(name) for name in table
                            if name.startswith("serve.wire.")),
        "serve.update_overhead_s": (total("serve.apply_updates")
                                    - total("dynamic.live_apply")),
        "serve.reads_behind_update_frac": _ratio(behind, len(reads)),
        "dynamic.apply_p50_ms": 1e3 * percentile(durations("dynamic.apply"),
                                                 0.50),
        "dynamic.apply_p90_ms": 1e3 * percentile(durations("dynamic.apply"),
                                                 0.90),
        "dynamic.repairs": counter("repro_dynamic_repairs"),
        "dynamic.repair_s": counter("repro_dynamic_repair_seconds_sum"),
        "dynamic.dirty_selectivity": _ratio(
            counter("repro_dynamic_dirty_candidates_checked"),
            counter("repro_dynamic_dirty_pool_seen")),
        "loadgen.lag_p99_ms": 1e3 * percentile(lags, 0.99),
        "loadgen.read_p50_ms": 1e3 * percentile(latencies("distance"), 0.50),
        "loadgen.read_p99_ms": 1e3 * percentile(latencies("distance"), 0.99),
        "loadgen.update_p50_ms": 1e3 * percentile(latencies("update"), 0.50),
        "loadgen.update_p90_ms": 1e3 * percentile(latencies("update"), 0.90),
    }
