"""Report surfaces keep their exact key sets; counters are read, never created.

``stats()`` of the engine, the live engine, the maintainer and the serving
core, and ``SpannerResult.parameters``, are what the CLI's ``--json``
reports, the benchmarks and the examples read.  Their key sets are pinned
here on one serial and one ``workers=2`` workload.  The counters behind
them live only in each component's metrics registry, read through
:meth:`MetricsRegistry.counter_values`.
"""

import pytest

from repro.build import BuildSpec, build
from repro.dynamic import DynamicSpanner, LiveEngine
from repro.dynamic.updates import random_journal
from repro.graph import generators
from repro.obs.metrics import MetricsRegistry
from repro.serve.core import EngineCore
from repro.serve.protocol import dispatch_sync

CACHE_KEYS = {"capacity", "entries", "hits", "misses", "hit_rate",
              "evictions", "invalidations"}
ENGINE_KEYS = {"snapshot", "queries_served", "batches_planned",
               "groups_executed", "kernel_calls", "kernel_calls_saved",
               "kernel", "fused_sweeps", "audits", "audit_kernel_calls",
               "busy_seconds", "queries_per_second", "cache"}
DYNAMIC_KEYS = {"spec", "graph_nodes", "graph_edges", "spanner_edges",
                "graph_version", "spanner_version", "updates_applied",
                "update_counts", "incremental_accepts", "incremental_rejects",
                "repairs", "repair_edges_added", "dirty_candidates_checked",
                "dirty_pool_seen", "dirty_selectivity", "oracle_queries",
                "maintenance_seconds", "certifications",
                "last_certification_ok"}
LIVE_KEYS = ENGINE_KEYS | {"maintenance", "updates_applied",
                           "updates_spanner_changed",
                           "update_cache_invalidations"}
CORE_KEYS = LIVE_KEYS | {"journal_offset", "coalesce"}
COALESCE_KEYS = {"window_seconds", "max_batch", "batches_flushed",
                 "requests_coalesced"}

SERIAL_PARAMETERS = {
    "tiered": {"oracle", "oracle_exact", "screen_hit_rate",
               "screen_outcomes"},
    "branch-and-bound": {"oracle", "oracle_exact"},
}
PARALLEL = {"oracle", "oracle_exact", "workers", "backend",
            "speculative_batches", "speculative_rechecks"}
PARALLEL_PARAMETERS = {
    "tiered": PARALLEL | {"screen_hit_rate"},
    "branch-and-bound": PARALLEL,
}


@pytest.mark.parametrize("workers", [1, 2])
def test_report_key_sets(workers):
    graph = generators.gnm(24, 72, rng=4, connected=True, weighted=True)
    expected = SERIAL_PARAMETERS if workers == 1 else PARALLEL_PARAMETERS
    for oracle, keys in expected.items():
        result = build(graph, BuildSpec("ft-greedy", stretch=3, max_faults=1,
                                        oracle=oracle, workers=workers))
        assert set(result.parameters) == keys, oracle

    spec = BuildSpec("ft-greedy", stretch=3, max_faults=1, oracle="tiered",
                     workers=workers)
    live = LiveEngine(DynamicSpanner(graph.copy(), spec))
    for op in random_journal(live.dynamic.graph, 24, rng=9):
        live.apply(op)
        live.distances_batch([(0, 5, ()), (1, 7, (2,)), (0, 5, ())])
    live.stretch_audit(0, 5, (3,))

    dynamic = live.dynamic.stats()
    assert set(dynamic) == DYNAMIC_KEYS
    assert dynamic["updates_applied"] == 24 and dynamic["repairs"] > 0
    engine = live.engine.stats()
    assert set(engine) == ENGINE_KEYS
    assert set(engine["cache"]) == CACHE_KEYS
    assert engine["queries_served"] == 3 * 24 + 1 and engine["audits"] == 1
    assert set(live.stats()) == LIVE_KEYS

    core = EngineCore(live, window_seconds=0)
    dispatch_sync(core, "distances_batch", {"queries": [[0, 3], [0, 4, [5]]]})
    stats = core.stats()
    assert set(stats) == CORE_KEYS
    assert set(stats["coalesce"]) == COALESCE_KEYS
    assert stats["coalesce"]["requests_coalesced"] == 1
    assert stats["coalesce"]["batches_flushed"] == 1


def test_counter_values_reads_registered_counters_only():
    registry = MetricsRegistry("test")
    registry.counter("engine.queries_served").inc(3)
    registry.counter("engine.kernel_calls")
    registry.counter("engine.cache.hits").labels(kind="vector").inc()
    registry.gauge("engine.in_flight").set(2)
    values = registry.counter_values("engine.")
    assert values == {"queries_served": 3, "kernel_calls": 0,
                      "cache.hits": 0, 'cache.hits{kind="vector"}': 1}
    assert registry.counter_values("engine.cache.") == {
        "hits": 0, 'hits{kind="vector"}': 1}
    registered = set(registry.metrics())
    with pytest.raises(KeyError):
        values["querys_served"]  # a typo is not a silent zero
    with pytest.raises(KeyError, match="engine.querys"):
        registry.counter_values("engine.querys")
    with pytest.raises(KeyError):
        registry.counter_values("engine.in_flight")  # a gauge, not a counter
    assert set(registry.metrics()) == registered  # reading created nothing
