"""Dynamic-maintenance benchmark: incremental updates vs full rebuilds.

Before the dynamic subsystem, every edge mutation forced a full
``build()`` from scratch.  :class:`repro.dynamic.DynamicSpanner` instead
answers an insertion with one oracle acceptance test and a deletion with a
dirty-region repair sweep, so the per-update cost should sit orders of
magnitude below a rebuild.  This benchmark replays the ``update_churn``
workload (mixed query/update traffic, the live-service shape) and measures:

* **incremental** — a :class:`~repro.dynamic.LiveEngine` absorbing every
  update while serving the query batches between them; the per-update cost
  is the maintainer's accumulated maintenance time over the whole journal;
* **rebuild** — the pre-subsystem baseline: after each update the spanner is
  rebuilt from scratch at the current graph (timed on a deterministic
  sample of the updates — each rebuild costs the same work the construction
  always costs, so sampling is fair and keeps the benchmark finite).

Before timing, the maintained spanner must pass a sampled ``is_ft_spanner``
certification for the case's fault model — a fast benchmark that serves an
invalid spanner would be meaningless — and the size factor vs the final
rebuild is recorded (the online-vs-offline greedy gap documented in the
README).

Running as a script records ``BENCH_dynamic.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_dynamic.py [--quick]

The ``--quick`` mode is the CI smoke configuration.  The headline number is
the vertex-fault case's speedup, expected to stay >= 5x; mirroring
``bench_verify``'s machine gating, the assertion is armed only when the
measured rebuild cost is large enough (``rebuild_floor_s``) that timer noise
cannot flip the verdict — the recorded ``speedup_asserted`` field says
whether the gate was armed.
"""

import argparse
import json
import pathlib

import pytest

from repro.build import BuildSpec, build
from repro.build.session import BuildSession
from repro.dynamic import LiveEngine
from repro.engine.workload import Query, update_churn
from repro.graph import generators
from repro.utils.timing import Timer, timed
from repro.spanners.verify import is_ft_spanner

#: Incremental maintenance must stay >= this much faster per update ...
SPEEDUP_FLOOR = 5.0
#: ... asserted only when one rebuild costs at least this long (otherwise
#: the division is timer noise, e.g. on toy graphs).
REBUILD_FLOOR_S = 0.05


def _churn_case(n: int, m: int, sessions: int, queries_per_session: int,
                updates_per_session: int, *, fault_model: str, seed: int):
    """A graph plus its mixed query/update event stream."""
    graph = generators.gnm(n, m, rng=seed, connected=True, weighted=True)
    events = update_churn(graph, sessions, queries_per_session,
                          updates_per_session=updates_per_session,
                          max_faults=1, fault_model=fault_model,
                          rng=seed + 1)
    return graph, events


def _run_incremental(graph, events, spec):
    """Drive the live engine through the event stream; returns (live, wall_s)."""
    session = BuildSession(graph.copy(), spec)
    session.build()
    live = LiveEngine(session.dynamic())
    batch = []
    with timed("incremental") as timer:
        for event in events:
            if isinstance(event, Query):
                batch.append((event.source, event.target, event.faults))
            else:
                if batch:
                    live.distances_batch(batch)
                    batch = []
                live.apply(event)
        if batch:
            live.distances_batch(batch)
    return live, timer.elapsed


def _run_rebuild_baseline(graph, updates, spec, sample_every: int):
    """Time from-scratch rebuilds after every ``sample_every``-th update."""
    current = graph.copy()
    timer = Timer("rebuild")
    final_result = None
    for index, update in enumerate(updates):
        update.apply(current)
        if index % sample_every == 0 or index == len(updates) - 1:
            with timer.measure():
                final_result = build(current, spec)
    return final_result, timer.laps


def record_dynamic(path=None, *, quick: bool = False) -> dict:
    """Measure incremental vs rebuild per-update cost; write ``BENCH_dynamic.json``."""
    if path is None:
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_dynamic.json"
    if quick:
        # Small enough for a CI smoke, big enough that a rebuild is not noise.
        configs = [("vertex", 60, 150, 20, 10, 3, 6),
                   ("edge", 40, 100, 10, 10, 3, 4)]
    else:
        # The acceptance shape: >= 200 mixed updates on a 100+-node graph.
        configs = [("vertex", 120, 300, 50, 12, 4, 10),
                   ("edge", 100, 240, 50, 12, 4, 10)]
    report = {
        "benchmark": "incremental spanner maintenance vs full rebuild per update",
        "workload": "update_churn: sessions of pinned-fault query batches, "
                    "each opened by a burst of edge updates",
        "incremental": "LiveEngine(DynamicSpanner): acceptance test per "
                       "insert, dirty-region repair per delete/reweight",
        "rebuild": "build(graph, spec) from scratch after each update "
                   "(timed on a deterministic sample)",
        "quick": quick,
        "cases": [],
    }
    for (fault_model, n, m, sessions, queries_per_session,
         updates_per_session, sample_every) in configs:
        spec = BuildSpec("ft-greedy", stretch=3, max_faults=1,
                         fault_model=fault_model)
        graph, events = _churn_case(n, m, sessions, queries_per_session,
                                    updates_per_session,
                                    fault_model=fault_model, seed=2026)
        updates = [event for event in events if not isinstance(event, Query)]
        queries = len(events) - len(updates)

        live, wall_s = _run_incremental(graph, events, spec)
        maintainer = live.dynamic
        certification = maintainer.certify(method="sampled", samples=60, rng=0)
        assert certification.ok, (
            f"maintained spanner failed certification on {fault_model}")

        rebuilt, rebuild_seconds = _run_rebuild_baseline(
            graph, updates, spec, sample_every)
        rebuilt_report = is_ft_spanner(
            maintainer.graph, rebuilt.spanner, spec.stretch, spec.max_faults,
            fault_model, method="sampled", samples=60, rng=0)
        assert rebuilt_report.ok, "rebuild baseline failed certification"

        maintenance = maintainer.stats()
        incremental_per_update = (maintenance["maintenance_seconds"]
                                  / len(updates))
        rebuild_per_update = sum(rebuild_seconds) / len(rebuild_seconds)
        report["cases"].append({
            "fault_model": fault_model,
            "n": n, "m": m, "max_faults": 1, "stretch": 3,
            "updates": len(updates),
            "queries_served": queries,
            "update_counts": maintainer.journal.counts(),
            "incremental_s_per_update": round(incremental_per_update, 6),
            "rebuild_s_per_update": round(rebuild_per_update, 6),
            "rebuilds_timed": len(rebuild_seconds),
            "speedup": round(rebuild_per_update / incremental_per_update, 1),
            "wall_s_with_queries": round(wall_s, 3),
            "queries_per_second": round(queries / wall_s, 0) if wall_s else 0,
            "cache_invalidations": live.cache_invalidations,
            "repairs": maintenance["repairs"],
            "dirty_selectivity": round(maintenance["dirty_selectivity"], 3),
            "maintained_edges": maintainer.spanner.number_of_edges(),
            "rebuilt_edges": rebuilt.spanner.number_of_edges(),
            "size_vs_rebuild": round(
                maintainer.spanner.number_of_edges()
                / rebuilt.spanner.number_of_edges(), 3),
            "certified": True,
        })
    headline = next(case for case in report["cases"]
                    if case["fault_model"] == "vertex")
    report["speedup"] = headline["speedup"]
    report["size_vs_rebuild"] = headline["size_vs_rebuild"]
    report["rebuild_floor_s"] = REBUILD_FLOOR_S
    # Mirror bench_verify's gating: only a machine/config where a rebuild
    # costs real time can demonstrate the speedup meaningfully; the
    # certification assertions above hold either way.
    report["speedup_asserted"] = (
        headline["rebuild_s_per_update"] >= REBUILD_FLOOR_S)
    if report["speedup_asserted"]:
        assert report["speedup"] >= SPEEDUP_FLOOR, (
            f"incremental maintenance speedup regressed below "
            f"{SPEEDUP_FLOOR}x: {report['speedup']}x")
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# pytest entries (invariant + speed smoke when run explicitly)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_churn_case():
    spec = BuildSpec("ft-greedy", stretch=3, max_faults=1)
    graph, events = _churn_case(24, 60, 6, 8, 3, fault_model="vertex",
                                seed=99)
    return graph, events, spec


@pytest.mark.benchmark(group="dynamic")
def test_incremental_churn(benchmark, small_churn_case):
    graph, events, spec = small_churn_case
    live = benchmark(lambda: _run_incremental(graph, events, spec)[0])
    report = is_ft_spanner(live.dynamic.graph, live.dynamic.spanner, 3, 1,
                           "vertex", method="exhaustive")
    assert report.ok


@pytest.mark.benchmark(group="dynamic")
def test_rebuild_churn_baseline(benchmark, small_churn_case):
    graph, events, spec = small_churn_case
    updates = [event for event in events if not isinstance(event, Query)]
    result, _ = benchmark(
        lambda: _run_rebuild_baseline(graph, updates, spec, sample_every=6))
    assert result.spanner.number_of_edges() > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke configuration (small graphs, seconds)")
    parser.add_argument("--output", default=None,
                        help="where to write BENCH_dynamic.json")
    args = parser.parse_args()
    outcome = record_dynamic(args.output, quick=args.quick)
    for case in outcome["cases"]:
        print(f"{case['fault_model']:6s} n={case['n']} m={case['m']} "
              f"({case['updates']} updates, {case['queries_served']} queries): "
              f"incremental {case['incremental_s_per_update'] * 1000:.2f}ms/update, "
              f"rebuild {case['rebuild_s_per_update'] * 1000:.1f}ms/update "
              f"-> {case['speedup']}x (size factor "
              f"{case['size_vs_rebuild']}, certified)")
    gate = ("asserted >= 5x" if outcome["speedup_asserted"]
            else "not asserted: rebuilds too cheap to time reliably")
    print(f"headline (vertex) speedup: {outcome['speedup']}x [{gate}]")
