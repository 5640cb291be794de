"""Serving-throughput benchmark: the cross-client coalescing window on vs off.

The daemon's reason to exist is that the group planner's fused sweeps only
amortize *within* one ``distances_batch`` call: a fleet of clients sending
one query at a time gets none of that win.  The coalescing window
(:class:`repro.serve.coalesce.CoalescingWindow`) merges in-flight requests
from all connections into single engine batches, so skewed traffic — many
clients hammering a few popular ``(source, fault-set)`` groups, here a Zipf
source distribution over a small fault pool — collapses back into a few
fused sweeps per merged batch.

This benchmark runs the *real* daemon twice over real sockets with N
concurrent keep-alive HTTP clients replaying the same Zipf workload:
window **on** (a few ms) vs **off** (``--window-ms 0``, every request its
own engine batch).  The result cache is disabled (``cache_size=0``) so the
comparison isolates cross-client batching rather than replay caching, and
the two answer sets must be identical before any timing is trusted.

Running as a script records the comparison in ``BENCH_serve.json`` at the
repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--clients N]

The coalesced throughput is asserted ≥ 2x the uncoalesced one; like
``bench_verify``, the gate arms only on machines with ≥ 2 usable cores
(the recorded ``cores`` / ``speedup_asserted`` fields say whether it was),
because on a starved single-core container wall-clock between a server
thread and a fleet of client threads is too noisy to gate on.
"""

import argparse
import asyncio
import json
import pathlib
import threading
import time

import pytest

from repro.build import BuildSession, BuildSpec
from repro.engine.engine import QueryEngine
from repro.engine.workload import zipf_workload
from repro.graph import generators
from repro.runtime import usable_cpu_count
from repro.serve.client import DaemonClient
from repro.serve.daemon import ServingDaemon

#: Coalesced serving must stay >= this much faster on >= MIN_CORES cores.
SPEEDUP_FLOOR = 2.0
MIN_CORES = 2

#: The armed coalescing window, in milliseconds.
WINDOW_MS = 4.0


def _snapshot(n: int, m: int, *, seed: int = 2026):
    """A trivial-spanner snapshot: zero build cost, realistic sweep cost."""
    graph = generators.gnm(n, m, rng=seed, connected=True, weighted=True)
    spec = BuildSpec(algorithm="trivial", stretch=3, max_faults=1)
    return BuildSession(graph, spec).snapshot()


def _zipf_triples(snapshot, count: int, *, rng: int = 17):
    """Zipf traffic: skewed sources over a 2-deep concurrent fault pool."""
    queries = zipf_workload(snapshot.spanner, count, skew=3.0, max_faults=1,
                            fault_pool=2, rng=rng)
    return [(query.source, query.target, query.faults) for query in queries]


def _drive(snapshot, triples, *, clients: int, window_ms: float):
    """Serve ``triples`` through a real daemon; returns (wall, stats).

    Every client holds one keep-alive connection and replays its shard of
    the workload one ``/v1/distance`` request at a time — the traffic shape
    coalescing exists for.  The wall clock covers the whole fan-out, from
    the start barrier to the last answer.
    """
    from repro.serve.core import EngineCore

    # cache_size=0: measure cross-client batching, not replay caching.
    engine = QueryEngine(snapshot, cache_size=0)
    source, target, _ = triples[0]
    engine.distance(source, target)  # warm the CSR context off the clock
    core = EngineCore(engine, window_seconds=window_ms / 1000.0)
    daemon = ServingDaemon(core)
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run(install_signals=False)),
        daemon=True)
    thread.start()
    host, port = daemon.wait_until_started()

    answers = [None] * len(triples)
    barrier = threading.Barrier(clients + 1)

    def worker(shard_index: int):
        with DaemonClient(host, port) as client:
            barrier.wait()
            for position in range(shard_index, len(triples), clients):
                source, target, faults = triples[position]
                answers[position] = client.distance(source, target, faults)

    workers = [threading.Thread(target=worker, args=(index,))
               for index in range(clients)]
    for worker_thread in workers:
        worker_thread.start()
    barrier.wait()
    started = time.perf_counter()
    for worker_thread in workers:
        worker_thread.join(timeout=600)
    wall = time.perf_counter() - started
    daemon.request_drain()
    thread.join(timeout=15)
    window = core.stats()["coalesce"]
    stats = {
        "requests": window["requests_coalesced"],
        "engine_batches": window["batches_flushed"],
        "mean_batch_occupancy": round(
            window["requests_coalesced"] / max(1, window["batches_flushed"]),
            2),
        "kernel_calls": engine.stats()["kernel_calls"],
    }
    return wall, answers, stats


def record_serve_coalescing(path=None, *, quick: bool = False,
                            clients: int = 24) -> dict:
    """Measure coalesced vs uncoalesced serving; write ``BENCH_serve.json``."""
    if path is None:
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    if quick:
        n, m, per_client = 1200, 4800, 12
    else:
        n, m, per_client = 2000, 8000, 20
    snapshot = _snapshot(n, m)
    triples = _zipf_triples(snapshot, clients * per_client)
    # Ground truth from a direct engine: both daemon runs must match it.
    expected = QueryEngine(snapshot, cache_size=0).distances_batch(triples)

    wall_off, answers_off, stats_off = _drive(snapshot, triples,
                                              clients=clients, window_ms=0.0)
    wall_on, answers_on, stats_on = _drive(snapshot, triples,
                                           clients=clients,
                                           window_ms=WINDOW_MS)
    assert answers_on == expected, "coalesced answers diverged from engine"
    assert answers_off == expected, "uncoalesced answers diverged from engine"

    cores = usable_cpu_count()
    count = len(triples)
    speedup = round(wall_off / wall_on, 2)
    report = {
        "benchmark": "daemon throughput: coalescing window on vs off",
        "uncoalesced": "window 0ms: every request is its own engine batch",
        "coalesced": f"window {WINDOW_MS:g}ms: in-flight requests from all "
                     "connections merge into one distances_batch call",
        "quick": quick,
        "graph": {"n": n, "m": m, "spanner": "trivial (H = G)"},
        "workload": {"queries": count, "clients": clients,
                     "distribution": "zipf", "skew": 3.0, "fault_pool": 2,
                     "max_faults": 1},
        "cache_size": 0,
        "cores": cores,
        "uncoalesced_s": round(wall_off, 3),
        "coalesced_s": round(wall_on, 3),
        "uncoalesced_rps": round(count / wall_off, 1),
        "coalesced_rps": round(count / wall_on, 1),
        "speedup": speedup,
        "window_off": stats_off,
        "window_on": stats_on,
        "answers_identical": True,
    }
    report["speedup_asserted"] = cores >= MIN_CORES
    if report["speedup_asserted"]:
        assert speedup >= SPEEDUP_FLOOR, (
            f"cross-client coalescing speedup regressed below "
            f"{SPEEDUP_FLOOR}x: {speedup}x")
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# pytest entries (round-trip identity as part of the tier-1 run)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def serving_daemon():
    from repro.serve.core import EngineCore

    snapshot = _snapshot(60, 180, seed=3)
    engine = QueryEngine(snapshot, cache_size=0)
    core = EngineCore(engine, window_seconds=WINDOW_MS / 1000.0)
    daemon = ServingDaemon(core)
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run(install_signals=False)),
        daemon=True)
    thread.start()
    host, port = daemon.wait_until_started()
    yield engine, host, port
    daemon.request_drain()
    thread.join(timeout=15)


@pytest.mark.benchmark(group="serve")
def test_daemon_distance_round_trip(benchmark, serving_daemon):
    engine, host, port = serving_daemon
    nodes = sorted(engine.snapshot.spanner.nodes())
    with DaemonClient(host, port) as client:
        answer = benchmark(lambda: client.distance(nodes[0], nodes[7]))
    assert answer == engine.distance(nodes[0], nodes[7])


@pytest.mark.benchmark(group="serve")
def test_daemon_batch_round_trip(benchmark, serving_daemon):
    engine, host, port = serving_daemon
    nodes = sorted(engine.snapshot.spanner.nodes())
    queries = [(nodes[i], nodes[-1 - i], (nodes[(3 * i + 2) % len(nodes)],))
               for i in range(1, 7)]
    with DaemonClient(host, port) as client:
        answers = benchmark(lambda: client.distances_batch(queries))
    assert answers == engine.distances_batch(queries)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke configuration (smaller graph, seconds)")
    parser.add_argument("--clients", type=int, default=24,
                        help="number of concurrent client connections")
    parser.add_argument("--output", default=None,
                        help="where to write BENCH_serve.json")
    args = parser.parse_args()
    outcome = record_serve_coalescing(args.output, quick=args.quick,
                                      clients=args.clients)
    on, off = outcome["window_on"], outcome["window_off"]
    print(f"workload: {outcome['workload']['queries']} zipf queries over "
          f"{outcome['workload']['clients']} clients "
          f"(n={outcome['graph']['n']}, cache off)")
    print(f"window off: {outcome['uncoalesced_s']}s "
          f"({outcome['uncoalesced_rps']} req/s, "
          f"{off['engine_batches']} engine batches, "
          f"{off['kernel_calls']} kernel calls)")
    print(f"window on ({WINDOW_MS:g}ms): {outcome['coalesced_s']}s "
          f"({outcome['coalesced_rps']} req/s, "
          f"{on['engine_batches']} engine batches of "
          f"~{on['mean_batch_occupancy']} requests, "
          f"{on['kernel_calls']} kernel calls)")
    gate = ("asserted >= 2x" if outcome["speedup_asserted"]
            else f"not asserted: {outcome['cores']} core(s) available")
    print(f"cross-client coalescing speedup: {outcome['speedup']}x [{gate}]")
