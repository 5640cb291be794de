"""Inputs for the three workloads; the same seed gives the same inputs.

The program only ever receives what is generated here: a graph (or the
snapshot built from it), wire requests and update ops.
"""

from repro.dynamic.updates import random_journal, update_to_json
from repro.engine.workload import zipf_workload
from repro.graph import generators
from repro.graph.core import Graph

#: build-fabric: the fabric shape (see ``spine_leaf``) and the construction.
#: One fabric for every seed: fabrics that differ only in how their hosts
#: are homed already differ by a third in construction work, which would
#: swamp any change under test.  It is small (272 nodes, about a second
#: per construction) so that a run holds a dozen constructions, whose
#: median is steady on a noisy host.
FABRIC = dict(num_singles=200, num_core=40, num_leaves=24, num_spines=8,
              homes=10)
FABRIC_SPEC = dict(algorithm="ft-greedy", stretch=7, max_faults=3,
                  fault_model="edge", oracle="tiered")

#: serve-*: the connected weighted G(n, m) the serving snapshot is built on.
#: One graph for every seed: its build, certification and size figures stay
#: comparable across runs, while the seed drives the traffic.
SERVE_GRAPH = dict(n=600, m=1400, seed=2026)
SERVE_SPEC = dict(algorithm="ft-greedy", stretch=3, max_faults=1,
                  fault_model="vertex")
#: Zipf traffic shape: source skew and the pool of concurrent fault sets.
#: Half the pool's draws are the empty set, so a small pool swings the
#: number of distinct (source, faults) keys, and with it the cache hit
#: rate, from seed to seed (1 to 7 distinct sets of 8 gave 1.4k to 2.8k
#: req/s); 32 keeps that swing small.
ZIPF = dict(skew=1.1, fault_pool=32, max_faults=1)


def spine_leaf(*, num_singles, num_core, num_leaves, num_spines, homes):
    """The spine-leaf fabric of ``benchmarks/bench_build.py``.

    Every leaf connects to every spine; each of ``num_core`` multi-homed
    hosts attaches to ``homes`` consecutive leaves at a stride-7 start, and
    each of ``num_singles`` hosts to one leaf.  Unit weights keep the greedy
    order dense in ties.  Kept here so the benchmark's input cannot change
    with the benchmark scripts under ``benchmarks/``.
    """
    graph = Graph(name="spine-leaf")
    for spine in range(num_spines):
        graph.add_node(("spine", spine))
    for leaf in range(num_leaves):
        graph.add_node(("leaf", leaf))
        for spine in range(num_spines):
            graph.add_edge(("leaf", leaf), ("spine", spine), 1.0)
    for host in range(num_core):
        base = (host * 7) % num_leaves
        for offset in range(homes):
            graph.add_edge(("host", host),
                           ("leaf", (base + offset) % num_leaves), 1.0)
    for host in range(num_core, num_core + num_singles):
        graph.add_edge(("host", host), ("leaf", host % num_leaves), 1.0)
    return graph


def fabric():
    return spine_leaf(**FABRIC)


def serving_graph():
    return generators.gnm(SERVE_GRAPH["n"], SERVE_GRAPH["m"],
                          rng=SERVE_GRAPH["seed"], connected=True,
                          weighted=True)


def _wire(query):
    return {"source": query.source, "target": query.target,
            "faults": list(query.faults)}


def zipf_reads(spanner, count, seed):
    """``count`` Zipf ``distance`` payloads over the snapshot's spanner."""
    queries = zipf_workload(spanner, count, fault_model="vertex",
                            rng=seed, **ZIPF)
    return [_wire(query) for query in queries]


def churn_updates(count):
    """``count`` ``update`` payloads, one op each, valid in order.

    One journal for every seed, drawn against the serving graph: the
    maintenance work differs a lot from journal to journal (a few deletes
    open large dirty regions), so a fixed journal keeps the write path's
    figures comparable across runs, while the seed drives the reads.
    """
    journal = random_journal(serving_graph(), count,
                             rng=SERVE_GRAPH["seed"])
    return [{"updates": [update_to_json(op)]} for op in journal]


def open_schedule(reads, rate, seconds, updates=(), update_rate=0.0):
    """Open-loop ``[verb, payload, due]`` messages, sorted by due time.

    Reads are due every ``1 / rate`` seconds and updates every
    ``1 / update_rate`` seconds (offset by half a read gap, so the two
    streams never tie), for ``seconds`` seconds.
    """
    messages = [["distance", reads[index], index / rate]
                for index in range(int(rate * seconds))]
    if update_rate:
        count = int(update_rate * seconds)
        messages += [["update", updates[index],
                      (index + 0.5) / update_rate + 0.5 / rate]
                     for index in range(count)]
    messages.sort(key=lambda message: message[2])
    return messages
