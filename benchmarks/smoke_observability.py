"""CI smoke for the observability surface: trace a build, export metrics.

Drives the real CLI end to end on a small graph:

1. ``repro-spanner generate`` a workload graph;
2. ``repro-spanner build --trace trace.jsonl --metrics-json`` with a fault
   budget, asserting the trace parses as JSONL, nests correctly, and carries
   counter attribution;
3. ``repro-spanner verify --metrics-json`` over the built spanner, asserting
   the required metric families exist in the exported document;
4. ``repro-spanner stats`` renders the document in all three formats;
5. ``repro-spanner build --oracle tiered --workers 2 --metrics-json``,
   asserting the exported oracle counters reconcile: the screen outcomes
   sum to ``oracle.queries``, ``oracle.exact`` equals the fallthroughs, and
   ``oracle.queries`` is one speculative check per edge plus one per
   recheck.  A worker count folded twice or lost breaks the last equality
   (the first two also catch a fold that splits the oracle family).

Leaves ``trace.jsonl`` in the working directory for the CI artifact upload.
Run: ``PYTHONPATH=src python benchmarks/smoke_observability.py``.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from repro.obs.export import METRICS_SCHEMA, load_metrics_json  # noqa: E402
from repro.obs.trace import load_spans, span_tree  # noqa: E402

#: Metric families every instrumented build must export.
BUILD_FAMILIES = [
    "build.builds",
    "build.oracle_accepts",
    "build.oracle_rejects",
    "kernels.dispatch",
]

#: Metric families every verification run must export.
VERIFY_FAMILIES = [
    "verify.runs",
    "verify.fault_sets_checked",
]


def run_cli(*argv: str) -> str:
    """Run one repro-spanner invocation, echoing and checking it."""
    command = [sys.executable, "-m", "repro", *argv]
    print("$", " ".join(argv))
    completed = subprocess.run(command, capture_output=True, text=True,
                               env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    sys.stdout.write(completed.stdout)
    sys.stderr.write(completed.stderr)
    assert completed.returncode == 0, f"exit {completed.returncode}: {argv}"
    return completed.stdout


def check_oracle_reconciles(metrics: dict) -> None:
    """Every oracle query made exactly one screen decision, every
    fallthrough one exact search, and the parallel build asked one query
    per edge in the workers plus one per in-process recheck."""
    queries = metrics["oracle.queries"]["value"]
    edges = (metrics["build.oracle_accepts"]["value"]
             + metrics["build.oracle_rejects"]["value"])
    rechecks = metrics["build.speculative_rechecks"]["value"]
    assert queries == edges + rechecks, (queries, edges, rechecks)
    outcomes = metrics["oracle.screen"].get("children", {})
    assert set(outcomes) <= {f'outcome="{outcome}"' for outcome
                             in ("accept", "reject", "fallthrough")}, outcomes
    assert queries > 0 and sum(outcomes.values()) == queries, \
        (outcomes, queries)
    fallthrough = outcomes.get('outcome="fallthrough"', 0)
    assert metrics["oracle.exact"]["value"] == fallthrough, \
        (metrics["oracle.exact"], fallthrough)
    print(f"oracle counters reconcile: {queries} queries, {outcomes}")


def main() -> None:
    trace_path = pathlib.Path("trace.jsonl")
    trace_path.unlink(missing_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        graph = str(scratch / "graph.json")
        spanner = str(scratch / "spanner.json")
        build_metrics = str(scratch / "build-metrics.json")
        verify_metrics = str(scratch / "verify-metrics.json")

        run_cli("generate", "tiny-gnm", graph, "--seed", "7")
        run_cli("build", graph, "--faults", "1", "--stretch", "3",
                "--output", spanner, "--trace", str(trace_path),
                "--metrics-json", build_metrics)

        # The trace must parse as JSONL, nest, and attribute counters.
        spans = load_spans(str(trace_path))
        assert spans, "build wrote an empty trace"
        names = {span["name"] for span in spans}
        assert "build.construct" in names, names
        tree = span_tree(spans)
        assert tree[None], "trace has no root spans"
        construct = next(s for s in spans if s["name"] == "build.construct")
        assert construct["seconds"] >= 0.0
        assert construct["counters"].get("build.oracle_accepts", 0) > 0, \
            "build span carries no oracle counter attribution"

        # The build metrics document must carry the required families.
        document = load_metrics_json(build_metrics)
        assert document["schema"] == METRICS_SCHEMA
        metrics = document["metrics"]
        for family in BUILD_FAMILIES:
            assert family in metrics, f"missing metric family {family!r}"

        run_cli("verify", graph, spanner, "--faults", "1", "--stretch", "3",
                "--metrics-json", verify_metrics)
        verify_doc = load_metrics_json(verify_metrics)
        for family in VERIFY_FAMILIES:
            assert family in verify_doc["metrics"], \
                f"missing metric family {family!r}"
        assert verify_doc["meta"]["exit_code"] == 0

        # All three stats renderings work against the exported document.
        table = run_cli("stats", build_metrics)
        assert "build.oracle_accepts" in table
        prometheus = run_cli("stats", build_metrics, "--format", "prometheus")
        assert "# TYPE repro_build_oracle_accepts counter" in prometheus
        round_trip = json.loads(run_cli("stats", build_metrics,
                                        "--format", "json"))
        assert round_trip["metrics"] == metrics

        parallel_metrics = str(scratch / "parallel-metrics.json")
        run_cli("build", graph, "--faults", "1", "--stretch", "3",
                "--oracle", "tiered", "--workers", "2",
                "--metrics-json", parallel_metrics)
        check_oracle_reconciles(
            load_metrics_json(parallel_metrics)["metrics"])

    print(f"observability smoke OK: {len(spans)} span(s), "
          f"{len(metrics)} metric families; trace left at {trace_path}")


if __name__ == "__main__":
    main()
