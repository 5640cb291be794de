"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``build-fabric`` — FT-greedy construction (tiered oracle, edge faults,
  k=7, f=3) of a seeded spine-leaf fabric, repeated for ``--seconds``,
  then a sampled ``is_ft_spanner`` certification;
* ``serve-zipf``  — a real ``repro-spanner daemon`` serving a vertex-fault
  snapshot to an out-of-process load generator: Zipf reads in an open loop
  at a fixed rate, then a closed-loop saturation phase;
* ``serve-churn`` — the same daemon with ``update`` ops from a seeded
  journal interleaved with the reads on the same WebSocket session.

Every answer is checked (against an in-process reference engine, the
recorded spanner digest and a certification) before any number is printed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  If a check
fails, ``metrics`` is empty and the exit status is 1.  A traced run
also prints its own end-to-end numbers and, when an untraced run of the
same workload and seed is on record, the tracing overhead.

Work files go to ``.perfbench/`` at the root of the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")



def _declared(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is built from this checkout's own source, never from an
    # installed copy: without src/repro there is nothing to measure.
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return _fail(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(sorted(workloads.WORKLOADS))}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(WORK, f"{tag}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    environment = _environment()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"({', '.join(f'{k}={v}' for k, v in environment.items())})",
          flush=True)

    outcome = workloads.WORKLOADS[args.workload](
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        workdir=workdir)
    environment["kernel_backend"] = outcome["kernel_backend"]
    print(f"resolved kernel backend: {outcome['kernel_backend']}")

    end_to_end_units = _declared("end_to_end")
    failures = outcome["failures"]
    failed = sum(failures.values())
    attempted = outcome["attempted"]
    end_to_end = dict(outcome["metrics"])
    end_to_end["ok_frac"] = (attempted - failed) / attempted
    correct = failures.get("check", 0) == 0
    print(f"attempted {attempted}, failed {failed} "
          f"({', '.join(f'{k}={v}' for k, v in failures.items()) or 'none'})"
          f"; checks {'passed' if correct else 'FAILED'}")
    for note in outcome.get("notes", ()):
        print(note)
    if not correct:
        # A wrong program's numbers are not reported: no metrics, and a
        # failing exit status.
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    for name, unit in end_to_end_units.items():
        print(f"  {name:16s} {end_to_end[name]:14.6g} {unit}"
              + ("  (traced)" if args.trace else ""))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment,
              "attempted": attempted, "failures": failures,
              "end_to_end": end_to_end, "layers": outcome.get("layers")}
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle, indent=1)

    if args.trace:
        layers = outcome["layers"]
        for name, value in layers.items():
            print(f"  {name:32s} {value:14.6g}")
        untraced = os.path.join(results, f"{tag}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced) as handle:
                base = json.load(handle)["end_to_end"]
            print("tracing overhead (traced - untraced, same seed):")
            for name, unit in end_to_end_units.items():
                print(f"  {name:16s} {end_to_end[name] - base[name]:+14.6g}"
                      f" {unit}")
        else:
            print("tracing overhead: run with --trace 0 on the same seed "
                  "first to compare")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in _declared("per_layer").items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in end_to_end_units.items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
