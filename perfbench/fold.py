"""Fold a traced run's spans into per-span and per-layer tables.

    python3 perfbench/fold.py .perfbench/<workload>-seed<N>-trace1

Reads the files a ``--trace 1`` run of ``perfbench/run.py`` leaves in its
work directory and prints, for every span name, the count, total time,
self time (the span minus its children), p50 and p99; then the per-layer
metrics under the names ``BENCHMARK.json`` declares — the same table the
traced run reported.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", help="a traced run's work directory")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(args.workdir, "work.json")):
        print(f"fold: no work.json in {args.workdir}; was it a --trace 1 run?",
              file=sys.stderr)
        return 2
    layers, folds = tracing.fold_workdir(args.workdir)
    for process, table in folds.items():
        print(f"spans ({process} process)")
        print(f"  {'name':32s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}"
              f" {'p50_ms':>10s} {'p99_ms':>10s}")
        for name, row in table.items():
            print(f"  {name:32s} {row['count']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {1e3 * row['p50_s']:10.3f} "
                  f"{1e3 * row['p99_s']:10.3f}")
    print("per-layer")
    for name, value in layers.items():
        print(f"  {name:32s} {value:14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
