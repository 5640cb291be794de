"""Print ``expected.json``: the digest of the spanner build-fabric builds.

    python3 perfbench/digests.py > perfbench/expected.json

Run it only when a change is meant to alter the spanner the construction
produces; the build-fabric workload fails its check on any other change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from repro.build import build, BuildSpec  # noqa: E402
from workloads import spanner_digest  # noqa: E402


def main():
    result = build(inputs.fabric(), BuildSpec(**inputs.FABRIC_SPEC))
    json.dump({"fabric": inputs.FABRIC, "spec": inputs.FABRIC_SPEC,
               "spanner_edges": result.spanner.number_of_edges(),
               "digest": spanner_digest(result.spanner)},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
