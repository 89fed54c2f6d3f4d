"""Record the golden output digests of every workload on the default seed.

Run from the root of a checkout, only when a change is meant to alter the
program's simulated outputs::

    python3 perfbench/record_goldens.py
"""

import json
import os
import sys
import time

import cases
import run
from rep import GOLDEN_MISMATCH


def main() -> int:
    goldens = {"seed": cases.DEFAULT_SEED}
    for workload in run.WORKLOADS:
        rep = run.run_rep(workload, cases.DEFAULT_SEED, False, time.monotonic() + 600)
        # Only a stale golden may fail here; any other check must pass.
        bad = [f for f in rep["failures"] if not f.endswith(": " + GOLDEN_MISMATCH)]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        goldens[workload] = rep["digests"]
        print(f"{workload}: {len(rep['digests'])} digests")
    with open(os.path.join(run.HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
