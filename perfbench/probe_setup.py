"""Set one workload up in a fresh interpreter, then print one JSON line.

``run.py`` starts this script several times and times each start up to that
line, so ``setup_s`` covers interpreter start, imports, workload construction
and validation, and the first trial.  Reference slices sample the machine's
speed from before the imports to the end (see ``reference.py``); the line
reports the time they took and their mean length, which ``run.py`` uses to
scale the set-up time as it scales round times.

    python3 perfbench/probe_setup.py --workload NAME --seed N --reference KIND
"""

from __future__ import annotations

import argparse
import json
import sys

import program
import reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reference", choices=sorted(reference.SLICES), required=True)
    args = parser.parse_args()
    program.require_source()  # before the numpy slice imports numpy
    with reference.Reference(args.reference).sampling() as samples:
        import workloads

        workload = workloads.make(args.workload, args.seed, program.OUT / args.workload)
        workload.setup()
    print(json.dumps({"busy_s": samples.busy_s, "slice_s": samples.mean_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
