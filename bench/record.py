"""Record bench/reference.json: the program's output for every pool entry.

    python3 bench/record.py [WORKLOAD ...]

Run from the root of a checkout, at the commit whose outputs become the
reference (grid-exact takes a few minutes).  An entry whose output fails
its own check, such as a CLI exit code other than 0, stops the recording:
the benchmark's inputs must all succeed.  Workloads not named keep their
recorded entries.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(names):
    run.load_package()
    from workloads import WORKLOADS

    recorded = {"workloads": {}}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            recorded = json.load(fh)
    with run.scratch_dir() as workdir:
        for name in names or WORKLOADS:
            workload = WORKLOADS[name]()
            workload.prepare(workdir)
            refs = []
            for s, stratum in enumerate(workload.strata):
                row = []
                for v in range(len(stratum)):
                    workload.stage((s, v, None))
                    output = workload.run((s, v, None))
                    ref = workload.reference_of(output)
                    problem = workload.check(output, ref)
                    if problem:
                        sys.exit(f"error: {name} entry {(s, v)}: {problem}")
                    row.append(ref)
                refs.append(row)
            recorded["workloads"][name] = {
                "pool_sha256": workload.pool_sha256(), "refs": refs}
            print(f"{name}: {sum(map(len, refs))} entries", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(recorded, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
