"""Record the reference values the benchmark holds every execution to.

Usage (from the repository root):

    python3 perfbench/record_reference.py [workload ...]

Runs each named workload (default: all) once per data seed, or once when the
workload ignores the seed.  Every execution must pass the output checks that
need no reference.  Its headline scalars and artifact sha256 sums are merged
into perfbench/reference.json.  Record only at a commit whose outputs are
trusted: the benchmark compares every later commit to these values.
"""

import json
import sys
import time

from run import REFERENCE, Runner
from workloads import DATA_SEEDS, WORKLOADS, reference_key


def main(names) -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entries = {}
        for data_seed in range(DATA_SEEDS) if workload.seeded else [0]:
            runner = Runner(workload, data_seed, None, time.monotonic() + 600)
            ex = runner.execute(trace=False)
            if ex.problems:
                print(f"{name} data seed {data_seed}: {ex.problems}", file=sys.stderr)
                return 1
            entries[reference_key(workload, data_seed)] = {"headline": ex.headline,
                                                           "sha256": ex.hashes}
            print(f"{name} data seed {data_seed}: wall {ex.result['wall_s']:.3f} s", flush=True)
        reference[name] = entries
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
