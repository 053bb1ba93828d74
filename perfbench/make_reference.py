"""Write the stored reference results that run.py checks tasks against.

    python3 perfbench/make_reference.py

Runs every input of each workload once for each of seeds 0-31 on the source
tree this file sits in, checks the invariants, and writes the summaries to
``perfbench/reference.json``, replacing it.  The reference records what the
code printed when it was made; regenerate it only for a change that is meant
to change results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

SEEDS = range(32)


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    reference = {}
    workdir = run.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        lib = argparse.Namespace(**run.import_library())
        for name, cls in WORKLOADS.items():
            for seed in SEEDS:
                workload = cls(lib, seed, workdir)
                stored = reference.setdefault(name, {})
                # the grid's seeds share its four draws: each runs once
                inputs = [j for j in range(workload.cycle)
                          if workload.reference_key(j) not in stored]
                for j in inputs:
                    outcome = workload.run(j)
                    error = workload.check(j, outcome, None)
                    if error is not None:
                        print(f"{name} seed {seed} input {j}: {error}", file=sys.stderr)
                        return 1
                    stored[workload.reference_key(j)] = workload.summary(outcome)
                print(f"{name} seed {seed}: {len(inputs)} inputs", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference["source_sha256_16"] = run.source_digest()
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
