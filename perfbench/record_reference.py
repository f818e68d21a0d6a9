#!/usr/bin/env python3
"""Record the reference outputs of every workload for seeds 0..N-1.

    python3 perfbench/record_reference.py [N]

Run this only at a commit whose outputs are the accepted answers: it runs one
round per workload and seed, refuses to record a round whose gates fail, and
rewrites perfbench/reference.json with the workload parameters it used.  The
benchmark compares each round against the entry for its seed.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main(n_seeds: int) -> int:
    if not run.prepare():
        return 2
    import harness
    import workloads

    doc = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        seeds = {}
        for seed in range(n_seeds):
            with tempfile.TemporaryDirectory(dir=harness.HERE) as tmp:
                out = wl.round(wl.setup(seed), Path(tmp))
            if out.failed:
                print(f"{name} seed {seed}: gates failed: {out.problems}", file=sys.stderr)
                return 1
            seeds[str(seed)] = json.loads(json.dumps(out.summary))
            print(f"{name} seed {seed}: {json.dumps(out.summary)[:150]}", flush=True)
        doc[name] = {"params": wl.p, "seeds": seeds}
    doc["recorded_at"] = harness.git_sha(harness.ROOT)
    harness.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 32))
