#!/usr/bin/env python3
"""qnls benchmark: one workload per process, closed loop with one client.

    python3 perfbench/run.py --workload drift --seed 0 --seconds 34 --trace 0

Workloads: drift, normal_form, strichartz (see perfbench/workloads.py).  The
seed makes the inputs; the library is imported from ``src/`` of the checkout.
With ``--trace 0`` the last stdout line carries wall_s, setup_s and
peak_rss_mb; with ``--trace 1`` it carries the per-layer metrics of a traced
run.  The full record (environment, settings, outputs, gate results, spans)
is written under perfbench/out/.  BLAS/OpenMP threads are pinned to
BLAS_THREADS before numpy is imported.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin the thread pools and put the checkout's sources first on the path;
    False when the checkout holds no qnls sources."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "qnls" / "__init__.py").is_file():
        print(f"qnls sources not found under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def main() -> int:
    if not prepare():
        return 2
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
