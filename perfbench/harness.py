"""Measurement loop, tracing run, result record and report of the benchmark.

End-to-end metrics come from an untraced run: rounds of one workload back to
back (closed loop, one client) until the time budget is spent.  Per-layer
metrics come from a separate traced run that alternates untraced and traced
rounds, so that the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads
from run import BLAS_THREADS, THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3

# a fresh interpreter that imports qnls and builds one workload's seeded inputs
_SETUP_CODE = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.WORKLOADS[sys.argv[3]](**json.loads(sys.argv[4]))"
               ".setup(int(sys.argv[5]))")


def measure_setup(wl, seed: int, repeats: int) -> list[float]:
    """Wall seconds of ``repeats`` fresh interpreters, each starting Python,
    importing qnls and generating the workload's seeded inputs."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(ROOT / "src"), str(HERE),
            wl.name, json.dumps(wl.p), str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git; None
    when the benchmark runs from an exported tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(wl, path: Path = REFERENCE) -> dict:
    """Recorded outputs per seed, or {} when recorded for other parameters."""
    try:
        doc = json.loads(path.read_text()).get(wl.name, {})
    except FileNotFoundError:
        return {}
    return doc.get("seeds", {}) if doc.get("params") == wl.p else {}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def traced(tracer):
    probe = tracing.Probe(tracer)
    probe.install()
    try:
        yield tracer
    finally:
        probe.uninstall()


def run_rounds(wl, inputs, seed: int, seconds: float, reference: dict, workdir: Path,
               trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Rounds back to back until the next one would end past ``seconds``.

    Untraced runs time every round and follow it with one set-up probe, so
    that the set-up samples span the same stretch of time as the rounds (the
    host's speed drifts over tens of seconds); probes are topped up to
    ``setup_repeats`` at the end.  Traced runs alternate untraced and traced
    rounds (at least one of each) and keep each traced round's tracer.
    """
    walls = {False: [], True: []}
    setup_times, tracers, outcomes = [], [], []
    t_begin = time.perf_counter()
    while True:
        with_trace = trace and len(walls[False]) > len(walls[True])
        tracer = tracing.Tracer() if with_trace else None
        t0 = time.perf_counter()
        if tracer is None:
            out = wl.round(inputs, workdir)
        else:
            with traced(tracer):
                out = wl.round(inputs, workdir)
        status = workloads.check_reference(wl, seed, out, reference)
        walls[with_trace].append(time.perf_counter() - t0)
        outcomes.append((out, status))
        if tracer is not None:
            tracers.append(tracer)
        if not trace:
            setup_times += measure_setup(wl, seed, 1)
        elapsed = time.perf_counter() - t_begin
        done = walls[False] and (walls[True] or not trace)
        step = statistics.median(walls[False] + walls[True])
        if setup_times:
            step += statistics.median(setup_times)
        if done and elapsed + step > seconds:
            break
    if not trace and len(setup_times) < setup_repeats:
        setup_times += measure_setup(wl, seed, setup_repeats - len(setup_times))
    return {"walls": walls[False], "traced_walls": walls[True], "setup_times": setup_times,
            "tracers": tracers, "outcomes": outcomes}


def layer_metrics(setup_tracer, tracers, walls, traced_walls) -> tuple[dict, bool]:
    """Per-layer values: the set-up's share plus the median over traced
    rounds; also whether every count repeated exactly between rounds."""
    per_round = [tracing.layer_values(tr) for tr in tracers]
    setup = tracing.layer_values(setup_tracer)
    units = dict(tracing.LAYER_METRICS)
    values, repeat = {}, True
    for name in per_round[0]:
        col = [r[name] for r in per_round]
        if units[name] == "count":
            repeat &= len(set(col)) == 1
            values[name] = setup[name] + statistics.median_low(col)
        else:
            values[name] = setup[name] + statistics.median(col)
    steps = values["flows.midpoint_step.calls"]
    values["flows.grad_evals_per_step"] = values["flows.grad_evals"] / steps if steps else 0.0
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return values, repeat


def run(workload: str, seed: int, seconds: float, trace: bool, params: dict | None = None,
        reference: dict | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the full record (result line under "result")."""
    wl = workloads.WORKLOADS[workload](**(params or {}))
    if reference is None:
        reference = load_reference(wl)
    setup_tracer = tracing.Tracer()
    if trace:
        with traced(setup_tracer):
            inputs = wl.setup(seed)
    else:
        inputs = wl.setup(seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        res = run_rounds(wl, inputs, seed, seconds, reference, workdir, trace, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o, _ in res["outcomes"])
    failed = sum(o.failed for o, _ in res["outcomes"])
    statuses = sorted({s for _, s in res["outcomes"]})
    problems = [p for o, _ in res["outcomes"] for p in o.problems]
    if trace:
        metrics, counts_repeat = layer_metrics(setup_tracer, res["tracers"],
                                               res["walls"], res["traced_walls"])
        units = dict(tracing.LAYER_METRICS)
    else:
        metrics = {"wall_s": statistics.median(res["walls"]),
                   "setup_s": statistics.median(res["setup_times"]),
                   "peak_rss_mb": _peak_rss_mib()}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        counts_repeat = None
    result = {"correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return {
        "result": result, "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "loop": "closed, 1 client", "operation": wl.op,
        "params": wl.p, "environment": environment(),
        "round_walls_s": res["walls"], "traced_round_walls_s": res["traced_walls"],
        "setup_walls_s": res["setup_times"], "failed_frac": failed / attempted,
        "reference": statuses, "problems": problems[:50],
        "counts_repeat": counts_repeat,
        "outputs": [o.summary for o, _ in res["outcomes"]][:1],
        "spans": {"setup": setup_tracer.spans,
                  "rounds": [tr.spans for tr in res["tracers"]]},
    }


def report(rec: dict) -> list[str]:
    """Human-readable lines, one metric per line with its unit."""
    res, walls = rec["result"], rec["round_walls_s"]
    lines = [f"{rec['workload']}: seed {rec['seed']}, {len(walls)} untraced + "
             f"{len(rec['traced_round_walls_s'])} traced rounds, {rec['loop']}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'round wall min/median/max':32s} {min(walls):.4g} / "
                 f"{statistics.median(walls):.4g} / {max(walls):.4g} s "
                 f"({len(walls)} rounds)")
    lines.append(f"  {'failed_frac':32s} {rec['failed_frac']:.6g} "
                 f"({res['failed']} of {res['attempted']} {rec['operation']} failed)")
    if rec["counts_repeat"] is not None:
        lines.append(f"  counts repeat exactly between traced rounds: {rec['counts_repeat']}")
    lines.append(f"  reference outputs: {', '.join(rec['reference'])}; "
                 f"correct: {res['correct']}")
    lines.extend(f"  problem: {p}" for p in rec["problems"][:10])
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, default=float) + "\n")
    for line in report(rec):
        print(line)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(rec["result"]), flush=True)
    return 0
