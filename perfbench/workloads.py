"""The benchmark workloads: seeded inputs, one round of work, output gates.

Each workload stresses a different layer and uses ``qnls.poly`` differently:

* ``drift`` evaluates stored polynomials many times: the action-drift sweep
  of acceptance criterion 10 (integrate + transform_state) on a shortened
  horizon, after a set-up of certificate, gamma check and normal form.
* ``normal_form`` builds new polynomials through Poisson brackets: the
  ``qnls normal-form`` subcommand, in process, with no time integration.
* ``strichartz`` builds one large sextic and its array cache and runs norm
  ascents on it: the ``qnls strichartz`` subcommand, in process.

A round is one closed-loop unit of work (one sweep, one normal form, one
scan); it counts as several operations for the failure fraction (one per
trajectory, per normal form, per window M).  Library calls go through
module attributes (``nf.birkhoff``, ``cli.main``) so that a tracing probe
installed on those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from qnls import cli, dynamics, nf, poly, resonance
from qnls.errors import BudgetError
from qnls.flows import FlowConvergenceError
from qnls.poly import ModeSet, build_z2
from qnls.spectral import freqs_conv

# exceptions that fail an operation instead of aborting the benchmark
FAILURES = (FlowConvergenceError, BudgetError, AssertionError, ArithmeticError)


@dataclass
class Outcome:
    """Result of one round: operations attempted and failed, the gate
    messages, and the scientific outputs compared against the reference."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    summary: dict | None = None


def compare(got, ref, rtol: float, path: str = "") -> list[str]:
    """Differences between two output summaries: numbers within rtol of the
    reference, everything else exactly equal."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(got) != set(ref):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in compare(got[k], ref[k], rtol, f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (g, r) in enumerate(zip(got, ref))
                for d in compare(g, r, rtol, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - ref) <= rtol * abs(ref):
            return []
        return [f"{path}: {got!r} != {ref!r} (rtol {rtol:g})"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def _run_cli(argv: list[str]) -> int:
    """``qnls`` in process, its summary line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name: str
    op: str                 # what one operation is, plural
    rtol: float             # same-answer tolerance against the reference
    defaults: dict

    def __init__(self, **params):
        self.p = {**self.defaults, **params}


# ---------------------------------------------------------------------- drift


class Drift(Workload):
    name = "drift"
    op = "trajectories"
    # same-answer tolerance: a different midpoint solver moves the transformed
    # drift (~1e-11 at eps=0.05) by rounding-level changes of the state
    rtol = 1e-4
    defaults = dict(M=5, potential_seed=2, s_star=1.0, nr_bounds=[3, 4, 5],
                    alpha=0.4, k=1, r=3, J_max=4, norm_lower_levels=1, nf_seed=0,
                    eps=[0.1, 0.07, 0.05], T=10.0, dt=0.005, max_samples=10,
                    min_exponent=5.5, max_norm_drift=1e-10)

    def setup(self, seed: int) -> dict:
        p = self.p
        ms = ModeSet.symmetric(p["M"])
        V = resonance.sample_conv_potential(p["s_star"], p["M"], p["potential_seed"])
        fs = freqs_conv(V, ms)
        cert = resonance.certify_strong(fs, resonance.NRBounds(*p["nr_bounds"]),
                                        alpha=p["alpha"])
        z2, p6 = build_z2(ms, fs), poly.build_p6(ms)
        gamma = nf.suggest_gamma(ms, fs, k=p["k"], r=p["r"], scope="all")
        rep = nf.check_krgamma(ms, fs, k=p["k"], r=p["r"], gamma=gamma)
        cfg = nf.NormalFormConfig(r=p["r"], gamma=gamma, J_max=p["J_max"],
                                  seed=p["nf_seed"],
                                  norm_lower_levels=p["norm_lower_levels"])
        result = nf.birkhoff(z2, p6, fs, cfg)
        return dict(seed=seed, z2=z2, p6=p6, result=result, certified=rep.certified,
                    setup_summary={
                        "rho": cert.fitted, "gamma": gamma, "eps_r": result.eps_r,
                        "generator_keys": [len(g.coeffs) for g in result.generators]})

    def round(self, inp: dict, workdir: Path) -> Outcome:
        p = self.p
        out = Outcome(attempted=len(p["eps"]))
        if not (inp["setup_summary"]["rho"] > 0 and inp["certified"]):
            out.failed = out.attempted
            out.problems.append("set-up not certified non-resonant")
            return out
        try:
            d = dynamics.action_drift(inp["result"], inp["z2"], inp["p6"], p["k"],
                                      p["eps"], p["T"], p["dt"], seed=inp["seed"],
                                      max_samples=p["max_samples"])
        except FAILURES as exc:
            out.failed = out.attempted
            out.problems.append(f"{type(exc).__name__}: {exc}")
            return out
        bad = set()
        for i, r in enumerate(d.rows):
            if not r.norm_drift <= p["max_norm_drift"]:
                bad.add(i)
                out.problems.append(f"eps={r.eps}: norm_drift {r.norm_drift:.3e}")
            if r.drift_transformed is None or r.drift_transformed > r.drift_raw:
                bad.add(i)
                out.problems.append(f"eps={r.eps}: transformed action drifts more")
        if not d.exponent >= p["min_exponent"]:
            bad.update(range(len(d.rows)))
            out.problems.append(f"exponent {d.exponent:.4f} < {p['min_exponent']}")
        out.failed = len(bad)
        out.summary = {"setup": inp["setup_summary"], "exponent": d.exponent,
                       "rows": [[r.eps, r.drift_raw, r.drift_transformed] for r in d.rows]}
        return out


# ---------------------------------------------------------------- normal form


class NormalForm(Workload):
    name = "normal_form"
    op = "normal forms"
    rtol = 1e-9
    defaults = dict(modes=3, order=5, j_max=6, s_star=1.0, k=1)

    def setup(self, seed: int) -> dict:
        p = self.p
        ms = ModeSet.symmetric(p["modes"])
        V = resonance.sample_conv_potential(p["s_star"], p["modes"], seed)
        argv = ["normal-form", "--modes", str(p["modes"]), "--order", str(p["order"]),
                "--j-max", str(p["j_max"]), "--k", str(p["k"]),
                "--s-star", str(p["s_star"]), "--seed", str(seed)]
        return dict(argv=argv, omega=freqs_conv(V, ms))

    def round(self, inp: dict, workdir: Path) -> Outcome:
        out = Outcome(attempted=1, failed=1)
        rc = _run_cli(inp["argv"] + ["--out", str(workdir)])
        if rc != 0:
            out.problems.append(f"qnls normal-form exited with {rc}")
            return out
        doc = json.loads((workdir / "normal_form.json").read_text())
        w = {m: inp["omega"].value(m) for m in inp["omega"].mode_set.modes}
        gamma = doc["gamma"]
        for deg, Q in doc["resonant"].items():
            if int(deg) // 2 > self.p["order"]:
                continue
            for e in Q["entries"]:
                div = sum(w[m] for m in e["k"]) - sum(w[m] for m in e["l"])
                if abs(div) >= gamma:
                    out.problems.append(f"degree {deg} keeps key {e['k']},{e['l']} "
                                        f"with divisor {div:.3e} >= gamma")
                    break
        tail_ok = not any(t["violated"] for t in doc["tail_report"])
        if not tail_ok:
            out.problems.append("tail report violated")
        if not out.problems:
            out.failed = 0
        out.summary = {
            "gamma": gamma, "eps_r": doc["eps_r"], "tail_ok": tail_ok,
            "truncated": doc["truncated_degrees"],
            "generator_keys": [len(g["entries"]) for g in doc["generators"]],
            "resonant_keys": {d: len(Q["entries"]) for d, Q in sorted(doc["resonant"].items())},
            "tail_margins": [t["bound"] / t["norm_upper"] for t in doc["tail_report"]],
        }
        return out


# ----------------------------------------------------------------- strichartz


class Strichartz(Workload):
    name = "strichartz"
    op = "windows M"
    rtol = 1e-8
    defaults = dict(m_list=[1, 2, 4, 8], multistart=48)

    def setup(self, seed: int) -> dict:
        p = self.p
        return dict(argv=["strichartz", "--m-list", ",".join(map(str, p["m_list"])),
                          "--multistart", str(p["multistart"]), "--seed", str(seed)])

    def round(self, inp: dict, workdir: Path) -> Outcome:
        n = len(self.p["m_list"])
        out = Outcome(attempted=n)
        rc = _run_cli(inp["argv"] + ["--out", str(workdir)])
        if rc != 0:
            out.failed = n
            out.problems.append(f"qnls strichartz exited with {rc}")
            return out
        doc = json.loads((workdir / "strichartz.json").read_text())
        rows = doc["rows"]
        for i in range(1, len(rows)):
            if rows[i]["lower"] < rows[i - 1]["lower"]:
                out.failed += 1
                out.problems.append(f"S(M) decreases at M={rows[i]['M']}")
        out.summary = {
            "rows": [[r["M"], r["lower"], r["upper"], r["dominant_level"]] for r in rows],
            "exponents": doc["exponents"]}
        return out


WORKLOADS = {w.name: w for w in (Drift, NormalForm, Strichartz)}


def check_reference(wl, seed: int, out: Outcome, reference: dict) -> str:
    """Compare a round's outputs with ``reference[str(seed)]``, the outputs
    recorded for this seed.

    A mismatch fails every operation of the round and returns "mismatch";
    otherwise returns "match" or "not recorded".
    """
    ref = reference.get(str(seed))
    if ref is None or out.summary is None:
        return "not recorded" if ref is None else "no outputs"
    diffs = compare(json.loads(json.dumps(out.summary)), ref, wl.rtol)
    if not diffs:
        return "match"
    out.failed = out.attempted
    out.problems.extend(f"reference{d}" for d in diffs[:5])
    return "mismatch"
