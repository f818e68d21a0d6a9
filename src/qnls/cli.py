"""Experiment orchestration: subcommand dispatch, seeded reproducibility,
manifest and artifact persistence.

Exit codes: 0 success, 2 assertion failure inside a run, 3 budget guard,
4 configuration error.  Each command checks its parameters before the
computations that use them, through the check functions of the library's
entry points (a BudgetError there exits 3); a ValueError raised inside a
computation is a fault of the library and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, dynamics, flows, nf, resonance, sturm, svgplot
from .errors import BudgetError, ConfigError, check_positive
from .poly import HomPoly, ModeSet, build_p6, build_z2, poly_to_json
from .spectral import freqs_conv

EXIT_OK, EXIT_ASSERT, EXIT_BUDGET, EXIT_CONFIG = 0, 2, 3, 4
# characters of a polynomial's JSON text handed to the file per write
_SLICE = 1 << 16


def _write_json(path: Path, obj):
    """Write obj as json.dump(obj, indent=2, sort_keys=True) and a newline
    would, streamed to the file; a HomPoly is written by poly_to_json."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        _dump(obj, fh.write, 0)
        fh.write("\n")


def _dump(obj, write, level: int):
    """Write obj (string keys only) nested level levels deep; the text of the
    whole document is never held at once."""
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, HomPoly):
        text = poly_to_json(obj, level)
        # in slices: the file encodes each write into a bytes copy of it
        for i in range(0, len(text), _SLICE):
            write(text[i:i + _SLICE])
    elif isinstance(obj, dict) and obj:
        for i, key in enumerate(sorted(obj)):
            write(("," if i else "{") + inner + json.dumps(key) + ": ")
            _dump(obj[key], write, level + 1)
        write(outer + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            write(("," if i else "[") + inner)
            _dump(item, write, level + 1)
        write(outer + "]")
    else:
        write(json.dumps(obj))


def _manifest(out: Path, args: argparse.Namespace, outputs: list[str]):
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    _write_json(out / "manifest.json", {
        "artifact": "qnls", "version": __version__,
        "config": resolved, "outputs": outputs,
    })


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc


@contextmanager
def _parameters():
    """Scope of a command's parameter checks: a ValueError raised here is a
    configuration error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _add_system(p: argparse.ArgumentParser, *flags: str):
    """Declare on p the flags _system reads besides --modes and --seed, or the
    named ones of them (certify and sturm take --s-star, strichartz --c6)."""
    specs = {"--potential": dict(type=str), "--s-star": dict(type=float, default=1.0),
             "--sigma": dict(type=int, default=1, choices=[1, -1]),
             "--c6": dict(type=float, default=1.0)}
    for flag in flags or specs:
        p.add_argument(flag, **specs[flag])


def _system(args):
    """Window, frequencies, Z2 and P6 of the truncated system on --modes."""
    with _parameters():
        ms = ModeSet.symmetric(args.modes)
        if args.potential:
            doc = _read_json(args.potential, "potential")
            if isinstance(doc, dict) and "V" not in doc:
                raise ConfigError('potential file holds an object without "V"')
            V = np.asarray(doc["V"] if isinstance(doc, dict) else doc, dtype=float)
        else:
            V = resonance.sample_conv_potential(args.s_star, args.modes, args.seed)
        omega = freqs_conv(V, ms)
        p6 = build_p6(ms, args.sigma, args.c6)
    return ms, omega, build_z2(ms, omega), p6


# ----------------------------------------------------------------- commands


def cmd_plan(args, out: Path) -> int:
    with _parameters():
        plan = dynamics.plan_parameters(args.eps, args.nu, args.alpha, beta_s=args.beta_s,
                                        rho=args.rho, kappa=args.kappa, c=args.c, k=args.k)
    _write_json(out / "plan.json", plan.to_dict())
    _manifest(out, args, ["plan.json"])
    print(f"plan: r={plan.r} gamma={plan.gamma:.3e} M={plan.M} "
          f"T_eps={plan.T_eps:.4g} feasible={plan.feasible}")
    return EXIT_OK if plan.feasible else EXIT_ASSERT


def cmd_certify(args, out: Path) -> int:
    with _parameters():
        window = ModeSet.symmetric(args.hmax)
        V = (np.zeros(window.size) if args.free
             else resonance.sample_conv_potential(args.s_star, args.hmax, args.seed))
        omega = freqs_conv(V, window)
        bounds = resonance.NRBounds(args.qmax, args.m1max, args.hmax)
        resonance.check_certificate(omega, bounds, args.kind, args.alpha, args.s_star)
    if args.kind == "strong":
        cert = resonance.certify_strong(omega, bounds, alpha=args.alpha)
    else:
        cert = resonance.certify_weak(omega, bounds, s_star=args.s_star)
    _write_json(out / "cert.json", cert.to_dict())
    _manifest(out, args, ["cert.json"])
    name = "rho" if args.kind == "strong" else "gamma"
    print(f"certify[{args.kind}]: {name}_fit={cert.fitted:.6g} "
          f"violations={len(cert.violations)} checked={cert.n_checked}")
    for v in cert.violations[:10]:
        print(f"  exact zero: m={v['m']} h={v['h']} a={v['a']}")
    return EXIT_ASSERT if cert.violations else EXIT_OK


def cmd_sturm(args, out: Path) -> int:
    with _parameters():
        sturm.check_basis(args.nmax)
        W = resonance.sample_mult_potential(args.s_star, 4 * args.nmax, args.seed)
    basis = sturm.dirichlet_eig(W, n_max=args.nmax)
    c_est = sturm.verify_ev_asymptotics(basis)
    decay = sturm.verify_ef_decay(basis)
    _write_json(out / "basis.json", {
        "lambdas": basis.lambdas.tolist(),
        "sine_coefficients": basis.eigvecs.tolist(),
        "W_cosine": basis.W_hat.tolist(),
        "avg_W": basis.avg_W,
        "ev_asymptotics_constant": c_est,
        "ef_decay": decay,
        "gram_defect": basis.gram_defect(),
    })
    _manifest(out, args, ["basis.json"])
    print(f"sturm: n_max={args.nmax} C_est={c_est:.6g} "
          f"ef_decay_C={decay['C_fit']:.6g} gram={basis.gram_defect():.2e}")
    return EXIT_OK


def _nf_config(args, ms, omega, **kw) -> nf.NormalFormConfig:
    """The NormalFormConfig of --order, --gamma, --j-max and --seed, its fields
    checked before the gamma scan that a missing --gamma runs."""
    with _parameters():
        cfg = nf.NormalFormConfig(r=args.order, gamma=1.0 if args.gamma is None else args.gamma,
                                  J_max=args.j_max, seed=args.seed, **kw)
    if args.gamma is None:
        cfg = replace(cfg, gamma=nf.suggest_gamma(ms, omega, k=args.k, r=args.order))
    return cfg


def cmd_normal_form(args, out: Path) -> int:
    ms, omega, z2, p6 = _system(args)
    cfg = _nf_config(args, ms, omega, norm_multistart=args.multistart)
    result = nf.birkhoff(z2, p6, omega, cfg)
    doc = {
        "eps_r": result.eps_r,
        "gamma": cfg.gamma,
        "norm_p": result.norm_p.to_dict() | {"witness": None},
        "tail_report": [vars(e) for e in result.tail_report],
        "truncated_degrees": result.truncated_degrees,
        "generators": result.generators,
        "resonant": {str(2 * j): Q for j, Q in result.resonant.items()},
    }
    _write_json(out / "normal_form.json", doc)
    _manifest(out, args, ["normal_form.json"])
    print(f"normal-form: M={args.modes} r={args.order} gamma={cfg.gamma:.3e} "
          f"eps_r={result.eps_r:.4g} tail_ok={result.tail_ok} "
          f"truncated={result.truncated_degrees}")
    return EXIT_OK if result.tail_ok else EXIT_ASSERT


def cmd_simulate(args, out: Path) -> int:
    ms, omega, z2, p6 = _system(args)
    with _parameters():
        check_positive(eps=args.eps)
        flows.check_time(args.T, args.dt)
    rng = np.random.default_rng(args.seed)
    u0 = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    u0 *= args.eps / np.linalg.norm(u0)
    traj = dynamics.integrate(z2, p6, u0, args.T, args.dt)
    traj.to_csv(out / "trajectory.csv")
    _manifest(out, args, ["trajectory.csv"])
    print(f"simulate: T={args.T} dt={args.dt} samples={traj.times.size} "
          f"norm_drift={traj.norm_drift():.2e} energy_drift={traj.energy_drift():.2e}")
    return EXIT_OK


def cmd_drift(args, out: Path) -> int:
    ms, omega, z2, p6 = _system(args)
    with _parameters():
        eps_list = [float(x) for x in str(args.eps_list).split(",")]
        dynamics.check_drift(ms, args.k, eps_list, args.T, args.dt)
    # drift.json reads only the upper bound of ||P||_H, through eps_r
    cfg = _nf_config(args, ms, omega, norm_lower_levels=0)
    report = nf.check_krgamma(ms, omega, args.k, args.order, cfg.gamma)
    if not report.certified:
        print(f"drift: (k={args.k}, r={args.order}, gamma={cfg.gamma:.3e}) "
              f"is resonant; {report.n_violations} offending pairs")
        return EXIT_ASSERT
    result = nf.birkhoff(z2, p6, omega, cfg)
    drift = dynamics.action_drift(result, z2, p6, args.k, eps_list, args.T,
                                  args.dt, seed=args.seed)
    doc = {
        "gamma": cfg.gamma, "eps_r": result.eps_r, "exponent": drift.exponent,
        "transformed_no_worse": drift.transformed_no_worse,
        "rows": [vars(r) for r in drift.rows],
    }
    _write_json(out / "drift.json", doc)
    outputs = ["drift.json"]
    if args.svg:
        eps = [r.eps for r in drift.rows]
        series = {"raw": (eps, [r.drift_raw for r in drift.rows])}
        if all(r.drift_transformed is not None for r in drift.rows):
            series["transformed"] = (eps, [r.drift_transformed for r in drift.rows])
        svgplot.line_plot(out / "drift.svg", series, title="action drift",
                          xlabel="log10 eps", ylabel="log10 drift")
        outputs.append("drift.svg")
    _manifest(out, args, outputs)
    print(f"drift: exponent={drift.exponent:.3f} "
          f"transformed_no_worse={drift.transformed_no_worse}")
    return EXIT_OK


def cmd_strichartz(args, out: Path) -> int:
    with _parameters():
        m_list = [int(x) for x in str(args.m_list).split(",")]
        dynamics.check_scan(m_list, args.c6, args.multistart)
    scan = dynamics.strichartz_scan(m_list, c6=args.c6, multistart=args.multistart,
                                    seed=args.seed)
    doc = {
        "rows": [vars(r) for r in scan.rows],
        "exponents": scan.exponents,
        "monotone": scan.monotone(),
    }
    _write_json(out / "strichartz.json", doc)
    outputs = ["strichartz.json"]
    if args.svg:
        svgplot.line_plot(out / "strichartz.svg",
                          {"S(M)": ([r.M for r in scan.rows], [r.lower for r in scan.rows])},
                          title="Strichartz constant scan", xlabel="log10 M",
                          ylabel="log10 S")
        outputs.append("strichartz.svg")
    _manifest(out, args, outputs)
    print(f"strichartz: S={[round(r.lower, 6) for r in scan.rows]} "
          f"exponents={[round(e, 4) for e in scan.exponents]}")
    return EXIT_OK


# --------------------------------------------------------------------- main


def build_parser(required: bool = True) -> argparse.ArgumentParser:
    """The command-line parser; with required=False no flag is required."""
    ap = argparse.ArgumentParser(prog="qnls", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="resolve experiment parameters from the scaling recipe")
    p.add_argument("--eps", type=float, required=required)
    p.add_argument("--nu", type=float, required=required)
    p.add_argument("--alpha", type=float, required=required)
    p.add_argument("--beta-s", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("certify", help="fit a non-resonance constant over a finite window")
    p.add_argument("--kind", choices=["weak", "strong"], default="strong")
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--qmax", type=int, default=3)
    p.add_argument("--m1max", type=int, default=4)
    p.add_argument("--hmax", type=int, default=20)
    _add_system(p, "--s-star")
    p.add_argument("--free", action="store_true", help="use the unperturbed frequencies k^2")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sturm", help="Dirichlet eigenbasis of a sampled even potential")
    _add_system(p, "--s-star")
    p.add_argument("--nmax", type=int, default=50)
    p.set_defaults(func=cmd_sturm, s_star=2.0)

    p = sub.add_parser("normal-form", help="Birkhoff normal form of the truncated system")
    p.add_argument("--modes", type=int, required=required)
    p.add_argument("--order", type=int, required=required)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--j-max", type=int, default=None)
    p.add_argument("--multistart", type=int, default=16,
                   help="ascent restarts per norm enclosure")
    p.add_argument("--k", type=int, default=1)
    _add_system(p)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("simulate", help="integrate the truncated flow, stream CSV")
    p.add_argument("--modes", type=int, required=required)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--T", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=0.01)
    _add_system(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("drift", help="action-drift scaling experiment")
    p.add_argument("--modes", type=int, default=5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--j-max", type=int, default=None)
    p.add_argument("--eps-list", type=str, default="0.1,0.07,0.05")
    p.add_argument("--T", type=float, default=1000.0)
    p.add_argument("--dt", type=float, default=0.002)
    _add_system(p)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("strichartz", help="scan the sextic level-sup norm over windows")
    p.add_argument("--m-list", type=str, default="1,2,4,8,16")
    p.add_argument("--multistart", type=int, default=48)
    _add_system(p, "--c6")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_strichartz)

    for name, sp in sub.choices.items():
        sp.add_argument("--config", type=str, help="JSON file of flag values")
        sp.add_argument("--out", type=str, default="runs/latest")
        if name != "plan":      # the planner draws nothing
            sp.add_argument("--seed", type=int, default=0)
    return ap


def _parse(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    try:
        return ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:       # --help
            raise
        raise ConfigError("invalid command line (see usage above)") from exc


def _parse_with_config(argv: list[str]) -> argparse.Namespace:
    """Parse argv; each field of a --config file becomes a --flag=value token
    after the subcommand and before argv's flags, so argparse checks it as a
    typed flag and an explicit flag wins in every spelling (--eps 1, --ep 1).
    Switches take true or false, null keeps a default, and a manifest's
    command field may name the subcommand.  The first pass requires no flag."""
    args = _parse(build_parser(required=False), argv)
    fields = _read_json(args.config, "config") if args.config else {}
    if not isinstance(fields, dict):
        raise ConfigError("config file must hold a JSON object")
    known, tokens = vars(args).keys() - {"command", "func", "config"}, []
    for key, val in fields.items():
        dest = key.replace("-", "_")
        if key == "command" and val == args.command or val is None and dest in known:
            continue
        if dest not in known:
            raise ConfigError(f"unknown config field: {key}")
        switch = isinstance(getattr(args, dest), bool)      # a store_true flag
        if switch != isinstance(val, bool) or isinstance(val, (list, dict)):
            raise ConfigError(f"config field {key} must be "
                              + ("true or false" if switch else "a number or a string"))
        if val is not False:        # every flag is spelled -- and its dest
            flag = "--" + dest.replace("_", "-")
            tokens.append(flag if switch else f"{flag}={val}")
    at = argv.index(args.command) + 1
    return _parse(build_parser(), argv[:at] + tokens + argv[at:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_with_config(argv)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssertionError, ArithmeticError, flows.FlowConvergenceError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())
