import argparse
import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qnls import dynamics, nf, resonance, spectral, sturm
from qnls.errors import BudgetError, check_positive
from qnls.poly import ModeSet, build_p6, build_z2
from qnls.cli import (EXIT_ASSERT, EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, _parse_with_config,
                      build_parser, main)


def run(tmp_path, *argv):
    """Run the CLI into tmp_path/run; every JSON artifact it writes must be in
    the one canonical form: sorted keys, two-space indent, a final newline."""
    out = tmp_path / "run"
    code = main([*argv, "--out", str(out)])
    for path in out.glob("*.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path
    return code, out


def test_plan_json(tmp_path):
    code, out = run(tmp_path, "plan", "--eps", "1e-2", "--nu", "1", "--alpha", "1")
    doc = json.loads((out / "plan.json").read_text())
    assert doc["upsilon"] == pytest.approx(3.112e-3, rel=1e-3)
    # the requested eps is far above eta_r: flagged, not clamped
    assert doc["feasible"] is False and code == EXIT_ASSERT
    assert "s" not in doc
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eps"] == 1e-2 and "seed" not in manifest["config"]
    assert "plan.json" in manifest["outputs"]


def test_certify_free_rejected(tmp_path):
    code, out = run(tmp_path, "certify", "--kind", "strong", "--free",
                    "--hmax", "8")
    assert code == EXIT_ASSERT
    doc = json.loads((out / "cert.json").read_text())
    assert doc["fitted"] == 0.0
    assert any(sorted(v["h"]) == [1, 5, 7] for v in doc["violations"])


def test_certify_seeded_deterministic(tmp_path):
    code1, out1 = run(tmp_path / "a", "certify", "--seed", "7", "--hmax", "12")
    code2, out2 = run(tmp_path / "b", "certify", "--seed", "7", "--hmax", "12")
    assert code1 == code2 == EXIT_OK
    assert (out1 / "cert.json").read_text() == (out2 / "cert.json").read_text()
    doc = json.loads((out1 / "cert.json").read_text())
    assert doc["fitted"] > 0


def test_simulate_csv(tmp_path):
    code, out = run(tmp_path, "simulate", "--modes", "2", "--T", "2",
                    "--dt", "0.01", "--eps", "0.1")
    assert code == EXIT_OK
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,norm_sq,H,I_-2")


def test_normal_form_artifacts(tmp_path):
    code, out = run(tmp_path, "normal-form", "--modes", "1", "--order", "3",
                    "--gamma", "0.5", "--j-max", "5", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads((out / "normal_form.json").read_text())
    assert doc["eps_r"] > 0
    assert all(not e["violated"] for e in doc["tail_report"])
    assert doc["resonant"]["6"]["degree"] == 6


@pytest.mark.parametrize("c6, code", [("1e100", EXIT_OK), ("1e150", EXIT_OK),
                                      ("1e200", EXIT_ASSERT)])
def test_large_c6_fails_explicitly(tmp_path, capsys, c6, code):
    # the normal form raises on overflow and invalid arithmetic rather than
    # warning: at c6 = 1e200 its norm ascent overflows, and the run exits 2
    # with no warning and no artifact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out = run(tmp_path, "normal-form", "--modes", "1", "--order", "3", "--c6", c6)
    assert got == code
    assert (out / "normal_form.json").exists() == (code == EXIT_OK)
    if code == EXIT_ASSERT:
        assert capsys.readouterr().err.startswith("run failed: overflow encountered")


def test_strichartz_small(tmp_path):
    code, out = run(tmp_path, "strichartz", "--m-list", "1,2", "--multistart",
                    "16", "--svg")
    assert code == EXIT_OK
    doc = json.loads((out / "strichartz.json").read_text())
    assert doc["monotone"] is True
    assert (out / "strichartz.svg").read_text().startswith("<svg")


def test_sturm_cli(tmp_path):
    code, out = run(tmp_path, "sturm", "--nmax", "12", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads((out / "basis.json").read_text())
    assert len(doc["lambdas"]) == 12
    assert doc["gram_defect"] < 1e-10
    assert set(doc["ef_decay"]) == {"C_fit", "argmax"}


def test_drift_quick(tmp_path):
    code, out = run(tmp_path, "drift", "--modes", "2", "--k", "1", "--order", "3",
                    "--eps-list", "0.1,0.05", "--T", "5", "--dt", "0.01",
                    "--seed", "2", "--svg")
    assert code == EXIT_OK
    doc = json.loads((out / "drift.json").read_text())
    assert len(doc["rows"]) == 2
    assert all(set(r) == {"eps", "drift_raw", "drift_transformed", "norm_drift"}
               for r in doc["rows"])
    assert (out / "drift.svg").exists()


def test_normal_form_takes_a_k_outside_the_window(tmp_path):
    # the gamma scan does not depend on k, so normal-form refuses none
    code, _ = run(tmp_path, "normal-form", "--modes", "2", "--order", "4", "--j-max", "5",
                  "--k", "-7")
    assert code == EXIT_OK


def test_drift_runs_no_lower_bound_ascent(tmp_path, monkeypatch):
    # drift.json reads only the upper bound of ||P||_H, through eps_r: the
    # command ascends no level, and writes the file that the ascent of every
    # level would give
    argv = ["drift", "--modes", "2", "--T", "0.1"]

    def ascent(*args):
        raise AssertionError("the drift command ran a lower-bound ascent")

    with monkeypatch.context() as m:
        m.setattr(spectral, "_posy_ascent", ascent)
        assert main([*argv, "--out", str(tmp_path / "a")]) == EXIT_OK
    birkhoff = nf.birkhoff
    monkeypatch.setattr(nf, "birkhoff", lambda z2, p6, omega, cfg: birkhoff(
        z2, p6, omega, replace(cfg, norm_lower_levels="all")))
    assert main([*argv, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert ((tmp_path / "a" / "drift.json").read_bytes()
            == (tmp_path / "b" / "drift.json").read_bytes())


def test_drift_resonant_counts_every_offending_pair(tmp_path, capsys):
    # the report lists 200 of the 394 offending pairs; the CLI prints the total
    code, _ = run(tmp_path, "drift", "--modes", "3", "--k", "1", "--order", "3",
                  "--gamma", "1.0", "--seed", "0")
    assert code == EXIT_ASSERT
    assert "394 offending pairs" in capsys.readouterr().out


def test_config_file_and_errors(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.05, "nu": 1.0, "alpha": 1.0}))
    code = main(["plan", "--eps", "1e-3", "--nu", "1", "--alpha", "1",
                 "--config", str(cfg), "--out", str(tmp_path / "r1")])
    doc = json.loads((tmp_path / "r1" / "plan.json").read_text())
    assert doc["eps"] == 1e-3  # explicit flag wins over the config file
    assert doc["nu"] == 1.0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plan", "--eps", "0.1", "--nu", "1", "--alpha", "1",
                 "--config", str(bad), "--out", str(tmp_path / "r2")]) == EXIT_CONFIG
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"no_such_field": 1}))
    assert main(["plan", "--eps", "0.1", "--nu", "1", "--alpha", "1",
                 "--config", str(unknown), "--out", str(tmp_path / "r3")]) == EXIT_CONFIG


@pytest.mark.parametrize("spelling", [["--eps=0.01"], ["--ep", "0.01"]])
def test_explicit_flag_beats_config_in_every_spelling(tmp_path, spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.5, "kappa": 2.0}))
    _, out = run(tmp_path, "plan", *spelling, "--nu", "1", "--alpha", "1",
                    "--config", str(cfg))
    doc = json.loads((out / "plan.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert doc["eps"] == manifest["config"]["eps"] == 0.01
    assert doc["kappa"] == manifest["config"]["kappa"] == 2.0   # from the file


@pytest.mark.parametrize("command,required,rest,artifact", [
    ("plan", {"eps": 0.01, "nu": 1.0, "alpha": 1.0}, [], "plan.json"),
    ("normal-form", {"modes": 1, "order": 3}, ["--gamma", "0.5", "--j-max", "5"],
     "normal_form.json"),
    ("simulate", {"modes": 2}, ["--T", "2", "--dt", "0.01"], "trajectory.csv"),
], ids=["plan", "normal-form", "simulate"])
def test_config_supplies_required_flags(tmp_path, capsys, command, required, rest, artifact):
    flags = [x for key, val in required.items() for x in (f"--{key}", str(val))]
    code, by_flags = run(tmp_path / "flags", command, *flags, *rest)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(required))
    code_file, by_file = run(tmp_path / "file", command, *rest, "--config", str(cfg))
    assert code_file == code
    assert (by_file / artifact).read_bytes() == (by_flags / artifact).read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (by_flags, by_file)]
    for m in manifests:
        del m["config"]["out"]
    assert manifests[0] == manifests[1]
    # a file that leaves one out still exits 4 and names it
    last = list(required)[-1]
    cfg.write_text(json.dumps({k: v for k, v in required.items() if k != last}))
    capsys.readouterr()
    assert run(tmp_path / "short", command, *rest, "--config", str(cfg))[0] == EXIT_CONFIG
    assert f"--{last}" in capsys.readouterr().err


def test_invalid_potential_file(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"V": [0.0, 0.0]}))  # wrong length for M=2
    code = main(["simulate", "--modes", "2", "--T", "1", "--dt", "0.01",
                 "--potential", str(pot), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("doc", [None, {"W": [0.0] * 5}], ids=["missing", "no-V"])
def test_bad_potential_file_exits_config(tmp_path, capsys, doc):
    pot = tmp_path / "pot.json"
    if doc is not None:
        pot.write_text(json.dumps(doc))
    code = main(["simulate", "--modes", "2", "--T", "1", "--dt", "0.01",
                 "--potential", str(pot), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    assert "potential file" in capsys.readouterr().err


def test_budget_exit(tmp_path):
    code = main(["strichartz", "--m-list", "64", "--out", str(tmp_path / "r")])
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("argv", [["normal-form", "--modes", "1", "--order", "3"],
                                  ["drift", "--modes", "1", "--order", "3", "--T", "1"]])
def test_suggest_gamma_budget_exit(tmp_path, monkeypatch, argv):
    # the gamma scan stops at the shared pair budget: 9 + 36 pairs by q = 2 on 3 modes
    monkeypatch.setattr(nf, "_MAX_PAIRS", 40)
    assert main([*argv, "--out", str(tmp_path / "r")]) == EXIT_BUDGET


_RUNS = {
    "plan": ["--eps", "1e-2", "--nu", "1", "--alpha", "1", "--kappa", "2"],
    "certify": ["--seed", "5", "--hmax", "10"],
    "sturm": ["--nmax", "12", "--seed", "3"],
    "normal-form": ["--modes", "1", "--order", "3", "--gamma", "0.5", "--j-max", "5",
                    "--sigma", "-1"],
    "simulate": ["--modes", "2", "--T", "2", "--dt", "0.01", "--seed", "3"],
    "drift": ["--modes", "2", "--eps-list", "0.1,0.05", "--T", "1", "--dt", "0.01", "--svg"],
    "strichartz": ["--m-list", "1,2", "--multistart", "16", "--c6", "1.5", "--svg"],
}


def test_manifest_roundtrip(tmp_path):
    # replaying a manifest's config, its command field included, reproduces
    # every artifact bit for bit and the manifest but for its out
    for command, argv in _RUNS.items():
        code, out = run(tmp_path / command / "a", command, *argv)
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = tmp_path / command / "replay.json"
        cfg.write_text(json.dumps({k: v for k, v in manifest["config"].items() if k != "out"}))
        code2, out2 = run(tmp_path / command / "b", command, "--config", str(cfg))
        assert code2 == code, command
        replayed = json.loads((out2 / "manifest.json").read_text())
        assert replayed["config"].pop("out") != manifest["config"].pop("out")
        assert replayed == manifest, command
        for name in manifest["outputs"]:
            assert (out2 / name).read_bytes() == (out / name).read_bytes(), (command, name)


def test_parse_errors_are_config_errors(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == EXIT_CONFIG   # --modes missing
    assert main(["simulate", "--modes", "-1", "--out", str(tmp_path)]) == EXIT_CONFIG
    with pytest.raises(SystemExit):
        main(["--help"])


@pytest.mark.parametrize("argv", [
    ["simulate", "--modes", "-1"],
    ["normal-form", "--modes", "1", "--order", "3", "--gamma", "2"],
    ["normal-form", "--modes", "1", "--order", "1"],                  # r < p - 1
    ["drift", "--modes", "2", "--eps-list", "0.1,abc"],
    ["drift", "--modes", "2", "--k", "9"],
    ["strichartz", "--m-list", "1,two"],
    ["strichartz", "--m-list", "1,-2"],
    ["plan", "--eps", "2", "--nu", "1", "--alpha", "1"],
    ["certify", "--qmax", "0"],
    ["certify", "--alpha", "-1"],
    ["simulate", "--modes", "1", "--dt", "0"],
    ["strichartz", "--m-list", "0,1"],
    ["strichartz", "--m-list", "2,2"],
    ["strichartz", "--m-list", "1,1"],
    ["strichartz", "--m-list", "0"],
    ["drift", "--modes", "2", "--eps-list", "0.1,-0.05", "--T", "1"],
    ["drift", "--modes", "2", "--eps-list", "0.1", "--T", "1"],
    ["drift", "--modes", "2", "--eps-list", "0.1,0.1", "--T", "1"],
    ["simulate", "--modes", "1", "--T", "-1"],
    ["drift", "--modes", "2", "--T", "-1"],
    ["strichartz", "--m-list", "1,2", "--sigma", "-1"],               # deleted flags
    ["certify", "--hmax", "5", "--amax", "1"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--s", "0.5"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--seed", "3"],
])
def test_invalid_parameters_exit_config(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["normal-form", "--modes", "2", "--order", "4", "--c6", "nan"],
    ["normal-form", "--modes", "1", "--order", "3", "--c6", "inf"],
    ["simulate", "--modes", "1", "--c6", "0"],
    ["strichartz", "--m-list", "1,2", "--c6", "0"],
    ["strichartz", "--m-list", "1,2", "--c6", "nan"],
    ["sturm", "--nmax", "0"],
    ["normal-form", "--modes", "1", "--order", "3", "--multistart", "0"],
    ["normal-form", "--modes", "1", "--order", "3", "--multistart", "-3"],
    ["strichartz", "--m-list", "1,2", "--multistart", "0"],
    ["simulate", "--modes", "1", "--eps", "0"],
    ["simulate", "--modes", "1", "--eps", "-0.1"],
    ["simulate", "--modes", "1", "--eps", "nan"],
    ["simulate", "--modes", "1", "--dt", "nan"],
    ["simulate", "--modes", "1", "--T", "nan"],
    ["drift", "--modes", "2", "--T", "nan"],
    ["drift", "--modes", "2", "--eps-list", "0.1,nan"],
    ["certify", "--alpha", "nan"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--beta-s", "0"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--beta-s", "-1"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--beta-s", "nan"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--rho", "nan"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--rho", "0"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--kappa", "nan"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--kappa", "inf"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1", "--c", "nan"],
    ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "nan"],
    ["drift", "--modes", "2", "--T", "0", "--eps-list", "0.1,0.05"],   # all drifts 0
    ["certify", "--kind", "strong", "--qmax", "1"],                   # no zero-sum m
    ["certify", "--kind", "strong", "--m1max", "1"],
    ["certify", "--hmax", "5", "--s-star", "nan"],                    # NaN passes x <= 0
    ["certify", "--hmax", "5", "--s-star", "nan", "--kind", "weak"],
    ["normal-form", "--modes", "1", "--order", "3", "--s-star", "nan"],
    ["sturm", "--nmax", "5", "--s-star", "nan"],
    ["certify", "--hmax", "5", "--s-star", "nan", "--kind", "weak", "--free"],
])
def test_bad_value_is_a_config_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["strichartz", "--m-list", "1,2"], "sigma"),
    (["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1"], "s"),
    (["plan", "--eps", "0.01", "--nu", "1", "--alpha", "1"], "seed"),
])
def test_config_naming_a_deleted_setting_is_unknown(tmp_path, capsys, argv, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: 1}))
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert f"unknown config field: {field}" in capsys.readouterr().err


def test_library_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a fault inside the computation")

    monkeypatch.setattr(nf, "birkhoff", broken)
    with pytest.raises(ValueError, match="inside the computation"):
        main(["normal-form", "--modes", "1", "--order", "3", "--gamma", "0.5",
              "--j-max", "5", "--out", str(tmp_path)])


@pytest.mark.parametrize("argv", [["normal-form", "--modes", "1", "--order", "3"],
                                  ["simulate", "--modes", "1", "--T", "0.1"],
                                  ["drift", "--modes", "1", "--T", "1", "--dt", "0.01"]])
@pytest.mark.parametrize("text", ['{"V": [NaN, 0.0, 0.0]}', "[0.0, Infinity, 0.0]"])
def test_non_finite_potential_file_exits_config(tmp_path, capsys, argv, text):
    pot = tmp_path / "pot.json"
    pot.write_text(text)
    assert main([*argv, "--potential", str(pot), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    ap = build_parser()
    [sub] = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options():
    """(subcommand, action) for every option but --help and --config."""
    return [(name, a) for name, sp in _subcommands().items() for a in sp._actions
            if a.dest not in ("help", "config")]


def test_parser_lint():
    # the config-to-flag translation spells a field's flag as -- and its dest,
    # and takes the fields whose flags store a bool for switches
    switches = set()
    for name, a in _options():
        assert a.option_strings == ["--" + a.dest.replace("_", "-")], (name, a.option_strings)
        assert type(a) in (argparse._StoreAction, argparse._StoreTrueAction), (name, a.dest)
        if isinstance(a, argparse._StoreTrueAction):
            switches.add(a.dest)
    assert switches == {"free", "svg"}


_REQUIRED = {"plan": {"eps": 0.01, "nu": 1.0, "alpha": 1.0},
             "normal-form": {"modes": 1, "order": 3}, "simulate": {"modes": 2}}


def _values(a):
    """A value for the option other than its default, null, and both booleans
    for a switch."""
    if a.nargs == 0:
        return [True, False]
    if a.choices:
        value = next(c for c in a.choices if c != a.default)
    else:
        value = {int: 7, float: 0.1, str: "1,3"}[a.type]
    return [value] if a.required else [value, None]


def _flags(fields: dict) -> list[str]:
    tokens = []
    for key, val in fields.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            tokens += [flag] if val else []
        elif val is not None:
            tokens += [flag, str(val)]
    return tokens


@pytest.mark.parametrize("command,dest,value", [
    pytest.param(name, a.dest, v, id=f"{name}-{a.dest}-{v}")
    for name, a in _options() for v in _values(a)])
def test_config_field_parses_as_its_flag(tmp_path, command, dest, value):
    fields = {**_REQUIRED.get(command, {}), dest: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    by_flags = vars(_parse_with_config([command, *_flags(fields)]))
    by_file = vars(_parse_with_config([command, "--config", str(cfg)]))
    assert by_file.pop("config") == str(cfg) and by_flags.pop("config") is None
    assert by_file == by_flags
    if value is not None:
        assert by_file[dest] == value


@pytest.mark.parametrize("argv,fields", [
    (["simulate", "--T", "0.1"], {"modes": 2.5}),
    (["simulate", "--T", "0.1"], {"modes": True}),
    (["simulate", "--modes", "1", "--T", "0.1"], {"seed": 1.5}),
    (["simulate", "--modes", "1", "--T", "0.1"], {"func": 1}),
    (["normal-form", "--modes", "1"], {"order": 3.7}),
    (["strichartz", "--m-list", "1,2"], {"multistart": 8.5}),
    (["certify", "--hmax", "6"], {"kind": "medium"}),
    (["certify", "--hmax", "6"], {"free": "yes"}),
    (["drift", "--modes", "2", "--T", "1", "--dt", "0.01"], {"svg": "no"}),
    (["certify", "--hmax", "6"], {"command": "sturm"}),
    (["certify", "--hmax", "6"], {"config": None}),
    (["certify", "--hmax", "6"], {"alpha": [0.4]}),
    (["certify", "--hmax", "6"], {"amax": 1}),                    # a deleted flag
])
def test_wrongly_typed_config_field_exits_config(tmp_path, argv, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    out = tmp_path / "r"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def _free(M):
    """z2 and p6 of the free system on [-M, M], for the library calls below."""
    ms = ModeSet.symmetric(M)
    return build_z2(ms, spectral.freqs_conv(np.zeros(ms.size), ms)), build_p6(ms)


def _integrate(T, dt, M=1):
    z2, p6 = _free(M)
    dynamics.integrate(z2, p6, np.full(2 * M + 1, 0.1 + 0j), T, dt)


def _drift(M=5, k=1, T=1000.0, dt=0.002, eps_list=(0.1, 0.07, 0.05)):
    z2, p6 = _free(M)
    dynamics.action_drift(None, z2, p6, k, eps_list, T, dt)


def _certify(kind, free=False, **kw):
    window = ModeSet.symmetric(20)
    V = np.zeros(window.size) if free else resonance.sample_conv_potential(1.0, 20, 0)
    omega = spectral.freqs_conv(V, window)
    bounds = resonance.NRBounds(kw.pop("qmax", 3), 4, 20)
    getattr(resonance, f"certify_{kind}")(omega, bounds, **kw)


# one row per input rule: the library entry point that owns it raises it, and
# the command exits 4 (3 for a budget) with the same message before the gamma
# scan or the integration starts
_RULES = [
    ("dt", lambda: _integrate(1.0, 0.0), ["simulate", "--modes", "1", "--dt", "0"], 4),
    ("dt-drift", lambda: _drift(M=2, T=1.0, dt=-1.0),
     ["drift", "--modes", "2", "--T", "1", "--dt", "-1"], 4),
    ("T", lambda: _integrate(-1.0, 0.01), ["simulate", "--modes", "1", "--T", "-1"], 4),
    ("eps", lambda: check_positive(eps=math.inf),
     ["simulate", "--modes", "1", "--eps", "inf", "--T", "0.1"], 4),
    ("eps-drift", lambda: _drift(M=2, T=0.1, eps_list=[0.1, math.inf]),
     ["drift", "--modes", "2", "--eps-list", "0.1,inf", "--T", "0.1"], 4),
    ("steps", lambda: _integrate(1.0, 1e-300, M=2),
     ["simulate", "--modes", "2", "--T", "1", "--dt", "1e-300"], 3),
    ("steps-inf", lambda: _integrate(1e10, 1e-300, M=2),
     ["simulate", "--modes", "2", "--T", "1e10", "--dt", "1e-300"], 3),
    ("steps-drift", lambda: _drift(dt=1e-300), ["drift", "--dt", "1e-300"], 3),
    ("alpha", lambda: _certify("strong", alpha=0.0), ["certify", "--alpha", "0"], 4),
    ("alpha-plan", lambda: dynamics.plan_parameters(0.01, 1.0, 0.0),
     ["plan", "--eps", "0.01", "--nu", "1", "--alpha", "0"], 4),
    ("s_star", lambda: _certify("weak", free=True, s_star=0.0),
     ["certify", "--kind", "weak", "--free", "--s-star", "0"], 4),
    ("s_star-sample", lambda: resonance.sample_conv_potential(0.0, 1, 0),
     ["simulate", "--modes", "1", "--s-star", "0"], 4),
    ("enumeration", lambda: _certify("strong", qmax=1, alpha=0.4),
     ["certify", "--kind", "strong", "--qmax", "1"], 4),
    ("k", lambda: _drift(M=2, k=9), ["drift", "--modes", "2", "--k", "9"], 4),
    ("n_max", lambda: sturm.dirichlet_eig(np.zeros(3), 0), ["sturm", "--nmax", "0"], 4),
    ("c6", lambda: dynamics.strichartz_scan([1], c6=0.0),
     ["strichartz", "--m-list", "1", "--c6", "0"], 4),
    ("c6-sextic", lambda: build_p6(ModeSet.symmetric(1), c6=float("inf")),
     ["normal-form", "--modes", "1", "--order", "3", "--c6", "inf"], 4),
    ("multistart", lambda: dynamics.strichartz_scan([1], multistart=0),
     ["strichartz", "--m-list", "1", "--multistart", "0"], 4),
    ("multistart-nf", lambda: nf.NormalFormConfig(r=3, gamma=0.5, norm_multistart=0),
     ["normal-form", "--modes", "1", "--order", "3", "--multistart", "0"], 4),
    ("j_max", lambda: nf.NormalFormConfig(r=4, gamma=1.0, J_max=3),
     ["normal-form", "--modes", "12", "--order", "4", "--j-max", "3"], 4),
    ("j_max-drift", lambda: nf.NormalFormConfig(r=5, gamma=1.0, J_max=3),
     ["drift", "--modes", "5", "--order", "5", "--j-max", "3"], 4),
    ("order", lambda: nf.NormalFormConfig(r=1, gamma=1.0),
     ["normal-form", "--modes", "5", "--order", "1"], 4),
    # a finite potential whose remainder sqrt(2 pi) V overflows to inf
    ("frequency", lambda: spectral.freqs_conv(np.array([0.0, 1e308, 0.0]), ModeSet.symmetric(1)),
     ["simulate", "--modes", "1", "--potential", "{tmp}/pot.json"], 4),
]


@pytest.mark.parametrize("library,argv,code", [r[1:] for r in _RULES],
                         ids=[r[0] for r in _RULES])
def test_each_input_rule_is_raised_by_its_library_owner(tmp_path, capsys, monkeypatch,
                                                        library, argv, code):
    with pytest.raises(BudgetError if code == EXIT_BUDGET else ValueError) as exc:
        library()
    assert type(exc.value) in (ValueError, BudgetError)

    def reached(*args, **kwargs):
        raise RuntimeError("the command ran past its parameter checks")

    monkeypatch.setattr(nf, "suggest_gamma", reached)
    monkeypatch.setattr(dynamics, "integrate", reached)
    (tmp_path / "pot.json").write_text("[0.0, 1e308, 0.0]")
    out = tmp_path / "r"
    start = time.perf_counter()
    assert main([*(a.format(tmp=tmp_path) for a in argv), "--out", str(out)]) == code
    assert time.perf_counter() - start < 5.0
    kind = "budget exceeded" if code == EXIT_BUDGET else "config error"
    assert capsys.readouterr().err == f"{kind}: {exc.value}\n"
    assert list(out.iterdir()) == []


def test_commands_raise_one_config_error():
    # the commands check through the library's rules and raise no error of
    # their own; simulate --eps, which no library function reads, goes through
    # check_positive
    import ast
    from pathlib import Path

    import qnls.cli
    tree = ast.parse(Path(qnls.cli.__file__).read_text())
    raises = [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
              and f.name.startswith("cmd_") for n in ast.walk(f) if isinstance(n, ast.Raise)]
    assert raises == []
