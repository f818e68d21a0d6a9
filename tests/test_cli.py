import json

import pytest

from qnls import nf
from qnls.cli import (EXIT_ASSERT, EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main)


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


def test_drift_quick(tmp_path):
    code, out = run(tmp_path, "drift", "--modes", "2", "--k", "1", "--order", "3",
                    "--eps-list", "0.1,0.05", "--T", "5", "--dt", "0.01",
                    "--seed", "2", "--svg")
    assert code == EXIT_OK
    doc = json.loads((out / "drift.json").read_text())
    assert len(doc["rows"]) == 2
    assert (out / "drift.svg").exists()


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


def test_manifest_roundtrip(tmp_path):
    # replaying a manifest's config reproduces the artifact bit for bit
    code, out = run(tmp_path / "a", "certify", "--seed", "5", "--hmax", "10")
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps({k: v for k, v in manifest["config"].items()
                               if k not in ("out", "func")}))
    code2 = main(["certify", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert code2 == EXIT_OK
    assert (out / "cert.json").read_text() == (tmp_path / "b" / "cert.json").read_text()


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
