"""Tests of the benchmark harness itself: self-time arithmetic, failure
counting, probe restore, and a smoke size of every workload."""

import json
from pathlib import Path

import pytest

import harness
import tracing
import workloads

# each smoke size finishes in about a second
SMOKE = {
    "drift": dict(M=3, nr_bounds=[3, 4, 3], T=0.5, max_samples=5),
    "normal_form": dict(modes=1, order=3, j_max=5),
    "strichartz": dict(m_list=[1, 2], multistart=8),
}


def test_self_time_of_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.5, 6.0, 6.5, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    tr.enter("root")                  # 0
    tr.enter("a")                     # 1
    tr.enter("leaf")                  # 2
    tr.exit()                         # 4: leaf 2
    tr.exit()                         # 5: a 4 - 2
    tr.enter("g", record=False)       # 5.5
    tr.exit()                         # 6: g 0.5
    tr.enter("a")                     # 6.5
    tr.exit()                         # 9: a 2.5
    tr.exit()                         # 10: root 10 - 4 - 0.5 - 2.5
    assert dict(tr.self_s) == {"root": 3.0, "a": 4.5, "leaf": 2.0, "g": 0.5}
    assert sum(tr.self_s.values()) == 10.0
    assert tr.calls == {"root": 1, "a": 2, "leaf": 1, "g": 1}
    by_name = {}
    for span_id, parent, name, start, end, own in tr.spans:
        by_name.setdefault(name, []).append((span_id, parent, end - start, own))
    assert "g" not in by_name                      # unrecorded region
    (root_id, root_parent, root_dur, root_own), = by_name["root"]
    assert (root_parent, root_dur, root_own) == (None, 10.0, 3.0)
    (a1, a1_parent, _, a1_own), (a2, a2_parent, _, a2_own) = by_name["a"]
    assert a1_parent == a2_parent == root_id and (a1_own, a2_own) == (2.0, 2.5)
    assert by_name["leaf"][0][1] == a1


def test_probe_restores_every_original():
    from qnls import cli, dynamics, flows, nf, poly, spectral
    sites = [(nf, "poisson"), (flows, "midpoint_step"), (poly.HomPoly, "gradient"),
             (cli, "main"), (dynamics, "sup_norm"), (spectral, "sup_norm"),
             (nf, "transform_state")]
    before = [getattr(o, a) for o, a in sites]
    with harness.traced(tracing.Tracer()):
        assert all(getattr(o, a) is not b for (o, a), b in zip(sites, before))
    assert all(getattr(o, a) is b for (o, a), b in zip(sites, before))


def test_reference_mismatch_fails_every_operation():
    wl = workloads.Strichartz()
    out = workloads.Outcome(attempted=5, summary={"rows": [[1, 0.5]], "n": 3})
    ref = {"4": {"rows": [[1, 0.5 * (1 + 1e-12)]], "n": 3}}
    assert workloads.check_reference(wl, 4, out, ref) == "match"
    assert workloads.check_reference(wl, 5, out, ref) == "not recorded"
    ref["4"]["rows"][0][1] = 0.6
    assert workloads.check_reference(wl, 4, out, ref) == "mismatch"
    assert out.failed == 5 and out.problems


@pytest.mark.parametrize("override", [{"min_exponent": 100.0}, {"dt": 0.5}],
                         ids=["gate", "exception"])
def test_forced_failure_counts_in_failed_frac(override):
    rec = harness.run("drift", 0, 0.0, False, params=SMOKE["drift"] | override,
                      reference={}, setup_repeats=1)
    res = rec["result"]
    assert res["attempted"] == 3 and res["failed"] == 3
    assert rec["failed_frac"] == 1.0 and res["correct"] is False


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload(name):
    plain = harness.run(name, 1, 0.0, False, params=SMOKE[name], reference={},
                        setup_repeats=1)
    res = plain["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())

    # every traced round must reproduce the untraced outputs exactly
    same = {"1": plain["outputs"][0]}
    traced = harness.run(name, 1, 2.0, True, params=SMOKE[name], reference=same,
                         setup_repeats=1)
    assert traced["result"]["correct"] and traced["reference"] == ["match"]
    assert len(traced["traced_round_walls_s"]) >= 2 and traced["counts_repeat"]
    metrics = {k: m["value"] for k, m in traced["result"]["metrics"].items()}
    assert list(metrics) == [n for n, _ in tracing.LAYER_METRICS]
    busy = {"drift": "flows.midpoint_step.calls", "normal_form": "poly.poisson.calls",
            "strichartz": "spectral.sup_norm.calls"}[name]
    assert metrics[busy] > 0


def test_benchmark_json_matches_harness():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.LAYER_METRICS
