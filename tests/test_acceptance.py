"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime when it completes.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qnls import cli
from qnls.dynamics import (action_drift, gamma_from_certificate,
                           remainder_scaling, strichartz_scan)
from qnls.nf import (NormalFormConfig, birkhoff, check_krgamma, suggest_gamma,
                     transform_state)
from qnls.poly import HomPoly, ModeSet, build_p6, build_z2, coeff_close, poisson
from qnls.resonance import NRBounds, certify_strong, sample_conv_potential, \
    sample_mult_potential
from qnls.spectral import (freqs_conv, norm_c, norm_h, split_levels,
                           strichartz_identity_check, sup_norm)
from qnls.sturm import (dirichlet_eig, sobolev_ratio, verify_ef_decay,
                        verify_ev_asymptotics)
from qnls import flows
from conftest import is_zero, random_balanced, random_state


@contextmanager
def criterion(n, label, budget):
    t0 = time.time()
    yield
    elapsed = time.time() - t0
    print(f"\ncriterion {n} PASS ({elapsed:.1f}s of {budget:.0f}s): {label}")
    assert elapsed < budget, f"criterion {n} exceeded its time budget"


def _random_poly_pool(n, seed):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(n):
        M = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        pool.append(random_balanced(ModeSet.symmetric(M), q, rng,
                                    n_keys=int(rng.integers(3, 8))))
    return pool


def test_criterion_1_algebra_suite():
    with criterion(1, "Jacobi, antisymmetry, balance, norm commutation "
                      "on 200 random polynomials", budget=10.0):
        pool = _random_poly_pool(200, seed=101)
        rng = np.random.default_rng(202)
        for P in pool:
            ms = P.mode_set
            norm_sq = build_z2(ms, 2.0 * np.ones(ms.size))
            br = poisson(P, norm_sq)
            scale = max(abs(c) for c in P.coeffs.values())
            assert is_zero(br, scale, rtol=1e-10)
        by_space = {}
        for P in pool:
            by_space.setdefault(P.mode_set, []).append(P)
        pairs = triples = 0
        for group in by_space.values():
            for A, B in zip(group[::2], group[1::2]):
                out = poisson(A, B)
                assert all(len(k) == len(l) == A.q + B.q - 1 for k, l in out.coeffs)
                assert coeff_close(out, -1.0 * poisson(B, A), rtol=1e-10)
                pairs += 1
            for A, B, C in zip(group[::3], group[1::3], group[2::3]):
                total = (poisson(A, poisson(B, C)) + poisson(B, poisson(C, A))
                         + poisson(C, poisson(A, B)))
                scale = max(max(abs(c) for c in poisson(B, C).coeffs.values())
                            * max(abs(c) for c in A.coeffs.values()), 1e-300)
                assert is_zero(total, 10 * scale, rtol=1e-10)
                triples += 1
        assert pairs >= 60 and triples >= 40


def test_criterion_2_diagonal_action():
    with criterion(2, "ad_Z2 is diagonal with eigenvalue i*Omega on every "
                      "sextic key of the M=2 window", budget=1.0):
        ms = ModeSet.symmetric(2)
        P6 = build_p6(ms)
        rng = np.random.default_rng(5)
        omega = rng.standard_normal(ms.size) * 3.0
        Z = build_z2(ms, omega)
        w = {m: omega[i] for i, m in enumerate(ms.modes)}
        for key, c in P6.coeffs.items():
            mono = HomPoly(ms, 3, {key: c})
            br = poisson(Z, mono)
            Om = sum(w[m] for m in key[0]) - sum(w[m] for m in key[1])
            want = 1j * Om * c
            got = br.coeffs.get(key, 0j)
            assert len(br.coeffs) <= 1
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_3_projector_convolution():
    with criterion(3, "level projection of a bracket equals the convolution "
                      "of the factors' levels, 50 random pairs", budget=10.0):
        rng = np.random.default_rng(33)
        for _ in range(50):
            M = int(rng.integers(1, 4))
            ms = ModeSet.symmetric(M)
            P = random_balanced(ms, int(rng.integers(1, 4)), rng, n_keys=5)
            chi = random_balanced(ms, int(rng.integers(1, 4)), rng, n_keys=5)
            br = poisson(P, chi)
            lv_P = split_levels(P)
            lv_chi = split_levels(chi)
            conv = {}
            for b, part_b in lv_P.items():
                for c, part_c in lv_chi.items():
                    term = poisson(part_b, part_c)
                    a = b + c
                    conv[a] = conv[a] + term if a in conv else term
            lv_br = split_levels(br)
            for a in set(conv) | set(lv_br):
                lhs = lv_br.get(a, HomPoly(ms, br.q, {}))
                rhs = conv.get(a, HomPoly(ms, br.q, {}))
                assert coeff_close(lhs, rhs, rtol=1e-12)


def test_criterion_4_norm_inequalities():
    with criterion(4, "three-norm sandwich on the sextic and the 8qq' / "
                      "40qq'log bracket bounds on 100 random pairs", budget=120.0):
        violations = 0
        for M in (1, 2, 3):
            ms = ModeSet.symmetric(M)
            P = build_p6(ms)
            q = 3
            w2 = np.asarray(ms.modes, float) ** 2
            winf = float(np.max(w2))
            h = norm_h(P, multistart=16)
            c = norm_c(P, multistart=16)
            s = sup_norm(P.modulus(), multistart=16)
            if h.lower > s.upper * (1 + 1e-12):
                violations += 1
            if s.lower > 5 * q * winf * h.upper * (1 + 1e-12):
                violations += 1
            if s.lower > 5 * math.log(2 * q * winf) * c.upper * (1 + 1e-12):
                violations += 1
        rng = np.random.default_rng(44)
        ms = ModeSet.symmetric(3)
        winf = 9.0
        for _ in range(100):
            qP = int(rng.integers(1, 4))
            qC = int(rng.integers(1, 4))
            P = random_balanced(ms, qP, rng, n_keys=4)
            chi = random_balanced(ms, qC, rng, n_keys=4)
            br = poisson(P, chi)
            lhs_sup = sup_norm(br.modulus(), multistart=8).lower
            rhs_sup = (8 * qP * qC * sup_norm(P.modulus(), multistart=8).upper
                       * sup_norm(chi.modulus(), multistart=8).upper)
            if lhs_sup > rhs_sup * (1 + 1e-10):
                violations += 1
            lhs_h = norm_h(br, multistart=8, lower_levels=3).lower
            rhs_h = (40 * qP * qC * math.log(2 * qC * winf)
                     * norm_h(P, multistart=8).upper
                     * norm_c(chi, multistart=8).upper)
            if lhs_h > rhs_h * (1 + 1e-10):
                violations += 1
        assert violations == 0


def test_criterion_5_flow_properties():
    with criterion(5, "generator flows: norm preservation, closeness, "
                      "differential bound, round trip", budget=60.0):
        rng = np.random.default_rng(55)
        ms = ModeSet.symmetric(2)
        V = sample_conv_potential(1.0, 2, seed=9)
        fs = freqs_conv(V, ms)
        z2 = build_z2(ms, fs)
        P6 = build_p6(ms)
        cfg = NormalFormConfig(r=3, gamma=0.5, J_max=5, seed=1)
        res = birkhoff(z2, P6, fs, cfg)
        chis = [g for g in res.generators if len(g)] + \
            [HomPoly(ms, 2, {((1, 1), (1, 1)): 0.5})]
        for chi in chis:
            q = chi.q
            upper = chi.l1()
            for _ in range(3):
                u = random_state(ms, rng, norm=0.25)
                nu = np.linalg.norm(u)
                v = flows.flow(chi.gradient, u, 1.0, 0.02)
                assert abs(np.linalg.norm(v) - nu) <= 1e-11 * nu
                assert np.linalg.norm(v - u) <= 2 * q * upper * nu ** (2 * q - 1) * (1 + 1e-9)
                w = random_state(ms, rng, norm=1.0)
                hstep = 1e-6
                dv = (flows.flow(chi.gradient, u + hstep * w, 1.0, 0.02)
                      - flows.flow(chi.gradient, u - hstep * w, 1.0, 0.02)) / (2 * hstep)
                bound = math.exp(4 * q * q * upper * nu ** (2 * q - 2))
                assert np.linalg.norm(dv) <= bound * (1 + 1e-6) + 1e-4
        # round trip of the composed transform and its differential proxy
        u = random_state(ms, rng, norm=res.eps_r / 2)
        v = transform_state(u, res.generators, "forward")
        back = transform_state(v, res.generators, "inverse")
        assert np.linalg.norm(back - u) <= 1e-8
        w = random_state(ms, rng, norm=1.0)
        hstep = 1e-7
        dtau = (transform_state(u + hstep * w, res.generators, "forward")
                - transform_state(u - hstep * w, res.generators, "forward")) / (2 * hstep)
        bound = math.exp((np.linalg.norm(u) / res.eps_r) ** (2 * cfg.p - 2))
        assert np.linalg.norm(dtau) <= bound * (1 + 1e-5) + 1e-3


@pytest.fixture(scope="module")
def certified_nf():
    """M=3 normal form at r=5 with gamma from a strong-NR certificate."""
    alpha, seed = 0.2, 7
    window = ModeSet.symmetric(20)
    V20 = sample_conv_potential(1.0, 20, seed)
    cert = certify_strong(freqs_conv(V20, window), NRBounds(3, 4, 20), alpha=alpha)
    assert cert.fitted > 0
    gamma = gamma_from_certificate(cert.fitted, alpha, k=1, r=5)
    ms = ModeSet.symmetric(3)
    V = sample_conv_potential(1.0, 3, seed)   # restriction of the same family
    fs = freqs_conv(V, ms)
    z2 = build_z2(ms, fs)
    P6 = build_p6(ms)
    cfg = NormalFormConfig(r=5, gamma=gamma, J_max=6, seed=0,
                           norm_multistart=16, norm_lower_levels=1)
    result = birkhoff(z2, P6, fs, cfg)
    return ms, fs, z2, P6, cfg, result


def test_criterion_6_normal_form(certified_nf):
    with criterion(6, "M=3, r=5 normal form: exact gamma-resonance, "
                      "conjugation identity, tail bounds", budget=600.0):
        ms, fs, z2, P6, cfg, result = certified_nf
        assert 0 < cfg.gamma < 1
        # per-key gamma-resonance for every normalized degree
        w = fs.omega
        for j in range(3, 6):
            Q = result.resonant.get(j)
            if Q is None:
                continue
            idx = ms.index
            for (k, l) in Q.coeffs:
                Om = sum(w[idx(m)] for m in k) - sum(w[idx(m)] for m in l)
                assert abs(Om) < cfg.gamma
        # conjugation identity at ||u|| = eps_r / 4
        rng = np.random.default_rng(66)
        tol = 10.0 * (0.25 ** (2 * cfg.J_max)) * result.norm_p.upper
        for _ in range(20):
            u = random_state(ms, rng, norm=result.eps_r / 4)
            v = transform_state(u, result.generators, "forward")
            lhs = float(z2(u)) + float(P6(u))
            assert abs(lhs - result.hamiltonian_value(v)) <= tol
        # tail report clean with the default constants A=2, B_3=100
        assert cfg.A == 2.0 and cfg.B_p == 100.0
        assert result.tail_ok, [vars(e) for e in result.tail_report]


def test_criterion_7_strichartz_scan():
    with criterion(7, "S(M) scan over M=1..16: monotone, sub-polynomial "
                      "exponent decay, quadrature identity", budget=600.0):
        scan = strichartz_scan([1, 2, 4, 8, 16], multistart=48, seed=0)
        assert scan.monotone()
        e = scan.exponents
        assert len(e) == 4
        assert e[1] > e[2] > e[3]          # strictly decreasing last three
        rng = np.random.default_rng(77)
        checks = 0
        for M in (1, 2, 4, 8):
            ms = ModeSet.symmetric(M)
            P6 = build_p6(ms)
            for _ in range(5):
                a = int(rng.integers(-3 * M * M, 3 * M * M + 1))
                u = random_state(ms, rng)
                direct, quad = strichartz_identity_check(P6, a, u)
                assert direct == pytest.approx(quad, rel=1e-10, abs=1e-10)
                checks += 1
        assert checks == 20


def test_criterion_8_small_divisors(tmp_path):
    with criterion(8, "free frequencies rejected via 2w5 = w1 + w7; seeded "
                      "potential certified with rho > 0, deterministically", budget=300.0):
        code = cli.main(["certify", "--kind", "strong", "--free", "--hmax", "8",
                         "--out", str(tmp_path / "free")])
        assert code != 0
        doc = json.loads((tmp_path / "free" / "cert.json").read_text())
        assert any(sorted(v["h"]) == [1, 5, 7] and sorted(v["m"]) == [-2, 1, 1]
                   for v in doc["violations"])
        args = ["certify", "--kind", "strong", "--s-star", "1.0", "--seed", "7",
                "--qmax", "3", "--m1max", "4", "--hmax", "20", "--alpha", "0.4"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        da = (tmp_path / "a" / "cert.json").read_text()
        db = (tmp_path / "b" / "cert.json").read_text()
        assert da == db
        assert json.loads(da)["fitted"] > 0


def test_criterion_9_sturm_liouville():
    with criterion(9, "Dirichlet spectrum: free case exact, eigenvalue "
                      "asymptotics stable, decay and Sobolev equivalence", budget=300.0):
        b0 = dirichlet_eig(np.zeros(1), n_max=20)
        n = np.arange(1, 21, dtype=float)
        assert np.max(np.abs(b0.lambdas - n ** 2)) < 1e-10
        W = sample_mult_potential(2.0, 100, seed=11)
        b1 = dirichlet_eig(W, n_max=50, N_basis=200)
        b2 = dirichlet_eig(W, n_max=50, N_basis=400)
        c1, c2 = verify_ev_asymptotics(b1), verify_ev_asymptotics(b2)
        assert np.isfinite(c1) and abs(c1 - c2) <= 0.05 * c1
        rep = verify_ef_decay(b2)
        assert np.isfinite(rep["C_fit"])
        rng = np.random.default_rng(9)
        for sp in (0.0, 1.0):
            for _ in range(5):
                v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
                r = sobolev_ratio(b2, v, sp)
                assert 0.1 < r < 10.0


def test_criterion_10_action_drift():
    with criterion(10, "action drift at M=5, k=1, T=1000: exponent >= 5.5 "
                       "and the transformed actions drift no more", budget=1800.0):
        ms = ModeSet.symmetric(5)
        seed = 2
        V = sample_conv_potential(1.0, 5, seed)
        fs = freqs_conv(V, ms)
        cert = certify_strong(fs, NRBounds(3, 4, 5), alpha=0.4)
        assert cert.fitted > 0                      # certified non-resonant
        z2 = build_z2(ms, fs)
        p6 = build_p6(ms)
        gamma = suggest_gamma(ms, fs, k=1, r=3, scope="all")
        rep = check_krgamma(ms, fs, k=1, r=3, gamma=gamma)
        assert rep.certified
        cfg = NormalFormConfig(r=3, gamma=gamma, J_max=4, seed=0,
                               norm_lower_levels=1)
        result = birkhoff(z2, p6, fs, cfg)
        drift = action_drift(result, z2, p6, k=1, eps_list=[0.1, 0.07, 0.05],
                             T=1000.0, dt=0.005, seed=0, max_samples=1000)
        assert drift.exponent >= 5.5, drift
        assert drift.transformed_no_worse, drift.rows
        assert all(r.norm_drift <= 1e-10 for r in drift.rows)


def test_criterion_11_remainder_scaling():
    with criterion(11, "truncation remainder decays in M at least like the "
                       "Sobolev tail bound", budget=600.0):
        res = remainder_scaling([4, 8, 16, 32], s=0.45, seed=1)
        assert res["slope"] <= -(0.45 - 0.4) + 0.1
