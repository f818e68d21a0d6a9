import math

import numpy as np
import pytest
from scipy import stats

from qnls import resonance
from qnls.dynamics import gamma_from_certificate
from qnls.nf import NormalFormConfig, epsilon_r
from qnls.errors import BudgetError
from qnls.poly import ModeSet
from qnls.resonance import (NRBounds, certify_strong, certify_weak,
                            enumeration_size, mode_gaussian, qstar_reduce,
                            recompute_worst_case, sample_conv_potential,
                            sample_mult_potential)
from qnls.spectral import freqs_conv, japanese


def test_sampling_determinism_and_extension():
    V1 = sample_conv_potential(1.0, 5, seed=42)
    V2 = sample_conv_potential(1.0, 5, seed=42)
    assert np.array_equal(V1, V2)
    V3 = sample_conv_potential(1.0, 9, seed=42)
    assert np.array_equal(V1, V3[4:-4])
    with pytest.raises(ValueError):
        sample_conv_potential(0.0, 5, seed=1)


_FS1 = freqs_conv(np.zeros(3), ModeSet.symmetric(1))
_NAN_GUARDS = {
    "sample_conv_potential-s_star": lambda: sample_conv_potential(math.nan, 3, seed=0),
    "sample_mult_potential-s_star": lambda: sample_mult_potential(math.nan, 3, seed=0),
    "certify_strong-alpha": lambda: certify_strong(_FS1, NRBounds(3, 4, 5), alpha=math.nan),
    "certify_weak-s_star": lambda: certify_weak(_FS1, NRBounds(3, 4, 5), s_star=math.nan),
    "certify_weak-s_star-zero": lambda: certify_weak(_FS1, NRBounds(3, 4, 5), s_star=0.0),
    "qstar_reduce-B": lambda: qstar_reduce({1: 1.0, 2: 4.0}, m=[1, -1], h=[1, 2],
                                           gamma=1e-3, B=math.nan, s_star=1.0),
    "gamma_from_certificate-rho": lambda: gamma_from_certificate(math.nan, 0.2, 1, 5),
    "epsilon_r-normP_H": lambda: epsilon_r(NormalFormConfig(r=5, gamma=0.1), math.nan, _FS1),
}


@pytest.mark.parametrize("call", _NAN_GUARDS.values(), ids=_NAN_GUARDS)
def test_nan_is_refused_by_every_positivity_guard(call):
    # a comparison with NaN is false, so each guard is written "not x > bound"
    with pytest.raises(ValueError):
        call()


def test_sampling_distribution_ks():
    # X_k = V_k <k>^{s*} should follow a standard normal
    xs = np.array([mode_gaussian(7, k) for k in range(-5000, 5000)])
    stat, pvalue = stats.kstest(xs, "norm")
    assert pvalue > 1e-3
    # undoing the <k>^{-s*} envelope recovers the per-mode gaussians
    V = sample_conv_potential(1.5, 50, seed=7)
    modes = np.arange(-50, 51)
    back = V * (1.0 + np.abs(modes)) ** 1.5
    want = np.array([mode_gaussian(7, int(k)) for k in modes])
    assert np.allclose(back, want, rtol=1e-12)
    fs = freqs_conv(V, ModeSet.symmetric(50))
    assert fs.frac_inf <= math.sqrt(2 * math.pi) * np.max(np.abs(V)) + 1e-15


def test_mult_potential_contract():
    w = sample_mult_potential(2.0, 30, seed=3)
    assert w[0] == 0.0                      # mean zero
    assert w.shape == (31,)
    assert np.array_equal(w, sample_mult_potential(2.0, 30, seed=3))
    with pytest.raises(ValueError):
        sample_mult_potential(1.0, 10, seed=0)


def test_certify_strong_rejects_free():
    omega = {k: float(k * k) for k in range(1, 9)}
    cert = certify_strong(omega, NRBounds(3, 4, 8), alpha=0.4)
    assert cert.fitted == 0.0
    assert any(sorted(v["h"]) == [1, 5, 7] for v in cert.violations)


def test_certify_weak_free_violations():
    omega = {k: float(k * k) for k in range(-8, 9)}
    cert = certify_weak(omega, NRBounds(3, 4, 8), s_star=1.0)
    assert cert.fitted == 0.0
    assert cert.violations


def test_certify_weak_q1_brute_force():
    # q = 1: the divisor is the distance of m*w_h to the admissible integers
    rng = np.random.default_rng(11)
    omega = {k: k * k + float(rng.uniform(0.05, 0.45)) for k in range(-6, 7)}
    b = NRBounds(1, 2, 6)
    cert = certify_weak(omega, b, s_star=1.0)
    best = math.inf
    for m in (1, 2):
        for h, w in omega.items():
            x = m * w
            a_cap = int(1 + abs(m) * abs(w))
            best_d = min(abs(x + a) for a in range(-a_cap, a_cap + 1))
            rhs = japanese(h) ** -1.0 * abs(m) ** -4.0 * japanese(h) ** -4.0
            best = min(best, best_d / rhs)
    assert cert.fitted == pytest.approx(best, rel=1e-13)


def test_certify_gamma_monotone():
    omega = {k: k * k + 0.1 * math.sqrt(2 + k) for k in range(1, 7)}
    b = NRBounds(2, 3, 6)
    cert = certify_weak(omega, b, s_star=1.0)
    # scaling the required constant down never removes a violation
    assert cert.violations == []
    assert cert.fitted > 0


def test_certify_strong_seeded_positive():
    ms = ModeSet.symmetric(20)
    V = sample_conv_potential(1.0, 20, seed=7)
    fs = freqs_conv(V, ms)
    b = NRBounds(3, 4, 20)
    cert = certify_strong(fs, b, alpha=0.4)
    assert cert.fitted > 0
    assert cert.n_checked == enumeration_size(fs, b, "strong")
    # reproducibility of the worst case
    assert recompute_worst_case(cert, fs) == pytest.approx(cert.fitted, abs=1e-14)
    # determinism
    cert2 = certify_strong(fs, b, alpha=0.4)
    assert cert2.to_dict() == cert.to_dict()


def test_certify_strong_alpha_monotone():
    ms = ModeSet.symmetric(10)
    fs = freqs_conv(sample_conv_potential(1.0, 10, seed=5), ms)
    b = NRBounds(3, 4, 10)
    low = certify_strong(fs, b, alpha=0.3)
    high = certify_strong(fs, b, alpha=0.6)
    assert high.fitted >= low.fitted


def test_certify_strong_shift_invariance():
    ms = ModeSet.symmetric(10)
    fs = freqs_conv(sample_conv_potential(1.0, 10, seed=5), ms)
    b = NRBounds(3, 4, 10)
    base = certify_strong(fs, b, alpha=0.4)
    shifted = {m: fs.value(m) + 2.31 for m in ms.modes}
    again = certify_strong(shifted, b, alpha=0.4)
    assert again.fitted == pytest.approx(base.fitted, rel=1e-9)


def test_budget_guard(monkeypatch):
    omega = {k: float(k * k) + 0.1 for k in range(-30, 31)}
    monkeypatch.setattr(resonance, "_MAX_TUPLES", 1000)
    with pytest.raises(BudgetError):
        certify_strong(omega, NRBounds(4, 6, 30), alpha=0.3)


@pytest.mark.parametrize("b", [NRBounds(1, 4, 10), NRBounds(3, 1, 10)])
def test_empty_strong_enumeration_is_an_error(b):
    # a zero-sum m needs q >= 2 and |m|_1 >= 2; the weak run still has tuples
    fs = freqs_conv(np.zeros(21), ModeSet.symmetric(10))
    assert enumeration_size(fs, b, "strong") == 0 < enumeration_size(fs, b, "weak")
    with pytest.raises(ValueError, match="no tuple"):
        certify_strong(fs, b, alpha=0.4)


def test_qstar_cases():
    omega = {k: k * k + 0.3 * math.cos(k) * japanese(k) ** -1.0 for k in range(1, 50)}
    omega[10 ** 6] = 10 ** 12 + 1e-7
    r1 = qstar_reduce(omega, m=[1], h=[3], gamma=1e-3, B=0.5, s_star=1.0)
    assert r1.q_star == 1
    r2 = qstar_reduce(omega, m=[2, -1, -1], h=[1, 5, 7], gamma=1e-3, B=0.5, s_star=1.0)
    assert r2.q_star == 3
    assert all(g["holds"] for g in r2.gronwall_bounds)
    # negligible tail: the last frequency is huge, so the threshold fails
    r3 = qstar_reduce(omega, m=[1, 1, -2], h=[1, 2, 10 ** 6], gamma=0.8, B=0.5,
                      s_star=1.0)
    assert r3.q_star < 3
    assert r3.triangle_factor_ok
    with pytest.raises(ValueError):
        qstar_reduce(omega, m=[1, 1], h=[5, 2], gamma=1e-3, B=0.5, s_star=1.0)
    with pytest.raises(ValueError):
        qstar_reduce(omega, m=[1, 1], h=[2, 5], gamma=1e-3, B=1e-9, s_star=1.0)
