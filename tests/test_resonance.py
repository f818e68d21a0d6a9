import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from qnls.spectral import FrequencySet, freqs_conv, japanese


def test_sampling_determinism_and_extension():
    V1 = sample_conv_potential(1.0, 5, seed=42)
    V2 = sample_conv_potential(1.0, 5, seed=42)
    assert np.array_equal(V1, V2)
    V3 = sample_conv_potential(1.0, 9, seed=42)
    assert np.array_equal(V1, V3[4:-4])
    with pytest.raises(ValueError):
        sample_conv_potential(0.0, 5, seed=1)


def test_qstar_reads_remainders_below_the_ulp_of_the_squares():
    # 1e-9 is below the ulp of 10^14, so omega.omega rounds it away
    omega = FrequencySet(ModeSet((1, 10 ** 7)), np.array([0.0, 1e-9]))
    with pytest.raises(ValueError, match="below"):
        qstar_reduce(omega, m=[1, -1], h=[1, 10 ** 7], gamma=0.5, B=1e-3, s_star=1.0)
    # 4473^2 + 10003864^2 = 10003865^2: the integer parts cancel, so the full
    # divisor is r_0 - r_2 = 0 while the head divisor is r_0 = 1e-18
    h = [4473, 10003864, 10003865]
    omega = FrequencySet(ModeSet(tuple(h)), np.array([1e-18, 0.0, 1e-18]))
    rep = qstar_reduce(omega, m=[1, 1, -1], h=h, gamma=1.0, B=1e-14, s_star=0.5)
    assert rep.q_star == 1
    assert rep.triangle_factor_ok is False
    # C = (2B/gamma)^(1/s*) underflows to 0 here; its logarithm does not
    rep = qstar_reduce(omega, m=[1, 1, -1], h=h, gamma=1.0, B=1e-14, s_star=0.02)
    assert rep.q_star == 3 and all(math.isfinite(g["log_bound"]) for g in rep.gronwall_bounds)


_FS1 = freqs_conv(np.zeros(3), ModeSet.symmetric(1))
_NAN_GUARDS = {
    "sample_conv_potential-s_star": lambda: sample_conv_potential(math.nan, 3, seed=0),
    "sample_mult_potential-s_star": lambda: sample_mult_potential(math.nan, 3, seed=0),
    "certify_strong-alpha": lambda: certify_strong(_FS1, NRBounds(3, 4, 5), alpha=math.nan),
    "certify_weak-s_star": lambda: certify_weak(_FS1, NRBounds(3, 4, 5), s_star=math.nan),
    "certify_weak-s_star-zero": lambda: certify_weak(_FS1, NRBounds(3, 4, 5), s_star=0.0),
    "qstar_reduce-B": lambda: qstar_reduce(FrequencySet(ModeSet.dirichlet(2), np.zeros(2)),
                                           m=[1, -1], h=[1, 2], gamma=1e-3, B=math.nan,
                                           s_star=1.0),
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
    omega = FrequencySet(ModeSet.dirichlet(8), np.zeros(8))
    cert = certify_strong(omega, NRBounds(3, 4, 8), alpha=0.4)
    assert cert.fitted == 0.0
    assert any(sorted(v["h"]) == [1, 5, 7] for v in cert.violations)


def test_certifiers_take_only_a_frequency_set():
    omega = {k: float(k * k) for k in range(1, 9)}
    with pytest.raises(TypeError, match="FrequencySet"):
        certify_strong(omega, NRBounds(3, 4, 8), alpha=0.4)


def test_certify_weak_free_violations():
    omega = FrequencySet(ModeSet.symmetric(8), np.zeros(17))
    cert = certify_weak(omega, NRBounds(3, 4, 8), s_star=1.0)
    assert cert.fitted == 0.0
    assert cert.violations


def test_certify_weak_q1_brute_force():
    # q = 1: the divisor is the distance of m*w_h to the admissible integers
    rng = np.random.default_rng(11)
    ms = ModeSet.symmetric(6)
    omega = FrequencySet(ms, rng.uniform(0.05, 0.45, ms.size))
    b = NRBounds(1, 2, 6)
    cert = certify_weak(omega, b, s_star=1.0)
    best = math.inf
    for m in (1, 2):
        for h, w in zip(ms.modes, omega.omega.tolist()):
            x = m * w
            a_cap = int(1 + abs(m) * abs(w))
            best_d = min(abs(x + a) for a in range(-a_cap, a_cap + 1))
            rhs = japanese(h) ** -1.0 * abs(m) ** -4.0 * japanese(h) ** -4.0
            best = min(best, best_d / rhs)
    assert cert.fitted == pytest.approx(best, rel=1e-13)


def test_certify_gamma_monotone():
    omega = FrequencySet(ModeSet.dirichlet(6), 0.1 * np.sqrt(2 + np.arange(1, 7)))
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
    shifted = FrequencySet(ms, fs.omega_frac + 2.31)
    again = certify_strong(shifted, b, alpha=0.4)
    assert again.fitted == pytest.approx(base.fitted, rel=1e-9)


def test_budget_guard(monkeypatch):
    omega = FrequencySet(ModeSet.symmetric(30), np.full(61, 0.1))
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
    frac = [0.3 * math.cos(k) * japanese(k) ** -1.0 for k in range(1, 50)] + [1e-7]
    omega = FrequencySet(ModeSet((*range(1, 50), 10 ** 6)), np.array(frac))
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


_QSTAR_OMEGA = FrequencySet(ModeSet((*range(1, 13), 10 ** 7)), np.zeros(13))


@pytest.mark.parametrize("change, rule", [
    ({"h": [1, 2, 13]}, "mode 13 outside the mode set"),     # no frequency at 13
    ({"m": [1, -1]}, "one nonzero integer per mode"),          # m shorter than h
    ({"m": [1, 1, -2, 1]}, "one nonzero integer per mode"),    # m longer than h
    ({"m": [1, 0, -1]}, "one nonzero integer per mode"),
    ({"m": [], "h": []}, "one nonzero integer per mode"),
    ({"gamma": 0.0}, "gamma must be finite and positive"),
    ({"s_star": 0.0}, "s_star must be finite and positive"),
    ({"B": 0.0}, "B must be finite and positive"),
])
def test_qstar_reduce_checks_its_inputs(change, rule):
    args = {"m": [1, 1, -2], "h": [1, 2, 3], "gamma": 1e-3, "B": 0.5, "s_star": 1.0}
    assert qstar_reduce(_QSTAR_OMEGA, **args).q_star == 3
    with pytest.raises(ValueError, match=rule):
        qstar_reduce(_QSTAR_OMEGA, **{**args, **change})


def m_patterns_oracle(q, m1_max, zero_sum):
    """Every ordered m in (Z*)^q with sum|m| <= m1_max and m_1 > 0, in product order."""
    return [m for mags in product(range(1, m1_max + 1), repeat=q) if sum(mags) <= m1_max
            for signs in product((1, -1), repeat=q)
            for m in [tuple(s * a for s, a in zip(signs, mags))]
            if m[0] > 0 and not (zero_sum and sum(m) != 0)]


def certify_oracle(omega, b, kind, alpha=None, s_star=None, a_max=10 ** 9):
    """The certificate search over a {mode: value} table of the window's
    frequencies, the weak one taking the nearest integer a clipped to
    |a| <= min(a_max, floor(1 + sum_j |m_j w_{h_j}|)), as certification ran
    before it read the frequencies by position and dropped the clip."""
    table = {m: omega.value(m) for m in omega.mode_set.modes if abs(m) <= b.h_max}
    window = sorted(table)
    wvals, jh = np.array([table[h] for h in window]), np.array([japanese(h) for h in window])
    fitted, worst, violations = math.inf, None, []
    for q in range(1, b.q_max + 1):
        combos = np.array(list(combinations(range(len(window)), q)), dtype=int)
        if combos.size == 0:
            continue
        Wh, Jh = wvals[combos], jh[combos]
        for m in m_patterns_oracle(q, b.m1_max, kind == "strong"):
            marr = np.array(m, dtype=float)
            x = Wh @ marr
            if kind == "weak":
                a_cap = np.minimum(a_max, np.floor(1.0 + np.abs(Wh) @ np.abs(marr)))
                a_best = np.clip(np.rint(-x), -a_cap, a_cap)
                rhs = (Jh.min(axis=1) ** -s_star) * np.prod(np.abs(marr) ** -4.0) \
                    * np.prod(Jh ** -4.0, axis=1)
            else:
                a_best = np.zeros_like(x)
                rhs = (2.0 * Jh.min(axis=1)) ** (-np.exp(alpha * np.abs(marr).sum()))
            div = np.abs(x + a_best)
            ratio = div / rhs
            i = int(np.argmin(ratio))
            if ratio[i] < fitted:
                fitted = float(ratio[i])
                worst = {"q": q, "m": list(m), "h": [window[j] for j in combos[i]],
                         "a": int(a_best[i]), "divisor": float(div[i]),
                         "rhs_factor": float(rhs[i])}
            violations += [{"q": q, "m": list(m), "h": [window[j] for j in combos[iz]],
                            "a": int(a_best[iz])} for iz in np.flatnonzero(div == 0.0)]
    return (0.0 if violations else fitted), worst, violations


_CERT_CASES = [(None, 8, NRBounds(3, 4, 8)), (0, 8, NRBounds(3, 4, 8)),
               (3, 20, NRBounds(2, 3, 20)), (7, 20, NRBounds(3, 4, 20)),
               (7, 12, NRBounds(3, 5, 9)), (11, 6, NRBounds(4, 4, 6))]


@pytest.mark.parametrize("kind, seed, M, b", [
    *(("weak", *case) for case in _CERT_CASES),
    *(("strong", *case) for case in [*_CERT_CASES, (None, 20, NRBounds(3, 4, 20))]),
])
def test_certificates_match_the_table_search(kind, seed, M, b):
    # seed None is certify --free: the unperturbed frequencies k^2
    ms = ModeSet.symmetric(M)
    fs = freqs_conv(np.zeros(ms.size) if seed is None
                    else sample_conv_potential(1.0, M, seed), ms)
    if kind == "weak":
        cert = certify_weak(fs, b, s_star=1.0)
        want = certify_oracle(fs, b, "weak", s_star=1.0)
    else:
        cert = certify_strong(fs, b, alpha=0.4)
        want = certify_oracle(fs, b, "strong", alpha=0.4)
    assert (cert.fitted, cert.worst_case, cert.violations) == want
    assert (cert.fitted == 0.0) == (seed is None)
    assert cert.to_dict()["bounds"] == {"q_max": b.q_max, "m1_max": b.m1_max, "h_max": b.h_max}


def test_weak_certificate_is_sound_where_the_clip_was_not():
    # clipping a to |a| <= 1 misses the nearest integers and overstates gamma
    ms = ModeSet.symmetric(20)
    fs = freqs_conv(sample_conv_potential(1.0, 20, 3), ms)
    b = NRBounds(2, 3, 20)
    cert = certify_weak(fs, b, s_star=1.0)
    clipped, _, _ = certify_oracle(fs, b, "weak", s_star=1.0, a_max=1)
    assert cert.fitted == pytest.approx(0.116, abs=5e-4)
    assert clipped == pytest.approx(0.704, abs=5e-4)


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 6), q_max=st.integers(1, 3), m1_max=st.integers(1, 5),
       scale=st.sampled_from([0.01, 0.5, 3.0, 40.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_weak_worst_case_takes_the_nearest_integer(M, q_max, m1_max, scale, seed):
    ms = ModeSet.symmetric(M)
    fs = FrequencySet(ms, scale * np.random.default_rng(seed).standard_normal(ms.size))
    cert = certify_weak(fs, NRBounds(q_max, m1_max, M), s_star=1.5)
    wc = cert.worst_case
    x = sum(mj * fs.value(hj) for mj, hj in zip(wc["m"], wc["h"]))
    # rint(-x): within half a unit, and on the even integer at an exact half
    assert abs(x + wc["a"]) <= 0.5 * (1 + 1e-12)
    assert wc["a"] == int(np.rint(-x)) or abs(abs(x + wc["a"]) - 0.5) < 1e-9
    assert wc["divisor"] == pytest.approx(abs(x + wc["a"]), rel=1e-12, abs=1e-12 * abs(x))
