import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from qnls import dynamics, flows, nf, resonance, spectral, sturm
from qnls.errors import BudgetError
from qnls.nf import (NormalFormConfig, ad_z2, birkhoff, check_krgamma,
                     epsilon_r, lie_transform, solve_cohomological,
                     suggest_gamma, transform_state)
from qnls.poly import HomPoly, ModeSet, build_p6, build_z2, coeff_close, poisson
from qnls.spectral import freqs_conv, split_levels
from qnls.resonance import sample_conv_potential
from conftest import divisor, is_zero, random_balanced, random_state


@pytest.fixture
def setup_m1():
    ms = ModeSet.symmetric(1)
    V = np.array([0.21, -0.43, 0.36])
    fs = freqs_conv(V, ms)
    return ms, fs, build_z2(ms, fs), build_p6(ms)


def test_config_invariants():
    with pytest.raises(ValueError):
        NormalFormConfig(r=5, gamma=0.0)
    with pytest.raises(ValueError):
        NormalFormConfig(r=1, gamma=0.5)      # r < p - 1
    with pytest.raises(ValueError):
        NormalFormConfig(r=5, gamma=0.5, J_max=5)
    cfg = NormalFormConfig(r=5, gamma=0.5)
    assert cfg.J_max == 10


def test_solve_cohomological_single_key(setup_m1):
    ms, fs, z2, _ = setup_m1
    # one key with divisor Omega: chi = c / (i Omega), empty remainder
    key = ((-1, 1, 1), (0, 0, 1))
    c = 0.7
    Q = HomPoly(ms, 3, {key: c, (key[1], key[0]): c})
    chi, res = solve_cohomological(Q, fs, gamma=1.0)
    Om = divisor(fs, key)
    assert abs(Om) > 1.0
    assert chi.coeffs[key] == pytest.approx(c / (1j * Om), rel=1e-14)
    assert len(res) == 0
    assert chi.is_real


def test_solve_cohomological_resonant_and_actions(setup_m1):
    ms, fs, z2, _ = setup_m1
    # fully resonant input passes through
    Q = HomPoly(ms, 2, {((0, 1), (0, 1)): 1.0, ((-1, 1), (-1, 1)): 0.5})
    chi, res = solve_cohomological(Q, fs, gamma=0.3)
    assert len(chi) == 0
    assert coeff_close(res, Q, rtol=0)
    # actions-only polynomial: divisors vanish whatever gamma
    chi2, res2 = solve_cohomological(Q, fs, gamma=1e-12)
    assert len(chi2) == 0 and coeff_close(res2, Q, rtol=0)


def test_cohomological_identity(setup_m1, rng):
    ms, fs, _, _ = setup_m1
    Q = random_balanced(ms, 3, rng, n_keys=8)
    chi, res = solve_cohomological(Q, fs, gamma=0.4)
    check = Q + poisson(chi, build_z2(ms, fs))
    assert coeff_close(check, res, rtol=1e-12)
    # the resonant part keeps exactly the small-divisor keys, unchanged
    for key, c in Q.coeffs.items():
        if abs(divisor(fs, key)) < 0.4:
            assert res.coeffs[key] == c
        else:
            assert key not in res.coeffs


def test_ad_z2_matches_bracket(setup_m1, rng):
    ms, fs, z2, _ = setup_m1
    P = random_balanced(ms, 2, rng)
    assert coeff_close(ad_z2(P, fs), poisson(z2, P), rtol=1e-12)


def test_lie_transform_identity_cases(setup_m1, rng):
    ms, fs, _, _ = setup_m1
    series = {3: random_balanced(ms, 3, rng)}
    chi0 = HomPoly(ms, 3, {})
    out, trunc = lie_transform(fs, series, chi0, j_max=6)
    assert coeff_close(out[3], series[3], rtol=0) and not trunc
    # chi commuting with every entry: actions-only chi against actions-only series
    actions = HomPoly(ms, 2, {((0, 1), (0, 1)): 0.8})
    chi_act = HomPoly(ms, 2, {((-1, 1), (-1, 1)): 0.5})
    out2, _ = lie_transform(fs, {2: actions}, chi_act, j_max=8)
    assert coeff_close(out2[2], actions, rtol=1e-13)
    assert all(j == 2 or is_zero(p, 1.0, rtol=1e-13) for j, p in out2.items())


def test_lie_transform_rejects_quadratic_generator(setup_m1, rng):
    # a half-degree-1 generator keeps the degree, so its chains never end
    ms, fs, _, _ = setup_m1
    chi = HomPoly(ms, 1, {((0,), (0,)): 0.5})
    with pytest.raises(ValueError):
        lie_transform(fs, {3: random_balanced(ms, 3, rng)}, chi, j_max=6)


def test_lie_transform_against_exponential_oracle(setup_m1, rng):
    # independent oracle: sum_n ad^n/n! applied term by term with raw brackets
    ms, fs, z2, _ = setup_m1
    series = {3: random_balanced(ms, 3, rng, n_keys=5)}
    chi = random_balanced(ms, 3, rng, n_keys=4)
    j_max = 7
    out, _ = lie_transform(fs, series, chi, j_max)

    expected = {}

    def acc(poly):
        if len(poly.coeffs) == 0 or poly.q > j_max:
            return
        expected[poly.q] = expected.get(poly.q, HomPoly(ms, poly.q, {})) + poly

    term = poisson(chi, z2)
    n = 1
    while term.q <= j_max:
        acc(term * (1.0 / math.factorial(n)))
        term = poisson(chi, term)
        n += 1
    term, n = series[3], 0
    while term.q <= j_max:
        if n > 0:
            acc(term * (1.0 / math.factorial(n)))
        else:
            acc(term)
        term = poisson(chi, term)
        n += 1
    assert set(out) <= set(expected) | {3}
    for j, P in expected.items():
        got = out.get(j, HomPoly(ms, j, {}))
        assert coeff_close(got, P, rtol=1e-11)


def test_epsilon_r_examples():
    ms = ModeSet.symmetric(5)
    fs = freqs_conv(np.zeros(11), ms)
    cfg = NormalFormConfig(r=5, gamma=0.1)
    # direct formula evaluation with A = 2, B_p = 100, <|w_f|> = 1, log<|w_i|> = log 26
    want = (0.1 / (2.0 * 100.0 * 5 ** 5 * 1.0 * 1.0 * math.log(26.0))) ** 0.25
    assert epsilon_r(cfg, 1.0, fs) == pytest.approx(want, rel=1e-13)
    cfg2 = NormalFormConfig(r=5, gamma=0.2)
    assert epsilon_r(cfg2, 1.0, fs) == pytest.approx(want * 2 ** 0.25, rel=1e-13)
    cfg3 = NormalFormConfig(r=6, gamma=0.1)
    assert epsilon_r(cfg3, 1.0, fs) < epsilon_r(cfg, 1.0, fs)


def test_birkhoff_resonant_input_unchanged(setup_m1):
    ms, fs, z2, _ = setup_m1
    P = HomPoly(ms, 3, {((0, 0, 1), (0, 0, 1)): 0.4, ((-1, 0, 1), (-1, 0, 1)): 0.2})
    cfg = NormalFormConfig(r=4, gamma=0.9, J_max=6)
    res = birkhoff(z2, P, fs, cfg)
    assert coeff_close(res.resonant[3], P, rtol=0)
    assert all(len(g) == 0 for g in res.generators)


def test_birkhoff_m1_exhaustive(setup_m1):
    ms, fs, z2, P6 = setup_m1
    cfg = NormalFormConfig(r=3, gamma=0.5, J_max=5)
    res = birkhoff(z2, P6, fs, cfg)
    # with omega ~ k^2 + small and gamma = 0.5, the a != 0 keys all go
    kept = res.resonant[3]
    for key in P6.coeffs:
        Om = divisor(fs, key)
        if abs(Om) < 0.5:
            assert key in kept.coeffs
        else:
            assert key not in kept.coeffs
    # hand enumeration: the integer levels of the M=1 sextic are -2, 0, 2,
    # so the surviving keys are exactly the level-0 ones
    for key in kept.coeffs:
        w2 = np.asarray(ms.modes, float) ** 2
        assert divisor(w2, key, ms) == 0.0
    assert 5 in res.resonant and len(res.resonant[5]) > 0
    assert res.eps_r > 0


@pytest.mark.parametrize("lower_levels", ["all", 1, 0])
def test_birkhoff_tail_report_reads_upper_bounds_only(setup_m1, monkeypatch, lower_levels):
    ms, fs, z2, P6 = setup_m1
    calls, ascent = [], spectral._posy_ascent

    def counting(problems, *args):
        calls.append(len(problems))
        return ascent(problems, *args)

    monkeypatch.setattr(spectral, "_posy_ascent", counting)
    cfg = NormalFormConfig(r=3, gamma=0.5, J_max=5, norm_lower_levels=lower_levels)
    res = birkhoff(z2, P6, fs, cfg)
    # one batched ascent over the chosen levels of P for norm_p, none for the tail
    n_levels = len(split_levels(P6))
    assert calls == {"all": [n_levels], 1: [1], 0: []}[lower_levels]
    assert [e.j for e in res.tail_report] == sorted(res.resonant)
    for e in res.tail_report:
        parts = split_levels(res.resonant[e.j]).values()
        assert e.norm_upper == max((part.modulus().l1() for part in parts), default=0.0)


def test_config_lower_levels_validated():
    for bad in (-1, 2.7, True, None, "top"):
        with pytest.raises(ValueError, match="lower_levels"):
            NormalFormConfig(r=5, gamma=0.5, norm_lower_levels=bad)
    for good in ("all", 0, 3):
        assert NormalFormConfig(r=5, gamma=0.5, norm_lower_levels=good).norm_lower_levels == good


def test_birkhoff_gamma_resonance_exact(setup_m1):
    ms, fs, z2, P6 = setup_m1
    cfg = NormalFormConfig(r=5, gamma=0.5, J_max=6)
    res = birkhoff(z2, P6, fs, cfg)
    for j in range(3, 6):
        for key in res.resonant.get(j, HomPoly(ms, j, {})).coeffs:
            assert abs(divisor(fs, key)) < 0.5
    assert res.tail_ok


def test_birkhoff_conjugation_identity(setup_m1, rng):
    ms, fs, z2, P6 = setup_m1
    cfg = NormalFormConfig(r=3, gamma=0.5, J_max=5)
    res = birkhoff(z2, P6, fs, cfg)
    for _ in range(5):
        u = random_state(ms, rng, norm=res.eps_r / 2)
        v = transform_state(u, res.generators, "forward")
        lhs = float(z2(u)) + float(P6(u))
        rhs = res.hamiltonian_value(v)
        tol = 10 * (np.linalg.norm(u) / res.eps_r) ** (2 * cfg.J_max) \
            * res.norm_p.upper
        assert abs(lhs - rhs) <= tol


def test_transform_state_closed_form():
    # chi = (1/2)|u1|^4 flows by a phase rotation e^{-2i|a|^2 t}
    ms = ModeSet.dirichlet(1)
    chi = HomPoly(ms, 2, {((1, 1), (1, 1)): 0.5})
    a = 0.12 - 0.09j  # midpoint phase error (2|a|^2)^3 dt^2/12 stays below 1e-10
    v = flows.flow(chi.gradient, np.array([a]), 1.0, 0.002)
    want = np.exp(-2j * abs(a) ** 2) * a
    assert abs(v[0] - want) < 1e-10
    # round trip
    w = flows.flow(chi.gradient, v, -1.0, 0.002)
    assert abs(w[0] - a) < 1e-12


def test_transform_state_norm_and_roundtrip(setup_m1, rng):
    ms, fs, z2, P6 = setup_m1
    cfg = NormalFormConfig(r=3, gamma=0.5, J_max=5)
    res = birkhoff(z2, P6, fs, cfg)
    u = random_state(ms, rng, norm=0.3)
    v = transform_state(u, res.generators, "forward")
    assert abs(np.linalg.norm(v) - np.linalg.norm(u)) <= 1e-11 * np.linalg.norm(u)
    back = transform_state(v, res.generators, "inverse")
    assert np.linalg.norm(back - u) <= 1e-8


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_transform_state_stack_matches_rows(setup_m1, rng, direction):
    # the rows of a stack flow on their own: bit for bit the one-state transform
    ms, fs, z2, P6 = setup_m1
    cfg = NormalFormConfig(r=3, gamma=0.5, J_max=5)
    res = birkhoff(z2, P6, fs, cfg)
    stack = np.array([random_state(ms, rng, norm=n) for n in (0.3, 0.0, 0.05, 0.2)])
    got = transform_state(stack, res.generators, direction)
    want = [transform_state(u, res.generators, direction) for u in stack]
    assert np.array_equal(got, want)


def test_flow_closeness_bound(rng):
    # ||Phi^t(u) - u|| <= 2 q |t| ||chi||_inf ||u||^{2q-1} with the l1 upper bound
    ms = ModeSet.symmetric(1)
    chi = random_balanced(ms, 2, rng, n_keys=4)
    upper = chi.l1()
    u = random_state(ms, rng, norm=0.5)
    v = flows.flow(chi.gradient, u, 1.0, 0.02)
    assert np.linalg.norm(v - u) <= 2 * chi.q * upper * 0.5 ** (2 * chi.q - 1) * (1 + 1e-9)


def test_check_krgamma(setup_m1, monkeypatch):
    # free frequencies on a window containing 1, 5, 7: 2 w5 = w1 + w7 resonates
    ms = ModeSet.dirichlet(7)
    fs = freqs_conv(np.zeros(7), ms)
    rep = check_krgamma(ms, fs, k=1, r=2, gamma=1e-9)
    assert not rep.certified
    found = any(sorted(v[0]) == [1, 7] and sorted(v[1]) == [5, 5]
                or sorted(v[0]) == [5, 5] and sorted(v[1]) == [1, 7]
                for v in rep.violations)
    assert found
    # a sampled potential with gamma below the spectral gap is certified
    ms5 = ModeSet.symmetric(3)
    V = sample_conv_potential(1.0, 3, seed=2)
    fs5 = freqs_conv(V, ms5)
    g = suggest_gamma(ms5, fs5, k=1, r=3)
    rep2 = check_krgamma(ms5, fs5, k=1, r=3, gamma=g)
    assert rep2.certified and rep2.pairs_checked == 7 ** 2 + 28 ** 2 + 84 ** 2
    # the budget guard fires at q=2, where the running total reaches 833 pairs
    monkeypatch.setattr(nf, "_MAX_PAIRS", 800)
    with pytest.raises(BudgetError, match="half-degree 2"):
        check_krgamma(ms5, fs5, k=1, r=3, gamma=g)


_MS = ModeSet.symmetric(1)
_FS = freqs_conv(np.zeros(3), _MS)
_REMOVED_SETTINGS = {
    "strichartz_scan-budget_keys": lambda: dynamics.strichartz_scan([1], budget_keys=10),
    "strichartz_scan-iters": lambda: dynamics.strichartz_scan([1], iters=600),
    "remainder_g-sigma": lambda: dynamics.remainder_g(np.zeros(5), ModeSet.symmetric(2), 1,
                                                      sigma=1),
    "remainder_g-c6": lambda: dynamics.remainder_g(np.zeros(5), ModeSet.symmetric(2), 1,
                                                   c6=1.0),
    "strichartz_identity_check-mode_set": lambda: spectral.strichartz_identity_check(
        _MS, 0, np.ones(3), p6=build_p6(_MS)),
    "strichartz_identity_check-c6": lambda: spectral.strichartz_identity_check(
        build_p6(_MS), 0, np.ones(3), c6=1.0),
    "strichartz_quadrature-c6": lambda: spectral.strichartz_quadrature(_MS, 0, np.ones(3),
                                                                       c6=1.0),
    "certify_strong-max_tuples": lambda: resonance.certify_strong(
        _FS, resonance.NRBounds(2, 2, 1), alpha=0.4, max_tuples=10),
    "certify_weak-max_tuples": lambda: resonance.certify_weak(
        _FS, resonance.NRBounds(2, 2, 1), s_star=1.0, max_tuples=10),
    "check_krgamma-max_pairs": lambda: check_krgamma(_MS, _FS, 1, 2, 0.5, max_pairs=10),
    "p6_eigen_coeffs-max_window": lambda: sturm.p6_eigen_coeffs(None, 5, max_window=12),
    "remainder_scaling-fine_factor": lambda: dynamics.remainder_scaling([4], 0.45, fine_factor=5),
    "verify_ef_decay-sigma": lambda: sturm.verify_ef_decay(None, sigma=1.0),
    "FrequencySet-omega": lambda: spectral.FrequencySet(_MS, _FS.omega, _MS.squares,
                                                        _FS.omega_frac),
    "FrequencySet-omega_int": lambda: spectral.FrequencySet(_MS, omega_int=_MS.squares,
                                                            omega_frac=_FS.omega_frac),
    **{f"{fn.__name__}-omega_int": (lambda fn=fn, args=args: fn(build_p6(_MS), *args,
                                                                omega_int=_MS.squares))
       for fn, args in ((spectral.split_levels, ()), (spectral.project, (0,)),
                        (spectral.level_enclosures, ()), (spectral.norm_h, ()),
                        (spectral.norm_c, ()))},
    **{f"NormalFormConfig-{name}": (lambda name=name, value=value: NormalFormConfig(
        r=5, gamma=0.5, **{name: value}))
       for name, value in (("p", 3), ("A", 2.0), ("B_p", 100.0), ("flow_dt", 0.05),
                           ("flow_tol", 1e-14), ("norm_iters", 300))},
    "transform_state-flow_dt": lambda: transform_state(np.zeros(3), [], flow_dt=0.05),
    "transform_state-flow_tol": lambda: transform_state(np.zeros(3), [], flow_tol=1e-14),
    "flow-tol": lambda: flows.flow(lambda v: v, np.ones(3), 1.0, 0.05, tol=1e-14),
    "midpoint_step-tol": lambda: flows.midpoint_step(lambda v: v, np.ones(3), 0.05, 0.0,
                                                     np.ones(3), tol=1e-14),
    "midpoint_step-omega": lambda: flows.midpoint_step(lambda v: v, np.ones(3), 0.05),
    "midpoint_step-guess": lambda: flows.midpoint_step(lambda v: v, np.ones(3), 0.05, 0.0),
}


@pytest.mark.parametrize("call", _REMOVED_SETTINGS.values(), ids=_REMOVED_SETTINGS)
def test_removed_settings_are_not_accepted(call):
    # budgets are module constants and the paper's constants class constants
    with pytest.raises(TypeError):
        call()


def test_removed_fields_are_absent(setup_m1):
    # fields that no caller read or that the mode set fixes, and the grid that
    # eigenfunction_values returned
    ms, fs, z2, P6 = setup_m1
    res = birkhoff(z2, P6, fs, NormalFormConfig(r=3, gamma=0.5))
    assert not hasattr(res, "config") and not hasattr(res, "omega")
    rep = check_krgamma(ms, fs, k=1, r=2, gamma=0.5)
    assert not any(hasattr(rep, name) for name in ("mode", "r", "gamma"))
    assert not hasattr(fs, "omega_int")
    drift = dynamics.action_drift(None, z2, P6, 1, [0.1, 0.05], T=0.1, dt=0.05)
    assert not hasattr(drift, "mode")
    basis = sturm.dirichlet_eig(np.zeros(3), 2)
    F = sturm.eigenfunction_values(basis, 10)
    assert isinstance(F, np.ndarray) and F.shape == (2, 10)


def test_paper_constants_read_as_before():
    cfg = NormalFormConfig(r=5, gamma=0.5)
    assert (cfg.p, cfg.A, cfg.B_p, cfg.norm_iters) == (3, 2.0, 100.0, 300)
    # the generator flows' step and the midpoint tolerance are module constants
    assert (nf._FLOW_DT, flows._TOL) == (0.05, 1e-14)
    assert not hasattr(cfg, "flow_dt") and not hasattr(cfg, "flow_tol")


def test_suggest_gamma_keeps_the_pair_budget(monkeypatch):
    # the scan raises before the table that crosses the shared budget, as
    # check_krgamma does: 7**2 + 28**2 = 833 pairs by q = 2 on 7 modes
    ms = ModeSet.symmetric(3)
    fs = freqs_conv(sample_conv_potential(1.0, 3, seed=2), ms)
    monkeypatch.setattr(nf, "_MAX_PAIRS", 800)
    with pytest.raises(BudgetError, match="half-degree 2"):
        suggest_gamma(ms, fs, k=1, r=3)


@pytest.mark.parametrize("scope", ["mode", "ALL", ""])
def test_suggest_gamma_has_one_scope(scope):
    ms = ModeSet.symmetric(2)
    fs = freqs_conv(sample_conv_potential(1.0, 2, seed=2), ms)
    assert suggest_gamma(ms, fs, k=1, r=2, scope="all") == suggest_gamma(ms, fs, k=2, r=2)
    with pytest.raises(ValueError, match="scope"):
        suggest_gamma(ms, fs, k=1, r=2, scope=scope)


def test_check_krgamma_counts_past_the_listed_violations():
    # seed-0 potential at M=3 with gamma=1: 394 offending pairs, 200 listed
    ms = ModeSet.symmetric(3)
    fs = freqs_conv(sample_conv_potential(1.0, 3, seed=0), ms)
    rep = check_krgamma(ms, fs, k=1, r=3, gamma=1.0)
    keys = [key for q in (1, 2, 3) for key in combinations_with_replacement(ms.modes, q)]
    offending = sum(1 for a in keys for b in keys if len(a) == len(b)
                    and a.count(1) != b.count(1) and abs(divisor(fs, (a, b))) <= 1.0)
    assert (rep.n_violations, len(rep.violations)) == (offending, 200) == (394, 200)
    assert not rep.certified
    for key_k, key_l, omega in rep.violations:
        assert key_k.count(1) != key_l.count(1)
        assert abs(omega) <= 1.0
        assert omega == pytest.approx(divisor(fs, (key_k, key_l)), abs=1e-12)


def test_chi_c_norm_bound(setup_m1):
    # ||chi||_C <= 8 (r+1) gamma^{-1} <|w_f|> ||Q||_H in the safe direction
    from qnls.spectral import norm_c, norm_h, japanese
    ms, fs, z2, P6 = setup_m1
    gamma = 0.5
    chi, _ = solve_cohomological(P6, fs, gamma)
    lhs = norm_c(chi, multistart=8, iters=150).lower
    rhs = (8 * (P6.q + 1) / gamma * japanese(fs.frac_inf)
           * norm_h(P6, multistart=8, iters=150).upper)
    assert lhs <= rhs * (1 + 1e-10)
