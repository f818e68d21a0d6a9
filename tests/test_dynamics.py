import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls.dynamics import (action_drift, gamma_from_certificate, integrate,
                           plan_parameters, remainder_g, remainder_scaling,
                           sobolev_profile_state, strichartz_scan)
from qnls import dynamics, flows, poly, spectral
from qnls.errors import BudgetError
from qnls.nf import NormalFormConfig, birkhoff, transform_state
from qnls.poly import HomPoly, ModeSet, build_p6, build_z2
from qnls.spectral import NormEnclosure, freqs_conv, split_levels, sup_norm
from qnls.resonance import sample_conv_potential
from conftest import random_state


def _system(M, seed=None, scale=0.3):
    ms = ModeSet.symmetric(M)
    if seed is None:
        V = np.zeros(ms.size)
    else:
        V = sample_conv_potential(1.0, M, seed) * scale
    fs = freqs_conv(V, ms)
    return ms, fs, build_z2(ms, fs), build_p6(ms)


def test_integrate_linear_closed_form(rng):
    ms, fs, z2, _ = _system(1, seed=4)
    u0 = random_state(ms, rng, norm=0.4)
    traj = integrate(z2, HomPoly(ms, 3, is_real=True), u0, T=1.0, dt=1e-3)
    exact = np.exp(-1j * np.outer(traj.times, fs.omega)) * u0[None, :]
    # per-mode modulus is exact for the midpoint map
    assert np.max(np.abs(np.abs(traj.states) - np.abs(u0)[None, :])) < 1e-13
    bound = np.max(np.abs(fs.omega)) ** 3 * 1e-6 * 1.0 / 12
    assert np.max(np.abs(traj.states - exact)) < max(1e-10, 2 * bound)


def test_integrate_single_mode_closed_form():
    ms = ModeSet.symmetric(0)
    z2 = build_z2(ms, np.array([0.7]))
    p6 = build_p6(ms)
    a = np.array([0.3 + 0.2j])
    traj = integrate(z2, p6, a, T=2.0, dt=1e-3)
    om = 0.7 + abs(a[0]) ** 4
    exact = np.exp(-1j * om * traj.times)[:, None] * a[None, :]
    assert np.max(np.abs(traj.states - exact)) < 1e-7


def test_integrate_rejects_negative_time_and_step():
    ms, fs, z2, p6 = _system(1)
    u0 = np.full(ms.size, 0.1 + 0j)
    for T, dt in ((-1.0, 0.01), (1.0, 0.0)):
        with pytest.raises(ValueError):
            integrate(z2, p6, u0, T=T, dt=dt)
    # T = 0 is one step of size 0: the state stays put
    traj = integrate(z2, p6, u0, T=0.0, dt=0.01)
    assert traj.times.tolist() == [0.0, 0.0] and np.array_equal(traj.states[-1], u0)


@pytest.mark.parametrize("max_samples", [0, -3, math.nan])
def test_integrate_checks_max_samples(max_samples):
    # 0 once divided by zero, and a negative count stored every step
    ms, fs, z2, p6 = _system(1)
    u0 = np.full(ms.size, 0.1 + 0j)
    with pytest.raises(ValueError, match="max_samples must be finite and positive"):
        integrate(z2, p6, u0, T=0.1, dt=0.01, max_samples=max_samples)
    with pytest.raises(ValueError, match="max_samples must be finite and positive"):
        action_drift(None, z2, p6, k=1, eps_list=[0.1, 0.05], T=0.1, dt=0.01,
                     max_samples=max_samples)


def test_integrate_energy_second_order(rng):
    ms, fs, z2, p6 = _system(3, seed=7)
    u0 = random_state(ms, rng, norm=0.4)
    d1 = integrate(z2, p6, u0, T=5.0, dt=0.02).energy_drift()
    d2 = integrate(z2, p6, u0, T=5.0, dt=0.01).energy_drift()
    assert 3.3 < d1 / d2 < 4.7


def test_integrate_norm_conservation(rng):
    ms, fs, z2, p6 = _system(3, seed=7)
    u0 = random_state(ms, rng, norm=0.3)
    traj = integrate(z2, p6, u0, T=50.0, dt=0.01)
    assert traj.norm_drift() < 1e-10


def test_integrate_gauge_covariance(rng):
    ms, fs, z2, p6 = _system(2, seed=3)
    u0 = random_state(ms, rng, norm=0.3)
    t1 = integrate(z2, p6, u0, T=10.0, dt=0.01)
    t2 = integrate(z2, p6, np.exp(0.73j) * u0, T=10.0, dt=0.01)
    assert np.max(np.abs(t1.actions - t2.actions)) < 1e-12


def test_integrate_generic_vs_fast_gradient(rng):
    # the dense-DFT sextic and its generic copy must give the same dynamics
    ms, fs, z2, p6 = _system(2, seed=3)
    u0 = random_state(ms, rng, norm=0.3)
    t1 = integrate(z2, p6, u0, T=2.0, dt=0.01)
    p6_generic = 1.0 * p6  # arithmetic returns a plain HomPoly
    assert type(p6_generic) is HomPoly
    t2 = integrate(z2, p6_generic, u0, T=2.0, dt=0.01)
    assert np.max(np.abs(t1.states - t2.states)) < 1e-11



@pytest.mark.parametrize("case", ["sextic", "linear", "zero_row"])
def test_integrate_stack_matches_single_rows(case):
    ms, fs, z2, p6 = _system(5, seed=2, scale=1.0)
    rng = np.random.default_rng(3)
    u0 = np.array([random_state(ms, rng, norm=eps) for eps in (0.1, 0.07, 0.05)])
    if case == "zero_row":
        u0[1] = 0.0
    if case == "linear":
        p6 = HomPoly(ms, 3, is_real=True)
    trajs = integrate(z2, p6, u0, T=10.0, dt=0.005, max_samples=40)
    assert len(trajs) == 3
    for u, traj in zip(u0, trajs):
        single = integrate(z2, p6, u, T=10.0, dt=0.005, max_samples=40)
        assert np.array_equal(traj.times, single.times)
        scale = max(np.abs(single.states).max(), 1e-300)
        assert np.abs(traj.states - single.states).max() <= 1e-12 * scale
        for got, want in ((traj.norm_sq, single.norm_sq), (traj.energy, single.energy)):
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
    if case == "zero_row":
        assert not np.any(trajs[1].states)


def test_integrate_rejects_misshaped_state():
    ms, fs, z2, p6 = _system(1)
    for bad in (np.zeros(ms.size + 1), np.zeros((2, 2, ms.size))):
        with pytest.raises(ValueError):
            integrate(z2, p6, bad, T=0.1, dt=0.01)

def test_trajectory_actions_are_the_squared_moduli_of_the_states(rng):
    ms, fs, z2, p6 = _system(2, seed=3)
    u0 = np.array([random_state(ms, rng, norm=eps) for eps in (0.3, 0.1)])
    for traj in [integrate(z2, p6, u0[0], T=1.0, dt=0.01),
                 *integrate(z2, p6, u0, T=1.0, dt=0.01, max_samples=7)]:
        actions = np.abs(traj.states) ** 2
        assert np.array_equal(traj.actions, actions)
        assert np.array_equal(traj.norm_sq, actions.sum(axis=1))
    # both are read from the states, not stored beside them
    assert set(dynamics.Trajectory.__dataclass_fields__) == {"mode_set", "times", "states",
                                                             "energy"}


def test_trajectory_csv(tmp_path, rng):
    ms, fs, z2, p6 = _system(1, seed=2)
    traj = integrate(z2, p6, random_state(ms, rng, norm=0.2), T=1.0, dt=0.01)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,norm_sq,H," + ",".join(f"I_{m}" for m in ms.modes)
    assert len(lines) == traj.times.size + 1


def linear_comparison(fs, z2, p6, u0, T, dt):
    """max_t ||u(t) - exp(-i t omega) u0|| over the stored samples."""
    traj = integrate(z2, p6, u0, T, dt)
    return max(np.linalg.norm(s - np.exp(-1j * fs.omega * t) * u0)
               for t, s in zip(traj.times, traj.states))


def test_linear_comparison_trivial_cases(rng):
    ms, fs, z2, p6 = _system(1)
    u0 = random_state(ms, rng, norm=0.1)
    # without the sextic term, only the midpoint phase error remains
    phase_err = np.max(np.abs(fs.omega)) ** 3 * 1e-6 * 1.0 / 12 * 0.1
    no_sextic = HomPoly(ms, 3, is_real=True)
    assert linear_comparison(fs, z2, no_sextic, u0, T=1.0, dt=1e-3) < 2 * phase_err
    # deviation vanishes linearly with the horizon
    bound = 2e-4 * np.linalg.norm(p6.gradient(u0))
    assert linear_comparison(fs, z2, p6, u0, T=1e-4, dt=1e-5) < bound


def test_linear_comparison_quintic_scaling(rng):
    # halving the amplitude shrinks the deviation by about 2^5
    ms, fs, z2, p6 = _system(1)
    direction = random_state(ms, rng, norm=1.0)
    d1 = linear_comparison(fs, z2, p6, 0.12 * direction, T=0.5, dt=1e-3)
    d2 = linear_comparison(fs, z2, p6, 0.06 * direction, T=0.5, dt=1e-3)
    assert d1 / d2 == pytest.approx(32.0, rel=0.2)


def test_remainder_zero_and_support(rng):
    fine = ModeSet.symmetric(10)
    u = np.zeros(21, dtype=complex)
    u[fine.index(0)] = 0.5
    assert np.max(np.abs(remainder_g(u, fine, 2))) == 0.0
    # a single high mode: all quintic output lands outside the coarse window
    u2 = np.zeros(21, dtype=complex)
    u2[fine.index(7)] = 0.3
    assert np.max(np.abs(remainder_g(u2, fine, 2))) < 1e-18
    with pytest.raises(ValueError):
        remainder_g(u, fine, 10)


def test_remainder_scaling_slope():
    res = remainder_scaling([4, 8, 16, 32], s=0.45, seed=1)
    assert set(res) == {"s", "rows", "slope"}
    assert res["slope"] <= -(0.45 - 0.4) + 0.1
    norms = [r["g_norm"] for r in res["rows"]]
    assert all(b < a for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("M_list, s, match", [
    ([4], 0.45, "at least two"), ([], 0.45, "at least two"), ([4, 4], 0.45, "distinct"),
    ([0, 4], 0.45, "at least 1"), ([4, 8], math.nan, "finite"), ([4, 8], -math.inf, "finite")])
def test_remainder_scaling_needs_two_distinct_sizes_and_a_finite_s(M_list, s, match):
    # a slope needs two points; the checks raise before any remainder is computed
    with pytest.raises(ValueError, match=match):
        remainder_scaling(M_list, s)


def test_window_transform_leaves_the_keys_unlisted(monkeypatch, rng):
    # integration at M=64 and the remainder on the M_f=160 window evaluate the
    # sextic only through its window transform; listing its keys would fail
    def listed(ms):
        raise AssertionError("the sextic's keys were listed")

    monkeypatch.setattr(poly, "momentum_buckets", listed)
    ms, fs, z2, p6 = _system(64)
    traj = integrate(z2, p6, random_state(ms, rng, norm=0.1), T=5e-4, dt=1e-4)
    assert traj.times.size == 6 and traj.norm_drift() < 1e-12
    assert "idx_k" not in vars(p6)
    u = sobolev_profile_state(160, s=0.45, eps=1.0, seed=1)
    g = remainder_g(u, ModeSet.symmetric(160), 32)
    assert g.shape == (65,) and np.all(np.isfinite(g)) and np.any(g)


def test_sobolev_profile_norm():
    u = sobolev_profile_state(20, s=0.45, eps=0.3, seed=0)
    modes = np.arange(-20, 21)
    hs = math.sqrt(np.sum((1 + np.abs(modes)) ** 0.9 * np.abs(u) ** 2))
    assert hs == pytest.approx(0.3, rel=1e-12)


def test_strichartz_scan_small(monkeypatch):
    scan = strichartz_scan([1, 2, 4], multistart=24, seed=0)
    assert scan.monotone()
    assert len(scan.exponents) == 2
    assert scan.exponents[1] < scan.exponents[0]
    assert all(r.lower <= r.upper for r in scan.rows)
    # M=64 holds 366,145 sorted triples times 131 starts, past the 5,000,000-entry
    # budget; they are counted in closed form, none is listed
    def listed(ms):
        raise AssertionError("the window's triples were listed")

    monkeypatch.setattr(spectral, "momentum_buckets", listed)
    monkeypatch.setattr(poly, "momentum_buckets", listed)
    with pytest.raises(BudgetError, match="M=64"):
        strichartz_scan([64])


def test_strichartz_budget_admits_m32(monkeypatch):
    # M=32 holds 47,905 sorted triples times 68 starts (M=16's witness among
    # them); sup_norm's guard passes and the stubbed cells and ascent run
    seen = []

    class Cells:
        upper = 1.0

        def __init__(self, ms, nb):
            seen.append((ms.size, nb))

    def ascent(cells, starts, nb, iters):
        return [(1.0, np.full(starts.shape[1], starts.shape[1] ** -0.5))]

    monkeypatch.setattr(spectral, "_Cells", Cells)
    monkeypatch.setattr(spectral, "_ascend", ascent)
    strichartz_scan([16, 32])
    assert seen == [(33, 48), (65, 68)]
    assert math.comb(65 + 2, 3) * 68 <= spectral._MAX_ENTRIES


@pytest.mark.parametrize("M_list", [[1, 1], [2, 1, 2], [0, 1], [-1, 2], []])
def test_strichartz_scan_needs_distinct_positive_sizes(M_list):
    match = None if M_list else "at least one window size"
    with pytest.raises(ValueError, match=match):
        strichartz_scan(M_list, multistart=2)


@functools.lru_cache(maxsize=None)
def _sparse_level0(M, c6, window="symmetric"):
    """The oracle path: level 0 of the sextic modulus, listed key by key."""
    ms = getattr(ModeSet, window)(M)
    return split_levels(build_p6(ms, c6=c6))[0].modulus()


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 8), c6=st.sampled_from([1.0, 1.7]), n_starts=st.integers(1, 12),
       window=st.sampled_from(["symmetric", "dirichlet"]), seed=st.integers(0, 2 ** 32 - 1))
def test_sextic_cells_match_the_sparse_level0(M, c6, n_starts, window, seed):
    P = _sparse_level0(M, c6, window)
    n = P.mode_set.size
    rng = np.random.default_rng(seed)
    Y = np.abs(rng.standard_normal((n_starts, n))) * (rng.random((n_starts, n)) > 0.2)
    moving, done = rng.random(n_starts) < 0.6, np.zeros(n_starts, bool)
    terms = [(np.concatenate([P.idx_k, P.idx_l], axis=1), P.coef.real * P.csize)]
    # the cells run at c6 = 1; the level-0 part at c6 is c6 times theirs
    posy, cells = spectral._Posy(terms, [n_starts], n), spectral._Cells(P.mode_set, n_starts)
    np.testing.assert_allclose(c6 * cells.value(Y), posy.value(Y), rtol=1e-13, atol=0)
    want, got = posy.gradient(moving, done), c6 * cells.gradient(moving, done)
    assert got.shape == want.shape == (moving.sum(), n)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * np.abs(w).max())


@pytest.mark.parametrize("c6", [1.0, 1.7])
@pytest.mark.parametrize("M", range(1, 9))
def test_sextic_cells_count_the_level0_l1(M, c6):
    upper = c6 * spectral._Cells(ModeSet.symmetric(M), 1).upper
    assert upper == pytest.approx(_sparse_level0(M, c6).l1(), rel=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_strichartz_scan_matches_the_sparse_path(seed):
    M_list, scan = [1, 2, 4, 8], strichartz_scan([1, 2, 4, 8], seed=seed)
    lower, upper, witness = [], [], None
    for M in M_list:      # the scan's loop on the listed level-0 modulus, through sup_norm
        P, extra = _sparse_level0(M, 1.0), None
        if witness is not None:
            extra = np.zeros((1, P.mode_set.size))
            off = (P.mode_set.size - witness.size) // 2
            extra[0, off:off + witness.size] = witness
        enc = sup_norm(P, multistart=48, iters=dynamics._SCAN_ITERS, seed=seed,
                       extra_starts=extra)
        lower.append(enc.lower)
        upper.append(P.l1())
        witness = enc.witness
    exponents = [math.log2(b / a) for a, b in zip(lower, lower[1:])]
    assert [r.M for r in scan.rows] == M_list
    assert [r.lower for r in scan.rows] == pytest.approx(lower, rel=1e-12)
    assert [r.upper for r in scan.rows] == pytest.approx(upper, rel=1e-12)
    assert scan.exponents == pytest.approx(exponents, rel=1e-12)


def test_action_drift_linear_is_zero(rng):
    ms, fs, z2, _ = _system(2, seed=3)
    res = action_drift(None, z2, HomPoly(ms, 3, is_real=True), k=1, eps_list=[0.1, 0.05],
                       T=5.0, dt=0.01)
    assert all(r.drift_raw < 1e-13 for r in res.rows)
    assert all(r.drift_transformed is None for r in res.rows)


@pytest.mark.parametrize("eps_list", [[0.1], [0.1, 0.1], [0.1, -0.05], [0.1, 0.0], []])
def test_action_drift_needs_two_distinct_positive_eps(eps_list):
    ms, fs, z2, _ = _system(2, seed=3)
    with pytest.raises(ValueError):
        action_drift(None, z2, None, k=1, eps_list=eps_list, T=1.0, dt=0.01)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
def test_action_drift_needs_positive_T(T):
    # at T = 0 every drift is 0 and the log-log fit of the exponent has no data
    ms, fs, z2, p6 = _system(2, seed=3)
    with pytest.raises(ValueError, match="T must be positive"):
        action_drift(None, z2, p6, k=1, eps_list=[0.1, 0.05], T=T, dt=0.01)


def test_action_drift_rows_keep_eps_order():
    # all eps values advance as one stack; every row must equal a one-state
    # run from its own initial state, eps times one shared random direction
    ms, fs, z2, p6 = _system(2, seed=3)
    eps_list = [0.1, 0.05, 0.07]
    res = action_drift(None, z2, p6, k=1, eps_list=eps_list, T=1, dt=0.01, seed=4)
    assert [r.eps for r in res.rows] == eps_list
    ki = ms.index(1)
    for eps, row in zip(eps_list, res.rows):
        rng = np.random.default_rng([4, 0])
        u0 = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
        u0 *= eps / np.linalg.norm(u0)
        I = integrate(z2, p6, u0, T=1.0, dt=0.01).actions[:, ki]
        assert row.drift_raw == pytest.approx(np.max(np.abs(I - I[0])), rel=1e-12)


def test_action_drift_passes_long_horizons_unclamped(monkeypatch):
    # one integrate call for the whole sweep, with T as given
    import qnls.dynamics as dynamics

    ms, fs, z2, p6 = _system(2, seed=3)
    seen, run = [], dynamics.integrate

    def spy(z2, p6, u0, T, dt, **kw):
        seen.append((u0.shape, T))
        return run(z2, p6, u0, 0.1, dt, **kw)     # a short run stands in

    monkeypatch.setattr(dynamics, "integrate", spy)
    # 2e5 at dt = 0.1 is 2e6 steps, within the step budget (2e7 at dt = 0.01 is not)
    res = action_drift(None, z2, p6, k=1, eps_list=[0.1, 0.05, 0.07], T=2e5, dt=0.1)
    assert seen == [((3, ms.size), 2e5)]


def test_integrate_seeds_steps_from_previous_state(monkeypatch):
    # every step is passed the degree-(p-1) extrapolation of its last p <= 5
    # states through the Cayley factor, sum_j (-1)^j C(p, j+1) L^(j+1) u_-j,
    # one state on the first step
    ms, fs, z2, p6 = _system(2, seed=3)
    omega = dynamics._omega_from_z2(z2)
    cayley = (1 - 0.005j * omega) / (1 + 0.005j * omega)
    seen, step = [], flows.midpoint_step

    def spy(grad, u, dt, omega, guess):
        out = step(grad, u, dt, omega, guess)
        seen.append((u, guess, out))
        return out

    monkeypatch.setattr(flows, "midpoint_step", spy)
    rng = np.random.default_rng(1)
    for u0 in (random_state(ms, rng, norm=0.1),
               np.array([random_state(ms, rng, norm=0.1) for _ in range(2)])):
        seen.clear()
        integrate(z2, p6, u0, T=0.1, dt=0.01)
        assert len(seen) == 10
        states = [u0]
        for u, guess, out in seen:
            assert np.array_equal(u, states[-1])
            past = states[::-1][:5]
            p = len(past)
            want = sum((-1) ** j * math.comb(p, j + 1) * cayley ** (j + 1) * past[j]
                       for j in range(p))
            assert np.abs(guess - want).max() <= 1e-14 * np.abs(u).max()
            states.append(out)


def test_action_drift_stacked_transform_matches_per_sample_loop():
    ms, fs, z2, p6 = _system(2, seed=3)
    res = birkhoff(z2, p6, fs, NormalFormConfig(r=3, gamma=0.5, J_max=4))
    ki = ms.index(1)
    eps_list = [0.1, 0.05, 0.07]
    got = action_drift(res, z2, p6, k=1, eps_list=eps_list, T=1.0, dt=0.01,
                       max_samples=40, seed=4)
    rng = np.random.default_rng([4, 0])
    shared = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    shared /= np.linalg.norm(shared)
    u0 = np.array([eps * shared for eps in eps_list])
    for row, traj in zip(got.rows, integrate(z2, p6, u0, 1.0, 0.01, max_samples=40)):
        v = np.array([transform_state(s, res.generators, "forward") for s in traj.states])
        vk = np.abs(v[:, ki]) ** 2
        assert row.drift_transformed == float(np.max(np.abs(vk - vk[0])))

def test_plan_examples():
    plan = plan_parameters(1e-2, nu=1.0, alpha=1.0)
    assert plan.upsilon == pytest.approx((1 / 16) * math.exp(-3), rel=1e-12)
    assert plan.upsilon == pytest.approx(3.112e-3, rel=1e-3)
    assert plan.alpha_nu == pytest.approx(1.0 + math.log(16.0) / 3.0, rel=1e-12)
    assert plan.r >= 3 and plan.M >= 1 and plan.T_eps > 1
    assert isinstance(plan.feasible, bool)
    with pytest.raises(ValueError):
        plan_parameters(1e-2, nu=3.0, alpha=1.0)
    with pytest.raises(ValueError):
        plan_parameters(2.0, nu=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="beta_s"):
        plan_parameters(1e-2, nu=1.0, alpha=1.0, beta_s=0.0)   # was a ZeroDivisionError


def test_gamma_from_certificate():
    g = gamma_from_certificate(0.5, alpha=0.2, k=1, r=5)
    assert g == pytest.approx(0.5 * 4.0 ** (-math.exp(1.0)), rel=1e-12)
    with pytest.raises(ValueError):
        gamma_from_certificate(0.0, 0.2, 1, 5)


def test_action_derivative_symbolic_vs_fd(monkeypatch):
    # d/dt |v_k|^2 along the flow equals the bracket of the action with the
    # Hamiltonian: exactly in the raw variables, and through the residual
    # degrees j > r after the normalizing transform
    from qnls.nf import NormalFormConfig, birkhoff, suggest_gamma
    from qnls.poly import HomPoly, poisson

    ms, fs, z2, p6 = _system(1, seed=3, scale=1.0)
    I1 = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    ki = ms.index(1)
    dt = 0.001
    rng = np.random.default_rng(1)
    u0 = random_state(ms, rng, norm=0.15)
    traj = integrate(z2, p6, u0, T=0.2, dt=dt, max_samples=10 ** 9)

    # raw variables: d/dt I_1 = {I_1, H}(u), and Z2 commutes with the action
    bh = poisson(I1, p6)
    sym = np.array([complex(bh(s)).real for s in traj.states])
    fd = (np.abs(traj.states[2:, ki]) ** 2
          - np.abs(traj.states[:-2, ki]) ** 2) / (2 * dt)
    assert np.abs(fd - sym[1:-1]).max() <= 1e-3 * np.abs(sym).max()

    # transformed variables: only the degrees beyond r drive the action
    gamma = suggest_gamma(ms, fs, k=1, r=3)
    cfg = NormalFormConfig(r=3, gamma=gamma, J_max=5)
    res = birkhoff(z2, p6, fs, cfg)
    tails = [poisson(I1, Q) for j, Q in res.resonant.items() if j > cfg.r]
    states = traj.states[::4]
    vk, sym_t = [], []
    # the generator flows at a tenth of transform_state's step and tolerance
    monkeypatch.setattr(flows, "_TOL", 1e-15)
    for s in states:
        v = s
        for chi in res.generators:
            v = flows.flow(chi.gradient, v, 1.0, 0.005)
        vk.append(abs(v[ki]) ** 2)
        sym_t.append(sum(complex(B(v)).real for B in tails))
    vk, sym_t = np.array(vk), np.array(sym_t)
    fd_t = (vk[2:] - vk[:-2]) / (2 * 4 * dt)
    assert np.abs(fd_t - sym_t[1:-1]).max() <= 0.15 * np.abs(sym_t).max()


def test_sextic_value_matches_polynomial(rng):
    # dense-DFT value and gradient of build_p6 against the generic sparse
    # kernels; the asymmetric windows check that the minimal grid does not alias
    windows = ([ModeSet.symmetric(M) for M in range(4)] + [ModeSet.dirichlet(4)]
               + [ModeSet((0, 2, 5)), ModeSet((-4, -1, 3, 7))])
    for ms in windows:
        for sigma, c6 in ((1, 1.3), (-1, 1.7)):
            p6 = build_p6(ms, sigma=sigma, c6=c6)
            u = random_state(ms, rng, norm=0.8)
            assert p6(u) == pytest.approx(HomPoly.__call__(p6, u), rel=1e-12)
            g = HomPoly.gradient(p6, u)
            assert np.linalg.norm(p6.gradient(u) - g) <= 1e-12 * np.linalg.norm(g)
