import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import flows, nf
from qnls.dynamics import _omega_from_z2, integrate
from qnls.errors import BudgetError
from qnls.flows import (MAX_ITER, _HISTORY, FlowConvergenceError, _extrapolation_table,
                        _row_norms, flow, midpoint_step)
from qnls.nf import NormalFormConfig, birkhoff, suggest_gamma, transform_state
from qnls.poly import ModeSet, build_p6, build_z2
from qnls.resonance import sample_conv_potential
from qnls.spectral import freqs_conv


def _reference_step(grad, u, dt, tol=1e-14, max_iter=60):
    """The one-state midpoint solve with the explicit Euler guess, kept as the
    oracle of midpoint_step at omega=0 and guess=u."""
    scale = float(np.linalg.norm(u))
    if scale == 0.0:
        return u.copy()
    delta = dt * (-1j) * grad(u)
    prev_res = np.inf
    for _ in range(max_iter):
        cand = dt * (-1j) * grad(u + 0.5 * delta)
        res = float(np.linalg.norm(cand - delta))
        delta = cand
        if res <= tol * scale:
            return u + delta
        if res >= prev_res:
            if res <= 1e4 * tol * scale:
                return u + delta
            break
        prev_res = res
    raise FlowConvergenceError("stalled")


def _mask_step(grad, u, dt, tol=1e-14, omega=0.0, guess=None):
    """midpoint_step with its stop decisions on boolean row masks, kept as the
    oracle of the per-row bookkeeping; without a guess it starts from the
    Cayley step of grad at u."""
    u = np.asarray(u)
    rows = u.reshape(-1, u.shape[-1])
    g = grad if u.ndim > 1 else (lambda v: grad(v[0])[None])
    scale = _row_norms(rows)
    on = scale != 0.0
    if not on.any():
        return u.copy()
    bound, floor = tol * scale, 1e4 * tol * scale
    step, den = dt * (-1j), 1 + 0.5j * dt * omega
    if guess is None:
        delta = step * g(rows) / den
    else:
        mid = 0.5 * (rows + np.asarray(guess).reshape(rows.shape))
        delta = step * (omega * rows + g(mid) - omega * mid) / den
    delta[~on] = 0.0
    prev_res = np.full(len(rows), np.inf)
    for _ in range(MAX_ITER):
        cand = step * g(rows + 0.5 * delta)
        res = _row_norms(cand - delta)
        np.copyto(delta, cand, where=on[:, None])
        going = on & ~(res <= bound)
        stalled = going & (res >= prev_res)
        if stalled.any():
            stuck = stalled & (res > floor)
            if stuck.any():
                raise FlowConvergenceError(
                    f"midpoint iteration stalled at residual {res[stuck][0]:.3e} "
                    f"(dt={dt}); reduce dt")
            going &= ~stalled
        if not going.any():
            return (rows + delta).reshape(u.shape)
        on, prev_res = going, res
    raise FlowConvergenceError(
        f"midpoint iteration did not converge in {MAX_ITER} iterations (dt={dt}); "
        "reduce dt")


def _drift_polys(M):
    """Z2 and P6 of the drift sweep on [-M, M] (potential seed 2)."""
    ms = ModeSet.symmetric(M)
    return build_z2(ms, freqs_conv(sample_conv_potential(1.0, M, 2), ms)), build_p6(ms)


def _drift_system(M):
    """Frequencies, gradient and eps stack of the drift sweep on [-M, M]
    (potential seed 2, shared direction of seed 0)."""
    z2, p6 = _drift_polys(M)
    ms = z2.mode_set
    omega = _omega_from_z2(z2)
    p6_grad = p6.gradient
    rng = np.random.default_rng([0, 0])
    d = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    d /= np.linalg.norm(d)
    stack = np.array([eps * d for eps in (0.1, 0.07, 0.05)])
    return omega, (lambda u: omega * u + p6_grad(u)), stack


@pytest.mark.parametrize("with_omega", [False, True], ids=["euler", "cayley"])
def test_midpoint_diverges_at_large_dt(with_omega):
    # the fixed-point map, not the guess, sets the convergence domain
    omega, grad, stack = _drift_system(3)
    w = omega if with_omega else 0.0
    for u in [stack] + list(stack):
        with pytest.raises(FlowConvergenceError):
            midpoint_step(grad, u, 0.5, w, u)
    for u in [stack] + list(stack):
        midpoint_step(grad, u, 0.05, w, u)


def test_midpoint_omega_zero_matches_reference_step():
    rng = np.random.default_rng(5)
    for M in (3, 5):
        omega, grad, stack = _drift_system(M)
        states = list(stack)
        for norm in (0.02, 0.3, 1.0):
            u = rng.standard_normal(stack.shape[1]) + 1j * rng.standard_normal(stack.shape[1])
            states.append(norm * u / np.linalg.norm(u))
        for u in states:
            for dt in (0.001, 0.005, 0.02):
                assert np.array_equal(midpoint_step(grad, u, dt, 0.0, u),
                                      _reference_step(grad, u, dt))
        u = v = stack[0]
        for _ in range(300):
            u, v = midpoint_step(grad, u, 0.005, 0.0, u), _reference_step(grad, v, 0.005)
        assert np.array_equal(u, v)
    zero = np.zeros(stack.shape[1], dtype=complex)
    assert np.array_equal(midpoint_step(grad, zero, 0.01, 0.0, zero), zero)


def test_midpoint_stack_rows_match_single_rows():
    omega, grad, stack = _drift_system(5)
    stack[1] = 0.0
    for w in (0.0, omega):
        out = midpoint_step(grad, stack, 0.005, w, stack)
        assert np.array_equal(out[1], stack[1])
        for u, row in zip(stack, out):
            single = midpoint_step(grad, u, 0.005, w, u)
            assert np.abs(row - single).max() <= 1e-15 * np.linalg.norm(u)


def test_midpoint_cayley_guess_same_increment():
    omega, grad, stack = _drift_system(5)
    rng = np.random.default_rng(11)
    extra = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
    extra *= 0.5 / np.linalg.norm(extra, axis=1, keepdims=True)
    for u in list(stack) + list(extra):
        for dt in (0.005, 0.02):
            euler = midpoint_step(grad, u, dt, 0.0, u)
            cayley = midpoint_step(grad, u, dt, omega, u)
            assert np.linalg.norm(cayley - euler) <= 1e-13 * np.linalg.norm(u)


def test_midpoint_cayley_guess_saves_evaluations():
    omega, grad, stack = _drift_system(5)
    calls = []

    def counted(u):
        calls.append(u.shape)
        return grad(u)

    def evals(w):
        calls.clear()
        u = stack
        for _ in range(50):
            u = midpoint_step(counted, u, 0.005, w, u)
        return len(calls)

    assert evals(omega) < evals(0.0)
    assert all(shape == stack.shape for shape in calls)



def test_row_norms_match_norm_of_each_row():
    rng = np.random.default_rng(2)
    for n in (1, 7, 11, 33):
        for _ in range(200):
            a = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
            a *= 10.0 ** rng.uniform(-20, 2, size=(3, 1))
            assert np.array_equal(_row_norms(a), [np.linalg.norm(r) for r in a])


def _linear_past(omega, u, dt):
    """The state one step of the linear flow before u."""
    return np.exp(1j * omega * dt) * u


def _linear_guess(omega, dt, u, prev):
    """The state extrapolated linearly through u from prev in the interaction
    picture, L(2u - L prev) with L the Cayley factor of omega: the guess from
    two states, written out as an oracle."""
    cayley = (1 - 0.5j * dt * omega) / (1 + 0.5j * dt * omega)
    return cayley * (2 * u - cayley * prev)


def test_midpoint_predictor_diverges_at_large_dt():
    # the guess moves only the starting increment: dt=0.5 still diverges
    omega, grad, stack = _drift_system(3)
    for w in (0.0, omega):
        for dt, fails in ((0.5, True), (0.05, False)):
            prev = _linear_past(omega, stack, dt)
            guess = _linear_guess(w, dt, stack, prev)
            for u, g in [(stack, guess)] + list(zip(stack, guess)):
                if fails:
                    with pytest.raises(FlowConvergenceError):
                        midpoint_step(grad, u, dt, w, g)
                else:
                    midpoint_step(grad, u, dt, w, g)


def test_midpoint_predictor_zero_rows_stay_zero():
    omega, grad, stack = _drift_system(5)
    stack[1] = 0.0
    guess = _linear_guess(omega, 0.005, stack, _linear_past(omega, stack, 0.005))
    out = midpoint_step(grad, stack, 0.005, omega, guess)
    assert not np.any(out[1]) and np.all(np.any(out[[0, 2]], axis=1))
    zero = np.zeros(stack.shape[1], dtype=complex)
    assert np.array_equal(midpoint_step(grad, zero, 0.005, omega, zero), zero)


def test_midpoint_predictor_stack_rows_match_single_rows():
    omega, grad, stack = _drift_system(5)
    prev = stack
    u = midpoint_step(grad, stack, 0.005, omega, stack)
    for _ in range(20):
        guess = _linear_guess(omega, 0.005, u, prev)
        out = midpoint_step(grad, u, 0.005, omega, guess)
        for row, ui, gi in zip(out, u, guess):
            single = midpoint_step(grad, ui, 0.005, omega, gi)
            assert np.abs(row - single).max() <= 1e-15 * np.linalg.norm(ui)
        u, prev = out, u


@pytest.fixture(scope="module")
def drift_paths():
    """2000 drift steps (M=5, dt=0.005) of the oracle _mask_step without a
    guess ("none"), with the oracle guess extrapolated linearly from the state
    before ("linear"), and through integrate with its five-state guess
    ("stencil"), and their gradient evaluations per step."""
    omega, grad, stack = _drift_system(5)
    calls = [0]

    def counted(g):
        def wrapper(u):
            calls[0] += 1
            return g(u)
        return wrapper

    steps = {"none": lambda u, prev: _mask_step(counted(grad), u, 0.005, omega=omega),
             "linear": lambda u, prev: midpoint_step(
                 counted(grad), u, 0.005, omega,
                 u if prev is None else _linear_guess(omega, 0.005, u, prev))}
    paths, per_step = {}, {}
    for name, step in steps.items():
        calls[0] = 0
        u, prev, path = stack, None, []
        for _ in range(2000):
            u, prev = step(u, prev), u
            path.append(u)
        paths[name], per_step[name] = np.array(path), calls[0] / 2000
    calls[0] = 0
    with pytest.MonkeyPatch.context() as mp:
        step = flows.midpoint_step
        mp.setattr(flows, "midpoint_step", lambda g, *a, **kw: step(counted(g), *a, **kw))
        trajs = integrate(*_drift_polys(5), stack, 2000 * 0.005, 0.005, max_samples=2000)
    paths["stencil"] = np.stack([t.states[1:] for t in trajs], axis=1)
    per_step["stencil"] = calls[0] / 2000
    return stack, paths, per_step


def test_midpoint_predictor_same_path(drift_paths):
    # only the guess moved: the path stays that of either oracle guess
    stack, paths, _ = drift_paths
    for oracle in ("none", "linear"):
        err = np.abs(paths["stencil"] - paths[oracle]).max(axis=(0, 2))
        assert np.all(err <= 1e-11 * np.linalg.norm(stack, axis=1))


def test_midpoint_predictor_saves_evaluations(drift_paths):
    _, _, per_step = drift_paths
    assert per_step["none"] == 8.0
    assert per_step["stencil"] <= 2.1


def test_midpoint_extrapolated_guess_on_linear_past():
    # on the Cayley past of u, u_-j = L^-j u, each row of the table gives L u;
    # with two states it is the linear guess L(2u - L prev); at omega = 0
    # (a scalar, as flow passes it) row p-1 continues any polynomial of
    # degree p-1 in the step index exactly
    omega, grad, stack = _drift_system(5)
    for w in (omega, 0.0):
        for dt in (0.005, 0.05):
            cayley = (1 - 0.5j * dt * w) / (1 + 0.5j * dt * w)
            table = _extrapolation_table(w, dt)
            past = [stack / cayley ** j for j in range(_HISTORY)]
            for p in range(1, _HISTORY + 1):
                assert not np.any(table[p - 1, p:])
                guess = sum(table[p - 1, j] * past[j] for j in range(p))
                assert np.abs(guess - cayley * stack).max() <= 1e-14 * np.abs(stack).max()
            prev = _linear_past(w, stack, dt)
            two = table[1, 0] * stack + table[1, 1] * prev
            assert np.abs(two - _linear_guess(w, dt, stack, prev)).max() <= (
                1e-15 * np.abs(stack).max())
    table = _extrapolation_table(0.0, -0.05)
    rng = np.random.default_rng(4)
    for p in range(1, _HISTORY + 1):
        coef = rng.standard_normal((p, 2, 7))   # u_-j = sum_d coef[d] j^d, degree p-1
        past = [sum(c * j ** d for d, c in enumerate(coef)) for j in range(p)]
        guess = sum(table[p - 1, j] * past[j] for j in range(p))
        want = sum(c * (-1) ** d for d, c in enumerate(coef))
        assert np.abs(guess - want).max() <= 1e-13 * np.abs(past).max()


@pytest.fixture(scope="module")
def generator_paths():
    """transform_state of 30 random states at the drift sweep's largest eps
    (0.1) over the normal form of that sweep (M=5, r=3): every step of its
    generator flows, the same steps of the one-state _reference_step, and the
    gradient evaluations per step with the guess of flows.steps and of the
    oracle _mask_step without one."""
    z2, p6 = _drift_polys(5)
    ms = z2.mode_set
    fs = freqs_conv(sample_conv_potential(1.0, 5, 2), ms)
    res = birkhoff(z2, p6, fs, NormalFormConfig(r=3, gamma=suggest_gamma(ms, fs, k=1, r=3),
                                                J_max=4, norm_lower_levels=1))
    gens = [chi for chi in res.generators if len(chi)]
    rng = np.random.default_rng([0, 1])
    states = rng.standard_normal((30, ms.size)) + 1j * rng.standard_normal((30, ms.size))
    states *= 0.1 / np.linalg.norm(states, axis=1, keepdims=True)
    calls, seen, step = [0], [], flows.midpoint_step

    def counted(g):
        def wrapper(u):
            calls[0] += 1
            return g(u)
        return wrapper

    def spy(g, u, dt, omega, guess):
        seen.append(step(counted(g), u, dt, omega, guess))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "midpoint_step", spy)
        transform_state(states, res.generators, "forward")
    per_step = {"guess": calls[0] / len(seen)}
    n = flows.check_time(1.0, nf._FLOW_DT)
    ref, mask, path = list(states), states, []
    calls[0] = 0
    for chi in gens:
        for _ in range(n):
            ref = [_reference_step(chi.gradient, u, 1.0 / n) for u in ref]
            mask = _mask_step(counted(chi.gradient), mask, 1.0 / n)
            path.append(ref)
    per_step["none"] = calls[0] / len(path)
    return states, np.array(seen), np.array(path), per_step


def test_generator_flows_guess_same_path(generator_paths):
    # only the start moved: every step stays that of the Euler-start oracle
    states, got, want, _ = generator_paths
    assert got.shape == want.shape
    err = np.abs(got - want).max(axis=(0, 2))
    assert np.all(err <= 1e-14 * np.linalg.norm(states, axis=1))


def test_generator_flows_guess_saves_evaluations(generator_paths):
    _, _, _, per_step = generator_paths
    assert per_step["none"] == 4.0
    assert per_step["guess"] <= 2.5


@pytest.fixture(scope="module")
def system3():
    return _drift_system(3)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_midpoint_bookkeeping_matches_mask_oracle(system3, data):
    # random stacks with zero rows, rows of very different size (so they stop
    # at different iterates), dt=0.5 stalls, and NaN or overflowing gradients
    # on some rows (an infinite residual stalls against the initial inf): the
    # same gradient arguments, the same result or the same exception
    omega, grad, stack = system3
    n = stack.shape[1]
    B = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
    sizes = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.02, 0.1, 0.3, 1.0]),
                               min_size=B, max_size=B))
    u *= np.array(sizes)[:, None] / np.linalg.norm(u, axis=1, keepdims=True)
    dt = data.draw(st.sampled_from([0.001, 0.005, 0.05, 0.5]))
    tol = data.draw(st.sampled_from([1e-14, 1e-10, 1e-6]))
    w = data.draw(st.sampled_from([0.0, omega]))
    guess = u
    if data.draw(st.booleans()):
        guess = u + 0.01 * (rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n)))
    bad = data.draw(st.lists(st.sampled_from([1.0, 1.0, np.nan, 1e300]),
                             min_size=B, max_size=B))
    bad_after = data.draw(st.integers(0, 5))
    if data.draw(st.booleans()):
        u, guess, bad = u[0], guess[0], bad[0]
    else:
        bad = np.array(bad)[:, None]

    def run(stepper):
        calls = []

        def g(v):
            calls.append(v.copy())
            out = grad(v)
            return out * bad if len(calls) > bad_after else out

        try:
            with np.errstate(all="ignore"):   # overflow and inf * 0
                return stepper(g), calls
        except FlowConvergenceError as exc:
            return exc, calls

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_TOL", tol)
        got, got_calls = run(lambda g: midpoint_step(g, u, dt, w, guess))
    want, want_calls = run(lambda g: _mask_step(g, u, dt, tol=tol, omega=w, guess=guess))
    assert len(got_calls) == len(want_calls)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got_calls, want_calls))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert np.array_equal(got, want)


def test_midpoint_nan_residual_raises():
    # a NaN residual neither converges nor stalls: the iteration cap raises
    omega, grad, stack = _drift_system(3)
    bad = lambda u: grad(u) * np.nan
    for u in (stack, stack[0]):
        for guess in (u, 1.01 * u):
            with pytest.raises(FlowConvergenceError, match="did not converge"):
                midpoint_step(bad, u, 0.005, omega, guess)


@pytest.mark.parametrize("dt, error", [(-0.05, ValueError), (math.inf, ValueError),
                                       (0.0, ValueError), (math.nan, ValueError),
                                       (1e-300, BudgetError)])
def test_flow_and_integrate_check_dt(dt, error):
    # a weak gradient whose one step of the whole time would converge
    ms = ModeSet.symmetric(1)
    u = np.full(ms.size, 0.1 + 0j)
    with pytest.raises(error):
        flow(lambda v: 1e-3 * v, u, 1.0, dt)
    with pytest.raises(error):
        flow(lambda v: 1e-3 * v, u, -1.0, dt)
    weak = build_z2(ms, np.full(ms.size, 1e-3))
    with pytest.raises(error):
        integrate(weak, build_p6(ms), u, 1.0, dt)
