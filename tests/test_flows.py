import numpy as np
import pytest

from qnls.dynamics import _omega_from_z2
from qnls.flows import FlowConvergenceError, _row_norms, midpoint_step
from qnls.poly import ModeSet, build_p6, build_z2
from qnls.resonance import sample_conv_potential
from qnls.spectral import freqs_conv


def _reference_step(grad, u, dt, tol=1e-14, max_iter=60):
    """The one-state midpoint solve with the explicit Euler guess, kept as the
    oracle of midpoint_step at omega=0."""
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


def _drift_system(M):
    """Frequencies, gradient and eps stack of the drift sweep on [-M, M]
    (potential seed 2, shared direction of seed 0)."""
    ms = ModeSet.symmetric(M)
    fs = freqs_conv(sample_conv_potential(1.0, M, 2), ms)
    omega = _omega_from_z2(build_z2(ms, fs))
    p6_grad = build_p6(ms).gradient
    rng = np.random.default_rng([0, 0])
    d = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    d /= np.linalg.norm(d)
    stack = np.array([eps * d for eps in (0.1, 0.07, 0.05)])
    return omega, (lambda u: omega * u + p6_grad(u)), stack


@pytest.mark.parametrize("with_omega", [False, True], ids=["euler", "cayley"])
def test_midpoint_diverges_at_large_dt(with_omega):
    # the fixed-point map, not the guess, sets the convergence domain
    omega, grad, stack = _drift_system(3)
    kw = {"omega": omega} if with_omega else {}
    for u in [stack] + list(stack):
        with pytest.raises(FlowConvergenceError):
            midpoint_step(grad, u, 0.5, **kw)
    for u in [stack] + list(stack):
        midpoint_step(grad, u, 0.05, **kw)


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
                assert np.array_equal(midpoint_step(grad, u, dt),
                                      _reference_step(grad, u, dt))
        u = v = stack[0]
        for _ in range(300):
            u, v = midpoint_step(grad, u, 0.005), _reference_step(grad, v, 0.005)
        assert np.array_equal(u, v)
    zero = np.zeros(stack.shape[1], dtype=complex)
    assert np.array_equal(midpoint_step(grad, zero, 0.01), zero)


def test_midpoint_stack_rows_match_single_rows():
    omega, grad, stack = _drift_system(5)
    stack[1] = 0.0
    for kw in ({}, {"omega": omega}):
        out = midpoint_step(grad, stack, 0.005, **kw)
        assert np.array_equal(out[1], stack[1])
        for u, row in zip(stack, out):
            single = midpoint_step(grad, u, 0.005, **kw)
            assert np.abs(row - single).max() <= 1e-15 * np.linalg.norm(u)


def test_midpoint_cayley_guess_same_increment():
    omega, grad, stack = _drift_system(5)
    rng = np.random.default_rng(11)
    extra = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
    extra *= 0.5 / np.linalg.norm(extra, axis=1, keepdims=True)
    for u in list(stack) + list(extra):
        for dt in (0.005, 0.02):
            euler = midpoint_step(grad, u, dt)
            cayley = midpoint_step(grad, u, dt, omega=omega)
            assert np.linalg.norm(cayley - euler) <= 1e-13 * np.linalg.norm(u)


def test_midpoint_cayley_guess_saves_evaluations():
    omega, grad, stack = _drift_system(5)
    calls = []

    def counted(u):
        calls.append(u.shape)
        return grad(u)

    def evals(**kw):
        calls.clear()
        u = stack
        for _ in range(50):
            u = midpoint_step(counted, u, 0.005, **kw)
        return len(calls)

    assert evals(omega=omega) < evals()
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


def test_midpoint_predictor_diverges_at_large_dt():
    # the previous midpoint moves only the guess: dt=0.5 still diverges
    omega, grad, stack = _drift_system(3)
    for kw in ({}, {"omega": omega}):
        for dt, fails in ((0.5, True), (0.05, False)):
            prev = _linear_past(omega, stack, dt)
            for u, p in [(stack, prev)] + list(zip(stack, prev)):
                if fails:
                    with pytest.raises(FlowConvergenceError):
                        midpoint_step(grad, u, dt, prev=p, **kw)
                else:
                    midpoint_step(grad, u, dt, prev=p, **kw)


def test_midpoint_predictor_zero_rows_stay_zero():
    omega, grad, stack = _drift_system(5)
    stack[1] = 0.0
    prev = _linear_past(omega, stack, 0.005)
    out = midpoint_step(grad, stack, 0.005, omega=omega, prev=prev)
    assert not np.any(out[1]) and np.all(np.any(out[[0, 2]], axis=1))
    zero = np.zeros(stack.shape[1], dtype=complex)
    assert np.array_equal(midpoint_step(grad, zero, 0.005, omega=omega, prev=zero), zero)


def test_midpoint_predictor_stack_rows_match_single_rows():
    omega, grad, stack = _drift_system(5)
    prev = stack
    u = midpoint_step(grad, stack, 0.005, omega=omega)
    for _ in range(20):
        out = midpoint_step(grad, u, 0.005, omega=omega, prev=prev)
        for row, ui, pi in zip(out, u, prev):
            single = midpoint_step(grad, ui, 0.005, omega=omega, prev=pi)
            assert np.abs(row - single).max() <= 1e-15 * np.linalg.norm(ui)
        u, prev = out, u


@pytest.fixture(scope="module")
def drift_paths():
    """2000 drift steps (M=5, dt=0.005) with and without the previous state
    passed to midpoint_step, and their gradient evaluations per step."""
    omega, grad, stack = _drift_system(5)
    calls = [0]

    def counted(u):
        calls[0] += 1
        return grad(u)

    paths, per_step = {}, {}
    for predict in (False, True):
        calls[0] = 0
        u, prev, path = stack, None, []
        for _ in range(2000):
            kw = {"prev": prev} if predict else {}
            u, prev = midpoint_step(counted, u, 0.005, omega=omega, **kw), u
            path.append(u)
        paths[predict], per_step[predict] = np.array(path), calls[0] / 2000
    return stack, paths, per_step


def test_midpoint_predictor_same_path(drift_paths):
    # the path without prev is the oracle: only the guess moved
    stack, paths, _ = drift_paths
    err = np.abs(paths[True] - paths[False]).max(axis=(0, 2))
    assert np.all(err <= 1e-11 * np.linalg.norm(stack, axis=1))


def test_midpoint_predictor_saves_evaluations(drift_paths):
    _, _, per_step = drift_paths
    assert per_step[False] == 8.0
    assert per_step[True] <= 5.5


def test_midpoint_nan_residual_raises():
    # a NaN residual neither converges nor stalls: the iteration cap raises
    omega, grad, stack = _drift_system(3)
    bad = lambda u: grad(u) * np.nan
    for u in (stack, stack[0]):
        for kw in ({}, {"prev": u}):
            with pytest.raises(FlowConvergenceError, match="did not converge"):
                midpoint_step(bad, u, 0.005, omega=omega, **kw)
