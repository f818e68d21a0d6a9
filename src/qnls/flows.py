"""Implicit-midpoint integration of Hamiltonian flows i du/dt = grad(u).

The midpoint rule preserves the quadratic invariant ||u||^2 of any balanced
Hamiltonian exactly, up to the residual of the nonlinear step equation, which
is solved here by damped fixed-point iteration.  dynamics.integrate and flow
(so nf.transform_state's generator flows too) share one stepping loop, steps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, check_positive

# fixed-point iterations of one midpoint step before it is declared divergent
MAX_ITER = 60
_MAX_STEPS = 10 ** 7    # midpoint steps per flow or integrate: ten times T = 1e4 at dt = 0.01
_TOL = 1e-14            # residual of an accepted step, relative to ||u||
_HISTORY = 5            # states the guess of each step extrapolates from


class FlowConvergenceError(RuntimeError):
    """The midpoint step equation did not converge; reduce dt."""


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (B, n) array, bit for bit, in
    one call (vecdot runs the same dot kernel as norm on each row)."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def midpoint_step(grad, u: np.ndarray, dt: float, omega, guess) -> np.ndarray:
    """One implicit-midpoint step for i du/dt = grad(u), on one state (n,) or
    on a stack of states (B, n) that grad maps row by row.

    Solves u1 = u + dt * (-i) * grad((u + u1)/2) by fixed-point iteration to a
    residual of _TOL * ||u||, or to the rounding floor, whichever comes first,
    in at most MAX_ITER iterations; each row stops at the iterate where it
    would stop on its own, and grad always gets the whole stack.  The
    quadratic invariant ||u||^2 is preserved up to the accepted residual.
    ``omega``, the diagonal linear part of grad (0 for none), and ``guess``,
    a guess u1' of the state after the step (u for none), set only the
    starting increment: the linear part is solved by its Cayley factor and
    the rest of grad is taken at (u + u1')/2.  Neither changes the step
    equation, its acceptance rule or where the iteration converges.
    """
    u = np.asarray(u)
    rows = u.reshape(-1, u.shape[-1])
    g = grad if u.ndim > 1 else (lambda v: grad(v[0])[None])
    scale = _row_norms(rows)
    live = np.flatnonzero(scale != 0.0).tolist()  # rows still iterating; zero rows stay
    if not live:
        return u.copy()
    bound, floor = (_TOL * scale).tolist(), (1e4 * _TOL * scale).tolist()
    # iterate on the increment delta = u1 - u: its rounding floor scales with
    # dt*||grad|| rather than ||u||, which keeps the norm bias far below the
    # method error
    step, den = dt * (-1j), 1 + 0.5j * dt * omega
    mid = 0.5 * (rows + np.asarray(guess).reshape(rows.shape))
    delta = step * (omega * rows + g(mid) - omega * mid) / den
    if len(live) < len(rows):
        delta[scale == 0.0] = 0.0
    prev_res = [np.inf] * len(rows)
    for _ in range(MAX_ITER):
        cand = step * g(rows + 0.5 * delta)
        res = _row_norms(cand - delta).tolist()
        if len(live) == len(rows):
            delta = cand
        else:
            delta[live] = cand[live]
        going = []
        for i in live:
            if res[i] <= bound[i]:
                continue
            if res[i] >= prev_res[i]:
                if res[i] > floor[i]:  # stalled above the rounding floor
                    raise FlowConvergenceError(
                        f"midpoint iteration stalled at residual {res[i]:.3e} "
                        f"(dt={dt}); reduce dt")
                continue
            going.append(i)
        if not going:
            return (rows + delta).reshape(u.shape)
        live, prev_res = going, res
    raise FlowConvergenceError(
        f"midpoint iteration did not converge in {MAX_ITER} iterations (dt={dt}); "
        "reduce dt")


def check_time(T: float, dt: float) -> int:
    """The number of uniform midpoint steps max(1, round(T/dt)) that cover time
    T; ValueError unless dt > 0 and T >= 0, BudgetError if T/dt (before
    rounding) exceeds _MAX_STEPS."""
    check_positive(dt=dt)
    if not T >= 0:
        raise ValueError("T must be non-negative")
    if T / dt > _MAX_STEPS:
        raise BudgetError(f"integration budget exceeded: T/dt = {T / dt:.3g} midpoint steps")
    return max(1, int(round(T / dt)))


def _extrapolation_table(omega, h: float) -> np.ndarray:
    """(_HISTORY, _HISTORY, n) table (n = 1 for a scalar omega) whose row p-1
    extrapolates the next state from the last p states u_0 (the newest), ...,
    u_-(p-1) to degree p-1 in the interaction picture of the linear part:
    u1' = sum_j row[j] * u_-j with row[j] = (-1)^j C(p, j+1) L^(j+1) (0 for
    j >= p), L = (1 - i h omega/2)/(1 + i h omega/2) the Cayley factor.  On
    a linear past, u_-j = L^-j u_0, every row gives L u_0; at omega = 0 it is
    polynomial extrapolation."""
    cayley = (1 - 0.5j * h * omega) / (1 + 0.5j * h * omega)
    signed = np.array([[(-1) ** j * math.comb(p, j + 1) for j in range(_HISTORY)]
                       for p in range(1, _HISTORY + 1)])
    return signed[:, :, None] * cayley ** np.arange(1, _HISTORY + 1)[:, None]


def steps(grad, u0: np.ndarray, h: float, n: int, omega):
    """Yield the n states after u0 of midpoint steps of size h (see
    midpoint_step), each solve guessed by the extrapolation of the last
    p <= _HISTORY states through omega, grad's diagonal linear part
    (_extrapolation_table); a row's guess reads only that row's past."""
    table = _extrapolation_table(omega, h)
    past = np.zeros((_HISTORY,) + u0.shape, dtype=complex)   # past[j] = u_-j
    u = past[0] = u0
    for step in range(1, n + 1):
        p = min(step, _HISTORY)
        guess = np.einsum("jn,j...n->...n", table[p - 1, :p], past[:p])
        u = midpoint_step(grad, u, h, omega, guess)
        past[1:] = past[:-1]
        past[0] = u
        yield u


def flow(grad, u0: np.ndarray, t_final: float, dt: float) -> np.ndarray:
    """Flow the state to time t_final (either sign) by steps with omega = 0,
    of the uniform size nearest to dt that covers it; check_time on
    |t_final|, so t_final = 0 takes one step of size 0."""
    n = check_time(abs(t_final), dt)
    for u in steps(grad, u0.astype(complex), t_final / n, n, 0.0):
        pass
    return u
