"""Implicit-midpoint integration of Hamiltonian flows i du/dt = grad(u).

The midpoint rule preserves the quadratic invariant ||u||^2 of any balanced
Hamiltonian exactly, up to the residual of the nonlinear step equation, which
is solved here by damped fixed-point iteration.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError, check_positive

# fixed-point iterations of one midpoint step before it is declared divergent
MAX_ITER = 60
_MAX_STEPS = 10 ** 7    # midpoint steps per flow or integrate: ten times T = 1e4 at dt = 0.01


class FlowConvergenceError(RuntimeError):
    """The midpoint step equation did not converge; reduce dt."""


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (B, n) array, bit for bit, in
    one call (vecdot runs the same dot kernel as norm on each row)."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def midpoint_step(grad, u: np.ndarray, dt: float, tol: float = 1e-14,
                  omega=0.0, guess=None) -> np.ndarray:
    """One implicit-midpoint step for i du/dt = grad(u), on one state (n,) or
    on a stack of states (B, n) that grad maps row by row.

    Solves u1 = u + dt * (-i) * grad((u + u1)/2) by fixed-point iteration to a
    residual of tol * ||u||, or to the rounding floor, whichever comes first,
    in at most MAX_ITER iterations; each row stops at the iterate where it
    would stop on its own, and grad always gets the whole stack.  The
    quadratic invariant ||u||^2 is preserved up to the accepted residual.
    ``omega``, the diagonal linear part of grad, and ``guess``, a guessed
    u1' of the state after the step (dynamics.integrate extrapolates it from
    the states before u), only set the starting increment: the linear part
    is solved by its Cayley factor and the rest of grad is taken at the
    midpoint (u + u1')/2, or at u without a guess.  Neither changes the step
    equation, its acceptance rule or where the iteration converges.
    """
    u = np.asarray(u)
    rows = u.reshape(-1, u.shape[-1])
    g = grad if u.ndim > 1 else (lambda v: grad(v[0])[None])
    scale = _row_norms(rows)
    live = np.flatnonzero(scale != 0.0).tolist()  # rows still iterating; zero rows stay
    if not live:
        return u.copy()
    bound, floor = (tol * scale).tolist(), (1e4 * tol * scale).tolist()
    # iterate on the increment delta = u1 - u: its rounding floor scales with
    # dt*||grad|| rather than ||u||, which keeps the norm bias far below the
    # method error.  The linear part of the guess is solved by its Cayley
    # factor.
    step, den = dt * (-1j), 1 + 0.5j * dt * omega
    if guess is None:
        delta = step * g(rows) / den
    else:
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


def flow(grad, u0: np.ndarray, t_final: float, dt: float, tol: float = 1e-14) -> np.ndarray:
    """Flow the state to time t_final (either sign) with the uniform steps
    nearest to dt that cover it; check_time on |t_final|."""
    n = check_time(abs(t_final), dt)
    if t_final == 0.0:
        return u0.copy()
    h = t_final / n
    u = u0.astype(complex)
    for _ in range(n):
        u = midpoint_step(grad, u, h, tol=tol)
    return u
