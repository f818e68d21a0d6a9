"""Implicit-midpoint integration of Hamiltonian flows i du/dt = grad(u).

The midpoint rule preserves the quadratic invariant ||u||^2 of any balanced
Hamiltonian exactly, up to the residual of the nonlinear step equation, which
is solved here by damped fixed-point iteration.
"""

from __future__ import annotations

import numpy as np

# fixed-point iterations of one midpoint step before it is declared divergent
MAX_ITER = 60


class FlowConvergenceError(RuntimeError):
    """The midpoint step equation did not converge; reduce dt."""


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (B, n) array, bit for bit, in
    one call (vecdot runs the same dot kernel as norm on each row)."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def midpoint_step(grad, u: np.ndarray, dt: float, tol: float = 1e-14,
                  omega=0.0, prev=None) -> np.ndarray:
    """One implicit-midpoint step for i du/dt = grad(u), on one state (n,) or
    on a stack of states (B, n) that grad maps row by row.

    Solves u1 = u + dt * (-i) * grad((u + u1)/2) by fixed-point iteration to a
    residual of tol * ||u||, or to the rounding floor, whichever comes first,
    in at most MAX_ITER iterations; each row stops at the iterate where it
    would stop on its own.  The quadratic invariant ||u||^2 is preserved up
    to the accepted residual.  ``omega``, the diagonal linear part of grad,
    and ``prev``, the state one step of the same size before u, only set the
    starting guess: with prev the quintic term is taken at the last midpoint
    (prev + u)/2 advanced by the Cayley factor of the linear part, otherwise
    at u.  Neither changes the step equation, its acceptance rule or where
    the iteration converges.
    """
    u = np.asarray(u)
    rows = u.reshape(-1, u.shape[-1])
    g = grad if u.ndim > 1 else (lambda v: grad(v[0])[None])
    scale = _row_norms(rows)
    on = scale != 0.0  # rows still iterating; zero rows stay
    if not on.any():
        return u.copy()
    bound, floor = tol * scale, 1e4 * tol * scale
    # iterate on the increment delta = u1 - u: its rounding floor scales with
    # dt*||grad|| rather than ||u||, which keeps the norm bias far below the
    # method error.  The linear part of the guess is solved by its Cayley
    # factor.
    step, den = dt * (-1j), 1 + 0.5j * dt * omega
    if prev is None:
        delta = step * g(rows) / den
    else:
        mid = 0.5 * (np.asarray(prev).reshape(rows.shape) + rows)
        mid = (1 - 0.5j * dt * omega) / den * mid
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
            stuck = stalled & (res > floor)  # above the rounding floor
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


def flow(grad, u0: np.ndarray, t_final: float, dt: float, tol: float = 1e-14) -> np.ndarray:
    """Flow the state to time t_final (either sign) with uniform steps."""
    if t_final == 0.0:
        return u0.copy()
    n = max(1, int(round(abs(t_final) / dt)))
    h = t_final / n
    u = u0.astype(complex)
    for _ in range(n):
        u = midpoint_step(grad, u, h, tol=tol)
    return u
