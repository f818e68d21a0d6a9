"""Implicit-midpoint integration of Hamiltonian flows i du/dt = grad(u).

The midpoint rule preserves the quadratic invariant ||u||^2 of any balanced
Hamiltonian exactly, up to the residual of the nonlinear step equation, which
is solved here by damped fixed-point iteration.
"""

from __future__ import annotations

import numpy as np


class FlowConvergenceError(RuntimeError):
    """The midpoint step equation did not converge; reduce dt."""


def midpoint_step(grad, u: np.ndarray, dt: float, tol: float = 1e-14,
                  max_iter: int = 60, omega=0.0) -> np.ndarray:
    """One implicit-midpoint step for i du/dt = grad(u), on one state (n,) or
    on a stack of states (B, n) that grad maps row by row.

    Solves u1 = u + dt * (-i) * grad((u + u1)/2) by fixed-point iteration to a
    residual of tol * ||u||, or to the rounding floor, whichever comes first;
    each row stops at the iterate where it would stop on its own.  The
    quadratic invariant ||u||^2 is preserved up to the accepted residual.
    ``omega``, the diagonal linear part of grad, only sets the starting guess.
    """
    u = np.asarray(u)
    rows = u.reshape(-1, u.shape[-1])
    g = grad if u.ndim > 1 else (lambda v: grad(v[0])[None])
    scale = [float(np.linalg.norm(r)) for r in rows]
    live = [i for i, s in enumerate(scale) if s != 0.0]
    if not live:
        return u.copy()
    # iterate on the increment delta = u1 - u: its rounding floor scales with
    # dt*||grad|| rather than ||u||, which keeps the norm bias far below the
    # method error.  The guess is explicit Euler with the linear part solved
    # by its Cayley factor.
    delta = dt * (-1j) * g(rows) / (1 + 0.5j * dt * omega)
    delta[[i for i, s in enumerate(scale) if s == 0.0]] = 0.0  # zero rows stay
    prev_res = [np.inf] * len(rows)
    for _ in range(max_iter):
        cand = dt * (-1j) * g(rows + 0.5 * delta)
        diff = cand - delta
        if len(live) == len(rows):
            delta = cand
        else:
            delta[live] = cand[live]
        still = []
        for i in live:
            res = float(np.linalg.norm(diff[i]))
            if res <= tol * scale[i]:
                continue
            if res >= prev_res[i]:
                if res <= 1e4 * tol * scale[i]:
                    continue  # rounding floor reached
                raise FlowConvergenceError(
                    f"midpoint iteration stalled at residual {res:.3e} (dt={dt}); "
                    "reduce dt")
            prev_res[i] = res
            still.append(i)
        if not still:
            return (rows + delta).reshape(u.shape)
        live = still
    raise FlowConvergenceError(
        f"midpoint iteration did not converge in {max_iter} iterations (dt={dt}); "
        "reduce dt")


def flow(grad, u0: np.ndarray, t_final: float, dt: float, tol: float = 1e-14,
         max_iter: int = 60) -> np.ndarray:
    """Flow the state to time t_final (either sign) with uniform steps."""
    if t_final == 0.0:
        return u0.copy()
    n = max(1, int(round(abs(t_final) / dt)))
    h = t_final / n
    u = u0.astype(complex)
    for _ in range(n):
        u = midpoint_step(grad, u, h, tol=tol, max_iter=max_iter)
    return u
