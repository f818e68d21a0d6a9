"""Dirichlet eigenproblem on [0, pi] for even potentials, solved by a sine
Galerkin discretization, with the asymptotics checks and eigenbasis
interaction coefficients used in the multiplicative-potential experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import BudgetError
from .poly import HomPoly, ModeSet, from_arrays
from .spectral import FrequencySet, japanese

_MAX_WINDOW = 12   # largest window of p6_eigen_coeffs: C(14, 3)^2 = 132,496 keys


@dataclass
class SLBasis:
    """Lowest n_max Dirichlet eigenpairs in the sine basis sqrt(2/pi) sin(mx)."""

    lambdas: np.ndarray          # (n_max,), increasing
    eigvecs: np.ndarray          # (n_max, N_basis) sine coefficients per row
    W_hat: np.ndarray            # cosine coefficients of the potential
    avg_W: float
    residuals: np.ndarray        # Galerkin residual per retained pair

    @property
    def n_max(self) -> int:
        return self.lambdas.size

    @property
    def N_basis(self) -> int:
        return self.eigvecs.shape[1]

    def gram_defect(self) -> float:
        G = self.eigvecs @ self.eigvecs.T
        return float(np.max(np.abs(G - np.eye(self.n_max))))


def dirichlet_eig(W, n_max: int, N_basis: int | None = None) -> SLBasis:
    """Lowest n_max Dirichlet eigenpairs of -f'' + W f on [0, pi].

    W is even and real, given by its cosine coefficients (w_0..w_K).
    The sine-basis Galerkin matrix is symmetric; refinement (doubling N_basis)
    moves the retained eigenvalues only below the stated tolerance.
    """
    from scipy.linalg import eigh    # here, so that importing qnls loads no SciPy
    if N_basis is None:
        N_basis = 4 * n_max
    if N_basis < 4 * n_max:
        raise ValueError("N_basis must be at least 4 * n_max")
    # w_0..w_{2 N_basis}, the coefficients the Galerkin matrix reads
    W = np.asarray(W, dtype=float)[: 2 * N_basis + 1]
    w = np.zeros(2 * N_basis + 1)
    w[: W.size] = W
    m = np.arange(1, N_basis + 1)
    A = 0.5 * (w[np.abs(m[:, None] - m[None, :])] - w[m[:, None] + m[None, :]])
    A[np.diag_indices_from(A)] = m.astype(float) ** 2 + w[0] - 0.5 * w[2 * m]
    lam, vecs = eigh(A)
    lam, vecs = lam[:n_max], vecs[:, :n_max].T
    # deterministic sign: dominant sine coefficient positive
    for row in vecs:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    res = np.array([np.linalg.norm(A @ v - l * v) for l, v in zip(lam, vecs)])
    return SLBasis(lambdas=lam, eigvecs=vecs, W_hat=w, avg_W=float(w[0]),
                   residuals=res)


def verify_ev_asymptotics(basis: SLBasis) -> float:
    """max_n n * |lambda_n - n^2 - avg_W|, the constant of the eigenvalue
    expansion; finite and stable under basis refinement."""
    n = np.arange(1, basis.n_max + 1)
    return float(np.max(n * np.abs(basis.lambdas - n.astype(float) ** 2 - basis.avg_W)))


def verify_ef_decay(basis: SLBasis, sigma: float = 1.0) -> dict:
    """Fitted constant of |fhat_n(k)| <= C <n+k>^{-1} <n-k>^{-1-sigma} over the
    off-diagonal sine coefficients (|fhat_n(k)| = |c_n[k]| for k >= 1)."""
    n = np.arange(1, basis.n_max + 1)[:, None]
    k = np.arange(1, basis.N_basis + 1)[None, :]
    weight = (1.0 + n + k) * (1.0 + np.abs(n - k)) ** (1.0 + sigma)
    offdiag = np.abs(basis.eigvecs) * (n != k)
    vals = offdiag * weight
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    return {"C_fit": float(vals[i, j]), "sigma": sigma,
            "argmax": {"n": int(n[i, 0]), "k": int(k[0, j])}}


def eigenfunction_values(basis: SLBasis, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, F) with F[n] the values of f_{n+1} on an n_grid-point grid of [0, 2pi)."""
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    m = np.arange(1, basis.N_basis + 1)
    S = math.sqrt(2.0 / math.pi) * np.sin(np.outer(x, m))
    return x, basis.eigvecs @ S.T


def p6_eigen_coeffs(basis: SLBasis, q_window: int) -> HomPoly:
    """Sextic interaction in the eigenbasis, a real HomPoly on [1, q_window]
    with coefficients

        Q_{k,l} = int_0^pi f_{k1} f_{k2} f_{k3} f_{l1} f_{l2} f_{l3} dx

    on every pair of index multisets (exact zeros dropped), by quadrature that
    is exact for the trigonometric degrees involved.
    """
    if q_window > _MAX_WINDOW:
        raise BudgetError("eigenbasis window exceeds the budget guard")
    if q_window > basis.n_max:
        raise ValueError("window exceeds the computed spectrum")
    ms = ModeSet.dirichlet(q_window)
    n_grid = 6 * basis.N_basis + 2
    _, F = eigenfunction_values(basis, n_grid)
    triples = np.array(list(combinations_with_replacement(range(q_window), 3)))
    T = F[triples[:, 0]] * F[triples[:, 1]] * F[triples[:, 2]]
    # int_0^pi = (1/2) int_T for even integrands (products of six odd factors);
    # T @ T.T is symmetric bit for bit, so Q_{l,k} = Q_{k,l} exactly
    G = (T @ T.T) * (0.5 * 2.0 * np.pi / n_grid)
    n = len(triples)
    return from_arrays(ms, 3, np.repeat(triples, n, axis=0), np.tile(triples, (n, 1)),
                       G.ravel().astype(complex), is_real=True)


def p6_decay_constant(P: HomPoly) -> dict:
    """Fitted C of |Q_{k,l}| <= C sum_{nu,mu in {-1,1}^3} <nu.k + mu.l>^{-2}
    over the keys of P, with the first key that attains it."""
    modes = np.asarray(P.mode_set.modes)
    idx = np.hstack([modes[P.idx_k], modes[P.idx_l]]).astype(float)
    bound = np.zeros(len(P))
    for s in product((-1, 1), repeat=6):
        # the reciprocal of the exact square <x>^2 is what libm's pow gives
        # for <x> ** -2.0; numpy's power can differ in the last bit
        w = japanese(idx @ np.array(s, dtype=float))
        bound += 1.0 / (w * w)
    c = np.abs(P.coef) / bound
    i = int(np.argmax(c))
    return {"C_fit": float(c[i]),
            "argmax": tuple(tuple(modes[ix[i]].tolist()) for ix in (P.idx_k, P.idx_l))}


def freqs_mult(basis: SLBasis) -> FrequencySet:
    """Frequencies omega_n = lambda_n with integer part n^2 on [1, n_max]."""
    ms = ModeSet.dirichlet(basis.n_max)
    n = np.arange(1, basis.n_max + 1, dtype=float)
    omega_int = n ** 2
    return FrequencySet(ms, omega_int, basis.lambdas - omega_int)


def sobolev_ratio(basis: SLBasis, v: np.ndarray, s_prime: float) -> float:
    """||sum v_k f_k||_{H^{s'}}^2 divided by sum <k>^{2s'} |v_k|^2, computed in
    the sine basis of the odd extension."""
    v = np.asarray(v, dtype=complex)
    b = v @ basis.eigvecs[: v.size]
    m = np.arange(1, basis.N_basis + 1, dtype=float)
    num = float(np.sum((1.0 + m) ** (2 * s_prime) * np.abs(b) ** 2))
    k = np.arange(1, v.size + 1, dtype=float)
    den = float(np.sum((1.0 + k) ** (2 * s_prime) * np.abs(v) ** 2))
    return num / den
