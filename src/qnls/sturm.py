"""Dirichlet eigenproblem on [0, pi] for even potentials, solved by a sine
Galerkin discretization, with the asymptotics checks and eigenbasis
interaction coefficients used in the multiplicative-potential experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import BudgetError, check_positive
from .poly import HomPoly, ModeSet, Sextic
from .spectral import FrequencySet, japanese

_MAX_WINDOW = 12   # largest key table of p6_eigen_coeffs: C(14, 3)^2 = 132,496 keys
_EF_SIGMA = 1.0    # sigma of the eigenfunction decay bound of verify_ef_decay


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


def check_basis(n_max: int, N_basis: int | None = None) -> None:
    """Raise ValueError unless n_max >= 1, and N_basis >= 4 * n_max if given."""
    check_positive(n_max=n_max)
    if N_basis is not None and N_basis < 4 * n_max:
        raise ValueError("N_basis must be at least 4 * n_max")


def dirichlet_eig(W, n_max: int, N_basis: int | None = None) -> SLBasis:
    """Lowest n_max Dirichlet eigenpairs of -f'' + W f on [0, pi].

    W is even and real, given by its cosine coefficients (w_0..w_K).
    The sine-basis Galerkin matrix is symmetric; refinement (doubling N_basis)
    moves the retained eigenvalues only below the stated tolerance.
    """
    from scipy.linalg import eigh    # here, so that importing qnls loads no SciPy
    check_basis(n_max, N_basis)
    N_basis = N_basis or 4 * n_max
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


def verify_ef_decay(basis: SLBasis) -> dict:
    """Fitted constant of |fhat_n(k)| <= C <n+k>^{-1} <n-k>^{-1-_EF_SIGMA} over
    the off-diagonal sine coefficients (|fhat_n(k)| = |c_n[k]| for k >= 1)."""
    n = np.arange(1, basis.n_max + 1)[:, None]
    k = np.arange(1, basis.N_basis + 1)[None, :]
    weight = (1.0 + n + k) * (1.0 + np.abs(n - k)) ** (1.0 + _EF_SIGMA)
    offdiag = np.abs(basis.eigvecs) * (n != k)
    vals = offdiag * weight
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    return {"C_fit": float(vals[i, j]),
            "argmax": {"n": int(n[i, 0]), "k": int(k[0, j])}}


def eigenfunction_values(basis: SLBasis, n_grid: int) -> np.ndarray:
    """F with F[n] the values of f_{n+1} on the grid 2 pi j / n_grid, j < n_grid."""
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    m = np.arange(1, basis.N_basis + 1)
    S = math.sqrt(2.0 / math.pi) * np.sin(np.outer(x, m))
    return basis.eigvecs @ S.T


def p6_eigen_coeffs(basis: SLBasis, q_window: int) -> Sextic:
    """Sextic interaction int_0^pi |sum_j u_j f_j|^6 dx in the eigenbasis on
    [1, q_window]: the Sextic of scale 6 pi on the eigenfunction values at
    n_grid = 6 N_basis + 2 points of [0, 2pi), a mean that is exact for the
    trigonometric degrees involved.  Its keys, past a window of _MAX_WINDOW a
    BudgetError, are every pair of index multisets with the coefficients

        Q_{k,l} = int_0^pi f_{k1} f_{k2} f_{k3} f_{l1} f_{l2} f_{l3} dx

    by the same quadrature.  A value at or below the rounding bound
    n_grid * eps * sum_x |f_k1 f_k2 f_k3 f_l1 f_l2 f_l3| * w of its sum (w the
    quadrature weight) is dropped as the noise of an analytic zero, so on the
    free basis the keys are the nonzero integrals whatever N_basis is.
    """
    if q_window > basis.n_max:
        raise ValueError("window exceeds the computed spectrum")
    ms = ModeSet.dirichlet(q_window)
    n_grid = 6 * basis.N_basis + 2
    F = eigenfunction_values(basis, n_grid)[:q_window]

    def keys():
        if q_window > _MAX_WINDOW:
            raise BudgetError("eigenbasis window exceeds the budget guard")
        triples = np.array(list(combinations_with_replacement(range(q_window), 3)))
        T = F[triples[:, 0]] * F[triples[:, 1]] * F[triples[:, 2]]
        # int_0^pi = (1/2) int_T for even integrands (products of six odd factors);
        # T @ T.T is symmetric bit for bit, so Q_{l,k} = Q_{k,l} exactly
        w = 0.5 * 2.0 * np.pi / n_grid
        G = (T @ T.T) * w
        # a dot product of n_grid terms errs by at most n_grid * eps * (|T| @ |T|.T)
        A = np.abs(T)
        G[np.abs(G) <= n_grid * np.finfo(float).eps * (A @ A.T) * w] = 0.0
        n = len(triples)
        return np.repeat(triples, n, axis=0), np.tile(triples, (n, 1)), G.ravel().astype(complex)

    return Sextic(ms, F, 6.0 * np.pi, keys)


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
    return FrequencySet(ms, basis.lambdas - ms.squares)


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
