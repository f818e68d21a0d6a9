import math

import numpy as np
import pytest

from qnls.errors import BudgetError
from qnls.sturm import (dirichlet_eig, freqs_mult, p6_decay_constant,
                        p6_eigen_coeffs, sobolev_ratio, verify_ef_decay,
                        verify_ev_asymptotics)
from qnls.resonance import sample_mult_potential


@pytest.fixture(scope="module")
def random_basis():
    W = sample_mult_potential(2.0, 80, seed=3)
    return dirichlet_eig(W, n_max=50, N_basis=200)


def test_free_case_exact():
    b = dirichlet_eig(np.zeros(1), n_max=20)
    n = np.arange(1, 21, dtype=float)
    assert np.max(np.abs(b.lambdas - n ** 2)) < 1e-10
    assert np.max(np.abs(b.eigvecs - np.eye(20, b.N_basis))) < 1e-12
    assert verify_ev_asymptotics(b) < 1e-9


def test_constant_shift():
    b = dirichlet_eig(np.array([2.5]), n_max=15)
    n = np.arange(1, 16, dtype=float)
    assert np.max(np.abs(b.lambdas - n ** 2 - 2.5)) < 1e-10
    assert b.avg_W == 2.5
    assert verify_ev_asymptotics(b) < 1e-9


def test_cosine_perturbation_pattern():
    # W = cos(x): first-order coupling c_n[n+1] ~ (1/2)/(lambda_n - (n+1)^2)
    b = dirichlet_eig(np.array([0.0, 1.0]), n_max=10)
    for n in (4, 5, 6):
        got = abs(b.eigvecs[n - 1, n])
        pred = 0.5 / abs(n ** 2 - (n + 1) ** 2)
        assert got == pytest.approx(pred, rel=0.05)


def test_refinement_stability(random_basis):
    b1 = random_basis
    b2 = dirichlet_eig(b1.W_hat, n_max=50, N_basis=400)
    assert np.max(np.abs(b1.lambdas - b2.lambdas)) < 1e-8
    # Rayleigh-Ritz: refinement lowers the retained eigenvalues (within
    # the eigensolver's backward-error noise)
    assert np.all(b2.lambdas <= b1.lambdas + 1e-13 * 400 ** 2)
    c1, c2 = verify_ev_asymptotics(b1), verify_ev_asymptotics(b2)
    assert abs(c1 - c2) <= 0.05 * c1


def test_basis_quality(random_basis):
    assert random_basis.gram_defect() < 1e-10
    assert random_basis.residuals.max() < 1e-8


def test_ef_decay(random_basis):
    rep = verify_ef_decay(random_basis, sigma=1.0)
    assert np.isfinite(rep["C_fit"]) and rep["C_fit"] > 0


def test_sobolev_equivalence(random_basis):
    rng = np.random.default_rng(5)
    for sp in (0.0, 1.0):
        for _ in range(5):
            v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            r = sobolev_ratio(random_basis, v, sp)
            assert 0.1 < r < 10.0


def test_p6_eigen_coeffs_free_case():
    b = dirichlet_eig(np.zeros(1), n_max=8)
    co = p6_eigen_coeffs(b, q_window=5)
    # closed form: int_0^pi (2/pi)^3 sin^6 = 5/(2 pi^2)
    assert co[((1, 1, 1), (1, 1, 1))] == pytest.approx(5 / (2 * math.pi ** 2), rel=1e-12)
    # trigonometric orthogonality: nonzero only when some signed sum vanishes
    for (k, l), val in co.items():
        if abs(val) > 1e-12:
            sums = {sum(s * i for s, i in zip(signs, k + l))
                    for signs in np.ndindex(2, 2, 2, 2, 2, 2)
                    for signs in [tuple(2 * np.array(signs) - 1)]}
            assert 0 in sums
    # full symmetry
    assert co[((1, 1, 2), (1, 1, 1))] == pytest.approx(co[((1, 1, 1), (1, 1, 2))], rel=1e-12)


def test_p6_eigen_coeffs_random(random_basis):
    co = p6_eigen_coeffs(random_basis, q_window=5)
    rep = p6_decay_constant(co)
    assert np.isfinite(rep["C_fit"]) and rep["C_fit"] > 0
    with pytest.raises(BudgetError):
        p6_eigen_coeffs(random_basis, q_window=13)


def test_freqs_mult(random_basis):
    fs = freqs_mult(random_basis)
    assert np.array_equal(fs.omega, random_basis.lambdas)
    n = np.arange(1, 51, dtype=float)
    assert np.array_equal(fs.omega_int, n ** 2)
    c_est = verify_ev_asymptotics(random_basis)
    assert fs.frac_inf <= abs(random_basis.avg_W) + c_est + 1e-12
    # W = 0 and W = c reference points
    b0 = dirichlet_eig(np.zeros(1), n_max=10)
    assert freqs_mult(b0).frac_inf < 1e-10
    bc = dirichlet_eig(np.array([1.7]), n_max=10)
    assert np.allclose(freqs_mult(bc).omega_frac, 1.7, atol=1e-10)
