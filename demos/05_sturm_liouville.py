"""
Dirichlet eigenbasis of a random even potential
===============================================

Solve the Sturm-Liouville problem on [0, pi] in the sine Galerkin basis,
check the eigenvalue expansion lambda_n = n^2 + avg(W) + O(1/n), and compute
the sextic interaction coefficients in the eigenbasis.
"""

import numpy as np

from qnls import (dirichlet_eig, freqs_mult, p6_decay_constant,
                  p6_eigen_coeffs, sample_mult_potential, sobolev_ratio,
                  verify_ef_decay, verify_ev_asymptotics)

W = sample_mult_potential(s_star=2.0, K=80, seed=3)
basis = dirichlet_eig(W, n_max=40)
n = np.arange(1, 9)
print("lambda_n:", np.round(basis.lambdas[:8], 4))
print("n^2 + avg:", np.round(n.astype(float) ** 2 + basis.avg_W, 4))
print(f"asymptotics constant max n|lambda_n - n^2 - avg| = "
      f"{verify_ev_asymptotics(basis):.4g}")
print(f"orthonormality defect: {basis.gram_defect():.2e}")

decay = verify_ef_decay(basis, sigma=1.0)
print(f"eigenfunction decay constant: {decay['C_fit']:.4g} at {decay['argmax']}")

# Sobolev equivalence in the eigenbasis at s' = 0 and 1
rng = np.random.default_rng(4)
v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
for sp in (0.0, 1.0):
    print(f"H^{sp} ratio: {sobolev_ratio(basis, v, sp):.4g}")

# interaction coefficients: near momentum conservation in the eigenbasis
P6 = p6_eigen_coeffs(basis, q_window=6)
print(f"{len(P6)} sextic eigen-coefficients, largest {np.abs(P6.coef).max():.4g}")
print("decay bound:", p6_decay_constant(P6))

fs = freqs_mult(basis)
print(f"frequency remainder |w - n^2|_inf = {fs.frac_inf:.4g}")
