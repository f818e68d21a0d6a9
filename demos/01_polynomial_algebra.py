"""
Sparse balanced polynomials and their Poisson algebra
=====================================================

Build the diagonal quadratic and the sextic interaction on a small window,
evaluate them, and check the structural identities by hand.
"""

import numpy as np

from qnls import ModeSet, build_p6, build_z2, poisson, poly_to_json

# the convolution-case window [-2, 2]
ms = ModeSet.symmetric(2)
rng = np.random.default_rng(0)

# frequencies k^2 plus a small perturbation
omega = np.asarray(ms.modes, float) ** 2 + 0.3 * rng.standard_normal(ms.size)
z2 = build_z2(ms, omega)
p6 = build_p6(ms, sigma=1, c6=1.0)
print(f"sextic on [-2,2]: {len(p6)} canonical keys")

# evaluation and the convolution form of the gradient
u = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
u *= 0.5 / np.linalg.norm(u)
print(f"P6(u) = {p6(u):.6g},  Z2(u) = {z2(u):.6g}")
g = p6.gradient(u)
print(f"||grad P6(u)|| = {np.linalg.norm(g):.6g}")

# the bracket with Z2 multiplies each key by i * Omega(k, l); in particular
# the bracket with the squared norm (omega = 2) vanishes identically
norm_sq = build_z2(ms, 2.0 * np.ones(ms.size))
br = poisson(p6, norm_sq)
print(f"{{P6, ||.||^2}} has {len(br)} keys  (expect 0)")

# antisymmetry on a nontrivial pair
b1 = poisson(z2, p6)
b2 = poisson(p6, z2)
worst = np.abs((b1 + b2).coef).max(initial=0.0)
print(f"antisymmetry defect: {worst:.2e}")

# canonical JSON serialization is stable and sorted
text = poly_to_json(build_p6(ModeSet.symmetric(1)))
print(f"serialized M=1 sextic: {len(text)} bytes")
