"""
A Birkhoff normal form step by step
===================================

Remove the non-resonant sextic monomials of a small truncated Hamiltonian,
inspect the generator, and verify the conjugation identity H = NF o tau.
"""

import numpy as np

from qnls import (ModeSet, NormalFormConfig, birkhoff, build_p6, build_z2,
                  freqs_conv, sample_conv_potential, transform_state)

ms = ModeSet.symmetric(2)
V = sample_conv_potential(s_star=1.0, M=2, seed=9)
fs = freqs_conv(V, ms)
z2 = build_z2(ms, fs)
p6 = build_p6(ms)

cfg = NormalFormConfig(r=3, gamma=0.5, J_max=5)
res = birkhoff(z2, p6, fs, cfg)

print(f"gamma = {cfg.gamma}, eps_r = {res.eps_r:.4g}")
print("degrees kept:", {2 * j: len(P) for j, P in res.resonant.items()})
chi = res.generators[0]
print(f"generator: {len(chi)} keys, l1 = {chi.l1():.4g}")

# every surviving sextic key is gamma-resonant
worst = np.abs(res.resonant[3].divisors(fs)).max()
print(f"largest surviving divisor: {worst:.4g} < gamma")

# the transform conjugates H to the normal form, within the truncation tail
rng = np.random.default_rng(2)
for _ in range(3):
    u = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    u *= (res.eps_r / 3) / np.linalg.norm(u)
    v = transform_state(u, res.generators, "forward")
    lhs = float(z2(u)) + float(p6(u))
    rhs = res.hamiltonian_value(v)
    print(f"H(u) = {lhs:.12g}   NF(tau(u)) = {rhs:.12g}   diff = {abs(lhs-rhs):.2e}")

# the flows preserve the norm and invert cleanly
u = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
u *= 0.05 / np.linalg.norm(u)
v = transform_state(u, res.generators, "forward")
back = transform_state(v, res.generators, "inverse")
print(f"norm change {abs(np.linalg.norm(v) - np.linalg.norm(u)):.2e}, "
      f"round trip {np.linalg.norm(back - u):.2e}")
