"""
Long-time action stability, raw and in normal-form variables
============================================================

Integrate the truncated flow with the implicit midpoint rule, watch the
conserved quantities, and compare the wobble of a raw action against the
same action after the normalizing transform (a scaled-down version of the
drift experiment; the full sweep lives in the acceptance suite).
"""

import numpy as np

from qnls import (ModeSet, NormalFormConfig, action_drift, birkhoff, build_p6,
                  build_z2, freqs_conv, integrate, sample_conv_potential,
                  suggest_gamma, transform_state)

ms = ModeSet.symmetric(3)
V = sample_conv_potential(s_star=1.0, M=3, seed=2)
fs = freqs_conv(V, ms)
z2 = build_z2(ms, fs)
p6 = build_p6(ms)

rng = np.random.default_rng(0)
u0 = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
u0 *= 0.1 / np.linalg.norm(u0)

traj = integrate(z2, p6, u0, T=200.0, dt=0.01)
print(f"relative norm drift  {traj.norm_drift():.2e}")
print(f"relative energy drift {traj.energy_drift():.2e}")

# normalize away the non-resonant sextic terms
gamma = suggest_gamma(ms, fs, k=1, r=3)
cfg = NormalFormConfig(r=3, gamma=gamma, J_max=4)
res = birkhoff(z2, p6, fs, cfg)
ki = ms.index(1)
raw = np.abs(traj.actions[:, ki] - traj.actions[0, ki]).max()
# the sampled states flow as one stack; each row is its one-state transform
vk = np.abs(transform_state(traj.states[::10], res.generators, "forward")[:, ki]) ** 2
print(f"raw action wobble         {raw:.3e}")
print(f"transformed action wobble {np.abs(vk - vk[0]).max():.3e}")

# the scaling law: drift of |u_1|^2 against the amplitude
drift = action_drift(res, z2, p6, k=1, eps_list=[0.12, 0.08], T=100.0,
                     dt=0.01, seed=0, max_samples=400)
for row in drift.rows:
    print(f"eps={row.eps}: raw {row.drift_raw:.3e}  "
          f"transformed {row.drift_transformed:.3e}")
print(f"fitted exponent {drift.exponent:.2f} (sextic interactions: about 6)")
