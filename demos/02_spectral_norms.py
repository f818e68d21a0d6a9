"""
Spectral levels, norm enclosures and the time-integral identity
===============================================================

Split the sextic into the levels of its integer small divisor (the integer
frequencies are the squares m^2 of the modes, read from the mode set), enclose
the level-sup norms, and confirm the quadrature identity behind the Strichartz
bound.
"""

import numpy as np

from qnls import (ModeSet, build_p6, norm_c, norm_h, split_levels,
                  strichartz_identity_check, sup_norm)

ms = ModeSet.symmetric(2)
p6 = build_p6(ms)

levels = split_levels(p6)
print("levels of the M=2 sextic:", sorted(levels))
print("keys per level:", {a: len(p) for a, p in sorted(levels.items())})

# each norm comes as a witnessed lower bound plus a rigorous l1 upper bound
s = sup_norm(p6.modulus(), multistart=24)
h = norm_h(p6, multistart=24)
c = norm_c(p6, multistart=24)
print(f"sup |P6|       in [{s.lower:.6g}, {s.upper:.6g}]")
print(f"level-sup norm in [{h.lower:.6g}, {h.upper:.6g}]")
print(f"weighted norm  in [{c.lower:.6g}, {c.upper:.6g}]")

# the modulus of a level evaluated at |u| equals a time integral of the
# sixth power of the free evolution's L6 norm
rng = np.random.default_rng(1)
u = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
for a in (0, 2, -4):
    direct, quad = strichartz_identity_check(p6, a, u)
    print(f"a={a:+d}: direct {direct:.10g}  quadrature {quad:.10g}")
