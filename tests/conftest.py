import numpy as np
import pytest
from hypothesis import settings

from qnls.poly import HomPoly, ModeSet

# the same examples on every run, and a failure prints the blob that replays
# it (@reproduce_failure), so a failing property test reproduces from its log
settings.register_profile("qnls", derandomize=True, print_blob=True)
settings.load_profile("qnls")


def random_balanced(ms: ModeSet, q: int, rng, n_keys: int = 6,
                    real: bool = True) -> HomPoly:
    """Sparse random balanced polynomial; real-valued when requested."""
    coeffs = {}
    modes = np.array(ms.modes)
    for _ in range(n_keys):
        k = tuple(sorted(rng.choice(modes, q)))
        l = tuple(sorted(rng.choice(modes, q)))
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[(k, l)] = coeffs.get((k, l), 0j) + c
        if real:
            coeffs[(l, k)] = coeffs.get((l, k), 0j) + c.conjugate()
    return HomPoly(ms, q, coeffs)


def random_state(ms: ModeSet, rng, norm: float = 1.0) -> np.ndarray:
    u = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    return u * (norm / np.linalg.norm(u))


def divisor(omega, key, ms: ModeSet | None = None) -> float:
    """Signed frequency sum Omega(k, l) of one balanced key; a raw frequency
    array needs its mode set."""
    ms = getattr(omega, "mode_set", ms)
    return float(HomPoly(ms, len(key[0]), {key: 1.0}).divisors(omega)[0])


def is_zero(P: HomPoly, scale: float, rtol: float = 1e-12) -> bool:
    return bool(np.all(np.abs(P.coef) <= rtol * scale))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
