import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls.poly import (HomPoly, ModeSet, build_p6, build_z2, class_size,
                       poisson, poly_from_json, poly_to_json)
from conftest import coeff_close, is_zero, random_balanced, random_state


def test_mode_set_invariants():
    ms = ModeSet.symmetric(2)
    assert ms.modes == (-2, -1, 0, 1, 2)
    assert ms.index(-2) == 0 and 1 in ms and 3 not in ms
    with pytest.raises(ValueError):
        ModeSet((1, 1, 2), 2)
    with pytest.raises(ValueError):
        ModeSet((), 0)


def test_class_size():
    assert class_size(((0, 0, 0), (0, 0, 0))) == 1
    assert class_size(((0, 1, 2), (0, 0, 1))) == 6 * 3
    assert class_size(((1,), (2,))) == 1


def test_eval_examples():
    ms = ModeSet.dirichlet(2)
    # modulus squared at u1 = 2i
    P = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    assert P(np.array([2j, 0j])) == pytest.approx(4.0, abs=1e-14)
    # Z2 with omega = (1, 3) at u = (1, 1): (1/2)(1 + 3) = 2
    Z = build_z2(ms, [1.0, 3.0])
    assert Z(np.array([1.0 + 0j, 1.0 + 0j])) == pytest.approx(2.0, abs=1e-14)
    # 2 Re(u1 conj(u2)) at (1, 1)/sqrt(2)
    Pc = HomPoly(ms, 1, {((1,), (2,)): 1.0, ((2,), (1,)): 1.0})
    assert Pc(np.ones(2) / math.sqrt(2)) == pytest.approx(1.0, abs=1e-12)


def test_eval_mode_set_mismatch():
    ms = ModeSet.dirichlet(2)
    P = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    with pytest.raises(ValueError):
        P(np.zeros(3, dtype=complex))


def test_gradient_examples(rng):
    ms = ModeSet.dirichlet(1)
    Z = build_z2(ms, [0.7])
    a = 0.3 - 0.2j
    assert np.allclose(Z.gradient(np.array([a])), [0.7 * a])
    # (1/2)|u1|^4: gradient 2|a|^2 a
    P = HomPoly(ms, 2, {((1, 1), (1, 1)): 0.5})
    g = P.gradient(np.array([a]))
    assert np.allclose(g, [2 * abs(a) ** 2 * a], atol=1e-14)


def test_gradient_fd_oracle(rng):
    ms = ModeSet.symmetric(2)
    for q in (1, 2, 3):
        P = random_balanced(ms, q, rng)
        u = random_state(ms, rng)
        v = random_state(ms, rng)
        h = 1e-5
        fd = (P(u + h * v) - P(u - h * v)) / (2 * h)
        ip = float(np.sum(P.gradient(u) * np.conj(v)).real)
        assert abs(fd - ip) < 1e-7 * max(1.0, abs(fd))



def _reference_partials(P, u):
    """(d/du P, d/dconj(u) P) by per-slot row products and np.add.at, kept as
    the oracle of the column-product kernel."""
    du = np.zeros(P.mode_set.size, dtype=complex)
    dub = np.zeros(P.mode_set.size, dtype=complex)
    if not P.coeffs:
        return du, dub
    idx_k, idx_l, cvec, wvec = P._np()
    Uk, Ul = u[idx_k], np.conj(u)[idx_l]
    base = cvec * wvec

    def excl(A, s):
        return np.prod(A[:, [t for t in range(P.q) if t != s]], axis=1)

    for s in range(P.q):
        np.add.at(du, idx_k[:, s], base * excl(Uk, s) * np.prod(Ul, axis=1))
        np.add.at(dub, idx_l[:, s], base * np.prod(Uk, axis=1) * excl(Ul, s))
    return du, dub


@settings(max_examples=80, deadline=None)
@given(window=st.sampled_from(["symmetric", "dirichlet"]), M=st.integers(1, 3),
       q=st.integers(1, 4), n_keys=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_kernel_matches_reference(window, M, q, n_keys, seed):
    rng = np.random.default_rng(seed)
    ms = getattr(ModeSet, window)(M)
    P = random_balanced(ms, q, rng, n_keys=n_keys)
    U = np.array([random_state(ms, rng, norm=rng.uniform(0.2, 2.0)) for _ in range(3)])
    grads = P.gradient(U)
    assert grads.shape == U.shape
    for u, g in zip(U, grads):
        du, dub = _reference_partials(P, u)
        # rounding scale: the same sums taken over absolute values
        scale = max(np.abs(_reference_partials(P.modulus(), np.abs(u))[0]).max(), 1e-300)
        for got, want in ((P._partial(u, "k"), du), (P._partial(u, "l"), dub),
                          (P.gradient(u), 2.0 * dub), (g, 2.0 * dub)):
            assert np.abs(got - want).max() <= 1e-13 * scale
        v = random_state(ms, rng)
        h = 1e-6
        fd = (P(u + h * v) - P(u - h * v)) / (2 * h)
        ip = float(np.sum(g * np.conj(v)).real)
        assert abs(fd - ip) <= 1e-6 * max(1.0, 2.0 * scale)

def test_gradient_requires_real(rng):
    ms = ModeSet.dirichlet(2)
    P = HomPoly(ms, 1, {((1,), (2,)): 1.0})
    assert not P.is_real
    with pytest.raises(ValueError):
        P.gradient(np.ones(2, dtype=complex))


def test_poisson_diagonal_action(rng):
    ms = ModeSet.symmetric(2)
    omega = rng.standard_normal(5)
    Z = build_z2(ms, omega)
    key = ((0, 1), (-1, 2))
    mono = HomPoly(ms, 2, {key: 1.5 + 0.5j})
    br = poisson(Z, mono)
    w = {m: omega[i] for i, m in enumerate(ms.modes)}
    Om = w[0] + w[1] - w[-1] - w[2]
    assert set(br.coeffs) == {key}
    assert br.coeffs[key] == pytest.approx(1j * Om * (1.5 + 0.5j), rel=1e-14)


def test_poisson_disjoint_actions():
    ms = ModeSet.dirichlet(2)
    A = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    B = HomPoly(ms, 1, {((2,), (2,)): 1.0})
    assert len(poisson(A, B)) == 0


def test_poisson_action_with_cross_term():
    ms = ModeSet.dirichlet(2)
    A = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    Pc = HomPoly(ms, 1, {((1,), (2,)): 1.0, ((2,), (1,)): 1.0})
    br = poisson(A, Pc)
    assert br.coeffs[((1,), (2,))] == pytest.approx(2j, rel=1e-14)
    assert br.coeffs[((2,), (1,))] == pytest.approx(-2j, rel=1e-14)


def test_poisson_value_oracle(rng):
    # bracket value equals <i grad P, grad Q> at random states
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng)
    Q = random_balanced(ms, 3, rng)
    br = poisson(P, Q)
    for _ in range(4):
        u = random_state(ms, rng)
        direct = float(np.sum(1j * P.gradient(u) * np.conj(Q.gradient(u))).real)
        assert complex(br(u)).real == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_poisson_antisymmetry_bilinearity(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng)
    Q = random_balanced(ms, 2, rng)
    R = random_balanced(ms, 2, rng)
    assert coeff_close(poisson(P, Q), -1.0 * poisson(Q, P), rtol=1e-13)
    lhs = poisson(P + 2.5 * R, Q)
    rhs = poisson(P, Q) + 2.5 * poisson(R, Q)
    assert coeff_close(lhs, rhs, rtol=1e-13)


def test_poisson_jacobi(rng):
    ms = ModeSet.symmetric(3)
    P = random_balanced(ms, 2, rng, n_keys=4)
    Q = random_balanced(ms, 2, rng, n_keys=4)
    R = random_balanced(ms, 1, rng, n_keys=4)
    total = (poisson(P, poisson(Q, R)) + poisson(Q, poisson(R, P))
             + poisson(R, poisson(P, Q)))
    scale = max(abs(c) for S in (P, Q, R) for c in S.coeffs.values()) ** 3
    assert is_zero(total, 100 * scale, rtol=1e-10)


def test_poisson_balance_and_norm_commutation(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 3, rng)
    norm_sq = build_z2(ms, 2.0 * np.ones(5))  # ||u||^2
    br = poisson(P, norm_sq)
    assert is_zero(br, max(abs(c) for c in P.coeffs.values()), rtol=1e-13)
    Q = random_balanced(ms, 2, rng)
    out = poisson(P, Q)
    assert all(len(k) == len(l) == P.q + Q.q - 1 for k, l in out.coeffs)
    assert out.is_real


def test_modulus():
    ms = ModeSet.dirichlet(2)
    P = HomPoly(ms, 1, {((1,), (1,)): -3.0, ((1,), (2,)): 1j})
    M = P.modulus()
    assert M.coeffs[((1,), (1,))] == 3.0
    assert M.coeffs[((1,), (2,))] == 1.0
    assert coeff_close(M.modulus(), M)


def test_modulus_domination(rng):
    # |mod(P)(u)| <= sum over ordered tuples of |c| prod |u|
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng, real=False)
    M = P.modulus()
    cs = P.class_sizes()
    for _ in range(5):
        u = random_state(ms, rng)
        bound = 0.0
        for (k, l), c in P.coeffs.items():
            amps = np.abs(u)
            prod = np.prod([amps[ms.index(m)] for m in k + l])
            bound += abs(c) * cs[(k, l)] * prod
        assert abs(complex(M(u))) <= bound * (1 + 1e-12)


def test_build_p6_momentum_and_single_mode():
    ms3 = ModeSet.symmetric(3)
    P = build_p6(ms3)
    assert ((0, 1, 2), (-1, 1, 3)) in P.coeffs       # 3 = 3
    assert ((0, 0, 0), (0, 0, 1)) not in P.coeffs    # 0 != 1
    ms0 = ModeSet.symmetric(0)
    P0 = build_p6(ms0, sigma=-1, c6=2.0)
    assert set(P0.coeffs) == {((0, 0, 0), (0, 0, 0))}
    assert P0(np.array([1.0 + 0j])) == pytest.approx(-2.0 / 6.0)


def test_build_p6_gradient_is_convolution(rng):
    ms = ModeSet.symmetric(2)
    P = build_p6(ms, sigma=-1, c6=1.3)
    u = random_state(ms, rng)
    grad = P.gradient(u)
    modes = ms.modes
    out = np.zeros(ms.size, dtype=complex)
    for i1, k1 in enumerate(modes):
        for i2, k2 in enumerate(modes):
            for i3, k3 in enumerate(modes):
                for j1, l1 in enumerate(modes):
                    for j2, l2 in enumerate(modes):
                        m = k1 + k2 + k3 - l1 - l2
                        if m in ms:
                            out[ms.index(m)] += (u[i1] * u[i2] * u[i3]
                                                 * np.conj(u[j1]) * np.conj(u[j2]))
    assert np.max(np.abs(grad - (-1.3) * out)) < 1e-12


def test_build_z2():
    ms = ModeSet.dirichlet(2)
    Z = build_z2(ms, [2.0, 8.0])
    assert Z.coeffs[((1,), (1,))] == 1.0
    assert Z.coeffs[((2,), (2,))] == 4.0


def test_serialization_roundtrip(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng)
    text = poly_to_json(P)
    Q = poly_from_json(text, M_param=2)
    assert coeff_close(P, Q, rtol=1e-15)
    # canonical ordering is stable
    assert text == poly_to_json(Q)
    doc = json.loads(text)
    assert doc["degree"] == 4 and doc["modes"] == list(ms.modes)


def test_add_degree_mismatch():
    ms = ModeSet.dirichlet(2)
    A = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    B = HomPoly(ms, 2, {((1, 1), (1, 1)): 1.0})
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(ValueError):
        poisson(A, HomPoly(ModeSet.dirichlet(3), 1, {((1,), (1,)): 1.0}))
