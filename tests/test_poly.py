import json
import math
from collections import Counter, defaultdict
from itertools import combinations_with_replacement
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

from qnls import cli, poly
from qnls.nf import NormalFormConfig, birkhoff, solve_cohomological, suggest_gamma
from qnls.resonance import sample_conv_potential
from qnls.spectral import freqs_conv
from qnls.poly import (HomPoly, ModeSet, build_p6, build_z2, coeff_close, poisson,
                       poly_from_json, poly_to_json)
from conftest import is_zero, random_balanced, random_state

WINDOWS = st.sampled_from([ModeSet.symmetric(1), ModeSet.symmetric(2), ModeSet.symmetric(3),
                           ModeSet.dirichlet(2), ModeSet.dirichlet(4)])


def draw_poly(data, ms, q=None, real=None, max_keys=10):
    """A random balanced polynomial from hypothesis-drawn size, degree and seed."""
    q = data.draw(st.integers(1, 4)) if q is None else q
    real = data.draw(st.booleans()) if real is None else real
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return random_balanced(ms, q, rng, n_keys=data.draw(st.integers(0, max_keys)), real=real)


# ------------------------------------------------- dict oracles of the kernels


def _perm_count(t) -> int:
    n = math.factorial(len(t))
    for c in Counter(t).values():
        n //= math.factorial(c)
    return n


def _class_size(key) -> int:
    return _perm_count(key[0]) * _perm_count(key[1])


def _slot_derivative(P, side):
    """mode j -> [(other-side tuple, same-side tuple less one j,
    coefficient * class size * multiplicity of j)], in key order."""
    table = defaultdict(list)
    for (k, l), c in P.coeffs.items():
        w = c * _class_size((k, l))
        own, other = (k, l) if side == "k" else (l, k)
        for j, mult in Counter(own).items():
            reduced = list(own)
            reduced.remove(j)
            table[j].append((other, tuple(reduced), w * mult))
    return table


def dict_poisson(P, Q) -> dict:
    """The bracket as Python dict loops over keys: the reference the array
    kernel must reproduce bit for bit, key order included."""
    totals = defaultdict(complex)
    dP_ub, dQ_u = _slot_derivative(P, "l"), _slot_derivative(Q, "k")
    for j, plist in dP_ub.items():
        for kP, lP_red, wP in plist:
            for lQ, kQ_red, wQ in dQ_u.get(j, []):
                totals[(tuple(sorted(kP + kQ_red)), tuple(sorted(lP_red + lQ)))] += wP * wQ
    dP_u, dQ_ub = _slot_derivative(P, "k"), _slot_derivative(Q, "l")
    for j, plist in dP_u.items():
        for lP, kP_red, wP in plist:
            for kQ, lQ_red, wQ in dQ_ub.get(j, []):
                totals[(tuple(sorted(kP_red + kQ)), tuple(sorted(lP + lQ_red)))] -= wP * wQ
    out = {key: 2j * tot / _class_size(key) for key, tot in totals.items() if tot != 0}
    return {key: c for key, c in out.items() if c != 0}


def dict_add(P, Q) -> dict:
    out = dict(P.coeffs)
    for key, c in Q.coeffs.items():
        s = out.get(key, 0j) + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def assert_bits(P: HomPoly, want: dict):
    """Same keys in the same order, and every coefficient equal bit for bit
    (the sign of a zero part included)."""
    got = P.coeffs
    assert list(got) == list(want)
    bits = lambda d: np.array(list(d.values()), dtype=complex).view(np.int64)
    assert np.array_equal(bits(got), bits(want))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_poisson_matches_dict_oracle(data):
    ms = data.draw(WINDOWS)
    P, Q = draw_poly(data, ms), draw_poly(data, ms)
    assert_bits(poisson(P, Q), dict_poisson(P, Q))


@pytest.mark.parametrize("pair", ["p6_p6", "chi_p6"])
def test_poisson_matches_dict_oracle_on_sextic(pair):
    ms = ModeSet.symmetric(3)
    P6 = build_p6(ms)
    if pair == "p6_p6":
        P = P6
    else:
        fs = freqs_conv(sample_conv_potential(1.0, 3, 0), ms)
        P, _ = solve_cohomological(P6, fs, gamma=0.5)
        assert len(P) > 0
    assert_bits(poisson(P, P6), dict_poisson(P, P6))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_add_matches_dict_oracle(data):
    ms = data.draw(WINDOWS)
    P = draw_poly(data, ms)
    Q = draw_poly(data, ms, q=P.q)
    # coefficients on an axis carry signed zeros, which a sum keeps, or resets
    # where a key is new, as the dict did
    axis = data.draw(st.sampled_from([None, 1, 1j, -1j, -1]))
    if axis is not None:
        P, Q = -(axis * P.modulus()), -(axis * Q.modulus())
    # cancel some of P's keys exactly
    drop = set(data.draw(st.lists(st.sampled_from(list(P.coeffs)), max_size=4))) if len(P) else set()
    Q = (Q.restrict(np.array([key not in drop for key in Q.coeffs], dtype=bool))
         + -P.restrict(np.array([key in drop for key in P.coeffs], dtype=bool)))
    assert_bits(P + Q, dict_add(P, Q))
    assert_bits(Q + P, dict_add(Q, P))
    assert not drop & set((P + Q).coeffs)


def test_no_silent_overflow():
    # 11 modes and q = 5 + 6 - 1 = 10: n**(2q) is far past 2**63
    ms = ModeSet.symmetric(5)
    rng = np.random.default_rng(3)
    A, B = random_balanced(ms, 5, rng, n_keys=6), random_balanced(ms, 6, rng, n_keys=6)
    C, D = random_balanced(ms, 5, rng, n_keys=6), random_balanced(ms, 6, rng, n_keys=6)
    assert ms.size ** (2 * 10) >= 2 ** 63
    AB, CD = poisson(A, B), poisson(C, D)
    assert_bits(AB, dict_poisson(A, B))
    assert_bits(CD, dict_poisson(C, D))
    assert_bits(AB + CD, dict_add(AB, CD))
    assert_bits(AB + (-AB), {})
    # where even the multiset codes cannot fit, the kernels say so
    big = HomPoly(ModeSet.symmetric(20), 15, {((0,) * 15, (0,) * 15): 1.0})
    with pytest.raises(OverflowError):
        big + big


def test_bracket_overflow_is_an_error():
    # half-degree 8 + 8 - 1 = 15 on 41 modes: C(55, 15)**2 is past 2**63, and
    # the two keys share mode 0, so the bracket has pairs whose codes would wrap
    ms = ModeSet.symmetric(20)
    P = HomPoly(ms, 8, {((0,) * 8, (0,) * 8): 1.0})
    Q = HomPoly(ms, 8, {((0,) * 7 + (1,), (0,) * 8): 1.0})
    assert math.comb(ms.size + 14, 15) ** 2 >= 2 ** 63
    with pytest.raises(OverflowError):
        poisson(P, Q)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 7]))
def test_poisson_matches_dict_oracle_across_block_splits(data, block):
    # blocks of 1 and 7 pairs split every j group at arbitrary pairs: the
    # running totals must carry the same sums in the same order across them
    ms = data.draw(WINDOWS)
    P, Q = draw_poly(data, ms), draw_poly(data, ms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCK", block)
        got = poisson(P, Q)
    assert_bits(got, dict_poisson(P, Q))


def test_poisson_on_sextic_across_block_splits():
    ms = ModeSet.symmetric(3)
    P6 = build_p6(ms)
    chi, _ = solve_cohomological(P6, freqs_conv(sample_conv_potential(1.0, 3, 0), ms), gamma=0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCK", 7)
        got = poisson(chi, P6)
    assert_bits(got, dict_poisson(chi, P6))


def poisson_by_np_unique(P, Q):
    """The bracket with np.unique tabulating the distinct rows in _merged,
    where the kernel calls poly._unique; the bracket's own codes keep _unique."""
    merged = poly._merged

    def merged_by_np_unique(X, Y, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_unique", lambda codes: np.unique(
                codes, return_index=True, return_inverse=True))
            return merged(X, Y, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_merged", merged_by_np_unique)
        return poisson(P, Q)


def assert_same_arrays(P: HomPoly, Q: HomPoly):
    assert np.array_equal(P.idx_k, Q.idx_k) and np.array_equal(P.idx_l, Q.idx_l)
    assert np.array_equal(P.coef.view(np.int64), Q.coef.view(np.int64))


@pytest.mark.parametrize("seed", [0, 7, 18])
def test_merged_tables_give_the_sextic_brackets_of_np_unique(seed):
    # the first generator of the M=3 normal form, bracketed with P6 and itself
    ms = ModeSet.symmetric(3)
    P6 = build_p6(ms)
    chi, _ = solve_cohomological(P6, freqs_conv(sample_conv_potential(1.0, 3, seed), ms), 0.5)
    for Q in (P6, chi):
        assert_same_arrays(poisson(chi, Q), poisson_by_np_unique(chi, Q))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=6), min_size=1, max_size=8),
       data=st.data())
def test_class_size(rows, data):
    q = len(rows[0])
    keys = {(tuple(sorted(r[:q] + [0] * (q - len(r)))),
             tuple(sorted(data.draw(st.lists(st.integers(0, 4), min_size=q, max_size=q)))))
            for r in rows}
    P = HomPoly(ModeSet.dirichlet(5), q, {(tuple(m + 1 for m in k), tuple(m + 1 for m in l)): 1.0
                                          for k, l in keys})
    multinomial = lambda t: math.factorial(len(t)) // math.prod(
        math.factorial(c) for c in Counter(t).values())
    for key, cs in zip(P.coeffs, P.csize):
        assert cs == multinomial(key[0]) * multinomial(key[1])
    assert HomPoly(ModeSet.dirichlet(3), 3, {((1, 2, 3), (1, 1, 2)): 1.0}).csize[0] == 6 * 3


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_is_real_matches_definition(data):
    ms = data.draw(WINDOWS)
    P = draw_poly(data, ms)
    if len(P) and data.draw(st.booleans()):
        # break or keep the symmetry of one coefficient by a drawn amount
        key = data.draw(st.sampled_from(list(P.coeffs)))
        P = P + HomPoly(ms, P.q, {key: data.draw(st.sampled_from([1e-15, 1e-6, 1j]))})
    c = P.coeffs
    tol = 1e-12 * max((abs(v) for v in c.values()), default=0.0)
    want = all(abs(c.get((l, k), 0j) - v.conjugate()) <= tol for (k, l), v in c.items())
    assert HomPoly(ms, P.q, c).is_real == want


def test_mode_set_invariants():
    ms = ModeSet.symmetric(2)
    assert ms.modes == (-2, -1, 0, 1, 2)
    assert ms.index(-2) == 0 and 1 in ms and 3 not in ms
    with pytest.raises(ValueError):
        ModeSet((1, 1, 2))
    with pytest.raises(ValueError):
        ModeSet(())
    # the window size is max |m|, derived from the modes
    assert ms.M_param == 2 and ModeSet.dirichlet(4).M_param == 4
    assert ModeSet((0, 2, 5)).M_param == 5 and ModeSet((-7, 3)).M_param == 7
    # the integer frequencies m^2, derived once and read-only
    assert ms.squares.dtype == np.int64 and ms.squares.tolist() == [4, 1, 0, 1, 4]
    assert ms.squares is ms.squares
    with pytest.raises(ValueError, match="read-only"):
        ms.squares[0] = 9


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
    if not len(P):
        return du, dub
    idx_k, idx_l = P.idx_k, P.idx_l
    Uk, Ul = u[idx_k], np.conj(u)[idx_l]
    base = P.coef * P.csize

    def excl(A, s):
        return np.prod(A[:, [t for t in range(P.q) if t != s]], axis=1)

    for s in range(P.q):
        np.add.at(du, idx_k[:, s], base * excl(Uk, s) * np.prod(Ul, axis=1))
        np.add.at(dub, idx_l[:, s], base * np.prod(Uk, axis=1) * excl(Ul, s))
    return du, dub


def _loop_partial(P, u):
    """d/dconj(u) P at one state by column products and a bincount per slot:
    the per-state kernel the factored gradient replaced, kept as its oracle."""
    n, q = P.mode_set.size, P.q
    if not len(P):
        return np.zeros(n, dtype=complex)
    base = P.coef * P.csize
    for t in range(q):
        base = base * u[P.idx_k[:, t]]
    cols = [np.conj(u)[P.idx_l[:, t]] for t in range(q)]
    contrib = np.empty((q, base.size), dtype=complex)
    for s in range(q):
        contrib[s] = base
        for t in range(q):
            if t != s:
                contrib[s] *= cols[t]
    slots = P.idx_l.T.ravel()
    re = np.bincount(slots, weights=contrib.real.ravel(), minlength=n)
    im = np.bincount(slots, weights=contrib.imag.ravel(), minlength=n)
    return re + 1j * im


def _check_gradient_stack(P, U, rng, fd_rows):
    """P.gradient on the stack U (..., n) against both oracles, each row bit
    for bit equal to that state's gradient alone, and a central difference
    on the first fd_rows rows."""
    ms = P.mode_set
    grads = P.gradient(U)
    assert grads.shape == U.shape
    for i, (u, g) in enumerate(zip(U.reshape(-1, ms.size), grads.reshape(-1, ms.size))):
        assert np.array_equal(P.gradient(u), g)
        _, dub = _reference_partials(P, u)
        # rounding scale: the same sums taken over absolute values
        scale = max(np.abs(_reference_partials(P.modulus(), np.abs(u))[0]).max(), 1e-300)
        for got, want in ((g, 2.0 * dub), (g, 2.0 * _loop_partial(P, u))):
            assert np.abs(got - want).max() <= 1e-13 * scale
        if i < fd_rows:
            v = random_state(ms, rng)
            h = 1e-6
            fd = (P(u + h * v) - P(u - h * v)) / (2 * h)
            ip = float(np.sum(g * np.conj(v)).real)
            assert abs(fd - ip) <= 1e-6 * max(1.0, 2.0 * scale)


@settings(max_examples=80, deadline=None)
@given(window=st.sampled_from(["symmetric", "dirichlet"]), M=st.integers(1, 3),
       q=st.integers(1, 4), n_keys=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
       stack=st.sampled_from([(3,), (), (1,), (2, 3), (33,)]))
def test_gradient_kernel_matches_reference(window, M, q, n_keys, seed, stack):
    rng = np.random.default_rng(seed)
    ms = getattr(ModeSet, window)(M)
    P = random_balanced(ms, q, rng, n_keys=n_keys)
    U = np.array([random_state(ms, rng, norm=rng.uniform(0.2, 2.0))
                  for _ in range(math.prod(stack))]).reshape(stack + (ms.size,))
    _check_gradient_stack(P, U, rng, fd_rows=3)


@pytest.mark.parametrize("window", ["symmetric", "dirichlet"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_gradient_of_empty_polynomial(window, q, rng):
    ms = getattr(ModeSet, window)(2)
    P = HomPoly(ms, q)
    for shape in [(ms.size,), (1, ms.size), (2, 3, ms.size), (0, ms.size)]:
        g = P.gradient(random_state(ms, rng) * np.ones(shape))
        assert g.shape == shape and not g.any()


def test_gradient_kernel_on_drift_generator(rng):
    # the q=3 generator of the drift set-up (M=5, k=1, r=3): 3510 keys, 282
    # distinct rows a side, so 130 states run through the kernel in 3 blocks
    ms = ModeSet.symmetric(5)
    fs = freqs_conv(sample_conv_potential(1.0, 5, 2), ms)
    gamma = suggest_gamma(ms, fs, k=1, r=3)
    res = birkhoff(build_z2(ms, fs), build_p6(ms), fs,
                   NormalFormConfig(r=3, gamma=gamma, J_max=4, seed=0, norm_lower_levels=1))
    P = max(res.generators, key=len)
    assert (P.q, len(P)) == (3, 3510)
    for B in (33, 130):
        U = np.array([random_state(ms, rng, norm=rng.uniform(0.05, 0.1)) for _ in range(B)])
        _check_gradient_stack(P, U, rng, fd_rows=2)


def test_gradient_rows_of_a_long_stack_match_rows_alone(rng):
    # one distinct k-row, so 2**14 states fill a 256 KiB work array: the size
    # from which numpy computes `x * temporary` in place, factors swapped
    ms = ModeSet.symmetric(1)
    P = HomPoly(ms, 2, {((-1, 1), (-1, 1)): 0.7})
    U = rng.standard_normal((1 << 14, 3)) + 1j * rng.standard_normal((1 << 14, 3))
    grads = P.gradient(U)
    for i in range(0, len(U), 97):
        assert np.array_equal(P.gradient(U[i]), grads[i])


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poisson_antisymmetry_bilinearity(data):
    ms = data.draw(WINDOWS)
    P = draw_poly(data, ms)
    Q = draw_poly(data, ms)
    R = draw_poly(data, ms, q=P.q)
    assert coeff_close(poisson(P, Q), -1.0 * poisson(Q, P), rtol=1e-13)
    lhs = poisson(P + 2.5 * R, Q)
    rhs = poisson(P, Q) + 2.5 * poisson(R, Q)
    assert coeff_close(lhs, rhs, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poisson_jacobi(data):
    ms = data.draw(WINDOWS)
    P = draw_poly(data, ms, q=data.draw(st.integers(1, 3)), max_keys=5)
    Q = draw_poly(data, ms, q=data.draw(st.integers(1, 3)), max_keys=5)
    R = draw_poly(data, ms, q=data.draw(st.integers(1, 2)), max_keys=5)
    total = (poisson(P, poisson(Q, R)) + poisson(Q, poisson(R, P))
             + poisson(R, poisson(P, Q)))
    scale = max([np.abs(S.coef).max(initial=0.0) for S in (P, Q, R)] + [1e-100]) ** 3
    assert is_zero(total, 100 * scale, rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poisson_balance_and_norm_commutation(data):
    ms = data.draw(WINDOWS)
    P = draw_poly(data, ms)
    norm_sq = build_z2(ms, 2.0 * np.ones(ms.size))  # ||u||^2
    br = poisson(P, norm_sq)
    assert is_zero(br, np.abs(P.coef).max(initial=0.0), rtol=1e-13)
    Q = draw_poly(data, ms)
    out = poisson(P, Q)
    assert all(len(k) == len(l) == P.q + Q.q - 1 for k, l in out.coeffs)
    assert out.is_real or not (P.is_real and Q.is_real)


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
    for _ in range(5):
        u = random_state(ms, rng)
        bound = 0.0
        for (k, l), c in P.coeffs.items():
            amps = np.abs(u)
            prod = np.prod([amps[ms.index(m)] for m in k + l])
            bound += abs(c) * _class_size((k, l)) * prod
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


def fft_sextic_grid(modes):
    """FFT slots modes % N on the next fast length N >= 3*(max - min) + 1."""
    modes = np.asarray(modes)
    N = next_fast_len(3 * int(modes.max() - modes.min()) + 1)
    return modes % N, N


def fft_sextic(u, idx, N, gradient):
    """The window kernel by np.fft on a zero-filled spectrum, kept as the
    oracle of the dense-DFT kernel of build_p6: the window coefficients of
    |w|^4 w (gradient) or the mean of |w|^6 (value)."""
    spec = np.zeros(u.shape[:-1] + (N,), dtype=complex)
    spec[..., idx] = u
    w = np.fft.ifft(spec) * N
    if gradient:
        return (np.fft.fft(np.abs(w) ** 4 * w) / N)[..., idx]
    return np.mean(np.abs(w) ** 6, axis=-1)


@pytest.mark.parametrize("modes", [pytest.param(tuple(range(-M, M + 1)), id=f"M={M}")
                                   for M in range(17)]
                         + [pytest.param(m, id=str(m)) for m in [(0, 2, 5), (-4, -1, 3, 7)]])
# 776 rows: the tau nodes of strichartz_quadrature at M = 8
@pytest.mark.parametrize("rows", [(), (3,), (776,)], ids=["state", "3rows", "776rows"])
def test_sextic_dft_matches_fft_oracle(modes, rows, rng):
    shape = rows + (len(modes),)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    p6 = build_p6(ModeSet(modes))   # sigma = c6 = 1: the value is mean |w|^6 / 6
    oracle = fft_sextic_grid(modes)
    for gradient in (True, False):
        got = p6.gradient(u) if gradient else 6.0 * p6(u)
        want = fft_sextic(u, *oracle, gradient)
        assert got.shape == want.shape
        if gradient:    # per state, relative to the oracle's norm
            err, scale = np.linalg.norm(got - want, axis=-1), np.linalg.norm(want, axis=-1)
        else:
            err, scale = np.abs(got - want), np.abs(want)
        assert np.all(err <= 1e-13 * scale)


def eager_sextic_table(ms, sigma, c6):
    """The key arrays as the sextic listed them at construction: every (k, l)
    pair of index triples with equal momentum, buckets in order of first
    appearance, k outer; class sizes 3!/(multiplicities!) of each side."""
    buckets = defaultdict(list)
    for t in combinations_with_replacement(range(ms.size), 3):
        buckets[sum(ms.modes[i] for i in t)].append(t)
    k = [a for b in buckets.values() for a in b for _ in b]
    l = [c for b in buckets.values() for _ in b for c in b]
    size = lambda t: 6 // math.prod(math.factorial(n) for n in Counter(t).values())
    return {"idx_k": np.array(k, dtype=np.intp), "idx_l": np.array(l, dtype=np.intp),
            "coef": np.full(len(k), complex(sigma * c6 / 6.0)),
            "csize": np.array([float(size(a) * size(c)) for a, c in zip(k, l)])}


@pytest.mark.parametrize("ms", [ModeSet.symmetric(M) for M in range(9)]
                         + [ModeSet.dirichlet(4), ModeSet((0, 2, 5)), ModeSet((-4, -1, 3, 7))],
                         ids=lambda ms: str(ms.modes))
def test_sextic_builds_eager_keys_on_first_read(ms):
    for sigma, c6 in ((1, 1.3), (-1, 1.7)):
        want = eager_sextic_table(ms, sigma, c6)
        for first in want:      # any key array read first builds all four
            P = build_p6(ms, sigma=sigma, c6=c6)
            assert not set(want) & set(vars(P))
            getattr(P, first)
            for name, arr in want.items():
                got = vars(P)[name]
                assert got.dtype == arr.dtype and got.shape == arr.shape
                assert got.tobytes() == arr.tobytes(), name


def test_build_z2():
    ms = ModeSet.dirichlet(2)
    Z = build_z2(ms, [2.0, 8.0])
    assert Z.coeffs[((1,), (1,))] == 1.0
    assert Z.coeffs[((2,), (2,))] == 4.0


def test_serialization_roundtrip(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng)
    text = poly_to_json(P)
    Q = poly_from_json(text)
    assert coeff_close(P, Q, rtol=1e-15)
    # canonical ordering is stable
    assert text == poly_to_json(Q)
    doc = json.loads(text)
    assert doc["degree"] == 4 and doc["modes"] == list(ms.modes)


def sorted_dict_to_json(P: HomPoly) -> str:
    """The serializer that sorts the items of the coeffs mapping and lets json
    indent and sort the keys, kept as the oracle of poly_to_json."""
    entries = [
        {"k": [int(m) for m in key[0]], "l": [int(m) for m in key[1]],
         "re": float(c.real), "im": float(c.imag)}
        for key, c in sorted(P.coeffs.items())
    ]
    doc = {"degree": P.degree, "modes": [int(m) for m in P.mode_set.modes],
           "entries": entries}
    return json.dumps(doc, indent=2, sort_keys=True)


# coefficients on an axis carry signed zeros, which both must write as -0.0
AXES = st.sampled_from([None, 1, -1, 1j, -1j, 0.5 - 2j])


def draw_axis_poly(data, max_keys: int) -> HomPoly:
    P = draw_poly(data, data.draw(WINDOWS), max_keys=max_keys)
    axis = data.draw(AXES)
    return P if axis is None else -(axis * P.modulus())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_poly_to_json_matches_sorted_dict(data):
    P = draw_axis_poly(data, max_keys=30)
    # entries are rendered a block of rows at a time; small blocks split them
    rows = data.draw(st.sampled_from([1, 2, 7, poly._JSON_ROWS]))
    with mock.patch.object(poly, "_JSON_ROWS", rows):
        assert poly_to_json(P) == sorted_dict_to_json(P)


def test_poly_from_json_rejects_a_repeated_key():
    doc = {"degree": 2, "modes": [0, 1], "entries": [
        {"k": [1], "l": [0], "re": 1.0, "im": 0.0},
        {"k": [1], "l": [0], "re": 2.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="twice"):
        poly_from_json(json.dumps(doc))
    # the same key spelled in another order is the same key
    doc = {"degree": 4, "modes": [0, 1], "entries": [
        {"k": [0, 1], "l": [0, 1], "re": 1.0, "im": 0.0},
        {"k": [1, 0], "l": [0, 1], "re": 2.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="twice"):
        poly_from_json(json.dumps(doc))


# ------------------------------------------------ the CLI's streamed writer

# scalars json writes itself: signed zeros, NaN, infinities and subnormals
# among the floats, escapes and non-ASCII characters among the strings
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, -2.5e-310, math.nan, -math.inf])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
SLOT = object()     # a leaf that becomes a drawn polynomial
TREES = st.recursive(
    SCALARS | st.just(SLOT),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=12)


def _fill(tree, draw):
    """The tree with each SLOT replaced by draw()."""
    if tree is SLOT:
        return draw()
    if isinstance(tree, dict):
        return {key: _fill(val, draw) for key, val in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_fill(val, draw) for val in tree)
    return tree


def _oracle(tree) -> str:
    """json.dump's text, with each polynomial as the sorted-dict document."""
    def as_doc(node):
        if isinstance(node, HomPoly):
            return json.loads(sorted_dict_to_json(node))
        if isinstance(node, dict):
            return {key: as_doc(val) for key, val in node.items()}
        if isinstance(node, (list, tuple)):
            return [as_doc(val) for val in node]
        return node
    return json.dumps(as_doc(tree), indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_write_json_matches_json_dumps(tmp_path_factory, data):
    tree = _fill(data.draw(TREES), lambda: draw_axis_poly(data, max_keys=6))
    path = tmp_path_factory.getbasetemp() / "doc.json"
    # a polynomial's text goes to the file in slices; small ones split it
    with mock.patch.object(cli, "_SLICE", data.draw(st.sampled_from([1, 9, cli._SLICE]))):
        cli._write_json(path, tree)
    assert path.read_text() == _oracle(tree)


def test_write_json_zero_key_and_nonfinite_polynomials(tmp_path):
    ms = ModeSet.symmetric(1)
    empty, P = HomPoly(ms, 2), -(1j * build_p6(ms).modulus())
    odd = HomPoly(ms, 1, {((1,), (0,)): complex(math.nan, math.inf),
                          ((0,), (0,)): complex(-math.inf, -0.0)})
    tree = {"a": empty, "b": [empty, [P, {}], []], "c": {"d": {"e": P, "f": odd}}}
    cli._write_json(tmp_path / "doc.json", tree)
    assert (tmp_path / "doc.json").read_text() == _oracle(tree)
    assert '"entries": []' in _oracle(tree)


def test_add_degree_mismatch():
    ms = ModeSet.dirichlet(2)
    A = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    B = HomPoly(ms, 2, {((1, 1), (1, 1)): 1.0})
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(ValueError):
        poisson(A, HomPoly(ModeSet.dirichlet(3), 1, {((1,), (1,)): 1.0}))
