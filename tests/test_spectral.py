import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qnls import spectral
from qnls.errors import BudgetError
from qnls.nf import NormalFormConfig
from qnls.poly import HomPoly, ModeSet, build_p6, build_z2, coeff_close, poisson
from qnls.spectral import (FrequencySet, NormEnclosure, freqs_conv, japanese,
                           level_enclosures, norm_c, norm_h, project,
                           split_levels, strichartz_identity_check, sup_norm)
from qnls.sturm import dirichlet_eig, p6_eigen_coeffs
from conftest import divisor, random_balanced, random_state

SQ2PI = math.sqrt(2 * math.pi)


def test_freqs_conv_examples():
    ms = ModeSet.symmetric(3)
    fs0 = freqs_conv(np.zeros(7), ms)
    assert np.allclose(fs0.omega, np.asarray(ms.modes, float) ** 2)
    V = np.zeros(7)
    V[ms.index(1)] = 1.0
    fs = freqs_conv(V, ms)
    assert fs.value(1) == pytest.approx(1 + SQ2PI)
    assert fs.frac_inf == pytest.approx(SQ2PI * np.max(np.abs(V)))
    with pytest.raises(ValueError):
        freqs_conv(np.full(7, 1j), ms)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, complex(0, np.nan)])
def test_freqs_conv_needs_finite_coefficients_one_per_mode(bad):
    # FrequencySet owns the finiteness rule; 1e308 overflows to an infinite remainder
    rule = "must be real" if isinstance(bad, complex) else "remainder must be finite"
    ms = ModeSet.symmetric(1)
    with pytest.raises(ValueError, match=rule):
        freqs_conv(np.array([0.0, bad, 0.0]), ms)
    with pytest.raises(ValueError, match="3 coefficients"):
        freqs_conv(np.zeros(4), ms)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), scale=st.sampled_from([1e-9, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=0, scale=1e-9, seed=0)
def test_value_is_the_entry_of_omega_bit_for_bit(n, scale, seed):
    # n = 0 is the window (1, 10^7) with remainders (0, 1e-9)
    rng = np.random.default_rng(seed)
    modes = sorted({1, 10 ** 7, *rng.integers(-10 ** 7, 10 ** 7, n).tolist()})
    ms = ModeSet(tuple(modes))
    frac = scale * rng.standard_normal(ms.size) if n else np.where(np.array(modes) == 1, 0, 1e-9)
    fs = FrequencySet(ms, frac)
    values = np.array([fs.value(m) for m in ms.modes])
    assert np.array_equal(values.view(np.int64), fs.omega.view(np.int64))


def test_sup_norm_of_a_sextic_level0_keeps_the_entry_budget(monkeypatch):
    # M=64 holds 366,145 sorted triples times 131 starts, past the 5,000,000-entry
    # budget; they are counted before the cells are built, and none is listed
    def listed(ms):
        raise AssertionError("the window's triples were listed")

    monkeypatch.setattr(spectral, "momentum_buckets", listed)
    with pytest.raises(BudgetError, match="M=64"):
        sup_norm(spectral.SexticLevel0(ModeSet.symmetric(64)))


def test_frequency_split_exact():
    ms = ModeSet.symmetric(2)
    V = np.array([0.3, -0.1, 0.7, 0.2, -0.4])
    fs = freqs_conv(V, ms)
    # the frequencies are the float squares plus the remainder, bit for bit
    assert np.array_equal(fs.omega, np.asarray(ms.modes).astype(float) ** 2 + fs.omega_frac)
    assert fs.int_inf == 4.0
    with pytest.raises(ValueError, match="nonzero"):
        FrequencySet(ModeSet((0,)), np.ones(1))
    with pytest.raises(ValueError, match="remainder does not match"):
        FrequencySet(ms, np.zeros(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="remainder must be finite"):
            FrequencySet(ms, np.array([0.0, 0.0, bad, 0.0, 0.0]))


def test_small_divisor_examples():
    ms = ModeSet.symmetric(7)
    fs = freqs_conv(np.zeros(15), ms)
    assert divisor(fs, ((1,), (1,))) == 0.0
    key = ((0, 1, 2), (-1, 1, 3))
    assert divisor(fs, key) == pytest.approx(-6.0)
    # exact free resonance 1 + 49 - 2*25 = 0
    assert divisor(fs, ((1, 7), (5, 5))) == pytest.approx(0.0, abs=1e-14)


def test_project_partition_and_support():
    ms = ModeSet.symmetric(1)
    P = build_p6(ms)
    levels = split_levels(P)
    assert sorted(levels) == [-2, 0, 2]
    # spec: a single key lands where its integer divisor says
    part = project(P, 2)
    assert ((-1, 1, 1), (0, 0, 1)) in part.coeffs
    # partition of unity, exact on coefficients
    total = None
    for piece in levels.values():
        total = piece if total is None else total + piece
    assert coeff_close(total, P, rtol=0)
    # the supports are disjoint
    assert sum(len(p) for p in levels.values()) == len(P)
    # |a| beyond 2 q |omega_i|_inf is empty
    assert len(project(P, 7)) == 0
    assert all(abs(a) <= 2 * 3 * 1 for a in levels)


def test_project_z2_diagonal():
    ms = ModeSet.symmetric(2)
    Z = build_z2(ms, np.array([0.3, 1.0, 2.0, -1.0, 0.5]))
    assert coeff_close(project(Z, 0), Z, rtol=0)


def test_project_keeps_no_key_at_a_non_integer_level():
    # levels are integers: a = 2.5 or -0.5 holds no key, a = 2.0 is level 2
    P = build_p6(ModeSet.symmetric(2))
    assert len(project(P, 2)) == 15
    assert coeff_close(project(P, 2.0), project(P, 2), rtol=0)
    assert len(project(P, 2.5)) == 0 and len(project(P, -0.5)) == 0


def test_sup_norm_projector():
    ms = ModeSet.dirichlet(2)
    P = HomPoly(ms, 1, {((1,), (1,)): 1.0})
    enc = sup_norm(P)
    assert enc.lower == pytest.approx(1.0, abs=1e-10)
    assert enc.upper == pytest.approx(1.0, abs=1e-12)
    assert abs(complex(P(enc.witness))) >= enc.lower - 1e-12


def test_sup_norm_posynomial():
    # |u1|^2 |u2|^4 peaks at x = 1/3: 4/27
    ms = ModeSet.dirichlet(2)
    P = HomPoly(ms, 3, {((1, 2, 2), (1, 2, 2)): 1.0 / 9.0})
    enc = sup_norm(P)
    assert enc.lower == pytest.approx(4.0 / 27.0, abs=1e-10)
    assert enc.upper == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_cross_term():
    ms = ModeSet.dirichlet(2)
    P = HomPoly(ms, 1, {((1,), (2,)): 1.0, ((2,), (1,)): 1.0})
    enc = sup_norm(P)
    assert enc.lower == pytest.approx(1.0, abs=1e-9)
    assert enc.upper == pytest.approx(2.0)


def test_sup_norm_signed():
    ms = ModeSet.dirichlet(2)
    Z = build_z2(ms, [1.0, -3.0])
    enc = sup_norm(Z.modulus(), multistart=16)
    assert enc.lower == pytest.approx(1.5, abs=1e-8)
    assert enc.lower <= enc.upper
    # the signed polynomial itself attains the bound at the witness
    assert abs(Z(enc.witness)) >= enc.lower - 1e-12


def test_sup_norm_takes_moduli_only():
    ms = ModeSet.dirichlet(2)
    signed = build_z2(ms, [1.0, -3.0])
    imaginary = HomPoly(ms, 1, {((1,), (2,)): 1j, ((2,), (1,)): -1j})
    for P in (signed, imaginary):
        with pytest.raises(ValueError, match="modulus"):
            sup_norm(P)


def test_sup_norm_witness_contract(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng).modulus()
    enc = sup_norm(P, multistart=16)
    val = abs(complex(P(enc.witness)))
    assert val >= enc.lower - 1e-12
    assert np.linalg.norm(enc.witness) == pytest.approx(1.0, abs=1e-12)
    # a real nonnegative vector, written out as plain floats
    assert enc.witness.dtype == float and np.all(enc.witness >= 0)
    assert enc.to_dict()["witness"] == enc.witness.tolist()
    empty = sup_norm(HomPoly(ms, 2))
    assert empty.witness.dtype == float and not empty.witness.any()


def test_norm_h_diagonal_single_level(rng):
    ms = ModeSet.symmetric(2)
    # actions-only polynomial: a single level a = 0
    Z = build_z2(ms, np.abs(rng.standard_normal(5)))
    encs = level_enclosures(Z)
    assert list(encs) == [0]
    h = norm_h(Z)
    s = sup_norm(Z.modulus())
    assert h.lower == pytest.approx(s.lower, rel=1e-9)


def test_norm_h_vs_sup_of_modulus(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng)
    h = norm_h(P, multistart=16)
    s = sup_norm(P.modulus(), multistart=16)
    assert h.lower <= s.upper * (1 + 1e-12)


def test_norm_c_brute_force_small():
    ms = ModeSet.symmetric(1)
    P = build_p6(ms)
    encs = level_enclosures(P, multistart=24)
    want_low = max(japanese(a) * e.lower for a, e in encs.items())
    want_up = max(japanese(a) * e.upper for a, e in encs.items())
    got = norm_c(P, multistart=24)
    assert got.lower == pytest.approx(want_low, rel=1e-12)
    assert got.upper == pytest.approx(want_up, rel=1e-12)


def test_projector_convolution_identity(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng, n_keys=5)
    chi = random_balanced(ms, 2, rng, n_keys=5)
    br = poisson(P, chi)
    lv_P = split_levels(P)
    lv_chi = split_levels(chi)
    for a in set(split_levels(br)) | {0, 2}:
        lhs = project(br, a)
        rhs = None
        for b, part_b in lv_P.items():
            c = a - b
            if c in lv_chi:
                term = poisson(part_b, lv_chi[c])
                rhs = term if rhs is None else rhs + term
        if rhs is None:
            rhs = HomPoly(ms, br.q, {})
        assert coeff_close(lhs, rhs, rtol=1e-12)


def test_sandwich_inequalities():
    # enclosure-direction tests of the three-norm comparison on the sextic
    for M in (1, 2):
        ms = ModeSet.symmetric(M)
        P = build_p6(ms)
        q = 3
        w2 = np.asarray(ms.modes, float) ** 2
        winf = float(np.max(w2))
        h = norm_h(P, multistart=16)
        c = norm_c(P, multistart=16)
        s = sup_norm(P.modulus(), multistart=16)
        assert h.lower <= s.upper * (1 + 1e-12)
        assert s.lower <= 5 * q * winf * h.upper * (1 + 1e-12)
        assert s.lower <= 5 * math.log(2 * q * winf) * c.upper * (1 + 1e-12)


def test_gradient_norm_bound(rng):
    ms = ModeSet.symmetric(2)
    P = random_balanced(ms, 2, rng)
    d = 2 * P.q
    for _ in range(5):
        u = random_state(ms, rng, norm=rng.uniform(0.3, 2.0))
        g = np.linalg.norm(P.gradient(u))
        assert g <= d * P.l1() * np.linalg.norm(u) ** (d - 1) * (1 + 1e-10)


def test_strichartz_identity(rng):
    # the quadrature reads c6 from p6's coefficients, and the modulus drops sigma
    ms = ModeSet.symmetric(2)
    unit = build_p6(ms)
    for sigma, c6 in ((1, 1.0), (1, 1.7), (-1, 1.0), (-1, 1.7), (1, 2.0)):
        P = build_p6(ms, sigma, c6)
        for a in (0, 2, -4, 1, 11):
            u = random_state(ms, rng)
            direct, quad = strichartz_identity_check(P, a, u)
            assert direct == pytest.approx(quad, rel=1e-10, abs=1e-10)
            d1, q1 = strichartz_identity_check(unit, a, u)
            assert (direct, quad) == pytest.approx((c6 * d1, c6 * q1), rel=1e-12, abs=1e-12)


def test_strichartz_single_mode():
    ms = ModeSet.symmetric(0)
    P = build_p6(ms)
    direct, quad = strichartz_identity_check(P, 0, np.array([2.0 + 0j]))
    assert direct == pytest.approx(2.0 ** 6 / 6.0, rel=1e-12)
    assert quad == pytest.approx(direct, rel=1e-12)
    d1, q1 = strichartz_identity_check(P, 3, np.array([2.0 + 0j]))
    assert abs(d1) < 1e-12 and abs(q1) < 1e-12
    # sigma = -1, c6 = 1.7: the level-0 modulus at |u| = 2 is 1.7 * 2^6 / 6
    direct, quad = strichartz_identity_check(build_p6(ms, -1, 1.7), 0, np.array([2.0 + 0j]))
    assert direct == pytest.approx(1.7 * 2.0 ** 6 / 6.0, rel=1e-12)
    assert quad == pytest.approx(direct, rel=1e-12)


def test_strichartz_identity_check_needs_one_coefficient(rng):
    # the eigenbasis sextic's keys carry 8 distinct coefficients: no c6 scales it
    p6 = p6_eigen_coeffs(dirichlet_eig(np.zeros(1), n_max=6), 3)
    assert np.unique(np.round(p6.coef.real, 12)).size == 8
    with pytest.raises(ValueError, match="one coefficient"):
        strichartz_identity_check(p6, 0, np.ones(3))
    ms = ModeSet.symmetric(1)
    values = strichartz_identity_check(build_p6(ms, -1, 1.7), 0, random_state(ms, rng))
    assert [type(v) for v in values] == [float, float]


def test_strichartz_identity_gapped_window(rng):
    # the node count follows from max |m| = 5, not from the number of modes
    ms = ModeSet((0, 2, 5))
    P = build_p6(ms)
    u = random_state(ms, rng)
    for a in range(-80, 81):
        direct, quad = strichartz_identity_check(P, a, u)
        assert direct == pytest.approx(quad, rel=1e-10, abs=1e-10)


def dense_strichartz_quadrature(mode_set, a, u):
    """The quadrature with h(tau) from a dense DFT matrix on 6M + 2 points,
    kept as the oracle of the library's minimal-grid version (c6 = 1)."""
    M = mode_set.M_param
    modes = np.asarray(mode_set.modes)
    n_x, n_tau = 6 * M + 2, 12 * M * M + 8
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    tau = 2.0 * np.pi * np.arange(n_tau) / n_tau
    phases = np.exp(-1j * np.outer(tau, modes.astype(float) ** 2))
    v = np.exp(1j * np.outer(x, modes)) @ (phases * np.abs(u)[None, :]).T
    h = np.mean(np.abs(v) ** 6, axis=0)
    return float(np.mean(np.exp(1j * tau * a) * h).real) / 6.0


@pytest.mark.parametrize("M", [0, 1, 3, 8])
def test_strichartz_quadrature_matches_dense_dft(rng, M):
    ms = ModeSet.symmetric(M)
    u = random_state(ms, rng)
    scale = dense_strichartz_quadrature(ms, 0, u)      # the dominant level
    for a in (0, 1, -2, 3 * M * M):
        want = dense_strichartz_quadrature(ms, a, u)
        got = spectral.strichartz_quadrature(ms, a, u)
        assert abs(got - want) <= 1e-14 * scale


def test_refined_bracket_bound(rng):
    # ||{P, chi}||_H <= 40 q q' log(2 q' |w|_inf) ||P||_H ||chi||_C
    ms = ModeSet.symmetric(2)
    winf = 4.0
    for _ in range(5):
        P = random_balanced(ms, 2, rng, n_keys=4)
        chi = random_balanced(ms, 2, rng, n_keys=4)
        br = poisson(P, chi)
        lhs = norm_h(br, multistart=8).lower
        rhs = (40 * P.q * chi.q * math.log(2 * chi.q * winf)
               * norm_h(P, multistart=8).upper * norm_c(chi, multistart=8).upper)
        assert lhs <= rhs * (1 + 1e-10)


def test_enclosure_validation():
    with pytest.raises(ValueError):
        NormEnclosure(2.0, 1.0, None)


# ------------------------------------------------ reference of the orthant ascent


@contextmanager
def capped(iters):
    """Every ascent inside runs at most iters iterations, not spectral._MAX_ITERS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_MAX_ITERS", iters)
        yield


def test_step_cap_lies_above_every_step_of_an_ascent():
    # eta starts at 0.25 and grows by 1.2 per kept step: the 1e50 cap of _ascend
    # changes no ascent of _MAX_ITERS iterations, only longer ones that would overflow
    assert 0.25 * 1.2 ** spectral._MAX_ITERS < 1e50


def _excl_prods(Y):
    """prod over the last axis excluding each column in turn (prefix*suffix)."""
    pre = np.ones_like(Y)
    np.cumprod(Y[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.ones_like(Y)
    np.cumprod(Y[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    return pre * suf


def reference_posy_ascent(slots, w, nmodes, starts, iters):
    """The orthant ascent with the gradient of every start rebuilt on every
    iteration, kept as the oracle that the kernel must reproduce bit for bit.
    Given column-major slots, as sup_norm passes them, it sums its values over
    a start-contiguous array.  It stops after 20 iterations in a row whose best
    value is at most 1e-14 of itself above the best of the last iteration that
    rose by more."""
    Y = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    B = Y.shape[0]

    def value(yb):
        return (w * np.prod(yb[:, slots], axis=2)).sum(axis=1)

    f = value(Y)
    eta = np.full(B, 0.25)
    top, stalled = f.max(), 0
    rows = np.repeat(np.arange(B), slots.size)
    for _ in range(iters):
        Ys = Y[:, slots]
        excl = _excl_prods(Ys)
        contrib = (w[None, :, None] * excl).reshape(B, -1)
        cols = np.broadcast_to(slots.ravel(), (B, slots.size)).ravel()
        G = np.bincount(rows * nmodes + cols, weights=contrib.ravel(),
                        minlength=B * nmodes).reshape(B, nmodes)
        cand = np.maximum(Y + eta[:, None] * G, 0.0)
        nrm = np.linalg.norm(cand, axis=1)
        dead = nrm == 0
        if np.any(dead):
            cand[dead] = Y[dead]
            nrm[dead] = 1.0
        cand /= nrm[:, None]
        fc = value(cand)
        better = fc > f
        Y[better] = cand[better]
        f = np.where(better, fc, f)
        eta = np.minimum(np.where(better, eta * 1.2, eta * 0.5), 1e50)
        if f.max() > top + 1e-14 * abs(top):
            top, stalled = f.max(), 0
        else:
            stalled += 1
            if stalled == 20:
                break
    i = int(np.argmax(f))
    return float(f[i]), Y[i]


def reference_grouped(problems, nmodes, iters):
    """The oracle run on each problem alone, in the grouped kernel's signature."""
    return [reference_posy_ascent(slots, w, nmodes, starts, iters)
            for slots, w, starts in problems]


def posy_problem(rng, nmodes, width, n_keys, n_starts):
    """A random posynomial (column-major slots, weights) and its starts."""
    slots = np.asfortranarray(np.sort(rng.integers(0, nmodes, (n_keys, width)), axis=1))
    w = rng.uniform(0.1, 2.0, n_keys) * rng.integers(1, 20, n_keys)
    return slots, w, np.abs(rng.standard_normal((n_starts, nmodes))) + 1e-9


# a few iterations hit the cap; most ascents stall long before 2000
ITERS = st.sampled_from([1, 2, 3, 7, 2000])


@settings(max_examples=60, deadline=None)
@given(window=st.sampled_from(["symmetric", "dirichlet"]), M=st.integers(1, 3),
       width=st.integers(2, 10), n_keys=st.integers(1, 30), n_starts=st.integers(1, 12),
       iters=ITERS, seed=st.integers(0, 2 ** 32 - 1))
def test_posy_ascent_matches_reference(window, M, width, n_keys, n_starts, iters, seed):
    nmodes = getattr(ModeSet, window)(M).size
    slots, w, starts = posy_problem(np.random.default_rng(seed), nmodes, width, n_keys, n_starts)
    with capped(iters):
        [(f, y)] = spectral._posy_ascent([(slots, w, starts.copy())], nmodes)
    f_ref, y_ref = reference_posy_ascent(slots, w, nmodes, starts.copy(), iters)
    assert f == f_ref
    assert np.array_equal(y, y_ref)


@settings(max_examples=40, deadline=None)
@given(window=st.sampled_from(["symmetric", "dirichlet"]), M=st.integers(1, 3),
       q=st.integers(1, 4), n_keys=st.integers(1, 12), n_extra=st.integers(0, 2),
       iters=ITERS, seed=st.integers(0, 2 ** 32 - 1))
def test_sup_norm_matches_reference_ascent(window, M, q, n_keys, n_extra, iters, seed):
    rng = np.random.default_rng(seed)
    ms = getattr(ModeSet, window)(M)
    P = random_balanced(ms, q, rng, n_keys=n_keys).modulus()
    extra = rng.standard_normal((n_extra, ms.size)) if n_extra else None
    kw = dict(multistart=8, seed=seed % 1000, extra_starts=extra)
    with capped(iters):
        got = sup_norm(P, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_posy_ascent",
                   lambda problems, nmodes: reference_grouped(problems, nmodes, iters))
        want = sup_norm(P, **kw)
    assert (got.lower, got.upper) == (want.lower, want.upper)
    assert np.array_equal(got.witness, want.witness)


@settings(max_examples=60, deadline=None)
@given(window=st.sampled_from(["symmetric", "dirichlet"]), M=st.integers(1, 3),
       width=st.integers(2, 10),
       shapes=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 12)), min_size=1, max_size=6),
       iters=st.sampled_from([1, 2, 7, 300, 2000]), seed=st.integers(0, 2 ** 32 - 1))
def test_grouped_ascent_matches_reference(window, M, width, shapes, iters, seed):
    # problems of different key and start counts ascend together; each must
    # come out as the oracle run on it alone, whenever the others stop
    rng = np.random.default_rng(seed)
    nmodes = getattr(ModeSet, window)(M).size
    problems = [posy_problem(rng, nmodes, width, k, b) for k, b in shapes]
    with capped(iters):
        got = spectral._posy_ascent([(sl, w, st.copy()) for sl, w, st in problems], nmodes)
    assert len(got) == len(problems)
    for (f, y), (slots, w, starts) in zip(got, problems):
        f_ref, y_ref = reference_posy_ascent(slots, w, nmodes, starts.copy(), iters)
        assert f == f_ref
        assert np.array_equal(y, y_ref)


@settings(max_examples=25, deadline=None)
@example(nmodes=6, width=6, n_keys=18, n_starts=6, seed=1)   # overflowed without the cap
@given(nmodes=st.integers(2, 8), width=st.integers(2, 8), n_keys=st.integers(1, 20),
       n_starts=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_posy_ascent_stays_finite(nmodes, width, n_keys, n_starts, seed):
    slots, w, starts = posy_problem(np.random.default_rng(seed), nmodes, width, n_keys, n_starts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with capped(2000):
            [(f, y)] = spectral._posy_ascent([(slots, w, starts)], nmodes)
    assert np.isfinite(f) and np.all(np.isfinite(y))
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)


def count_value_calls(monkeypatch, kernel):
    """A list that grows by one on each kernel.value call."""
    calls, value = [], kernel.value

    def counting(self, Y):
        calls.append(None)
        return value(self, Y)

    monkeypatch.setattr(kernel, "value", counting)
    return calls


@pytest.mark.parametrize("nmodes", [1, 5])
def test_ascent_from_the_maximum_stops_after_stall_iterations(monkeypatch, nmodes):
    # sum_j y_j^2 is 1 on the whole sphere: one mode holds it exactly, five
    # modes gain at rounding level, which the stall rule must not count as a rise
    calls = count_value_calls(monkeypatch, spectral._Posy)
    slots = np.repeat(np.arange(nmodes), 2).reshape(-1, 2)
    starts = np.abs(np.random.default_rng(0).standard_normal((6, nmodes))) + 1e-9
    with capped(1000):
        [(f, y)] = spectral._posy_ascent([(slots, np.ones(nmodes), starts)], nmodes)
    assert f == pytest.approx(1.0, abs=1e-14)
    assert len(calls) == 1 + spectral._STALL


def test_cell_ascent_from_the_maximum_stops_after_stall_iterations(monkeypatch):
    # the one-mode window's level 0 is y_0^6 / 6, constant on the sphere
    calls = count_value_calls(monkeypatch, spectral._Cells)
    with capped(1000):
        enc = sup_norm(spectral.SexticLevel0(ModeSet.symmetric(0)), multistart=4)
    assert enc.lower == enc.upper == 1.0 / 6.0
    assert len(calls) == 1 + spectral._STALL


def test_normal_form_norm_h_stops_before_its_cap(monkeypatch):
    # every level of the M=3 sextic stalls long before 300 iterations, half the cap
    calls = count_value_calls(monkeypatch, spectral._Posy)
    norm_h(build_p6(ModeSet.symmetric(3)), multistart=NormalFormConfig.norm_multistart)
    assert len(calls) < 1 + 300


def level_enclosures_oracle(P, multistart, iters, seed, lower_levels):
    """One sup_norm call per chosen level, each of at most iters iterations,
    the loop level_enclosures replaced."""
    levels = split_levels(P)
    chosen = set(levels)
    if lower_levels != "all":
        chosen = set(sorted(levels, key=lambda a: levels[a].l1(), reverse=True)[:lower_levels])
    out = {}
    for a, part in levels.items():
        mod = part.modulus()
        if a in chosen:
            with capped(iters):
                out[a] = sup_norm(mod, multistart=multistart, seed=seed + 2 * abs(a) + (a < 0))
        else:
            out[a] = NormEnclosure(0.0, mod.l1(), None)
    return out


def assert_same_enclosures(got, want):
    assert list(got) == list(want)
    for a in want:
        assert (got[a].lower, got[a].upper) == (want[a].lower, want[a].upper)
        if want[a].witness is None:
            assert got[a].witness is None
        else:
            assert np.array_equal(got[a].witness, want[a].witness)


@settings(max_examples=30, deadline=None)
@given(window=st.sampled_from(["symmetric", "dirichlet"]), M=st.integers(1, 3),
       q=st.integers(1, 3), n_keys=st.integers(1, 12),
       lower_levels=st.sampled_from(["all", 0, 1, 2, 5]), iters=st.sampled_from([1, 7, 150]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_level_enclosures_matches_sup_norm_loop(window, M, q, n_keys, lower_levels, iters, seed):
    rng = np.random.default_rng(seed)
    ms = getattr(ModeSet, window)(M)
    P = random_balanced(ms, q, rng, n_keys=n_keys)
    with capped(iters):
        got = level_enclosures(P, 8, seed % 1000, lower_levels)
    assert_same_enclosures(got, level_enclosures_oracle(P, 8, iters, seed % 1000, lower_levels))


@pytest.mark.parametrize("M", [1, 2, 3])
def test_level_enclosures_of_sextic_match_sup_norm_loop(M):
    ms = ModeSet.symmetric(M)
    P = build_p6(ms)
    with capped(300):
        got = level_enclosures(P, 16, 0, "all")
    assert_same_enclosures(got, level_enclosures_oracle(P, 16, 300, 0, "all"))


def test_level_enclosures_ascend_once(monkeypatch):
    ms = ModeSet.symmetric(2)
    P = build_p6(ms)
    calls, ascent = [], spectral._posy_ascent

    def counting(problems, *args):
        calls.append(len(problems))
        return ascent(problems, *args)

    monkeypatch.setattr(spectral, "_posy_ascent", counting)
    n_levels = len(split_levels(P))
    for lower_levels, want in (("all", n_levels), (3, 3), (0, None)):
        calls.clear()
        with capped(3):
            encs = level_enclosures(P, multistart=4, lower_levels=lower_levels)
        assert calls == ([want] if want else [])
        assert sum(e.witness is not None for e in encs.values()) == (want or 0)
        assert all(e.upper == part.modulus().l1() for e, part in
                   zip(encs.values(), split_levels(P).values()))


def test_level_enclosures_read_each_l1_once(monkeypatch):
    # one l1 per level ranks the levels and bounds them above
    P = build_p6(ModeSet.symmetric(2))
    n_levels, l1 = len(split_levels(P)), HomPoly.l1
    calls = []
    monkeypatch.setattr(HomPoly, "l1", lambda self: calls.append(1) or l1(self))
    for lower_levels in ("all", 3, 0):
        calls.clear()
        with capped(3):
            level_enclosures(P, multistart=4, lower_levels=lower_levels)
        assert len(calls) == n_levels


@pytest.mark.parametrize("bad", [-1, 2.7, True, None, "top", "ALL", [2]])
def test_lower_levels_validated(bad):
    ms = ModeSet.symmetric(1)
    P = build_p6(ms)
    with pytest.raises(ValueError, match="lower_levels"):
        level_enclosures(P, lower_levels=bad)
    with pytest.raises(ValueError, match="lower_levels"):
        norm_h(P, lower_levels=bad)
