"""Frequencies, small divisors, spectral projectors and polynomial norms.

The three norms on balanced polynomials are

    sup-norm      sup_{||u|| <= 1} |P(u)|,
    H-norm        sup_a || |proj_a P| ||_sup,
    C-norm        sup_a <a> * || |proj_a P| ||_sup,

where proj_a keeps the monomials whose integer small divisor equals a and
<a> = 1 + |a|.  Sup-norms of moduli (nonnegative coefficients) are enclosed by
a rigorous l1 upper bound and a lower bound witnessed by multistart projected-
gradient ascent; all the levels of one H- or C-norm ascend together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import HomPoly, ModeSet, Sextic, build_p6

SQRT_2PI = math.sqrt(2.0 * math.pi)


def japanese(x) -> float:
    """Weight <x> = 1 + |x| used in all norm and small-divisor estimates."""
    return 1.0 + abs(x)


@dataclass(frozen=True)
class FrequencySet:
    """Per-mode frequencies omega = omega_int + omega_frac: integer part plus remainder."""

    mode_set: ModeSet
    omega_int: np.ndarray
    omega_frac: np.ndarray

    def __post_init__(self):
        n = self.mode_set.size
        if self.omega_int.shape != (n,) or self.omega_frac.shape != (n,):
            raise ValueError("frequency arrays do not match the mode set")
        if not np.any(self.omega_int):
            raise ValueError("integer frequency part must be a nonzero vector")

    @property
    def omega(self) -> np.ndarray:
        return self.omega_int + self.omega_frac

    @property
    def int_inf(self) -> float:
        return float(np.max(np.abs(self.omega_int)))

    @property
    def frac_inf(self) -> float:
        return float(np.max(np.abs(self.omega_frac)))

    def value(self, mode: int) -> float:
        return float(self.omega[self.mode_set.index(mode)])


def freqs_conv(V, mode_set: ModeSet) -> FrequencySet:
    """Frequencies omega_j = j^2 + sqrt(2*pi) * V_j of the convolution problem.

    V is the per-mode vector of Fourier coefficients of the potential; they
    must be real numbers (possibly stored as complex with zero imaginary part).
    """
    V = np.asarray(V)
    if V.shape != (mode_set.size,):
        raise ValueError("potential does not match the mode set")
    if np.iscomplexobj(V) and np.any(V.imag != 0):
        raise ValueError("potential Fourier coefficients must be real")
    V = V.real.astype(float)
    modes = np.asarray(mode_set.modes, dtype=float)
    omega_int = (modes ** 2)
    omega_frac = SQRT_2PI * V
    return FrequencySet(mode_set, omega_int, omega_frac)


def project(P: HomPoly, omega_int, a: int) -> HomPoly:
    """Spectral projection keeping exactly the keys with integer divisor a."""
    return P.restrict(P.divisors(np.rint(omega_int).astype(np.int64)) == int(a))


def split_levels(P: HomPoly, omega_int) -> dict[int, HomPoly]:
    """Partition of P into its spectral levels; summing the parts restores P."""
    div = P.divisors(np.rint(omega_int).astype(np.int64))
    levels, first = np.unique(div, return_index=True)
    return {int(a): P.restrict(div == a) for a in levels[np.argsort(first)]}


# ------------------------------------------------------------------ enclosures


@dataclass
class NormEnclosure:
    """lower is achieved by the witness state, a real nonnegative unit vector
    where the ascent ran; upper is a rigorous bound."""

    lower: float
    upper: float
    witness: np.ndarray | None

    def __post_init__(self):
        if self.lower > self.upper * (1 + 1e-12) + 1e-300:
            raise ValueError("enclosure lower bound exceeds its upper bound")

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = self.witness.tolist()
        return {"lower": self.lower, "upper": self.upper, "witness": w}


def _posy_ascent(problems, nmodes: int, iters: int) -> list[tuple[float, np.ndarray]]:
    """Projected-gradient ascent of sum_i w_i * prod_s y[slots_i_s] on the
    nonnegative unit sphere from each row of starts, for problems (slots, w,
    starts) of one slot width, all together; returns each problem's best (f, y).
    A start's value sums its terms in key order (numpy's pairwise sum for a lone
    start); its gradient, rebuilt only after it moves, sums each mode's terms in
    (key, slot) order.  A problem stops once all its steps are below 1e-16: its
    starts freeze and its pairs leave.  Steps are capped at 1e50, above the
    0.25 * 1.2**600 < 1e47 of the 600 iterations that callers run at most."""
    nb, nk = [len(st) for _, _, st in problems], [len(w) for _, w, _ in problems]
    Y = np.vstack([st for _, _, st in problems])
    Y = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    first = np.cumsum([0] + nb[:-1])                # first start of each problem
    # pairs, key-major in each problem: start, index into Y.ravel() per slot, weight
    prow = np.concatenate([np.tile(np.arange(r, r + b), k) for r, b, k in zip(first, nb, nk)])
    gT = np.vstack([np.repeat(s, b, axis=0) for (s, _, _), b in zip(problems, nb)])
    gT += prow[:, None] * nmodes
    pw = np.concatenate([np.repeat(w, b) for (_, w, _), b in zip(problems, nb)])
    width, done, blocks = gT.shape[1], np.zeros(len(Y), bool), list(zip(nk, nb, first))
    # arrays reused by every iteration, as fresh ones cost a page fault per 4 KiB
    flat, vec = np.empty((3, gT.size)), np.empty((2, len(pw)))

    def value(yb):
        yb.ravel().take(gidx, out=ys, mode="clip")          # ys[s, i] = y[gT[i, s]]
        pre[0] = 1.0                            # pre[s]: the product of the slots before s
        for s in range(1, width):
            np.multiply(pre[s - 1], ys[s - 1], out=pre[s])
        terms = np.multiply(pre[-1], ys[-1], out=vec[0, :len(pw)])
        np.multiply(terms, pw, out=terms)
        fv, a = np.zeros(len(yb)), 0
        for k, b, r in blocks:                  # each start's terms, summed over keys
            terms[a:a + k * b].reshape(k, b).sum(axis=0, out=fv[r:r + b])
            a += k * b
        return fv

    def gradient(moving):  # at these starts, of the point last passed to value
        sel = None if (moving | done).all() else np.flatnonzero(moving[prow])
        if sel is None:                         # every pair, in place
            y, p, wsel, out = ys, pre, pw, flat[2]
        else:       # the moved starts' pairs; value rewrites ys and pre
            n = sel.size
            p = pre.take(sel, axis=1, out=flat[2, :width * n].reshape(width, n), mode="clip")
            y = ys.take(sel, axis=1, out=flat[1, :width * n].reshape(width, n), mode="clip")
            wsel, out = pw.take(sel, out=vec[1, :n], mode="clip"), flat[0]
        for s in range(width - 2, -1, -1):      # y[s + 1]: the product of the slots after s
            np.multiply(p[s], y[s + 1], out=p[s])
            if s:
                np.multiply(y[s], y[s + 1], out=y[s])
        contrib = out[:p.size].reshape(-1, width)
        contrib[...] = np.multiply(p, wsel, out=p).T
        bins = gT if sel is None else gT.take(   # into the spent rows of y
            sel, axis=0, out=flat[1, :p.size].view(np.intp).reshape(-1, width), mode="clip")
        return np.bincount(bins.ravel(), contrib.ravel(), moving.size * nmodes).reshape(-1, nmodes)

    gidx, (ys, pre) = gT.T.copy(), (a[:gT.size].reshape(width, -1) for a in flat[:2])
    f, eta, G = value(Y), np.full(len(Y), 0.25), gradient(np.ones(len(Y), bool))
    for _ in range(iters):
        cand = np.maximum(Y + eta[:, None] * G, 0.0)
        nrm = np.sqrt((cand * cand).sum(axis=1))   # np.linalg.norm(cand, axis=1), inlined
        dead = nrm == 0
        if dead.any():
            cand[dead], nrm[dead] = Y[dead], 1.0
        cand /= nrm[:, None]
        fc = value(cand)
        better = fc > f
        np.copyto(Y, cand, where=better[:, None])
        f = np.where(better, fc, f)
        eta = np.minimum(eta * np.where(better, 1.2, 0.5), 1e50)
        stop = np.repeat(np.maximum.reduceat(eta, first) < 1e-16, nb) & ~done
        moving = better & ~stop
        G[moving] = gradient(moving)[moving]
        if stop.any():
            done |= stop
            if done.all():
                break
            alive = ~done[prow]
            prow, pw, gT = prow[alive], pw[alive], gT[alive]
            blocks = [(k, b, r) for k, b, r in blocks if not done[r]]
            gidx, (ys, pre) = gT.T.copy(), (a[:gT.size].reshape(width, -1) for a in flat[:2])
    return [(float(f[i]), Y[i]) for i in [r + np.argmax(f[r:r + b]) for b, r in zip(nb, first)]]


def _enclosures(mods, seeds, multistart: int, iters: int, extra_starts=None):
    """Enclosures of modulus polynomials from one ascent call, each from its seed's starts."""
    nmodes, problems = mods[0].mode_set.size, []
    for P, seed in zip(mods, seeds):
        rng = np.random.default_rng(seed)
        starts = [np.abs(rng.standard_normal((max(multistart - 1 - nmodes, 1), nmodes))) + 1e-9,
                  np.ones((1, nmodes)), np.eye(nmodes) + 1e-3]
        if extra_starts is not None:
            starts.append(np.abs(np.asarray(extra_starts, float)).reshape(-1, nmodes) + 1e-12)
        problems.append((np.concatenate([P.idx_k, P.idx_l], axis=1), P.coef.real * P.csize,
                         np.vstack(starts)))
    # min guards against roundoff at tight enclosures
    return [NormEnclosure(min(lower, upper), upper, y) for upper, (lower, y)
            in zip([P.l1() for P in mods], _posy_ascent(problems, nmodes, iters))]


def sup_norm(P: HomPoly, multistart: int = 64, iters: int = 500, seed: int = 0,
             extra_starts=None) -> NormEnclosure:
    """Enclosure of sup_{||u||<=1} P(u) for a modulus polynomial P (real,
    nonnegative coefficients), such as P.modulus() of any polynomial.

    The ascent runs over the nonnegative orthant of the sphere, which holds
    the maximum since |P(u)| <= P(|u|) componentwise.  The upper bound is the
    l1 norm over ordered tuples.
    """
    if not np.all((P.coef.imag == 0) & (P.coef.real >= 0)):
        raise ValueError("sup_norm needs real nonnegative coefficients: pass P.modulus()")
    if not len(P):
        return NormEnclosure(0.0, 0.0, np.zeros(P.mode_set.size))
    return _enclosures([P], [seed], multistart, iters, extra_starts)[0]


def check_lower_levels(k) -> None:
    """Raise ValueError unless k is "all" or an int >= 0."""
    if not (isinstance(k, str) and k == "all" or type(k) is int and k >= 0):
        raise ValueError(f"lower_levels must be 'all' or an int >= 0, not {k!r}")


def level_enclosures(P: HomPoly, omega_int, multistart: int = 32, iters: int = 400,
                     seed: int = 0, lower_levels="all") -> dict[int, NormEnclosure]:
    """Per-level enclosures of || |proj_a P| ||_sup over the spectral support.

    ``lower_levels`` selects which levels get an ascent lower bound: "all",
    or an integer K for the K levels with the largest l1 upper bound (the
    remaining levels report lower = 0 with no witness).  The chosen levels
    ascend together in one call of the ascent kernel, each from the starts
    that sup_norm would use with seed + 2|a| + (a < 0).
    """
    check_lower_levels(lower_levels)
    mods = {a: part.modulus() for a, part in split_levels(P, omega_int).items()}
    ranked = sorted(mods, key=lambda a: mods[a].l1(), reverse=True)
    chosen = [a for a in mods if lower_levels == "all" or a in ranked[:lower_levels]]
    seeds = [seed + 2 * abs(a) + (a < 0) for a in chosen]
    found = dict(zip(chosen, _enclosures([mods[a] for a in chosen], seeds, multistart, iters)
                     if chosen else []))
    return {a: found.get(a) or NormEnclosure(0.0, mod.l1(), None) for a, mod in mods.items()}


def _combine(per_level: dict[int, NormEnclosure], weight=lambda a: 1.0) -> NormEnclosure:
    lower, upper, witness = 0.0, 0.0, None
    for a, enc in per_level.items():
        wgt = weight(a)
        if wgt * enc.lower > lower:
            lower, witness = wgt * enc.lower, enc.witness
        upper = max(upper, wgt * enc.upper)
    return NormEnclosure(lower, upper, witness)


def norm_h(P: HomPoly, omega_int, **kw) -> NormEnclosure:
    """Enclosure of the level-sup norm sup_a || |proj_a P| ||_sup."""
    return _combine(level_enclosures(P, omega_int, **kw))


def norm_c(P: HomPoly, omega_int, **kw) -> NormEnclosure:
    """Enclosure of the weighted norm sup_a <a> || |proj_a P| ||_sup."""
    return _combine(level_enclosures(P, omega_int, **kw), weight=japanese)


# ---------------------------------------------------- Strichartz time integral


def strichartz_quadrature(mode_set: ModeSet, a: int, u: np.ndarray,
                          c6: float = 1.0) -> float:
    """Level-a value of the sextic modulus polynomial via the time integral

        (c6/6) * (1/2pi) int_0^{2pi} e^{i tau a} h(tau) dtau,

    where h(tau) is the sixth power of the L6 norm of the free evolution of
    the componentwise modulus of u (trigonometric-polynomial normalization).
    The x-integral mean_x |w|^6 is the value of a Sextic with sigma = 1 (the
    quadrature is of the modulus) and c6 = 6 on all tau nodes at once, and
    c6/6 scales the tau mean; the tau-integral is a trapezoidal sum on
    12 M^2 + 8 nodes, M = max |m|.  Both are exact for the trigonometric
    degrees involved.
    """
    modes = np.asarray(mode_set.modes)
    amps = np.abs(np.asarray(u, dtype=complex))
    if amps.shape != (mode_set.size,):
        raise ValueError("state does not match the mode set")
    n_tau = 12 * mode_set.M_param ** 2 + 8
    tau = 2.0 * np.pi * np.arange(n_tau) / n_tau
    phases = np.exp(-1j * np.outer(tau, modes.astype(float) ** 2))  # (n_tau, modes)
    h = Sextic(mode_set, 1, 6.0)(phases * amps[None, :])   # (n_tau,)
    return c6 / 6.0 * float(np.mean(np.exp(1j * tau * a) * h).real)


def strichartz_identity_check(mode_set: ModeSet, a: int, u: np.ndarray, c6: float = 1.0,
                              p6: HomPoly | None = None) -> tuple[float, float]:
    """(direct, quadrature) values of the level-a sextic modulus at |u|.

    direct evaluates the stored projection of the modulus polynomial at the
    componentwise modulus of u; quadrature uses the time-integral identity.
    The modulus does not depend on the sign of the sextic.
    """
    if p6 is None:
        p6 = build_p6(mode_set, c6=c6)
    part = project(p6, np.asarray(mode_set.modes, dtype=float) ** 2, a).modulus()
    val = complex(part(np.abs(np.asarray(u, dtype=complex)).astype(complex)))
    direct = val.real  # nonnegative coefficients at a nonnegative state
    quad = strichartz_quadrature(mode_set, a, u, c6=c6)
    return direct, quad
