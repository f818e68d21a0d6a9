"""Frequencies, small divisors, spectral projectors and polynomial norms.

The three norms on balanced polynomials are

    sup-norm      sup_{||u|| <= 1} |P(u)|,
    H-norm        sup_a || |proj_a P| ||_sup,
    C-norm        sup_a <a> * || |proj_a P| ||_sup,

where proj_a keeps the monomials whose integer small divisor equals a and
<a> = 1 + |a|.  Sup-norms are taken of moduli (nonnegative coefficients) and
returned as enclosures: a witnessed lower bound from multistart
projected-gradient ascent and a rigorous l1 upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import HomPoly, ModeSet, build_p6

SQRT_2PI = math.sqrt(2.0 * math.pi)


def japanese(x) -> float:
    """Weight <x> = 1 + |x| used in all norm and small-divisor estimates."""
    return 1.0 + abs(x)


@dataclass(frozen=True)
class FrequencySet:
    """Per-mode frequencies split as an integer part plus a bounded remainder."""

    mode_set: ModeSet
    omega: np.ndarray
    omega_int: np.ndarray
    omega_frac: np.ndarray

    def __post_init__(self):
        n = self.mode_set.size
        if self.omega.shape != (n,) or self.omega_int.shape != (n,):
            raise ValueError("frequency arrays do not match the mode set")
        if not np.array_equal(self.omega, self.omega_int + self.omega_frac):
            raise ValueError("omega must equal omega_int + omega_frac exactly as stored")
        if not np.any(self.omega_int):
            raise ValueError("integer frequency part must be a nonzero vector")

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
    return FrequencySet(mode_set, omega_int + omega_frac, omega_int, omega_frac)


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
    """lower is achieved by the witness state; upper is a rigorous bound."""

    lower: float
    upper: float
    witness: np.ndarray | None

    def __post_init__(self):
        if self.lower > self.upper * (1 + 1e-12) + 1e-300:
            raise ValueError("enclosure lower bound exceeds its upper bound")

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = [[float(z.real), float(z.imag)] for z in np.asarray(self.witness, dtype=complex)]
        return {"lower": self.lower, "upper": self.upper, "witness": w}


def _posy_ascent(slots: np.ndarray, w: np.ndarray, nmodes: int, starts: np.ndarray,
                 iters: int) -> tuple[float, np.ndarray]:
    """Maximize sum_i w_i * prod_s y[slots_i_s] over the nonnegative unit sphere
    by projected-gradient ascent from each row of starts.  Values are summed
    over a start-contiguous array of the key terms; a row's gradient, recomputed
    only after the row moves, sums each mode's terms in (key, slot) order."""
    Y = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    B, (K, width) = Y.shape[0], slots.shape
    cols, bins = slots.T.copy(), (np.arange(B)[:, None, None] * nmodes + slots).ravel()
    # arrays reused by every iteration, as fresh ones cost a page fault per
    # 4 KiB; pre[:, s] is the product of the slots before s, one at a time
    ys, pre, ys_b, pre_b = (np.empty((B, width, K)) for _ in range(4))
    pre[:, 0] = 1.0
    prefix = [(pre[:, s - 1], ys[:, s - 1], pre[:, s]) for s in range(1, width)]
    contrib, terms, suf = np.empty((B, K, width)), np.empty((K, B)), np.empty((B, K))

    def value(yb):
        yb.take(cols, axis=1, out=ys, mode="clip")      # ys[:, s] = yb[:, slots[:, s]]
        for a, b, out in prefix:
            np.multiply(a, b, out=out)
        np.multiply(pre[:, -1].T, ys[:, -1].T, out=terms)
        return np.multiply(terms, w[:, None], out=terms).T.sum(axis=1)

    def gradient(rows):  # at these rows of the point last passed to value
        n = rows.size
        y = ys.take(rows, axis=0, out=ys_b[:n], mode="clip")
        p = pre.take(rows, axis=0, out=pre_b[:n], mode="clip")
        sf = suf[:n]
        sf[...] = y[:, -1]
        for s in range(width - 2, -1, -1):      # p[:, s] times the slots after s
            np.multiply(p[:, s], sf, out=p[:, s])
            np.multiply(sf, y[:, s], out=sf)
        contrib[:n] = np.multiply(p, w, out=p).transpose(0, 2, 1)
        return np.bincount(bins[:p.size], contrib[:n].ravel(), n * nmodes).reshape(n, nmodes)

    f, G = value(Y), gradient(np.arange(B))
    eta = np.full(B, 0.25)
    for _ in range(iters):
        cand = np.maximum(Y + eta[:, None] * G, 0.0)
        nrm = np.sqrt((cand * cand).sum(axis=1))   # np.linalg.norm(cand, axis=1), inlined
        dead = nrm == 0
        if dead.any():
            cand[dead] = Y[dead]
            nrm[dead] = 1.0
        cand /= nrm[:, None]
        fc = value(cand)
        better = fc > f
        np.copyto(Y, cand, where=better[:, None])
        f = np.where(better, fc, f)
        eta *= np.where(better, 1.2, 0.5)
        if eta.max() < 1e-16:
            break
        G[better] = gradient(better.nonzero()[0])
    i = int(np.argmax(f))
    return float(f[i]), Y[i]


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
    nmodes = P.mode_set.size
    if not len(P):
        return NormEnclosure(0.0, 0.0, np.zeros(nmodes, dtype=complex))
    rng = np.random.default_rng(seed)
    slots = np.concatenate([P.idx_k, P.idx_l], axis=1)
    starts = [np.abs(rng.standard_normal((max(multistart - 1 - nmodes, 1), nmodes))) + 1e-9,
              np.ones((1, nmodes)),
              np.eye(nmodes) + 1e-3]
    if extra_starts is not None:
        starts.append(np.abs(np.asarray(extra_starts, dtype=float)).reshape(-1, nmodes) + 1e-12)
    lower, y = _posy_ascent(slots, P.coef.real * P.csize, nmodes, np.vstack(starts), iters)
    upper = P.l1()
    # min guards against roundoff at tight enclosures
    return NormEnclosure(min(lower, upper), upper, y.astype(complex))


def level_enclosures(P: HomPoly, omega_int, multistart: int = 32, iters: int = 400,
                     seed: int = 0, lower_levels="all") -> dict[int, NormEnclosure]:
    """Per-level enclosures of || |proj_a P| ||_sup over the spectral support.

    ``lower_levels`` selects which levels get an ascent lower bound: "all",
    or an integer K for the K levels with the largest l1 upper bound (the
    remaining levels report lower = 0 with no witness).
    """
    levels = split_levels(P, omega_int)
    out = {}
    if lower_levels == "all":
        chosen = set(levels)
    else:
        ranked = sorted(levels, key=lambda a: levels[a].l1(), reverse=True)
        chosen = set(ranked[: int(lower_levels)])
    for a, part in levels.items():
        mod = part.modulus()
        if a in chosen:
            out[a] = sup_norm(mod, multistart=multistart, iters=iters,
                              seed=seed + 2 * abs(a) + (a < 0))
        else:
            out[a] = NormEnclosure(0.0, mod.l1(), None)
    return out


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
                          c6: float = 1.0, n_tau: int | None = None) -> float:
    """Level-a value of the sextic modulus polynomial via the time integral

        (c6/6) * (1/2pi) int_0^{2pi} e^{i tau a} h(tau) dtau,

    where h(tau) is the sixth power of the L6 norm of the free evolution of
    the componentwise modulus of u (trigonometric-polynomial normalization).
    Both integrals are evaluated by trapezoidal sums that are exact for the
    trigonometric degrees involved.
    """
    M = mode_set.M_param
    min_tau = 12 * M * M + 8
    if n_tau is None:
        n_tau = min_tau
    elif n_tau < min_tau:
        raise ValueError(f"need at least {min_tau} quadrature nodes for M={M}")
    modes = np.asarray(mode_set.modes)
    amps = np.abs(np.asarray(u, dtype=complex))
    if amps.shape != (mode_set.size,):
        raise ValueError("state does not match the mode set")
    n_x = 6 * M + 2
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    E = np.exp(1j * np.outer(x, modes))       # (n_x, modes)
    tau = 2.0 * np.pi * np.arange(n_tau) / n_tau
    phases = np.exp(-1j * np.outer(tau, modes.astype(float) ** 2))  # (n_tau, modes)
    v = E @ (phases * amps[None, :]).T        # (n_x, n_tau)
    h = np.mean(np.abs(v) ** 6, axis=0)       # (n_tau,)
    val = np.mean(np.exp(1j * tau * a) * h)
    return c6 / 6.0 * float(val.real)


def strichartz_identity_check(mode_set: ModeSet, a: int, u: np.ndarray, sigma: int = 1,
                              c6: float = 1.0, n_tau: int | None = None,
                              p6: HomPoly | None = None) -> tuple[float, float]:
    """(direct, quadrature) values of the level-a sextic modulus at |u|.

    direct evaluates the stored projection of the modulus polynomial at the
    componentwise modulus of u; quadrature uses the time-integral identity.
    """
    if p6 is None:
        p6 = build_p6(mode_set, sigma, c6)
    part = project(p6, np.asarray(mode_set.modes, dtype=float) ** 2, a).modulus()
    val = complex(part(np.abs(np.asarray(u, dtype=complex)).astype(complex)))
    direct = val.real  # nonnegative coefficients at a nonnegative state
    quad = strichartz_quadrature(mode_set, a, u, c6=c6, n_tau=n_tau)
    return direct, quad
