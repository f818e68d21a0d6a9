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

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, check_positive
from .poly import HomPoly, ModeSet, build_p6, momentum_buckets

SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_ENTRIES = 5_000_000    # sorted triples x starts one _Cells may hold: M = 32 fits, 64 not
# entries (modes x pairs x starts) that one block of the sextic cell gradient gathers
_GATHER = 1 << 16
# an ascent problem stops after _STALL iterations whose best value rose by at most _RISE of itself
_STALL, _RISE = 20, 1e-14
_MAX_ITERS = 600        # iterations of any ascent; the workloads' problems stall long before


def japanese(x) -> float:
    """Weight <x> = 1 + |x| used in all norm and small-divisor estimates."""
    return 1.0 + abs(x)


@dataclass(frozen=True)
class FrequencySet:
    """Per-mode frequencies omega = m^2 + omega_frac: the integer part is the
    square of each mode (mode_set.squares), omega_frac the remainder, one
    finite float per mode.  The constructor refuses a NaN or an infinity,
    also one that a finite input overflowed to, for every caller:
    freqs_conv, sturm.freqs_mult and direct ones."""

    mode_set: ModeSet
    omega_frac: np.ndarray

    def __post_init__(self):
        if self.omega_frac.shape != (self.mode_set.size,):
            raise ValueError("the frequency remainder does not match the mode set")
        if not np.isfinite(self.omega_frac).all():
            raise ValueError("the frequency remainder must be finite")
        if not np.any(self.mode_set.squares):
            raise ValueError("integer frequency part must be a nonzero vector")

    @property
    def omega(self) -> np.ndarray:
        return self.mode_set.squares + self.omega_frac

    @property
    def int_inf(self) -> float:
        return float(np.max(self.mode_set.squares))

    @property
    def frac_inf(self) -> float:
        return float(np.max(np.abs(self.omega_frac)))

    def value(self, mode: int) -> float:
        """The frequency of one mode, read as the same entry of omega."""
        i = self.mode_set.index(mode)
        return float(self.mode_set.squares[i] + self.omega_frac[i])


def freqs_conv(V, mode_set: ModeSet) -> FrequencySet:
    """Frequencies omega_j = j^2 + sqrt(2*pi) * V_j of the convolution problem.

    V is the per-mode vector of Fourier coefficients of the potential; they
    must be real numbers (possibly stored as complex with zero imaginary part),
    and FrequencySet refuses a remainder that is not finite.
    """
    V = np.asarray(V)
    if V.shape != (mode_set.size,):
        raise ValueError(f"the potential must carry {mode_set.size} coefficients, one per mode")
    if np.iscomplexobj(V) and np.any(V.imag != 0):
        raise ValueError("potential Fourier coefficients must be real numbers")
    with np.errstate(over="ignore"):        # an overflow gives inf, which FrequencySet refuses
        return FrequencySet(mode_set, SQRT_2PI * V.real.astype(float))


def project(P: HomPoly, a) -> HomPoly:
    """Spectral projection keeping exactly the keys whose level, the integer
    small divisor sum_k m^2 - sum_l m^2, equals a; a non-integer a keeps none."""
    return P.restrict(P.divisors(P.mode_set.squares) == a)


def split_levels(P: HomPoly) -> dict[int, HomPoly]:
    """Partition of P into its spectral levels, the integer small divisors
    sum_k m^2 - sum_l m^2 of its keys; summing the parts restores P."""
    div = P.divisors(P.mode_set.squares)
    levels, first = np.unique(div, return_index=True)
    return {int(a): P.restrict(div == a) for a in levels[np.argsort(first)]}


# ------------------------------------------------------------------ enclosures


@dataclass
class NormEnclosure:
    """lower is achieved by the witness state, a real nonnegative unit vector
    where the ascent ran; upper is a rigorous, finite bound."""

    lower: float
    upper: float
    witness: np.ndarray | None

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise OverflowError(f"enclosure bounds ({self.lower}, {self.upper}) are not finite")
        if self.lower > self.upper * (1 + 1e-12) + 1e-300:
            raise ValueError("enclosure lower bound exceeds its upper bound")

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = self.witness.tolist()
        return {"lower": self.lower, "upper": self.upper, "witness": w}


def _ascend(kernel, starts: np.ndarray, nb: list[int]) -> list[tuple[float, np.ndarray]]:
    """Projected-gradient ascent on the nonnegative unit sphere from each row of
    starts, for problems of nb[i] consecutive starts, all together; returns each
    problem's best (f, y).  A start steps by eta along its gradient, projected
    back to the orthant and the sphere; it keeps a step that raises its value,
    and eta grows by 1.2 on a kept step and halves on a refused one.  A problem
    rises on an iteration that lifts its best value above the best of its last
    rise (or of the starts) by more than _RISE of that value; it stops after
    _STALL consecutive iterations without a rise, and its starts freeze; all stop
    after _MAX_ITERS iterations.  Steps are capped at 1e50, above the
    0.25 * 1.2**_MAX_ITERS < 1e47 that _MAX_ITERS kept steps reach.

    The kernel holds the objective: kernel.value(Y) is the value of each row of
    Y, kernel.gradient(moving) the gradient rows of the moving starts at the
    point last passed to value, and kernel.retire(done) drops the work of
    stopped problems.  retire is called only while some problem still moves,
    so a one-problem kernel need not define it."""
    Y = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    first = np.cumsum([0] + nb[:-1])                # first start of each problem
    done = np.zeros(len(Y), bool)
    f, eta = kernel.value(Y), np.full(len(Y), 0.25)
    G = kernel.gradient(np.ones(len(Y), bool))
    top, stalled = np.maximum.reduceat(f, first), np.zeros(len(nb), int)
    for _ in range(_MAX_ITERS):
        cand = np.maximum(Y + eta[:, None] * G, 0.0)
        nrm = np.sqrt((cand * cand).sum(axis=1))   # np.linalg.norm(cand, axis=1), inlined
        dead = nrm == 0
        if dead.any():
            cand[dead], nrm[dead] = Y[dead], 1.0
        cand /= nrm[:, None]
        fc = kernel.value(cand)
        better = fc > f
        np.copyto(Y, cand, where=better[:, None])
        f = np.where(better, fc, f)
        eta = np.minimum(eta * np.where(better, 1.2, 0.5), 1e50)
        best = np.maximum.reduceat(f, first)
        rose = best > top + _RISE * np.abs(top)
        top, stalled = np.where(rose, best, top), np.where(rose, 0, stalled + 1)
        stop = np.repeat(stalled >= _STALL, nb) & ~done
        moving = better & ~stop
        G[moving] = kernel.gradient(moving)
        if stop.any():
            done |= stop
            if done.all():
                break
            kernel.retire(done)
    return [(float(f[i]), Y[i]) for i in [r + np.argmax(f[r:r + b]) for b, r in zip(nb, first)]]


class _Posy:
    """Kernel of _ascend for posynomials sum_i w_i * prod_s y[slots_i_s] of one
    slot width, one per problem (slots, w) with nb[i] starts.  A start's value
    sums its terms in key order (numpy's pairwise sum for a lone start); the
    gradient runs over every alive pair, in place, and sums each mode's terms
    in (key, slot) order, so a start's row does not depend on which other
    starts move.  Stopped problems' pairs leave."""

    def __init__(self, terms, nb: list[int], nmodes: int):
        nk, first = [len(w) for _, w in terms], np.cumsum([0] + nb[:-1])
        self.nmodes = nmodes
        # pairs, key-major in each problem: start, index into Y.ravel() per slot, weight
        self.prow = np.concatenate([np.tile(np.arange(r, r + b), k)
                                    for r, b, k in zip(first, nb, nk)])
        gT = np.vstack([np.repeat(s, b, axis=0) for (s, _), b in zip(terms, nb)])
        gT += self.prow[:, None] * nmodes
        self.pw = np.concatenate([np.repeat(w, b) for (_, w), b in zip(terms, nb)])
        self.width, self.blocks = gT.shape[1], list(zip(nk, nb, first))
        # arrays reused by every iteration, as fresh ones cost a page fault per 4 KiB
        self.flat, self.vec = np.empty((3, gT.size)), np.empty(len(self.pw))
        self._pairs(gT)

    def _pairs(self, gT):
        self.gT, self.gidx = gT, gT.T.copy()
        self.ys, self.pre = (a[:gT.size].reshape(self.width, -1) for a in self.flat[:2])

    def value(self, yb):
        ys, pre, pw = self.ys, self.pre, self.pw
        yb.ravel().take(self.gidx, out=ys, mode="clip")     # ys[s, i] = y[gT[i, s]]
        pre[0] = 1.0                            # pre[s]: the product of the slots before s
        for s in range(1, self.width):
            np.multiply(pre[s - 1], ys[s - 1], out=pre[s])
        terms = np.multiply(pre[-1], ys[-1], out=self.vec[:len(pw)])
        np.multiply(terms, pw, out=terms)
        fv, a = np.zeros(len(yb)), 0
        for k, b, r in self.blocks:             # each start's terms, summed over keys
            terms[a:a + k * b].reshape(k, b).sum(axis=0, out=fv[r:r + b])
            a += k * b
        return fv

    def gradient(self, moving):
        y, p = self.ys, self.pre        # spent in place: value rewrites them
        for s in range(self.width - 2, -1, -1):     # y[s + 1]: the product of the slots after s
            np.multiply(p[s], y[s + 1], out=p[s])
            if s:
                np.multiply(y[s], y[s + 1], out=y[s])
        contrib = self.flat[2, :p.size].reshape(-1, self.width)
        contrib[...] = np.multiply(p, self.pw, out=p).T
        G = np.bincount(self.gT.ravel(), contrib.ravel(), moving.size * self.nmodes)
        return G.reshape(-1, self.nmodes)[moving]

    def retire(self, done):
        alive = ~done[self.prow]
        self.prow, self.pw = self.prow[alive], self.pw[alive]
        self.blocks = [(k, b, r) for k, b, r in self.blocks if not done[r]]
        self._pairs(self.gT[alive])


def _posy_ascent(problems, nmodes: int) -> list[tuple[float, np.ndarray]]:
    """_ascend of the posynomials of problems (slots, w, starts) of one slot
    width on nmodes modes, all together; returns each problem's best (f, y)."""
    nb = [len(st) for _, _, st in problems]
    kernel = _Posy([(slots, w) for slots, w, _ in problems], nb, nmodes)
    return _ascend(kernel, np.vstack([st for _, _, st in problems]), nb)


def _starts(nmodes: int, multistart: int, seed: int, extra_starts=None) -> np.ndarray:
    """The multistart of one ascent: max(multistart - 1 - nmodes, 1) random rows
    from seed, the all-ones row, eye + 1e-3, then the moduli of extra_starts."""
    rng = np.random.default_rng(seed)
    starts = [np.abs(rng.standard_normal((max(multistart - 1 - nmodes, 1), nmodes))) + 1e-9,
              np.ones((1, nmodes)), np.eye(nmodes) + 1e-3]
    if extra_starts is not None:
        starts.append(np.abs(np.asarray(extra_starts, float)).reshape(-1, nmodes) + 1e-12)
    return np.vstack(starts)


def _enclosures(mods, uppers, seeds, multistart: int, extra_starts=None):
    """Enclosures of modulus polynomials from one ascent call, each from its
    seed's starts, with the given upper bounds (their l1 norms)."""
    nmodes = mods[0].mode_set.size
    problems = [(np.concatenate([P.idx_k, P.idx_l], axis=1), P.coef.real * P.csize,
                 _starts(nmodes, multistart, seed, extra_starts)) for P, seed in zip(mods, seeds)]
    # min guards against roundoff at tight enclosures
    return [NormEnclosure(min(lower, upper), upper, y) for upper, (lower, y)
            in zip(uppers, _posy_ascent(problems, nmodes))]


@dataclass(frozen=True)
class SexticLevel0:
    """The level-0 part of the modulus of build_p6(mode_set, c6=c6),
    split_levels(...)[0].modulus(): coefficient c6/6 on every ordered tuple
    (k, l) of the window with sum k = sum l and sum k^2 = sum l^2.  It is
    held as its window and c6 alone: sup_norm encloses it on cells of sorted
    triples and lists none of its keys."""

    mode_set: ModeSet
    c6: float = 1.0

    def __post_init__(self):
        check_positive(c6=self.c6)


def sup_norm(P: HomPoly | SexticLevel0, multistart: int = 64, seed: int = 0,
             extra_starts=None) -> NormEnclosure:
    """Enclosure of sup_{||u||<=1} P(u) for a modulus polynomial P (real,
    nonnegative coefficients), such as P.modulus() of any polynomial.

    The ascent (_ascend: until it stalls, for _MAX_ITERS iterations at most)
    runs over the nonnegative orthant of the sphere, which holds the maximum
    since |P(u)| <= P(|u|) componentwise.  The upper bound is the l1 norm over
    ordered tuples.  A SexticLevel0 ascends on its cells (_Cells) at c6 = 1,
    as the ascent's steps are not scale-free, from the same starts, its l1
    norm counted, its work arrays held to _MAX_ENTRIES and both bounds times c6.
    """
    if isinstance(P, SexticLevel0):
        starts = _starts(P.mode_set.size, multistart, seed, extra_starts)
        if math.comb(P.mode_set.size + 2, 3) * len(starts) > _MAX_ENTRIES:
            raise BudgetError(f"sup_norm budget exceeded at M={P.mode_set.M_param}")
        cells = _Cells(P.mode_set, len(starts))
        [(lower, y)] = _ascend(cells, starts, [len(starts)])
        return NormEnclosure(P.c6 * min(lower, cells.upper), P.c6 * cells.upper, y)
    if not np.all((P.coef.imag == 0) & (P.coef.real >= 0)):
        raise ValueError("sup_norm needs real nonnegative coefficients: pass P.modulus()")
    if not len(P):
        return NormEnclosure(0.0, 0.0, np.zeros(P.mode_set.size))
    return _enclosures([P], [P.l1()], [seed], multistart, extra_starts)[0]


class _Cells:
    """Kernel of _ascend for the level-0 part of the sextic modulus on a window
    at c6 = 1 (coefficient 1/6 on every ordered tuple that conserves momentum
    and the energy, the sum of mode_set.squares), one problem of nb starts.
    Its value at y is

        (1/6) sum_c A_c(y)^2,    A_c(y) = sum_t mult_t y_t1 y_t2 y_t3,

    where t runs over the sorted triples t1 <= t2 <= t3 of cell c, one
    (momentum, energy) pair, and mult_t in {1, 3, 6} counts the orderings of
    t.  Its gradient at mode j, (1/3) A_c(t) mult_t times the other two slots
    summed over every slot of every triple t that holds j, regrouped by the
    other two modes, is sum_{a <= b} w_ab A_c(j,a,b) y_a y_b, with w_ab = 2
    for a < b and 1 for a = b.  upper = (1/6) sum_c n_c^2 is the part's l1
    norm, with n_c the number of ordered triples in cell c."""

    def __init__(self, mode_set: ModeSet, nb: int):
        n, m, sq = mode_set.size, np.asarray(mode_set.modes, dtype=np.int64), mode_set.squares
        lo, hi = 3 * m.min(), 3 * sq.max() + 1
        # the (momentum, energy) code of the triples of mode indices slots
        code = lambda *slots: (sum(m[i] for i in slots) - lo) * hi + sum(sq[i] for i in slots)
        T = np.concatenate(momentum_buckets(mode_set))      # (N, 3) sorted triples
        codes, cell, size = np.unique(code(*T.T), return_inverse=True, return_counts=True)
        # cells by size, largest first, so that the k-th triples of the cells with
        # more than k are a layer that adds into a prefix of the cells
        rank = np.argsort(np.argsort(-size, kind="stable"))
        cell = rank[cell]
        by_cell, within = np.argsort(cell, kind="stable"), np.empty(len(T), np.intp)
        within[by_cell] = np.arange(len(T)) - np.searchsorted(cell[by_cell], cell[by_cell])
        order = np.lexsort((cell, within))
        T, cell, self.layers = T[order], cell[order], np.bincount(within)
        eq = (T[:, 0] == T[:, 1]) + (T[:, 1] == T[:, 2]).astype(np.intp)
        counts = np.bincount(np.repeat(cell, np.array([6, 3, 1])[eq]))
        self.upper = 1.0 / 6.0 * float((counts * counts).sum())
        # rows y_a y_b of the pairs a <= b, scaled by 1, 3 and 6: a triple reads
        # mult * y_t1 y_t2 from the row that its eq picks
        self.pa, self.pb = np.triu_indices(n)
        pair = np.empty((n, n), dtype=np.intp)
        pair[self.pa, self.pb] = pair[self.pb, self.pa] = np.arange(self.pa.size)
        self.t12, self.t3 = pair[T[:, 0], T[:, 1]] + (2 - eq) * self.pa.size, T[:, 2]
        self.w = np.where(self.pa == self.pb, 1.0, 2.0)[:, None]
        # the cell of the triple (j, a, b) for every mode j and pair a <= b
        gcode = code(np.arange(n)[:, None], self.pa, self.pb)
        self.gcell = rank[np.searchsorted(codes, gcode)].ravel()
        # arrays reused by every iteration, as fresh ones cost a page fault per 4 KiB
        self.P2 = np.empty((3, self.pa.size, nb))
        self.prod, self.y3 = np.empty((len(T), nb)), np.empty((len(T), nb))
        self.block = max(1, _GATHER // self.gcell.size)
        self.X = np.empty(self.gcell.size * min(self.block, nb))

    def value(self, Y):
        Yt, P2, prod = Y.T.copy(), self.P2, self.prod
        np.multiply(Yt[self.pa], Yt[self.pb], out=P2[0])
        np.multiply(P2[0], 3.0, out=P2[1])
        np.multiply(P2[0], 6.0, out=P2[2])
        P2.reshape(-1, P2.shape[2]).take(self.t12, axis=0, out=prod, mode="clip")
        np.multiply(prod, Yt.take(self.t3, axis=0, out=self.y3, mode="clip"), out=prod)
        at, A = self.layers[0], prod[:self.layers[0]]
        for k in self.layers[1:]:
            A[:k] += prod[at:at + k]
            at += k
        return 1.0 / 6.0 * np.einsum("cs,cs->s", A, A)

    def gradient(self, moving):  # at these starts, of the point last passed to value
        cols, A, n2 = np.flatnonzero(moving), self.prod[:self.layers[0]], self.pa.size
        G = np.empty((self.gcell.size // n2, cols.size))
        for i in range(0, cols.size, self.block):     # X[j, ab, s] = A_c(j,a,b) at start s
            c = cols[i:i + self.block]
            X = (A[:, c] if c.size < A.shape[1] else A).take(
                self.gcell, axis=0, out=self.X[:self.gcell.size * c.size].reshape(-1, c.size),
                mode="clip")
            np.einsum("jps,ps->js", X.reshape(len(G), n2, c.size), self.P2[0][:, c] * self.w,
                      out=G[:, i:i + c.size])
        return G.T


def check_lower_levels(k) -> None:
    """Raise ValueError unless k is "all" or an int >= 0."""
    if not (isinstance(k, str) and k == "all" or type(k) is int and k >= 0):
        raise ValueError(f"lower_levels must be 'all' or an int >= 0, not {k!r}")


def level_enclosures(P: HomPoly, multistart: int = 32, seed: int = 0,
                     lower_levels="all") -> dict[int, NormEnclosure]:
    """Per-level enclosures of || |proj_a P| ||_sup over the spectral support,
    the levels of split_levels(P).

    ``lower_levels`` selects which levels get an ascent lower bound: "all",
    or an integer K for the K levels with the largest l1 upper bound (the
    remaining levels report lower = 0 with no witness).  The chosen levels
    ascend together in one call of the ascent kernel, each from the starts
    that sup_norm would use with seed + 2|a| + (a < 0), for at most _MAX_ITERS iterations.
    """
    check_lower_levels(lower_levels)
    mods = split_levels(P.modulus())
    upper = {a: mod.l1() for a, mod in mods.items()}
    top = mods if lower_levels == "all" else heapq.nlargest(lower_levels, mods, key=upper.get)
    chosen = [a for a in mods if a in top]
    seeds = [seed + 2 * abs(a) + (a < 0) for a in chosen]
    found = dict(zip(chosen, _enclosures([mods[a] for a in chosen], [upper[a] for a in chosen],
                                         seeds, multistart) if chosen else []))
    return {a: found.get(a) or NormEnclosure(0.0, upper[a], None) for a in mods}


def _combine(per_level: dict[int, NormEnclosure], weight=lambda a: 1.0) -> NormEnclosure:
    lower, upper, witness = 0.0, 0.0, None
    for a, enc in per_level.items():
        wgt = weight(a)
        if wgt * enc.lower > lower:
            lower, witness = wgt * enc.lower, enc.witness
        upper = max(upper, wgt * enc.upper)
    return NormEnclosure(lower, upper, witness)


def norm_h(P: HomPoly, **kw) -> NormEnclosure:
    """Enclosure of the level-sup norm sup_a || |proj_a P| ||_sup; kw as in level_enclosures."""
    return _combine(level_enclosures(P, **kw))


def norm_c(P: HomPoly, **kw) -> NormEnclosure:
    """Enclosure of the weighted norm sup_a <a> || |proj_a P| ||_sup; kw as in level_enclosures."""
    return _combine(level_enclosures(P, **kw), weight=japanese)


# ---------------------------------------------------- Strichartz time integral


def strichartz_quadrature(mode_set: ModeSet, a: int, u: np.ndarray) -> float:
    """Level-a value of the modulus of build_p6(mode_set) via the time integral

        (1/6) * (1/2pi) int_0^{2pi} e^{i tau a} h(tau) dtau,

    where h(tau) is the sixth power of the L6 norm of the free evolution of
    the componentwise modulus of u (trigonometric-polynomial normalization).
    The x-integral mean_x |w|^6 is the value of build_p6 with c6 = 6 on all
    tau nodes at once; the tau-integral is a trapezoidal sum on 12 M^2 + 8
    nodes, M = max |m|.  Both are exact for the trigonometric degrees
    involved.
    """
    amps = np.abs(mode_set.state(u))
    n_tau = 12 * mode_set.M_param ** 2 + 8
    tau = 2.0 * np.pi * np.arange(n_tau) / n_tau
    phases = np.exp(-1j * np.outer(tau, mode_set.squares))  # (n_tau, modes)
    h = build_p6(mode_set, 1, 6.0)(phases * amps[None, :])   # (n_tau,)
    return 1.0 / 6.0 * float(np.mean(np.exp(1j * tau * a) * h).real)


def strichartz_identity_check(p6: HomPoly, a: int, u: np.ndarray) -> tuple[float, float]:
    """(direct, quadrature) values of the level-a sextic modulus at |u|, as floats.

    p6 is a window sextic, build_p6(p6.mode_set, sigma, c6), whose keys all
    carry sigma*c6/6; a polynomial whose keys carry different coefficients,
    such as an eigenbasis sextic, raises ValueError.  direct evaluates the
    stored projection of its modulus at the componentwise modulus of u;
    quadrature is c6 = 6 |p6's coefficient| times the time-integral identity
    at c6 = 1.  Neither depends on sigma.
    """
    if np.any(p6.coef != p6.coef[0]):
        raise ValueError("strichartz_identity_check needs a window sextic, "
                         "whose keys all carry one coefficient")
    part = project(p6, a).modulus()
    val = complex(part(np.abs(np.asarray(u, dtype=complex)).astype(complex)))
    direct = val.real  # nonnegative coefficients at a nonnegative state
    quad = 6.0 * float(abs(p6.coef[0])) * strichartz_quadrature(p6.mode_set, a, u)
    return direct, quad
