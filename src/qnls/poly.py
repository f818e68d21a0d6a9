"""Sparse algebra of homogeneous polynomials on C^M that commute with ||u||^2.

A polynomial of half-degree q is a sum over ordered tuples

    P(u) = sum_{k, l in M^q} P_{k,l} u_{k_1}..u_{k_q} conj(u_{l_1})..conj(u_{l_q})

with coefficients invariant under permutations of k and of l.  One canonical
representative per symmetry class is stored, as arrays and nothing else:

    idx_k, idx_l   (n, q) window indices of the holomorphic and the
                   antiholomorphic modes of each key, every row sorted,
                   column-major so that each slot's column is contiguous;
    coef           (n,) complex symmetric coefficients, none exactly zero;
    csize          (n,) float class sizes: the number of ordered (k, l) tuples
                   a key stands for, from the run lengths of its rows.

Rows keep construction order, not sorted order: a sum keeps the left
operand's keys first, then the right operand's new keys; masks and level
splits keep relative order; a bracket emits its keys in order of first
appearance.  The bracket, sums and scalings also repeat the floating-point
operations of Python's complex arithmetic one for one (numpy's own complex
kernels may fuse a multiply and an add), so which sums cancel to exactly 0.0,
hence every key count, is reproducible bit for bit.  ``coeffs`` is a derived
read-only mapping {(k, l) mode tuples: coefficient}, rebuilt on each access.

The bracket codes an output key as rank(k) * S + rank(l) from per-mode tables
of merged-row ranks, and keeps the codes it has listed in one sorted table.

The gradient reads a plan built once per polynomial from its key arrays: the
distinct sorted k-rows and l-rows, the sparse matrix of coef * csize between
them, and the 0/1 sparse matrix that sums the conj-side slot products into
modes.  A stack of states goes through it in cache-sized blocks.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .errors import check_positive

# bracket pairs expanded at a time: bounds the transient memory of poisson
_BLOCK = 1 << 14
# entries (states x distinct rows) of each work array of the gradient kernel:
# a stack goes through it in blocks whose work arrays fit a core's L2 cache
_GRAD_ENTRIES = 1 << 14
# entries poly_to_json renders at a time: bounds its transient small strings,
# which otherwise fragment the heap and raise the peak RSS of a run
_JSON_ROWS = 1 << 8


@dataclass(frozen=True)
class ModeSet:
    """Finite, strictly sorted set of integer Fourier (or eigen-) mode indices."""

    modes: tuple[int, ...]

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValueError("empty mode set")
        if any(a >= b for a, b in zip(self.modes, self.modes[1:])):
            raise ValueError("modes must be strictly sorted")

    @classmethod
    def symmetric(cls, M: int) -> "ModeSet":
        """Convolution-case window [-M, M]."""
        return cls(tuple(range(-M, M + 1)))

    @classmethod
    def dirichlet(cls, M: int) -> "ModeSet":
        """Dirichlet-case window [1, M]."""
        return cls(tuple(range(1, M + 1)))

    @property
    def M_param(self) -> int:
        """Window size max |m| of the modes."""
        return max(abs(m) for m in self.modes)

    @property
    def size(self) -> int:
        return len(self.modes)

    def index(self, mode: int) -> int:
        """Position of mode; ValueError, as list.index, if the set lacks it."""
        if mode not in self:
            raise ValueError(f"mode {mode} outside the mode set")
        return self._index_map[mode]

    @cached_property
    def squares(self) -> np.ndarray:
        """Read-only int64 squares m^2 of the modes: the integer frequencies."""
        sq = np.array(self.modes, dtype=np.int64) ** 2
        sq.flags.writeable = False
        return sq

    @cached_property
    def _index_map(self) -> dict[int, int]:
        return {mode: i for i, mode in enumerate(self.modes)}

    def __contains__(self, mode: int) -> bool:
        return mode in self._index_map

    def state(self, u, max_ndim: float = 1) -> np.ndarray:
        """u as a complex array of at most max_ndim axes, the last one over the modes."""
        u = np.asarray(u, dtype=complex)
        if u.ndim > max_ndim or u.shape[-1:] != (self.size,):
            raise ValueError(f"state does not match the mode set of {self.size} modes")
        return u


# ------------------------------------------------------- exact array kernels


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def complex_mul(a, b) -> np.ndarray:
    """a * b elementwise with the operations of Python's complex product
    (a real operand counts as x + 0j), written out so that no multiply-add
    is fused."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def complex_div(a, b) -> np.ndarray:
    """a / b elementwise with the operations of Python's complex quotient
    (Smith's scaling by the larger part of b); b must be nonzero."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    by_re = np.abs(b.real) >= np.abs(b.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_re, b.imag / b.real, b.real / b.imag)
    denom = np.where(by_re, b.real + b.imag * ratio, b.real * ratio + b.imag)
    re = np.where(by_re, a.real + a.imag * ratio, a.real * ratio + a.imag)
    im = np.where(by_re, a.imag - a.real * ratio, a.imag * ratio - a.real)
    return _complex(re / denom, im / denom)


def _perm_counts(rows: np.ndarray) -> np.ndarray:
    """Distinct orderings q! / prod(run length!) of each sorted row; the
    product of the factorials is the product of every entry's rank in its run."""
    denom = np.ones(rows.shape[0], dtype=np.int64)
    run = denom.copy()
    for t in range(1, rows.shape[1]):
        run = np.where(rows[:, t] == rows[:, t - 1], run + 1, 1)
        denom *= run
    return math.factorial(rows.shape[1]) // denom


def _class_sizes(idx_k: np.ndarray, idx_l: np.ndarray) -> np.ndarray:
    return _perm_counts(idx_k).astype(float) * _perm_counts(idx_l)


def _ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """Rank sum_t C(a_t + t, t + 1) of each sorted row a of q of the n modes:
    distinct rows get distinct ranks in 0..C(n+q-1, q)-1 (the combinatorial
    number system, which grows far slower than n**q)."""
    q = rows.shape[1]
    table = np.array([[math.comb(x, t + 1) for t in range(q)] for x in range(n + q - 1)],
                     dtype=np.int64).reshape(n + q - 1, q)
    t = np.arange(q)
    return table[rows + t, t].sum(axis=1)


def _code_base(n: int, q: int) -> int:
    """S = C(n+q-1, q), the number of ranks: a key's code is rank(k) * S + rank(l)."""
    S = math.comb(n + q - 1, q)
    if S * S >= 2 ** 63:
        raise OverflowError(f"keys of half-degree {q} on {n} modes overflow an int64 code")
    return S


def _key_codes(idx_k: np.ndarray, idx_l: np.ndarray, n: int) -> np.ndarray:
    """A distinct int64 per key, rank(k) * S + rank(l)."""
    return _ranks(idx_k, n) * _code_base(n, idx_k.shape[1]) + _ranks(idx_l, n)


def _find(hay: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Position of each needle among the distinct codes hay, -1 where absent."""
    if hay.size == 0:
        return np.full(needles.size, -1)
    order = np.argsort(hay)
    pos = order[np.minimum(np.searchsorted(hay, needles, sorter=order), hay.size - 1)]
    return np.where(hay[pos] == needles, pos, -1)


# --------------------------------------------------------------- polynomials


class HomPoly:
    """Homogeneous polynomial of degree 2q on C^modes, balanced (hence
    commuting with the Euclidean norm), stored as canonical key rows with
    symmetric coefficients.  Instances are treated as immutable."""

    def __init__(self, mode_set: ModeSet, q: int, coeffs=None, *, is_real: bool | None = None):
        """From a mapping {(k, l): coefficient} of mode tuples in any order;
        equal keys are summed and exact zeros dropped."""
        if q < 1:
            raise ValueError("half-degree must be >= 1")
        data = {}
        for (k, l), c in (coeffs or {}).items():
            c = complex(c)
            if c == 0:
                continue
            key = (tuple(sorted(k)), tuple(sorted(l)))
            if len(key[0]) != q or len(key[1]) != q:
                raise ValueError(f"key {key} does not have half-degree {q}")
            s = data.get(key, 0j) + c
            if s == 0:
                data.pop(key, None)
            else:
                data[key] = s
        idx = np.array([[mode_set.index(m) for m in k + l] for k, l in data],
                       dtype=np.intp).reshape(len(data), 2 * q)
        self._set(mode_set, q, idx[:, :q], idx[:, q:],
                  np.array(list(data.values()), dtype=complex), is_real)

    def _set(self, mode_set, q, idx_k, idx_l, coef, is_real):
        nonzero = coef != 0
        if not nonzero.all():
            idx_k, idx_l, coef = idx_k[nonzero], idx_l[nonzero], coef[nonzero]
        self.mode_set, self.q = mode_set, q
        self.idx_k = np.asfortranarray(idx_k, dtype=np.intp)
        self.idx_l = np.asfortranarray(idx_l, dtype=np.intp)
        self.coef = coef
        self.csize = _class_sizes(self.idx_k, self.idx_l)
        self._is_real = is_real

    def restrict(self, keep, coef=None, *, is_real: bool | None = None) -> "HomPoly":
        """The keys selected by keep (a mask or index array), in their order,
        with their own coefficients or with coef; exact zeros are dropped."""
        return from_arrays(self.mode_set, self.q, self.idx_k[keep], self.idx_l[keep],
                           self.coef[keep] if coef is None else coef, is_real)

    # ------------------------------------------------------------------ basics

    @property
    def degree(self) -> int:
        return 2 * self.q

    def __len__(self) -> int:
        return self.coef.size

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {(k, l): coefficient} view in key order, built on each access."""
        modes = np.asarray(self.mode_set.modes)
        keys = zip(map(tuple, modes[self.idx_k].tolist()), map(tuple, modes[self.idx_l].tolist()))
        return MappingProxyType(dict(zip(keys, self.coef.tolist())))

    @property
    def is_real(self) -> bool:
        """True iff the reality condition P_{l,k} = conj(P_{k,l}) holds."""
        if self._is_real is None:
            swapped = from_arrays(self.mode_set, self.q, self.idx_l, self.idx_k,
                                  np.conj(self.coef))
            self._is_real = coeff_close(self, swapped, ref=self)
        return self._is_real

    def divisors(self, w) -> np.ndarray:
        """Small divisor sum_k w - sum_l w of every key, for per-mode values w
        (of a FrequencySet: its full frequencies, on the same mode set)."""
        if getattr(w, "mode_set", self.mode_set) != self.mode_set:
            raise ValueError("mode-set mismatch between polynomial and frequencies")
        w = np.asarray(getattr(w, "omega", w))
        if w.shape != (self.mode_set.size,):
            raise ValueError("frequency vector does not match the polynomial's mode set")
        return w[self.idx_k].sum(axis=1) - w[self.idx_l].sum(axis=1)

    def _check_same_space(self, other: "HomPoly"):
        if self.mode_set != other.mode_set:
            raise ValueError("mode-set mismatch")

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_same_space(other)
        if self.q != other.q:
            raise ValueError("cannot add polynomials of different degree")
        n = self.mode_set.size
        at = _find(_key_codes(self.idx_k, self.idx_l, n), _key_codes(other.idx_k, other.idx_l, n))
        shared, new = at >= 0, at < 0
        coef = self.coef.copy()
        coef[at[shared]] += other.coef[shared]
        # a key new to the sum starts as 0j + c, which turns a -0.0 part into 0.0
        return from_arrays(self.mode_set, self.q,
                           np.concatenate([self.idx_k, other.idx_k[new]]),
                           np.concatenate([self.idx_l, other.idx_l[new]]),
                           np.concatenate([coef, 0j + other.coef[new]]))

    def __neg__(self) -> "HomPoly":
        return self.restrict(slice(None), -self.coef, is_real=self._is_real)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, scalar) -> "HomPoly":
        scalar = complex(scalar)
        if scalar == 0:
            return self.restrict(slice(0), is_real=True)
        real = self._is_real if scalar.imag == 0 else None
        return self.restrict(slice(None), complex_mul(scalar, self.coef), is_real=real)

    __rmul__ = __mul__

    def modulus(self) -> "HomPoly":
        """Coefficientwise absolute value |P_{k,l}| (idempotent)."""
        return self.restrict(slice(None), self._abs().astype(complex))

    def l1(self) -> float:
        """Sum of |coefficient| over ordered tuples; upper bound for sup |P| on the ball."""
        return float((self._abs() * self.csize).sum())

    def _abs(self) -> np.ndarray:
        # hypot is what Python's abs(complex) computes; np.abs can differ in the last bit
        return np.hypot(self.coef.real, self.coef.imag)

    # ------------------------------------------------------------- evaluation

    def __call__(self, u: np.ndarray):
        """Evaluate at a state vector (complex, indexed like mode_set.modes).

        Returns a float when the reality condition holds, complex otherwise.
        """
        u = self.mode_set.state(u)
        if not len(self):
            return 0.0 if self.is_real else 0j
        terms = ((self.coef * self.csize) * np.prod(u[self.idx_k], axis=1)
                 * np.prod(np.conj(u)[self.idx_l], axis=1))
        val = complex(terms.sum())
        if self.is_real:
            scale = float(np.abs(terms).sum())
            if abs(val.imag) > 1e-12 * max(scale, 1e-300):
                raise ArithmeticError("real-flagged polynomial produced a complex value")
            return val.real
        return val

    @cached_property
    def _plan(self):
        """(Tk, Tl, C, S) of the gradient kernel: the distinct sorted k-rows Tk
        and l-rows Tl, the CSR matrix C (len(Tl) x len(Tk)) of coef * csize
        at (l-row, k-row) of each key, and the 0/1 CSR matrix S
        (modes x q*len(Tl)) that adds column s*len(Tl) + b into mode Tl[b, s]."""
        from scipy import sparse    # here, so that importing qnls loads no SciPy
        Tk, ik = np.unique(self.idx_k, axis=0, return_inverse=True)
        Tl, il = np.unique(self.idx_l, axis=0, return_inverse=True)
        C = sparse.csr_array((self.coef * self.csize, (il.ravel(), ik.ravel())),
                             shape=(len(Tl), len(Tk)))
        slots = Tl.T.ravel()
        S = sparse.csr_array((np.ones(slots.size, dtype=complex),
                              (slots, np.arange(slots.size))),
                             shape=(self.mode_set.size, slots.size))
        return Tk, Tl, C, S

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Euclidean gradient 2*d/dconj(u) P(u) of a real-valued polynomial,
        at one state (n,) or at each state of a stack (..., n).

        P is the bilinear form sum C[b, a] A_a conj(B_b) between the monomials
        A of its distinct k-rows and B of its distinct l-rows (see _plan), so
        d/dconj(u_j) P sums (C @ A)[b] times the conj factors of the other
        slots of b over every slot s of every l-row b with Tl[b, s] = j.
        Each state of a stack goes through the same operations, so each row
        of the result equals that state's gradient alone, bit for bit."""
        if not self.is_real:
            raise ValueError("gradient is only defined for real-valued polynomials")
        u = self.mode_set.state(u, math.inf)
        Tk, Tl, C, S = self._plan
        states = u.reshape(-1, u.shape[-1])
        grad = np.empty(states.shape, dtype=complex)
        block = max(1, _GRAD_ENTRIES // max(len(Tk), len(Tl), 1))
        for i in range(0, len(states), block):
            U = np.ascontiguousarray(states[i:i + block].T)
            # np.multiply, never `*`: numpy may compute `x * tmp` into a large
            # temporary with the operands swapped, and its fused complex product
            # is not commutative bit for bit
            Y = C @ reduce(np.multiply, [U[Tk[:, t]] for t in range(1, self.q)], U[Tk[:, 0]])
            cols = [np.conj(U[Tl[:, t]]) for t in range(self.q)]
            E = np.empty((self.q,) + Y.shape, dtype=complex)
            for s in range(self.q):
                E[s] = reduce(np.multiply, cols[:s] + cols[s + 1:], Y)
            grad[i:i + block] = (S @ E.reshape(-1, U.shape[1])).T
        return 2.0 * grad.reshape(u.shape)


def from_arrays(mode_set, q, idx_k, idx_l, coef, is_real=None) -> HomPoly:
    """A plain HomPoly on canonical index rows; exact zeros are dropped."""
    out = HomPoly.__new__(HomPoly)
    out._set(mode_set, q, idx_k, idx_l, coef, is_real)
    return out


def coeff_close(P: HomPoly, Q: HomPoly, rtol: float = 1e-12, ref: HomPoly | None = None) -> bool:
    """True when every coefficient of P - Q has modulus at most rtol times the
    largest coefficient modulus of ref (1.0 if ref is zero), or by default of
    P and Q."""
    if ref is None:
        scale = max(np.abs(P.coef).max(initial=0.0), np.abs(Q.coef).max(initial=0.0), 1e-300)
    else:
        scale = np.abs(ref.coef).max() if len(ref) else 1.0
    return not np.any(np.abs((P - Q).coef) > rtol * scale)


# ----------------------------------------------------------------- brackets


def _entries(P: HomPoly, side: str):
    """d/du_j P (side "k") or d/dconj(u_j) P (side "l") as one entry per
    distinct j of each key, in key order and j ascending: (j, other-side rows,
    own rows less one j, weight coefficient * class size * multiplicity of j).
    Rows are stored in the smallest integer type that holds the window."""
    own, other = (P.idx_k, P.idx_l) if side == "k" else (P.idx_l, P.idx_k)
    first = np.ones(own.shape, dtype=bool)
    first[:, 1:] = own[:, 1:] != own[:, :-1]
    rows, slots = np.nonzero(first)
    j = own[rows, slots]
    mult = (own[rows] == j[:, None]).sum(axis=1)
    cols = np.arange(P.q - 1)
    reduced = own[rows[:, None], cols + (cols >= slots[:, None])]
    small = np.min_scalar_type(P.mode_set.size)
    weight = complex_mul(complex_mul(P.coef, P.csize)[rows], mult)
    return j, other[rows].astype(small), reduced.astype(small), weight


def _unique(codes: np.ndarray):
    """np.unique(codes, return_index=True, return_inverse=True), by one
    unstable argsort (np.unique's stable sort takes up to 3x as long on a
    block of codes): the first appearance of a code is the least position in
    its run of equal codes."""
    order = np.argsort(codes)
    ordered = codes[order]
    step = np.empty(codes.size, dtype=bool)
    step[:1], step[1:] = True, ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(step)
    inv = np.empty(codes.size, dtype=np.intp)
    inv[order] = np.cumsum(step) - 1
    return ordered[starts], np.minimum.reduceat(order, starts), inv


def _merged(X: np.ndarray, Y: np.ndarray, n: int):
    """(ix, iy, rows, ranks): for every pair of distinct rows x of X and y of
    Y the sorted row x + y and its rank, in flat tables, and an offset ix per
    row of X and iy per row of Y such that ix + iy is the place of their pair."""
    (_, fx, ix), (_, fy, iy) = (_unique(_ranks(Z, n)) for Z in (X, Y))
    x, y = X[fx], Y[fy]
    shape = (len(x), len(y))
    rows = np.sort(np.concatenate([np.broadcast_to(x[:, None], shape + x.shape[1:]),
                                   np.broadcast_to(y[None], shape + y.shape[1:])], axis=2), axis=2)
    rows = rows.reshape(-1, rows.shape[2])
    return ix * len(y), iy, rows, _ranks(rows, n)


def poisson(P: HomPoly, Q: HomPoly) -> HomPoly:
    """Poisson bracket {P, Q} = 2i sum_j (dP/dconj(u_j) dQ/du_j - dP/du_j dQ/dconj(u_j)).

    Both inputs must be balanced on the same mode set; the result has
    half-degree q + q' - 1 and canonical symmetric coefficients.  Each
    product of a P entry and a Q entry is added, in loop order (j in order of
    first appearance in P, then P entries, then Q entries), to the total of
    its output key; the pairs are expanded in blocks of at most _BLOCK whose
    sums continue from the running totals, so the totals are the same sums in
    the same order.  A pair's output rows are sorted(P's other-side row + Q's
    reduced row) and sorted(P's reduced row + Q's other-side row), so for
    each j the ranks of all merged rows are tabulated over the distinct rows
    of each side, and a pair's key code is two table reads.  The codes listed
    so far stay sorted, and each block inserts its new ones.
    """
    P._check_same_space(Q)
    n, q = P.mode_set.size, P.q + Q.q - 1
    # the sorted codes of the output keys and each key's place in order of first
    # appearance, after a sentinel above every code
    known, known_id = np.array([np.iinfo(np.int64).max]), np.array([-1])
    rows, tot = [], np.zeros((2, 0))        # keys' rows; real and imaginary totals
    for sign, sides in ((1.0, "lk"), (-1.0, "kl")):
        jP, otherP, redP, wP = _entries(P, sides[0])
        jQ, otherQ, redQ, wQ = _entries(Q, sides[1])
        _, j_first = np.unique(jP, return_index=True)
        for j in jP[np.sort(j_first)]:
            ps, qs = np.flatnonzero(jP == j), np.flatnonzero(jQ == j)
            if not qs.size:
                continue
            S = _code_base(n, q)
            # dP/dconj(u_j) dQ/du_j has keys (a, b); dP/du_j dQ/dconj(u_j) has (b, a)
            a, b = _merged(otherP[ps], redQ[qs], n), _merged(redP[ps], otherQ[qs], n)
            (pk, qk, k_rows, k_rank), (pl, ql, l_rows, l_rank) = (a, b) if sign > 0 else (b, a)
            k_code = k_rank * S
            for start in range(0, ps.size * qs.size, _BLOCK):
                # P entry x and Q entry y of each pair; its k-row and l-row places
                x, y = np.divmod(np.arange(start, min(start + _BLOCK, ps.size * qs.size)), qs.size)
                kx, lx = pk[x] + qk[y], pl[x] + ql[y]
                uniq, first, inv = _unique(k_code[kx] + l_rank[lx])
                at = np.searchsorted(known, uniq)
                ids = np.where(known[at] == uniq, known_id[at], -1)
                miss = ids < 0
                new = np.flatnonzero(miss)
                new = new[np.argsort(first[new])]
                ids[new] = tot.shape[1] + np.arange(new.size)
                known = np.insert(known, at[miss], uniq[miss])
                known_id = np.insert(known_id, at[miss], ids[miss])
                f = first[new]
                rows.append(np.concatenate([k_rows[kx[f]], l_rows[lx[f]]], axis=1))
                tot = np.concatenate([tot, np.zeros((2, new.size))], axis=1)
                # each key's running total first, then the block's terms in order
                seq = np.concatenate([np.arange(uniq.size), inv])
                prod = complex_mul(wP[ps[x]], wQ[qs[y]])
                for part, w in zip(tot, (prod.real, prod.imag)):
                    part[ids] = np.bincount(seq, np.concatenate([part[ids], sign * w]))
    rows = np.concatenate(rows) if rows else np.zeros((0, 2 * q), dtype=np.intp)
    k, l = rows[:, :q], rows[:, q:]
    coef = complex_div(complex_mul(2j, _complex(*tot)), _class_sizes(k, l))
    return from_arrays(P.mode_set, q, k, l, coef, True if (P.is_real and Q.is_real) else None)


# -------------------------------------------------------------- constructors


def build_z2(mode_set: ModeSet, omega) -> HomPoly:
    """Diagonal quadratic (1/2) sum_k omega_k |u_k|^2.

    ``omega`` is a per-mode real array aligned with mode_set.modes (a
    FrequencySet is accepted and its full frequencies are used).
    """
    omega = np.asarray(getattr(omega, "omega", omega), dtype=float)
    if omega.shape != (mode_set.size,):
        raise ValueError("frequency vector does not match the mode set")
    diag = np.arange(mode_set.size)[:, None]
    return from_arrays(mode_set, 1, diag, diag, (0.5 * omega).astype(complex), is_real=True)


def momentum_buckets(mode_set: ModeSet) -> list[np.ndarray]:
    """Index triples i1 <= i2 <= i3 of the window grouped by their momentum
    k1 + k2 + k3, buckets in order of first appearance, each an (m, 3) array."""
    m, buckets = mode_set.modes, defaultdict(list)
    for i, j, k in combinations_with_replacement(range(len(m)), 3):
        buckets[m[i] + m[j] + m[k]].append((i, j, k))
    return [np.array(b, dtype=np.intp) for b in buckets.values()]


class Sextic(HomPoly):
    """The sextic scale/6 * mean_x |v|^6, v = u @ F, of a synthesis matrix F
    (modes x N quadrature points), and its gradient scale * (|v|^4 v) @ conj(F).T / N,
    at a state or a stack, by two dense products.  Its key table, an ordinary
    HomPoly's (arithmetic on it gives a plain HomPoly), is built on first read
    of idx_k, idx_l, coef or csize by keys() -> (idx_k, idx_l, coef)."""

    def __init__(self, mode_set: ModeSet, F: np.ndarray, scale: float, keys):
        self.mode_set, self.q, self._is_real, self._keys = mode_set, 3, True, keys
        self._F, self._scale = np.asarray(F, dtype=complex), scale
        self._G = self._F.conj().T / self._F.shape[1]

    def __getattr__(self, name):
        # only a key array can be missing, before its first read
        if name not in ("idx_k", "idx_l", "coef", "csize"):
            raise AttributeError(name)
        self._set(self.mode_set, 3, *self._keys(), True)
        return getattr(self, name)

    def __call__(self, u: np.ndarray):
        a = np.abs(self.mode_set.state(u, math.inf) @ self._F) ** 2
        return self._scale / 6.0 * np.mean(a ** 3, axis=-1)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        w = self.mode_set.state(u, math.inf) @ self._F
        a = np.abs(w) ** 2
        return self._scale * ((a * a * w) @ self._G)


def build_p6(mode_set: ModeSet, sigma: int = 1, c6: float = 1.0) -> Sextic:
    """Sextic interaction with coefficient sigma*c6/6 on every ordered tuple
    satisfying momentum conservation k1+k2+k3 = l1+l2+l3 (the pairs of triples
    of each momentum bucket, k outer): the Sextic of scale sigma*c6 on the DFT
    F[j, x] = exp(2 pi i m_j x / N) on the fewest points N on which cubic and
    quintic convolution powers on the window do not alias."""
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    check_positive(c6=c6)
    # m_j x is reduced mod N before the exp, so every phase is below 2 pi
    modes = np.asarray(mode_set.modes)
    N = 3 * int(modes.max() - modes.min()) + 1

    def keys():
        buckets = momentum_buckets(mode_set)
        k = np.concatenate([np.repeat(b, len(b), axis=0) for b in buckets])
        return (k, np.concatenate([np.tile(b, (len(b), 1)) for b in buckets]),
                np.full(len(k), complex(sigma * c6 / 6.0)))

    return Sextic(mode_set, np.exp(2j * np.pi / N * (np.outer(modes, np.arange(N)) % N)),
                  sigma * c6, keys)


# ------------------------------------------------------------- serialization


def _json_floats(x: np.ndarray) -> list[str]:
    """json's spelling of each float: its repr, or NaN, Infinity, -Infinity."""
    out = list(map(float.__repr__, x.tolist()))
    for i in np.flatnonzero(~np.isfinite(x)).tolist():
        out[i] = "NaN" if np.isnan(x[i]) else "Infinity" if x[i] > 0 else "-Infinity"
    return out


def poly_to_json(P: HomPoly, level: int = 0) -> str:
    """Canonical JSON document {degree, entries, modes}, entries sorted by key:
    the text json.dumps(doc, indent=2, sort_keys=True) writes for it when it
    is nested level levels deep, rendered column by column from the arrays."""
    # window indices follow mode order, so sorting the index rows sorts the keys
    order = np.lexsort(np.concatenate([P.idx_k, P.idx_l], axis=1).T[::-1])
    names = np.array([str(m) for m in P.mode_set.modes], dtype=object)
    p1, p2, p3, p4 = ("\n" + "  " * (level + i) for i in range(1, 5))
    sep, items = "," + p2, ("," + p4).join(["%s"] * P.q)
    entry = (f'{{{p3}"im": %s,{p3}"k": [{p4}{items}{p3}],{p3}"l": [{p4}{items}{p3}],'
             f'{p3}"re": %s{p2}}}')
    # grown in place (CPython resizes a str it holds the only reference to), a
    # block of rows at a time, so that only the text and one block are live
    text = f'{{{p1}"degree": {P.degree},{p1}"entries": ['
    for start in range(0, len(P), _JSON_ROWS):
        rows = order[start:start + _JSON_ROWS]
        cols = [_json_floats(P.coef.imag[rows]),
                *(names[P.idx_k[rows, s]].tolist() for s in range(P.q)),
                *(names[P.idx_l[rows, s]].tolist() for s in range(P.q)),
                _json_floats(P.coef.real[rows])]
        text += (sep if start else p2) + sep.join(map(entry.__mod__, zip(*cols)))
    text += (f'{p1 if len(P) else ""}],{p1}"modes": [{p2}{sep.join(names.tolist())}'
             f'{p1}]\n{"  " * level}}}')
    return text


def poly_from_json(text: str) -> HomPoly:
    doc = json.loads(text)
    ms = ModeSet(tuple(doc["modes"]))
    q = doc["degree"] // 2
    coeffs = {}
    for e in doc["entries"]:
        key = (tuple(sorted(e["k"])), tuple(sorted(e["l"])))
        if key in coeffs:
            raise ValueError(f"key {key} appears twice")
        coeffs[key] = complex(e["re"], e["im"])
    return HomPoly(ms, q, coeffs)
