"""Sparse algebra of homogeneous polynomials on C^M that commute with ||u||^2.

A polynomial of half-degree q is a sum over ordered tuples

    P(u) = sum_{k, l in M^q} P_{k,l} u_{k_1}..u_{k_q} conj(u_{l_1})..conj(u_{l_q})

with coefficients invariant under permutations of k and of l.  Only one
canonical representative per symmetry class is stored: the key is a pair of
sorted q-tuples of mode indices, the value is the shared symmetric
coefficient, and the number of distinct ordered tuples in the class
(``class_size``) is cached for evaluation.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.fft import next_fast_len

# a canonical monomial key: (sorted holomorphic modes, sorted antiholomorphic modes)
MonomialKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ModeSet:
    """Finite, strictly sorted set of integer Fourier (or eigen-) mode indices."""

    modes: tuple[int, ...]
    M_param: int

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValueError("empty mode set")
        if any(a >= b for a, b in zip(self.modes, self.modes[1:])):
            raise ValueError("modes must be strictly sorted")

    @classmethod
    def symmetric(cls, M: int) -> "ModeSet":
        """Convolution-case window [-M, M]."""
        return cls(tuple(range(-M, M + 1)), M)

    @classmethod
    def dirichlet(cls, M: int) -> "ModeSet":
        """Dirichlet-case window [1, M]."""
        return cls(tuple(range(1, M + 1)), M)

    @property
    def size(self) -> int:
        return len(self.modes)

    def index(self, mode: int) -> int:
        return self._index_map[mode]

    @property
    def _index_map(self) -> dict[int, int]:
        m = self.__dict__.get("_index_cache")
        if m is None:
            m = {mode: i for i, mode in enumerate(self.modes)}
            object.__setattr__(self, "_index_cache", m)
        return m

    def __contains__(self, mode: int) -> bool:
        return mode in self._index_map


def canonical_key(k, l) -> MonomialKey:
    """Sort both slots of a monomial key into canonical form."""
    return (tuple(sorted(k)), tuple(sorted(l)))


def _perm_count(t: tuple[int, ...]) -> int:
    n = math.factorial(len(t))
    for c in Counter(t).values():
        n //= math.factorial(c)
    return n


def class_size(key: MonomialKey) -> int:
    """Number of distinct ordered (k, l) tuples represented by a canonical key."""
    return _perm_count(key[0]) * _perm_count(key[1])


class HomPoly:
    """Homogeneous polynomial of degree 2q on C^modes, balanced (hence
    commuting with the Euclidean norm), stored as canonical-key -> symmetric
    coefficient.  Instances are treated as immutable after construction."""

    def __init__(self, mode_set: ModeSet, q: int, coeffs=None, *, validate: bool = True,
                 is_real: bool | None = None):
        if q < 1:
            raise ValueError("half-degree must be >= 1")
        self.mode_set = mode_set
        self.q = q
        data = {}
        if coeffs:
            for key, c in coeffs.items():
                c = complex(c)
                if c == 0:
                    continue
                if validate:
                    key = canonical_key(*key)
                    if len(key[0]) != q or len(key[1]) != q:
                        raise ValueError(f"key {key} does not have half-degree {q}")
                    for m in key[0] + key[1]:
                        if m not in mode_set:
                            raise ValueError(f"mode {m} outside the mode set")
                    s = data.get(key, 0j) + c
                    if s == 0:
                        data.pop(key, None)
                    else:
                        data[key] = s
                else:
                    data[key] = c
        self.coeffs = data
        self._is_real = is_real
        self._class_sizes = None
        self._arrays = None

    # ------------------------------------------------------------------ basics

    @property
    def degree(self) -> int:
        return 2 * self.q

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def is_real(self) -> bool:
        """True iff the reality condition P_{l,k} = conj(P_{k,l}) holds."""
        if self._is_real is None:
            scale = max((abs(c) for c in self.coeffs.values()), default=0.0)
            tol = 1e-12 * scale
            ok = True
            for (k, l), c in self.coeffs.items():
                if abs(self.coeffs.get((l, k), 0j) - c.conjugate()) > tol:
                    ok = False
                    break
            self._is_real = ok
        return self._is_real

    def class_sizes(self) -> dict[MonomialKey, int]:
        if self._class_sizes is None:
            self._class_sizes = {key: class_size(key) for key in self.coeffs}
        return self._class_sizes

    def _check_same_space(self, other: "HomPoly"):
        if self.mode_set != other.mode_set:
            raise ValueError("mode-set mismatch")

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_same_space(other)
        if self.q != other.q:
            raise ValueError("cannot add polynomials of different degree")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, 0j) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return HomPoly(self.mode_set, self.q, out, validate=False)

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.mode_set, self.q, {k: -c for k, c in self.coeffs.items()},
                       validate=False, is_real=self._is_real)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, scalar) -> "HomPoly":
        scalar = complex(scalar)
        if scalar == 0:
            return HomPoly(self.mode_set, self.q, {}, validate=False, is_real=True)
        real = self._is_real if scalar.imag == 0 else None
        return HomPoly(self.mode_set, self.q,
                       {k: scalar * c for k, c in self.coeffs.items()},
                       validate=False, is_real=real)

    __rmul__ = __mul__

    def modulus(self) -> "HomPoly":
        """Coefficientwise absolute value |P_{k,l}| (idempotent)."""
        return HomPoly(self.mode_set, self.q,
                       {k: abs(c) for k, c in self.coeffs.items()}, validate=False)

    def l1(self) -> float:
        """Sum of |coefficient| over ordered tuples; upper bound for sup |P| on the ball."""
        cs = self.class_sizes()
        return float(sum(abs(c) * cs[key] for key, c in self.coeffs.items()))

    # ---------------------------------------------------------- vectorization

    def _np(self):
        """Cached (idx_k, idx_l, coeffs, class_sizes) arrays for numpy kernels."""
        if self._arrays is None:
            n = len(self.coeffs)
            # column-major, so that each slot's column is contiguous
            idx_k = np.empty((n, self.q), dtype=np.intp, order="F")
            idx_l = np.empty((n, self.q), dtype=np.intp, order="F")
            cvec = np.empty(n, dtype=complex)
            wvec = np.empty(n, dtype=float)
            index = self.mode_set.index
            cs = self.class_sizes()
            for i, (key, c) in enumerate(self.coeffs.items()):
                idx_k[i] = [index(m) for m in key[0]]
                idx_l[i] = [index(m) for m in key[1]]
                cvec[i] = c
                wvec[i] = cs[key]
            self._arrays = (idx_k, idx_l, cvec, wvec)
        return self._arrays

    # ------------------------------------------------------------- evaluation

    def __call__(self, u: np.ndarray):
        """Evaluate at a state vector (complex, indexed like mode_set.modes).

        Returns a float when the reality condition holds, complex otherwise.
        """
        u = self._state(u)
        if u.ndim != 1:
            raise ValueError("a HomPoly is evaluated at one state at a time")
        if not self.coeffs:
            return 0.0 if self.is_real else 0j
        idx_k, idx_l, cvec, wvec = self._np()
        terms = (cvec * wvec) * np.prod(u[idx_k], axis=1) * np.prod(np.conj(u)[idx_l], axis=1)
        val = complex(terms.sum())
        if self.is_real:
            scale = float(np.abs(terms).sum())
            if abs(val.imag) > 1e-12 * max(scale, 1e-300):
                raise ArithmeticError("real-flagged polynomial produced a complex value")
            return val.real
        return val

    def _state(self, u) -> np.ndarray:
        """u as complex states (..., n) on this polynomial's mode set."""
        u = np.asarray(u, dtype=complex)
        if u.shape[-1:] != (self.mode_set.size,):
            raise ValueError("mode-set mismatch between state and polynomial")
        return u

    def _partial(self, u: np.ndarray, side: str) -> np.ndarray:
        """d/du_j P (side="k") or d/dconj(u_j) P (side="l") at one state."""
        n, q = self.mode_set.size, self.q
        if not self.coeffs:
            return np.zeros(n, dtype=complex)
        idx_k, idx_l, cvec, wvec = self._np()
        own, other = (idx_k, idx_l) if side == "k" else (idx_l, idx_k)
        own_u, other_u = (u, np.conj(u)) if side == "k" else (np.conj(u), u)
        base = cvec * wvec
        for t in range(q):
            base = base * other_u[other[:, t]]
        cols = [own_u[own[:, t]] for t in range(q)]
        # slot s of a term: its weight times every column of this side but s
        contrib = np.empty((q, base.size), dtype=complex)
        for s in range(q):
            contrib[s] = base
            for t in range(q):
                if t != s:
                    contrib[s] *= cols[t]
        slots = own.T.ravel()
        re = np.bincount(slots, weights=contrib.real.ravel(), minlength=n)
        im = np.bincount(slots, weights=contrib.imag.ravel(), minlength=n)
        return re + 1j * im

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Euclidean gradient 2*d/dconj(u) P(u) of a real-valued polynomial,
        at one state (n,) or at each state of a stack (..., n)."""
        if not self.is_real:
            raise ValueError("gradient is only defined for real-valued polynomials")
        u = self._state(u)
        # one state at a time: on 3510 keys and 3 states a kernel over the
        # whole stack ran more than 2x slower than this loop
        rows = [self._partial(v, "l") for v in u.reshape(-1, u.shape[-1])]
        return 2.0 * np.array(rows).reshape(u.shape)


# ----------------------------------------------------------------- brackets


def _slot_derivative(P: HomPoly, side: str):
    """Tables for d/du_j (side='k') or d/dconj(u_j) (side='l') of P.

    Returns mode -> list of (other-side tuple, reduced same-side tuple, weight)
    at the level of ordered-sum totals: weight = coeff * class_size * multiplicity.
    """
    table = defaultdict(list)
    cs = P.class_sizes()
    for (k, l), c in P.coeffs.items():
        w = c * cs[(k, l)]
        own, other = (k, l) if side == "k" else (l, k)
        for j, mult in Counter(own).items():
            reduced = list(own)
            reduced.remove(j)
            table[j].append((other, tuple(reduced), w * mult))
    return table


def poisson(P: HomPoly, Q: HomPoly) -> HomPoly:
    """Poisson bracket {P, Q} = 2i sum_j (dP/dconj(u_j) dQ/du_j - dP/du_j dQ/dconj(u_j)).

    Both inputs must be balanced on the same mode set; the result has
    half-degree q + q' - 1 and canonical symmetric coefficients.
    """
    P._check_same_space(Q)
    q_out = P.q + Q.q - 1
    totals = defaultdict(complex)

    dP_ub = _slot_derivative(P, "l")   # d/dconj(u_j) P : (k_P, l_P \ j)
    dQ_u = _slot_derivative(Q, "k")    # d/du_j Q       : (l_Q, k_Q \ j)
    for j, plist in dP_ub.items():
        qlist = dQ_u.get(j)
        if not qlist:
            continue
        for kP, lP_red, wP in plist:
            for lQ, kQ_red, wQ in qlist:
                key = (tuple(sorted(kP + kQ_red)), tuple(sorted(lP_red + lQ)))
                totals[key] += wP * wQ

    dP_u = _slot_derivative(P, "k")
    dQ_ub = _slot_derivative(Q, "l")
    for j, plist in dP_u.items():
        qlist = dQ_ub.get(j)
        if not qlist:
            continue
        for lP, kP_red, wP in plist:
            for kQ, lQ_red, wQ in qlist:
                key = (tuple(sorted(kP_red + kQ)), tuple(sorted(lP + lQ_red)))
                totals[key] -= wP * wQ

    coeffs = {}
    for key, tot in totals.items():
        if tot == 0:
            continue
        coeffs[key] = 2j * tot / class_size(key)
    real = True if (P.is_real and Q.is_real) else None
    return HomPoly(P.mode_set, q_out, coeffs, validate=False, is_real=real)


# -------------------------------------------------------------- constructors


def build_z2(mode_set: ModeSet, omega) -> HomPoly:
    """Diagonal quadratic (1/2) sum_k omega_k |u_k|^2.

    ``omega`` is a per-mode real array aligned with mode_set.modes (a
    FrequencySet is accepted and its full frequencies are used).
    """
    omega = np.asarray(getattr(omega, "omega", omega), dtype=float)
    if omega.shape != (mode_set.size,):
        raise ValueError("frequency vector does not match the mode set")
    coeffs = {((m,), (m,)): 0.5 * omega[i] for i, m in enumerate(mode_set.modes)
              if omega[i] != 0.0}
    return HomPoly(mode_set, 1, coeffs, validate=False, is_real=True)


def sextic_grid(modes) -> tuple[np.ndarray, int]:
    """FFT slots ``modes % N`` of a window and a length N large enough that
    cubic and quintic convolution powers on the window do not alias."""
    modes = np.asarray(modes)
    N = next_fast_len(3 * int(modes.max() - modes.min()) + 1)
    return modes % N, N


def sextic_fft(u: np.ndarray, idx: np.ndarray, N: int, gradient: bool):
    """With w the N-point inverse FFT of u placed at the slots idx (along the
    last axis of u): the Fourier coefficients of |w|^4 w on the window
    (gradient=True) or the mean of |w|^6 (gradient=False)."""
    spec = np.zeros(u.shape[:-1] + (N,), dtype=complex)
    spec[..., idx] = u
    w = np.fft.ifft(spec) * N
    if gradient:
        return (np.fft.fft(np.abs(w) ** 4 * w) / N)[..., idx]
    return np.mean(np.abs(w) ** 6, axis=-1)


class Sextic(HomPoly):
    """The sextic interaction of build_p6.  Its coefficient table is an
    ordinary HomPoly's and arithmetic on it returns a plain HomPoly; only its
    value sigma*c6/6 * mean_x |u(x)|^6 and its gradient sigma*c6*|u|^4 u are
    evaluated by FFT on the window."""

    def __init__(self, mode_set: ModeSet, sigma: int = 1, c6: float = 1.0):
        if sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if c6 <= 0:
            raise ValueError("c6 must be positive")
        coeff = sigma * c6 / 6.0
        buckets = defaultdict(list)
        for trip in combinations_with_replacement(mode_set.modes, 3):
            buckets[sum(trip)].append(trip)
        coeffs = {(k, l): coeff for group in buckets.values() for k in group for l in group}
        super().__init__(mode_set, 3, coeffs, validate=False, is_real=True)
        self.sigma, self.c6 = sigma, c6
        self.idx, self.N = sextic_grid(mode_set.modes)

    def __call__(self, u: np.ndarray) -> float:
        return self.sigma * self.c6 / 6.0 * sextic_fft(self._state(u), self.idx, self.N, False)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.sigma * self.c6 * sextic_fft(self._state(u), self.idx, self.N, True)


def build_p6(mode_set: ModeSet, sigma: int = 1, c6: float = 1.0) -> Sextic:
    """Sextic interaction with coefficient sigma*c6/6 on every ordered tuple
    satisfying momentum conservation k1+k2+k3 = l1+l2+l3.

    Its gradient is sigma*c6 * (|u|^4 u) as a discrete convolution power
    restricted to the window, evaluated by FFT on any window.
    """
    return Sextic(mode_set, sigma, c6)


# ------------------------------------------------------------- serialization


def poly_to_json(P: HomPoly) -> str:
    """Canonical JSON document {degree, modes, entries}, sorted by key."""
    entries = [
        {"k": [int(m) for m in key[0]], "l": [int(m) for m in key[1]],
         "re": float(c.real), "im": float(c.imag)}
        for key, c in sorted(P.coeffs.items())
    ]
    doc = {"degree": P.degree, "modes": [int(m) for m in P.mode_set.modes],
           "entries": entries}
    return json.dumps(doc, separators=(",", ":"))


def poly_from_json(text: str, M_param: int | None = None) -> HomPoly:
    doc = json.loads(text)
    modes = tuple(doc["modes"])
    ms = ModeSet(modes, M_param if M_param is not None else max(abs(m) for m in modes))
    q = doc["degree"] // 2
    coeffs = {
        (tuple(e["k"]), tuple(e["l"])): complex(e["re"], e["im"])
        for e in doc["entries"]
    }
    return HomPoly(ms, q, coeffs)
