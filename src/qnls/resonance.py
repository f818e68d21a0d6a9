"""Random potentials and numerical certification of non-resonance.

Weak certificates fit the largest gamma such that

    |a + sum_j m_j w_{h_j}| >= gamma (min_j <h_j>)^{-s*} prod_j |m_j|^{-4} <h_j>^{-4}

holds over a finite enumeration window; strong certificates restrict to
zero-sum integer vectors m and fit the largest rho in

    |sum_j m_j w_{h_j}| >= rho (2 min_j <h_j>)^{-exp(alpha |m|_1)}.

Exact zeros are reported as violations and force the fitted constant to zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import combinations, product

import numpy as np

from .errors import BudgetError, check_positive
from .spectral import FrequencySet, japanese

_MAX_TUPLES = 50_000_000   # (q, m, h) tuples one certification run may inspect


def _zigzag(k: int) -> int:
    return 2 * k if k >= 0 else -2 * k - 1


def mode_gaussian(seed: int, k: int) -> float:
    """Standard normal attached to (seed, mode k); enlarging the window keeps
    previously drawn values (counter-based keying, not a shared stream)."""
    return float(np.random.default_rng([seed, _zigzag(k)]).standard_normal())


def sample_conv_potential(s_star: float, M: int, seed: int) -> np.ndarray:
    """Fourier coefficients V_k = X_k <k>^{-s*} on the window [-M, M]."""
    check_positive(s_star=s_star)
    modes = range(-M, M + 1)
    return np.array([mode_gaussian(seed, k) * japanese(k) ** (-s_star) for k in modes])


def sample_mult_potential(s_star: float, K: int, seed: int) -> np.ndarray:
    """Cosine coefficients (w_0..w_K) of the even, mean-zero random potential
    sum_{k>=1} X_k <k>^{-s*} cos(kx); w_0 = 0."""
    if not s_star > 1.5:
        raise ValueError("s_star must exceed 3/2 in the multiplicative case")
    w = np.zeros(K + 1)
    for k in range(1, K + 1):
        w[k] = mode_gaussian(seed, k) * japanese(k) ** (-s_star)
    return w


# -------------------------------------------------------------- certificates


@dataclass(frozen=True)
class NRBounds:
    q_max: int
    m1_max: int
    h_max: int
    a_max: int = 0

    def __post_init__(self):
        if min(self.q_max, self.m1_max, self.h_max) < 1 or self.a_max < 0:
            raise ValueError("enumeration bounds must be positive")


@dataclass
class NRCertificate:
    kind: str                      # "weak" | "strong"
    fitted: float                  # gamma (weak) or rho (strong)
    alpha: float | None
    s_star: float | None
    bounds: NRBounds
    n_checked: int
    worst_case: dict | None
    violations: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _m_patterns(q: int, m1_max: int, zero_sum: bool) -> list[tuple[int, ...]]:
    """Ordered m in (Z*)^q with sum|m| <= m1_max, deduplicated by overall sign."""
    out = []
    if m1_max < q:
        return out
    for mags in product(range(1, m1_max + 1), repeat=q):
        if sum(mags) > m1_max:
            continue
        for signs in product((1, -1), repeat=q):
            m = tuple(s * a for s, a in zip(signs, mags))
            if zero_sum and sum(m) != 0:
                continue
            if m[0] < 0:
                continue  # (m, h) and (-m, h) have the same divisor modulus
            out.append(m)
    return out


def _omega_window(omega, h_max: int) -> tuple[list[int], dict[int, float]]:
    if isinstance(omega, FrequencySet):
        table = {m: omega.value(m) for m in omega.mode_set.modes if abs(m) <= h_max}
    elif isinstance(omega, dict):
        table = {m: float(w) for m, w in omega.items() if abs(m) <= h_max}
    else:
        raise TypeError("omega must be a FrequencySet or a mode -> frequency mapping")
    if not table:
        raise ValueError("no frequencies inside the enumeration window")
    return sorted(table), table


def enumeration_size(omega, b: NRBounds, kind: str = "strong") -> int:
    """Number of (q, m, h) tuples a certification run will inspect."""
    window, _ = _omega_window(omega, b.h_max)
    total = 0
    for q in range(1, b.q_max + 1):
        total += len(_m_patterns(q, b.m1_max, kind == "strong")) * math.comb(len(window), q)
    return total


def check_certificate(omega, b: NRBounds, kind: str, alpha, s_star) -> None:
    """Raise ValueError unless kind's exponent (alpha strong, s_star weak) is finite
    and positive and the enumeration holds a tuple; BudgetError past _MAX_TUPLES."""
    check_positive(**({"alpha": alpha} if kind == "strong" else {"s_star": s_star}))
    size = enumeration_size(omega, b, kind)
    if size > _MAX_TUPLES:
        raise BudgetError("enumeration budget exceeded; shrink NRBounds")
    if size == 0:
        raise ValueError("no tuple to check: a zero-sum m needs q >= 2 and |m|_1 >= 2")


def _certify(omega, b: NRBounds, *, kind: str, alpha: float | None,
             s_star: float | None) -> NRCertificate:
    check_certificate(omega, b, kind, alpha, s_star)
    window, table = _omega_window(omega, b.h_max)
    wvals = np.array([table[h] for h in window])
    jh = np.array([japanese(h) for h in window])
    fitted = math.inf
    worst = None
    violations = []
    n_checked = 0
    for q in range(1, b.q_max + 1):
        combos = np.array(list(combinations(range(len(window)), q)), dtype=int)
        if combos.size == 0:
            continue
        Wh = wvals[combos]                    # (n, q)
        Jh = jh[combos]
        min_jh = Jh.min(axis=1)
        prod_pen = np.prod(Jh ** -4.0, axis=1)
        for m in _m_patterns(q, b.m1_max, kind == "strong"):
            marr = np.array(m, dtype=float)
            x = Wh @ marr                     # sum m_j w_{h_j}
            n_checked += x.size
            if kind == "weak":
                a_cap = np.minimum(b.a_max, np.floor(1.0 + np.abs(Wh) @ np.abs(marr)))
                a_best = np.clip(np.rint(-x), -a_cap, a_cap)
                div = np.abs(x + a_best)
                rhs = (min_jh ** -s_star) * np.prod(np.abs(marr) ** -4.0) * prod_pen
            else:
                a_best = np.zeros_like(x)
                div = np.abs(x)
                rhs = (2.0 * min_jh) ** (-np.exp(alpha * np.abs(marr).sum()))
            ratio = div / rhs
            i = int(np.argmin(ratio))
            if ratio[i] < fitted:
                fitted = float(ratio[i])
                worst = {"q": q, "m": list(m),
                         "h": [window[j] for j in combos[i]],
                         "a": int(a_best[i]), "divisor": float(div[i]),
                         "rhs_factor": float(rhs[i])}
            for iz in np.flatnonzero(div == 0.0):
                violations.append({"q": q, "m": list(m),
                                   "h": [window[j] for j in combos[int(iz)]],
                                   "a": int(a_best[int(iz)])})
    if violations:
        fitted = 0.0
    return NRCertificate(kind=kind, fitted=fitted, alpha=alpha, s_star=s_star,
                         bounds=b, n_checked=n_checked, worst_case=worst,
                         violations=violations)


def certify_weak(omega, b: NRBounds, s_star: float) -> NRCertificate:
    """Fit the largest gamma of the weak non-resonance inequality over NRBounds."""
    if b.a_max < 1:
        b = NRBounds(b.q_max, b.m1_max, b.h_max, a_max=10 ** 9)
    return _certify(omega, b, kind="weak", alpha=None, s_star=s_star)


def certify_strong(omega, b: NRBounds, alpha: float) -> NRCertificate:
    """Fit the largest rho of the strong non-resonance inequality over NRBounds."""
    return _certify(omega, b, kind="strong", alpha=alpha, s_star=None)


def recompute_worst_case(cert: NRCertificate, omega) -> float:
    """Re-evaluate the certificate's minimizing tuple; reproduces `fitted`."""
    if cert.worst_case is None:
        raise ValueError("certificate has no worst case")
    _, table = _omega_window(omega, cert.bounds.h_max)
    wc = cert.worst_case
    x = sum(mj * table[hj] for mj, hj in zip(wc["m"], wc["h"]))
    div = abs(x + wc["a"])
    if cert.kind == "weak":
        rhs = (min(japanese(h) for h in wc["h"]) ** -cert.s_star
               * math.prod(abs(mj) ** -4.0 for mj in wc["m"])
               * math.prod(japanese(h) ** -4.0 for h in wc["h"]))
    else:
        m1 = sum(abs(mj) for mj in wc["m"])
        rhs = (2.0 * min(japanese(h) for h in wc["h"])) ** (-math.exp(cert.alpha * m1))
    return div / rhs


# ------------------------------------------------------------------ bootstrap


@dataclass
class QStarReport:
    q_star: int
    thresholds: list[dict]
    gronwall_bounds: list[dict]
    triangle_factor_ok: bool | None


def qstar_reduce(omega, m, h, gamma: float, B: float, s_star: float) -> QStarReport:
    """Largest index q* such that the head of the frequency combination cannot
    be dominated by its tail, with the discrete-Gronwall growth bound on <h_p>
    and (when q* < q) the numeric check of the triangle-inequality reduction
    to half of the head divisor.
    """
    _, table = _omega_window(omega, max(abs(hj) for hj in h))
    h = list(h)
    m = list(m)
    jh = [japanese(hj) for hj in h]
    if any(a > b for a, b in zip(jh, jh[1:])):
        raise ValueError("h must be sorted by <h_j>")
    sup_b = max(abs(table[k] - k * k) * japanese(k) ** s_star for k in table)
    if not B >= sup_b:
        raise ValueError(f"B={B} is below sup_k |w_k - k^2|<k>^{s_star} = {sup_b:.6g}")
    q = len(h)
    thresholds = []
    q_star = q
    for p in range(2, q + 1):
        tail = B * sum(abs(m[j]) * jh[j] ** -s_star for j in range(p - 1, q))
        head = (0.5 * gamma * jh[0] ** -s_star
                * math.prod(abs(m[j]) ** -4.0 * jh[j] ** -4.0 for j in range(p - 1)))
        ok = tail >= head
        thresholds.append({"p": p, "tail": tail, "head": head, "holds": ok})
        if not ok:
            q_star = p - 1
            break
    m1 = sum(abs(mj) for mj in m)
    C = (2.0 * B / gamma) ** (1.0 / s_star)
    log_base = math.log(C) + 4.0 * q_star / s_star * math.log(m1) + math.log(jh[0])
    gronwall = []
    for p in range(2, q_star + 1):
        log_bound = math.exp(4.0 * (p - 1) / s_star) * log_base
        gronwall.append({"p": p, "jh_p": jh[p - 1], "log_bound": log_bound,
                         "holds": math.log(jh[p - 1]) <= log_bound})
    triangle_ok = None
    if q_star < q:
        full = abs(sum(m[j] * table[h[j]] for j in range(q)))
        head_div = abs(sum(m[j] * h[j] ** 2 for j in range(q_star, q))
                       + sum(m[j] * table[h[j]] for j in range(q_star)))
        triangle_ok = full >= 0.5 * head_div
    return QStarReport(q_star=q_star, thresholds=thresholds,
                       gronwall_bounds=gronwall, triangle_factor_ok=triangle_ok)
