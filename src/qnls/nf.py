"""Birkhoff normal form engine.

Starting from H = Z2 + P with P balanced of half-degree p, each step solves a
cohomological equation that removes the monomials of the lowest unnormalized
degree whose small divisor exceeds gamma, and conjugates the series by the
time-one flow of the generator.  The resulting expansion

    H o tau^{-1} = Z2 + sum_j Q^(2j)

has every Q^(2j), j <= r, gamma-resonant, with tail bounds checked per degree
against eps_r^{-2(j-p)} * ||P||_H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import ClassVar

import numpy as np

from .errors import BudgetError, check_positive
from . import flows
from .poly import HomPoly, ModeSet, coeff_close, complex_div, complex_mul, poisson
from .spectral import FrequencySet, NormEnclosure, check_lower_levels, japanese, norm_h

# ordered multiset pairs the divisor tables of one scan may hold in total
_MAX_PAIRS = 200_000_000
_FLOW_DT = 0.05         # step of the generator flows of transform_state


@dataclass
class NormalFormConfig:
    # fixed by the paper: P's half-degree, A and B_p of eps_r
    p: ClassVar[int] = 3
    A: ClassVar[float] = 2.0
    B_p: ClassVar[float] = 100.0
    r: int
    gamma: float
    J_max: int | None = None
    norm_multistart: int = 16
    norm_lower_levels: object = "all"   # or an int: ascent only on the top-K levels
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.r < self.p - 1:
            raise ValueError("order r must be at least p - 1")
        if self.J_max is None:
            self.J_max = 2 * self.r
        if self.J_max < self.r + 1:
            raise ValueError("J_max must be at least r + 1")
        check_positive(norm_multistart=self.norm_multistart)
        check_lower_levels(self.norm_lower_levels)


@dataclass
class TailEntry:
    j: int
    norm_upper: float
    bound: float
    violated: bool


@dataclass
class NormalFormResult:
    z2: HomPoly
    resonant: dict[int, HomPoly]
    generators: list[HomPoly]
    eps_r: float
    norm_p: NormEnclosure
    tail_report: list[TailEntry]
    truncated_degrees: list[int]

    @property
    def tail_ok(self) -> bool:
        return not any(e.violated for e in self.tail_report)

    def hamiltonian_value(self, u: np.ndarray) -> float:
        """Z2(u) + sum_j Q^(2j)(u) of the transformed expansion."""
        val = float(self.z2(u))
        for Q in self.resonant.values():
            val += float(Q(u))
        return val


def epsilon_r(cfg: NormalFormConfig, normP_H: float, omega: FrequencySet) -> float:
    """Radius (gamma / (A B_p r^5 <|w_f|> ||P||_H log<|w_i|>))^(1/(2p-2))."""
    check_positive(normP_H=normP_H)
    den = (cfg.A * cfg.B_p * cfg.r ** 5 * japanese(omega.frac_inf)
           * normP_H * math.log(japanese(omega.int_inf)))
    return (cfg.gamma / den) ** (1.0 / (2 * cfg.p - 2))


def ad_z2(P: HomPoly, omega: FrequencySet) -> HomPoly:
    """{Z2, P} computed exactly through the diagonal action i*Omega per key."""
    div = P.divisors(omega)
    keep = div != 0.0
    return P.restrict(keep, complex_mul(complex_mul(1j, div[keep]), P.coef[keep]))


def solve_cohomological(Q: HomPoly, omega: FrequencySet, gamma: float
                        ) -> tuple[HomPoly, HomPoly]:
    """Split Q into a generator and its gamma-resonant remainder.

    chi has coefficients Q_{k,l} / (i Omega(k,l)) on the keys with
    |Omega| >= gamma and q_res keeps the remaining keys unchanged, so that
    Q + {chi, Z2} = q_res holds coefficientwise.
    """
    if not Q.is_real:
        raise ValueError("cohomological equation expects a real-valued polynomial")
    div = Q.divisors(omega)
    remove = np.abs(div) >= gamma
    chi_p = Q.restrict(remove, complex_div(Q.coef[remove], complex_mul(1j, div[remove])),
                       is_real=True)
    res_p = Q.restrict(~remove, is_real=True)
    # verify Q + {chi, Z2} == q_res coefficientwise
    if not coeff_close(Q - ad_z2(chi_p, omega), res_p, ref=Q):
        raise AssertionError("cohomological identity failed")
    return chi_p, res_p


def lie_transform(z2_omega: FrequencySet, series: dict[int, HomPoly], chi: HomPoly,
                  j_max: int) -> tuple[dict[int, HomPoly], list[int]]:
    """Apply exp(ad_chi) to Z2 + sum_j series[j], collected by half-degree <= j_max.

    The {chi, Z2} term is evaluated exactly through the diagonal action.
    Returns the new series and the list of half-degrees at which nonzero
    brackets were truncated.
    """
    if chi.q < 2:
        raise ValueError("generator must have half-degree >= 2 to raise the degree")
    out: dict[int, HomPoly] = {}
    truncated: list[int] = []
    # (power n of ad_chi, term); {chi, Z2} = -{Z2, chi} is the n = 1 term of
    # the Z2 chain, whose n = 0 term Z2 stays outside the series
    chains = [(1, -1.0 * ad_z2(chi, z2_omega))] if len(chi) else []
    chains += [(0, series[j]) for j in sorted(series)]
    for n, term in chains:
        q = term.q
        while q <= j_max:
            if q > term.q:      # the next term of the chain is one more bracket
                term = poisson(chi, term)
                n += 1
            if not len(term):
                break
            scaled = term if n < 2 else term * (1.0 / math.factorial(n))
            out[q] = out[q] + scaled if q in out else scaled
            if not len(chi):
                break
            q += chi.q - 1
        else:
            truncated.append(q)
    return out, sorted(set(truncated))


@np.errstate(over="raise", invalid="raise")
def birkhoff(z2: HomPoly, P: HomPoly, omega: FrequencySet,
             cfg: NormalFormConfig) -> NormalFormResult:
    """Iterated normal form of H = Z2 + P up to order r.

    One step per target half-degree j' = p..r: the non-resonant part of the
    current Q^(2j') is removed by the generator of that degree and the series
    is pushed through the corresponding Lie transform.  A gamma at or above
    every divisor of a degree removes nothing there; that is a legitimate
    degenerate input, not an error.  Overflow and invalid arithmetic raise.
    """
    if not P.is_real:
        raise ValueError("the perturbation must be real-valued")
    if P.q != cfg.p:
        raise ValueError(f"perturbation half-degree {P.q} does not match p={cfg.p}")

    norm_p = norm_h(P, multistart=cfg.norm_multistart, seed=cfg.seed,
                    lower_levels=cfg.norm_lower_levels)
    eps = epsilon_r(cfg, norm_p.upper, omega)

    series: dict[int, HomPoly] = {P.q: P}
    generators: list[HomPoly] = []
    truncated: list[int] = []
    for jp in range(cfg.p, cfg.r + 1):
        Q = series.get(jp)
        if Q is None or not len(Q):
            generators.append(HomPoly(P.mode_set, jp, is_real=True))
            continue
        chi, q_res = solve_cohomological(Q, omega, cfg.gamma)
        generators.append(chi)
        if not len(chi):
            series[jp] = q_res
            continue
        series, trunc = lie_transform(omega, series, chi, cfg.J_max)
        truncated.extend(trunc)
        # the transform reproduces q_res at degree jp up to exact cancellation
        got = series.get(jp, HomPoly(P.mode_set, jp))
        if not coeff_close(got, q_res, ref=q_res):
            raise AssertionError("lie transform disagrees with the cohomological step")
        series[jp] = q_res

    # gamma-resonance is exact per key for every normalized degree
    for j in range(cfg.p, cfg.r + 1):
        if j in series and np.any(np.abs(series[j].divisors(omega)) >= cfg.gamma):
            raise AssertionError(f"degree {2 * j} kept a non-resonant key")

    tail = []
    for j in sorted(series):
        enc = norm_h(series[j], lower_levels=0)   # reads upper bounds only
        bound = eps ** (-2.0 * (j - cfg.p)) * norm_p.upper
        tail.append(TailEntry(j, enc.upper, bound, enc.upper > bound * (1 + 1e-9)))

    return NormalFormResult(z2=z2, resonant=series,
                            generators=generators, eps_r=eps, norm_p=norm_p,
                            tail_report=tail, truncated_degrees=sorted(set(truncated)))


def transform_state(u: np.ndarray, generators, direction: str = "forward") -> np.ndarray:
    """Apply tau (forward) or tau^{-1} (inverse) to a state (n,), or to each
    row of a stack (B, n): the rows flow on their own, so each equals the
    one-state transform bit for bit.

    forward composes the unit-time generator flows in construction order;
    inverse composes the time-(-1) flows in reverse order, each by flows.flow
    at the step _FLOW_DT.
    """
    if direction == "forward":
        gens, t = list(generators), 1.0
    elif direction == "inverse":
        gens, t = list(reversed(list(generators))), -1.0
    else:
        raise ValueError("direction must be 'forward' or 'inverse'")
    v = np.asarray(u, dtype=complex).copy()
    for chi in gens:
        if not len(chi):
            continue
        v = flows.flow(chi.gradient, v, t, _FLOW_DT)
    return v


# ------------------------------------------------------------ (k, r, gamma)


@dataclass
class KRGammaReport:
    pairs_checked: int = 0
    n_violations: int = 0           # every offending ordered pair, listed or not
    violations: list[tuple[tuple[int, ...], tuple[int, ...], float]] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.n_violations == 0


def _divisor_blocks(mode_set: ModeSet, omega: FrequencySet, k: int, r: int):
    """Tables of |Omega| between multisets of equal size q = 1..r.

    For each q the multisets of q modes are rows of sorted positions in
    mode_set; they are listed as rows of modes, with their frequency sums
    (added left to right) and their multiplicities of mode k, which need not
    lie in the window.  The table |sums[i] - sums[j]| is yielded in blocks of
    4096 rows as (multis, sums, mult_k, block, diff).  BudgetError is raised
    before any table whose pairs would take the running total past _MAX_PAIRS.
    """
    modes, w = np.array(mode_set.modes), omega.omega
    pairs = 0
    for q in range(1, r + 1):
        n = math.comb(mode_set.size + q - 1, q)
        pairs += n * n
        if pairs > _MAX_PAIRS:
            raise BudgetError(f"divisor enumeration budget exceeded at half-degree {q}")
        rows = np.array(list(combinations_with_replacement(range(mode_set.size), q)))
        multis = modes[rows]
        sums = sum(w[rows.T])       # w[rows[:, 0]] + w[rows[:, 1]] + ...
        mult_k = (multis == k).sum(1)
        for i0 in range(0, n, 4096):
            block = slice(i0, min(i0 + 4096, n))
            yield multis, sums, mult_k, block, np.abs(sums[block, None] - sums[None, :])


def suggest_gamma(mode_set: ModeSet, omega: FrequencySet, k: int, r: int,
                  scope: str = "all") -> float:
    """A gamma guaranteed to pass check_krgamma on this truncation: half the
    smallest nonzero |Omega| over keys of half-degree <= r, capped at 0.999,
    found within check_krgamma's pair budget (BudgetError beyond it).

    The only scope, "all", keeps gamma below every nonzero divisor, so the
    resonant set is exactly the equal-multiset kernel and the generator's
    denominators are bounded below by the full spectral gap; it therefore
    does not depend on k.
    """
    if scope != "all":
        raise ValueError(f"unknown scope {scope!r}; the only scope is 'all'")
    best = math.inf
    for *_, diff in _divisor_blocks(mode_set, omega, k, r):
        diff[diff == 0.0] = np.inf
        best = min(best, float(diff.min()))
    return min(0.5 * best, 0.999)


def check_krgamma(mode_set: ModeSet, omega: FrequencySet, k: int, r: int,
                  gamma: float) -> KRGammaReport:
    """Search for gamma-resonant keys of half-degree <= r that fail to commute
    with |u_k|^2 (unequal multiplicity of mode k on the two sides).

    A report with no violations certifies (k, r, gamma) non-resonance on this
    truncation; it counts every offending pair and lists the first 200.
    """
    mode_set.index(k)      # ValueError unless the window holds k
    report = KRGammaReport()
    for multis, sums, mult_k, block, diff in _divisor_blocks(mode_set, omega, k, r):
        bad = (diff <= gamma) & (mult_k[block, None] != mult_k[None, :])
        report.n_violations += int(np.count_nonzero(bad))
        listed = 200 - len(report.violations)
        for bi, bj in zip(*(ix[:listed] for ix in np.nonzero(bad))):
            i, j = block.start + int(bi), int(bj)
            report.violations.append((tuple(multis[i].tolist()), tuple(multis[j].tolist()),
                                      float(sums[i] - sums[j])))
        report.pairs_checked += diff.size
    return report
