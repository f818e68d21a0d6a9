"""Hamiltonian time integration of the truncated system and the experiments
built on it: truncation remainder, action-drift scaling, Strichartz-constant
scans, and the parameter planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flows, nf
from .errors import check_positive
# split_levels is not called here; perfbench/tracing.py wraps it on this module
from .poly import HomPoly, ModeSet, build_p6
from .spectral import SexticLevel0, japanese, split_levels, sup_norm

_TRACED = (split_levels,)
_FINE_FACTOR = 5        # remainder_scaling's fine window: _FINE_FACTOR times the window
_SCAN_ITERS = 600       # iterations of each strichartz_scan ascent


def _omega_from_z2(z2: HomPoly) -> np.ndarray:
    if z2.q != 1 or np.any(z2.idx_k != z2.idx_l):
        raise ValueError("z2 must be a diagonal quadratic")
    omega = np.zeros(z2.mode_set.size)
    omega[z2.idx_k[:, 0]] = 2.0 * z2.coef.real
    return omega


# ----------------------------------------------------------------- trajectory


@dataclass
class Trajectory:
    mode_set: ModeSet
    times: np.ndarray
    states: np.ndarray          # (n_samples, n_modes) complex
    energy: np.ndarray

    @property
    def actions(self) -> np.ndarray:    # |states|^2, (n_samples, n_modes)
        return np.abs(self.states) ** 2

    @property
    def norm_sq(self) -> np.ndarray:
        return self.actions.sum(axis=1)

    def norm_drift(self) -> float:
        """Max relative drift of ||u||^2 along the trajectory."""
        ref = self.norm_sq[0]
        return float(np.max(np.abs(self.norm_sq - ref)) / ref)

    def energy_drift(self) -> float:
        ref = self.energy[0]
        return float(np.max(np.abs(self.energy - ref)) / max(abs(ref), 1e-300))

    def to_csv(self, path):
        cols = ["t", "norm_sq", "H"] + [f"I_{m}" for m in self.mode_set.modes]
        data = np.column_stack([self.times, self.norm_sq, self.energy, self.actions])
        header = ",".join(cols)
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def integrate(z2: HomPoly, p6: HomPoly, u0: np.ndarray, T: float, dt: float,
              max_samples: int = 2048) -> Trajectory | list[Trajectory]:
    """Implicit-midpoint integration of i du/dt = grad(Z2 + P6)(u).

    u0 is one state (n,), giving a Trajectory, or a stack (B, n), giving a
    list of B trajectories advanced together by flows.steps with the
    diagonal omega of z2.  A Sextic (of build_p6 or sturm.p6_eigen_coeffs)
    evaluates its value and gradient by two dense products on its quadrature
    grid; any other polynomial uses the generic sparse kernels.  Norm and
    energy are recorded at u0 and at most max_samples (positive) later states.
    T = 0 takes one step of size 0; flows.check_time rejects T < 0 and more
    than flows._MAX_STEPS steps.
    """
    n_steps = flows.check_time(T, dt)
    check_positive(max_samples=max_samples)
    ms = z2.mode_set
    omega = _omega_from_z2(z2)
    u0 = ms.state(u0, 2)

    grad = lambda u: omega * u + p6.gradient(u)
    energy = lambda u: 0.5 * float(np.sum(omega * np.abs(u) ** 2)) + float(p6(u))

    h = T / n_steps
    stride = max(1, math.ceil(n_steps / max_samples))
    times, states = [0.0], [u0.copy()]
    for step, u in enumerate(flows.steps(grad, u0, h, n_steps, omega), 1):
        if step % stride == 0 or step == n_steps:
            times.append(step * h)
            states.append(u)
    times, states = np.array(times), np.array(states)

    def trajectory(states):
        return Trajectory(mode_set=ms, times=times, states=states,
                          energy=np.array([energy(s) for s in states]))

    if u0.ndim == 1:
        return trajectory(states)
    return [trajectory(states[:, b]) for b in range(u0.shape[0])]


# ----------------------------------------------------------------- remainder


def remainder_g(u_fine: np.ndarray, fine_ms: ModeSet, M: int) -> np.ndarray:
    """Truncation remainder of the sextic term on the window [-M, M]:

        g = proj_M[ |u|^4 u - |proj_M u|^4 proj_M u ],

    computed by exact convolution powers on the fine window (build_p6's gradient).
    """
    Mf = fine_ms.M_param
    if fine_ms.modes != tuple(range(-Mf, Mf + 1)):
        raise ValueError("the fine window must be the symmetric window [-Mf, Mf]")
    if M >= Mf:
        raise ValueError("coarse window must be strictly inside the fine window")
    u_fine = fine_ms.state(u_fine)
    p6 = build_p6(fine_ms)
    u_cut = u_fine.copy()
    u_cut[np.abs(np.asarray(fine_ms.modes)) > M] = 0.0
    diff = p6.gradient(u_fine) - p6.gradient(u_cut)
    center = fine_ms.index(0)
    return diff[center - M: center + M + 1]


def sobolev_profile_state(M_fine: int, s: float, eps: float, seed: int) -> np.ndarray:
    """Random-phase state on [-M_fine, M_fine] with amplitudes <k>^(-s-1/2),
    scaled so the discrete H^s norm equals eps."""
    modes = np.arange(-M_fine, M_fine + 1)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(modes.size))
    amps = (1.0 + np.abs(modes)) ** (-s - 0.5)
    u = amps * phases
    hs = math.sqrt(float(np.sum((1.0 + np.abs(modes)) ** (2 * s) * np.abs(u) ** 2)))
    return u * (eps / hs)


def remainder_scaling(M_list, s: float, seed: int = 0) -> dict:
    """||g||_{l2} against M for one fixed spectral profile of unit H^s norm
    on the fine windows _FINE_FACTOR * M; returns the table and the fitted
    log-log slope.  The fit needs at least two window sizes M, distinct and
    at least 1, and a finite s."""
    check_sizes(M_list, 2)
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    rows = []
    M_top = max(M_list) * _FINE_FACTOR
    u_top = sobolev_profile_state(M_top, s, 1.0, seed)
    modes_top = np.arange(-M_top, M_top + 1)
    for M in M_list:
        Mf = _FINE_FACTOR * M
        sel = np.abs(modes_top) <= Mf
        u_fine = u_top[sel]
        g = remainder_g(u_fine, ModeSet.symmetric(Mf), M)
        rows.append({"M": int(M), "g_norm": float(np.linalg.norm(g))})
    logm = np.log([r["M"] for r in rows])
    logg = np.log([r["g_norm"] for r in rows])
    slope = float(np.polyfit(logm, logg, 1)[0])
    return {"s": s, "rows": rows, "slope": slope}


# --------------------------------------------------------------- action drift


@dataclass
class DriftRow:
    eps: float
    drift_raw: float
    drift_transformed: float | None
    norm_drift: float


@dataclass
class DriftResult:
    rows: list[DriftRow]
    exponent: float

    @property
    def transformed_no_worse(self) -> bool:
        return all(r.drift_transformed is None or r.drift_transformed <= r.drift_raw
                   for r in self.rows)


def check_drift(mode_set: ModeSet, k: int, eps_list, T: float, dt: float) -> None:
    """Raise ValueError unless the window holds mode k, the eps values are
    finite and positive, with at least two distinct ones, and T is positive
    (the drift exponent is a log-log fit of the drifts, all 0 at T = 0,
    against eps); flows.check_time."""
    mode_set.index(k)
    if not all(0 < e < math.inf for e in eps_list) or len(set(eps_list)) < 2:
        raise ValueError("eps must take at least two distinct finite positive values")
    if not T > 0:
        raise ValueError("T must be positive")
    flows.check_time(T, dt)


def check_sizes(M_list, least: int) -> None:
    """Raise ValueError unless M_list holds at least least (1 or 2) window
    sizes, all at least 1 and distinct."""
    if len(M_list) < least:
        raise ValueError(f"at least {('one', 'two')[least - 1]} window size M needed")
    if min(M_list) < 1 or len(set(M_list)) < len(M_list):
        raise ValueError("window sizes M must be distinct and at least 1")


def check_scan(M_list, c6: float, multistart: int) -> None:
    """Raise ValueError unless there is a window size, the sizes are at least 1
    and distinct (the scan's exponents divide by log2 of the ratio of two
    sizes), c6 is finite and positive, and the ascent has at least one start."""
    check_sizes(M_list, 1)
    check_positive(c6=c6, multistart=multistart)


def action_drift(nf_result, z2: HomPoly, p6: HomPoly, k: int, eps_list, T: float,
                 dt: float, seed: int = 0, max_samples: int = 2048) -> DriftResult:
    """Max drift of the action |u_k|^2 over [0, T] for each eps, together
    with the drift of the transformed action |tau(u)_k|^2 on the same run
    (None without nf_result), and the log-log fitted exponent of the raw drift
    against eps.

    The sweep rescales one random initial direction, so the fitted exponent
    measures amplitude scaling alone and is not polluted by direction-to-
    direction variance of the near-resonant couplings.  All eps values
    advance together as one stack.
    """
    ms = z2.mode_set
    check_drift(ms, k, eps_list, T, dt)
    ki = ms.index(k)
    rng = np.random.default_rng([seed, 0])
    shared = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    shared /= np.linalg.norm(shared)
    trajs = integrate(z2, p6, np.array([eps * shared for eps in eps_list]), T, dt,
                      max_samples=max_samples)
    transformed = [None] * len(trajs)
    if nf_result is not None:
        # every stored sample of every trajectory through one stacked transform;
        # its rows flow on their own, so each equals the single-state transform
        v = nf.transform_state(np.concatenate([t.states for t in trajs]),
                               nf_result.generators, "forward")
        vk = np.abs(v[:, ki].reshape(len(trajs), -1)) ** 2
        transformed = np.max(np.abs(vk - vk[:, :1]), axis=1).tolist()
    rows = []
    for eps, traj, tr in zip(eps_list, trajs, transformed):
        action = traj.actions[:, ki]
        raw = float(np.max(np.abs(action - action[0])))
        rows.append(DriftRow(eps=float(eps), drift_raw=raw,
                             drift_transformed=tr,
                             norm_drift=traj.norm_drift()))
    exponent = float(np.polyfit(np.log([r.eps for r in rows]),
                                np.log([r.drift_raw for r in rows]), 1)[0])
    return DriftResult(rows=rows, exponent=exponent)


# ------------------------------------------------------------ Strichartz scan


@dataclass
class ScanRow:
    M: int
    lower: float
    upper: float
    dominant_level: int


@dataclass
class ScanResult:
    rows: list[ScanRow]
    # log2(S(M')/S(M)) / log2(M'/M) between consecutive windows M < M', on the
    # witnessed lower values
    exponents: list[float]

    def monotone(self) -> bool:
        vals = [r.lower for r in self.rows]
        return all(b >= a for a, b in zip(vals, vals[1:]))


def strichartz_scan(M_list, c6: float = 1.0, multistart: int = 48,
                    seed: int = 0) -> ScanResult:
    """Level-sup norm S(M) of the sextic modulus for each window size; being
    a norm of the modulus, it does not depend on the sign of the sextic.

    The witnessed lower bound comes from ascent on spectral level a = 0, with
    the previous window's witness embedded among the starts so that S is
    non-decreasing by construction.  The ascent lists none of the sextic's
    keys: it runs on cells, as sup_norm does for a spectral.SexticLevel0.  The
    window's sorted triples, grouped by momentum p and energy e = sum m^2,
    give A_{p,e}(y), the sum of y_k1 y_k2 y_k3 over the ordered triples of
    cell (p, e), and level 0 at y is (c6/6) sum A_{p,e}^2.  The upper bound
    is level 0's l1 norm, counted: with C_{p,e} the number of ordered
    triples of cell (p, e), it is (c6/6) sum C_{p,e}^2.  It is the largest
    of any level: level a counts sum C_{p,e} C_{p,e-a} ordered pairs, which
    Cauchy-Schwarz bounds strictly by the level-0 count.  sup_norm's entry
    budget, spectral._MAX_ENTRIES, admits M = 32 and refuses M = 64.
    """
    check_scan(M_list, c6, multistart)
    rows = []
    prev_witness = None
    for M in sorted(M_list):
        ms = ModeSet.symmetric(M)
        extra = None
        if prev_witness is not None:
            embedded = np.zeros(ms.size)
            off = (ms.size - prev_witness.size) // 2
            embedded[off: off + prev_witness.size] = prev_witness
            extra = embedded[None, :]
        enc = sup_norm(SexticLevel0(ms, c6), multistart=multistart, iters=_SCAN_ITERS,
                       seed=seed, extra_starts=extra)
        rows.append(ScanRow(M=M, lower=enc.lower, upper=enc.upper, dominant_level=0))
        prev_witness = enc.witness
    exponents = []
    for a, b in zip(rows, rows[1:]):
        exponents.append(float(math.log2(b.lower / a.lower) / math.log2(b.M / a.M)))
    return ScanResult(rows=rows, exponents=exponents)


# -------------------------------------------------------------------- planner


@dataclass
class Plan:
    eps: float
    nu: float
    alpha: float
    beta_s: float
    rho: float
    kappa: float
    c: float
    k: int
    upsilon: float
    alpha_nu: float
    r_star: float
    r: int
    gamma: float
    M: int
    T_eps: float
    eps_r: float
    eta_r: float
    feasible_eps: bool
    feasible_mode: bool

    @property
    def feasible(self) -> bool:
        return self.feasible_eps and self.feasible_mode

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__} | {
            "feasible": self.feasible}


def gamma_from_certificate(rho: float, alpha: float, k: int, r: int) -> float:
    """Resonance cutoff gamma = rho * (2<k>)^{-e^{alpha r}} of the scaling
    recipe, from a fitted strong-non-resonance constant."""
    check_positive(rho=rho)
    return rho * (2.0 * japanese(k)) ** (-math.exp(alpha * r))


def plan_parameters(eps: float, nu: float, alpha: float, beta_s: float = 1.0,
                    rho: float = 1.0, kappa: float = 1.0, c: float = 1.0,
                    k: int = 1) -> Plan:
    """Resolve the experiment parameters from the scaling recipe:

        upsilon = (nu/16) e^{-3 alpha},
        alpha_nu = alpha + (1/3) log(16/nu),
        r_* = (1/(2 alpha_nu)) log(log(1/eps) / log(2<k>)),
        r = smallest integer >= max(3, r_*),
        gamma = rho (2<k>)^{-e^{alpha r}},
        T_eps = eps^{-r/(30 beta_s)},      M = ceil(eps^{-r/12}),
        eta_r = kappa e^{-(c/2) log M / log log M} (2<k>)^{-e^{alpha r}/2},

    with eps_r reported as eta_r / 2 (the planner's certified lower bound).
    Feasibility flags check eps <= eta_r and 2<k> < eps^{-upsilon}.
    """
    if not (0.0 < nu <= 2.0):
        raise ValueError("nu must lie in (0, 2]")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    check_positive(alpha=alpha, beta_s=beta_s, rho=rho, kappa=kappa)
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    upsilon = (nu / 16.0) * math.exp(-3.0 * alpha)
    alpha_nu = alpha + math.log(16.0 / nu) / 3.0
    two_k = 2.0 * japanese(k)
    r_star = math.log(math.log(1.0 / eps) / math.log(two_k)) / (2.0 * alpha_nu)
    r = max(3, math.ceil(r_star))
    gamma = gamma_from_certificate(rho, alpha, k, r)
    T_eps = eps ** (-r / (30.0 * beta_s))
    M = max(1, math.ceil(eps ** (-r / 12.0)))
    if M > math.e:
        strich = math.exp(-0.5 * c * math.log(M) / math.log(math.log(M)))
    else:
        strich = 1.0
    eta_r = kappa * strich * two_k ** (-0.5 * math.exp(alpha * r))
    return Plan(eps=eps, nu=nu, alpha=alpha, beta_s=beta_s, rho=rho,
                kappa=kappa, c=c, k=k, upsilon=upsilon, alpha_nu=alpha_nu,
                r_star=r_star, r=r, gamma=gamma, M=M, T_eps=T_eps,
                eps_r=eta_r / 2.0, eta_r=eta_r,
                feasible_eps=eps <= eta_r,
                feasible_mode=two_k < eps ** (-upsilon))
