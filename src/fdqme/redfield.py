"""Time-local master equations with time-dependent induced rates.

The time-local (Born-Redfield style) generator is the running integral of the
memory kernel against the free back-rotation, L2(t) = int_0^t K(s) e^{-Ls s}
ds.  Because every kernel entry is a sum of decaying exponentials the
integral is analytic, and freezing it at t -> infinity gives the
Born-Markov generator.  Unlike the frequency-domain route these generators
erase the history of the system state, which shifts the non-Markovian side
peak and, for the squeezed bath, can transiently break positivity.

Both trajectories start from the state prepared at t = 0, where the running
integral starts.  The Born-Redfield equation is linear, y' = A(t) y, so every
DOP853 stage, step, error estimate and dense-output coefficient is a 4x4
matrix that depends on (t, h) only: br_evolve builds them for a window of
equal steps in batched products and propagates y with one mat-vec per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from .baths import (
    SqueezedBathParams,
    ThermalBathParams,
    bogoliubov_params,
    effective_rates,
    kernel_modes,
)
from .fdme import Spectrum, make_spectrum
from .liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    VectorizedOperator,
    commutator_superop,
    lindblad_dissipator,
    squeeze_dissipator,
)

__all__ = [
    "Trajectory",
    "ThermalRates",
    "SqueezedRates",
    "br_rates_thermal",
    "br_rates_squeezed",
    "br_induced_generator",
    "bm_induced_generator",
    "free_liouvillian",
    "br_evolve",
    "bm_evolve",
    "br_correlator",
    "br_spectrum",
]

TRAJECTORY_TOL = 1e-8

_D_MINUS = lindblad_dissipator(SIGMA_MINUS).mat
_D_PLUS = lindblad_dissipator(SIGMA_PLUS).mat
_S_MINUS = squeeze_dissipator(SIGMA_MINUS).mat
_S_PLUS = squeeze_dissipator(SIGMA_PLUS).mat
_EXCITED_PROJ = SIGMA_PLUS @ SIGMA_MINUS
_GROUND_PROJ = SIGMA_MINUS @ SIGMA_PLUS


@dataclass(frozen=True)
class Trajectory:
    """Density-matrix history on a time grid, stored vectorized.

    Unit trace and Hermiticity are enforced at every step; positivity is
    deliberately not (its violation is a measured output of the time-local
    equations).
    """

    times: np.ndarray
    states: np.ndarray  # (n_times, 4)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.shape != (times.size, 4):
            raise ValueError(f"states shape {states.shape} does not match times")
        traces = states[:, 0] + states[:, 3]
        if np.abs(traces - 1.0).max() > TRAJECTORY_TOL:
            raise ValueError("trajectory loses unit trace beyond 1e-8")
        herm = np.abs(states[:, 1] - states[:, 2].conj()).max()
        herm = max(herm, np.abs(states[:, 0].imag).max(), np.abs(states[:, 3].imag).max())
        if herm > TRAJECTORY_TOL:
            raise ValueError("trajectory loses Hermiticity beyond 1e-8")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def state(self, k: int) -> VectorizedOperator:
        return VectorizedOperator(self.states[k])

    def purities(self) -> np.ndarray:
        mats = self.states.reshape(-1, 2, 2)
        return np.real(np.einsum("nij,nji->n", mats, mats))

    def excited_population(self) -> np.ndarray:
        return np.real(self.states[:, 3])


@dataclass(frozen=True)
class ThermalRates:
    """Time-dependent frequency shift and decay rate of the thermal bath.

    These multiply the fixed dissipator pattern -i d(t) [(n+1) s+s- - n s-s+, .]
    + g(t) ((n+1) D[s-] + n D[s+]); their t -> infinity limits times (2n+1)
    give the Markov-limit Lamb shift and linewidth.
    """

    delta_eff: np.ndarray
    gamma_eff: np.ndarray


@dataclass(frozen=True)
class SqueezedRates:
    """Time-dependent rates of the squeezed bath's five-generator split.

    gamma_mm multiplies the coherence-coupling term on sigma_minus and equals
    the conjugate of gamma_pp at all times.
    """

    gamma_mp: np.ndarray
    gamma_pm: np.ndarray
    gamma_mm: np.ndarray
    gamma_pp: np.ndarray
    delta_pm: np.ndarray
    delta_mp: np.ndarray


def _ramp(kappa: float, nu, t):
    """int_0^t exp((-kappa + i nu) s) ds, vectorized over both arguments."""
    nu = np.asarray(nu, dtype=float)
    t = np.asarray(t, dtype=float)
    return (1.0 - np.exp((-kappa + 1j * nu) * t)) / (kappa - 1j * nu)


def br_rates_thermal(p: ThermalBathParams, t) -> ThermalRates:
    """Running-integral rates of the thermal bath; both vanish at t = 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("rates are defined for t >= 0")
    e = p.g**2 * _ramp(p.kappa, -p.delta, t)
    return ThermalRates(delta_eff=-np.imag(e), gamma_eff=np.real(e))


def br_rates_squeezed(
    p: SqueezedBathParams, t, include_sum_frequency: bool = False
) -> SqueezedRates:
    """Running-integral rates of the squeezed bath.

    Sum-frequency contributions are dropped by default; including them folds
    the rapidly rotating pole at the qubit-cavity sum frequency into the same
    rate pattern.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("rates are defined for t >= 0")
    b = bogoliubov_params(p)
    mbc = np.conj(b.mbar)
    e_diff = _ramp(p.kappa, -b.delta_diff, t)
    z_mp = ((b.nbar + 1) * b.g1**2 + mbc * b.g1 * b.g2) * e_diff
    z_pm = (b.nbar * b.g1**2 + mbc * b.g1 * b.g2) * e_diff
    gamma_pp = (mbc * b.g2**2 + 0.5 * (2 * b.nbar + 1) * b.g1 * b.g2) * e_diff
    if include_sum_frequency:
        e_sum = _ramp(p.kappa, -b.sigma_sum, t)
        z_mp = z_mp + (b.g1 * b.g2 * b.mbar + b.g2**2 * b.nbar) * e_sum
        z_pm = z_pm + (b.g1 * b.g2 * b.mbar + b.g2**2 * (b.nbar + 1)) * e_sum
        gamma_pp = gamma_pp + (b.g1**2 * b.mbar + 0.5 * (2 * b.nbar + 1) * b.g1 * b.g2) * e_sum
    return SqueezedRates(
        gamma_mp=np.real(z_mp),
        gamma_pm=np.real(z_pm),
        gamma_mm=np.conj(gamma_pp),
        gamma_pp=gamma_pp,
        delta_pm=-np.imag(z_mp),
        delta_mp=-np.imag(z_pm),
    )


def rates_generator_thermal(p: ThermalBathParams, rates: ThermalRates) -> np.ndarray:
    """Assemble the induced generator from thermal rates."""
    h = (p.nbar + 1) * _EXCITED_PROJ - p.nbar * _GROUND_PROJ
    comm = commutator_superop(h).mat
    diss = (p.nbar + 1) * _D_MINUS + p.nbar * _D_PLUS
    return float(rates.delta_eff) * comm + float(rates.gamma_eff) * diss


def rates_generator_squeezed(rates: SqueezedRates) -> np.ndarray:
    """Assemble the induced generator from squeezed rates."""
    h = float(rates.delta_pm) * _EXCITED_PROJ - float(rates.delta_mp) * _GROUND_PROJ
    gen = commutator_superop(h).mat
    gen = gen + float(np.real(rates.gamma_mp)) * _D_MINUS + float(np.real(rates.gamma_pm)) * _D_PLUS
    gen = gen + complex(rates.gamma_mm) * _S_MINUS + complex(rates.gamma_pp) * _S_PLUS
    return gen


def _column_modes(p, include_sum_frequency):
    """Mode table plus the frequency of each (mode, column) pair under e^{-Ls s}."""
    modes = kernel_modes(p, include_sum_frequency)
    # columns rotate with the free phases (0, -w, +w, 0) under e^{-Ls s}
    nus = modes.mus[:, None] + np.array([0.0, -modes.omega_ref, modes.omega_ref, 0.0])
    return modes, nus


def br_induced_generator(p, t: float, include_sum_frequency: bool = False) -> np.ndarray:
    """Induced generator as the running kernel integral, mode by mode.

    Equals the closed-form rate decomposition; kept separate so the two
    constructions can be checked against each other.
    """
    modes, nus = _column_modes(p, include_sum_frequency)
    return np.einsum("kij,kj->ij", modes.coef, _ramp(modes.kappa, nus, float(t)))


def bm_induced_generator(p, include_sum_frequency: bool = False) -> np.ndarray:
    """Markov-limit induced generator (running integral frozen at infinity)."""
    modes, nus = _column_modes(p, include_sum_frequency)
    return np.einsum("kij,kj->ij", modes.coef, 1.0 / (modes.kappa - 1j * nus))


def free_liouvillian(p) -> np.ndarray:
    """Free qubit Liouvillian diag(0, i w, -i w, 0) for either bath."""
    w = p.omega_q if isinstance(p, ThermalBathParams) else p.delta_q
    return commutator_superop(-(w / 2.0) * SIGMA_Z).mat


def _validate_initial(rho0_vec: np.ndarray):
    m = rho0_vec.reshape(2, 2)
    if abs(np.trace(m) - 1.0) > 1e-9 or np.abs(m - m.conj().T).max() > 1e-9:
        raise ValueError("initial state must be a unit-trace Hermitian density matrix")


def _dop853_stage_table():
    """Stage times and lower-triangular stage coefficients of DOP853.

    Rows 0-11 are the main stages, row 12 is the stage at t + h whose
    coefficients are the weights B (it evaluates the new state), and rows
    13-15 are the extra stages of the 7th-order dense output.
    """
    n = DOP853.n_stages
    coef = np.zeros((16, 16))
    coef[:n, :n] = DOP853.A
    coef[n, :n] = DOP853.B
    coef[n + 1:] = DOP853.A_EXTRA
    return np.concatenate([DOP853.C, [1.0], DOP853.C_EXTRA]), coef


_STAGE_C, _STAGE_A = _dop853_stage_table()
_EYE = np.eye(4).reshape(16)
_RTOL, _ATOL = 1e-10, 1e-12
# speculative windows of equal steps: doubled after a fully accepted window,
# halved after a rejection
_WINDOW_MIN, _WINDOW_MAX = 4, 64


def _rms(v) -> float:
    return float(np.linalg.norm(v)) / np.sqrt(v.size)


def _first_step(generator, y0, t_end) -> float:
    """Starting step for an order-7 error estimate (Hairer, Norsett & Wanner, II.4)."""
    scale = _ATOL + np.abs(y0) * _RTOL
    f0 = generator(np.array(0.0)) @ y0
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((generator(np.array(h0)) @ (y0 + h0 * f0) - f0) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)


def _window(generator, y, edges):
    """DOP853 on consecutive steps edges[w] -> edges[w+1] of y' = A(t) y.

    For a linear equation every stage is a matrix M_s with k_s = M_s y, so the
    stages of all steps are batched (n, 16, 4, 4) products and only the
    propagation y_{w+1} = P_w y_w is sequential.  Returns the states at the
    edges, the error norm of each step (inf where not finite) and the
    dense-output coefficients (n, 7, 4).
    """
    h = np.diff(edges)[:, None]
    a_t = generator(edges[:-1, None] + h * _STAGE_C)  # (n, 16, 4, 4)
    mats = np.empty(a_t.shape[:2] + (16,), dtype=complex)  # stage matrices, flattened
    mats[:, 0] = a_t[:, 0].reshape(-1, 16)
    for s in range(1, 16):
        step = (_EYE + h * (_STAGE_A[s, :s] @ mats[:, :s])).reshape(-1, 4, 4)
        if s == DOP853.n_stages:  # the stage at t + h: its step matrix maps y to y_new
            prop = step
        mats[:, s] = (a_t[:, s] @ step).reshape(-1, 16)
    ys = np.empty((len(h) + 1, 4), dtype=complex)
    ys[0] = y
    for w, pw in enumerate(prop):
        ys[w + 1] = pw @ ys[w]
    k = (mats.reshape(-1, 16, 4, 4) @ ys[:-1, None, :, None])[..., 0]  # stage vectors (n, 16, 4)
    scale = _ATOL + np.maximum(np.abs(ys[:-1]), np.abs(ys[1:])) * _RTOL
    e5 = (np.abs((DOP853.E5 @ k[:, :13]) / scale) ** 2).sum(axis=1)
    e3 = (np.abs((DOP853.E3 @ k[:, :13]) / scale) ** 2).sum(axis=1)
    err = np.where(e5 + e3 == 0, 0.0, h[:, 0] * e5 / np.sqrt((e5 + 0.01 * e3) * 4))
    err[~(np.isfinite(err) & np.isfinite(ys[1:]).all(axis=1))] = np.inf
    dy = ys[1:] - ys[:-1]
    f0, f1 = k[:, 0], k[:, DOP853.n_stages]
    dense = np.concatenate(
        [dy[:, None], (h * f0 - dy)[:, None], (2 * dy - h * (f1 + f0))[:, None],
         h[:, :, None] * (DOP853.D @ k)],
        axis=1,
    )
    return ys, err, dense


def _dense_weights(x):
    """Weights of the seven DOP853 dense-output coefficients at fractions x of a step."""
    x, u = x[:, None], 1.0 - x[:, None]
    return x ** np.array([1, 1, 2, 2, 3, 3, 4]) * u ** np.array([0, 1, 1, 2, 2, 3, 3])


def _integrate_linear(generator, y0, t_out) -> np.ndarray:
    """States of y' = A(t) y, y(0) = y0, at the sorted nonnegative times t_out.

    Adaptive DOP853 with DOP853's step control (safety 0.9, factor in
    [0.2, 10], exponent -1/8, no growth right after a rejection) applied to
    windows of equal steps; a step is accepted when it and every step before
    it in its window pass the error test.  A non-finite error estimate is a
    rejection, so a diverging generator ends in the step-size underflow error.
    """
    states = np.empty((t_out.size, 4), dtype=complex)
    states[t_out == 0.0] = y0
    t, y, t_end = 0.0, y0, float(t_out[-1])
    n_window, capped = _WINDOW_MIN, False
    # rejected speculative steps may overflow; their results are discarded
    with np.errstate(all="ignore"):
        h = _first_step(generator, y0, t_end) if t_end > 0 else 0.0
        while t < t_end:
            if not h >= 10 * np.spacing(t):
                raise RuntimeError(f"integration failed: step size {h:.3g} underflows at t = {t:.9g}")
            edges = t + h * np.arange(n_window + 1)
            n = min(n_window, int(np.searchsorted(edges, t_end)))
            edges = edges[: n + 1]
            edges[-1] = min(edges[-1], t_end)
            ys, err, dense = _window(generator, y, edges)
            n_ok = int(np.argmin(err < 1)) if np.any(err >= 1) else n
            lo, hi = np.searchsorted(t_out, edges[[0, n_ok]], side="right")
            if hi > lo:
                w = np.searchsorted(edges[1:], t_out[lo:hi])
                x = (t_out[lo:hi] - edges[w]) / (edges[w + 1] - edges[w])
                states[lo:hi] = ys[w] + np.einsum("oj,oji->oi", _dense_weights(x), dense[w])
            if n_ok == n:
                worst = err.max()
                factor = 10.0 if worst == 0 else min(10.0, 0.9 * worst ** -0.125)
                h *= min(1.0, factor) if capped else factor
                n_window, capped = min(2 * n_window, _WINDOW_MAX), False
            else:
                h *= max(0.2, 0.9 * err[n_ok] ** -0.125)
                n_window, capped = max(n_window // 2, _WINDOW_MIN), True
            t, y = edges[n_ok], ys[n_ok]
    return states


def br_evolve(p, rho0, t_grid, include_sum_frequency: bool = False) -> Trajectory:
    """Integrate the time-local equation with running rates.

    The state is prepared at t = 0, where the running rates start, and is
    reported at the (nonnegative, increasing) times of t_grid.  The equation
    is linear, y' = A(t) y with A(t) = G_inf - sum_k B_k e^{lambda_k t}, so
    DOP853 (relative tolerance 1e-10, absolute 1e-12) runs on batched 4x4
    step matrices; raises RuntimeError on step-size underflow.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(t_grid < 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be a 1-d array of increasing nonnegative times")
    rho0_vec = rho0.vec if isinstance(rho0, VectorizedOperator) else np.asarray(rho0, complex).reshape(-1)
    _validate_initial(rho0_vec)
    # L2(t) = sum over (mode, column) of E (1 - e^{lambda t}) with residue
    # E = coef / (kappa - i nu), so the generator is G_inf - sum E e^{lambda t}
    modes, nus = _column_modes(p, include_sum_frequency)
    residues = modes.coef / (modes.kappa - 1j * nus)[:, None, :]
    g_inf = free_liouvillian(p) + residues.sum(axis=0)
    mode, col = np.nonzero(np.any(residues != 0, axis=1))  # contributing pairs
    lam = -modes.kappa + 1j * nus[mode, col]
    basis = np.zeros((lam.size, 4, 4), dtype=complex)
    basis[np.arange(lam.size), :, col] = residues[mode, :, col]
    basis = basis.reshape(lam.size, 16)

    def generator(t):
        return g_inf - (np.exp(np.multiply.outer(t, lam)) @ basis).reshape(t.shape + (4, 4))

    states = _integrate_linear(generator, rho0_vec.astype(complex), t_grid)
    return Trajectory(times=t_grid, states=states)


def bm_evolve(p, rho0, t_grid, include_sum_frequency: bool = False) -> Trajectory:
    """Propagate under the constant Markov-limit generator (exact modal form)."""
    t_grid = np.asarray(t_grid, dtype=float)
    rho0_vec = rho0.vec if isinstance(rho0, VectorizedOperator) else np.asarray(rho0, complex).reshape(-1)
    _validate_initial(rho0_vec)
    gen = free_liouvillian(p) + bm_induced_generator(p, include_sum_frequency)
    lam, vmat = np.linalg.eig(gen)
    coef = np.linalg.solve(vmat, rho0_vec)
    states = (np.exp(np.outer(t_grid, lam)) * coef) @ vmat.T
    return Trajectory(times=t_grid, states=states)


def br_correlator(p: ThermalBathParams, tau) -> np.ndarray:
    """Normalized steady-state two-time correlator of the time-local solution.

    The exponent carries the free phase, the constant Markov-limit damping
    and shift, and a transient that decays at the cavity rate; its value at
    tau = 0 is exactly 1.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("correlator is defined for tau >= 0")
    pole = p.kappa + 1j * p.delta
    amp = (2 * p.nbar + 1) * p.g**2
    return np.exp(
        1j * p.omega_q * tau - amp * tau / pole + amp * (1.0 - np.exp(-pole * tau)) / pole**2
    )


def br_spectrum(p: ThermalBathParams, delta_grid, method: str = "closed-form") -> Spectrum:
    """Emission spectrum of the time-local solution.

    'closed-form' evaluates the first-order-in-g^2 expansion: a central
    Lorentzian at the Markov-limit shift plus a side Lorentzian and a Fano
    term displaced by exactly the bare detuning.  'correlator-fft' transforms
    the correlator numerically instead.  The first-order form can undershoot
    zero by parts in 1e-7 of the peak far in the wings, which is clipped.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    rates = effective_rates(p)
    de, ge = rates.delta_eff, rates.gamma_eff
    if method == "closed-form":
        denom = p.delta**2 + p.kappa**2
        a_lor = (de * p.delta - ge * p.kappa) / denom
        a_fano = (ge * p.delta + de * p.kappa) / denom
        x = delta_grid - de + p.delta
        wside = ge + p.kappa
        vals = (ge / np.pi) / ((delta_grid - de) ** 2 + ge**2)
        vals = vals + (a_lor * wside + a_fano * x) / (np.pi * (x**2 + wside**2))
        return make_spectrum(delta_grid, vals, normalize=True, clip_rel=1e-6)
    if method == "correlator-fft":
        tau_max = 14.0 / ge
        span = max(abs(delta_grid).max(), abs(p.delta) + 10 * p.kappa)
        dtau = np.pi / (8.0 * span)
        n = int(2 ** np.ceil(np.log2(tau_max / dtau)))
        tau = np.arange(n) * dtau
        envelope = br_correlator(p, tau) * np.exp(-1j * p.omega_q * tau)
        envelope[0] *= 0.5  # trapezoid end correction at tau = 0
        amp = np.fft.fft(envelope) * dtau
        freqs = 2 * np.pi * np.fft.fftfreq(n, d=dtau)  # fft exponent matches e^{-i delta tau}
        order = np.argsort(freqs)
        vals = np.interp(delta_grid, freqs[order], 2.0 * np.real(amp)[order])
        return make_spectrum(delta_grid, vals, normalize=True, clip_rel=1e-3)
    raise ValueError(f"unknown method {method!r}")
