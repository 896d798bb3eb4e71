"""Time-local master equations with time-dependent induced rates.

The time-local (Born-Redfield style) generator is the running integral of the
memory kernel against the free back-rotation, L2(t) = int_0^t K(s) e^{-Ls s}
ds.  Because every kernel entry is a sum of decaying exponentials the
integral is analytic, and freezing it at t -> infinity gives the
Born-Markov generator.  Unlike the frequency-domain route these generators
erase the history of the system state, which shifts the non-Markovian side
peak and, for the squeezed bath, can transiently break positivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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


def br_evolve(p, rho0, t_grid, include_sum_frequency: bool = False) -> Trajectory:
    """Integrate the time-local equation with running rates.

    Adaptive high-order Runge-Kutta with relative tolerance 1e-10 and
    absolute 1e-12; raises on step-size underflow.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    rho0_vec = rho0.vec if isinstance(rho0, VectorizedOperator) else np.asarray(rho0, complex).reshape(-1)
    _validate_initial(rho0_vec)
    # L2(t) = sum over (mode, column) of E (1 - e^{lambda t}) with residue
    # E = coef / (kappa - i nu), so the generator is G_inf - sum E e^{lambda t}
    modes, nus = _column_modes(p, include_sum_frequency)
    residues = modes.coef / (modes.kappa - 1j * nus)[:, None, :]
    g_inf = free_liouvillian(p) + residues.sum(axis=0)
    live = np.any(residues != 0, axis=1)  # (mode, column) pairs that contribute
    lam = (-modes.kappa + 1j * nus)[live]
    cols = np.nonzero(live)[1]
    e_mat = residues.transpose(1, 0, 2)[:, live]

    def rhs(t, y):
        return g_inf @ y - e_mat @ (np.exp(lam * t) * y[cols])

    sol = solve_ivp(
        rhs,
        (float(t_grid[0]), float(t_grid[-1])),
        rho0_vec.astype(complex),
        t_eval=t_grid,
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return Trajectory(times=t_grid, states=sol.y.T)


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
