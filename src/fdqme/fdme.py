"""Frequency-domain master equation: propagator, steady state, spectra.

The master equation with memory is algebraic in the frequency domain: the
transformed state is U[omega] applied to the initial state, with
U[omega] = (i omega I - L0 - K[omega])^{-1}.  The steady state follows from
the final value theorem, and the steady-state emission spectrum is a single
resolvent contraction per frequency, with no two-time correlator needed.

Because every kernel used here is a finite sum of decaying exponentials, the
formal inverse transform along the shifted contour (omega - i eps) can be
evaluated exactly: the memory term is equivalent to a small set of auxiliary
linear modes, and the contour integral equals the modal expansion of that
embedded linear system.  A fixed deformed (Talbot-style) contour is not
usable here because the integrand has poles at the qubit frequency far up
the imaginary axis of the Laplace variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .baths import (
    KernelModel,
    SqueezedBathParams,
    ThermalBathParams,
    effective_rates,
    kernel_model,
)
from .liouville import (
    SIGMA_Z,
    VectorizedOperator,
    commutator_superop,
    left_multiplier,
    trace_dual,
)

__all__ = [
    "Spectrum",
    "FrequencyPropagator",
    "InversionAccuracyError",
    "thermal_propagator",
    "squeezed_propagator",
    "free_propagator",
    "propagate",
    "steady_state",
    "emission_spectrum",
    "inverse_transform",
    "purity",
]

NEGATIVE_CLIP_REL = 1e-12
RESIDUAL_TOL = 1e-10


class InversionAccuracyError(RuntimeError):
    """Raised when the time-domain reconstruction misses its accuracy budget."""


@dataclass(frozen=True)
class Spectrum:
    """Emission density on a monotone frequency grid.

    ``norm`` records the numerical (trapezoid) area of the raw values before
    any normalization, so absolute intensities can be recovered.
    """

    grid: np.ndarray
    values: np.ndarray
    norm: float
    normalized: bool = False

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing with at least 2 points")
        if values.shape != grid.shape:
            raise ValueError("values and grid shapes differ")
        if np.any(values < 0):
            raise ValueError("spectrum values must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def area(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def make_spectrum(grid, values, normalize: bool = True, clip_rel: float = NEGATIVE_CLIP_REL) -> Spectrum:
    """Clip round-off negativity, optionally normalize to unit area.

    Negative values beyond ``clip_rel`` of the peak indicate a sign error in
    the kernel and raise instead of being hidden.
    """
    values = np.asarray(values, dtype=float)
    peak = values.max() if values.size else 0.0
    if peak <= 0:
        raise ValueError("spectrum has no positive values")
    worst = values.min()
    if worst < -clip_rel * peak:
        raise ValueError(f"spectrum negativity {worst:.3e} exceeds {clip_rel:.1e} of peak {peak:.3e}")
    values = np.clip(values, 0.0, None)
    area = float(np.trapezoid(values, np.asarray(grid, dtype=float)))
    if normalize:
        if area <= 0:
            raise ValueError("cannot normalize zero-area spectrum")
        return Spectrum(grid=grid, values=values / area, norm=area, normalized=True)
    return Spectrum(grid=grid, values=values, norm=area, normalized=False)


@dataclass(frozen=True)
class FrequencyPropagator:
    """Resolvent data for one bath: free Liouvillian plus frequency kernel.

    ``frame`` is 'lab' for the thermal bath and 'rotating' for the squeezed
    one (pump frame); ``omega_ref`` is the qubit frequency in that frame,
    which fixes the detuning convention of ``kernel_freq``.  When
    ``markov_frozen_delta`` is set the kernel matrix is evaluated once at
    that detuning, which collapses the propagator to a constant-Liouvillian
    resolvent.
    """

    l0: np.ndarray
    kernel: KernelModel | None
    frame: str
    omega_ref: float
    rate_scale: float
    markov_frozen_delta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "l0", np.asarray(self.l0, dtype=complex))

    @property
    def kernel_freq(self) -> Callable:
        """Effective kernel as a function of detuning from ``omega_ref``."""
        if self.kernel is None:
            return lambda delta: np.zeros(np.shape(delta) + (4, 4), dtype=complex)
        if self.markov_frozen_delta is not None:
            frozen = self.kernel.freq_kernel(self.markov_frozen_delta)
            return lambda delta: np.broadcast_to(frozen, np.shape(delta) + (4, 4)).copy()
        return self.kernel.freq_kernel

    def _system_matrix(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        eye = np.eye(self.l0.shape[0], dtype=complex)
        k = self.kernel_freq(omega - self.omega_ref)
        return 1j * omega[..., None, None] * eye - self.l0 - k

    def _system_matrix_delta(self, delta) -> np.ndarray:
        """Resolvent matrix assembled in detuning form.

        i omega I - L0 is regrouped as i delta I + (i omega_ref I - L0) so no
        large-frequency cancellation contaminates the near-resonant entries;
        the parenthesis is exact because L0's diagonal carries omega_ref.
        """
        delta = np.asarray(delta, dtype=float)
        eye = np.eye(self.l0.shape[0], dtype=complex)
        shift = 1j * self.omega_ref * eye - self.l0
        k = self.kernel_freq(delta)
        return 1j * delta[..., None, None] * eye + shift - k


def thermal_propagator(p: ThermalBathParams, markov: bool = False) -> FrequencyPropagator:
    """Propagator of a qubit with a thermal-cavity kernel (lab frame)."""
    l0 = commutator_superop(-(p.omega_q / 2.0) * SIGMA_Z).mat
    return FrequencyPropagator(
        l0=l0,
        kernel=kernel_model(p),
        frame="lab",
        omega_ref=p.omega_q,
        rate_scale=effective_rates(p).gamma_eff,
        markov_frozen_delta=0.0 if markov else None,
    )


def squeezed_propagator(
    p: SqueezedBathParams, markov: bool = False, include_sum_frequency: bool = True
) -> FrequencyPropagator:
    """Propagator of a qubit with a squeezed-cavity kernel (pump frame)."""
    l0 = commutator_superop(-(p.delta_q / 2.0) * SIGMA_Z).mat
    return FrequencyPropagator(
        l0=l0,
        kernel=kernel_model(p, include_sum_frequency),
        frame="rotating",
        omega_ref=p.delta_q,
        rate_scale=effective_rates(p).gamma_eff,
        markov_frozen_delta=0.0 if markov else None,
    )


def free_propagator(l0, omega_ref: float = 0.0, rate_scale: float = 1.0) -> FrequencyPropagator:
    """Kernel-free propagator (pure free evolution), mostly for validation."""
    mat = l0.mat if hasattr(l0, "mat") else np.asarray(l0, dtype=complex)
    return FrequencyPropagator(
        l0=mat, kernel=None, frame="lab", omega_ref=omega_ref, rate_scale=rate_scale
    )


def _as_state_vector(rho) -> np.ndarray:
    if isinstance(rho, VectorizedOperator):
        return rho.vec
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim == 2:
        return arr.reshape(-1)
    return arr


def _validate_density(vec: np.ndarray, tol: float = 1e-9):
    d = int(round(np.sqrt(vec.size)))
    m = vec.reshape(d, d)
    if abs(np.trace(m) - 1.0) > tol:
        raise ValueError(f"state trace {np.trace(m):.12g} is not 1")
    if np.abs(m - m.conj().T).max() > tol:
        raise ValueError("state is not Hermitian")
    if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -tol:
        raise ValueError("state is not positive semidefinite")


def propagate(fp: FrequencyPropagator, omega: float) -> np.ndarray:
    """Frequency-domain propagator matrix U[omega] by dense solve.

    One Newton refinement pass keeps the residual ||M U - I|| below 1e-10
    even when the free-evolution entries dwarf the induced rates; a singular
    system (kappa = 0 or an exact pole) is reported with the frequency.
    """
    m = fp._system_matrix(float(omega))
    eye = np.eye(m.shape[0], dtype=complex)
    try:
        u = np.linalg.solve(m, eye)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"propagator is singular at omega={omega}") from exc
    u = u @ (2.0 * eye - m @ u)
    resid = np.linalg.norm(m @ u - eye)
    if not np.isfinite(resid) or resid > RESIDUAL_TOL:
        raise ValueError(f"propagator residual {resid:.3e} at omega={omega} exceeds {RESIDUAL_TOL}")
    return u


def steady_state(fp: FrequencyPropagator, rho0) -> VectorizedOperator:
    """Steady state via the final value theorem.

    Evaluates i omega U[omega] rho0 on a three-point ladder omega =
    {1e-3, 1e-4, 1e-5} x gamma_eff and extrapolates quadratically to
    omega -> 0.  The result is Hermitized and checked for unit trace; a
    mismatch between the quadratic and linear extrapolations signals a
    degenerate steady-state manifold.
    """
    rho0_vec = _as_state_vector(rho0)
    _validate_density(rho0_vec)
    generator = fp.l0 + fp.kernel_freq(0.0)
    lam = np.linalg.eigvals(generator)
    tol = 1e-12 * np.abs(lam).max()
    nonzero = np.abs(lam) >= tol
    if np.count_nonzero(~nonzero) != 1:
        raise ValueError("steady-state manifold is degenerate; final value is not unique")
    # keep the probe frequencies far below the slowest surviving mode
    omegas = np.array([1e-3, 1e-4, 1e-5]) * np.abs(lam[nonzero]).min()
    samples = []
    for w in omegas:
        m = fp._system_matrix(w)
        samples.append(1j * w * np.linalg.solve(m, rho0_vec))
    samples = np.array(samples)
    extrap = np.empty(samples.shape[1], dtype=complex)
    check = np.empty_like(extrap)
    for k in range(samples.shape[1]):
        extrap[k] = np.polyval(np.polyfit(omegas, samples[:, k], 2), 0.0)
        check[k] = np.polyval(np.polyfit(omegas[1:], samples[1:, k], 1), 0.0)
    if np.abs(extrap - check).max() > 1e-7:
        raise ValueError("final-value extrapolation did not converge (degenerate steady state?)")
    d = int(round(np.sqrt(extrap.size)))
    mat = extrap.reshape(d, d)
    mat = 0.5 * (mat + mat.conj().T)
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"steady state trace {tr:.12g} deviates from 1")
    return VectorizedOperator(mat.reshape(-1) / tr)


def emission_spectrum(
    fp: FrequencyPropagator,
    o,
    rho_ss,
    grid,
    normalize: bool = True,
) -> Spectrum:
    """Steady-state emission spectrum, twice the real part of <<o|U|o rho_ss>>.

    ``grid`` holds detunings from ``fp.omega_ref``.  The contraction is done
    with one batched 4x4 solve per grid point; round-off negativity is
    clipped and the result optionally normalized to unit area.  Taking twice
    the real part folds in the anti-time-ordered half of the correlator via
    a conjugation identity that holds for stationary states, so ``rho_ss``
    must be the steady state for the result to be a physical spectrum.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a nonempty strictly increasing 1-d array")
    o_arr = o.entries if hasattr(o, "entries") else np.asarray(o, dtype=complex)
    rho_vec = _as_state_vector(rho_ss)
    src = left_multiplier(o_arr) @ rho_vec
    dual = o_arr.reshape(-1).conj()
    m = fp._system_matrix_delta(grid)
    rhs = np.broadcast_to(src[:, None], grid.shape + (4, 1))
    x = np.linalg.solve(m, rhs)[..., 0]
    raw = 2.0 * np.real(x @ dual)
    return make_spectrum(grid, raw, normalize=normalize)


def _mode_embedding(fp: FrequencyPropagator):
    """Equivalent linear system of the memory kernel's exponential modes.

    Each distinct (source column, mode frequency) pair becomes one auxiliary
    variable obeying dz/dt = (-kappa + i mu) z + rho_j, and the kernel feeds
    c * z back into row i.  The Schur complement of the embedded generator
    reproduces K[omega] exactly, so its modal expansion IS the shifted-contour
    inverse transform.
    """
    if fp.kernel is None:
        return fp.l0, 4
    modes = fp.kernel.modes
    aux_keys = sorted(
        {(j, mu) for (_, j), mlist in modes.entries for _, mu in mlist},
        key=lambda km: (km[0], km[1]),
    )
    index = {key: 4 + k for k, key in enumerate(aux_keys)}
    n = 4 + len(aux_keys)
    gen = np.zeros((n, n), dtype=complex)
    gen[:4, :4] = fp.l0
    for (j, mu), k in index.items():
        gen[k, j] = 1.0
        gen[k, k] = -modes.kappa + 1j * mu
    for (i, j), mlist in modes.entries:
        for c, mu in mlist:
            gen[i, index[(j, mu)]] += c
    return gen, n


def inverse_transform(fp: FrequencyPropagator, rho0, t_grid) -> list[VectorizedOperator]:
    """Reconstruct rho(t) from the frequency-domain solution.

    Exact evaluation of (1/2 pi) times the integral of exp(i omega t)
    U[omega] rho0 along the contour below the real axis, via the modal
    decomposition of the embedded linear system (all residues kept, no
    quadrature truncation).  Each state is checked for Hermiticity and unit
    trace to 1e-6 and the t=0 reconstruction to 1e-8; a failure raises
    InversionAccuracyError rather than returning degraded data.
    """
    if fp.markov_frozen_delta is not None:
        raise ValueError("inverse transform of the frozen-kernel propagator is not supported")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(t_grid < 0):
        raise ValueError("t_grid must be a 1-d array of nonnegative times")
    rho0_vec = _as_state_vector(rho0)
    _validate_density(rho0_vec)
    gen, n = _mode_embedding(fp)
    y0 = np.zeros(n, dtype=complex)
    y0[:4] = rho0_vec

    states = None
    try:
        lam, vmat = np.linalg.eig(gen)
        coef = np.linalg.solve(vmat, y0)
        recon0 = vmat[:4, :] @ coef
        if np.abs(recon0 - rho0_vec).max() <= 1e-10:
            phases = np.exp(np.outer(t_grid, lam))
            states = (phases * coef) @ vmat[:4, :].T
    except np.linalg.LinAlgError:
        states = None
    if states is None:
        # defective or ill-conditioned eigenbasis; exponentiate directly
        states = np.empty((t_grid.size, 4), dtype=complex)
        for k, t in enumerate(t_grid):
            states[k] = (expm(gen * t) @ y0)[:4]

    if np.abs(states[np.argmin(t_grid)] - rho0_vec).max() > 1e-8 and t_grid.min() == 0.0:
        raise InversionAccuracyError("t=0 state not recovered within 1e-8")
    tr_dual = trace_dual(2)
    out = []
    for k, t in enumerate(t_grid):
        mat = states[k].reshape(2, 2)
        herm_dev = np.abs(mat - mat.conj().T).max()
        tr_dev = abs(tr_dual @ states[k] - 1.0)
        if herm_dev > 1e-6 or tr_dev > 1e-6:
            raise InversionAccuracyError(
                f"accuracy budget exceeded at t={t}: hermiticity {herm_dev:.2e}, trace {tr_dev:.2e}"
            )
        out.append(VectorizedOperator(states[k]))
    return out


def purity(rho) -> float:
    """Tr[rho^2] of a vectorized or matrix-form state."""
    vec = _as_state_vector(rho)
    d = int(round(np.sqrt(vec.size)))
    m = vec.reshape(d, d)
    if np.abs(m - m.conj().T).max() > 1e-6:
        raise ValueError("state is not Hermitian within 1e-6")
    return float(np.real(np.trace(m @ m)))
