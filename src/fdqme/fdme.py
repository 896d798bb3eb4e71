"""Frequency-domain master equation: propagator, steady state, spectra.

The master equation with memory is algebraic in the frequency domain: the
transformed state is U[omega] applied to the initial state, with
U[omega] = (i omega I - L0 - K[omega])^{-1}.  By the final value theorem the
steady state spans the null space of L0 + K[0], and the steady-state emission
spectrum is a single resolvent contraction per frequency, with no two-time
correlator needed.

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

import numpy as np

from .baths import KernelModes, SqueezedBathParams, ThermalBathParams, _mode_table, free_liouvillian, kernel_modes
from .liouville import (
    SIGMA_MINUS,
    _coupled_block,
    _density_vector,
    _modal_evolution,
    _steady_state,
    devectorize,
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


def _checked_grid(grid) -> np.ndarray:
    """A spectrum's frequency grid as a float array: 1-d, finite, strictly increasing, 2 points or more."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be finite, 1-d, strictly increasing and at least 2 points long")
    return grid


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
        grid = _checked_grid(self.grid)
        values = np.asarray(self.values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("values and grid shapes differ")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum values must be finite")
        if np.any(values < 0):
            raise ValueError("spectrum values must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def area(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def make_spectrum(grid, values, clip_rel: float = NEGATIVE_CLIP_REL) -> Spectrum:
    """Clip round-off negativity and normalize to unit area.

    Negative values beyond ``clip_rel`` of the peak indicate a sign error in
    the kernel and raise instead of being hidden, as do non-finite values.
    The raw curve is ``values * norm`` of the result.
    """
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("spectrum values must be finite")
    peak = values.max() if values.size else 0.0
    if peak <= 0:
        raise ValueError("spectrum has no positive values")
    worst = values.min()
    if worst < -clip_rel * peak:
        raise ValueError(f"spectrum negativity {worst:.3e} exceeds {clip_rel:.1e} of peak {peak:.3e}")
    values = np.clip(values, 0.0, None)
    # a non-finite grid would make the trapezoid warn; the grid rule names it below
    area = float(np.trapezoid(values, grid)) if grid.ndim == 1 and np.all(np.isfinite(grid)) else np.nan
    if not area > 0:
        _checked_grid(grid)
        raise ValueError("cannot normalize zero-area spectrum")
    return Spectrum(grid=grid, values=values / area, norm=area, normalized=True)


@dataclass(frozen=True)
class FrequencyPropagator:
    """Resolvent data for one bath: free Liouvillian plus kernel mode table.

    The mode table's ``omega_ref`` is the qubit frequency in the propagator's
    frame (lab frame for the thermal bath, pump frame for the squeezed one),
    which fixes the detuning convention of ``kernel_freq``.  With ``markov``
    set the kernel is frozen at detuning 0, which collapses the propagator to
    a constant-Liouvillian resolvent.  For the thermal bath its spectrum is
    ``markovian_spectrum``; for the squeezed bath the frozen kernel keeps the
    coherence coupling K12/K21, which that single Lorentzian leaves out, and
    the whole difference between the two (4.7e-6 of the peak at r = 115,
    delta_c = 320) comes from it.  Free evolution has an empty mode table.
    """

    l0: np.ndarray
    modes: KernelModes
    markov: bool = False

    def __post_init__(self):
        object.__setattr__(self, "l0", np.asarray(self.l0, dtype=complex))
        if self.l0.shape != (4, 4):
            raise ValueError(f"propagator l0 must be 4x4 like its mode table, got shape {self.l0.shape}")
        for name, value in (("l0", self.l0), ("omega_ref", self.omega_ref)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"propagator {name} must be finite")

    @property
    def omega_ref(self) -> float:
        return self.modes.omega_ref

    def kernel_freq(self, delta, block=(0, 1, 2, 3)) -> np.ndarray:
        """Kernel matrix at detuning(s) delta from ``omega_ref``; shape (..., 4, 4).

        Only the ``block`` x ``block`` entries (sorted indices; all by
        default) are formed, bit-identical to those of the full matrix.
        """
        delta = np.asarray(delta, dtype=float)
        size = len(block)
        if self.markov:
            # one 0-d evaluation: a (1,)-shaped omega takes another BLAS path
            frozen = self.modes.freq_matrix(self.omega_ref, block)
            return np.broadcast_to(frozen, delta.shape + (size, size)).copy()
        return self.modes.freq_matrix(delta + self.omega_ref, block)

    def _pattern(self) -> np.ndarray:
        """Structural nonzeros of the system matrix i omega I - L0 - K at any frequency."""
        return np.eye(self.l0.shape[0], dtype=bool) | (self.l0 != 0) | np.any(self.modes.coef != 0, axis=0)

    def _system_matrix(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        eye = np.eye(self.l0.shape[0], dtype=complex)
        k = self.kernel_freq(omega - self.omega_ref)
        return 1j * omega[..., None, None] * eye - self.l0 - k

    def _system_matrix_delta(self, delta, block) -> np.ndarray:
        """Block x block entries of the resolvent matrix, in detuning form.

        i omega I - L0 is regrouped as i delta I + (i omega_ref I - L0) so no
        large-frequency cancellation contaminates the near-resonant entries;
        the parenthesis is exact because L0's diagonal carries omega_ref.
        Each entry is bit-identical to that of the full 4x4 assembly.
        """
        delta = np.asarray(delta, dtype=float)
        sub = np.ix_(block, block)
        eye = np.eye(self.l0.shape[0], dtype=complex)
        shift = (1j * self.omega_ref * eye - self.l0)[sub]
        k = self.kernel_freq(delta, block)
        return 1j * delta[..., None, None] * eye[sub] + shift - k


def thermal_propagator(p: ThermalBathParams, markov: bool = False) -> FrequencyPropagator:
    """Propagator of a qubit with a thermal-cavity kernel (lab frame)."""
    return FrequencyPropagator(l0=free_liouvillian(p), modes=kernel_modes(p), markov=markov)


def squeezed_propagator(p: SqueezedBathParams, markov: bool = False) -> FrequencyPropagator:
    """Propagator of a qubit with a squeezed-cavity kernel (pump frame), full mode table."""
    return FrequencyPropagator(l0=free_liouvillian(p), modes=kernel_modes(p), markov=markov)


def free_propagator(l0, omega_ref: float = 0.0) -> FrequencyPropagator:
    """Kernel-free propagator (pure free evolution, an empty mode table), mostly for validation."""
    return FrequencyPropagator(l0=l0, modes=_mode_table(0.0, omega_ref, ()))


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


def steady_state(fp: FrequencyPropagator) -> np.ndarray:
    """Steady state as the unit-trace null vector of L0 + K[omega = 0].

    By the final value theorem lim i omega U[omega] rho0 is the null vector
    of the generator with the kernel at transform variable 0 (detuning
    -omega_ref), the same for every initial state rho0 when that null vector
    is unique.  A generator without exactly one zero eigenvalue has a
    degenerate steady-state manifold and raises.  Otherwise the null vector
    comes from ``liouville._steady_state``: the trace-bordered solve on the
    blocks that hold the populations, Hermitized and checked for unit trace.
    Returns the row-stacked vector (gg, ge, eg, ee).
    """
    generator = fp.l0 + fp.kernel_freq(-fp.omega_ref)
    lam = np.linalg.eigvals(generator)
    if np.count_nonzero(np.abs(lam) < 1e-12 * np.abs(lam).max()) != 1:
        raise ValueError("steady-state manifold is degenerate; final value is not unique")
    return _steady_state(generator, int(round(np.sqrt(generator.shape[0])))).reshape(-1)


def _stacked_solve(m, b) -> tuple[np.ndarray, np.ndarray]:
    """Solve m x = b for a stack of small systems that share one right-hand side.

    ``m`` holds the k x k systems entry-major, with shape (k, k, n), so each
    entry is one contiguous run over the stack; ``b`` has shape (k,).
    Gaussian elimination with partial pivoting by LAPACK's rule (the entry
    of largest |Re| + |Im| on or below the diagonal, the first of a tie),
    vectorized over the stack and looping over the k columns.  A zero pivot
    (an exactly singular system) is flagged and stands in as 1, so nothing
    divides by zero.  Returns x with shape (k, n) and the boolean mask of
    singular systems.
    """
    k, n = m.shape[0], m.shape[-1]
    aug = np.empty((k, k + 1, n), dtype=complex)
    aug[:, :k] = m
    aug[:, k] = b[:, None]
    singular = np.zeros(n, dtype=bool)
    for j in range(k):
        if j + 1 < k:  # the last column has one candidate row
            p = np.full(n, j)
            best = np.abs(aug[j, j].real) + np.abs(aug[j, j].imag)
            for i in range(j + 1, k):
                mag = np.abs(aug[i, j].real) + np.abs(aug[i, j].imag)
                wins = mag > best  # strict, so the first of a tie keeps it
                p[wins] = i
                best = np.where(wins, mag, best)
            s = np.flatnonzero(p != j)
            pivot_rows = aug[p[s], j:, s]
            aug[p[s], j:, s] = aug[j, j:, s]
            aug[j, j:, s] = pivot_rows
        piv = aug[j, j]
        zero = piv == 0
        singular |= zero
        piv[zero] = 1.0
        aug[j + 1:, j + 1:] -= (aug[j + 1:, j] / piv)[:, None] * aug[j, j + 1:]
    x = aug[:, k]
    for j in reversed(range(k)):
        x[j] /= aug[j, j]
        x[:j] -= aug[:j, j] * x[j]
    return x, singular


def emission_spectrum(fp: FrequencyPropagator, grid) -> Spectrum:
    """Steady-state emission spectrum, twice the real part of <<sigma_-|U|sigma_- rho_ss>>.

    ``grid`` holds detunings from ``fp.omega_ref`` and is checked before the
    solve; ``rho_ss`` is ``steady_state(fp)``.  One stacked elimination over
    the grid (``_stacked_solve``), on the blocks of the system matrix (its
    structural nonzeros: the identity, L0 and the mode table) that hold the
    source; only those entries are assembled, and a coherence source never
    meets the singular population block at transform frequency 0.  A
    singular source block, or a residual |M x - src| / |src| above
    RESIDUAL_TOL, raises a ValueError naming the first such detuning.
    Round-off negativity is clipped and the result normalized.  Twice the
    real part folds in the anti-time-ordered half of the correlator by an
    identity of stationary states.
    """
    grid = _checked_grid(grid)
    src = left_multiplier(SIGMA_MINUS) @ steady_state(fp)
    dual = SIGMA_MINUS.reshape(-1).conj()
    block = _coupled_block(fp._pattern(), np.flatnonzero(src))
    m = np.moveaxis(fp._system_matrix_delta(grid, block), 0, -1).copy()  # entry-major, as _stacked_solve takes it
    x, singular = _stacked_solve(m, src[block])
    if singular.any():
        raise ValueError(f"emission resolvent is singular on the source block at delta={grid[np.argmax(singular)]}")
    r = np.einsum("ijn,jn->in", m, x) - src[block, None]
    resid = np.sqrt(np.sum(r.real**2 + r.imag**2, axis=0))
    bad = np.flatnonzero(~(resid <= RESIDUAL_TOL * np.linalg.norm(src)))  # NaN fails too
    if bad.size:
        k = bad[0]
        rel = resid[k] / np.linalg.norm(src)
        raise ValueError(f"emission residual {rel:.3e} at delta={grid[k]} exceeds {RESIDUAL_TOL}")
    raw = 2.0 * np.real(dual[block] @ x)
    return make_spectrum(grid, raw)


def _mode_embedding(fp: FrequencyPropagator) -> np.ndarray:
    """Equivalent linear system of the memory kernel's exponential modes.

    Each (source column j, mode k) pair with a nonzero coefficient becomes
    one auxiliary variable obeying dz/dt = (-kappa + i mu_k) z + rho_j, and
    the kernel feeds coef[k, :, j] z back into the state rows.  The Schur
    complement of the embedded generator reproduces K[omega] exactly, so its
    modal expansion IS the shifted-contour inverse transform.
    """
    modes = fp.modes
    cols, ks = np.nonzero(np.any(modes.coef != 0, axis=1).T)  # ordered by column, then mu
    aux = np.arange(4, 4 + ks.size)
    gen = np.zeros((aux.size + 4, aux.size + 4), dtype=complex)
    gen[:4, :4] = fp.l0
    gen[aux, cols] = 1.0
    gen[aux, aux] = -modes.kappa + 1j * modes.mus[ks]
    gen[:4, aux] = modes.coef[ks, :, cols].T
    return gen


def inverse_transform(fp: FrequencyPropagator, rho0, t_grid) -> np.ndarray:
    """Reconstruct rho(t) from the frequency-domain solution.

    Exact evaluation of (1/2 pi) times the integral of exp(i omega t)
    U[omega] rho0 along the contour below the real axis, via the modal
    decomposition of the embedded linear system (all residues kept, no
    quadrature truncation; ``liouville._modal_evolution`` checks t=0 to
    1e-10).  Returns the row-stacked states as an (n_times, 4) array in
    ``t_grid`` order.  Each state is checked for Hermiticity and unit trace to
    1e-6 (a non-finite state fails); a failure raises InversionAccuracyError.
    """
    if fp.markov:
        raise ValueError("inverse transform of the frozen-kernel propagator is not supported")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all(np.isfinite(t_grid)) or np.any(t_grid < 0):
        raise ValueError("t_grid must be a 1-d array of finite nonnegative times")
    rho0_vec = _density_vector(rho0)
    gen = _mode_embedding(fp)
    y0 = np.zeros(gen.shape[0], dtype=complex)
    y0[:4] = rho0_vec
    states = _modal_evolution(gen, y0, t_grid, 4)
    mats = states.reshape(-1, 2, 2)
    herm_dev = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    tr_dev = np.abs(states @ trace_dual(2) - 1.0)
    bad = np.flatnonzero(~((herm_dev <= 1e-6) & (tr_dev <= 1e-6)))  # NaN fails too
    if bad.size:
        k = bad[0]
        raise InversionAccuracyError(
            f"accuracy budget exceeded at t={t_grid[k]}: hermiticity {herm_dev[k]:.2e}, trace {tr_dev[k]:.2e}"
        )
    return states


def purity(rho) -> float:
    """Tr[rho^2] of a vectorized or matrix-form state."""
    m = devectorize(rho)
    if np.abs(m - m.conj().T).max() > 1e-6:
        raise ValueError("state is not Hermitian within 1e-6")
    return float(np.real(np.trace(m @ m)))
