"""Non-Markovianity quantifiers: spectral measure and trace-distance backflow.

The spectral measure is the relative entropy between the unit-area emission
spectrum and its Markov-limit counterpart, divided by the Markovian
bandwidth.  It detects persistent steady-state deviations, so it stays
positive even where the trace-distance (BLP-style) measure reads exactly
zero, and it reads zero for any map whose spectrum is exactly Markovian even
when positivity violations trip the BLP diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baths import ThermalBathParams, default_frequency_grid, effective_rates, free_liouvillian, markovian_spectrum
from .baths import squeezed_closed_spectrum, thermal_closed_spectrum
from .fdme import Spectrum, make_spectrum
from .liouville import devectorize
from .redfield import Trajectory, bm_induced_generator

__all__ = [
    "MeasureResult",
    "kl_divergence",
    "spectral_gap",
    "spectral_measure",
    "bath_measure",
    "fwhm",
    "trace_distance",
    "blp_measure",
]

TAIL_CUTOFF_REL = 1e-12


@dataclass(frozen=True)
class MeasureResult:
    """Nonnegative measure value with its method tag and evaluation metadata."""

    value: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("measure values are nonnegative")


def kl_divergence(s: Spectrum, s_ref: Spectrum) -> float:
    """Relative entropy (base 2) between unit-area spectra on a common grid.

    Points where the signal density p is below 1e-12 of its peak are
    dropped, whatever the reference there, since p log(p / q) -> 0 as
    p -> 0; a vanishing reference under appreciable signal is an error.
    """
    if not (s.normalized and s_ref.normalized):
        raise ValueError("both spectra must be normalized to unit area")
    if s.grid.shape != s_ref.grid.shape or not np.array_equal(s.grid, s_ref.grid):
        raise ValueError("spectra are not on a common grid")
    p = s.values
    q = s_ref.values
    live = p > TAIL_CUTOFF_REL * p.max()
    if np.any(live & (q <= 0.0)):
        raise ValueError("reference spectrum vanishes where the signal does not")
    integrand = np.zeros_like(p)
    integrand[live] = p[live] * np.log2(p[live] / q[live])
    val = float(np.trapezoid(integrand, s.grid))
    if val < -1e-9:
        raise ValueError(f"relative entropy came out {val:.3e} < 0; spectra are inconsistent")
    return max(val, 0.0)


def spectral_gap(p, method: str = "eigen") -> float:
    """Markovian bandwidth of the reduced system.

    'eigen' returns the smallest nonzero decay rate (|Re|) among the
    eigenvalues of the Markov-limit generator; for the thermal qubit this is
    the coherence decay rate gamma_eff.  'fwhm' returns the full width
    2 gamma_eff of the Markov-limit emission line instead.
    """
    if method == "fwhm":
        return 2.0 * effective_rates(p).gamma_eff
    if method != "eigen":
        raise ValueError(f"unknown method {method!r}")
    gen = free_liouvillian(p) + bm_induced_generator(p)
    decay = np.abs(np.real(np.linalg.eigvals(gen)))
    scale = decay.max()
    if scale <= 0:
        raise ValueError("generator is purely unitary; no spectral gap")
    nonzero = decay[decay > 1e-9 * scale]
    if nonzero.size == 0:
        raise ValueError("generator has no nonzero decay rate")
    return float(nonzero.min())


def fwhm(s: Spectrum) -> float:
    """Full width at half maximum by linear interpolation of the crossings."""
    v = s.values
    k = int(np.argmax(v))
    half = v[k] / 2.0
    left = np.nonzero(v[:k] < half)[0]
    right = np.nonzero(v[k:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("half-maximum crossings fall outside the grid")
    i = left[-1]
    x_lo = np.interp(half, [v[i], v[i + 1]], [s.grid[i], s.grid[i + 1]])
    j = k + right[0]
    x_hi = np.interp(half, [v[j], v[j - 1]], [s.grid[j], s.grid[j - 1]])
    return float(x_hi - x_lo)


def spectral_measure(s: Spectrum, s_m: Spectrum, gap: float) -> MeasureResult:
    """Relative entropy per unit Markovian bandwidth; zero iff the spectra match."""
    if gap <= 0:
        raise ValueError("bandwidth must be positive")
    value = kl_divergence(s, s_m) / gap
    return MeasureResult(
        value=value,
        method="spectral",
        metadata={"gap": gap, "grid_points": int(s.grid.size),
                  "grid_span": (float(s.grid[0]), float(s.grid[-1]))},
    )


def bath_measure(p, gap_method: str = "eigen") -> MeasureResult:
    """Spectral measure of a thermal or squeezed cavity bath: its closed-form line against the Markov-limit
    Lorentzian, both normalized on ``default_frequency_grid(p)``, per ``spectral_gap(p, gap_method)``."""
    closed = thermal_closed_spectrum if isinstance(p, ThermalBathParams) else squeezed_closed_spectrum
    grid = default_frequency_grid(p)
    s = make_spectrum(grid, closed(p, grid))
    s_m = make_spectrum(grid, markovian_spectrum(p, grid))
    return spectral_measure(s, s_m, spectral_gap(p, method=gap_method))


def trace_distance(rho1, rho2) -> float | np.ndarray:
    """Half the trace norm of the difference of two states, each a matrix or a row-stacked
    vector; of two stacks of matrices (..., d, d), the array of the pairs' distances."""
    if np.ndim(rho1) < 3:
        rho1, rho2 = devectorize(rho1), devectorize(rho2)
    diff = np.asarray(rho1) - np.asarray(rho2)
    diff_h = np.conj(np.swapaxes(diff, -1, -2))
    if np.abs(diff - diff_h).max() > 1e-8:
        raise ValueError("state difference is not Hermitian within 1e-8")
    dists = 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + diff_h))).sum(axis=-1)
    return float(dists) if dists.ndim == 0 else dists


def blp_measure(traj1: Trajectory, traj2: Trajectory) -> MeasureResult:
    """Trace-distance backflow accumulated along a pair of trajectories.

    Discrete form: the sum of positive increments of the trace distance on
    the common time grid, an abridged version that skips the maximization
    over initial-state pairs.
    """
    if traj1.times.shape != traj2.times.shape or not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories are not on a common time grid")
    increments = np.diff(trace_distance(traj1.states.reshape(-1, 2, 2), traj2.states.reshape(-1, 2, 2)))
    value = float(increments[increments > 0].sum())
    return MeasureResult(
        value=value,
        method="blp",
        metadata={"time_points": int(traj1.times.size),
                  "t_span": (float(traj1.times[0]), float(traj1.times[-1]))},
    )
