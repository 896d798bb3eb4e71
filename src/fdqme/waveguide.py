"""Delayed-feedback example: two separated qubits emitting into a waveguide.

The retardation parameter eta (decay rate times propagation delay) controls
the memory of the field: eta = 0 is the Markovian reference, finite eta
imprints repeating Fano interference features spaced by 2 pi gamma / eta on
the emission line.  The spectrum follows from the closed-form emitted-field
amplitude, conditioned on detecting the photon in the right-moving mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baths import _require_finite
from .fdme import Spectrum, make_spectrum
from .measures import fwhm, spectral_measure

__all__ = [
    "WaveguideParams",
    "resonant_eta_grid",
    "field_amplitude",
    "default_waveguide_grid",
    "waveguide_spectrum",
    "waveguide_measure_sweep",
]


@dataclass(frozen=True)
class WaveguideParams:
    """Two qubits at frequency omega0 coupled to a waveguide.

    beta is the fraction of emission captured by the guided modes and
    eta = gamma * tau the retardation parameter of the inter-qubit delay.
    """

    omega0: float
    gamma: float
    beta: float
    eta: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")


def resonant_eta_grid(p: WaveguideParams, n_max: int, step: int = 1) -> np.ndarray:
    """Retardation values with an integer number of wavelengths between the qubits.

    Returns eta_n = 2 pi n gamma / omega0 for n = 0, step, 2 step, ..., n_max.
    """
    if p.omega0 <= 0:
        raise ValueError(f"omega0 must be positive for resonant delays, got {p.omega0}")
    n = np.arange(0, n_max + 1, step)
    return 2.0 * np.pi * n * p.gamma / p.omega0


def field_amplitude(p: WaveguideParams, omega) -> np.ndarray:
    """Right-moving emitted-field amplitude at absolute frequency omega."""
    omega = np.asarray(omega, dtype=float)
    g, b, eta = p.gamma, p.beta, p.eta
    num = np.sqrt(g * b / (2.0 * np.pi)) * np.cos(eta * omega / (2.0 * g))
    den = (
        omega
        - p.omega0
        - 0.5 * g * b * np.sin(eta * omega / g)
        + 0.5j * g * (1.0 + b * np.cos(eta * omega / g))
    )
    return num / den


def default_waveguide_grid(p: WaveguideParams) -> np.ndarray:
    """Frequency grid around omega0 resolving the Fano comb.

    At least 40 points per interference period 2 pi gamma / eta, and never
    fewer than 20001 across +/- 60 gamma.
    """
    half = 60.0 * p.gamma
    n = 20001
    if p.eta > 0:
        period = 2.0 * np.pi * p.gamma / p.eta
        n = max(n, int(np.ceil(2 * half / (period / 40.0))) + 1)
    return np.linspace(p.omega0 - half, p.omega0 + half, n)


def waveguide_spectrum(p: WaveguideParams, grid) -> Spectrum:
    """Conditional emission spectrum |c[omega]|^2 normalized to unit area."""
    grid = np.asarray(grid, dtype=float)
    if grid[0] > p.omega0 - 40 * p.gamma or grid[-1] < p.omega0 + 40 * p.gamma:
        raise ValueError("grid must extend at least 40 gamma beyond omega0 on both sides")
    dens = np.abs(field_amplitude(p, grid)) ** 2
    return make_spectrum(grid, dens)


def waveguide_measure_sweep(p: WaveguideParams, eta_grid) -> dict:
    """Spectral non-Markovianity along a retardation sweep.

    The Markovian reference is the eta = 0 line evaluated on each sweep
    point's own grid, with the bandwidth fixed once from its full width at
    half maximum.  The reference is computed once on its own default grid,
    which every sweep point shares until eta is large enough to need a
    longer grid; only there is it evaluated again.  Returns the sweep's
    ``eta`` and measure ``values``, the interior maximum position ``eta_max``,
    the large-eta ``saturation`` estimate (mean of the top quartile of the
    sweep range) and the ``markov_bandwidth``.
    """
    eta_grid = np.asarray(eta_grid, dtype=float)
    if eta_grid.ndim != 1 or eta_grid.size < 2 or np.any(np.diff(eta_grid) <= 0):
        raise ValueError("eta_grid must be strictly increasing with at least 2 points")
    reference = replace(p, eta=0.0)
    s_ref = waveguide_spectrum(reference, default_waveguide_grid(reference))
    gap = fwhm(s_ref)
    values = np.empty(eta_grid.size)
    for k, eta in enumerate(eta_grid):
        point = replace(p, eta=float(eta))
        grid = default_waveguide_grid(point)
        s = waveguide_spectrum(point, grid)
        s_m = s_ref if np.array_equal(grid, s_ref.grid) else waveguide_spectrum(reference, grid)
        values[k] = spectral_measure(s, s_m, gap).value
    eta_max = float(eta_grid[int(np.argmax(values))])
    quart = eta_grid >= eta_grid[0] + 0.75 * (eta_grid[-1] - eta_grid[0])
    saturation = float(values[quart].mean())
    return {
        "eta": eta_grid,
        "values": values,
        "eta_max": eta_max,
        "saturation": saturation,
        "markov_bandwidth": gap,
    }
