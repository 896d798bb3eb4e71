"""Delayed-feedback example: two separated qubits emitting into a waveguide.

The retardation parameter eta (decay rate times propagation delay) controls
the memory of the field: eta = 0 is the Markovian reference, finite eta
imprints repeating Fano interference features spaced by 2 pi gamma / eta on
the emission line.  The spectrum follows from the closed-form emitted-field
amplitude, conditioned on detecting the photon in the right-moving mode.
The delay sweep's measure needs no grid: it sums the line against its
eta = 0 reference through the quadrature core of ``measures``, on adaptive
Gauss-Legendre panels in theta, where omega = omega0 + h tan(theta) makes
the reference flat, cut at the zeros of the line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .baths import _require_finite
from .fdme import Spectrum, _checked_grid, make_spectrum
from .liouville import _sorted_unique
from .measures import gauss_legendre, panel_divergence, rule_ratios

__all__ = [
    "WaveguideParams",
    "resonant_eta_grid",
    "field_amplitude",
    "default_waveguide_grid",
    "waveguide_spectrum",
    "waveguide_measure_sweep",
]

# half-width, in gamma, of the band |omega - omega0| <= MEASURE_BAND gamma that the delay sweep's
# measure integrates over, with both lines normalized on it
MEASURE_BAND = 60.0
# Gauss-Legendre nodes per panel of the delay sweep's coarse rule; the fine rule takes twice as many
_BAND_NODES = 16
# a panel whose two rules' integrals of the line differ by more than _SPLIT_RTOL of the whole
# is halved, for at most _SPLIT_ROUNDS rounds
_SPLIT_RTOL = 1e-9
_SPLIT_ROUNDS = 16
MAX_DEFAULT_GRID_POINTS = 2**22  # the most points of default_waveguide_grid


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
    n_max and step must be integers in value: a fractional count of wavelengths is no resonance.
    """
    if p.omega0 <= 0:
        raise ValueError(f"omega0 must be positive for resonant delays, got {p.omega0}")
    for name, value in (("n_max", n_max), ("step", step)):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value}")
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    n = np.arange(0, n_max + 1, step)
    return 2.0 * np.pi * n * p.gamma / p.omega0


def field_amplitude(p: WaveguideParams, omega) -> np.ndarray:
    """Right-moving emitted-field amplitude at absolute frequency omega."""
    omega = np.asarray(omega, dtype=float)
    num = np.sqrt(p.gamma * p.beta / (2.0 * np.pi)) * np.cos(p.eta * omega / (2.0 * p.gamma))
    return num / _denominator(p, omega)


def _denominator(p: WaveguideParams, omega) -> np.ndarray:
    """Denominator of field_amplitude: detuning less the delayed feedback's shift, plus i times its width."""
    g, b, eta = p.gamma, p.beta, p.eta
    return (
        omega
        - p.omega0
        - 0.5 * g * b * np.sin(eta * omega / g)
        + 0.5j * g * (1.0 + b * np.cos(eta * omega / g))
    )


def default_waveguide_grid(p: WaveguideParams) -> np.ndarray:
    """Frequency grid around omega0 resolving the Fano comb.

    At least 40 points per interference period 2 pi gamma / eta, and never
    fewer than 20001 across +/- 60 gamma.  Above MAX_DEFAULT_GRID_POINTS
    (32 MiB, twice that for the amplitude: eta above about 5,490) it raises
    a ValueError before it allocates.
    """
    half = 60.0 * p.gamma
    n = 20001
    if p.eta > 0:
        period = 2.0 * np.pi * p.gamma / p.eta
        n = max(n, int(np.ceil(2 * half / (period / 40.0))) + 1)
    if n > MAX_DEFAULT_GRID_POINTS:
        raise ValueError(f"eta = {p.eta:.6g} needs a default grid of {n} points, above {MAX_DEFAULT_GRID_POINTS}; "
                         "give the grid in [grid.frequency]")
    return np.linspace(p.omega0 - half, p.omega0 + half, n)


def waveguide_spectrum(p: WaveguideParams, grid) -> Spectrum:
    """Conditional emission spectrum |c[omega]|^2 normalized to unit area; the grid is checked first."""
    grid = _checked_grid(grid)
    if grid[0] > p.omega0 - 40 * p.gamma or grid[-1] < p.omega0 + 40 * p.gamma:
        raise ValueError("grid must extend at least 40 gamma beyond omega0 on both sides")
    dens = np.abs(field_amplitude(p, grid)) ** 2
    return make_spectrum(grid, dens)


def _line_ratio(p: WaveguideParams, theta, h: float) -> np.ndarray:
    """|c(omega)|^2 / |c_0(omega)|^2 at omega = omega0 + h tan(theta), c_0 the eta = 0 amplitude.

    The vertex factor gamma beta / (2 pi) cancels, so the ratio is
    cos^2(eta omega / 2 gamma) ((omega - omega0)^2 + h^2) / |denominator|^2.
    """
    omega = p.omega0 + h * np.tan(theta)
    x = omega - p.omega0
    return np.cos(p.eta * omega / (2.0 * p.gamma)) ** 2 * (x * x + h * h) / np.abs(_denominator(p, omega)) ** 2


@cache
def _graded_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1] after x = (3t - t^3) / 2, which fixes both ends.

    dx/dt = 3 (1 - t^2) / 2 vanishes at the ends, so an integrand that goes
    as d^2 ln d at distance d from an end, as the divergence does at a zero
    of the line, becomes one that goes as t^5 ln t, which the rule sums to
    high order.  Cached per n and read-only, like ``gauss_legendre``.
    """
    t, w = gauss_legendre(n)
    x, weights = 0.5 * t * (3.0 - t * t), 1.5 * w * (1.0 - t * t)
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights


def _band_divergence(p: WaveguideParams, n: int, rounds: int) -> tuple[float, dict]:
    """Relative entropy (bits) of p's line from its eta = 0 reference, both normalized on the band.

    The band is |omega - omega0| <= MEASURE_BAND gamma.  With omega =
    omega0 + h tan(theta) and h = gamma (1 + beta) / 2, the half width of
    the reference Lorentzian, the reference is flat in theta, so
    ``measures.panel_divergence`` sums the line ratio against weights
    dtheta / (2 theta_band).  Panels are cut at the band's ends, at the core
    omega0 +/- {1, 4, 30} h and at every odd multiple of pi gamma / eta, the
    zeros of the vertex factor cos(eta omega / 2 gamma), so each period of
    the comb is one panel with a zero of the line at each end.  Each panel
    takes the n- and 2n-node ``_graded_rule``; for up to ``rounds`` rounds,
    every panel whose two rules' integrals of the ratio differ by more than
    _SPLIT_RTOL of the total is halved.  The 2n value is returned with
    ``panel_divergence``'s metadata, and a relative difference of the two
    rules' divergences above QUADRATURE_RTOL raises.  At eta = 0 the line
    is its reference: 0.0, from no nodes.
    """
    if p.eta == 0.0:
        return 0.0, {"n_nodes": 0, "z_minus_1": 0.0, "quadrature_rel_diff": 0.0}
    h = 0.5 * p.gamma * (1.0 + p.beta)
    band = MEASURE_BAND * p.gamma
    period = 2.0 * np.pi * p.gamma / p.eta
    k = np.arange(np.ceil((p.omega0 - band) / period - 0.5), np.floor((p.omega0 + band) / period - 0.5) + 1)
    zeros = (k + 0.5) * period
    cuts = np.concatenate([[-band, band], np.array([-30.0, -4.0, -1.0, 1.0, 4.0, 30.0]) * h, zeros - p.omega0])
    edges = _sorted_unique(np.arctan(cuts[np.abs(cuts) <= band] / h))
    rules = [_graded_rule(m) for m in (n, 2 * n)]

    def ratios(lo, hi):  # the line ratio at each rule's nodes, (panels, nodes) per rule
        return rule_ratios(lo, hi, rules, lambda theta: _line_ratio(p, theta, h))

    lo, hi = edges[:-1], edges[1:]
    values = ratios(lo, hi)
    for _ in range(rounds):
        coarse, fine = ((r @ w) * (0.5 * (hi - lo)) for r, (_, w) in zip(values, rules))
        split = np.abs(fine - coarse) > _SPLIT_RTOL * fine.sum()
        if not split.any():
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        values = [np.concatenate([r[~split], r_new]) for r, r_new in zip(values, ratios(new_lo, new_hi))]
        lo, hi = np.concatenate([lo[~split], new_lo]), np.concatenate([hi[~split], new_hi])
    span = 2.0 * edges[-1]
    return panel_divergence(lo, hi, rules, values, lambda half, w: (half / span)[:, None] * w)


def waveguide_measure_sweep(p: WaveguideParams, eta_grid) -> dict:
    """Spectral non-Markovianity along a retardation sweep.

    At each eta, the relative entropy (bits) of the line from its eta = 0
    reference over the band |omega - omega0| <= 60 gamma (MEASURE_BAND),
    with both lines normalized on that band, per the Markovian bandwidth
    gamma (1 + beta), the full width at half maximum of the eta = 0
    Lorentzian.  No grid is built: ``_band_divergence`` integrates the
    closed-form amplitudes by adaptive Gauss-Legendre panels, one per period
    of the comb with 16 and 32 nodes each, and raises a ``ValueError`` if
    the two rules differ by more than QUADRATURE_RTOL.  Returns the sweep's
    ``eta`` and measure ``values``, the interior maximum position
    ``eta_max``, the large-eta ``saturation`` estimate (mean of the top
    quartile of the sweep range) and the ``markov_bandwidth``, plus the
    quadrature's per-eta ``n_nodes`` and ``quadrature_rel_diff`` (0 and 0.0
    at eta = 0, which needs no quadrature).
    """
    eta_grid = np.asarray(eta_grid, dtype=float)
    if eta_grid.ndim != 1 or eta_grid.size < 2 or np.any(np.diff(eta_grid) <= 0):
        raise ValueError("eta_grid must be strictly increasing with at least 2 points")
    gap = p.gamma * (1.0 + p.beta)
    sums = [_band_divergence(replace(p, eta=float(eta)), _BAND_NODES, _SPLIT_ROUNDS) for eta in eta_grid]
    values = np.array([kl / gap for kl, _ in sums])
    eta_max = float(eta_grid[int(np.argmax(values))])
    quart = eta_grid >= eta_grid[0] + 0.75 * (eta_grid[-1] - eta_grid[0])
    saturation = float(values[quart].mean())
    return {
        "eta": eta_grid,
        "values": values,
        "eta_max": eta_max,
        "saturation": saturation,
        "markov_bandwidth": gap,
        "n_nodes": np.array([metadata["n_nodes"] for _, metadata in sums]),
        "quadrature_rel_diff": np.array([metadata["quadrature_rel_diff"] for _, metadata in sums]),
    }
