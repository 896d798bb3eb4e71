from dataclasses import replace

import numpy as np
import pytest

from fdqme.measures import fwhm, spectral_measure
from fdqme.waveguide import (
    WaveguideParams,
    default_waveguide_grid,
    field_amplitude,
    resonant_eta_grid,
    waveguide_measure_sweep,
    waveguide_spectrum,
)

P0 = WaveguideParams(omega0=500.0, gamma=1.0, beta=0.95)


def test_params_validation():
    with pytest.raises(ValueError, match="beta"):
        WaveguideParams(omega0=500.0, gamma=1.0, beta=1.2)
    with pytest.raises(ValueError, match="eta"):
        WaveguideParams(omega0=500.0, gamma=1.0, beta=0.5, eta=-1.0)


def test_resonant_grid_spacing():
    etas = resonant_eta_grid(P0, n_max=10)
    assert etas[0] == 0.0
    assert np.allclose(np.diff(etas), 2 * np.pi * P0.gamma / P0.omega0)


def test_zero_delay_amplitude_is_lorentzian():
    grid = default_waveguide_grid(P0)
    amp = field_amplitude(P0, grid)
    half = P0.gamma * (1 + P0.beta) / 2.0
    expected = np.sqrt(P0.gamma * P0.beta / (2 * np.pi)) / (grid - P0.omega0 + 1j * half)
    assert np.abs(np.abs(amp) ** 2 - np.abs(expected) ** 2).max() < 1e-14


def test_amplitude_nulls_at_cosine_zeros():
    p = WaveguideParams(omega0=500.0, gamma=1.0, beta=0.95, eta=8.0)
    # cos(eta w / 2 gamma) = 0 at w = (2k+1) pi gamma / eta
    k = np.round(p.eta * p.omega0 / (np.pi) / 2).astype(int)
    omega_null = (2 * k + 1) * np.pi * p.gamma / p.eta
    assert abs(field_amplitude(p, float(omega_null))) < 1e-12


def test_decoupled_waveguide_shape_has_no_delay_dependence():
    # beta -> 0 removes the feedback terms in the denominator; stripping the
    # emission-vertex cosine leaves a free-space Lorentzian with no delay
    # dependence
    grid = np.linspace(440.0, 560.0, 20001)
    for eta in (0.0, 9.0):
        p = WaveguideParams(500.0, 1.0, 1e-12, eta=eta)
        amp = field_amplitude(p, grid)
        vertex = np.cos(eta * grid / 2.0)
        keep = np.abs(vertex) > 0.2
        stripped = np.abs(amp[keep] / vertex[keep]) ** 2
        half = 0.5 * p.gamma
        lorentz = 1.0 / ((grid[keep] - 500.0) ** 2 + half**2)
        ratio = stripped / lorentz
        assert np.abs(ratio / ratio.mean() - 1.0).max() < 1e-9


def test_spectrum_normalization_and_width():
    grid = default_waveguide_grid(P0)
    s = waveguide_spectrum(P0, grid)
    assert abs(s.area - 1.0) < 1e-6
    assert fwhm(s) == pytest.approx(P0.gamma * (1 + P0.beta), rel=1e-2)


def test_spectrum_grid_coverage_enforced():
    with pytest.raises(ValueError, match="40 gamma"):
        waveguide_spectrum(P0, np.linspace(480.0, 520.0, 1001))


def test_intermediate_delay_fano_features_in_central_lobe():
    p = WaveguideParams(omega0=500.0, gamma=1.0, beta=0.95, eta=8.29)
    grid = default_waveguide_grid(p)
    s = waveguide_spectrum(p, grid)
    lobe = (np.abs(grid - p.omega0) < 2 * p.gamma)
    v = s.values[lobe]
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    assert interior.sum() >= 3


def test_large_delay_comb_spacing():
    p = WaveguideParams(omega0=500.0, gamma=1.0, beta=0.95, eta=28.3)
    grid = default_waveguide_grid(p)
    s = waveguide_spectrum(p, grid)
    lobe = np.abs(grid - p.omega0) < 4 * p.gamma
    v = s.values[lobe]
    x = s.grid[lobe]
    peaks = np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] > 0.2 * v.max()))[0] + 1
    spacings = np.diff(x[peaks])
    assert spacings.size >= 3
    assert np.abs(spacings - 2 * np.pi * p.gamma / p.eta).max() < 0.1 * p.gamma


def test_measure_sweep_shape():
    etas = resonant_eta_grid(P0, n_max=2400, step=40)
    sweep = waveguide_measure_sweep(P0, etas)
    vals = sweep["values"]
    assert vals[0] == 0.0  # eta = 0 is its own reference
    assert np.all(vals >= 0.0)
    k = int(np.argmax(vals))
    assert 0 < k < len(vals) - 1  # interior maximum
    # rising branch before the peak, then nothing above it again
    assert np.all(np.diff(vals[: k + 1]) > -1e-6)
    assert vals[k + 1 :].max() < vals[k]
    # saturation: last quartile flat within 10%
    quart = sweep["eta"] >= sweep["eta"][0] + 0.75 * (sweep["eta"][-1] - sweep["eta"][0])
    spread = vals[quart].max() - vals[quart].min()
    assert spread < 0.1 * sweep["saturation"]
    # the peak sits where the repeating interference features have entered
    # the central lobe: a couple of periods span the Markovian width
    assert 2 * np.pi < sweep["eta_max"] < 5 * np.pi


def test_measure_sweep_reports_one_result_per_eta_with_its_eta():
    etas = resonant_eta_grid(P0, n_max=200, step=100)
    sweep = waveguide_measure_sweep(P0, etas)
    assert len(sweep["values"]) == etas.size
    assert np.array_equal(sweep["eta"], etas)


def test_measure_sweep_reuses_the_reference_only_where_the_grids_agree():
    # eta above about 26 needs more than the default 20001 points, so this
    # sweep runs on the shared reference grid and on two longer grids
    etas = np.array([0.0, 3.0, 12.5, 27.0, 33.0])
    sizes = [default_waveguide_grid(replace(P0, eta=e)).size for e in etas]
    assert sizes[:3] == [20001] * 3 and min(sizes[3:]) > 20001
    sweep = waveguide_measure_sweep(P0, etas)
    reference = replace(P0, eta=0.0)
    gap = fwhm(waveguide_spectrum(reference, default_waveguide_grid(reference)))
    assert sweep["markov_bandwidth"] == gap
    for eta, value in zip(etas, sweep["values"]):
        point = replace(P0, eta=float(eta))
        grid = default_waveguide_grid(point)
        fresh = spectral_measure(waveguide_spectrum(point, grid), waveguide_spectrum(reference, grid), gap)
        assert value == fresh.value
