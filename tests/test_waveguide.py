import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import fwhm
from fdqme import waveguide
from fdqme.measures import QUADRATURE_RTOL, gauss_legendre
from fdqme.waveguide import (
    MAX_DEFAULT_GRID_POINTS,
    MEASURE_BAND,
    WaveguideParams,
    _band_divergence,
    _graded_rule,
    _line_ratio,
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


def test_default_grid_refuses_a_huge_eta_before_it_allocates():
    # eta = 1e6 asked for 7.6e8 points: 6.1 GB for the grid alone
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^eta = 1e\+06 needs a default grid of 763943728 points, above "
                                             r"4194304; give the grid in \[grid.frequency\]$"):
            default_waveguide_grid(replace(P0, eta=1e6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # at eta = 10, the largest of the benchmark's range, 40 points a period are 7,641, under the floor
    assert MAX_DEFAULT_GRID_POINTS == 2**22
    assert default_waveguide_grid(replace(P0, eta=10.0)).size == 20001


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


def test_measure_sweep_reports_its_quadrature_per_eta():
    etas = resonant_eta_grid(P0, n_max=200, step=25)
    sweep = waveguide_measure_sweep(P0, etas)
    n_nodes, rel_diff = sweep["n_nodes"], sweep["quadrature_rel_diff"]
    assert n_nodes.shape == rel_diff.shape == etas.shape
    # eta = 0 is its own reference and needs no nodes; every other delay takes 32 per panel
    assert n_nodes[0] == 0 and rel_diff[0] == 0.0
    assert np.all(n_nodes[1:] > 0) and np.all(n_nodes % 32 == 0)
    assert np.all(rel_diff <= QUADRATURE_RTOL)


def _dense_uniform_measure(p: WaveguideParams) -> float:
    """The sweep's measure by 32-node Gauss-Legendre on uniform omega panels, as p log2(p / q).

    The panels are pi gamma / eta divided evenly: at most 0.2 gamma wide across the band and at
    most 2e-4 gamma within 0.6 gamma of omega0, where beta = 1 lines carry spikes a few 1e-5
    gamma wide.  Every zero of the vertex factor is a panel edge.
    """
    band, x, w = MEASURE_BAND * p.gamma, *gauss_legendre(32)
    half_period = np.pi * p.gamma / p.eta

    def edges(lo, hi, width):
        step = half_period / np.ceil(half_period / width)
        return np.arange(np.ceil(lo / step), np.floor(hi / step) + 1) * step

    cuts = np.concatenate([[p.omega0 - band, p.omega0 + band],
                           edges(p.omega0 - band, p.omega0 + band, 0.2 * p.gamma),
                           edges(p.omega0 - 0.6 * p.gamma, p.omega0 + 0.6 * p.gamma, 2e-4 * p.gamma)])
    cuts = np.unique(cuts[np.abs(cuts - p.omega0) <= band])
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * np.diff(cuts)
    omega, weights = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
    line = np.abs(field_amplitude(p, omega)) ** 2
    reference = np.abs(field_amplitude(replace(p, eta=0.0), omega)) ** 2
    line, reference = line / (weights @ line), reference / (weights @ reference)
    live = line > 0
    kl = weights[live] @ (line[live] * np.log2(line[live] / reference[live]))
    return float(kl) / (p.gamma * (1 + p.beta))


def test_measure_sweep_agrees_with_dense_uniform_panels():
    # the adaptive panels in theta against an independent sum in omega; beta = 1 at eta 20 has
    # a spike 1.8e-5 gamma wide near omega0, which 12 rounds of bisection reach; worst 6.6e-9
    worst = 0.0
    for beta in (0.5, 0.95, 1.0):
        for eta in (0.5, 5.0, 20.0, 30.2):
            p = WaveguideParams(omega0=500.0, gamma=1.0, beta=beta)
            value = waveguide_measure_sweep(p, [0.0, eta])["values"][1]
            worst = max(worst, abs(value / _dense_uniform_measure(replace(p, eta=eta)) - 1.0))
    assert worst < 1e-6


def test_measure_sweep_reads_zero_at_zero_delay_and_the_lorentzian_width():
    sweep = waveguide_measure_sweep(replace(P0, beta=0.9), resonant_eta_grid(P0, n_max=8, step=2))
    assert sweep["values"][0] == 0.0
    assert np.all(sweep["values"][1:] > 0.0)
    # the full width at half maximum of the eta = 0 line, gamma (1 + beta), in closed form
    assert sweep["markov_bandwidth"] == 1.9


def test_measure_sweep_builds_no_grid_spectrum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a grid spectrum")

    for name in ("default_waveguide_grid", "waveguide_spectrum", "make_spectrum"):
        monkeypatch.setattr(waveguide, name, refuse)
    assert waveguide_measure_sweep(P0, resonant_eta_grid(P0, n_max=200, step=100))["values"][-1] > 0.0


def test_line_ratio_is_the_ratio_of_the_amplitudes():
    rng = np.random.default_rng(3)
    for beta, eta in ((0.5, 0.7), (0.95, 8.3), (1.0, 30.2)):
        p = WaveguideParams(omega0=500.0, gamma=1.0, beta=beta, eta=eta)
        h = 0.5 * p.gamma * (1.0 + p.beta)
        theta = rng.uniform(-1.5, 1.5, 200)
        omega = p.omega0 + h * np.tan(theta)
        expected = np.abs(field_amplitude(p, omega)) ** 2 / np.abs(field_amplitude(replace(p, eta=0.0), omega)) ** 2
        assert np.abs(_line_ratio(p, theta, h) - expected).max() <= 1e-12 * expected.max()


def test_graded_rule_sums_a_zero_of_the_line_at_a_panel_end():
    # x^k with k <= 9 exactly (x(t)^k dx/dt has degree 3k + 2 <= 31), and d^2 ln d at the end of
    # the panel, as the divergence goes at a zero of the line: 7.2e-11 off, 1.3e-7 for the plain rule
    x, w = _graded_rule(16)
    for k in range(10):
        assert abs(w @ x**k - (1 + (-1) ** k) / (k + 1)) <= 1e-14
    exact = 8.0 / 3.0 * np.log(2.0) - 8.0 / 9.0  # int_0^2 u^2 ln u du
    assert abs(w @ ((1 + x) ** 2 * np.log1p(x)) - exact) <= 1e-9


def test_unconverged_band_quadrature_raises():
    # 4 and 8 nodes per panel with no bisection miss the beta = 1 spike near omega0
    p = WaveguideParams(omega0=500.0, gamma=1.0, beta=1.0, eta=20.0)
    with pytest.raises(ValueError, match="mapped quadrature did not converge: 4 and 8 nodes per panel"):
        _band_divergence(p, 4, 0)


def test_measure_sweep_at_zero_beta_is_the_small_beta_limit():
    # the vertex factor gamma beta / (2 pi) cancels in the line ratio, so beta = 0 gives the
    # shape's limit, where the grid spectrum at beta = 0 has no positive values
    etas = resonant_eta_grid(P0, n_max=8, step=2)
    zero = waveguide_measure_sweep(replace(P0, beta=0.0), etas)["values"]
    small = waveguide_measure_sweep(replace(P0, beta=1e-9), etas)["values"]
    assert np.all(zero[1:] > 0.0)
    assert np.abs(zero - small).max() <= 1e-8 * zero.max()
