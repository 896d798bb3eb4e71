import numpy as np
import pytest
from conftest import locate_peak, one_sided_transform, squeezed_steady_ground_population
from scipy.linalg import expm

from fdqme.baths import (
    SQUEEZED_STRUCTURE,
    THERMAL_STRUCTURE,
    SqueezedBathParams,
    ThermalBathParams,
    bogoliubov_params,
    default_frequency_grid,
    effective_rates,
    generic_kernel_time,
    kernel_modes,
    markovian_spectrum,
    squeezed_closed_spectrum,
    squeezed_kernel_freq,
    squeezed_kernel_time,
    thermal_closed_spectrum,
    thermal_kernel_freq,
    thermal_kernel_time,
)
from fdqme.baths import _correlator_matrix, _coupling_matrix, _mode_matrix
from fdqme.fdme import emission_spectrum, make_spectrum, thermal_propagator
from fdqme.liouville import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, commutator_superop, left_multiplier, right_multiplier

RNG = np.random.default_rng(1729)

THERMAL = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 50.0, kappa=10.0, nbar=0.1)
SQUEEZED = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)


# --------------------------------------------------------------------------
# thermal kernel
# --------------------------------------------------------------------------


def test_thermal_kernel_time_at_zero():
    k = thermal_kernel_time(THERMAL, 0.0)
    g2, nb = THERMAL.g**2, THERMAL.nbar
    # at t = 0 each weighted row is exactly [1 | 0], and no thermal entry sums more than two modes
    assert np.array_equal(k, kernel_modes(THERMAL).coef.sum(axis=0))
    assert k[0, 0] == -2 * nb * g2
    assert k[3, 3] == -2 * (nb + 1) * g2
    assert k[1, 1] == -(2 * nb + 1) * g2


def test_thermal_kernel_zero_temperature_heating_vanishes():
    p = ThermalBathParams(g=1.0, omega_q=100.0, omega_c=90.0, kappa=5.0, nbar=0.0)
    t = np.linspace(0, 2, 50)
    assert np.abs(thermal_kernel_time(p, t)[:, 0, 0]).max() == 0.0


def test_thermal_kernel_decay_envelope():
    t = 3.0
    k = thermal_kernel_time(THERMAL, t)
    bound = 3 * (2 * THERMAL.nbar + 1) * THERMAL.g**2 * np.exp(-THERMAL.kappa * t)
    assert np.abs(k).max() < bound


def test_thermal_kernel_structure_and_symmetries():
    t = np.linspace(0.0, 1.0, 7)
    k = thermal_kernel_time(THERMAL, t)
    nz = {(i, j) for i in range(4) for j in range(4) if np.abs(k[..., i, j]).max() > 0}
    assert nz <= THERMAL_STRUCTURE
    assert np.allclose(k[..., 2, 2], np.conj(k[..., 1, 1]), atol=1e-12)
    assert np.allclose(k[..., 0, 0] + k[..., 3, 0], 0, atol=1e-12)
    assert np.allclose(k[..., 0, 3] + k[..., 3, 3], 0, atol=1e-12)


def test_thermal_kernel_negative_time_rejected():
    with pytest.raises(ValueError, match="t >= 0"):
        thermal_kernel_time(THERMAL, -0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.1, np.nan], [0.0, np.inf]])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda t: thermal_kernel_time(THERMAL, t),
        lambda t: squeezed_kernel_time(SQUEEZED, t),
        lambda t: generic_kernel_time(THERMAL, t),
        lambda t: generic_kernel_time(SQUEEZED, t),
    ],
    ids=["thermal", "squeezed", "generic-thermal", "generic-squeezed"],
)
def test_kernels_reject_non_finite_times(kernel, t):
    with pytest.raises(ValueError, match="finite"):
        kernel(t)


def test_thermal_kernel_freq_resonant_zero_temperature():
    p = ThermalBathParams(g=1.0, omega_q=100.0, omega_c=100.0, kappa=4.0, nbar=0.0)
    k = thermal_kernel_freq(p, 0.0)
    assert k[1, 1] == pytest.approx(-(1.0 / 4.0))


def test_thermal_effective_rates():
    r = effective_rates(THERMAL)
    d, kp, nb, g2 = THERMAL.delta, THERMAL.kappa, THERMAL.nbar, THERMAL.g**2
    assert r.gamma_eff == pytest.approx((2 * nb + 1) * g2 * kp / (d**2 + kp**2), rel=1e-12)
    assert r.delta_eff == pytest.approx((2 * nb + 1) * g2 * d / (d**2 + kp**2), rel=1e-12)


def test_thermal_freq_kernel_matches_quadrature():
    # moderate carrier keeps the reference grid small; the transform
    # identity itself is covariant under frequency shifts
    p = ThermalBathParams(g=1.0, omega_q=120.0, omega_c=70.0, kappa=5.0, nbar=0.1)
    rng = np.random.default_rng(7)
    for delta in rng.uniform(-300, 300, size=4):
        omega = float(delta) + p.omega_q
        k_an = thermal_kernel_freq(p, delta)
        got = one_sided_transform(lambda t: thermal_kernel_time(p, t), omega, p.kappa)
        for i, j in sorted(THERMAL_STRUCTURE):
            assert abs(got[i, j] - k_an[i, j]) < 1e-8


def test_thermal_freq_kernel_poles_are_causal():
    modes = kernel_modes(THERMAL)
    assert np.all(modes.pole_frequencies().imag > 0)


# --------------------------------------------------------------------------
# Bogoliubov parameters
# --------------------------------------------------------------------------


def test_bogoliubov_no_squeezing():
    p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=0.0, kappa=10.0)
    b = bogoliubov_params(p)
    assert b.zeta == 0.0
    assert b.g1 == pytest.approx(1.0)
    assert b.g2 == 0.0
    assert b.nbar == 0.0
    assert b.mbar == 0.0
    assert b.delta_c_eff == pytest.approx(320.0)


def test_bogoliubov_three_four_five():
    p = SqueezedBathParams(g=1.0, delta_q=1.0, delta_c=5.0, r=3.0, kappa=1.0)
    assert bogoliubov_params(p).delta_c_eff == pytest.approx(4.0)


def test_bogoliubov_coupling_identity_across_r():
    for r in np.linspace(0.0, 300.0, 13):
        p = SqueezedBathParams(g=1.3, delta_q=200.0, delta_c=320.0, r=float(r), kappa=10.0)
        b = bogoliubov_params(p)
        assert b.g1**2 - b.g2**2 == pytest.approx(p.g**2, rel=1e-12)


def test_squeezed_params_rejects_unstable_drive():
    with pytest.raises(ValueError, match=r"r < \|delta_c\|"):
        SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=320.0, kappa=10.0)


# --------------------------------------------------------------------------
# squeezed kernel
# --------------------------------------------------------------------------


def test_squeezed_kernel_reduces_to_zero_temperature_thermal():
    p0 = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=0.0, kappa=10.0)
    therm = ThermalBathParams(g=1.0, omega_q=200.0, omega_c=320.0, kappa=10.0, nbar=0.0)
    t = np.linspace(0.0, 0.5, 40)
    ks = squeezed_kernel_time(p0, t)
    kt = thermal_kernel_time(therm, t)
    assert np.abs(ks - kt).max() < 1e-12
    assert np.abs(ks[:, 2, 1]).max() == 0.0


def test_squeezed_kernel_value_at_zero_time():
    b = bogoliubov_params(SQUEEZED)
    k0 = squeezed_kernel_time(SQUEEZED, 0.0)
    expected_k32 = (
        2 * b.g1**2 * b.mbar + 2 * b.g2**2 * np.conj(b.mbar) + 2 * b.g1 * b.g2 * (2 * b.nbar + 1)
    )
    assert k0[2, 1] == pytest.approx(expected_k32, abs=1e-12)
    assert k0[1, 2] == pytest.approx(np.conj(expected_k32), abs=1e-12)
    # a squeezed entry sums up to eight modes, in another order than coef.sum
    assert np.abs(k0 - kernel_modes(SQUEEZED).coef.sum(axis=0)).max() <= 2 * np.finfo(float).eps * np.abs(k0).max()


def test_squeezed_kernel_structure():
    t = np.linspace(0.0, 0.4, 9)
    k = squeezed_kernel_time(SQUEEZED, t)
    nz = {(i, j) for i in range(4) for j in range(4) if np.abs(k[..., i, j]).max() > 0}
    assert nz <= SQUEEZED_STRUCTURE
    assert np.allclose(k[..., 2, 2], np.conj(k[..., 1, 1]), atol=1e-12)
    assert np.allclose(k[..., 1, 2], np.conj(k[..., 2, 1]), atol=1e-12)
    assert np.allclose(k[..., 0, 0] + k[..., 3, 0], 0, atol=1e-12)
    # causality: every transform pole decays in time
    assert np.all(kernel_modes(SQUEEZED).pole_frequencies().imag > 0)


def test_squeezed_kernel_matches_generic_construction():
    # closed-form mode table vs the matrix-exponential route, random (r, t)
    rng = np.random.default_rng(99)
    for _ in range(50):
        r = float(rng.uniform(0.0, 310.0))
        t = float(rng.uniform(0.0, 0.3))
        p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=r, kappa=10.0)
        diff = np.abs(squeezed_kernel_time(p, t) - generic_kernel_time(p, t)).max()
        assert diff < 1e-9


def test_generic_construction_matches_thermal_with_occupation():
    # same oracle route also covers the thermal bath at nbar > 0
    t_vals = np.linspace(0.0, 0.8, 6)
    p = ThermalBathParams(g=1.0, omega_q=120.0, omega_c=80.0, kappa=6.0, nbar=0.35)
    diff = np.abs(generic_kernel_time(p, t_vals) - thermal_kernel_time(p, t_vals)).max()
    assert diff < 1e-9


def _generic_kernel_per_time(p, times):
    # one expm pair and a 16-term sum per time, the loop the stacked route replaced
    if isinstance(p, SqueezedBathParams):
        b = bogoliubov_params(p)
        g1, g2, nbar, mbar, omega_b, omega_q = b.g1, b.g2, b.nbar, b.mbar, b.delta_c_eff, p.delta_q
    else:
        g1, g2, nbar, mbar, omega_b, omega_q = p.g, 0.0, p.nbar, 0.0 + 0.0j, p.omega_c, p.omega_q
    M = _mode_matrix(nbar, mbar, p.kappa, omega_b)
    T = _correlator_matrix(nbar, mbar)
    G = _coupling_matrix(g1, g2)
    l_s = commutator_superop(-(omega_q / 2.0) * SIGMA_Z)
    sig = (left_multiplier(SIGMA_PLUS), left_multiplier(SIGMA_MINUS),
           right_multiplier(SIGMA_MINUS), right_multiplier(SIGMA_PLUS))
    out = []
    for t in times:
        west = G @ T @ expm(M.T * t) @ G
        e_ls = expm(l_s * t)
        k = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                k -= west[i, j] * (sig[i] @ e_ls @ sig[j])
        out.append(k)
    return np.array(out)


@pytest.mark.parametrize("p", [THERMAL, SQUEEZED, ThermalBathParams(g=1.0, omega_q=120.0, omega_c=80.0, kappa=6.0,
                                                                   nbar=0.35)])
def test_generic_kernel_time_matches_per_time_loop(p):
    times = np.array([0.0, 0.013, 0.05, 0.12, 0.29, 0.8])
    reference = _generic_kernel_per_time(p, times)
    scale = np.abs(reference).max()
    assert np.abs(generic_kernel_time(p, times) - reference).max() <= 1e-14 * scale
    assert np.abs(generic_kernel_time(p, times[2]) - reference[2]).max() <= 1e-14 * scale
    stacked = generic_kernel_time(p, times.reshape(2, 3))
    assert stacked.shape == (2, 3, 4, 4)
    assert np.abs(stacked.reshape(6, 4, 4) - reference).max() <= 1e-14 * scale
    assert generic_kernel_time(p, []).shape == (0, 4, 4)


def test_squeezed_freq_kernel_matches_quadrature():
    rng = np.random.default_rng(11)
    for delta in rng.uniform(-600, 300, size=3):
        omega = float(delta) + SQUEEZED.delta_q
        k_an = squeezed_kernel_freq(SQUEEZED, delta)
        got = one_sided_transform(lambda t: squeezed_kernel_time(SQUEEZED, t), omega, SQUEEZED.kappa)
        for i, j in sorted(SQUEEZED_STRUCTURE):
            assert abs(got[i, j] - k_an[i, j]) < 1e-8


def test_squeezed_freq_kernel_pole_center_value():
    b = bogoliubov_params(SQUEEZED)
    k = squeezed_kernel_freq(SQUEEZED, -b.delta_diff)
    first_term = -(2 * b.g1 * b.g2 * np.conj(b.mbar) + b.g1**2 * (2 * b.nbar + 1)) / SQUEEZED.kappa
    second = -(2 * b.g1 * b.g2 * b.mbar + b.g2**2 * (2 * b.nbar + 1)) / (
        SQUEEZED.kappa + 1j * (-b.delta_diff + b.sigma_sum)
    )
    assert k[1, 1] == pytest.approx(first_term + second, rel=1e-12)


def test_sum_frequency_switch_drops_far_pole():
    with_sum = squeezed_kernel_freq(SQUEEZED, 0.0)
    without = squeezed_kernel_freq(SQUEEZED, 0.0, include_sum_frequency=False)
    b = bogoliubov_params(SQUEEZED)
    dropped = with_sum[1, 1] - without[1, 1]
    expected = -(2 * b.g1 * b.g2 * b.mbar + b.g2**2 * (2 * b.nbar + 1)) / (
        SQUEEZED.kappa + 1j * b.sigma_sum
    )
    assert dropped == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# closed-form spectra
# --------------------------------------------------------------------------


def test_markovian_spectrum_peak_and_area():
    rates = effective_rates(THERMAL)
    peak = markovian_spectrum(THERMAL, rates.delta_eff)
    assert peak == pytest.approx(1.0 / (np.pi * rates.gamma_eff), rel=1e-12)
    grid = default_frequency_grid(THERMAL)
    area = np.trapezoid(markovian_spectrum(THERMAL, grid), grid)
    assert abs(area - 1.0) < 1e-3


def test_markovian_spectrum_resonant_rates():
    p = ThermalBathParams(g=1.0, omega_q=100.0, omega_c=100.0, kappa=5.0, nbar=0.3)
    r = effective_rates(p)
    assert r.delta_eff == pytest.approx(0.0, abs=1e-15)
    assert r.gamma_eff == pytest.approx((2 * 0.3 + 1) / 5.0, rel=1e-12)


def test_markovian_spectrum_rejects_nonpositive_width():
    # g**2 underflows to 0: no induced rate, so no Lorentzian
    with pytest.raises(ValueError, match="gamma_eff"):
        markovian_spectrum(ThermalBathParams(g=1e-200, omega_q=120.0, omega_c=100.0, kappa=8.0, nbar=0.2), 0.0)


def test_frozen_kernel_reproduces_markovian_exactly():
    grid = np.linspace(-500, 500, 2001)
    frozen = emission_spectrum(thermal_propagator(THERMAL, markov=True), grid)
    markov = make_spectrum(grid, markovian_spectrum(THERMAL, grid))
    assert np.abs(frozen.values - markov.values).max() < 1e-12


def test_thermal_spectrum_quartic_tail():
    w = 10 * (abs(THERMAL.delta) + THERMAL.kappa)
    s1 = thermal_closed_spectrum(THERMAL, 10 * w)
    s2 = thermal_closed_spectrum(THERMAL, 20 * w)
    ratio = (s1 * (10 * w) ** 4) / (s2 * (20 * w) ** 4)
    assert abs(ratio - 1.0) < 0.05


def test_thermal_spectrum_side_peak_near_minus_delta():
    fn = lambda d: thermal_closed_spectrum(THERMAL, d)
    pos = locate_peak(fn, -THERMAL.delta, 5 * THERMAL.kappa, THERMAL.kappa / 50.0)
    assert abs(pos + THERMAL.delta) < THERMAL.kappa


def test_thermal_spectrum_positive():
    grid = default_frequency_grid(THERMAL)
    assert thermal_closed_spectrum(THERMAL, grid).min() > 0.0


def test_squeezed_spectrum_reduces_to_thermal():
    p0 = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=1e-12, kappa=10.0)
    therm = ThermalBathParams(g=1.0, omega_q=200.0, omega_c=320.0, kappa=10.0, nbar=0.0)
    grid = np.linspace(-400, 400, 4001)
    assert np.abs(squeezed_closed_spectrum(p0, grid) - thermal_closed_spectrum(therm, grid)).max() < 1e-10


def test_squeezed_resonance_single_peak_when_effective_detuning_vanishes():
    r_res = float(np.sqrt(320.0**2 - 200.0**2))
    p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=r_res, kappa=10.0)
    b = bogoliubov_params(p)
    assert abs(b.delta_diff) < 1e-9
    grid = np.linspace(-150.0, 150.0, 30001)
    vals = squeezed_closed_spectrum(p, grid)
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    assert interior.sum() == 1


def test_squeezed_steady_population_limits():
    p0 = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=0.0, kappa=10.0)
    assert squeezed_steady_ground_population(p0) == pytest.approx(1.0, abs=1e-12)
    pop = squeezed_steady_ground_population(SQUEEZED)
    assert 0.0 < pop < 1.0


def test_squeezed_steady_population_thermal_form():
    # with mbar and g2 forced to zero the familiar occupation ratio appears
    b = bogoliubov_params(SQUEEZED)
    nb = 0.4
    k, dd, ss = SQUEEZED.kappa, b.delta_diff, b.sigma_sum
    g1, g2, m = 1.0, 0.0, 0.0
    num = k * ((nb + 1) * g1**2 * (k**2 + ss**2) + nb * g2**2 * (k**2 + dd**2))
    den = (2 * nb + 1) * k * (g1**2 * (k**2 + ss**2) + g2**2 * (k**2 + dd**2))
    assert num / den == pytest.approx((nb + 1) / (2 * nb + 1), rel=1e-12)


def test_default_grid_monotone_and_spans_features():
    grid = default_frequency_grid(THERMAL)
    assert grid.size >= 2**14
    assert np.all(np.diff(grid) > 0)
    assert grid[0] < -THERMAL.delta - 5 * THERMAL.kappa
    assert grid[-1] > THERMAL.delta + 5 * THERMAL.kappa


def test_locate_peak_refines_to_analytic_maximum():
    rates = effective_rates(THERMAL)
    fn = lambda d: markovian_spectrum(THERMAL, d)
    pos = locate_peak(fn, 0.0, 5 * THERMAL.kappa, THERMAL.kappa / 50.0)
    assert abs(pos - rates.delta_eff) < 1e-6
