import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import fwhm, kl_divergence, spectral_measure
import fdqme
from fdqme import baths, measures
from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    _squeezed_line,
    _thermal_line,
    bogoliubov_params,
    default_frequency_grid,
    effective_rates,
    kernel_modes,
    markovian_spectrum,
    thermal_closed_spectrum,
)
from fdqme.fdme import Spectrum, make_spectrum
from fdqme.liouville import qubit_state
from fdqme.measures import (
    MeasureResult,
    backflow,
    bath_measure,
    blp_measure,
    spectral_gap,
    trace_distance,
)
from fdqme.measures import PANEL_NODES, _mapped_divergence, gauss_legendre
from fdqme.redfield import bm_evolve, br_evolve

THERMAL = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 50.0, kappa=10.0, nbar=0.1)


def lorentzian_spectrum(grid, center, width):
    return make_spectrum(grid, (width / np.pi) / ((grid - center) ** 2 + width**2))


# --------------------------------------------------------------------------
# relative entropy
# --------------------------------------------------------------------------


def test_kl_zero_for_identical():
    grid = np.linspace(-50, 50, 20001)
    s = lorentzian_spectrum(grid, 0.0, 1.0)
    assert kl_divergence(s, s) == 0.0


def test_kl_offset_lorentzians_matches_dense_quadrature():
    # oracle: same integrand on a 16x denser grid
    gamma = 1.0
    grid = np.linspace(-600, 600, 60001)
    fine = np.linspace(-600, 600, 960001)
    s = lorentzian_spectrum(grid, gamma, gamma)
    s_ref = lorentzian_spectrum(grid, 0.0, gamma)
    dense_p = (gamma / np.pi) / ((fine - gamma) ** 2 + gamma**2)
    dense_q = (gamma / np.pi) / (fine**2 + gamma**2)
    dense_p /= np.trapezoid(dense_p, fine)
    dense_q /= np.trapezoid(dense_q, fine)
    expected = np.trapezoid(dense_p * np.log2(dense_p / dense_q), fine)
    assert kl_divergence(s, s_ref) == pytest.approx(expected, abs=1e-6)


def test_kl_is_asymmetric():
    grid = default_frequency_grid(THERMAL)
    s = make_spectrum(grid, thermal_closed_spectrum(THERMAL, grid))
    s_m = make_spectrum(grid, markovian_spectrum(THERMAL, grid))
    assert kl_divergence(s, s_m) != pytest.approx(kl_divergence(s_m, s), rel=1e-3)


def test_kl_nonnegative_on_perturbed_pair():
    rng = np.random.default_rng(3)
    grid = np.linspace(-30, 30, 30001)
    base = (1.0 / np.pi) / (grid**2 + 1.0)
    bump = base * (1.0 + 0.2 * np.exp(-((grid - 2.0) ** 2)))
    s = make_spectrum(grid, bump)
    s_ref = make_spectrum(grid, base)
    assert kl_divergence(s, s_ref) > 0.0
    assert kl_divergence(s_ref, s) > 0.0


def test_kl_requires_common_grid_and_normalization():
    grid = np.linspace(-10, 10, 101)
    s = lorentzian_spectrum(grid, 0.0, 1.0)
    other = lorentzian_spectrum(np.linspace(-9, 11, 101), 0.0, 1.0)
    with pytest.raises(ValueError, match="common grid"):
        kl_divergence(s, other)
    raw = Spectrum(grid, (1 / np.pi) / (grid**2 + 1), norm=1.0)
    with pytest.raises(ValueError, match="normalized"):
        kl_divergence(raw, s)


def test_kl_rejects_vanishing_reference():
    grid = np.linspace(-10, 10, 1001)
    s = lorentzian_spectrum(grid, 0.0, 1.0)
    ref_vals = np.where(np.abs(grid) < 5, (1 / np.pi) / (grid**2 + 1), 0.0)
    s_ref = Spectrum(grid=grid, values=ref_vals / np.trapezoid(ref_vals, grid), norm=1.0, normalized=True)
    with pytest.raises(ValueError, match="vanishes"):
        kl_divergence(s, s_ref)


# --------------------------------------------------------------------------
# spectral gap and measure
# --------------------------------------------------------------------------


def test_spectral_gap_resonant_thermal():
    p = ThermalBathParams(g=1.0, omega_q=100.0, omega_c=100.0, kappa=5.0, nbar=0.1)
    gap = spectral_gap(p)
    assert gap == pytest.approx((2 * p.nbar + 1) * p.g**2 / p.kappa, rel=1e-9)


def test_spectral_gap_is_smallest_decay_eigenvalue():
    # 4x4 eigendecomposition oracle of the Markov-limit generator
    from fdqme.baths import free_liouvillian
    from fdqme.redfield import bm_induced_generator

    gen = free_liouvillian(THERMAL) + bm_induced_generator(THERMAL)
    decay = np.abs(np.real(np.linalg.eigvals(gen)))
    decay = decay[decay > 1e-9 * decay.max()]
    assert spectral_gap(THERMAL) == pytest.approx(decay.min(), rel=1e-10)


def test_fwhm_of_lorentzian():
    grid = np.linspace(-50, 50, 200001)
    s = lorentzian_spectrum(grid, 0.7, 2.0)
    assert fwhm(s) == pytest.approx(4.0, rel=1e-6)


def test_spectral_measure_zero_iff_identical():
    grid = default_frequency_grid(THERMAL)
    s_m = make_spectrum(grid, markovian_spectrum(THERMAL, grid))
    res = spectral_measure(s_m, s_m, spectral_gap(THERMAL))
    assert res.value == 0.0
    assert res.method == "spectral"
    s = make_spectrum(grid, thermal_closed_spectrum(THERMAL, grid))
    assert spectral_measure(s, s_m, spectral_gap(THERMAL)).value > 0.0


def test_spectral_measure_axis_rescaling_enters_only_through_gap():
    grid = default_frequency_grid(THERMAL)
    s = make_spectrum(grid, thermal_closed_spectrum(THERMAL, grid))
    s_m = make_spectrum(grid, markovian_spectrum(THERMAL, grid))
    gap = spectral_gap(THERMAL)
    base = spectral_measure(s, s_m, gap).value
    # stretch the frequency axis by 2 and renormalize: densities halve,
    # the relative entropy is invariant, the bandwidth doubles
    s2 = make_spectrum(2.0 * grid, s.values / 2.0)
    s2_m = make_spectrum(2.0 * grid, s_m.values / 2.0)
    scaled = spectral_measure(s2, s2_m, 2.0 * gap).value
    assert scaled == pytest.approx(base / 2.0, rel=1e-9)


def test_measure_result_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        MeasureResult(value=-0.1, method="spectral")


def test_thermal_measure_monotonic_in_kappa_and_detuning():
    # Markov limit improves with cavity linewidth and degrades with detuning
    kappas = [20.0, 50.0, 100.0, 200.0]
    vals = []
    for kappa in kappas:
        p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 30.0, kappa=kappa, nbar=0.1)
        vals.append(bath_measure(p).value)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    deltas = [30.0, 60.0, 120.0, 240.0]
    vals = []
    for delta in deltas:
        p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - delta, kappa=10.0, nbar=0.1)
        vals.append(bath_measure(p).value)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def _quad_divergence(p, features):
    """Relative entropy (bits) of a bath's line from its Markov Lorentzian by adaptive quadrature in delta.

    Over the whole axis: [-span, span] is split at the line core, at geometric
    steps from it and around each feature, and quad maps the two tails.  The
    integrand is v log(v/q) - v + q, with v the normalized line, which is
    nonnegative and integrates to the divergence.
    """
    modes = kernel_modes(p)
    line = _thermal_line if isinstance(p, ThermalBathParams) else _squeezed_line
    rates = effective_rates(p)
    d0, gamma = rates.delta_eff, rates.gamma_eff
    span = max(abs(f) for f in features) + 1000.0 * p.kappa
    points = {d0} | {d0 + s * gamma * 8.0**k for s in (-1, 1) for k in range(30) if gamma * 8.0**k < span}
    points |= {f + m * p.kappa for f in features for m in (-6, -1, 0, 1, 6)}
    edges = [-span, *sorted(x for x in points if abs(x) < span), span]

    def integral(fn):
        inner = sum(quad(fn, a, b, epsabs=1e-15, epsrel=1e-10, limit=100)[0] for a, b in zip(edges, edges[1:]))
        return inner + sum(quad(fn, a, b, epsabs=0.0, epsrel=1e-10)[0] for a, b in ((-np.inf, -span), (span, np.inf)))

    def density(d):
        return float(line(modes, np.asarray(d, dtype=float)))

    z = integral(density)

    def integrand(d):
        v, q = density(d) / z, float(markovian_spectrum(p, d))
        return (v * np.log(v / q) - v + q) / np.log(2.0) if v > 0.0 else q / np.log(2.0)

    return integral(integrand), z


@pytest.mark.parametrize("p", [
    ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 100.0, kappa=10.0, nbar=0.1),
    ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 1.0, kappa=30.0, nbar=0.0),
    SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0),
], ids=["thermal-detuned", "thermal-broad", "squeezed"])
def test_bath_measure_matches_adaptive_quadrature_over_the_whole_line(p):
    # oracle: scipy's adaptive quadrature in delta itself, with neither the tan map nor the panels
    if isinstance(p, ThermalBathParams):
        features = [-p.delta]
    else:
        b = bogoliubov_params(p)
        features = [-b.delta_diff, -b.sigma_sum, -2.0 * p.delta_q]
    kl, z = _quad_divergence(p, features)
    res = bath_measure(p)
    assert res.value * res.metadata["gap"] == pytest.approx(kl, rel=1e-9)
    assert abs(res.metadata["z_minus_1"]) < 1e-12 and abs(z - 1.0) < 1e-12
    assert res.metadata["quadrature_rel_diff"] < 1e-6
    assert res.metadata["gap"] == spectral_gap(p)


@pytest.mark.parametrize("n", [1, 2, 7, 32, 64, 128])
def test_gauss_legendre_nodes_and_weights_match_numpy(n):
    from numpy.polynomial.legendre import leggauss

    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = leggauss(n)
    assert np.abs(nodes - ref_nodes).max() < 1e-14
    assert np.abs(weights - ref_weights).max() < 1e-14
    assert gauss_legendre(n) is gauss_legendre(n)
    assert not (nodes.flags.writeable or weights.flags.writeable)


def test_unconverged_quadrature_raises():
    # 4 and 8 nodes per panel differ by about 1e-2 on this line
    with pytest.raises(ValueError, match="mapped quadrature did not converge: 4 and 8 nodes per panel"):
        _mapped_divergence(THERMAL, kernel_modes(THERMAL), 4)
    _, metadata = _mapped_divergence(THERMAL, kernel_modes(THERMAL), PANEL_NODES)
    assert metadata["quadrature_rel_diff"] < 1e-6 and metadata["n_nodes"] % (2 * PANEL_NODES) == 0


def test_bath_measure_builds_each_mode_table_once(monkeypatch):
    # the thermal line and its gap share one table; the squeezed line takes the full table and
    # its gap the one without sum-frequency modes, bm_induced_generator's default
    calls = []

    def counted(name):
        build = getattr(baths, name)

        def wrapper(p, *args):
            calls.append((name, *args))
            return build(p, *args)

        return wrapper

    for name in ("_thermal_modes", "_squeezed_modes"):
        monkeypatch.setattr(baths, name, counted(name))
    bath_measure(THERMAL)
    assert calls == [("_thermal_modes",)]
    calls.clear()
    bath_measure(SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0))
    assert sorted(calls) == [("_squeezed_modes", False), ("_squeezed_modes", True)]


def test_bath_measure_rejects_a_vanishing_linewidth():
    # g**2 underflows to 0: no induced rate, so no Lorentzian to map
    with pytest.raises(ValueError, match="gamma_eff must be positive"):
        p = ThermalBathParams(g=1e-200, omega_q=120.0, omega_c=100.0, kappa=8.0, nbar=0.2)
        _mapped_divergence(p, kernel_modes(p), PANEL_NODES)


def test_bath_measure_rejects_a_negative_line(monkeypatch):
    # a closed form that dips below zero (or is not finite) cannot be a density
    monkeypatch.setattr(measures, "_thermal_line", lambda modes, delta: np.where(delta > 0.0, -1e-3, np.nan))
    with pytest.raises(ValueError, match="closed-form line is negative or not finite at a quadrature node"):
        bath_measure(THERMAL)


def test_bath_measure_does_not_import_numpy_polynomial():
    code = ("import sys\n"
            "from fdqme import SqueezedBathParams, ThermalBathParams, bath_measure\n"
            "bath_measure(ThermalBathParams(1.0, 2.0e5, 2.0e5 - 50.0, 10.0, 0.1))\n"
            "bath_measure(SqueezedBathParams(1.0, 200.0, 320.0, 115.0, 10.0))\n"
            "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fdqme.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# trace distance and backflow
# --------------------------------------------------------------------------


def test_trace_distance_reference_values():
    assert trace_distance(qubit_state("g"), qubit_state("g")) == 0.0
    assert trace_distance(qubit_state("g"), qubit_state("e")) == pytest.approx(1.0)
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert trace_distance(rho, qubit_state("mixed")) == pytest.approx(0.25)


def test_blp_is_the_backflow_of_trace_distance():
    kappa = 20.0
    p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 8.5 * kappa, kappa=kappa, nbar=0.1)
    tg, te = (br_evolve(p, qubit_state(state), np.linspace(0.0, 0.6, 61)) for state in ("g", "e"))
    dists = trace_distance(tg.states.reshape(-1, 2, 2), te.states.reshape(-1, 2, 2))
    # the stacked call gives each state pair's distance, bit for bit
    assert all(d == trace_distance(a, b) for d, a, b in zip(dists, tg.states, te.states))
    increments = np.diff(dists)
    assert blp_measure(tg, te).value == backflow(dists) == float(increments[increments > 0].sum()) > 0.0
    assert backflow([1.0, 0.5, 0.75, 0.25, 0.5]) == 0.5


def test_trace_distance_rejects_nonhermitian_difference():
    rho = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        trace_distance(rho, qubit_state("mixed"))


def test_blp_zero_for_markov_semigroup():
    p = ThermalBathParams(g=1.0, omega_q=150.0, omega_c=130.0, kappa=8.0, nbar=0.1)
    ts = np.linspace(0.0, 5.0, 2001)
    t1 = bm_evolve(p, qubit_state("g").reshape(-1), ts)
    t2 = bm_evolve(p, qubit_state("e").reshape(-1), ts)
    assert blp_measure(t1, t2).value < 1e-8


def test_blp_positive_for_oscillatory_rates():
    kappa = 20.0
    p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 8.5 * kappa, kappa=kappa, nbar=0.1)
    ts = np.linspace(0.0, 0.6, 3001)
    t1 = br_evolve(p, qubit_state("g").reshape(-1), ts)
    t2 = br_evolve(p, qubit_state("e").reshape(-1), ts)
    assert blp_measure(t1, t2).value > 1e-5


def test_blp_grid_refinement_converged():
    kappa = 20.0
    p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 8.5 * kappa, kappa=kappa, nbar=0.1)
    vals = []
    for n in (3001, 6001):
        ts = np.linspace(0.0, 0.6, n)
        t1 = br_evolve(p, qubit_state("g").reshape(-1), ts)
        t2 = br_evolve(p, qubit_state("e").reshape(-1), ts)
        vals.append(blp_measure(t1, t2).value)
    assert abs(vals[1] - vals[0]) / vals[1] < 0.01


def test_blp_requires_common_grid():
    p = ThermalBathParams(g=1.0, omega_q=150.0, omega_c=130.0, kappa=8.0, nbar=0.1)
    t1 = bm_evolve(p, qubit_state("g").reshape(-1), np.linspace(0, 1, 11))
    t2 = bm_evolve(p, qubit_state("e").reshape(-1), np.linspace(0, 2, 11))
    with pytest.raises(ValueError, match="common time grid"):
        blp_measure(t1, t2)
