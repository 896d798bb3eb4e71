import numpy as np
import pytest
from conftest import br_reference

from fdqme import redfield
from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    effective_rates,
    thermal_kernel_time,
)
from fdqme.liouville import qubit_state
from fdqme.redfield import (
    Trajectory,
    bm_evolve,
    bm_induced_generator,
    br_correlator,
    br_evolve,
    br_induced_generator,
    br_rates_squeezed,
    br_rates_thermal,
    br_spectrum,
    rates_generator_squeezed,
    rates_generator_thermal,
)

THERMAL = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 50.0, kappa=10.0, nbar=0.1)
FIG8 = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=120.0, r=float(np.sqrt(120.0**2 - 34.0**2)), kappa=10.0)


# --------------------------------------------------------------------------
# rates
# --------------------------------------------------------------------------


def test_thermal_rates_vanish_at_zero():
    r = br_rates_thermal(THERMAL, 0.0)
    assert r.delta_eff == 0.0
    assert r.gamma_eff == 0.0


def test_thermal_rates_long_time_limits():
    r = br_rates_thermal(THERMAL, 1e3)
    d, kp, g2 = THERMAL.delta, THERMAL.kappa, THERMAL.g**2
    assert float(r.gamma_eff) == pytest.approx(g2 * kp / (d**2 + kp**2), rel=1e-12)
    assert float(r.delta_eff) == pytest.approx(g2 * d / (d**2 + kp**2), rel=1e-12)
    # times (2 nbar + 1) these are the Markov-limit spectral rates
    eff = effective_rates(THERMAL)
    assert (2 * THERMAL.nbar + 1) * float(r.gamma_eff) == pytest.approx(eff.gamma_eff, rel=1e-12)


def test_thermal_rates_closed_form_expression():
    t = 0.173
    r = br_rates_thermal(THERMAL, t)
    d, kp, g2 = THERMAL.delta, THERMAL.kappa, THERMAL.g**2
    pref = g2 / (d**2 + kp**2)
    env = np.exp(-kp * t)
    expected_gamma = pref * (kp * (1 - env * np.cos(d * t)) + d * env * np.sin(d * t))
    expected_delta = pref * (d * (1 - env * np.cos(d * t)) - kp * env * np.sin(d * t))
    assert float(r.gamma_eff) == pytest.approx(expected_gamma, rel=1e-12)
    assert float(r.delta_eff) == pytest.approx(expected_delta, rel=1e-12)


def test_thermal_rate_decomposition_matches_kernel_integral():
    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 1.0, size=6):
        gen_rates = rates_generator_thermal(THERMAL, br_rates_thermal(THERMAL, float(t)))
        gen_modes = br_induced_generator(THERMAL, float(t))
        assert np.abs(gen_rates - gen_modes).max() < 1e-9


def test_thermal_rate_integral_matches_quadrature_of_kernel():
    from scipy.integrate import quad_vec

    t = 0.21
    phases = np.array([0.0, -THERMAL.omega_q, THERMAL.omega_q, 0.0])

    def integrand(s):
        return thermal_kernel_time(THERMAL, s) * np.exp(1j * phases[None, :] * s)

    val, _ = quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=2000)
    assert np.abs(val - br_induced_generator(THERMAL, t)).max() < 1e-9


def test_squeezed_rates_conjugate_pair_and_thermal_limit():
    t = np.linspace(0.0, 1.0, 11)
    r = br_rates_squeezed(FIG8, t)
    assert np.allclose(r.gamma_mm, np.conj(r.gamma_pp), atol=0)
    p0 = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=150.0, r=1e-14, kappa=10.0)
    r0 = br_rates_squeezed(p0, t)
    therm = ThermalBathParams(g=1.0, omega_q=200.0, omega_c=150.0, kappa=10.0, nbar=0.0)
    rt = br_rates_thermal(therm, t)
    assert np.abs(r0.gamma_mp - rt.gamma_eff).max() < 1e-10
    assert np.abs(r0.delta_pm - rt.delta_eff).max() < 1e-10
    assert np.abs(r0.gamma_pm).max() < 1e-10
    assert np.abs(r0.gamma_pp).max() < 1e-10


def test_squeezed_rate_decomposition_matches_kernel_integral():
    rng = np.random.default_rng(6)
    for t in rng.uniform(0.0, 0.8, size=6):
        gen_rates = rates_generator_squeezed(br_rates_squeezed(FIG8, float(t)))
        gen_modes = br_induced_generator(FIG8, float(t))
        assert np.abs(gen_rates - gen_modes).max() < 1e-9


def test_squeezed_rate_decomposition_with_sum_frequency():
    t = 0.31
    gen_rates = rates_generator_squeezed(br_rates_squeezed(FIG8, t, include_sum_frequency=True))
    gen_modes = br_induced_generator(FIG8, t, include_sum_frequency=True)
    assert np.abs(gen_rates - gen_modes).max() < 1e-9


def test_markov_generator_is_long_time_limit():
    late = br_induced_generator(THERMAL, 1e4)
    frozen = bm_induced_generator(THERMAL)
    assert np.abs(late - frozen).max() < 1e-12


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------


def test_br_thermal_reaches_detailed_balance():
    p = ThermalBathParams(g=1.0, omega_q=150.0, omega_c=150.0, kappa=5.0, nbar=0.1)
    ts = np.linspace(0.0, 80.0, 161)
    traj = br_evolve(p, qubit_state("e").reshape(-1), ts)
    assert abs(traj.states[-1, 0].real - 11.0 / 12.0) < 1e-6
    assert abs(traj.states[-1, 3].real - 1.0 / 12.0) < 1e-6
    # the thermal bath never produces a positivity violation
    assert traj.purities().max() <= 1.0 + 1e-9


def test_br_thermal_stays_positive_across_regimes():
    # positivity is frame independent, so a modest carrier keeps the
    # coherence integration cheap
    for kappa, delta in ((0.5, 10.0), (10.0, 100.0), (20.0, 170.0)):
        p = ThermalBathParams(g=1.0, omega_q=300.0, omega_c=300.0 - delta, kappa=kappa, nbar=0.1)
        ts = np.linspace(0.0, 10.0 / kappa, 800)
        traj = br_evolve(p, qubit_state("x+").reshape(-1), ts)
        mats = traj.states.reshape(-1, 2, 2)
        assert np.linalg.eigvalsh(mats).min() > -1e-8


def test_br_weak_coupling_keeps_coherence_magnitude():
    p = ThermalBathParams(g=1e-6, omega_q=50.0, omega_c=40.0, kappa=5.0, nbar=0.0)
    ts = np.linspace(0.0, 2.0, 41)
    traj = br_evolve(p, qubit_state("x+").reshape(-1), ts)
    mags = np.abs(traj.states[:, 1])
    assert np.abs(mags - 0.5).max() < 1e-9


def test_br_squeezed_positivity_violation_fig8_regime():
    ts = np.linspace(0.0, 3.0, 1500)
    traj = br_evolve(FIG8, qubit_state("y-").reshape(-1), ts)
    assert traj.purities().max() > 1.0 + 1e-4


THERMAL_300 = ThermalBathParams(g=1.0, omega_q=300.0, omega_c=250.0, kappa=10.0, nbar=0.1)


@pytest.mark.parametrize(
    "p, state, ts",
    [
        (THERMAL_300, "x+", np.linspace(0.0, 0.5, 51)),
        (THERMAL_300, "e", np.linspace(0.0, 0.5, 51)),
        # about 400 carrier radians at omega_q = 2e5
        (THERMAL, "x+", np.linspace(0.0, 0.002, 41)),
        (THERMAL, "e", np.linspace(0.0, 0.5, 51)),
        (FIG8, "y-", np.linspace(0.0, 1.0, 101)),
    ],
    ids=["thermal-300-x+", "thermal-300-e", "thermal-2e5-x+", "thermal-2e5-e", "fig8-y-"],
)
def test_br_evolve_matches_tight_reference(p, state, ts):
    rho0 = qubit_state(state).reshape(-1)
    traj = br_evolve(p, rho0, ts)
    assert np.abs(traj.states - br_reference(p, rho0, ts)).max() < 1e-8


def test_br_evolve_does_not_depend_on_the_output_grid():
    rho0 = qubit_state("y-").reshape(-1)
    coarse = br_evolve(FIG8, rho0, np.linspace(0.0, 3.0, 41))
    fine = br_evolve(FIG8, rho0, np.linspace(0.0, 3.0, 1201))
    assert np.abs(coarse.states - fine.states[::30]).max() < 1e-9


def test_br_evolve_prepares_the_state_at_time_zero():
    rho0 = qubit_state("y-").reshape(-1)
    full = br_evolve(FIG8, rho0, np.array([0.0, 2.0]))
    late = br_evolve(FIG8, rho0, np.array([0.5, 2.0]))
    assert np.abs(full.states[-1] - late.states[-1]).max() < 1e-9
    # the running rates have acted by t = 0.5, so the state has moved
    assert np.abs(late.states[0] - rho0).max() > 1e-3
    with pytest.raises(ValueError, match="nonnegative"):
        br_evolve(FIG8, rho0, np.array([-0.1, 1.0]))


@pytest.mark.parametrize(
    "free",
    [np.full((4, 4), np.nan), np.diag([0.0, 5.0e3, -5.0e3, 0.0])],
    ids=["not-finite", "overflowing"],
)
def test_br_evolve_raises_when_the_step_size_underflows(monkeypatch, free):
    monkeypatch.setattr(redfield, "free_liouvillian", lambda p: free.astype(complex))
    with pytest.raises(RuntimeError, match="integration failed"):
        br_evolve(THERMAL_300, qubit_state("x+").reshape(-1), np.linspace(0.0, 1.0, 11))


def test_bm_thermal_matches_rate_equation():
    p = ThermalBathParams(g=1.0, omega_q=120.0, omega_c=100.0, kappa=8.0, nbar=0.2)
    ts = np.linspace(0.0, 60.0, 301)
    traj = bm_evolve(p, qubit_state("e").reshape(-1), ts)
    gamma_inf = p.g**2 * p.kappa / (p.delta**2 + p.kappa**2)
    rate = 2.0 * gamma_inf * (2 * p.nbar + 1)
    p_inf = p.nbar / (2 * p.nbar + 1)
    expected = p_inf + (1.0 - p_inf) * np.exp(-rate * ts)
    assert np.abs(traj.excited_population() - expected).max() < 1e-10


def test_bm_thermal_trajectory_is_positive():
    p = ThermalBathParams(g=1.0, omega_q=120.0, omega_c=100.0, kappa=8.0, nbar=0.2)
    ts = np.linspace(0.0, 40.0, 201)
    traj = bm_evolve(p, qubit_state("x+").reshape(-1), ts)
    mats = traj.states.reshape(-1, 2, 2)
    assert np.linalg.eigvalsh(mats).min() > -1e-10


def test_bm_converges_to_br_for_fast_cavity():
    # derived regime-limit values: the residual transient mismatch scales
    # as 1/kappa^2 and sits near 2e-4 at kappa/g = 100
    for kappa, bound in ((100.0, 3e-4), (200.0, 8e-5)):
        p = ThermalBathParams(g=1.0, omega_q=150.0, omega_c=150.0, kappa=kappa, nbar=0.1)
        ts = np.linspace(0.0, 40.0, 81)
        tb = br_evolve(p, qubit_state("e").reshape(-1), ts)
        tm = bm_evolve(p, qubit_state("e").reshape(-1), ts)
        assert np.abs(tb.states - tm.states).max() < bound


def test_bm_squeezed_transient_purity_violation():
    p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=316.0, kappa=10.0)
    ts = np.linspace(0.0, 3.0, 3000)
    traj = bm_evolve(p, qubit_state("x+").reshape(-1), ts)
    assert traj.purities().max() > 1.0 + 1e-4


def test_trajectory_validation():
    ts = np.array([0.0, 1.0])
    bad_trace = np.array([[0.6, 0, 0, 0.6], [0.6, 0, 0, 0.6]], dtype=complex)
    with pytest.raises(ValueError, match="trace"):
        Trajectory(times=ts, states=bad_trace)
    bad_herm = np.array([[0.5, 0.1j, 0.1j, 0.5]] * 2, dtype=complex)
    with pytest.raises(ValueError, match="Hermiticity"):
        Trajectory(times=ts, states=bad_herm)


# --------------------------------------------------------------------------
# correlator and spectrum
# --------------------------------------------------------------------------


def test_correlator_normalization_and_free_limit():
    assert br_correlator(THERMAL, 0.0) == pytest.approx(1.0)
    p = ThermalBathParams(g=1e-8, omega_q=30.0, omega_c=20.0, kappa=4.0, nbar=0.1)
    taus = np.linspace(0.0, 2.0, 21)
    g = br_correlator(p, taus)
    assert np.abs(g - np.exp(1j * p.omega_q * taus)).max() < 1e-12


def test_correlator_envelope_asymptotic_decay():
    taus = np.array([40.0, 80.0])
    g = br_correlator(THERMAL, taus)
    rate = np.real((2 * THERMAL.nbar + 1) * THERMAL.g**2 / (THERMAL.kappa + 1j * THERMAL.delta))
    measured = -np.log(np.abs(g[1]) / np.abs(g[0])) / (taus[1] - taus[0])
    assert measured == pytest.approx(rate, rel=1e-6)


def test_br_spectrum_weak_coupling_is_markovian():
    p = ThermalBathParams(g=1e-3, omega_q=1e3, omega_c=1e3 - 50.0, kappa=10.0, nbar=0.1)
    rates = effective_rates(p)
    grid = np.linspace(-60 * rates.gamma_eff, 60 * rates.gamma_eff, 4001) + rates.delta_eff
    from fdqme.baths import markovian_spectrum
    from fdqme.fdme import make_spectrum

    s_br = br_spectrum(p, grid)
    s_m = make_spectrum(grid, markovian_spectrum(p, grid))
    assert np.abs(s_br.values - s_m.values).max() / s_m.values.max() < 1e-4


def test_br_spectrum_side_peak_separation_is_bare_detuning():
    # resolvable regime: shifts large compared to the search resolution
    p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 10.0, kappa=0.5, nbar=1.0)
    rates = effective_rates(p)
    from fdqme.baths import locate_peak

    def density(d):
        d = np.atleast_1d(np.asarray(d, dtype=float))
        denom = p.delta**2 + p.kappa**2
        a_lor = (rates.delta_eff * p.delta - rates.gamma_eff * p.kappa) / denom
        a_fano = (rates.gamma_eff * p.delta + rates.delta_eff * p.kappa) / denom
        x = d - rates.delta_eff + p.delta
        w = rates.gamma_eff + p.kappa
        vals = (rates.gamma_eff / np.pi) / ((d - rates.delta_eff) ** 2 + rates.gamma_eff**2)
        return vals + (a_lor * w + a_fano * x) / (np.pi * (x**2 + w**2))

    central = locate_peak(density, rates.delta_eff, 5 * rates.gamma_eff, rates.gamma_eff / 50)
    side = locate_peak(density, -p.delta, 5 * p.kappa, p.kappa / 50)
    separation = central - side
    assert abs(separation - p.delta) < 0.2 * p.kappa
    # and clearly distinct from the frequency-domain separation delta + 2 delta_eff
    assert abs(separation - (p.delta + 2 * rates.delta_eff)) > 0.2 * p.kappa


def test_br_spectrum_fft_route_agrees_with_closed_form():
    p = ThermalBathParams(g=1.0, omega_q=1.0e3, omega_c=1.0e3 - 50.0, kappa=10.0, nbar=0.1)
    grid = np.linspace(-120.0, 60.0, 2001)
    s_closed = br_spectrum(p, grid, method="closed-form")
    s_fft = br_spectrum(p, grid, method="correlator-fft")
    assert np.abs(s_closed.values - s_fft.values).max() / s_closed.values.max() < 5e-3


def test_br_spectrum_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        br_spectrum(THERMAL, np.linspace(-1, 1, 11), method="magic")
