import conftest
import numpy as np
import pytest
from scipy.integrate import DOP853
from conftest import (
    br_correlator,
    br_fft_spectrum,
    br_quadrature_line,
    br_rates_squeezed,
    br_rates_thermal,
    br_reference,
    locate_peak,
    rates_generator_squeezed,
    rates_generator_thermal,
    running_kernel_integral,
)

from fdqme import redfield
from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    effective_rates,
    free_liouvillian,
    kernel_modes,
    thermal_kernel_time,
)
from fdqme.liouville import qubit_state
from fdqme.measures import trace_distance
from fdqme.redfield import (
    BR_SERIES_C_MAX,
    Trajectory,
    bm_evolve,
    bm_induced_generator,
    br_evolve,
    br_ge_distance,
    br_induced_generator,
    br_spectrum,
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
    # the FD-QME runs the table with sum-frequency modes
    t = 0.31
    gen_rates = rates_generator_squeezed(br_rates_squeezed(FIG8, t, include_sum_frequency=True))
    gen_modes = running_kernel_integral(kernel_modes(FIG8, include_sum_frequency=True))(t)
    assert np.abs(gen_rates - gen_modes).max() < 1e-9


def test_markov_generator_is_long_time_limit():
    late = br_induced_generator(THERMAL, 1e4)
    frozen = bm_induced_generator(THERMAL)
    assert np.abs(late - frozen).max() < 1e-12


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------


def test_dop853_tableau_equals_scipy_bit_for_bit():
    n = redfield._N_STAGES
    a, c = redfield._STAGE_A, redfield._STAGE_C
    literal = {"A": a[:n, :n], "B": a[n, :n], "C": c[:n], "A_EXTRA": a[n + 1:], "C_EXTRA": c[n + 1:],
               "E5": redfield._ERROR[0], "E3": redfield._ERROR[1], "D": redfield._DENSE}
    assert n == DOP853.n_stages
    for name, ours in literal.items():
        ref = getattr(DOP853, name)
        assert ours.dtype == ref.dtype == np.float64 and ours.shape == ref.shape, name
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64)), name
    # the stage at t + h, and explicit stages: nothing on or above the diagonal
    assert c[n] == 1.0 and a.shape == (16, 16) and not np.triu(a).any()


def test_window_prefix_products_equal_step_by_step_propagation():
    # a window takes its states from prefix products of its step matrices; one-step windows
    # propagate y_{w+1} = P_w y_w one mat-vec at a time (1.7e-15 relative at most)
    rng = np.random.default_rng(3)
    coef = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
    rate = rng.normal(size=(8, 1)) + 20j * rng.normal(size=(8, 1))

    def generator(starts, offsets):  # two stacked 2x2 blocks, every entry c e^{r t}
        return coef * np.exp(rate * np.add.outer(offsets, starts)[:, None, :])

    y0 = np.array([[1.0, 0.5j], [0.3, -0.2]])
    edges = 0.01 * np.arange(101)
    ys = redfield._window(generator, y0, edges, 0.01)[0]
    y = y0
    for w in range(100):
        y = redfield._window(generator, y, edges[w : w + 2], 0.01)[0][..., 1]
        assert np.abs(ys[..., w + 1] - y).max() <= 1e-13 * np.abs(y).max()


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
        (FIG8, "e", np.linspace(0.0, 1.0, 101)),
    ],
    ids=["thermal-300-x+", "thermal-300-e", "thermal-2e5-x+", "thermal-2e5-e", "fig8-y-", "fig8-e"],
)
def test_br_evolve_matches_tight_reference(p, state, ts):
    # at most 9.7e-12 (fig8-e: 1.5e-12; thermal-300-x+: 8.1e-12), 1.7e-15 for the thermal populations
    rho0 = qubit_state(state).reshape(-1)
    traj = br_evolve(p, rho0, ts)
    assert np.abs(traj.states - br_reference(p, rho0, ts)).max() < 1e-8


def test_br_evolve_matches_tight_reference_in_the_positivity_regime():
    # the positivity scenario's grid; 2.0e-12 in the frame of the Markov generator, 1.5e-11 in the frame
    # of the free phases, 1.9e-9 in the lab frame
    rho0 = qubit_state("y-").reshape(-1)
    ts = np.linspace(0.0, 2.0, 400)
    traj = br_evolve(FIG8, rho0, ts)
    assert np.abs(traj.states - br_reference(FIG8, rho0, ts)).max() < 1e-10
    # 276 accepted steps and no rejected window, against 547 and 2 in the frame of the free phases
    assert traj.diagnostics["accepted_steps"] <= 300
    assert traj.diagnostics["rejected_steps"] == 0


@pytest.mark.parametrize("spread", [0.0, 1e-9], ids=["defective", "ill-conditioned"])
@pytest.mark.parametrize("p, state", [(THERMAL_300, "x+"), (FIG8, "y-")], ids=["thermal-stacked", "squeezed-stacked"])
def test_br_evolve_integrates_a_nearly_defective_generator_in_the_frame_of_the_free_phases(
        monkeypatch, p, state, spread):
    # the population block of G_inf becomes [[-a, -c], [a, c]] with c = (1 - spread) a: trace preserving,
    # eigenvalues 0 and -spread a, nilpotent at spread 0, and eigenvectors (c, -a) and (1, -1) of
    # condition number about 2 / spread otherwise
    a = 0.2
    pop = np.ix_([0, 3], [0, 3])
    target = np.array([[-a, -(1 - spread) * a], [a, (1 - spread) * a]])
    extra = np.zeros((4, 4), dtype=complex)
    extra[pop] = target - redfield._running_generator(p)[2][pop]

    def patched(q):
        return free_liouvillian(q) + extra

    monkeypatch.setattr(redfield, "free_liouvillian", patched)
    monkeypatch.setattr(conftest, "free_liouvillian", patched)
    frames = []
    eigen_stack = redfield._eigen_stack
    monkeypatch.setattr(redfield, "_eigen_stack", lambda g: frames.append(eigen_stack(g)) or frames[-1])
    rho0 = qubit_state(state).reshape(-1)
    ts = np.linspace(0.0, 1.0, 101)
    traj = br_evolve(p, rho0, ts)
    assert frames == [None]
    assert np.abs(traj.states - br_reference(p, rho0, ts)).max() < 1e-8


def test_br_evolve_follows_the_closed_form_coherence_far_off_the_carrier():
    # the thermal coherence block is diagonal: rho_01(t) = 0.5 exp(int_0^t A_11), with
    # int_0^t A_11 = G_inf[1,1] t - sum_k E_k[1,1] expm1(lambda_k t) / lambda_k
    ts = np.linspace(0.0, 0.5, 201)
    traj = br_evolve(THERMAL, qubit_state("x+"), ts)
    lams, residues, g_inf = redfield._running_generator(THERMAL)
    integral = g_inf[1, 1] * ts - (np.expm1(np.multiply.outer(ts, lams[:, 1])) / lams[:, 1]) @ residues[:, 1, 1]
    assert np.abs(traj.states[:, 1] - 0.5 * np.exp(integral)).max() < 1e-10  # 9.6e-12
    # the free rotation at omega_q = 2e5 costs no steps: 22, against 302,503 in the lab frame
    assert traj.diagnostics["accepted_steps"] < 100


@pytest.mark.parametrize(
    "p, ts",
    [
        (THERMAL_300, np.linspace(0.0, 0.5, 51)),
        (THERMAL, np.linspace(0.0, 0.5, 51)),
        (FIG8, np.linspace(0.0, 1.0, 101)),
    ],
    ids=["thermal-300", "thermal-2e5", "fig8"],
)
def test_br_ge_distance_matches_the_ground_and_excited_runs(p, ts):
    tg, te = (br_evolve(p, qubit_state(state), ts) for state in ("g", "e"))
    for state, traj in (("g", tg), ("e", te)):
        assert np.abs(traj.states - br_reference(p, qubit_state(state).reshape(-1), ts)).max() < 1e-8
        # the populations are an exact block: nothing leaks into the coherences
        assert np.all(traj.states[:, [1, 2]] == 0.0)
    distance = br_ge_distance(p, ts)
    assert distance[0] == 1.0
    # Abel's identity against the integrated runs: 3.8e-12 at most over 60 draws of the blp-compare ranges
    assert np.abs(distance - trace_distance(tg.states.reshape(-1, 2, 2), te.states.reshape(-1, 2, 2))).max() < 1e-9


def test_br_evolve_takes_one_state():
    ts = np.linspace(0.0, 0.5, 51)
    traj = br_evolve(FIG8, qubit_state("y-"), ts)
    assert traj.states.shape == (51, 4)
    with pytest.raises(ValueError, match="vector length 8 is not a perfect square"):
        br_evolve(FIG8, np.stack([qubit_state("g").reshape(-1), qubit_state("e").reshape(-1)]), ts)


@pytest.mark.parametrize(
    "p",
    [THERMAL_300, THERMAL, ThermalBathParams(g=2.0, omega_q=150.0, omega_c=260.0, kappa=5.0, nbar=0.5),
     ThermalBathParams(g=1.0, omega_q=300.0, omega_c=250.0, kappa=10.0, nbar=0.0), FIG8,
     SqueezedBathParams(g=1.0, delta_q=150.0, delta_c=300.0, r=270.0, kappa=5.0),
     SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=120.0, r=0.0, kappa=10.0)],
    ids=["thermal-300", "thermal-2e5", "thermal-blue", "thermal-nbar-0", "fig8", "squeezed-strong", "squeezed-r-0"],
)
def test_the_population_block_of_every_bath_is_closed(p):
    # br_ge_distance and br_evolve's two fixed blocks rest on this: no term of either kernel table links
    # the populations {0, 3} to the coherences {1, 2}, in either direction
    _, residues, g_inf = redfield._running_generator(p)
    tables = [kernel_modes(p, include_sum_frequency).coef for include_sum_frequency in (False, True)]
    for matrices in [g_inf[None], residues] + tables:
        assert np.all(matrices[:, 1:3][:, :, [0, 3]] == 0.0)
        assert np.all(matrices[:, [0, 3]][:, :, 1:3] == 0.0)


@pytest.mark.parametrize(
    "free, message",
    [(np.diag([1.0j, 0.0, 0.0, 0.0]), "population block trace integrates to a complex value"),
     (np.full((4, 4), np.nan), "population block trace integrates to a complex value"),
     (np.diag([2.0e3, 0.0, 0.0, 0.0]), "population block determinant is not finite")],
    ids=["complex", "not-finite", "overflowing"],
)
def test_br_ge_distance_raises_on_a_complex_or_infinite_determinant(monkeypatch, free, message):
    monkeypatch.setattr(redfield, "free_liouvillian", lambda p: free.astype(complex))
    with pytest.raises(ValueError, match=message):
        br_ge_distance(THERMAL_300, np.linspace(0.0, 1.0, 11))


def test_br_ge_distance_checks_its_times():
    with pytest.raises(ValueError, match="t_grid must be a 1-d array of increasing nonnegative times"):
        br_ge_distance(THERMAL, [0.0, 0.5, 0.5])


@pytest.mark.parametrize("entry", [1, 2])
def test_br_evolve_holds_the_coherences_when_either_is_nonzero(entry):
    # a state Hermitian within 1e-9 may carry a coherence in one entry only; the thermal coherence block is
    # diagonal, so that entry follows rho_k(t) = rho_k(0) exp(int_0^t A_kk) and the other stays exactly 0
    rho0 = np.array([0.5, 0.0, 0.0, 0.5], dtype=complex)
    rho0[entry] = 1e-10
    ts = np.linspace(0.0, 0.5, 51)
    traj = br_evolve(THERMAL_300, rho0, ts)
    lams, residues, g_inf = redfield._running_generator(THERMAL_300)
    integral = (g_inf[entry, entry] * ts
                - (np.expm1(np.multiply.outer(ts, lams[:, entry])) / lams[:, entry]) @ residues[:, entry, entry])
    assert np.all(traj.states[:, entry] != 0.0)
    assert np.abs(traj.states[:, entry] - 1e-10 * np.exp(integral)).max() < 1e-18  # 8.4e-22
    assert np.all(traj.states[:, 3 - entry] == 0.0)


def test_br_evolve_does_not_depend_on_the_output_grid():
    rho0 = qubit_state("y-").reshape(-1)
    coarse = br_evolve(FIG8, rho0, np.linspace(0.0, 3.0, 41))
    fine = br_evolve(FIG8, rho0, np.linspace(0.0, 3.0, 1201))
    assert np.abs(coarse.states - fine.states[::30]).max() < 1e-9
    # the output grid never moves a step, so the integrator's counts agree too
    assert set(coarse.diagnostics) == {"accepted_steps", "rejected_steps", "windows"}
    assert dict(coarse.diagnostics) == dict(fine.diagnostics)
    assert coarse.diagnostics["accepted_steps"] > coarse.diagnostics["windows"] > 0


@pytest.mark.parametrize("p", [THERMAL_300, FIG8], ids=["thermal", "squeezed"])
@pytest.mark.parametrize("state", ["g", "e"])
def test_br_evolve_keeps_populations_out_of_the_coherences(p, state):
    # the populations are an exact block of both generators, so nothing leaks
    traj = br_evolve(p, qubit_state(state).reshape(-1), np.linspace(0.0, 1.0, 51))
    assert np.all(traj.states[:, [1, 2]] == 0.0)
    assert np.abs(traj.states[:, 3] - traj.states[0, 3]).max() > 1e-4  # and the populations move


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


def test_br_evolve_raises_when_the_solution_diverges():
    # G_inf of FIG8 has eigenvalues of real part +1.3e-2 and +6.6e-3: the largest state entry is
    # 88.5 at t = 551.0 and 198 at 612.2, past the bound of 100; the trajectory keeps Hermiticity
    # to TRAJECTORY_TOL up to t = 979.6, where it is 2.5e4
    ts = np.linspace(0.0, 3000.0, 50)
    with pytest.raises(ValueError, match=r"Born-Redfield solution diverges: .* exceeds 100 .* at t = 612\.244898"):
        br_evolve(FIG8, qubit_state("y-"), ts)
    assert np.abs(br_evolve(FIG8, qubit_state("y-"), ts[:10]).states).max() > 88.0


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


@pytest.mark.parametrize("t_grid", [[-5.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0],
                                    [0.0, np.nan, 1.0], [0.0, 1.0, np.nan], [np.nan], [0.0, 1.0, np.inf], [np.inf]],
                         ids=["negative", "decreasing", "repeated", "nan-inside", "nan-last", "nan", "inf-last", "inf"])
def test_bm_evolve_rejects_bad_times_like_br_evolve(t_grid):
    # before the check, [-5, 0] returned populations -0.234 and 1.234 at t = -5; a NaN
    # time gave NaN states (bm) or an IndexError (br), and br never returned on [0, 1, inf]
    p = ThermalBathParams(g=1.0, omega_q=120.0, omega_c=100.0, kappa=8.0, nbar=0.2)
    e = qubit_state("e").reshape(-1)
    message = "t_grid must be a 1-d array of increasing nonnegative times"
    with pytest.raises(ValueError, match=message):
        bm_evolve(p, e, t_grid)
    with pytest.raises(ValueError, match=message):
        br_evolve(p, e, t_grid)


@pytest.mark.parametrize("evolve", [br_evolve, bm_evolve], ids=["br", "bm"])
def test_evolve_rejects_a_non_positive_initial_state(evolve):
    with pytest.raises(ValueError, match="positive semidefinite"):
        evolve(THERMAL, np.diag([1.2, -0.2]), np.linspace(0.0, 1.0, 11))


def test_trajectory_validation():
    ts = np.array([0.0, 1.0])
    bad_trace = np.array([[0.6, 0, 0, 0.6], [0.6, 0, 0, 0.6]], dtype=complex)
    with pytest.raises(ValueError, match="trace"):
        Trajectory(times=ts, states=bad_trace)
    bad_herm = np.array([[0.5, 0.1j, 0.1j, 0.5]] * 2, dtype=complex)
    with pytest.raises(ValueError, match="Hermiticity"):
        Trajectory(times=ts, states=bad_herm)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_trajectory_rejects_non_finite_times_and_states(bad):
    # NaN passes any "> bound" test, so the checks are written as "<= bound"
    good = np.array([[1.0, 0, 0, 0]] * 3, dtype=complex)
    for times in ([0.0, 1.0, bad], [0.0, bad, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times=times, states=good)
    for index, message in ((0, "trace"), (1, "Hermiticity"), (2, "Hermiticity")):
        states = good.copy()
        states[1, index] = bad
        with pytest.raises(ValueError, match=message):
            Trajectory(times=[0.0, 1.0, 2.0], states=states)


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

    def density(d):  # br_spectrum's line, before it is normalized on a grid
        return redfield._br_line(p, d)

    central = locate_peak(density, rates.delta_eff, 5 * rates.gamma_eff, rates.gamma_eff / 50)
    side = locate_peak(density, -p.delta, 5 * p.kappa, p.kappa / 50)
    separation = central - side
    assert abs(separation - p.delta) < 0.2 * p.kappa
    # and clearly distinct from the frequency-domain separation delta + 2 delta_eff
    assert abs(separation - (p.delta + 2 * rates.delta_eff)) > 0.2 * p.kappa


def _c_bath(c):
    # delta_bath = 0 makes c = g^2 / kappa^2 real, where the series cancels most
    return ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5, kappa=c**-0.5, nbar=0.0)


@pytest.mark.parametrize("p", [
    ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 10.0, kappa=0.5, nbar=1.0),  # side peak, |c| 0.03
    ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 100.0, kappa=10.0, nbar=0.1),  # FIG1, |c| 1.2e-4
    ThermalBathParams(g=1.0, omega_q=1.0e3, omega_c=1.0e3 - 50.0, kappa=10.0, nbar=0.1),  # FFT route
    _c_bath(3.0),
    _c_bath(4.9),
], ids=["side-peak", "fig1", "fft-route", "c3", "c4.9"])
def test_br_line_is_the_exact_transform_of_the_correlator(p):
    # measured 2.2e-16, 9.7e-17, 3.1e-16, 3.3e-14 and 3.6e-13 of the largest value
    lo, hi = min(-p.delta, 0.0) - 10 * p.kappa - 5, max(-p.delta, 0.0) + 10 * p.kappa + 5
    delta = np.linspace(lo, hi, 401)
    ref = br_quadrature_line(p, delta)
    assert np.abs(redfield._br_line(p, delta) - ref).max() <= 1e-12 * ref.max()


def test_br_spectrum_refuses_a_bath_beyond_its_trusted_series():
    assert BR_SERIES_C_MAX == 5.0
    grid = np.linspace(-30.0, 30.0, 601)
    br_spectrum(_c_bath(4.99), grid)
    with pytest.raises(ValueError, match=r"trusted for \|c\| = .* <= 5.0 only, got 5.01"):
        br_spectrum(_c_bath(5.01), grid)
    # nbar = 1 and kappa = 0.5 on resonance: |c| = 12, where the series is off by 1.8e-7 of the peak
    with pytest.raises(ValueError, match="got 12$"):
        br_spectrum(ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5, kappa=0.5, nbar=1.0), grid)


def test_br_spectrum_fft_route_agrees_with_closed_form():
    p = ThermalBathParams(g=1.0, omega_q=1.0e3, omega_c=1.0e3 - 50.0, kappa=10.0, nbar=0.1)
    grid = np.linspace(-120.0, 60.0, 2001)
    s_closed = br_spectrum(p, grid)
    s_fft = br_fft_spectrum(p, grid)
    assert np.abs(s_closed.values - s_fft.values).max() / s_closed.values.max() < 5e-3
