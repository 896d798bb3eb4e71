import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import full_assembly_emission_spectrum, full_system_matrix_delta, squeezed_steady_ground_population

from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    default_frequency_grid,
    markovian_spectrum,
    squeezed_closed_spectrum,
    thermal_closed_spectrum,
)
from fdqme.fdme import (
    FrequencyPropagator,
    InversionAccuracyError,
    Spectrum,
    _stacked_solve,
    emission_spectrum,
    free_propagator,
    inverse_transform,
    make_spectrum,
    propagate,
    purity,
    squeezed_propagator,
    steady_state,
    thermal_propagator,
)
from fdqme.liouville import (
    SIGMA_MINUS,
    SIGMA_Z,
    _coupled_block,
    commutator_superop,
    left_multiplier,
    qubit_state,
    trace_dual,
)
from fdqme.oracle import build_full_model, full_steady_spectrum
from fdqme.redfield import bm_evolve, br_spectrum
from fdqme.waveguide import WaveguideParams, waveguide_spectrum

RNG = np.random.default_rng(31415)

THERMAL = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 50.0, kappa=10.0, nbar=0.1)
SQUEEZED = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
FIG8 = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=120.0, r=float(np.sqrt(120.0**2 - 34.0**2)), kappa=10.0)


def random_density():
    a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    rho = a @ a.conj().T
    return (rho / np.trace(rho)).reshape(-1)


# --------------------------------------------------------------------------
# propagator
# --------------------------------------------------------------------------


def test_propagator_takes_its_frame_from_the_bath():
    assert [f.name for f in fields(FrequencyPropagator)] == ["l0", "modes", "markov"]
    for fp, w in ((thermal_propagator(THERMAL), THERMAL.omega_q), (squeezed_propagator(SQUEEZED), SQUEEZED.delta_q)):
        assert fp.omega_ref == fp.modes.omega_ref == w
        assert np.array_equal(fp.l0, commutator_superop(-(w / 2) * SIGMA_Z))


def test_free_propagator_is_an_empty_mode_table():
    fp = free_propagator(commutator_superop(-(5.0 / 2) * SIGMA_Z), omega_ref=5.0)
    assert fp.omega_ref == 5.0 and fp.modes.mus.size == 0 and fp.modes.coef.shape == (0, 4, 4)
    assert np.array_equal(fp.kernel_freq([-1.0, 0.0, 2.5]), np.zeros((3, 4, 4)))
    assert np.array_equal(fp._pattern(), np.eye(4, dtype=bool))
    u = propagate(fp, 2.7)
    assert np.allclose(u, np.diag(1.0 / (1j * 2.7 - np.diag(fp.l0))), atol=1e-14)


def test_propagate_scalar_resolvent():
    fp = free_propagator(np.zeros((4, 4)))
    u = propagate(fp, 2.7)
    assert np.allclose(u, np.eye(4) / (1j * 2.7), atol=1e-14)


def test_propagate_trace_identity():
    fp = thermal_propagator(THERMAL)
    dual = trace_dual(2)
    for omega in (0.3, THERMAL.omega_q + 12.3, -40.0):
        u = propagate(fp, omega)
        for _ in range(3):
            rho0 = random_density()
            val = dual @ (u @ rho0)
            assert abs(val - 1.0 / (1j * omega)) < 1e-10


def test_propagate_markov_mode_is_constant_resolvent():
    fp = thermal_propagator(THERMAL, markov=True)
    frozen = fp.kernel_freq(123.0)  # any argument returns the frozen matrix
    assert np.allclose(frozen, thermal_propagator(THERMAL).kernel_freq(0.0))
    omega = THERMAL.omega_q + 3.7
    u = propagate(fp, omega)
    expected = np.linalg.inv(1j * omega * np.eye(4) - fp.l0 - frozen)
    assert np.allclose(u, expected, atol=1e-12)


def test_propagate_residual_guard():
    fp = thermal_propagator(THERMAL)
    u = propagate(fp, THERMAL.omega_q + 0.011)
    m = fp._system_matrix(np.asarray(THERMAL.omega_q + 0.011))
    assert np.linalg.norm(m @ u - np.eye(4)) < 1e-10


def test_propagate_reports_singularity():
    fp = free_propagator(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="singular|residual"):
        propagate(fp, 0.0)


# --------------------------------------------------------------------------
# steady state
# --------------------------------------------------------------------------


def test_thermal_steady_state_occupations():
    fp = thermal_propagator(THERMAL)
    ss = steady_state(fp)
    expected = np.array([11.0 / 12.0, 0, 0, 1.0 / 12.0])
    assert np.abs(ss - expected).max() < 1e-9


def test_zero_temperature_steady_state_is_ground():
    p = ThermalBathParams(g=1.0, omega_q=300.0, omega_c=280.0, kappa=8.0, nbar=0.0)
    ss = steady_state(thermal_propagator(p))
    assert np.abs(ss - np.array([1, 0, 0, 0])).max() < 1e-9


def test_squeezed_steady_state_matches_closed_form():
    fp = squeezed_propagator(SQUEEZED)
    ss = steady_state(fp)
    assert abs(ss[0].real - squeezed_steady_ground_population(SQUEEZED)) < 1e-9
    assert abs(ss[1]) < 1e-9 and abs(ss[2]) < 1e-9


@pytest.mark.parametrize("r", [0.0, 60.0])
def test_squeezed_steady_state_needs_kernel_at_zero_frequency(r):
    # the generator needs the kernel at omega = 0: on these baths the kernel at
    # the qubit frequency has a far faster slowest mode; r = 0 gives exactly 1
    p = SqueezedBathParams(g=1.0, delta_q=150.0, delta_c=300.0, r=r, kappa=10.0)
    ss = steady_state(squeezed_propagator(p))
    assert abs(ss[0].real - squeezed_steady_ground_population(p)) < 1e-9


def test_steady_state_degenerate_manifold_detected():
    fp = free_propagator(commutator_superop(-(5.0 / 2) * SIGMA_Z), omega_ref=5.0)
    with pytest.raises(ValueError):
        steady_state(fp)


# --------------------------------------------------------------------------
# emission spectrum
# --------------------------------------------------------------------------


def test_thermal_spectrum_matches_closed_form_pointwise():
    fp = thermal_propagator(THERMAL)
    grid = default_frequency_grid(THERMAL)
    spec = emission_spectrum(fp, grid)
    closed = make_spectrum(grid, thermal_closed_spectrum(THERMAL, grid))
    assert np.abs(spec.values - closed.values).max() < 1e-9
    # pre-normalization the two differ by 2 pi times the excited population
    raw = spec.values * spec.norm
    factor = 2.0 * np.pi * (0.1 / 1.2)
    assert np.abs(raw - factor * thermal_closed_spectrum(THERMAL, grid)).max() < 1e-9 * factor


def test_markov_mode_spectrum_is_lorentzian():
    fp = thermal_propagator(THERMAL, markov=True)
    grid = default_frequency_grid(THERMAL)
    spec = emission_spectrum(fp, grid)
    markov = make_spectrum(grid, markovian_spectrum(THERMAL, grid))
    assert np.abs(spec.values - markov.values).max() < 1e-9


def test_squeezed_markov_gap_is_the_frozen_coherence_coupling():
    # the frozen squeezed propagator keeps K12/K21, which the single Lorentzian
    # leaves out (4.7e-6 of the peak here); without them the two coincide
    fp = squeezed_propagator(SQUEEZED, markov=True)
    coef = fp.modes.coef.copy()
    coef[:, 1, 2] = 0.0
    coef[:, 2, 1] = 0.0
    fp = replace(fp, modes=replace(fp.modes, coef=coef))
    grid = default_frequency_grid(SQUEEZED)
    spec = emission_spectrum(fp, grid)
    markov = make_spectrum(grid, markovian_spectrum(SQUEEZED, grid))
    assert np.abs(spec.values - markov.values).max() <= 1e-12 * markov.values.max()


def test_squeezed_spectrum_matches_closed_form():
    fp = squeezed_propagator(SQUEEZED)
    grid = default_frequency_grid(SQUEEZED)
    spec = emission_spectrum(fp, grid)
    closed = make_spectrum(grid, squeezed_closed_spectrum(SQUEEZED, grid))
    assert np.abs(spec.values - closed.values).max() < 1e-8


@pytest.mark.parametrize(
    "grid",
    [default_frequency_grid(FIG8), np.linspace(-500.0, 500.0, 20001)],
    ids=["default-grid", "linspace"],
)
def test_fig8_spectrum_is_finite_at_transform_frequency_zero(grid):
    # detuning -delta_q is transform frequency 0, where the 4x4 system matrix
    # is the steady-state generator, singular in its population block
    assert np.any(grid == -FIG8.delta_q)
    fp = squeezed_propagator(FIG8)
    spec = emission_spectrum(fp, grid)
    closed = make_spectrum(grid, squeezed_closed_spectrum(FIG8, grid))
    assert np.all(np.isfinite(spec.values))
    assert np.abs(spec.values - closed.values).max() < 1e-8


@pytest.mark.parametrize(
    "fp, source_block",
    [(thermal_propagator(THERMAL), [1]), (squeezed_propagator(SQUEEZED), [1, 2])],
    ids=["thermal", "squeezed"],
)
def test_source_block_is_found_from_the_pattern_alone(fp, source_block):
    # the structural pattern is the nonzero union of the full assembly over a grid
    grid = default_frequency_grid(THERMAL)
    pattern = fp._pattern()
    np.testing.assert_array_equal(pattern, np.any(full_system_matrix_delta(fp, grid) != 0, axis=0))
    src = left_multiplier(SIGMA_MINUS) @ steady_state(fp)
    np.testing.assert_array_equal(_coupled_block(pattern, np.flatnonzero(src)), source_block)
    np.testing.assert_array_equal(_coupled_block(pattern, [0]), [0, 3])


@pytest.mark.parametrize("markov", [False, True], ids=["memory", "markov"])
@pytest.mark.parametrize(
    "p, make",
    [(THERMAL, thermal_propagator), (SQUEEZED, squeezed_propagator), (FIG8, squeezed_propagator)],
    ids=["thermal", "squeezed", "fig8"],
)
def test_source_block_assembly_equals_the_full_assembly(p, make, markov):
    # only the source block is assembled, with every entry bit-identical
    fp = make(p, markov=markov)
    grid = default_frequency_grid(p)
    spec = emission_spectrum(fp, grid)
    ref = full_assembly_emission_spectrum(fp, grid)
    np.testing.assert_array_equal(spec.values, ref.values)
    assert spec.norm == ref.norm


def test_emission_spectrum_names_a_singular_source_block():
    # populations exchanged at rate 1 and undamped coherences +-5i: in the
    # frame of omega_ref = 5 the coherence block i delta vanishes at delta = 0
    l0 = np.diag([-1.0, 5j, -5j, -1.0])
    l0[0, 3] = l0[3, 0] = 1.0
    grid = np.linspace(-2.0, 2.0, 5)
    with pytest.raises(ValueError, match=r"singular on the source block at delta=0\.0"):
        emission_spectrum(free_propagator(l0, omega_ref=5.0), grid)


@pytest.mark.filterwarnings("error")
def test_emission_spectrum_names_a_singular_two_by_two_source_block():
    # coherences coupled at rate 1: the source block i delta I - L0[1:3, 1:3] is
    # [[1 + i (delta - 0.5), 1], [1, 1 + i (delta - 0.5)]], exactly singular at delta = 0.5 alone
    l0 = np.diag([-1.0, -1.0 + 0.5j, -1.0 + 0.5j, -1.0])
    l0[0, 3] = l0[3, 0] = 1.0
    l0[1, 2] = l0[2, 1] = -1.0
    fp = free_propagator(l0)
    src = left_multiplier(SIGMA_MINUS) @ steady_state(fp)
    np.testing.assert_array_equal(_coupled_block(fp._pattern(), np.flatnonzero(src)), [1, 2])
    with pytest.raises(ValueError, match=r"singular on the source block at delta=0\.5$"):
        emission_spectrum(fp, np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_solve_matches_lapack(k):
    # random complex stacks; a tiny (0, 0) entry in every other system forces a row swap
    rng = np.random.default_rng(100 + k)
    m = rng.normal(size=(400, k, k)) + 1j * rng.normal(size=(400, k, k))
    m[::2, 0, 0] *= 1e-13
    b = rng.normal(size=k) + 1j * rng.normal(size=k)
    x, singular = _stacked_solve(np.moveaxis(m, 0, -1), b)
    ref = np.linalg.solve(m, np.broadcast_to(b[:, None], (400, k, 1)))[..., 0]
    err = np.linalg.norm(x.T - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert not singular.any()
    assert np.all(err <= 8 * np.finfo(float).eps * np.linalg.cond(m))


def test_emission_spectrum_residual_guard_rejects_non_finite_points():
    # rho_ee = 1e-20 over a coherence decay rate of 1e300: the solution is
    # subnormal and misses its residual by far more than RESIDUAL_TOL, which
    # the guard rejects as it would a NaN
    l0 = np.diag([-1e280, -1e300, -1e300, -1e300]).astype(complex)
    l0[3, 0], l0[0, 3] = 1e280, 1e300
    with pytest.raises(ValueError, match=r"emission residual .* at delta=-1\.0 exceeds"):
        emission_spectrum(free_propagator(l0), np.linspace(-1.0, 1.0, 5))
    # a zero source (no excitation) has an empty source block and no spectrum
    with pytest.raises(ValueError, match="no positive values"):
        emission_spectrum(thermal_propagator(replace(THERMAL, nbar=0.0)), np.linspace(-1.0, 1.0, 5))


def test_resonant_thermal_spectrum_symmetric():
    p = ThermalBathParams(g=1.0, omega_q=500.0, omega_c=500.0, kappa=10.0, nbar=0.1)
    fp = thermal_propagator(p)
    grid = np.linspace(-200.0, 200.0, 8001)
    spec = emission_spectrum(fp, grid)
    assert np.abs(spec.values - spec.values[::-1]).max() < 1e-8


def test_emission_spectrum_rejects_bad_grid():
    fp = thermal_propagator(THERMAL)
    with pytest.raises(ValueError, match="grid"):
        emission_spectrum(fp, np.array([]))
    with pytest.raises(ValueError, match="grid"):
        emission_spectrum(fp, np.array([0.0, 0.0, 1.0]))


ORACLE_MODEL = build_full_model(THERMAL, n_fock=4)
GRID_ENTRY_POINTS = {
    "Spectrum": lambda grid: Spectrum(grid, np.ones(np.shape(grid)), norm=1.0),
    "make_spectrum": lambda grid: make_spectrum(grid, np.ones(np.shape(grid))),
    "emission_spectrum": lambda grid: emission_spectrum(thermal_propagator(THERMAL), grid),
    "full_steady_spectrum": lambda grid: full_steady_spectrum(ORACLE_MODEL, grid),
    "waveguide_spectrum": lambda grid: waveguide_spectrum(WaveguideParams(omega0=0.0, gamma=1.0, beta=0.9), grid),
    "br_spectrum": lambda grid: br_spectrum(THERMAL, grid),
}
BAD_GRIDS = {
    "decreasing": [1.0, 0.0, -1.0],
    "one-point": [0.0],
    "nan": [-1.0, np.nan, 1.0],
    "inf": [-1.0, 0.0, np.inf],
    "2-d": [[-1.0, 0.0], [1.0, 2.0]],
}


@pytest.mark.parametrize("grid", BAD_GRIDS)
@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
def test_spectrum_grids_follow_one_rule(entry, grid):
    # the grid is named before any solve, so no other fault or warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="grid must be finite, 1-d, strictly increasing and at least 2 points"):
            GRID_ENTRY_POINTS[entry](np.array(BAD_GRIDS[grid]))


def test_spectrum_container_invariants():
    grid = np.linspace(-1, 1, 101)
    vals = np.exp(-(grid**2))
    s = make_spectrum(grid, vals)
    assert s.normalized and abs(s.area - 1.0) < 1e-12
    assert s.norm == pytest.approx(np.trapezoid(vals, grid))
    with pytest.raises(ValueError, match="negativity"):
        make_spectrum(grid, vals - 0.5)


def test_make_spectrum_has_one_negativity_rule_at_1e_12_of_the_peak():
    grid = np.linspace(-1.0, 1.0, 5)
    inside = make_spectrum(grid, [1.0, -0.5e-12, 1.0, 0.5, 1.0])
    assert inside.values[1] == 0.0
    assert inside.norm == np.trapezoid([1.0, 0.0, 1.0, 0.5, 1.0], grid)
    assert abs(inside.area - 1.0) < 1e-15
    with pytest.raises(ValueError, match=r"^spectrum negativity -2.000e-12 exceeds 1.0e-12 of peak 1.000e\+00$"):
        make_spectrum(grid, [1.0, -2e-12, 1.0, 0.5, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectra_reject_non_finite_values(bad):
    grid = np.linspace(0.0, 1.0, 5)
    vals = np.array([0.0, 1.0, bad, 1.0, 0.0])
    with pytest.raises(ValueError, match="must be finite"):
        make_spectrum(grid, vals)
    with pytest.raises(ValueError, match="must be finite"):
        Spectrum(grid, vals, norm=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectra_reject_non_finite_grids(bad):
    grid = np.array([0.0, 0.25, bad, 0.75, 1.0])
    vals = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="must be finite"):
        make_spectrum(grid, vals)
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(grid, vals, norm=1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(np.full(5, np.nan), vals, norm=1.0)


# --------------------------------------------------------------------------
# inverse transform
# --------------------------------------------------------------------------


def test_inverse_transform_free_coherence():
    omega_q = 7.3
    fp = free_propagator(commutator_superop(-(omega_q / 2) * SIGMA_Z), omega_ref=omega_q)
    rho0 = qubit_state("x+").reshape(-1)
    ts = np.linspace(0.0, 3.0, 61)
    states = inverse_transform(fp, rho0, ts)
    for t, st in zip(ts, states):
        expected = 0.5 * np.exp(1j * omega_q * t)
        assert abs(st[1] - expected) < 1e-5
        assert abs(st[0] - 0.5) < 1e-10


def test_inverse_transform_recovers_initial_state():
    fp = squeezed_propagator(FIG8)
    rho0 = qubit_state("y-").reshape(-1)
    states = inverse_transform(fp, rho0, np.array([0.0, 0.01]))
    assert np.abs(states[0] - rho0).max() < 1e-4


@pytest.mark.parametrize("fp", [thermal_propagator(THERMAL), squeezed_propagator(SQUEEZED),
                                squeezed_propagator(FIG8)], ids=["thermal", "squeezed", "fig8"])
def test_inverse_transform_t0_state_within_documented_bound(fp):
    # t = 0 sits in the middle of the grid: the bound applies wherever it is
    ts = np.array([0.5, 0.0, 2.0])
    for rho0 in [qubit_state(s).reshape(-1) for s in ("g", "e", "x+", "y-", "mixed")]:
        states = inverse_transform(fp, rho0, ts)
        assert np.abs(states[1] - rho0).max() <= 1e-8


def test_inverse_transform_thermal_matches_markov_limit_at_fast_cavity():
    p = ThermalBathParams(g=1.0, omega_q=150.0, omega_c=150.0, kappa=100.0, nbar=0.1)
    fp = thermal_propagator(p)
    rho0 = qubit_state("e").reshape(-1)
    ts = np.linspace(0.0, 150.0, 151)
    states = inverse_transform(fp, rho0, ts)
    pops = np.array([s[3].real for s in states])
    traj = bm_evolve(p, rho0, ts)
    assert np.abs(pops - traj.excited_population()).max() < 0.02


def test_inverse_transform_purity_stays_physical():
    fp = squeezed_propagator(FIG8)
    rho0 = qubit_state("y-").reshape(-1)
    ts = np.linspace(0.0, 0.8, 400)
    states = inverse_transform(fp, rho0, ts)
    purities = np.array([purity(s) for s in states])
    assert purities.max() <= 1.0 + 1e-4


def test_inverse_transform_validates_input():
    fp = thermal_propagator(THERMAL)
    with pytest.raises(ValueError, match="nonnegative"):
        inverse_transform(fp, qubit_state("g").reshape(-1), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="frozen"):
        inverse_transform(thermal_propagator(THERMAL, markov=True), qubit_state("g").reshape(-1), np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_inverse_transform_rejects_non_finite_times(bad):
    # before the check, these ended in InversionAccuracyError
    fp = thermal_propagator(THERMAL)
    for t_grid in ([0.0, 0.5, bad], [bad]):
        with pytest.raises(ValueError, match="finite nonnegative times"):
            inverse_transform(fp, qubit_state("g").reshape(-1), np.array(t_grid))


@pytest.mark.parametrize(
    "l0, rho0",
    [(-np.eye(4), "g"), (np.diag([0.0, 1j, 1j, 0.0]), "x+")],
    ids=["trace", "hermiticity"],
)
def test_inverse_transform_names_the_first_failing_time(l0, rho0):
    # a generator that loses trace, or Hermiticity, from t = 0 on
    fp = free_propagator(l0)
    with pytest.raises(InversionAccuracyError, match=r"at t=0\.25: "):
        inverse_transform(fp, qubit_state(rho0), np.array([0.0, 1e-9, 0.25, 1.0]))


def test_inverse_transform_rejects_non_finite_states():
    # the growing coherences overflow to NaN by t = 1, and NaN passes any "> bound" test
    fp = free_propagator(np.diag([0.0, 800.0, 800.0, 0.0]))
    with np.errstate(all="ignore"), pytest.raises(InversionAccuracyError, match=r"at t=1\.0: "):
        inverse_transform(fp, qubit_state("x+"), np.array([0.0, 0.25, 1.0]))


# --------------------------------------------------------------------------
# purity
# --------------------------------------------------------------------------


def test_purity_reference_values():
    assert purity(qubit_state("g").reshape(-1)) == pytest.approx(1.0)
    assert purity(qubit_state("mixed").reshape(-1)) == pytest.approx(0.5)
    thermal_ss = np.array([11.0 / 12.0, 0, 0, 1.0 / 12.0], dtype=complex)
    assert purity(thermal_ss) == pytest.approx(122.0 / 144.0, rel=1e-12)
