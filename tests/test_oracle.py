from dataclasses import fields

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from conftest import (
    dense_full_liouvillian,
    dense_matrix,
    fwhm,
    locate_peak,
    sparse_full_liouvillian,
    squeezed_steady_ground_population,
)
from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    bogoliubov_params,
    default_frequency_grid,
    effective_rates,
    squeezed_closed_spectrum,
    thermal_closed_spectrum,
)
from fdqme.fdme import make_spectrum, purity
from fdqme.liouville import annihilation, qubit_state
from fdqme.oracle import (
    FullModel,
    TruncationError,
    build_full_model,
    full_steady_spectrum,
    full_steady_state,
    reduced_qubit_state,
)
from fdqme.liouville import SIGMA_MINUS, IndexTriples, _coupled_block

THERMAL = ThermalBathParams(g=1.0, omega_q=2000.0, omega_c=2000.0 - 100.0, kappa=10.0, nbar=0.1)


def cavity_expectation(chi, n_fock, op):
    joint = np.kron(np.eye(2, dtype=complex), op)
    return np.trace(joint @ chi)


def reduced_cavity(chi):
    n = chi.shape[0] // 2
    return np.einsum("inim->nm", chi.reshape(2, n, 2, n))


def test_nearly_decoupled_thermal_cavity_reaches_occupation():
    # the qubit must stay weakly coupled for the joint kernel to be simple;
    # residual dressing of the cavity enters at second order in g
    p = ThermalBathParams(g=5e-3, omega_q=2000.0, omega_c=1950.0, kappa=10.0, nbar=0.1)
    m = build_full_model(p, n_fock=10)
    chi = full_steady_state(m)
    a = annihilation(10)
    n_op = a.conj().T @ a
    assert abs(cavity_expectation(chi, 10, n_op) - p.nbar) < 1e-8
    assert abs(cavity_expectation(chi, 10, a @ a)) < 1e-8


def test_nearly_decoupled_squeezed_cavity_correlators():
    p = SqueezedBathParams(g=5e-3, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
    b = bogoliubov_params(p)
    m = build_full_model(p, n_fock=16)
    chi = full_steady_state(m)
    a = annihilation(16)
    at = a * np.cosh(b.zeta) + a.conj().T * np.sinh(b.zeta)
    assert abs(cavity_expectation(chi, 16, at.conj().T @ at) - b.nbar) < 1e-6
    assert abs(cavity_expectation(chi, 16, at @ at) - b.mbar) < 1e-6


def test_weak_coupling_reduced_populations():
    m = build_full_model(THERMAL, n_fock=10)
    chi = full_steady_state(m)
    red = reduced_qubit_state(chi, 10)
    expected = (THERMAL.nbar + 1) / (2 * THERMAL.nbar + 1)
    scale = THERMAL.g**2 / (THERMAL.delta**2 + THERMAL.kappa**2)
    assert abs(red[0, 0].real - expected) < 50 * scale
    assert abs(np.trace(red) - 1.0) < 1e-12


def test_joint_steady_state_quality():
    m = build_full_model(THERMAL, n_fock=10)
    chi = full_steady_state(m)
    assert abs(np.trace(chi) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(chi).min() > -1e-10
    lv = dense_matrix(m.liouvillian)
    resid = np.linalg.norm(lv @ chi.reshape(-1))
    assert resid < 1e-9 * np.linalg.norm(lv)
    # unique kernel direction
    lam = np.linalg.eigvals(lv)
    assert np.count_nonzero(np.abs(lam) < 1e-9 * np.abs(lam).max()) == 1


def test_truncation_guard():
    p = ThermalBathParams(g=1.0, omega_q=2000.0, omega_c=1950.0, kappa=10.0, nbar=1.5)
    with pytest.raises(TruncationError, match="n_fock"):
        full_steady_state(build_full_model(p, n_fock=4))
    with pytest.raises(ValueError, match="at least 4"):
        build_full_model(p, n_fock=2)


def test_full_spectrum_matches_reduced_theory_peaks():
    grid = default_frequency_grid(THERMAL)
    m = build_full_model(THERMAL, n_fock=10)
    spec = full_steady_spectrum(m, grid)
    closed = make_spectrum(grid, thermal_closed_spectrum(THERMAL, grid))
    rates = effective_rates(THERMAL)

    def interp(s):
        return lambda d: np.interp(np.asarray(d, dtype=float), s.grid, s.values)

    central_full = locate_peak(interp(spec), 0.0, 5 * THERMAL.kappa, THERMAL.kappa / 50)
    side_full = locate_peak(interp(spec), -THERMAL.delta, 5 * THERMAL.kappa, THERMAL.kappa / 50)
    central_red = locate_peak(interp(closed), 0.0, 5 * THERMAL.kappa, THERMAL.kappa / 50)
    side_red = locate_peak(interp(closed), -THERMAL.delta, 5 * THERMAL.kappa, THERMAL.kappa / 50)
    assert abs(central_full - central_red) < 0.05 * THERMAL.kappa
    assert abs(side_full - side_red) < 0.2 * THERMAL.kappa
    # the separation carries the doubled induced shift, not the bare detuning
    separation = central_full - side_full
    assert abs(separation - (THERMAL.delta + 2 * rates.delta_eff)) < 0.2 * THERMAL.kappa


def test_full_spectrum_truncation_convergence():
    grid = np.linspace(-120.0, 80.0, 4001)
    m1 = build_full_model(THERMAL, n_fock=8)
    m2 = build_full_model(THERMAL, n_fock=16)
    s1 = full_steady_spectrum(m1, grid)
    s2 = full_steady_spectrum(m2, grid)
    assert np.abs(s1.values - s2.values).max() < 1e-6 * s2.values.max()


def test_large_truncation_thermal_spectrum():
    # n_fock = 40: a 6400-dimensional Liouville space, where a dense L would take 655 MB
    grid = np.linspace(-120.0, 80.0, 4001)
    big = full_steady_spectrum(build_full_model(THERMAL, n_fock=40), grid)
    ref = full_steady_spectrum(build_full_model(THERMAL, n_fock=16), grid)
    assert np.abs(big.values - ref.values).max() < 1e-6 * ref.values.max()


def test_perturbative_linewidth_and_center():
    p = ThermalBathParams(g=0.2, omega_q=2000.0, omega_c=1950.0, kappa=10.0, nbar=0.1)
    rates = effective_rates(p)
    grid = np.linspace(-30 * rates.gamma_eff, 30 * rates.gamma_eff, 40001) + rates.delta_eff
    spec = full_steady_spectrum(build_full_model(p, n_fock=8), grid)
    assert fwhm(spec) == pytest.approx(2 * rates.gamma_eff, rel=5e-2)
    center = grid[np.argmax(spec.values)]
    assert abs(center - rates.delta_eff) < 0.2 * rates.gamma_eff


def test_squeezed_steady_population_against_full_model():
    p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
    closed = squeezed_steady_ground_population(p)
    chi = full_steady_state(build_full_model(p, n_fock=16))
    red = reduced_qubit_state(chi, 16)
    assert abs(red[0, 0].real - closed) / closed < 0.02


def test_squeezed_full_spectrum_cross_validation():
    p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
    b = bogoliubov_params(p)
    grid = default_frequency_grid(p)
    m = build_full_model(p, n_fock=16)
    spec = full_steady_spectrum(m, grid)
    closed = make_spectrum(grid, squeezed_closed_spectrum(p, grid))

    def interp(s):
        return lambda d: np.interp(np.asarray(d, dtype=float), s.grid, s.values)

    for center in (0.0, -b.delta_diff):
        full_pos = locate_peak(interp(spec), center, 5 * p.kappa, p.kappa / 50)
        red_pos = locate_peak(interp(closed), center, 5 * p.kappa, p.kappa / 50)
        assert abs(full_pos - red_pos) < 0.2 * p.kappa


def test_full_evolution_preserves_positivity_in_squeezed_regime():
    # contrast with the time-local reduced equations: the joint model is a
    # plain constant Lindblad evolution and can never leave the state space
    p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
    m = build_full_model(p, n_fock=12)
    cav = reduced_cavity(full_steady_state(build_full_model(
        SqueezedBathParams(g=5e-3, delta_q=p.delta_q, delta_c=p.delta_c, r=p.r, kappa=p.kappa), 12)))
    chi0 = np.kron(qubit_state("y-"), cav)
    lam, vmat = np.linalg.eig(dense_matrix(m.liouvillian))
    coef = np.linalg.solve(vmat, chi0.reshape(-1))
    for t in np.linspace(0.0, 2.0, 21):
        chi_t = (vmat @ (np.exp(lam * t) * coef)).reshape(24, 24)
        red = reduced_qubit_state(chi_t, 12)
        assert purity(red.reshape(-1)) <= 1.0 + 1e-9


SQUEEZED = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)


def _excitation_difference(n_fock):
    """N_i - N_j at each Liouville index i * d + j, with N = n + (qubit excited)."""
    n = np.arange(n_fock)
    excitations = np.concatenate([n, n + 1])  # basis (g, n) then (e, n)
    return np.subtract.outer(excitations, excitations).reshape(-1)


def _source_support(m, block):
    # support of sigma_- applied to a state that fills the given block
    chi = np.zeros(m.dim * m.dim)
    chi[block] = 1.0
    sm_joint = np.kron(SIGMA_MINUS, np.eye(m.n_fock))
    return np.flatnonzero(sm_joint @ chi.reshape(m.dim, m.dim))


def _assert_decoupled(lv, block):
    rest = np.setdiff1d(np.arange(lv.shape[0]), block)
    assert not lv[np.ix_(block, rest)].any()
    assert not lv[np.ix_(rest, block)].any()


@pytest.mark.parametrize("n_fock", [6, 9])
def test_thermal_blocks_are_excitation_difference_sectors(n_fock):
    m = build_full_model(THERMAL, n_fock)
    sector = _excitation_difference(n_fock)
    steady = _coupled_block(m.liouvillian, np.arange(m.dim) * (m.dim + 1))
    src = _coupled_block(m.liouvillian, _source_support(m, steady))
    assert steady.size == 4 * n_fock - 2
    assert src.size == 4 * n_fock - 4
    np.testing.assert_array_equal(steady, np.flatnonzero(sector == 0))
    np.testing.assert_array_equal(src, np.flatnonzero(sector == -1))
    _assert_decoupled(dense_matrix(m.liouvillian), steady)
    _assert_decoupled(dense_matrix(m.liouvillian), src)


def test_squeezed_blocks_are_parity_halves():
    m = build_full_model(SQUEEZED, n_fock=8)
    parity = _excitation_difference(8) % 2
    steady = _coupled_block(m.liouvillian, np.arange(m.dim) * (m.dim + 1))
    src = _coupled_block(m.liouvillian, _source_support(m, steady))
    np.testing.assert_array_equal(steady, np.flatnonzero(parity == 0))
    np.testing.assert_array_equal(src, np.flatnonzero(parity == 1))
    _assert_decoupled(dense_matrix(m.liouvillian), steady)


@pytest.mark.parametrize(
    "bath",
    [THERMAL, SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=40.0, kappa=10.0)],
    ids=["thermal", "squeezed"],
)
def test_block_spectrum_matches_direct_full_space_solve(bath):
    m = build_full_model(bath, n_fock=8)
    chi = full_steady_state(m)
    grid = np.array([-300.0, -150.0, -100.0, -50.0, -10.0, 0.0, 10.0, 50.0, 150.0])
    spec = full_steady_spectrum(m, grid)
    sm_joint = np.kron(SIGMA_MINUS, np.eye(8))
    src = (sm_joint @ chi).reshape(-1)
    dual = sm_joint.reshape(-1).conj()
    eye = np.eye(m.dim * m.dim)
    direct = [
        2.0 * np.real(dual @ np.linalg.solve(1j * (w + m.qubit_frequency) * eye - dense_matrix(m.liouvillian), src))
        for w in grid
    ]
    ref = make_spectrum(grid, direct)
    assert np.abs(spec.values - ref.values).max() < 1e-9 * ref.values.max()


@pytest.mark.parametrize("n_fock", [4, 8, 14])
@pytest.mark.parametrize("bath", [THERMAL, SQUEEZED], ids=["thermal", "squeezed"])
def test_sparse_liouvillian_equals_dense_assembly(bath, n_fock):
    lv = build_full_model(bath, n_fock).liouvillian
    ref = dense_full_liouvillian(bath, n_fock)
    assert isinstance(lv, IndexTriples)
    assert np.abs(dense_matrix(lv) - ref).max() == 0.0
    _, dense_labels = connected_components(sparse.csr_array(ref != 0), directed=True, connection="weak")
    for label in np.unique(dense_labels):  # the same partition into blocks
        members = np.flatnonzero(dense_labels == label)
        np.testing.assert_array_equal(_coupled_block(lv, members[:1]), members)


def _validation_bath(rng, bath):
    # the ranges of the benchmark's validation workload: its oracle-compare items for the
    # thermal bath, its positivity items (the paper's squeezed example) for the squeezed one
    if bath == "thermal":
        omega_q = rng.uniform(1000.0, 3000.0)
        return ThermalBathParams(g=1.0, omega_q=omega_q, omega_c=omega_q - rng.uniform(60.0, 150.0),
                                 kappa=rng.uniform(8.0, 15.0), nbar=rng.uniform(0.02, 0.2))
    delta_c = rng.uniform(110.0, 130.0)
    return SqueezedBathParams(g=1.0, delta_q=rng.uniform(190.0, 210.0), delta_c=delta_c,
                              r=rng.uniform(0.93, 0.97) * delta_c, kappa=rng.uniform(8.0, 12.0))


def _wide_bath(rng, bath):
    # beyond the benchmark: zero (of either sign) or negative qubit and cavity frequencies, a
    # heating channel of rate 0 (nbar = 0), a negative delta_c and r = 0, on which the signs of
    # the zeros of build_full_model's sums could differ from a sparse sum's
    either = lambda lo, hi: rng.choice([0.0, -0.0, rng.uniform(lo, hi)], p=[0.15, 0.1, 0.75])
    g, kappa = rng.uniform(0.1, 3.0), rng.uniform(0.5, 20.0)
    if bath == "thermal":
        return ThermalBathParams(g=g, omega_q=either(-3000.0, 3000.0), omega_c=either(-3000.0, 3000.0),
                                 kappa=kappa, nbar=rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    delta_c = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 300.0)
    return SqueezedBathParams(g=g, delta_q=either(-300.0, 300.0), delta_c=delta_c,
                              r=rng.choice([0.0, rng.uniform(0.0, 0.99) * abs(delta_c)]), kappa=kappa)


@pytest.mark.parametrize("bath", ["thermal", "squeezed"])
def test_liouvillian_equals_the_sparse_assembly_bit_for_bit(bath):
    # 200 draws of the validation ranges, with n_fock 4..16 (10..14 in the benchmark), then 50
    # of the wide ranges, with n_fock 4..20
    rng, wide = (np.random.default_rng(seed) for seed in ((31, 33) if bath == "thermal" else (32, 34)))
    draws = [(_validation_bath(rng, bath), int(rng.integers(4, 17))) for _ in range(200)]
    draws += [(_wide_bath(wide, bath), int(wide.integers(4, 21))) for _ in range(50)]
    for p, n_fock in draws:
        lv = build_full_model(p, n_fock).liouvillian
        ref = sparse_full_liouvillian(p, n_fock)
        assert lv.n == (2 * n_fock) ** 2
        np.testing.assert_array_equal(lv.rows, np.repeat(np.arange(lv.n), np.diff(ref.indptr)))
        np.testing.assert_array_equal(lv.cols, ref.indices)
        np.testing.assert_array_equal(lv.values.view(np.int64), ref.data.view(np.int64))
        # sorted row-major, no duplicates, no zeros
        keys = lv.rows * lv.n + lv.cols
        assert np.all(np.diff(keys) > 0) and np.all(lv.values != 0)


def test_reduced_thermal_state_holds_when_the_truncation_grows_by_four():
    # the top-two-levels check of full_steady_state can pass far from convergence, so compare
    # two truncations; over 940 draws of these ranges the largest difference was 1.5e-13
    rng = np.random.default_rng(41)
    for _ in range(40):
        p, n_fock = _validation_bath(rng, "thermal"), int(rng.integers(10, 15))
        red = [reduced_qubit_state(full_steady_state(build_full_model(p, n)), n) for n in (n_fock, n_fock + 4)]
        assert np.abs(red[0] - red[1]).max() <= 1e-12


def test_full_model_holds_only_its_liouvillian():
    # the Hamiltonian and the dissipators are encoded in the Liouvillian alone
    assert [f.name for f in fields(FullModel)] == ["n_fock", "qubit_frequency", "liouvillian"]
    m = build_full_model(SQUEEZED, 6)
    assert (m.n_fock, m.qubit_frequency, m.dim) == (6, SQUEEZED.delta_q, 12)
