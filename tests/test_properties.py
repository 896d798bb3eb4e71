"""Invariants over random bath parameters, drawn from the benchmark ranges.

Each property runs a fixed, derandomized example budget, so the suite stays
deterministic.  Thermal baths come from the lab-frame spectrum range
(omega_q = 2e5), the moderate-carrier kernel range and the oracle-comparison
range; squeezed baths span weak to strong squeezing of a stable drive.  The
Born-Redfield trajectories are drawn from the BLP-comparison and positivity
ranges and checked against a tight-tolerance scipy integration, and the
closed-form trace distance of the ground and excited runs against those runs.
The spectral measure is drawn from the measure-sweep and BLP-comparison
ranges, and from squeezed baths up to r/delta_c = 0.97.
"""

from decimal import Decimal

import numpy as np
import pytest
from conftest import (
    br_reference,
    full_assembly_emission_spectrum,
    lapack_emission_spectrum,
    squeezed_steady_ground_population,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fdqme.baths import (
    KernelModes,
    SqueezedBathParams,
    ThermalBathParams,
    default_frequency_grid,
    generic_kernel_time,
    kernel_modes,
    markovian_spectrum,
)
from fdqme.fdme import emission_spectrum, make_spectrum, squeezed_propagator, steady_state, thermal_propagator
from fdqme.liouville import _coupled_blocks, qubit_state, trace_dual
from fdqme.measures import PANEL_NODES, _mapped_divergence, backflow, bath_measure, blp_measure, trace_distance
from fdqme.oracle import build_full_model, full_steady_spectrum
from fdqme.redfield import br_evolve, br_ge_distance

EXAMPLES = settings(max_examples=40, derandomize=True, deadline=None, database=None)


def _thermal(omega_q, delta, kappa, nbar):
    return ThermalBathParams(g=1.0, omega_q=omega_q, omega_c=omega_q - delta, kappa=kappa, nbar=nbar)


def _squeezed(delta_q, delta_c, r_over_delta_c, kappa):
    return SqueezedBathParams(g=1.0, delta_q=delta_q, delta_c=delta_c, r=r_over_delta_c * delta_c, kappa=kappa)


kappas = st.floats(5.0, 20.0)
nbars = st.floats(0.0, 0.5)
lab_thermal = st.builds(_thermal, st.just(2.0e5), st.floats(20.0, 300.0), kappas, nbars)
moderate_thermal = st.builds(_thermal, st.floats(50.0, 300.0), st.floats(-100.0, 100.0), kappas, nbars)
thermal_baths = st.one_of(lab_thermal, moderate_thermal)
squeezed_baths = st.builds(_squeezed, st.floats(150.0, 250.0), st.floats(250.0, 400.0),
                           st.floats(0.0, 0.9), kappas)
baths = st.one_of(thermal_baths, squeezed_baths)
# emitting baths: at nbar = 0 or r = 0 the steady state is the ground state,
# which emits nothing, and emission_spectrum rightly raises "no positive values"
nbars_emitting = st.floats(0.01, 0.5)
thermal_emitting = st.one_of(
    st.builds(_thermal, st.just(2.0e5), st.floats(20.0, 300.0), kappas, nbars_emitting),
    st.builds(_thermal, st.floats(50.0, 300.0), st.floats(-100.0, 100.0), kappas, nbars_emitting),
)
squeezed_emitting = st.builds(_squeezed, st.floats(150.0, 250.0), st.floats(250.0, 400.0),
                              st.floats(0.05, 0.9), kappas)
# oracle-comparison range: weak coupling (g = 1 against kappa >= 8), nbar small enough for n_fock = 10
oracle_thermal = st.builds(_thermal, st.floats(1000.0, 3000.0), st.floats(60.0, 150.0),
                           st.floats(8.0, 15.0), st.floats(0.02, 0.2))
# Born-Redfield ranges: the lab-frame BLP comparison (ground and excited states
# up to t_max 0.4-0.8) and the squeezed positivity example (sigma_y- up to 2)
br_cases = st.one_of(
    st.tuples(st.builds(_thermal, st.just(2.0e5), st.floats(5.0, 200.0), st.floats(10.0, 30.0),
                        st.floats(0.0, 0.3)),
              st.sampled_from(["g", "e"]), st.floats(0.4, 0.8)),
    st.tuples(st.builds(_squeezed, st.floats(190.0, 210.0), st.floats(110.0, 130.0),
                        st.floats(0.93, 0.97), st.floats(8.0, 12.0)),
              st.just("y-"), st.just(2.0)),
)
# the blp-compare ranges: detunings 5-200, kappa 10-30, nbar 0-0.3, 400 times up to t_max 0.4-0.8
blp_thermal = st.builds(_thermal, st.just(2.0e5), st.floats(5.0, 200.0), st.floats(10.0, 30.0), st.floats(0.0, 0.3))
# spectral-measure ranges: the measure-sweep and blp-compare thermal baths, and squeezed baths
# up to r/delta_c = 0.97, with criterion 7's line (delta_q 200, delta_c 320, |r| set by the
# detuning dtil of delta_q from the diagonalized cavity)
measure_thermal = st.builds(_thermal, st.just(2.0e5), st.floats(2.0, 300.0), st.floats(10.0, 300.0),
                            st.floats(0.0, 0.3))
measure_squeezed = st.one_of(
    st.builds(_squeezed, st.floats(50.0, 300.0), st.floats(100.0, 400.0), st.floats(0.0, 0.97),
              st.floats(5.0, 30.0)),
    st.builds(lambda dtil: SqueezedBathParams(1.0, 200.0, 320.0, float(np.sqrt(320.0**2 - (200.0 - dtil) ** 2)), 10.0),
              st.floats(-40.0, 40.0)),
)


@EXAMPLES
@given(blp_thermal, st.floats(0.4, 0.8))
def test_br_ge_distance_is_the_trace_distance_of_the_integrated_runs(p, t_max):
    ts = np.linspace(0.0, t_max, 400)
    tg, te = (br_evolve(p, qubit_state(state), ts) for state in ("g", "e"))
    distance = br_ge_distance(p, ts)
    # at most 4.9e-13 (distance) and 7.7e-13 (backflow) over 60 draws of these ranges
    assert np.abs(distance - trace_distance(tg.states.reshape(-1, 2, 2), te.states.reshape(-1, 2, 2))).max() < 1e-9
    assert abs(backflow(distance) - blp_measure(tg, te).value) < 1e-9


@EXAMPLES
@given(st.one_of(measure_thermal, measure_squeezed))
def test_bath_measure_is_stable_when_the_panel_nodes_double(p):
    res = bath_measure(p)
    kl, _ = _mapped_divergence(p, kernel_modes(p), 2 * PANEL_NODES)
    assert abs(kl / res.metadata["gap"] - res.value) <= 1e-6 * res.value
    assert abs(res.metadata["z_minus_1"]) < 1e-6


@EXAMPLES
@given(measure_thermal, st.floats(0.1, 10.0))
def test_bath_measure_scales_inversely_with_the_rates(p, lam):
    # g, kappa and delta scaled by lam stretch the line by lam: the relative entropy is unchanged
    # and the bandwidth scales by lam, to quadrature precision
    scaled = ThermalBathParams(lam * p.g, p.omega_q, p.omega_q - lam * p.delta, lam * p.kappa, p.nbar)
    assert lam * bath_measure(scaled).value == pytest.approx(bath_measure(p).value, rel=1e-9)


@EXAMPLES
@given(baths, st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=8))
def test_kernel_transform_preserves_trace(p, detunings):
    modes = kernel_modes(p)
    k = modes.freq_matrix(np.array(detunings) + modes.omega_ref)
    leak = np.abs(trace_dual(2) @ k).max(axis=-1)
    assert np.all(leak <= 1e-12 * np.linalg.norm(k, axis=(-2, -1)))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(st.one_of(moderate_thermal, squeezed_baths), st.lists(st.floats(0.0, 0.3), min_size=1, max_size=3))
def test_time_kernel_matches_mode_equations(p, times):
    t = np.array(times)
    assert np.abs(kernel_modes(p).time_matrix(t) - generic_kernel_time(p, t)).max() < 1e-9


def _hand_built_modes(kappa, seed):
    # a +-40 pair, a mu = 0 mode and an unpaired mu = 25; entries (1, 0) and (2, 0) are structurally zero
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    coef[:, [1, 2], 0] = 0.0
    return KernelModes(kappa=kappa, omega_ref=0.0, mus=np.array([-40.0, 0.0, 25.0, 40.0]), coef=coef)


mode_tables = st.one_of(
    st.builds(kernel_modes, baths, st.booleans()),
    st.builds(_hand_built_modes, kappas, st.integers(0, 2**32 - 1)),
)
# a scalar, an empty array, a 2-d array and the edges of the 4096-sample row blocks
time_shapes = st.sampled_from([(), (0,), (3, 5), (4095,), (4096,), (4097,), (8193,)])


@EXAMPLES
@given(mode_tables, time_shapes, st.floats(0.0, 40.0))
def test_time_matrix_matches_direct_mode_sum(modes, shape, decays):
    t_max = decays / modes.kappa
    t = np.asarray(t_max) if shape == () else np.linspace(0.0, t_max, int(np.prod(shape))).reshape(shape)
    got = modes.time_matrix(t)
    direct = np.einsum("...k,kij->...ij", np.exp(np.multiply.outer(t, 1j * modes.mus - modes.kappa)), modes.coef)
    assert got.shape == direct.shape == t.shape + (4, 4)
    if direct.size:
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()
    zero = ~np.any(modes.coef != 0, axis=0)
    assert np.all(got[..., zero] == 0.0)


# the doubles nearest (2k + 1) pi / 2, from 60 digits of pi; |tan| is 1.6e16 at k = 0 and 1.6e18 at k = 14,
# the largest for k below 1e5
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
NEAR_POLES = np.array([float((2 * k + 1) * _PI / 2) for k in (0, 1, 14, 7239, 14663)])


def test_time_matrix_at_the_poles_of_the_half_tangent():
    # mu = +-2, +-4 and 8 have the exact half phases t, 2t and 4t: the doubles nearest odd multiples
    # of pi / 2, where u = tan(mu t / 2) is about 1e16-1e18, and nearest multiples of pi; mu = +-1
    # have sin(mu t) = +-1, and mu = 0 has phase 0.  Entries (1, 0) and (2, 0) are structurally zero.
    rng = np.random.default_rng(31)
    coef = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
    coef[:, [1, 2], 0] = 0.0
    mus = np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
    modes = KernelModes(kappa=1e-9, omega_ref=0.0, mus=mus, coef=coef)
    assert np.abs(np.tan(NEAR_POLES[[0, 2]])).min() > 1e16 and np.abs(np.tan(NEAR_POLES[2])) > 1e18
    t = np.concatenate([[0.0], NEAR_POLES])
    got = modes.time_matrix(t)
    direct = np.einsum("...k,kij->...ij", np.exp(np.multiply.outer(t, 1j * modes.mus - modes.kappa)), modes.coef)
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()
    assert np.all(got[:, [1, 2], 0] == 0.0)


@EXAMPLES
@given(squeezed_baths)
def test_squeezed_steady_state_matches_closed_form(p):
    ss = steady_state(squeezed_propagator(p))
    assert abs(ss[0].real - squeezed_steady_ground_population(p)) < 1e-9


@EXAMPLES
@given(thermal_baths)
def test_thermal_steady_state_obeys_detailed_balance(p):
    ss = steady_state(thermal_propagator(p))
    ground = (p.nbar + 1.0) / (2.0 * p.nbar + 1.0)
    assert np.abs(ss - [ground, 0.0, 0.0, 1.0 - ground]).max() < 1e-9


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.one_of(thermal_emitting, squeezed_emitting))
def test_emission_spectrum_is_a_unit_area_density(p):
    make = thermal_propagator if isinstance(p, ThermalBathParams) else squeezed_propagator
    grid = default_frequency_grid(p)
    for markov in (False, True):
        fp = make(p, markov=markov)
        spec = emission_spectrum(fp, grid)
        assert spec.values.min() >= 0.0
        assert abs(spec.area - 1.0) <= 1e-12


# the spectra benchmark ranges: lab-frame thermal baths and squeezed baths
spectra_emitting = st.one_of(
    st.builds(_thermal, st.just(2.0e5), st.floats(20.0, 300.0), kappas, nbars_emitting),
    squeezed_emitting,
)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(spectra_emitting, st.booleans())
def test_source_block_spectrum_equals_the_full_assembly(p, markov):
    make = thermal_propagator if isinstance(p, ThermalBathParams) else squeezed_propagator
    fp = make(p, markov=markov)
    grid = default_frequency_grid(p)
    spec = emission_spectrum(fp, grid)
    ref = full_assembly_emission_spectrum(fp, grid)
    np.testing.assert_array_equal(spec.values, ref.values)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(spectra_emitting, st.booleans())
def test_stacked_elimination_spectrum_matches_the_lapack_route(p, markov):
    # the stacked elimination against one LAPACK solve per point, on the same source block
    make = thermal_propagator if isinstance(p, ThermalBathParams) else squeezed_propagator
    fp = make(p, markov=markov)
    grid = default_frequency_grid(p)
    spec = emission_spectrum(fp, grid)
    ref = lapack_emission_spectrum(fp, grid)
    assert np.abs(spec.values - ref.values).max() <= 1e-14 * ref.values.max()


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(thermal_emitting)
def test_frozen_thermal_spectrum_is_the_markov_lorentzian(p):
    fp = thermal_propagator(p, markov=True)
    grid = default_frequency_grid(p)
    spec = emission_spectrum(fp, grid)
    markov = make_spectrum(grid, markovian_spectrum(p, grid))
    assert np.abs(spec.values - markov.values).max() <= 1e-12 * markov.values.max()


@EXAMPLES
@given(oracle_thermal)
def test_fd_spectrum_matches_oracle_at_weak_coupling(p):
    grid = np.linspace(-(p.delta + 60.0), 80.0, 3001)
    fp = thermal_propagator(p)
    fd = emission_spectrum(fp, grid)
    full = full_steady_spectrum(build_full_model(p, n_fock=10), grid)
    assert abs(grid[np.argmax(fd.values)] - grid[np.argmax(full.values)]) < 1.0


@st.composite
def patterns_with_support(draw):
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0.0, 0.4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pattern = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)) + 1j, 0.0)
    support = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return pattern, support


@EXAMPLES
@given(patterns_with_support())
def test_block_finder_gives_dense_and_sparse_inputs_identical_blocks(case):
    pattern, support = case
    dense = _coupled_blocks(pattern, support)
    from_sparse = _coupled_blocks(sparse.csr_array(pattern), support)
    assert [b.tolist() for b in dense] == [b.tolist() for b in from_sparse]
    # disjoint, ordered blocks that cover the support and are closed under the pattern
    members = np.concatenate([np.empty(0, dtype=int)] + dense)
    assert members.size == np.unique(members).size and set(support) <= set(members.tolist())
    assert [b[0] for b in dense] == sorted(b[0] for b in dense)
    outside = np.setdiff1d(np.arange(pattern.shape[0]), members)
    assert not np.any(pattern[np.ix_(members, outside)]) and not np.any(pattern[np.ix_(outside, members)])


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(br_cases)
def test_br_evolve_matches_tight_reference(case):
    p, state, t_max = case
    ts = np.linspace(0.0, t_max, 400)
    rho0 = qubit_state(state).reshape(-1)
    assert np.abs(br_evolve(p, rho0, ts).states - br_reference(p, rho0, ts)).max() < 1e-8
