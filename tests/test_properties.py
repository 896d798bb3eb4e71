"""Invariants over random bath parameters, drawn from the benchmark ranges.

Each property runs a fixed, derandomized example budget, so the suite stays
deterministic.  Thermal baths come from the lab-frame spectrum range
(omega_q = 2e5), the moderate-carrier kernel range and the oracle-comparison
range; squeezed baths span weak to strong squeezing of a stable drive.  The
Born-Redfield trajectories are drawn from the BLP-comparison and positivity
ranges and checked against a tight-tolerance scipy integration.
"""

import numpy as np
from conftest import br_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    generic_kernel_time,
    kernel_modes,
    squeezed_steady_ground_population,
)
from fdqme.fdme import emission_spectrum, squeezed_propagator, steady_state, thermal_propagator
from fdqme.liouville import SIGMA_MINUS, qubit_state, trace_dual
from fdqme.oracle import build_full_model, full_steady_spectrum
from fdqme.redfield import br_evolve

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


@EXAMPLES
@given(squeezed_baths)
def test_squeezed_steady_state_matches_closed_form(p):
    ss = steady_state(squeezed_propagator(p), qubit_state("mixed"))
    assert abs(ss.vec[0].real - squeezed_steady_ground_population(p)) < 1e-9


@EXAMPLES
@given(thermal_baths)
def test_thermal_steady_state_obeys_detailed_balance(p):
    ss = steady_state(thermal_propagator(p), qubit_state("mixed"))
    ground = (p.nbar + 1.0) / (2.0 * p.nbar + 1.0)
    assert np.abs(ss.vec - [ground, 0.0, 0.0, 1.0 - ground]).max() < 1e-9


@EXAMPLES
@given(oracle_thermal)
def test_fd_spectrum_matches_oracle_at_weak_coupling(p):
    grid = np.linspace(-(p.delta + 60.0), 80.0, 3001)
    fp = thermal_propagator(p)
    fd = emission_spectrum(fp, SIGMA_MINUS, steady_state(fp, qubit_state("mixed")), grid)
    full = full_steady_spectrum(build_full_model(p, n_fock=10), grid)
    assert abs(grid[np.argmax(fd.values)] - grid[np.argmax(full.values)]) < 1.0


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(br_cases)
def test_br_evolve_matches_tight_reference(case):
    p, state, t_max = case
    ts = np.linspace(0.0, t_max, 400)
    rho0 = qubit_state(state).reshape(-1)
    assert np.abs(br_evolve(p, rho0, ts).states - br_reference(p, rho0, ts)).max() < 1e-8
