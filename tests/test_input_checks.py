"""Each library entry point rejects bad input with an error that names the fault."""

import numpy as np
import pytest

from conftest import fwhm, index_triples, kl_divergence, spectral_measure
from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    bogoliubov_params,
    default_frequency_grid,
    effective_rates,
    free_liouvillian,
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
from fdqme.fdme import (
    Spectrum,
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
from fdqme.liouville import SIGMA_MINUS, _steady_state, expm, left_multiplier, lindblad_dissipator, qubit_state
from fdqme.measures import (
    MeasureResult,
    backflow,
    bath_measure,
    spectral_gap,
    trace_distance,
)
from fdqme.oracle import FullModel, build_full_model, full_steady_state
from fdqme.redfield import Trajectory, bm_evolve, br_evolve, br_ge_distance, br_spectrum
from fdqme.waveguide import WaveguideParams, resonant_eta_grid, waveguide_measure_sweep, waveguide_spectrum

THERMAL = dict(g=1.0, omega_q=120.0, omega_c=100.0, kappa=8.0, nbar=0.2)
SQUEEZED = dict(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
WAVEGUIDE = WaveguideParams(omega0=200.0, gamma=1.0, beta=0.9)
FP = thermal_propagator(ThermalBathParams(**THERMAL))
GRID = np.linspace(-1.0, 1.0, 5)
LINE = make_spectrum(GRID, [0.1, 0.5, 1.0, 0.5, 0.1])
# half maximum is never crossed on the right
EDGE = make_spectrum(GRID, [0.1, 0.5, 1.0, 0.9, 0.8])


def _nan_decay_generator():
    # qubit decay with a NaN on the diagonal of the block the steady state is solved on
    gen = lindblad_dissipator(SIGMA_MINUS)
    gen[3, 3] = np.nan
    return gen


CHECKS = {
    "thermal-g": (lambda: ThermalBathParams(**{**THERMAL, "g": 0.0}), ValueError, "g and kappa must be positive"),
    "thermal-kappa": (lambda: ThermalBathParams(**{**THERMAL, "kappa": -1.0}), ValueError,
                      "g and kappa must be positive"),
    "thermal-nbar": (lambda: ThermalBathParams(**{**THERMAL, "nbar": -0.1}), ValueError, "nbar must be nonnegative"),
    "squeezed-g": (lambda: SqueezedBathParams(**{**SQUEEZED, "g": -1.0}), ValueError, "g and kappa must be positive"),
    "squeezed-kappa": (lambda: SqueezedBathParams(**{**SQUEEZED, "kappa": 0.0}), ValueError,
                       "g and kappa must be positive"),
    "kernel-modes-type": (lambda: kernel_modes(WAVEGUIDE), TypeError, "unsupported bath parameters: WaveguideParams"),
    "free-liouvillian-type": (lambda: free_liouvillian(WAVEGUIDE), TypeError,
                              "unsupported bath parameters: WaveguideParams"),
    "generic-kernel-type": (lambda: generic_kernel_time(WAVEGUIDE, [0.0]), TypeError,
                            "unsupported bath parameters: WaveguideParams"),
    # the true kernel is 0 there; the phase mu t overflows, which gave an all-NaN kernel
    "kernel-phase-overflow": (lambda: thermal_kernel_time(ThermalBathParams(1.0, 2e5, 2e5 - 50.0, 10.0, 0.1), [1e307]),
                              ValueError, r"^kernel phase mu t overflows at t=1e\+307$"),
    # at kappa t = 100 the contraction gave |K| of 6.4e30 where the kernel is about 1e-44
    "generic-kernel-kappa-t": (lambda: generic_kernel_time(ThermalBathParams(1.0, 2e5, 2e5 - 50.0, 10.0, 0.1),
                                                           [0.0, 10.0]), ValueError,
                               r"^generic_kernel_time is trusted for kappa t <= 10.0 only, got kappa t = 100 at t=10.0$"),
    "full-model-type": (lambda: build_full_model(WAVEGUIDE, 8), TypeError,
                        "unsupported bath parameters: WaveguideParams"),
    "spectrum-shape": (lambda: Spectrum(GRID, np.ones(4), norm=1.0), ValueError, "values and grid shapes differ"),
    "spectrum-negative": (lambda: Spectrum(GRID, [1.0, 1.0, -1e-3, 1.0, 1.0], norm=1.0), ValueError,
                          "spectrum values must be nonnegative"),
    "qubit-state-name": (lambda: qubit_state("z+"), ValueError, "unknown qubit state 'z\\+'"),
    # a NaN or inf entry would give an all-NaN exponential
    "expm-non-finite": (lambda: expm(np.stack([np.eye(2), [[0.0, np.inf], [0.0, 0.0]]])), ValueError,
                        "^expm of a non-finite matrix$"),
    "expm-not-square": (lambda: expm(np.zeros((3, 2, 3))), ValueError,
                        r"^expected a stack of square matrices, got shape \(3, 2, 3\)$"),
    "non-square": (lambda: left_multiplier(np.zeros((2, 3))), ValueError,
                   r"expected a square matrix, got shape \(2, 3\)"),
    # an initial state is checked before it is evolved
    "initial-trace": (lambda: inverse_transform(FP, [1.0, 0, 0, 1.0], [0.0]), ValueError,
                      "state trace 2 is not 1"),
    "initial-hermiticity": (lambda: inverse_transform(FP, [0.5, 0.5, 0, 0.5], [0.0]), ValueError,
                            "state is not Hermitian"),
    # NaN passes every comparison of the trace, Hermiticity and positivity checks
    "initial-nan": (lambda: inverse_transform(FP, [np.nan, 0, 0, 1], [0.0, 1.0]), ValueError,
                    "state is not finite"),
    "initial-nan-br": (lambda: br_evolve(ThermalBathParams(**THERMAL), [np.nan, 0, 0, 1], [0.0, 1.0]), ValueError,
                       "state is not finite"),
    "steady-state-nan": (lambda: _steady_state(_nan_decay_generator(), 2), ValueError, "steady state is not finite"),
    "purity-hermiticity": (lambda: purity([0.5, 0.5, 0, 0.5]), ValueError, "state is not Hermitian within 1e-6"),
    "fwhm-off-grid": (lambda: fwhm(EDGE), ValueError, "half-maximum crossings fall outside the grid"),
    "measure-gap": (lambda: spectral_measure(LINE, LINE, 0.0), ValueError, "bandwidth must be positive"),
    # NaN and inf pass a bare sign test, so the bandwidth and the value are checked for finiteness too
    "measure-gap-nan": (lambda: spectral_measure(LINE, LINE, np.nan), ValueError,
                        "bandwidth must be positive and finite, got nan"),
    "measure-gap-inf": (lambda: spectral_measure(LINE, LINE, np.inf), ValueError,
                        "bandwidth must be positive and finite, got inf"),
    "measure-value-nan": (lambda: MeasureResult(np.nan, "spectral"), ValueError,
                          "measure values are nonnegative and finite, got nan"),
    "measure-value-inf": (lambda: MeasureResult(np.inf, "spectral"), ValueError,
                          "measure values are nonnegative and finite, got inf"),
    # NaN passes "> 1e-8", so the Hermiticity test of a state difference is written "not <= 1e-8"
    "trace-distance-nan": (lambda: trace_distance(qubit_state("g"), np.full((2, 2), np.nan)), ValueError,
                           "state difference is not Hermitian within 1e-8"),
    "backflow-nan": (lambda: backflow([0.1, np.nan, 0.3]), ValueError, "trace distances must be finite"),
    "trajectory-shape": (lambda: Trajectory(np.array([0.0, 1.0]), np.tile(qubit_state("g").reshape(-1), (3, 1))),
                         ValueError, r"states shape \(3, 4\) does not match times"),
    "waveguide-gamma": (lambda: WaveguideParams(omega0=200.0, gamma=0.0, beta=0.9), ValueError,
                        "gamma must be positive"),
    # before the grid rule came first, an empty or 0-d grid raised an IndexError at grid[0]
    "waveguide-grid-empty": (lambda: waveguide_spectrum(WAVEGUIDE, []), ValueError,
                             "^grid must be finite, 1-d, strictly increasing and at least 2 points long$"),
    "waveguide-grid-0d": (lambda: waveguide_spectrum(WAVEGUIDE, np.array(200.0)), ValueError,
                          "^grid must be finite, 1-d, strictly increasing and at least 2 points long$"),
    "eta-grid-size": (lambda: waveguide_measure_sweep(WAVEGUIDE, [0.5]), ValueError,
                      "eta_grid must be strictly increasing with at least 2 points"),
    "eta-grid-order": (lambda: waveguide_measure_sweep(WAVEGUIDE, [0.0, 0.5, 0.5]), ValueError,
                       "eta_grid must be strictly increasing with at least 2 points"),
    # NaN passes the ordering check of the grid; the waveguide at that delay names it
    "eta-grid-nan": (lambda: waveguide_measure_sweep(WAVEGUIDE, [0.0, np.nan]), ValueError,
                     "^eta must be finite, got nan$"),
    # a zero step would divide by zero, and a negative step or n_max would give an empty grid
    "resonant-eta-step-zero": (lambda: resonant_eta_grid(WAVEGUIDE, 4, 0), ValueError,
                               "^step must be at least 1, got 0$"),
    "resonant-eta-step-negative": (lambda: resonant_eta_grid(WAVEGUIDE, 4, -1), ValueError,
                                   "^step must be at least 1, got -1$"),
    "resonant-eta-n-max": (lambda: resonant_eta_grid(WAVEGUIDE, -4), ValueError,
                           "^n_max must be nonnegative, got -4$"),
    # before the integer check, step 1.5 gave 0, 1.5 and 3 wavelengths: delays that are not resonant
    "resonant-eta-step-fractional": (lambda: resonant_eta_grid(WAVEGUIDE, 3, 1.5), ValueError,
                                     "^step must be an integer, got 1.5$"),
    "resonant-eta-n-max-fractional": (lambda: resonant_eta_grid(WAVEGUIDE, 2.5), ValueError,
                                      "^n_max must be an integer, got 2.5$"),
    "resonant-eta-step-nan": (lambda: resonant_eta_grid(WAVEGUIDE, 4, np.nan), ValueError,
                              "^step must be an integer, got nan$"),
    "bath-measure-type": (lambda: bath_measure(WAVEGUIDE), TypeError, "unsupported bath parameters: WaveguideParams"),
    # a non-finite Liouvillian or frame is refused when the propagator is made, before any solve
    "propagator-l0-nan": (lambda: inverse_transform(free_propagator(np.diag([0.0, np.nan, 0.0, 0.0])),
                                                    [1.0, 0, 0, 0], [0.0, 1.0]), ValueError,
                          "propagator l0 must be finite"),
    "propagator-l0-inf": (lambda: emission_spectrum(free_propagator(np.diag([0.0, np.inf, -np.inf, 0.0])), GRID),
                          ValueError, "propagator l0 must be finite"),
    "propagator-omega-ref-nan": (lambda: free_propagator(np.zeros((4, 4)), omega_ref=np.nan), ValueError,
                                 "propagator omega_ref must be finite"),
    # the mode table is 4x4, so an l0 of another shape is refused by name, not by a broadcast failure
    "propagator-l0-shape": (lambda: free_propagator(np.zeros((3, 3))), ValueError,
                            r"propagator l0 must be 4x4 like its mode table, got shape \(3, 3\)"),
    "steady-state-l0-shape": (lambda: steady_state(free_propagator(np.zeros((3, 3)))), ValueError,
                              r"propagator l0 must be 4x4 like its mode table, got shape \(3, 3\)"),
    "propagate-l0-shape": (lambda: propagate(free_propagator(np.zeros((2, 2))), 0.0), ValueError,
                           r"propagator l0 must be 4x4 like its mode table, got shape \(2, 2\)"),
    "inverse-transform-l0-shape": (lambda: inverse_transform(free_propagator(np.zeros((9, 9))), [1.0, 0, 0, 0],
                                                             [0.0]), ValueError,
                                   r"propagator l0 must be 4x4 like its mode table, got shape \(9, 9\)"),
}
# Every cavity-bath entry point raises the one TypeError for parameters of another kind.  A
# bath-named function refuses the other cavity bath too: thermal_closed_spectrum of a squeezed
# bath returned the thermal form on the squeezed table, off by 6.9e-3 of the peak at FIG8.
_CAVITY_ENTRY_POINTS = {
    "effective-rates": effective_rates,
    "markovian-spectrum": lambda p: markovian_spectrum(p, GRID),
    "default-grid": default_frequency_grid,
    "spectral-gap": spectral_gap,
    "br-evolve": lambda p: br_evolve(p, qubit_state("e"), [0.0, 0.1]),
    "br-ge-distance": lambda p: br_ge_distance(p, [0.0, 0.1]),
    "bm-evolve": lambda p: bm_evolve(p, qubit_state("e"), [0.0, 0.1]),
}
CHECKS |= {
    f"{name}-type": (lambda call=call: call(WAVEGUIDE), TypeError, "^unsupported bath parameters: WaveguideParams$")
    for name, call in _CAVITY_ENTRY_POINTS.items()
}
# (name, call, the bath it takes); each is also given the other cavity bath and the waveguide
_BATH_NAMED = [
    ("thermal-closed-spectrum", lambda p: thermal_closed_spectrum(p, GRID), ThermalBathParams),
    ("squeezed-closed-spectrum", lambda p: squeezed_closed_spectrum(p, GRID), SqueezedBathParams),
    ("thermal-propagator", thermal_propagator, ThermalBathParams),
    ("squeezed-propagator", squeezed_propagator, SqueezedBathParams),
    ("thermal-kernel-time", lambda p: thermal_kernel_time(p, GRID + 1.0), ThermalBathParams),
    ("thermal-kernel-freq", lambda p: thermal_kernel_freq(p, GRID), ThermalBathParams),
    ("squeezed-kernel-time", lambda p: squeezed_kernel_time(p, GRID + 1.0), SqueezedBathParams),
    ("squeezed-kernel-freq", lambda p: squeezed_kernel_freq(p, GRID), SqueezedBathParams),
    ("bogoliubov", bogoliubov_params, SqueezedBathParams),
    # br_spectrum read the thermal detuning p.delta: AttributeError on a squeezed bath
    ("br-spectrum", lambda p: br_spectrum(p, GRID), ThermalBathParams),
]
_OTHER = {ThermalBathParams: SqueezedBathParams(**SQUEEZED), SqueezedBathParams: ThermalBathParams(**THERMAL)}
CHECKS |= {
    f"{name}-{type(p).__name__}": (lambda call=call, p=p: call(p), TypeError,
                                   f"^unsupported bath parameters: {type(p).__name__}$")
    for name, call, kind in _BATH_NAMED for p in (_OTHER[kind], WAVEGUIDE)
}
# NaN and inf pass every comparison of the parameter checks: each field of each
# parameter class is checked for finiteness first, and named
_VALID = {ThermalBathParams: THERMAL, SqueezedBathParams: SQUEEZED,
          WaveguideParams: dict(omega0=200.0, gamma=1.0, beta=0.9, eta=0.0)}
CHECKS |= {
    f"{cls.__name__}-{key}-{value}": (lambda cls=cls, kw={**valid, key: value}: cls(**kw), ValueError,
                                      f"^{key} must be finite, got {value}$")
    for cls, valid in _VALID.items() for key in valid for value in (np.nan, np.inf)
}


@pytest.mark.parametrize("case", CHECKS)
def test_input_check_names_the_fault(case):
    call, error, message = CHECKS[case]
    with pytest.raises(error, match=message):
        call()


def _bordered_ill_conditioned():
    # a qutrit generator whose trace-bordered system has pivots 1, 2^-52, 2^-52:
    # its solution has entries of order 2^104, whose sum cannot be 1 in double precision
    e = 2.0**-52
    gen = np.zeros((9, 9), dtype=complex)
    gen[4, [0, 4, 8]] = [1.0, 1.0 + e, 2.0]
    gen[8, [0, 4, 8]] = [1.0, 1.0, 1.0 + e]
    return gen


def _non_positive_joint_generator():
    # L chi = 0 exactly for chi = diag(2, -1, 0, ...) on the joint populations
    diagonal = np.arange(8) * 9
    gen = np.zeros((64, 64), dtype=complex)
    gen[diagonal[1:], diagonal[1:]] = 1.0
    gen[diagonal[1], diagonal[0]] = 0.5
    return index_triples(gen)


# The numerical guards: a finite input on which a computation fails its own check.
GUARDS = {
    # trapezoid of a subnormal peak underflows to 0
    "zero-area": (lambda: make_spectrum(np.array([0.0, 1e-10, 2e-10]), [0.0, 1e-320, 0.0]), ValueError,
                  "cannot normalize zero-area spectrum"),
    # a non-normal system matrix (1e8 above the diagonal) defeats one refinement pass
    "propagator-residual": (lambda: propagate(free_propagator(np.eye(4) + np.diag([1e8] * 3, 1)), 0.0), ValueError,
                            r"propagator residual .* at omega=0.0 exceeds 1e-10"),
    "steady-state-trace": (lambda: _steady_state(_bordered_ill_conditioned(), 3), ValueError,
                           "steady state trace .* deviates from 1"),
    # a "normalized" signal of area 1/2 against a unit-area reference
    "kl-negative": (lambda: kl_divergence(Spectrum(GRID, 0.5 * LINE.values, norm=1.0, normalized=True), LINE),
                    ValueError, r"relative entropy came out -5\.000e-01 < 0"),
    # g^2 overflows: the coupling products of the contraction are not finite
    "generic-kernel-non-finite": (lambda: generic_kernel_time(ThermalBathParams(**{**THERMAL, "g": 1e200}), [0.0]),
                                  ValueError, "^generic_kernel_time is not finite$"),
    # g^2 underflows to 0: no induced rate at all
    "gap-unitary": (lambda: spectral_gap(ThermalBathParams(**{**THERMAL, "g": 1e-200})), ValueError,
                    "generator is purely unitary; no spectral gap"),
    # pure decay of every element: no trace-preserving steady state
    "oracle-residual": (lambda: full_steady_state(FullModel(4, 0.0, index_triples(-np.eye(64)))),
                        RuntimeError, r"steady-state residual 1\.000e\+00 too large"),
    "oracle-positivity": (lambda: full_steady_state(FullModel(4, 0.0, _non_positive_joint_generator())), RuntimeError,
                          "joint steady state is not positive semidefinite"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_guard_names_the_fault(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call()


def test_valid_inputs_of_the_checks_pass():
    # the same calls on valid input, so each case above fails for its one fault only
    assert ThermalBathParams(**THERMAL).delta == 20.0 and SqueezedBathParams(**SQUEEZED).r == 115.0
    assert kernel_modes(ThermalBathParams(**THERMAL)).omega_ref == 120.0
    assert np.all(thermal_kernel_time(ThermalBathParams(1.0, 2e5, 2e5 - 50.0, 10.0, 0.1), [1e300]) == 0.0)
    assert np.all(np.isfinite(generic_kernel_time(ThermalBathParams(1.0, 2e5, 2e5 - 50.0, 10.0, 0.1), [0.0, 1.0])))
    assert fwhm(LINE) == pytest.approx(1.0)
    assert spectral_measure(LINE, LINE, 1.0).value == pytest.approx(0.0, abs=1e-15)
    assert backflow([0.1, 0.0, 0.3]) == pytest.approx(0.3)
    assert trace_distance(qubit_state("g"), qubit_state("e")) == pytest.approx(1.0)
    assert np.array_equal(expm([[0.0, 1e300], [0.0, 0.0]]), [[1.0, 1e300], [0.0, 1.0]])
    assert resonant_eta_grid(WAVEGUIDE, 0).tolist() == [0.0]
    assert resonant_eta_grid(WAVEGUIDE, 3, 1).tolist() == pytest.approx([2.0 * np.pi * n / 200.0 for n in range(4)])
    assert inverse_transform(FP, [0.5, 0.0, 0.0, 0.5], [0.0]) == pytest.approx(np.array([[0.5, 0.0, 0.0, 0.5]]))
    for call in _CAVITY_ENTRY_POINTS.values():
        call(ThermalBathParams(**THERMAL))
    for _, call, kind in _BATH_NAMED:
        call(kind(**_VALID[kind]))


def test_kernel_decay_overflow_at_a_finite_phase_gives_zero():
    # kappa t = 3e308 overflows while mu t = 1.5e308 does not: the kernel is 0, with no warning
    kernel = thermal_kernel_time(ThermalBathParams(1.0, 100.0, 100.0, 200.0, 0.1), [1.5e306])
    assert kernel.shape == (1, 4, 4) and np.all(kernel == 0.0)
