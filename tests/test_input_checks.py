"""Each library entry point rejects bad input with an error that names the fault."""

import numpy as np
import pytest

from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    free_liouvillian,
    generic_kernel_time,
    kernel_modes,
)
from fdqme.fdme import Spectrum, inverse_transform, make_spectrum, purity, thermal_propagator
from fdqme.liouville import frame_transform, left_multiplier, qubit_state
from fdqme.measures import fwhm, spectral_gap, spectral_measure
from fdqme.oracle import build_full_model
from fdqme.redfield import Trajectory, br_correlator
from fdqme.waveguide import WaveguideParams, waveguide_measure_sweep

THERMAL = dict(g=1.0, omega_q=120.0, omega_c=100.0, kappa=8.0, nbar=0.2)
SQUEEZED = dict(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
WAVEGUIDE = WaveguideParams(omega0=200.0, gamma=1.0, beta=0.9)
FP = thermal_propagator(ThermalBathParams(**THERMAL))
GRID = np.linspace(-1.0, 1.0, 5)
LINE = make_spectrum(GRID, [0.1, 0.5, 1.0, 0.5, 0.1])
# half maximum is never crossed on the right
EDGE = make_spectrum(GRID, [0.1, 0.5, 1.0, 0.9, 0.8])

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
    "full-model-type": (lambda: build_full_model(WAVEGUIDE, 8), TypeError,
                        "unsupported bath parameters: WaveguideParams"),
    "spectrum-shape": (lambda: Spectrum(GRID, np.ones(4), norm=1.0), ValueError, "values and grid shapes differ"),
    "spectrum-negative": (lambda: Spectrum(GRID, [1.0, 1.0, -1e-3, 1.0, 1.0], norm=1.0), ValueError,
                          "spectrum values must be nonnegative"),
    "qubit-state-name": (lambda: qubit_state("z+"), ValueError, "unknown qubit state 'z\\+'"),
    "non-square": (lambda: left_multiplier(np.zeros((2, 3))), ValueError,
                   r"expected a square matrix, got shape \(2, 3\)"),
    "frame-dimension": (lambda: frame_transform(np.eye(4), np.eye(9), 0.5), ValueError, "dimension mismatch"),
    # an initial state is checked before it is evolved
    "initial-trace": (lambda: inverse_transform(FP, [1.0, 0, 0, 1.0], [0.0]), ValueError,
                      r"state trace 2\+0j is not 1"),
    "initial-hermiticity": (lambda: inverse_transform(FP, [0.5, 0.5, 0, 0.5], [0.0]), ValueError,
                            "state is not Hermitian"),
    "purity-hermiticity": (lambda: purity([0.5, 0.5, 0, 0.5]), ValueError, "state is not Hermitian within 1e-6"),
    "gap-method": (lambda: spectral_gap(ThermalBathParams(**THERMAL), method="median"), ValueError,
                   "unknown method 'median'"),
    "fwhm-off-grid": (lambda: fwhm(EDGE), ValueError, "half-maximum crossings fall outside the grid"),
    "measure-gap": (lambda: spectral_measure(LINE, LINE, 0.0), ValueError, "bandwidth must be positive"),
    "trajectory-shape": (lambda: Trajectory(np.array([0.0, 1.0]), np.tile(qubit_state("g").reshape(-1), (3, 1))),
                         ValueError, r"states shape \(3, 4\) does not match times"),
    "correlator-tau": (lambda: br_correlator(ThermalBathParams(**THERMAL), [0.0, -0.5]), ValueError,
                       "correlator is defined for tau >= 0"),
    "waveguide-gamma": (lambda: WaveguideParams(omega0=200.0, gamma=0.0, beta=0.9), ValueError,
                        "gamma must be positive"),
    "eta-grid-size": (lambda: waveguide_measure_sweep(WAVEGUIDE, [0.5]), ValueError,
                      "eta_grid must be strictly increasing with at least 2 points"),
    "eta-grid-order": (lambda: waveguide_measure_sweep(WAVEGUIDE, [0.0, 0.5, 0.5]), ValueError,
                       "eta_grid must be strictly increasing with at least 2 points"),
}


@pytest.mark.parametrize("case", CHECKS)
def test_input_check_names_the_fault(case):
    call, error, message = CHECKS[case]
    with pytest.raises(error, match=message):
        call()


def test_valid_inputs_of_the_checks_pass():
    # the same calls on valid input, so each case above fails for its one fault only
    assert ThermalBathParams(**THERMAL).delta == 20.0 and SqueezedBathParams(**SQUEEZED).r == 115.0
    assert kernel_modes(ThermalBathParams(**THERMAL)).omega_ref == 120.0
    assert fwhm(LINE) == pytest.approx(1.0)
    assert spectral_measure(LINE, LINE, 1.0).value == pytest.approx(0.0, abs=1e-15)
    assert br_correlator(ThermalBathParams(**THERMAL), 0.0) == 1.0
    assert inverse_transform(FP, [0.5, 0.0, 0.0, 0.5], [0.0]) == pytest.approx(np.array([[0.5, 0.0, 0.0, 0.5]]))
