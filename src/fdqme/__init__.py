"""Frequency-domain master equation toolkit.

Computes steady-state emission spectra of small open quantum systems directly
in the frequency domain, quantifies non-Markovianity through the relative
entropy between the spectrum and its Markov-limit counterpart, and ships
time-local (Born-Redfield / Born-Markov), waveguide, and exact full-system
references for cross-validation.
"""

from .baths import (
    BogoliubovParams,
    EffectiveRates,
    KernelModes,
    SqueezedBathParams,
    ThermalBathParams,
    bogoliubov_params,
    default_frequency_grid,
    effective_rates,
    generic_kernel_time,
    kernel_modes,
    locate_peak,
    markovian_spectrum,
    squeezed_closed_spectrum,
    squeezed_kernel_freq,
    squeezed_kernel_time,
    squeezed_steady_ground_population,
    thermal_closed_spectrum,
    thermal_kernel_freq,
    thermal_kernel_time,
)
from .fdme import (
    FrequencyPropagator,
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
from .liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    commutator_superop,
    devectorize,
    frame_transform,
    hs_inner,
    lindblad_dissipator,
    qubit_state,
    squeeze_dissipator,
    vectorize,
)
from .measures import (
    MeasureResult,
    blp_measure,
    fwhm,
    kl_divergence,
    spectral_gap,
    spectral_measure,
    trace_distance,
)
from .oracle import FullModel, build_full_model, full_steady_spectrum, full_steady_state
from .redfield import Trajectory, bm_evolve, br_correlator, br_evolve, br_spectrum
from .waveguide import (
    WaveguideParams,
    field_amplitude,
    resonant_eta_grid,
    waveguide_measure_sweep,
    waveguide_spectrum,
)

__version__ = "0.1.0"
