"""Trapping-detrapping flicker-noise simulator and spectral toolkit.

Carriers drifting through a homogeneous sample alternate between free
drift and capture in trapping centers whose escape rates are uniformly
distributed (equivalently: activated escape over Boltzmann-distributed
trap depths).  The package simulates the resulting pulse-train currents,
estimates their power spectral densities, and evaluates the closed-form
spectra they should follow, including the flicker window
``S(f) = N a^2 nu / (gamma_max f)``, the finite-observation
low-frequency cutoff, and the Hooge coefficient
``alpha = trapping_rate / gamma_max``.
"""
from .analysis import (
    CutoffPrediction,
    HoogeEstimate,
    MaterialParams,
    effective_cutoff,
    expected_min_rate,
    fit_loglog,
    hooge_alpha_exact,
    hooge_alpha_fitted,
    hooge_alpha_predicted,
    plateau_onset,
    pulse_height_from_material,
    trapping_rate_from_material,
)
from .analytic import (
    chi_exponential,
    chi_uniform_rate,
    chi_uniform_rate_approx,
    one_over_f_window,
    psd_full_expression,
    psd_general_pulse,
    psd_lorentzian,
    psd_multi_carrier,
    psd_one_over_f,
    psd_poisson_pulse,
)
from .distributions import (
    ArrheniusRates,
    NonergodicError,
    PoissonTrapping,
    UniformRates,
    detrap_cdf,
    detrap_mean,
    detrap_pdf,
    sample_detrap_time,
    sample_rate,
)
from .presets import ExperimentSpec, preset, spec_from_dict, spec_to_dict
from .runner import run, run_spectrum_config
from .simulate import (
    CarrierPath,
    SampledSignal,
    SimConfig,
    carrier_stream,
    empirical_nu,
    simulate_carrier,
    simulate_realization,
    superpose,
)
from .spectra import (
    SpectrumEstimate,
    average_spectra,
    logbin_spectrum,
    natural_frequencies,
    periodogram_fft,
    periodogram_superposed_events,
)

__version__ = "0.1.0"
