"""Coherence modeling for a single atom in an optically trapped qubit.

Quantitative model of the two dephasing channels of a ground-state
qubit held in an optical dipole trap: a Gaussian channel from the
differential light shift spread and an exponential channel from
noise-driven phonon jumps. Includes thermal averaging, pulse-sequence
filter functions, photon-scattering limits, Monte-Carlo cross-checks,
noise-spectrum ingestion, and the fitting pipeline that extracts the
channel parameters from coherence data.
"""

from .coherence import (COHERENCE_MAX, COHERENCE_MIN, RAMSEY_THERMOMETRY_FACTOR,
                        CoherenceSeries, DecayParams, ScatteringParams,
                        analytic_series, coherence, gaussian_channel_mc,
                        lifetime_corrected_t2, ramsey_t2star_from_temperature,
                        scattering_decay_rate, scattering_params,
                        t2_gradient, t2_time, temperature_from_ramsey_t2star)
from .errors import (ConfigError, DomainError, FitConvergenceError, TrapcohError,
                     UnidentifiableModelError)
from .fitting import (FitResult, fit_coherence_decay, fit_exponential,
                      fit_fringe, fit_ramsey_decay)
from .noise import (NoiseSpectrum, TimeSeries, dbc_to_psd, estimate_psd,
                    psd_f_to_omega, psd_to_dbc, relative_variance)
from .phonon import (AxisRates, TrapNoise, axis_jump_rate, classical_thermal_rate,
                     first_jump_survival_mc, intensity_jump_rate,
                     pointing_jump_rate, survival_probability,
                     thermal_average_pjr, total_jump_rate)
from .sequences import (FilterCurve, FringeSample, PulseSequence, cpmg,
                        filter_function, filtered_sigma, ramsey, sample_filter,
                        simulate_fringe, spin_echo)
from .trap import (AtomSpecies, FixedOccupation, ThermalOccupation, TrapConfig,
                   cesium_eta, cesium_species, dls_mean, dls_sigma,
                   effective_detuning, eta_from_detuning, mean_phonon_number,
                   thermal_average_dls_sigma, thermal_moments, thermal_probability)

__version__ = "0.1.0"

__all__ = [
    "COHERENCE_MAX", "COHERENCE_MIN", "RAMSEY_THERMOMETRY_FACTOR",
    "AtomSpecies", "AxisRates", "CoherenceSeries", "ConfigError", "DecayParams",
    "DomainError", "FilterCurve", "FitConvergenceError", "FitResult",
    "FixedOccupation", "FringeSample", "NoiseSpectrum", "PulseSequence",
    "ScatteringParams", "ThermalOccupation", "TimeSeries", "TrapConfig",
    "TrapNoise", "TrapcohError", "UnidentifiableModelError",
    "analytic_series", "axis_jump_rate",
    "cesium_eta", "cesium_species", "classical_thermal_rate", "coherence",
    "cpmg", "dbc_to_psd", "dls_mean", "dls_sigma", "effective_detuning",
    "estimate_psd", "eta_from_detuning", "filter_function", "filtered_sigma",
    "first_jump_survival_mc", "fit_coherence_decay", "fit_exponential",
    "fit_fringe", "fit_ramsey_decay", "gaussian_channel_mc",
    "intensity_jump_rate", "lifetime_corrected_t2", "mean_phonon_number",
    "pointing_jump_rate", "psd_f_to_omega", "psd_to_dbc", "ramsey",
    "ramsey_t2star_from_temperature", "relative_variance", "sample_filter",
    "scattering_decay_rate", "scattering_params", "simulate_fringe",
    "spin_echo", "survival_probability", "t2_gradient", "t2_time",
    "temperature_from_ramsey_t2star", "thermal_average_dls_sigma",
    "thermal_average_pjr", "thermal_moments",
    "thermal_probability", "total_jump_rate",
]
