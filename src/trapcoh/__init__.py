"""Coherence modeling for a single atom in an optically trapped qubit.

Quantitative model of the two dephasing channels of a ground-state
qubit held in an optical dipole trap: a Gaussian channel from the
differential light shift spread and an exponential channel from
noise-driven phonon jumps. Includes thermal averaging, pulse-sequence
filter functions, photon-scattering limits, Monte-Carlo cross-checks,
noise-spectrum ingestion, and the fitting pipeline that extracts the
channel parameters from coherence data.

The package namespace is lazy (PEP 562): ``import trapcoh`` loads no
submodule and no numpy. The first access to a name of ``__all__``, or to
a submodule such as ``trapcoh.fitting``, imports its module and caches
the value in this module's globals, so later lookups cost nothing extra.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: the public names, by the submodule that defines them
_EXPORTS = {
    "coherence": ("COHERENCE_MAX", "COHERENCE_MIN", "RAMSEY_THERMOMETRY_FACTOR",
                  "CoherenceSeries", "DecayParams", "ScatteringParams", "analytic_series",
                  "coherence", "gaussian_channel_mc", "lifetime_corrected_t2",
                  "ramsey_t2star_from_temperature", "scattering_decay_rate",
                  "scattering_params", "t2_gradient", "t2_time",
                  "temperature_from_ramsey_t2star"),
    "errors": ("ConfigError", "DomainError", "FitConvergenceError", "TrapcohError",
               "UnidentifiableModelError"),
    "fitting": ("FitResult", "fit_coherence_decay", "fit_exponential", "fit_fringe",
                "fit_ramsey_decay"),
    "noise": ("NoiseSpectrum", "TimeSeries", "dbc_to_psd", "estimate_psd", "psd_f_to_omega",
              "psd_to_dbc", "relative_variance"),
    "phonon": ("AxisRates", "TrapNoise", "axis_jump_rate", "classical_thermal_rate",
               "first_jump_survival_mc", "intensity_jump_rate", "pointing_jump_rate",
               "survival_probability", "thermal_average_pjr", "total_jump_rate"),
    "sequences": ("FilterCurve", "FringeSample", "PulseSequence", "cpmg", "filter_function",
                  "filtered_sigma", "ramsey", "sample_filter", "simulate_fringe", "spin_echo"),
    "trap": ("AtomSpecies", "FixedOccupation", "ThermalOccupation", "TrapConfig", "cesium_eta",
             "cesium_species", "dls_mean", "dls_sigma", "effective_detuning",
             "eta_from_detuning", "mean_phonon_number", "thermal_average_dls_sigma",
             "thermal_moments", "thermal_probability"),
}
_SUBMODULES = frozenset(("cli", "constants", "io", "report", *_EXPORTS))
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Namespace(types.ModuleType):
    """Importing the submodule trapcoh.coherence binds it on this package; the
    package keeps that name for the function coherence.coherence instead."""

    def __setattr__(self, name, value):
        if not (name == "coherence" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
