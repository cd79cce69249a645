"""Detection-aware Bell/CHSH statistics for two-qubit experiments.

The package separates registered-trials (conditional) statistics, which
reproduce quantum predictions and can violate the standard CHSH bound, from
all-trials (absolute) statistics, where each probability carries its
detection factor and a weighted CHSH bound of 2 holds for local models.

Names load lazily (PEP 562): ``import belltally`` imports neither numpy nor
any submodule, and a public name or submodule is imported on first use.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it exports.
_EXPORTS = {
    "chsh": "ChshReport ChshSetting angle_scan conditional_expectations detection_bound"
    " min_detection_bound modified_chsh_lhs modified_lhs_grid_max standard_chsh_lhs",
    "detection": "DetectionModel GeneralizedObservable OutcomeDistribution"
    " generalized_correlation sequential_distribution_factored",
    "errors": "BelltallyError ConfigurationError InputValidationError ZeroProbabilityError",
    "lhv": "ChshSimulation FairSamplingResult MicrostateModel SimulationSummary chsh_pairs"
    " constant_model fair_sampling_check gisin_gisin_model random_microstate_model"
    " run_experiment sample_hidden_uniform sign_model simulate_chsh summary_chsh",
    "quantum": "X_AXIS Y_AXIS Z_AXIS DensityState Direction SpinObservable"
    " singlet_state spin_label spin_observable",
}
_SUBMODULES = (*_EXPORTS, "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
