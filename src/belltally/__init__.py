"""Detection-aware Bell/CHSH statistics for two-qubit experiments.

The package separates registered-trials (conditional) statistics, which
reproduce quantum predictions and can violate the standard CHSH bound, from
all-trials (absolute) statistics, where each probability carries its
detection factor and a weighted CHSH bound of 2 holds for local models.
"""

from .chsh import (
    ChshReport,
    ChshSetting,
    angle_scan,
    conditional_expectations,
    detection_bound,
    min_detection_bound,
    modified_chsh_lhs,
    modified_lhs_grid_max,
    standard_chsh_lhs,
)
from .detection import (
    DetectionModel,
    GeneralizedObservable,
    OutcomeDistribution,
    generalized_correlation,
    sequential_distribution_factored,
)
from .errors import (
    BelltallyError,
    ConfigurationError,
    InputValidationError,
    ZeroProbabilityError,
)
from .lhv import (
    ChshSimulation,
    FairSamplingResult,
    MicrostateEnsemble,
    MicrostateModel,
    MixtureProbabilities,
    SimulationSummary,
    chsh_pairs,
    constant_model,
    fair_sampling_check,
    gisin_gisin_model,
    mixture_probabilities,
    random_microstate_model,
    run_experiment,
    sample_hidden_uniform,
    sign_model,
    simulate_chsh,
    summary_chsh,
)
from .quantum import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    DensityState,
    Direction,
    ProjectiveObservable,
    born_joint_probability,
    born_probability,
    observables_commute,
    quantum_expectation_product,
    singlet_state,
    spin_label,
    spin_observable,
)

__version__ = "0.1.0"
