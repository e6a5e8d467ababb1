"""Direct underwater source localization under environment mismatch.

Simulation of multipath acoustic channels, closed-form and sample-based
performance bounds under a presumed/actual model mismatch, and two
localizers (grid maximum likelihood, learned regressor) with an
experiment harness tying them together.
"""

__version__ = "0.1.0"

from .bounds import (
    BlockForm,
    BoundEvaluation,
    block_diagonalize,
    build_covariance,
    csd_exact,
    delta_squared_closed_form,
    eigenvalues_closed_form,
    gamma_and_condition,
    snr_limits,
    strong_bound,
    weak_bound,
)
from .channel import (
    Environment,
    Geometry,
    arrivals_batch,
    average_attenuation,
    stratified_delay,
)
from .csd import CsdEstimate, estimate_csd
from .errors import (
    ConfigError,
    EstimationError,
    StageError,
    StructureError,
    TrainingError,
)
from .harness import (
    CurvePoint,
    ExperimentConfig,
    ExperimentResult,
    config_from_dict,
    default_experiment_config,
    derive_seed,
    emit_outputs,
    generate_dataset,
    load_config,
    parse_curve_csv,
    run_experiment,
)
from .localize import (
    GridEvaluator,
    GridSpec,
    NetModel,
    TrainingSet,
    concentrated_loglikelihood,
    extract_features,
    load_model,
    save_model,
    train_net,
)
from .signal import (
    angular_frequencies,
    load_observations,
    response_stack,
    response_stack_batch,
    save_observations,
)
