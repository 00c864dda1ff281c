"""Grey-box input-gain identification for twin-thruster surface vessels.

Estimates how normalized PWM commands map to per-step velocity increments
(the input gain) from position/heading/PWM logs alone, under either a
static quadratic or a first-order dynamic propeller model, and validates
the identified models with one-step prediction metrics.
"""

from .dataprep import (
    GeoReference,
    PrepareConfig,
    PreparedDataset,
    PwmMapConfig,
    RawLogBundle,
    SavGolConfig,
    build_prepared_dataset,
)
from .errors import DataError, SchemaError
from .estimator import (
    IdentifiedModel,
    identify_from_systems,
    resolve_alpha,
    solve_least_squares,
)
from .model import (
    OperatingRegion,
    ThrustDynamicParams,
    ThrustStaticParams,
    thrust_static,
)
from .oracle import (
    DiscreteGenConfig,
    GroundTruth,
    default_ground_truth,
    generate_discrete,
    known_params_to_X,
    simulate_continuous,
)
from .regressors import RegressionSystem, build_systems
from .validate import (
    MetricsReport,
    PartitionSpec,
    mae,
    partition,
    r_squared,
    sensitivity_study,
    training_fraction_sweep,
)

__version__ = "0.1.0"
