"""Grey-box input-gain identification for twin-thruster surface vessels.

Estimates how normalized PWM commands map to per-step velocity increments
(the input gain) from position/heading/PWM logs alone, under either a
static quadratic or a first-order dynamic propeller model, and validates
the identified models with one-step prediction metrics.

The public names below are imported from their modules on first access
(PEP 562), so ``import asvid`` itself loads no numpy.
"""

import sys

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "dataprep": (
            "GeoReference",
            "PrepareConfig",
            "PreparedDataset",
            "PwmMapConfig",
            "RawLogBundle",
            "SavGolConfig",
            "build_prepared_dataset",
        ),
        "errors": ("DataError", "SchemaError"),
        "estimator": (
            "IdentifiedModel",
            "identify_from_systems",
            "resolve_alpha",
            "solve_least_squares",
        ),
        "model": ("OperatingRegion", "ThrustDynamicParams", "ThrustStaticParams", "thrust_static"),
        "oracle": (
            "DiscreteGenConfig",
            "GroundTruth",
            "default_ground_truth",
            "generate_discrete",
            "known_params_to_X",
            "simulate_continuous",
        ),
        "regressors": ("RegressionSystem", "build_systems"),
        "validate": (
            "MetricsReport",
            "PartitionSpec",
            "mae",
            "partition",
            "r_squared",
            "sensitivity_study",
            "training_fraction_sweep",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_EXPORTS[name]}"
    __import__(module)  # unlike importlib.import_module, seen by -X importtime
    value = getattr(sys.modules[module], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
