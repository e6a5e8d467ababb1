"""Exception types shared by the uwloc modules, and the config value checks.

The CLI maps these onto process exit codes: configuration problems exit 2,
numerical/condition failures exit 3, and IO failures exit 4. A scene outside
the far-field model is a configuration problem, caught when the experiment
config is built. Every config dataclass (Environment, Geometry, GridSpec,
NetConfig, ExperimentConfig) checks its own values when it is built, value
types with whole, finite, items and finite_array, so the one config JSON
reader, direct construction and dataclasses.replace accept the same values.
"""

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid environment, geometry, or experiment configuration.

    Includes a volume, grid box or source outside the water column or within
    channel.DEFAULT_MIN_DISTANCE of a receiver.
    """


class StructureError(ValueError):
    """A matrix claimed to be block-structured is not."""


class EstimationError(ValueError):
    """Divergence estimation asked for with too few samples."""


class TrainingError(RuntimeError):
    """Network training diverged; message carries diagnostics."""


class StageError(RuntimeError):
    """A harness stage failed; records the stage name and seed for replay."""

    def __init__(self, stage, seed, cause):
        super().__init__(f"stage '{stage}' failed (seed {seed}): {cause}")
        self.stage = stage
        self.seed = seed
        self.cause = cause


def whole(value, name: str) -> int:
    """value as an int; anything but an integer (a boolean or 5.0 too) raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"'{name}' must be a whole number, got {value!r}")
    return int(value)


def _is_finite(value) -> bool:
    """Whether value is a finite real number and not a boolean."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def finite(value, name: str) -> float:
    """value as a float; anything but a finite real number (or a boolean) raises ConfigError."""
    if not _is_finite(value):
        raise ConfigError(f"'{name}' must be a finite number, got {value!r}")
    return float(value)


def finite_array(values, label: str) -> np.ndarray:
    """A nested array as a float array; an entry that fails finite's test, or a
    ragged nesting, raises ConfigError. The caller checks the shape."""
    cells = np.asarray(values, dtype=object)
    for value in cells.flat:
        if not _is_finite(value):
            raise ConfigError(f"{label} must be finite numbers in a regular array, got {value!r}")
    return cells.astype(float)


def items(values, check, name: str) -> tuple:
    """check(item, name) for each item of a JSON array (any iterable but a string)."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ConfigError(f"'{name}' must be a JSON array, got {values!r}")
    return tuple(check(value, name) for value in values)
