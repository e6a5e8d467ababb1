"""Exception types shared by the uwloc modules.

The CLI maps these onto process exit codes: configuration problems exit 2,
numerical/condition failures exit 3, and IO failures exit 4. A scene outside
the far-field model is a configuration problem, caught when the experiment
config is built.
"""


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
