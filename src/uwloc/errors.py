"""Exception types shared by the uwloc modules.

The CLI maps these onto process exit codes: configuration problems exit 2,
numerical/condition failures exit 3, and IO failures exit 4.
"""


class ConfigError(ValueError):
    """Invalid environment, geometry, or experiment configuration."""


class DegenerateGeometryError(ValueError):
    """Source and receiver closer than the configured minimum distance."""


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

    def __reduce__(self):
        # Rebuild from the constructor arguments, so a pool worker can
        # raise it and the parent receives the same stage.
        return type(self), (self.stage, self.seed, self.cause)
