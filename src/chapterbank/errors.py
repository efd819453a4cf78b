"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration violates one of its documented invariants."""


class SequenceLengthError(ConfigError):
    """Input sequence is longer than the model's configured maximum."""


class NumericError(FloatingPointError):
    """A NaN or Inf appeared where the contract requires finite values."""


class CheckpointMismatch(ValueError):
    """Checkpoint does not match the expected model configuration.

    ``diff`` maps field name -> {"expected": ..., "checkpoint": ...}
    (or, for tensor-table problems, a structured listing).
    """

    def __init__(self, diff: dict):
        self.diff = dict(diff)

        def fmt(key, val):
            if isinstance(val, dict) and set(val) == {"expected", "checkpoint"}:
                return f"{key}: expected {val['expected']!r}, found {val['checkpoint']!r}"
            return f"{key}: {val!r}"

        lines = "; ".join(fmt(k, v) for k, v in self.diff.items())
        super().__init__(f"checkpoint config mismatch: {lines}")


class TrainingAborted(RuntimeError):
    """Training stopped on a non-finite loss or gradient.

    ``last_checkpoint`` holds the most recent periodic ``Checkpoint``
    object (the starting state if no eval point was reached yet), and
    ``step`` the step that failed.
    """

    def __init__(self, message: str, last_checkpoint=None, step: int = -1):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint
        self.step = step
