"""Exception taxonomy shared across the pipeline: ``AfgError`` and one class per
CLI exit code, ``ConfigError`` -> 2, ``DataError`` -> 3 and ``TrainingDivergedError``
-> 4. ``RowError`` is the ``DataError`` of one bad line; its message starts with the
line number, as ``TrainingDivergedError``'s names the step.
"""


class AfgError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(AfgError):
    """Invalid or incomplete configuration (missing columns, paths, keys)."""


class DataError(AfgError):
    """Malformed or unusable input data."""


class RowError(DataError):
    """A single bad row or line in a corpus file, ``line`` its line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class TrainingDivergedError(AfgError):
    """The loss, or the weights as float32, became non-finite during training."""

    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step} (non-finite {what})")
