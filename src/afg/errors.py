"""Exception taxonomy shared across the pipeline.

The CLI maps these onto stable exit codes: ConfigError -> 2,
DataError -> 3, TrainingDivergedError -> 4.
"""


class AfgError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(AfgError):
    """Invalid or incomplete configuration (missing columns, paths, keys)."""


class DataError(AfgError):
    """Malformed or unusable input data."""


class EmptyInputError(DataError):
    pass


class RowError(DataError):
    """A single bad row or line in a corpus file; ``line`` is its line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ParseError(RowError):
    """A malformed line in a structured text corpus."""


class NotFoundError(DataError):
    pass


class DegenerateKeyError(DataError):
    """Answer-key value that cannot anchor a percentage difference (zero)."""


class KeyMismatchError(DataError):
    """Submission graded against the wrong paper's answer key."""


class ModelFormatError(DataError):
    """Base for model-file load failures."""


class BadMagicError(ModelFormatError):
    pass


class VersionMismatchError(ModelFormatError):
    pass


class ShapeMismatchError(ModelFormatError):
    pass


class CorruptModelError(ModelFormatError):
    """Truncated payload, checksum mismatch or a non-finite weight."""


class TrainingDivergedError(AfgError):
    """The loss, or the weights as float32, became non-finite during training."""

    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step} (non-finite {what})")
        self.step = step
