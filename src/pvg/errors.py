"""Exception hierarchy shared across the package.

Every error carries a short machine-parsable ``category`` string; the CLI
prints ``error:<category>: <message>`` on a single line and exits nonzero.
"""


class PvgError(Exception):
    """Base class for all checked errors raised by this package."""

    category = "error"


class DimensionError(PvgError):
    """Operand shapes are incompatible with the requested operation."""

    category = "dimension"


class EmptyReductionError(PvgError):
    """A reduction was requested over an axis of extent zero."""

    category = "empty-reduction"


class DegenerateInputError(PvgError):
    """Input is structurally valid but degenerate (zero-norm row under
    cosine, empty neighborhood, ...)."""

    category = "degenerate-input"


class NonFiniteError(PvgError):
    """A NaN or Inf was found where only finite values are allowed."""

    category = "non-finite"


class GraphReleasedError(PvgError):
    """A backward sweep reached an autograd node that an earlier backward
    already consumed."""

    category = "graph-released"


class ConfigError(PvgError):
    """A configuration value violates its documented constraints."""

    category = "config"


class FileFormatError(PvgError):
    """A tensor file failed validation (bad magic, bad rank, truncation)."""

    category = "file-format"


class LabelRangeError(PvgError):
    """A dataset label lies outside [0, num_classes)."""

    category = "label-range"


class CountMismatchError(PvgError):
    """Image count and label count of a dataset disagree."""

    category = "count-mismatch"


class CheckpointError(PvgError):
    """Checkpoint manifest and model configuration disagree."""

    category = "checkpoint"


class EvaluationError(PvgError):
    """A probed function produced a non-finite value during a check."""

    category = "evaluation"
