"""Exception and warning types shared across the package."""


class IcrfError(Exception):
    """Base class; carries a machine-readable ``code`` for the CLI."""

    code = "error"


class ParseError(IcrfError):
    code = "parse_error"


class InvariantViolation(IcrfError):
    code = "invariant_violation"


class EmptyInput(IcrfError):
    code = "empty_input"


class InvalidAnchor(IcrfError):
    code = "invalid_anchor"


class DegenerateQuantiles(IcrfError):
    code = "degenerate_quantiles"


class InsufficientData(IcrfError):
    code = "insufficient_data"


class DimensionMismatch(IcrfError):
    code = "dimension_mismatch"


class InvalidFold(IcrfError):
    code = "invalid_fold"


class EmptyOob(IcrfError):
    code = "empty_oob"


class MissingTruth(IcrfError):
    code = "missing_truth"


class NpmleWarning(UserWarning):
    """An NPMLE stopped without meeting its optimality certificate."""
