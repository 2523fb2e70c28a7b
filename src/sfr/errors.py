"""Shared exception types; the CLI maps these onto its exit-code contract."""


class FormatError(ValueError):
    """Malformed or unreadable input: bad magic, truncated payload, broken manifest."""


class MismatchError(ValueError):
    """Inputs that parse individually but do not fit together (dimensions, unknown ids)."""


class FactorizationError(ArithmeticError):
    """The regularized Gram matrix could not be factored (not positive definite or numerically singular)."""
