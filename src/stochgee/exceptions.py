"""Exception types raised across the package."""


class StochGeeError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(StochGeeError, ValueError):
    """Input contains NaN/inf entries or has an unusable shape."""


class SymmetryViolationError(InvalidInputError):
    """A matrix required to be symmetric exceeds the asymmetry tolerance."""


class NotPositiveDefiniteError(StochGeeError):
    """A matrix required to be positive definite is not.

    Carries the offending smallest eigenvalue in ``lambda_min`` and,
    where relevant, the 1-based cluster index in ``cluster_index``.
    """

    def __init__(self, message, lambda_min=None, cluster_index=None):
        super().__init__(message)
        self.lambda_min = lambda_min
        self.cluster_index = cluster_index


class InvalidVarianceError(StochGeeError):
    """A conditional variance is zero, negative, or non-finite."""


class DatasetParseError(StochGeeError):
    """Malformed dataset file. Carries the offending ``line`` number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SingularJacobianError(StochGeeError):
    """Newton step failed: Jacobian singular even after regularization."""


class SingularDesignError(StochGeeError):
    """Normal matrix of a closed-form solve is singular.

    Carries the smallest eigenvalue in ``lambda_min``.
    """

    def __init__(self, message, lambda_min=None):
        super().__init__(message)
        self.lambda_min = lambda_min


class SingularDenominatorError(StochGeeError):
    """Determinant ratio requested against a numerically singular matrix."""


class ConfigError(InvalidInputError):
    """Invalid configuration value. Carries the offending ``field`` name."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class MisspecificationWarning(UserWarning):
    """Emitted when a scenario deliberately violates the model's
    mean-variance relationship."""
