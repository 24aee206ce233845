"""Exception types shared across the package."""


class GasketflowError(Exception):
    """Base class for package-specific failures."""


class DomainMismatchError(GasketflowError):
    """Operands live on different graphs or have incompatible shapes."""


class ResourceLimitError(GasketflowError):
    """Requested construction exceeds the configured size limit."""


class ConvergenceError(GasketflowError):
    """Inner solver failed to reach the requested tolerance.

    Carries the last residual and iteration count; a flow's steps before
    the failure are those ``flow.advance`` yielded or an evolve sink took.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ConfigError(GasketflowError):
    """Invalid run configuration (CLI flags or JSON config files)."""
