"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A root search or fixed-point iteration failed to converge."""


class BracketError(ConvergenceError):
    """A bracketing interval does not enclose a sign change."""


class IntegrationError(RuntimeError):
    """Numerical integration produced a non-finite state."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DegeneratePointError(RuntimeError):
    """A construction hit a (near-)singular denominator or operator."""


class InternalConsistencyError(RuntimeError):
    """Two redundant computations of the same quantity disagree."""


class WorkerError(OSError):
    """A worker process ended without sending its results (killed by a
    signal, say)."""


class ConfigError(ValueError):
    """Invalid simulation or scenario configuration, or a command-line
    parameter value outside its domain."""


class usage_errors:
    """Context manager that re-raises a DomainError from its block as a
    ConfigError: a value that a user gave, outside its domain, is a usage
    error (exit 2)."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, DomainError):
            raise ConfigError(str(exc)) from None
