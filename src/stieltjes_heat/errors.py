"""Exception types shared across the package."""


class StieltjesError(Exception):
    """Base class for package errors."""


class DomainError(StieltjesError, ValueError):
    """A point falls outside the interval a derivator is defined on."""


class SchemaError(StieltjesError, ValueError):
    """A JSON problem or derivator description is malformed."""


class InvariantError(StieltjesError, ValueError):
    """A structural invariant of a derivator or problem is violated.

    The message names the violated invariant.
    """


class GateError(StieltjesError):
    """A mathematical precondition gate failed (regressivity, series
    conditions, convergence-radius gates)."""


class NonConvergenceError(StieltjesError):
    """Extrapolation failed to settle; carries the last two estimates."""

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class DivergenceError(StieltjesError):
    """An integration produced a non-finite state; carries the last good node."""

    def __init__(self, message, last_node=None):
        super().__init__(message)
        self.last_node = last_node


class NoSolutionError(StieltjesError):
    """A boundary-value problem has no solution for the given data."""


class EvaluationError(StieltjesError):
    """An integrand or field returned a non-finite sample, or a solution's
    values failed the re-check made after its gate passed: the data are
    valid, but the evaluation is not accurate enough to confirm them."""
