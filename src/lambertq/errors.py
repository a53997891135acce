"""Exception types shared across the library."""


class LambertQError(Exception):
    """Base class for all library-specific errors."""


class DomainError(LambertQError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ParamError(LambertQError, ValueError):
    """A distribution parameter violates the family's constraints."""


class NoAnalyticFormError(LambertQError):
    """The family has no analytic quantile; use the numeric inverter."""


class BracketError(LambertQError, RuntimeError):
    """No finite quantile inside the support: numeric inversion could not bracket
    a root, or the analytic form left the doubles."""
