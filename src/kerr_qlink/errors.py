"""Exception hierarchy shared across the package.

The split mirrors the CLI exit codes: configuration problems (exit 2),
physics domain violations (exit 3) and self-verification failures (exit 4).
"""


class KerrQlinkError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KerrQlinkError):
    """A scenario / sweep configuration could not be parsed or validated."""


class DomainError(KerrQlinkError, ValueError):
    """Inputs left the physical or mathematical domain of an operation."""


class NoRootInBracketError(DomainError):
    """A root finder was handed a bracket on which the target never changes sign."""


class HigherOrderRegimeError(DomainError):
    """The first-order error-propagation relation is invalid because the
    leading shift term has (nearly) vanished; higher-order corrections would
    dominate and the operation refuses rather than extrapolate."""


class RegimeError(DomainError):
    """A quantity was requested outside the perturbative regime in which its
    defining formula holds.  Carries the classification message."""


class NumericalError(KerrQlinkError):
    """A numerical backend (quadrature, Richardson ladder, ODE integrator)
    failed to reach its requested tolerance, or a compensated result failed
    its own consistency check."""
