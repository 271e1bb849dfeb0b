"""Exception types shared across the package.

Everything derives from ValueError so that callers who do not care about
the fine-grained distinctions can still catch bad inputs the obvious way.
"""

from __future__ import annotations


class InvalidParameterError(ValueError):
    """A physical or reduced parameter is outside its allowed range."""


class InstabilityError(InvalidParameterError):
    """The parametric gain is at or beyond the threshold where the
    steady state ceases to exist (G >= kappa0/2)."""


class DomainError(ValueError):
    """A quantity was requested at a point where it is not defined."""


class DivergentSensitivityError(DomainError):
    """Force sensitivity requested at phi = +-pi/2: the phase quadrature
    carries no force signal, so the noise-to-signal ratio diverges."""


class ResonanceDomainError(DomainError):
    """Trapped-particle sensitivity requested at or below the mechanical
    resonance, where the lossless response kernel changes sign."""


class InvalidRangeError(ValueError):
    """A sweep or search interval is empty, reversed, or escapes the
    domain the library checks for its input."""
