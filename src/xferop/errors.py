"""Exception types shared across the toolkit.

Every error raised on a contract violation derives from :class:`XferopError`
so callers (and the CLI) can distinguish input problems from genuine bugs.
"""

from __future__ import annotations


class XferopError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(XferopError):
    """Structurally malformed system, potential or test function."""


class ParseError(XferopError):
    """Spec file could not be parsed; the message names the offending field."""


class DepthExceeded(XferopError):
    """An iteration depth larger than the configured bound was requested."""

    def __init__(self, requested: int, bound: int):
        super().__init__(f"depth {requested} exceeds configured bound {bound}")
        self.requested = requested
        self.bound = bound


class OutOfDomain(XferopError):
    """A point left the domain of the map during forward iteration."""

    def __init__(self, point, step: int):
        super().__init__(f"point {point} leaves the domain at step {step}")
        self.point = point
        self.step = step


class NotValidated(XferopError):
    """Operation requires a potential that passed validation."""


class EmptyBasis(XferopError):
    """No basis points survive truncation."""


class OutOfSpectrum(XferopError):
    """Requested point does not belong to the computed spectrum stratum."""


class HypothesisViolated(XferopError):
    """A hypothesis of the invoked construction fails for this system."""


class SupportViolation(XferopError):
    """Test function support touches points excluded by the contract."""


class NoSolution(XferopError):
    """Root bracketing failed; carries endpoint diagnostics."""

    def __init__(self, message: str, data: dict | None = None):
        super().__init__(message)
        self.data = dict(data or {})


class NotLocalHomeo(XferopError):
    """System is not everywhere regular, so the requested model is refused."""


class UnsupportedPotential(XferopError):
    """Exact closed form would leave the piecewise-affine class."""
