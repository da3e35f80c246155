"""Desk-scale toolkit for transfer operators of piecewise maps and shifts.

Builds finite models of weighted-preimage averaging operators: exact domain
dynamics, truncated matrix representations, spectra of the associated matrix
towers, dynamical verdicts, equilibrium-measure machinery, and path groupoid
models, plus a command line front end.
"""

from .errors import (
    DepthExceeded,
    EmptyBasis,
    HypothesisViolated,
    NoSolution,
    NotLocalHomeo,
    NotValidated,
    OutOfDomain,
    OutOfSpectrum,
    ParseError,
    SupportViolation,
    UnsupportedPotential,
    ValidationError,
    XferopError,
)
from .intervals import Fraction, IntervalSet, Q, RationalInterval, frac, frac_str

__version__ = "0.1.0"

__all__ = [
    "DepthExceeded",
    "EmptyBasis",
    "Fraction",
    "HypothesisViolated",
    "IntervalSet",
    "NoSolution",
    "NotLocalHomeo",
    "NotValidated",
    "OutOfDomain",
    "OutOfSpectrum",
    "ParseError",
    "Q",
    "RationalInterval",
    "SupportViolation",
    "UnsupportedPotential",
    "ValidationError",
    "XferopError",
    "frac",
    "frac_str",
    "__version__",
]
