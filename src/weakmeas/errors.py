"""Exception hierarchy.

Three broad classes, mirrored by the CLI exit codes: bad input (dimension
mismatches, malformed scenario files, unusable parameters), physically
undefined requests (orthogonal selection, impossible post-selection), and
numerical guard trips (grid too small, eigensolver failure).
"""

from __future__ import annotations


class WeakMeasError(Exception):
    """Base class for all errors raised by this package."""


class InputError(WeakMeasError, ValueError):
    """Malformed or out-of-contract input."""


class DimensionMismatchError(InputError):
    """Operands live in incompatible or unsupported Hilbert-space dimensions."""


class NonHermitianError(InputError):
    """An observable argument is not Hermitian within tolerance."""


class ScenarioFormatError(InputError):
    """A scenario document or reference could not be parsed or validated."""


class SweepSpecError(InputError):
    """A parameter-sweep specification is malformed."""


class PhysicsUndefinedError(WeakMeasError):
    """The requested quantity has no definition for the given physics."""


class OrthogonalSelectionError(PhysicsUndefinedError):
    """Pre- and post-selected states are orthogonal: the weak value has a
    vanishing denominator and conditional readouts do not exist."""


class PostSelectionImpossibleError(PhysicsUndefinedError):
    """Post-selection probability underflows to zero on this configuration."""


class ZeroAcceptedError(PhysicsUndefinedError):
    """A sampling run accepted no trials, so conditional estimates are undefined."""


class NumericalGuardError(WeakMeasError):
    """A numerical validity guard tripped; results would not be trustworthy."""


class GridGuardError(NumericalGuardError):
    """The pointer grid cannot support the requested state or translation
    (wrap-around risk, boundary leakage, or insufficient extent)."""


class ConvergenceError(NumericalGuardError):
    """LAPACK's Hermitian eigensolver (numpy.linalg.eigh) did not converge."""
