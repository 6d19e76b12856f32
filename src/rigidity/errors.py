"""Exception types raised by the rigidity toolkit."""

from __future__ import annotations


class RigidityError(Exception):
    """Base class for all toolkit errors."""


class BadDimension(RigidityError):
    """Matrix or tensor dimension outside the supported range."""


class NotTraceFree(RigidityError):
    """Operation requires a trace-free input and the trace is too large."""


class BadParams(RigidityError):
    """Invalid construction parameters (radii, grids, scale factors)."""


class BadProfile(RigidityError):
    """Rotation profile is nonpositive somewhere on the requested domain."""


class ODEStepFailure(RigidityError):
    """Profile integration cannot meet the requested minimality tolerance."""


class DegenerateChart(RigidityError):
    """Chart Jacobian is rank deficient at a sample point."""


class StepTooLarge(RigidityError):
    """Finite-difference self-consistency check failed."""


class ParseError(RigidityError):
    """Field file is not valid JSON."""


class SchemaError(RigidityError):
    """Field file does not match the expected schema."""


class InvariantViolation(RigidityError):
    """A structural invariant (symmetry, positivity, consistency) failed."""


class InvalidField(RigidityError):
    """Shape field cannot be analyzed (wrong dimension, empty, inconsistent)."""


class NonFiniteResult(RigidityError):
    """A result overflowed or is NaN, so it cannot be reported as JSON."""
