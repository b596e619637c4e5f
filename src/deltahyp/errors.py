"""Typed errors shared across the package."""

from __future__ import annotations


class DeltahypError(Exception):
    """Base class for all package errors."""


class RingMismatchError(DeltahypError):
    """Two polynomials from different rings were combined."""


class UnknownVariableError(DeltahypError):
    """A variable name is not part of the ring."""


class ExactDivisionError(DeltahypError):
    """An exact polynomial division left a nonzero remainder."""


class DegreeError(DeltahypError):
    """An operand has an unusable degree (e.g. resultant of a constant)."""


class ParseError(DeltahypError):
    """Polynomial text could not be parsed."""


class ConfigError(DeltahypError):
    """Invalid configuration (bad dimension, bad mode, bad flag combination)."""


class SchemaError(DeltahypError):
    """A JSON document does not match the published schema.

    ``positions`` lists the offending keys/paths.
    """

    def __init__(self, message: str, positions: list[str] | None = None):
        super().__init__(message)
        self.positions = positions or []


class GeometryError(DeltahypError):
    """Invalid numeric-geometry input (asymmetric operator, bad frame, ...)."""


class GridError(DeltahypError):
    """A sampled immersion grid is unusable (stencil/degeneracy problems)."""


class CheckpointFailure(DeltahypError):
    """A replay checkpoint failed in a way that halts the pipeline.

    Carries the partial report (``report``) for post-mortem inspection.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
