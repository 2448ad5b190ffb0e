"""Exception types shared across the laboratory."""

from __future__ import annotations


class CmlabError(Exception):
    """Base class for all laboratory errors."""


class ConfigError(CmlabError):
    """Invalid run configuration or config file."""


class InfeasibleTopology(CmlabError):
    """The sign hypothesis on the Euler characteristic of the pair fails."""


class NonConvergence(CmlabError):
    """Newton iteration exhausted its budget without meeting the tolerance."""


class ResidualOverflow(CmlabError):
    """e^{2u} overflowed double precision; the caller must damp the step."""


class CurvatureSignError(CmlabError):
    """The CG model operator met a non-positive curvature direction."""


class NonStabilizingFlux(CmlabError):
    """Flux values failed to stabilize while shrinking circles.

    Carries the measured profile so the caller can inspect the descent.
    """

    def __init__(self, message: str, profile=None):
        super().__init__(message)
        self.profile = profile


class StageFailure(CmlabError):
    """A continuation stage failed; carries the stage index and the
    reports of the stages completed before it."""

    def __init__(self, message: str, stage: int, reports):
        super().__init__(message)
        self.stage = stage
        self.reports = tuple(reports)
