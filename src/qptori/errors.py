"""Exception hierarchy; each class carries the CLI exit code."""

from __future__ import annotations


class QptoriError(Exception):
    exit_code = 1


class ConvergenceError(QptoriError):
    """Newton iteration did not reach the requested residual."""

    exit_code = 2


class ResonanceError(QptoriError):
    """A cohomological block is singular or dangerously close to it."""

    exit_code = 3

    def __init__(self, message, kappa=None):
        super().__init__(message)
        self.kappa = kappa


class SpectrumError(QptoriError):
    """The Floquet matrix has no eigenvalue of the requested kind."""

    exit_code = 4


class ArtifactError(QptoriError):
    """Unreadable or incompatible artifact file."""

    exit_code = 5


class IntegrationError(QptoriError):
    """Adaptive step-size underflow; carries the time that was reached."""

    exit_code = 6

    def __init__(self, message, t_reached=None):
        super().__init__(message)
        self.t_reached = t_reached
