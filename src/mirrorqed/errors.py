"""Exception hierarchy.

Every library-raised error derives from MirrorQEDError so callers can
catch the whole family; numerical failures carry enough state to report
partial results instead of masking them.
"""

from __future__ import annotations


class MirrorQEDError(Exception):
    """Base class for all library errors."""


class InvalidParams(MirrorQEDError, ValueError):
    """An argument is outside the documented domain."""


class ConfigError(MirrorQEDError, ValueError):
    """A sweep configuration failed to parse or validate."""


class DegenerateMirror(InvalidParams):
    """|r| >= 1 where a partially transparent mirror is required."""


class NonConvergence(MirrorQEDError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best value so far so callers can report it alongside the
    failure instead of discarding the work.
    """

    def __init__(self, message: str, value=None, err_estimate: float = float("nan"),
                 n_evals: int = 0):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.n_evals = n_evals


class TailTooLarge(MirrorQEDError):
    """Truncated reflection series cannot meet the requested tail bound."""

    def __init__(self, message: str, bound: float, tol: float):
        super().__init__(message)
        self.bound = bound
        self.tol = tol


class TruncationLeak(MirrorQEDError):
    """Population reached the top of the photon-number ladder."""


class StepTooLarge(InvalidParams):
    """Recording spacing too coarse: dt * max(rates) must stay below 0.1."""
