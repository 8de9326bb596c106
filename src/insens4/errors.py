"""Error types shared across the package.

Every failure mode carries a stable ``code`` string so that callers (and
the command line) can branch on the condition without parsing messages.
"""
from __future__ import annotations

__all__ = [
    "Insens4Error",
    "SetupError",
    "WeightError",
    "EngineError",
    "SynthesisError",
    "IterationError",
]


class Insens4Error(Exception):
    """Base error; ``code`` is a stable machine-readable identifier."""

    def __init__(self, code: str, message: str, **context):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.context = context


class SetupError(Insens4Error):
    """Invalid grid, mask, coefficient, or problem configuration."""


class WeightError(Insens4Error):
    """Weight construction or parameter admissibility failure."""


class EngineError(Insens4Error):
    """Time-stepping failure (inner solve divergence and similar)."""


class SynthesisError(Insens4Error):
    """Control synthesis failure (stalled minimization)."""


class IterationError(Insens4Error):
    """Outer fixed-point iteration failure, with iterate history attached."""
