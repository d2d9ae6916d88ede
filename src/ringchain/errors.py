"""Exception types raised by the ring-chain solvers."""

from __future__ import annotations

__all__ = [
    "RingChainError",
    "SolverError",
    "OverflowGuardError",
    "LemmaWitnessError",
]


class RingChainError(Exception):
    """Base class for package-specific errors."""


class SolverError(RingChainError):
    """A root that is guaranteed analytically could not be bracketed, or an
    internal consistency check on solver output failed."""


class OverflowGuardError(SolverError):
    """Hyperbolic arguments too large for the raw secular determinant;
    callers must use the closed forms, which are overflow safe."""


class LemmaWitnessError(RingChainError):
    """A numerical witness for one of the proof-auxiliary inequalities failed
    its tolerance.  This indicates a transcription bug, not a tuning issue."""
