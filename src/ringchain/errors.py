"""Exception types raised by the ring-chain solvers.

A ``SolverError`` is a solver limit or failure, such as a Brent solve
whose bracket does not change sign.
"""

from __future__ import annotations

__all__ = [
    "RingChainError",
    "SolverError",
    "LemmaWitnessError",
]


class RingChainError(Exception):
    """Base class for package-specific errors."""


class SolverError(RingChainError):
    """A root that is guaranteed analytically could not be bracketed, or an
    internal consistency check on solver output failed."""


class LemmaWitnessError(RingChainError):
    """A numerical witness for one of the proof-auxiliary inequalities failed
    its tolerance.  This indicates a transcription bug, not a tuning issue."""
