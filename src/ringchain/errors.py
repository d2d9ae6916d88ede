"""Exception types raised by the ring-chain solvers.

A ``SolverError`` is a solver limit or failure: among them, the raw
secular determinant's refusal of kappa * max(pi, ell) > 700, where its
hyperbolic entries would overflow.
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
    """A root that is guaranteed analytically could not be bracketed, an
    internal consistency check on solver output failed, or a hyperbolic
    argument is too large for the raw secular determinant (kappa *
    max(pi, ell) > 700), where the overflow-safe closed forms still
    answer."""


class LemmaWitnessError(RingChainError):
    """A numerical witness for one of the proof-auxiliary inequalities failed
    its tolerance.  This indicates a transcription bug, not a tuning issue."""
