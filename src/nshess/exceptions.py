"""Exception types raised across the library."""

from __future__ import annotations

import numpy as np


class RankDeficientError(ValueError):
    """A direction matrix does not have the rank an operation requires."""

    def __init__(self, name: str, rank_found: int, rank_needed: int):
        self.name = name
        self.rank_found = rank_found
        self.rank_needed = rank_needed
        super().__init__(
            f"{name} is rank deficient: rank {rank_found} < {rank_needed} required"
        )


class CollapsedGridError(ValueError):
    """A direction is too short to keep its sample points apart.

    Raised when a column of a direction set has max-norm at or below the
    coincidence tolerance in use, so the grid would merge ``x0 + d`` with
    ``x0`` and the estimate would come out as a silent zero.
    """

    def __init__(self, name: str, spacing: float, tol: float):
        self.name = name
        self.spacing = spacing
        self.tol = tol
        super().__init__(
            f"{name} has a column of max-norm {spacing:.3e} at or below the coincidence "
            f"tolerance {tol:.3e}; its sample points would merge"
        )


class NotPoisedError(ValueError):
    """A point set does not determine a unique quadratic interpolant."""


class EvaluationError(RuntimeError):
    """The black-box oracle failed or returned a non-finite value."""

    def __init__(self, point, reason: str):
        self.point = np.asarray(point, dtype=float).copy()
        self.reason = reason
        super().__init__(f"oracle evaluation failed at {self.point.tolist()}: {reason}")
