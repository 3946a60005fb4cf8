"""Generalized simplex gradients and nested-set Hessian estimates.

The gradient estimate over a direction set T solves, in the least-squares
sense, the system that matches forward differences of f along the columns
of T. Nesting an outer set S around it yields a Hessian estimate: row i of
the difference matrix compares the gradient estimate at ``x0 + s_i`` with
the one at ``x0``, and the pseudoinverse of ``S^T`` maps those rows back
to second-derivative coordinates. In matrix form the estimate is

    H = pinv(S^T) @ D @ pinv(T),
    D[i, j] = F[i, j] - F[i, 0] - F[0, j] + F[0, 0]   (i, j >= 1),

where ``F[i, j] = f((x0 + s_i) + t_j)``, with ``s_0 = t_0 = 0``, holds the
values on the ``(m+1) x (k+1)`` sample grid of
:func:`~nshess.sets.sample_grid`. The grid is read through a shared
:class:`~nshess.cache.EvaluationCache` in one bulk lookup, so coincident
points are evaluated once; on the folded pairs ``(S, U_k)`` that lookup
asks only for one point per :func:`~nshess.sets.fold_index` class. The
lookup's coincidence tolerance is the one the grid record of the geometry
worked out when it was built; the simplex gradient, which has no grid,
reads at :func:`~nshess.sets.dedup_tolerance` of ``x0`` and T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import EvaluationCache
from .sets import DirectionSet, _checked_grid, _require_full_row_rank, _simplex_values

__all__ = [
    "GradientResult",
    "HessianResult",
    "delta_f",
    "second_differences",
    "simplex_gradient",
    "nested_set_hessian",
]


@dataclass(frozen=True, eq=False)
class GradientResult:
    gradient: np.ndarray
    set_radius: float
    eval_count: int


@dataclass(frozen=True, eq=False)
class HessianResult:
    """Hessian estimate plus the provenance needed to reason about it.

    ``eval_count`` is the distinct-evaluation total of the cache when the
    estimate finished. The raw estimate is generally asymmetric;
    ``symmetrized`` records whether ``(H + H^T) / 2`` was applied.
    ``values`` is the read-only ``(m+1, k+1)`` grid F that
    :func:`nested_set_hessian` read, ``F[0, 0] = f(x0)`` and ``F[0, j] =
    f(x0 + t_j)``, so a rule row's simplex gradient on the same T reads
    row 0 and asks the cache nothing; it is ``None`` on estimates assembled
    otherwise. It is the array the grid record of ``(x0, S, T)``, one of
    the two S holds, keeps for its last cache, so a repeated estimate, or
    a model, on that cache and geometry reads it again with no request.
    """

    hessian: np.ndarray
    s_set: DirectionSet
    t_set: DirectionSet
    delta_u: float
    delta_l: float
    eval_count: int
    symmetrized: bool
    values: np.ndarray | None = None


def _base_point(x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError(f"x0 must be a 1-D point, got shape {x0.shape}")
    return x0


def second_differences(values: np.ndarray) -> np.ndarray:
    """``D[i, j] = F[i, j] - F[i, 0] - F[0, j] + F[0, 0]`` for ``i, j >= 1``."""
    return values[1:, 1:] - values[1:, :1] - values[:1, 1:] + values[0, 0]


def delta_f(x0, t_set: DirectionSet, cache: EvaluationCache) -> np.ndarray:
    """Forward differences ``f(x0 + t_j) - f(x0)`` along the columns of T."""
    x0 = _base_point(x0)
    if x0.shape[0] != t_set.dim:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, T expects {t_set.dim}")
    values = _simplex_values(x0, t_set, cache)
    return values[1:] - values[0]


def simplex_gradient(x0, t_set: DirectionSet, cache: EvaluationCache) -> GradientResult:
    """Least-squares gradient estimate from forward differences over T.

    T must have full row rank (at least n columns spanning R^n); the
    estimate is ``pinv(T^T) @ delta_f``, which reduces to the exact solve
    when T is square. ``f(x0)`` and ``f(x0 + t_j)`` are read from
    ``cache``; a rule row in simplex mode takes them from row 0 of the F
    its own estimate read instead.
    """
    x0 = _base_point(x0)
    if x0.shape[0] != t_set.dim:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, T expects {t_set.dim}")
    _require_full_row_rank(t_set, "T", transpose=True)
    g = _row_gradient(t_set, _simplex_values(x0, t_set, cache))
    return GradientResult(g, t_set.radius, cache.distinct_count)


def _row_gradient(t_set: DirectionSet, values: np.ndarray) -> np.ndarray:
    """``pinv(T^T) @ delta_f`` from ``values = [f(x0), f(x0 + t_1), ...]``."""
    return t_set.pinv(transpose=True) @ (values[1:] - values[0])


def nested_set_hessian(
    x0,
    s_set: DirectionSet,
    t_set: DirectionSet,
    cache: EvaluationCache,
    symmetrize: bool = False,
) -> HessianResult:
    """Hessian estimate from gradient estimates nested over an outer set S.

    Both S and T must have full row rank. The estimate is exact on
    quadratics for any such pair. ``symmetrize=True`` replaces the raw
    matrix with its symmetric part; the default reports the estimate as
    defined, which is generally asymmetric on non-quadratic functions.
    Computed as ``pinv(S^T) @ D @ pinv(T)``; the sample grid is read in
    one bulk cache lookup, row by row. When T is bitwise
    ``build_uk(S, k)`` that lookup asks only for the first cell of each
    :func:`~nshess.sets.fold_index` class, ``(n+1)(n+2)/2`` requests in
    all, and every other cell reads its class's value; any other pair
    requests every cell and leaves coincidences to the cache lookup, at
    the tolerance the grid record of this geometry holds. A repeated
    estimate on the same cache and geometry reads the grid the record
    holds from the last read and requests nothing.
    Raises :class:`~nshess.exceptions.CollapsedGridError` when a direction
    is too short for the coincidence tolerance of this geometry.
    """
    x0 = _base_point(x0)
    n = x0.shape[0]
    if s_set.dim != n or t_set.dim != n:
        raise ValueError(
            f"dimension mismatch: x0 in R^{n}, S in R^{s_set.dim}, T in R^{t_set.dim}"
        )
    _require_full_row_rank(s_set, "S", transpose=True)
    _require_full_row_rank(t_set, "T", transpose=False)
    values = _checked_grid(x0, s_set, t_set).read(cache)
    d = second_differences(values)
    h = s_set.pinv(transpose=True) @ d @ t_set.pinv()
    if symmetrize:
        h = 0.5 * (h + h.T)
    delta_u = max(s_set.radius, t_set.radius)
    delta_l = min(s_set.radius, t_set.radius)
    return HessianResult(
        hessian=h,
        s_set=s_set,
        t_set=t_set,
        delta_u=delta_u,
        delta_l=delta_l,
        eval_count=cache.distinct_count,
        symmetrized=symmetrize,
        values=values,
    )
