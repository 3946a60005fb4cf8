"""Quadratic interpolation models over minimal evaluation point sets.

Two routes to the same model: a general solver that interpolates any poised
set of ``(n+1)(n+2)/2`` points, and a closed-form assembly that reuses the
function values a nested Hessian estimate already paid for, so the model
costs zero additional evaluations when the geometry is the folded pairing
``(S, U_k)``. Neither rebuilds what its geometry already holds: the
general solver reads the singular values its :class:`~nshess.sets.PointSet`
holds for the center, and the closed form reads the grid record that an
estimate on the same ``(x0, S, U_k)`` left on S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import second_differences
from .cache import EvaluationCache
from .exceptions import NotPoisedError
from .sets import (
    DirectionSet,
    PointSet,
    _checked_grid,
    _quadratic_terms,
    _require_full_row_rank,
    build_uk,
    quadratic_basis_matrix,
)

__all__ = [
    "QuadraticModel",
    "interpolate_general",
    "interpolate_minimal",
]


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Quadratic ``q(x) = alpha0 + alpha . x + x . hessian . x / 2``.

    The Hessian block is stored exactly symmetric.
    """

    alpha0: float
    alpha: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=float, copy=True)
        h = np.array(self.hessian, dtype=float, copy=True)
        if a.ndim != 1 or h.shape != (a.shape[0], a.shape[0]):
            raise ValueError(f"inconsistent model shapes: alpha {a.shape}, hessian {h.shape}")
        if not (np.isfinite(a).all() and np.isfinite(h).all() and np.isfinite(self.alpha0)):
            raise ValueError("model coefficients contain non-finite entries")
        h = 0.5 * (h + h.T)
        a.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "alpha0", float(self.alpha0))

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.alpha0 + self.alpha @ x + 0.5 * x @ self.hessian @ x)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.alpha + self.hessian @ x

    def to_record(self) -> dict:
        """Flat record: alpha0, alpha, and the upper triangle of the Hessian."""
        n = self.dim
        upper = [float(self.hessian[i, j]) for i in range(n) for j in range(i, n)]
        return {
            "alpha0": self.alpha0,
            "alpha": [float(v) for v in self.alpha],
            "hessian_upper": upper,
        }


def interpolate_general(points: PointSet, values, center=None) -> QuadraticModel:
    """Solve the full interpolation system on a poised minimal point set.

    Coordinates are shifted and scaled before the solve and the
    coefficients mapped back, which keeps the system well conditioned
    regardless of where the cluster sits. Raises
    :class:`~nshess.exceptions.NotPoisedError` when the set does not
    determine a unique quadratic, before ``values`` are checked: a count
    other than ``(n+1)(n+2)/2``, or a singular value of the basis at the
    cutoff. The point set holds those for ``center`` (the centroid when
    ``None``): a second solve about the same center on the same set, or a
    :func:`~nshess.calculus.model_gradient_constant` after it, takes no
    SVD.
    """
    n = points.dim
    basis, c, r = quadratic_basis_matrix(points.points, center)
    points._poised(c, basis, strict=True)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(points),):
        raise ValueError(f"values must have shape ({len(points)},), got {vals.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("values contain non-finite entries")

    coef = np.linalg.solve(basis, vals)
    residual = float(np.max(np.abs(basis @ coef - vals)))
    if residual > 1e-9 * (1.0 + float(np.max(np.abs(vals)))):
        raise NotPoisedError(f"interpolation residual {residual:.3e} exceeds tolerance")

    a0 = coef[0]
    a = coef[1 : n + 1]
    rows, cols, _ = _quadratic_terms(n)
    b = np.zeros((n, n))
    b[rows, cols] = b[cols, rows] = coef[n + 1 :]

    hessian = b / (r * r)
    alpha = a / r - (b @ c) / (r * r)
    alpha0 = a0 - (a @ c) / r + 0.5 * (c @ b @ c) / (r * r)
    return QuadraticModel(alpha0, alpha, hessian)


def interpolate_minimal(x0, s_set: DirectionSet, k: int, cache: EvaluationCache) -> QuadraticModel:
    """Closed-form model over the folded sample grid of ``(S, U_k)``.

    Reads its grid values through the grid record of ``(x0, S, U_k)``
    held on S, in one block of cache requests for the first cell of each
    :func:`~nshess.sets.fold_index` class: the same ``(n+1)(n+2)/2``
    points, bitwise, that :func:`~nshess.approx.nested_set_hessian`
    requests on ``(S, U_k)``. After that estimate on the same cache, the
    record returns the grid F the estimate read, so the model makes no
    request at all. The second differences ``D = S^T H U_k``
    of a quadratic give the curvature matrix ``S^T H S = D E_k``, where
    ``U_k = S E_k`` and ``E_k`` is its own inverse; two solves with ``S^T``
    then map it back. :func:`~nshess.sets.build_uk` checks that S is square
    and ``k``, then S's rank is checked, then ``x0`` by the grid record.
    """
    uk = build_uk(s_set, k)
    _require_full_row_rank(s_set, "S", transpose=True)
    values = _checked_grid(x0, s_set, uk).read(cache)
    d = second_differences(values)
    if k == 0:
        hhat = d
    else:
        # Column j of E_k is e_j - e_k (j != k) and column k is -e_k.
        hhat = d - d[:, k - 1 : k]
        hhat[:, k - 1] = -d[:, k - 1]
    # Symmetric in exact arithmetic; mirror the upper triangle.
    hhat = np.triu(hhat) + np.triu(hhat, 1).T

    # The rank check above covers these solves with S^T, which would
    # otherwise each need a fresh SVD to tell a singular S^T.
    st = s_set.matrix.T
    w = np.linalg.solve(st, hhat)
    hessian = np.linalg.solve(st, w.T).T
    hessian = 0.5 * (hessian + hessian.T)

    x0 = np.asarray(x0, dtype=float)
    f0 = values[0, 0]
    abar = values[1:, 0] - f0 - 0.5 * np.diag(hhat) - x0 @ hessian @ s_set.matrix
    alpha = np.linalg.solve(st, abar)
    alpha0 = f0 - alpha @ x0 - 0.5 * (x0 @ hessian @ x0)
    return QuadraticModel(alpha0, alpha, hessian)
