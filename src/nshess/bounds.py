"""Worst-case error bounds for the gradient and Hessian estimates.

The bounds take Lipschitz constants of the true derivatives on a ball
covering every sample point, together with conditioning factors of the
normalized direction sets. The factors are spectral norms computed from
the actual sets, read from the record that each
:class:`~nshess.sets.DirectionSet` makes of one SVD per orientation
(:meth:`~nshess.sets.DirectionSet.pinv_norm`), the SVD its estimator's
pseudoinverse comes from, so a bound factors no set again. Each
bound is a per-unit-radius constant times a radius; the rule certificates
of :mod:`nshess.calculus` read the same constants and input check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import DirectionSet, _checked_counts

__all__ = [
    "BoundInputs",
    "error_bound_gsg",
    "error_bound_nsh",
    "error_bound_canonical",
]


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed-form bounds consume.

    ``norm_s_pinv`` is the spectral norm of ``pinv(S_hat^T)`` and
    ``norm_t_pinv`` the one of ``pinv(T_hat)`` for the Hessian bound, or of
    ``pinv(T_hat^T)`` for the gradient bound, where the hat denotes the set
    divided by its radius. The factory methods compute the right variant.
    """

    m: int
    k: int
    lipschitz_grad: float
    lipschitz_hess: float
    delta_s: float
    delta_t: float
    norm_s_pinv: float
    norm_t_pinv: float

    def __post_init__(self):
        _require_nonnegative(
            m=self.m, k=self.k, lipschitz_grad=self.lipschitz_grad,
            lipschitz_hess=self.lipschitz_hess, delta_s=self.delta_s, delta_t=self.delta_t,
            norm_s_pinv=self.norm_s_pinv, norm_t_pinv=self.norm_t_pinv,
        )

    @property
    def delta_u(self) -> float:
        return max(self.delta_s, self.delta_t)

    @property
    def delta_l(self) -> float:
        return min(self.delta_s, self.delta_t)

    @classmethod
    def for_gradient(cls, t_set: DirectionSet, lipschitz_grad: float) -> "BoundInputs":
        """Inputs for :func:`error_bound_gsg` from an actual T."""
        return cls(
            m=0,
            k=t_set.count,
            lipschitz_grad=float(lipschitz_grad),
            lipschitz_hess=0.0,
            delta_s=t_set.radius,
            delta_t=t_set.radius,
            norm_s_pinv=0.0,
            norm_t_pinv=t_set.pinv_norm(transpose=True, normalized=True),
        )

    @classmethod
    def for_hessian(
        cls,
        s_set: DirectionSet,
        t_set: DirectionSet,
        lipschitz_grad: float,
        lipschitz_hess: float,
    ) -> "BoundInputs":
        """Inputs for :func:`error_bound_nsh` from actual S and T."""
        return cls(
            s_set.count, t_set.count, float(lipschitz_grad), float(lipschitz_hess),
            *_hessian_factors(s_set, t_set),
        )


def _hessian_factors(s_set: DirectionSet, t_set: DirectionSet) -> tuple[float, ...]:
    """``delta_s``, ``delta_t``, ``norm_s_pinv`` and ``norm_t_pinv`` of S and T."""
    norms = s_set.pinv_norm(transpose=True, normalized=True), t_set.pinv_norm(normalized=True)
    return (s_set.radius, t_set.radius, *norms)


def _require_nonnegative(**factors: float) -> None:
    """Reject a NaN or negative certificate factor, naming it."""
    for name, x in factors.items():
        if not x >= 0:
            raise ValueError(f"{name} must be nonnegative, got {x}")


def _gsg_constant(k: int, lipschitz_grad: float, norm_t_pinv: float) -> float:
    """``sqrt(k)/2 * L * norm_t_pinv``, the gradient bound per unit radius."""
    if k < 1:
        raise ValueError("gradient bound needs at least one direction")
    return 0.5 * math.sqrt(k) * lipschitz_grad * norm_t_pinv


def _nsh_constant(geometry, lipschitz_hess: float, norm_s_pinv: float, norm_t_pinv: float) -> float:
    """``m sqrt(k)/3 * L * (2 delta_u / delta_l + 3) * norm_s_pinv * norm_t_pinv``.

    The Hessian bound per unit upper radius; ``m``, ``k``, ``delta_u`` and
    ``delta_l`` are read from ``geometry``, a :class:`BoundInputs` or a
    :class:`~nshess.calculus.RuleGeometry`.
    """
    m, k, delta_u, delta_l = geometry.m, geometry.k, geometry.delta_u, geometry.delta_l
    if m < 1 or k < 1:
        raise ValueError("Hessian bound needs nonempty direction sets")
    if delta_l <= 0:
        raise ValueError("Hessian bound needs a strictly positive lower radius")
    return _nsh_product(m, k, lipschitz_hess, delta_u, delta_l, norm_s_pinv, norm_t_pinv)


def _nsh_product(m: int, k: int, lipschitz_hess, delta_u, delta_l, norm_s_pinv, norm_t_pinv):
    """The product of :func:`_nsh_constant`, unchecked: entrywise where the
    radii and norms are arrays, and bitwise the scalar product there."""
    ratio = 2.0 * delta_u / delta_l + 3.0
    return (m * math.sqrt(k) / 3.0) * lipschitz_hess * ratio * norm_s_pinv * norm_t_pinv


def error_bound_gsg(inputs: BoundInputs) -> float:
    """Gradient estimate error bound: ``sqrt(k)/2 * L * |pinv(T_hat^T)| * delta_T``."""
    return _gsg_constant(inputs.k, inputs.lipschitz_grad, inputs.norm_t_pinv) * inputs.delta_t


def error_bound_nsh(inputs: BoundInputs) -> float:
    """Hessian estimate error bound.

    ``m sqrt(k)/3 * L * (2 delta_u / delta_l + 3) * |pinv(S_hat^T)| *
    |pinv(T_hat)| * delta_u``; requires a strictly positive lower radius.
    """
    constant = _nsh_constant(inputs, inputs.lipschitz_hess, inputs.norm_s_pinv, inputs.norm_t_pinv)
    return constant * inputs.delta_u


def _error_bounds_nsh(pairs, lipschitz_grad: float, lipschitz_hess: float) -> list[float]:
    """``error_bound_nsh(BoundInputs.for_hessian(S, T, ...))``, bitwise, of each
    ``(S, T)`` of ``pairs``, all of one shape, in one array pass. Each check
    holds for every pair when it holds for the least radii and norms, so it
    runs once, on the :class:`BoundInputs` of those, and names that entry."""
    (s_set, t_set), *_ = pairs
    if any(s.count != s_set.count or t.count != t_set.count for s, t in pairs):
        raise ValueError("stacked Hessian bounds need direction sets of one shape")
    factors = np.array([_hessian_factors(s, t) for s, t in pairs])
    least = BoundInputs(
        s_set.count, t_set.count, float(lipschitz_grad), float(lipschitz_hess),
        *factors.min(axis=0).tolist(),
    )
    ds, dt, ns, nt = factors.T
    _nsh_constant(least, least.lipschitz_hess, least.norm_s_pinv, least.norm_t_pinv)  # its checks
    du = np.maximum(ds, dt)
    bounds = _nsh_product(least.m, least.k, least.lipschitz_hess, du, np.minimum(ds, dt), ns, nt)
    return (bounds * du).tolist()


def error_bound_canonical(n: int, k: int, beta: float, lipschitz_hess: float) -> float:
    """Hessian bound specialized to the canonical sets ``(beta I, beta E_k)``.

    ``5/3 * n^{3/2} * L * beta`` when ``k == 0`` and ``11/2 * n^2 * L * beta``
    otherwise.
    """
    n, k = _checked_counts(n, k)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    _require_nonnegative(lipschitz_hess=lipschitz_hess)
    if k == 0:
        return (5.0 / 3.0) * n ** 1.5 * lipschitz_hess * beta
    return 5.5 * n * n * lipschitz_hess * beta
