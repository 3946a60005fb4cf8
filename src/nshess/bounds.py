"""Worst-case error bounds for the gradient and Hessian estimates.

The bounds take Lipschitz constants of the true derivatives on a ball
covering every sample point, together with conditioning factors of the
normalized direction sets. The factors are spectral norms computed from
the actual sets, from the singular values each
:class:`~nshess.sets.DirectionSet` holds
(:meth:`~nshess.sets.DirectionSet.pinv_norm`), the same factorization its
estimator's pseudoinverse uses, so a bound factors no set again. Each
bound is a per-unit-radius constant times a radius; the rule certificates
of :mod:`nshess.calculus` read the same constants and input check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import DirectionSet

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
            m=s_set.count,
            k=t_set.count,
            lipschitz_grad=float(lipschitz_grad),
            lipschitz_hess=float(lipschitz_hess),
            delta_s=s_set.radius,
            delta_t=t_set.radius,
            norm_s_pinv=s_set.pinv_norm(transpose=True, normalized=True),
            norm_t_pinv=t_set.pinv_norm(normalized=True),
        )


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
    m, k, delta_l = geometry.m, geometry.k, geometry.delta_l
    if m < 1 or k < 1:
        raise ValueError("Hessian bound needs nonempty direction sets")
    if delta_l <= 0:
        raise ValueError("Hessian bound needs a strictly positive lower radius")
    ratio = 2.0 * geometry.delta_u / delta_l + 3.0
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


def error_bound_canonical(n: int, k: int, beta: float, lipschitz_hess: float) -> float:
    """Hessian bound specialized to the canonical sets ``(beta I, beta E_k)``.

    ``5/3 * n^{3/2} * L * beta`` when ``k == 0`` and ``11/2 * n^2 * L * beta``
    otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    _require_nonnegative(lipschitz_hess=lipschitz_hess)
    if k == 0:
        return (5.0 / 3.0) * n ** 1.5 * lipschitz_hess * beta
    return 5.5 * n * n * lipschitz_hess * beta
