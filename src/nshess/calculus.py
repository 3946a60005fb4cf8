"""Composition rules for Hessian estimates and their error bounds.

Instead of estimating the Hessian of a product, quotient or power from
scratch, these rules combine the per-factor Hessian estimates with gradient
information, mirroring the classical calculus identities. Two modes choose
where that gradient information comes from:

* simplex mode uses the least-squares gradient estimates over T;
* quadratic mode uses the gradient of the interpolating quadratic over the
  full sample grid, which is exact whenever the factor is a quadratic, at
  zero additional evaluations.

Each factor is visited once, and each of its sample values is read once.
Its nested-set estimate reads the grid F from its cache, and the rest of
its record comes from F with no further request: ``f(x0)`` is ``F[0, 0]``;
the simplex gradient reads row 0 of F; the quadratic model reads the cells
of F of its point set's points, which the grid record on S holds for that cache.
So a rule makes no request of its own: the quotient rule checks that
``g(x0)``, ``F[0, 0]`` of g's grid, is not zero once both grids are read.
In quadratic mode the record also keeps the point set the gradient came
from. The rule assembles its estimate from these records, and a caller
certifying the estimate reads the same records, so the bound covers
exactly the numbers the estimate used. In
quadratic mode the factors share one geometry: the grid record on S gives
both of them the same point set, whose quadratic basis is factored once,
for the model's poisedness check, and read again by
:func:`model_gradient_constant` for each factor's certificate.

The matching ``calculus_error_bound`` evaluates per-rule worst-case bounds
from per-factor data, with the Hessian and gradient constants of
:mod:`nshess.bounds`. Each bound contains a minimum over several candidate
cross terms; candidates needing unavailable quantities are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .approx import HessianResult, _row_gradient, nested_set_hessian
from .bounds import _gsg_constant, _nsh_constant, _require_nonnegative
from .cache import EvaluationCache
from .quadmodel import QuadraticModel, interpolate_general
from .sets import DirectionSet, PointSet, _checked_grid, nshc_points

__all__ = [
    "CalcMode",
    "RuleGeometry",
    "RuleFunctionData",
    "RuleBoundInputs",
    "gradient_constant",
    "hessian_constant",
    "model_gradient_constant",
    "quadratic_model_gradient",
    "product_hessian",
    "quotient_hessian",
    "power_hessian",
    "calculus_error_bound",
]

_SQRT2 = math.sqrt(2.0)


class CalcMode(Enum):
    SIMPLEX = "simplex"
    QUADRATIC = "quadratic"

    @classmethod
    def coerce(cls, value) -> "CalcMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"mode must be 'simplex' or 'quadratic', got {value!r}"
            ) from None


@dataclass(frozen=True)
class RuleGeometry:
    """Shared sampling-geometry factors entering every rule bound."""

    m: int
    k: int
    delta_u: float
    delta_l: float
    norm_s_hat_pinv: float
    norm_t_hat_pinv: float
    norm_t_pinv: float

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("direction sets must be nonempty")
        if not 0 < self.delta_l <= self.delta_u:
            raise ValueError("radii must satisfy 0 < delta_l <= delta_u")
        _require_nonnegative(
            norm_s_hat_pinv=self.norm_s_hat_pinv, norm_t_hat_pinv=self.norm_t_hat_pinv,
            norm_t_pinv=self.norm_t_pinv,
        )

    @classmethod
    def from_sets(cls, s_set: DirectionSet, t_set: DirectionSet) -> "RuleGeometry":
        return cls(
            m=s_set.count,
            k=t_set.count,
            delta_u=max(s_set.radius, t_set.radius),
            delta_l=min(s_set.radius, t_set.radius),
            norm_s_hat_pinv=s_set.pinv_norm(transpose=True, normalized=True),
            norm_t_hat_pinv=t_set.pinv_norm(normalized=True),
            norm_t_pinv=t_set.pinv_norm(),
        )


@dataclass
class RuleFunctionData:
    """Per-factor quantities feeding a rule bound.

    ``grad_norm`` is the true gradient norm at ``x0`` when known.
    ``approx_grad_norm`` is the norm of whichever gradient estimate the
    mode uses (simplex estimate or model gradient). ``model_grad_constant``
    is the quadratic-mode gradient constant, user-supplied or computed by
    :func:`model_gradient_constant`. Optional fields left ``None`` simply
    disable the bound candidates that need them. ``value`` must be finite
    and every other field nonnegative, whether set at construction or
    later; NaN is rejected.
    """

    value: float
    lipschitz_grad: float | None = None
    lipschitz_hess: float | None = None
    grad_norm: float | None = None
    approx_grad_norm: float | None = None
    model_grad_constant: float | None = None

    def __setattr__(self, name, x):
        if name == "value" and not math.isfinite(x):
            raise ValueError(f"value must be finite, got {x}")
        if name != "value" and x is not None:
            _require_nonnegative(**{name: x})
        super().__setattr__(name, x)


@dataclass
class RuleBoundInputs:
    f: RuleFunctionData
    geometry: RuleGeometry
    g: RuleFunctionData | None = None
    power: int | None = None


def gradient_constant(geometry: RuleGeometry, data: RuleFunctionData) -> float:
    """Simplex-mode gradient constant ``sqrt(k)/2 * L_grad * |pinv(T)|``.

    The gradient bound's constant on the unnormalized ``norm_t_pinv``,
    read from T's own SVD (``|pinv(T^T)|`` in exact arithmetic), so the
    product with ``delta_u`` is the gradient error allowance the rule
    bounds budget.
    """
    if data.lipschitz_grad is None:
        raise ValueError("gradient constant needs the Lipschitz constant of the gradient")
    return _gsg_constant(geometry.k, data.lipschitz_grad, geometry.norm_t_pinv)


def hessian_constant(geometry: RuleGeometry, data: RuleFunctionData) -> float:
    """Hessian constant ``m sqrt(k)/3 * L_hess * (2 du/dl + 3) * norms``: times ``delta_u``,
    the factor's :func:`~nshess.bounds.error_bound_nsh`."""
    if data.lipschitz_hess is None:
        raise ValueError("Hessian constant needs the Lipschitz constant of the Hessian")
    return _nsh_constant(
        geometry, data.lipschitz_hess, geometry.norm_s_hat_pinv, geometry.norm_t_hat_pinv
    )


def model_gradient_constant(lipschitz_hess: float, points, x0) -> float:
    """Quadratic-mode gradient constant ``6 (1 + sqrt 2) sqrt(p) L |Qhat^-1|``.

    ``p`` is the number of interpolation points and ``Qhat`` the natural
    quadratic-basis matrix on the points shifted to ``x0`` and scaled by
    the largest distance from it. Multiplied by ``delta_u ** 2`` this
    budgets the model-gradient error at ``x0``. A :class:`PointSet` holds
    the singular values of ``Qhat`` for its last center, so after
    :func:`~nshess.quadmodel.interpolate_general` about ``x0`` on the same
    set this takes no SVD. ``x0`` must be a finite point of the points'
    dimension and ``lipschitz_hess`` nonnegative. A count other than
    ``(n+1)(n+2)/2``, like a singular basis, raises ``NotPoisedError``.
    """
    _require_nonnegative(lipschitz_hess=lipschitz_hess)
    if not isinstance(points, PointSet):
        points = PointSet._distinct(points, 0.0)
    points._poised(x0, strict=True)
    inv_norm = 1.0 / float(points._singular_values(x0)[-1])
    return 6.0 * (1.0 + _SQRT2) * math.sqrt(len(points)) * lipschitz_hess * inv_norm


def quadratic_model_gradient(
    cache: EvaluationCache, x0, s_set: DirectionSet, t_set: DirectionSet
) -> tuple[np.ndarray, QuadraticModel, PointSet]:
    """Model gradient at ``x0`` over the full sample grid of ``(S, T)``.

    The grid must consist of exactly ``(n+1)(n+2)/2`` distinct points and
    be poised, which :func:`~nshess.quadmodel.interpolate_general` decides
    once the values are read. Points are deduplicated at the tolerance of
    this geometry, which the grid record held on S worked out, and each
    point's value is read from a cell of its class in the grid F that the
    record reads from ``cache``: after a nested Hessian estimate at ``x0``
    on ``(S, T)`` and ``cache``, that is the F the estimate read, with no
    request. The record checks ``x0`` when it is built.
    """
    grid = _checked_grid(x0, s_set, t_set)
    pts = nshc_points(x0, s_set, t_set)  # the point set of ``grid``
    model = interpolate_general(pts, grid.point_values(cache), center=x0)
    return model.gradient(x0), model, pts


@dataclass(frozen=True)
class _FactorRecord:
    """One factor's read of its cache, used by both the rule and its bound.

    ``estimate`` is the factor's nested-set Hessian, ``value`` is ``f(x0)``
    and ``gradient`` the mode's gradient at ``x0``, both taken from the
    grid values the estimate read. In quadratic mode the record also keeps
    the ``points`` the model was built on, for the certificate; in simplex
    mode they are ``None``.
    """

    estimate: HessianResult
    value: float
    gradient: np.ndarray
    points: PointSet | None = None


def _require_exponent(p) -> None:
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise ValueError(f"power rule needs an integer exponent p >= 2, got {p!r}")


def _rule_estimate(
    rule: str,
    caches: list[EvaluationCache],
    x0,
    s_set: DirectionSet,
    t_set: DirectionSet,
    mode=CalcMode.SIMPLEX,
    symmetrize: bool = False,
    power: int | None = None,
) -> tuple[HessianResult, list[_FactorRecord]]:
    """The ``rule`` estimate over one read per factor, and the factor records.

    ``caches`` holds one cache per factor: ``[f, g]`` for the product and
    quotient rules, ``[f]`` for the power rule with exponent ``power``.
    """
    mode = CalcMode.coerce(mode)
    if rule == "power":
        _require_exponent(power)
    records = []
    for cache in caches:
        estimate = nested_set_hessian(x0, s_set, t_set, cache, symmetrize)
        values = estimate.values
        if mode is CalcMode.SIMPLEX:
            gradient, points = _row_gradient(t_set, values[0]), None
        else:  # from the F the estimate read
            gradient, _, points = quadratic_model_gradient(cache, x0, s_set, t_set)
        records.append(_FactorRecord(estimate, float(values[0, 0]), gradient, points))
    if rule == "quotient" and records[1].value == 0.0:
        raise ZeroDivisionError(
            f"quotient rule: g(x0) = {records[1].value!r} is zero at the point of interest"
        )
    hf, f0, gf = records[0].estimate.hessian, records[0].value, records[0].gradient
    if rule == "power":
        lead = f0 ** (power - 1)
        cross = 1.0 if power == 2 else f0 ** (power - 2)
        h = power * lead * hf + power * (power - 1) * cross * np.outer(gf, gf)
    else:
        hg, g0, gg = records[1].estimate.hessian, records[1].value, records[1].gradient
        if rule == "product":
            h = hf * g0 + np.outer(gf, gg) + np.outer(gg, gf) + hg * f0
        else:
            h = (
                g0 * g0 * hf
                - f0 * g0 * hg
                + 2.0 * f0 * np.outer(gg, gg)
                - g0 * (np.outer(gf, gg) + np.outer(gg, gf))
            ) / g0**3
    if symmetrize:
        h = 0.5 * (h + h.T)
    result = HessianResult(
        hessian=h,
        s_set=s_set,
        t_set=t_set,
        delta_u=records[0].estimate.delta_u,
        delta_l=records[0].estimate.delta_l,
        eval_count=sum(c.distinct_count for c in caches),
        symmetrized=symmetrize,
    )
    return result, records


def product_hessian(
    f_cache: EvaluationCache,
    g_cache: EvaluationCache,
    x0,
    s_set: DirectionSet,
    t_set: DirectionSet,
    mode=CalcMode.SIMPLEX,
    symmetrize: bool = False,
) -> HessianResult:
    """Hessian estimate of ``f * g`` assembled by the product rule."""
    return _rule_estimate("product", [f_cache, g_cache], x0, s_set, t_set, mode, symmetrize)[0]


def quotient_hessian(
    f_cache: EvaluationCache,
    g_cache: EvaluationCache,
    x0,
    s_set: DirectionSet,
    t_set: DirectionSet,
    mode=CalcMode.SIMPLEX,
    symmetrize: bool = False,
) -> HessianResult:
    """Hessian estimate of ``f / g`` assembled by the quotient rule.

    Raises ``ZeroDivisionError`` when ``g(x0)``, read from g's grid, is
    exactly zero, once both factors' grids are read.
    """
    return _rule_estimate("quotient", [f_cache, g_cache], x0, s_set, t_set, mode, symmetrize)[0]


def power_hessian(
    f_cache: EvaluationCache,
    x0,
    s_set: DirectionSet,
    t_set: DirectionSet,
    p: int,
    mode=CalcMode.SIMPLEX,
    symmetrize: bool = False,
) -> HessianResult:
    """Hessian estimate of ``f ** p`` for integer ``p >= 2``."""
    return _rule_estimate("power", [f_cache], x0, s_set, t_set, mode, symmetrize, p)[0]


def _min_available(candidates: list[float | None], label: str) -> float:
    usable = [c for c in candidates if c is not None]
    if not usable:
        raise ValueError(
            f"no computable candidate for the {label} cross-term minimum; "
            "supply gradient norms or estimate norms"
        )
    return min(usable)


def _grad_budget(mode: CalcMode, geometry: RuleGeometry, data: RuleFunctionData) -> float:
    """Constant whose product with the mode's step power budgets gradient error."""
    if mode is CalcMode.SIMPLEX:
        return gradient_constant(geometry, data)
    if data.model_grad_constant is None:
        raise ValueError(
            "quadratic mode needs model_grad_constant "
            "(see model_gradient_constant) for each factor"
        )
    return data.model_grad_constant


def _cross_minimum(
    rule: str,
    mode: CalcMode,
    geometry: RuleGeometry,
    f: RuleFunctionData,
    g: RuleFunctionData | None = None,
    ehg: float | None = None,
) -> float:
    """The least available cross-term candidate; ``ehg`` is g's Hessian constant (quotient)."""
    du = geometry.delta_u
    step = du if mode is CalcMode.SIMPLEX else du * du
    ef = _grad_budget(mode, geometry, f)
    f_norm, f_est = f.grad_norm, f.approx_grad_norm

    if rule == "power":
        cands = [
            None if f_norm is None else ef * step + 2.0 * f_norm,
            None if f_est is None or f_norm is None else f_est + f_norm,
        ]
        return _min_available(cands, "power rule")

    eg = _grad_budget(mode, geometry, g)
    g_norm, g_est = g.grad_norm, g.approx_grad_norm
    cands = [
        None if f_norm is None or g_norm is None else ef * eg * step + eg * f_norm + ef * g_norm,
        None if g_est is None or f_norm is None else ef * g_est + eg * f_norm,
        None if f_est is None or g_norm is None else eg * f_est + ef * g_norm,
    ]
    if rule == "quotient":
        extra_first = ehg * du if mode is CalcMode.SIMPLEX else ehg
        cands.append(None if g_norm is None else extra_first + 2.0 * eg * g_norm)
        cands.append(None if g_est is None or g_norm is None else eg * g_est + eg * g_norm)
    return _min_available(cands, f"{rule} rule")


def calculus_error_bound(rule: str, mode, inputs: RuleBoundInputs) -> float:
    """Worst-case error of the composed Hessian estimate at ``x0``.

    ``rule`` is one of ``product``, ``quotient``, ``power``. Simplex and
    quadratic modes budget the gradient errors differently, which shifts a
    step factor inside the cross term. Missing Lipschitz constants (or a
    missing model-gradient constant in quadratic mode) are rejected.
    """
    mode = CalcMode.coerce(mode)
    geometry = inputs.geometry
    f = inputs.f
    du = geometry.delta_u
    ehf = hessian_constant(geometry, f)
    m_step = 1.0 if mode is CalcMode.SIMPLEX else du

    if rule == "power":
        p = inputs.power
        _require_exponent(p)
        m_min = _cross_minimum(rule, mode, geometry, f)
        ef = _grad_budget(mode, geometry, f)
        lead = abs(f.value) ** (p - 1)
        cross = 1.0 if p == 2 else abs(f.value) ** (p - 2)
        return (p * ehf * lead + p * (p - 1) * ef * cross * m_min * m_step) * du

    if rule not in ("product", "quotient"):
        raise ValueError(f"unknown rule {rule!r}; expected product, quotient or power")
    g = inputs.g
    if g is None:
        raise ValueError(f"{rule} rule needs data for both factors")
    if rule == "quotient" and g.value == 0:
        raise ValueError("quotient bound undefined when g(x0) is zero")
    ehg = hessian_constant(geometry, g)
    m_min = _cross_minimum(rule, mode, geometry, f, g, ehg)
    if rule == "product":
        return (ehf * abs(g.value) + ehg * abs(f.value) + 2.0 * m_min * m_step) * du
    g0 = g.value
    core = (
        ehf * g0 * g0
        + ehg * abs(f.value * g0 * g0)
        + 2.0 * m_min * (abs(f.value) + abs(g0)) * m_step
    )
    return core * du / abs(g0) ** 3
