"""Built-in test functions with analytic derivatives and certified constants.

Each entry carries its oracle, analytic gradient and Hessian, and Lipschitz
constants of the gradient and of the Hessian that are valid on a stated
ball around the entry's base point. The constants are derived from explicit
derivative bounds (documented per factory), never fitted to data, so error
bounds computed from them are sound certificates.

Every construction self-checks the analytic derivatives against central
finite differences before it is handed out. :func:`make_function` runs the
check once per ``(name, dim, seed, x0, ball_radius)``: the verdict depends
on nothing else, and a bounded memo keeps the keys that passed. A failing
check is never remembered, so it raises every time.
"""

from __future__ import annotations

import math
import threading
import zlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg

__all__ = [
    "TestFunction",
    "CompositeFunction",
    "registry_names",
    "make_function",
]

_SELFCHECK_RTOL = 1e-5

# make_function keys whose self-checks passed, oldest first, and the flag
# that lets the functions built for such a key skip the probes.
_PASSED: dict[tuple, None] = {}
_PASSED_MAX = 1024
_PASSED_LOCK = threading.Lock()
_SKIP_SELFCHECK: ContextVar[bool] = ContextVar("_SKIP_SELFCHECK", default=False)


def _central_gradient(oracle, x, h):
    n = x.shape[0]
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (oracle(x + e) - oracle(x - e)) / (2.0 * h)
    return g


def _selfcheck(name, oracle, gradient, hessian, x0, radius, rng):
    h = (np.finfo(float).eps) ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(x0))))
    for _ in range(3):
        u = rng.standard_normal(x0.shape[0])
        u /= np.linalg.norm(u)
        x = x0 + 0.3 * radius * u
        g_fd = _central_gradient(oracle, x, h)
        g_an = gradient(x)
        scale = 1.0 + float(np.max(np.abs(g_an)))
        if np.max(np.abs(g_fd - g_an)) > _SELFCHECK_RTOL * scale:
            raise ValueError(f"{name}: analytic gradient disagrees with finite differences")
        h_fd = np.column_stack(
            [
                (gradient(x + _unit(x.shape[0], i, h)) - gradient(x - _unit(x.shape[0], i, h)))
                / (2.0 * h)
                for i in range(x.shape[0])
            ]
        )
        h_an = hessian(x)
        scale = 1.0 + float(np.max(np.abs(h_an)))
        if np.max(np.abs(h_fd - h_an)) > _SELFCHECK_RTOL * scale:
            raise ValueError(f"{name}: analytic Hessian disagrees with finite differences")


def _unit(n, i, h):
    e = np.zeros(n)
    e[i] = h
    return e


@dataclass(eq=False)
class TestFunction:
    """A smooth scalar function with certified derivative data.

    ``lipschitz_grad`` bounds the Lipschitz constant of the gradient and
    ``lipschitz_hess`` the one of the Hessian, both valid on the closed
    ball of radius ``ball_radius`` around ``base_point``.
    """

    __test__ = False  # not a pytest case despite the name

    name: str
    dim: int
    oracle: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    lipschitz_grad: float
    lipschitz_hess: float
    base_point: np.ndarray
    ball_radius: float

    def __post_init__(self):
        self.base_point = np.asarray(self.base_point, dtype=float)
        if _SKIP_SELFCHECK.get():
            return
        rng = np.random.default_rng(zlib.crc32(self.name.encode()))
        _selfcheck(
            self.name, self.oracle, self.gradient, self.hessian,
            self.base_point, self.ball_radius, rng,
        )


@dataclass(eq=False)
class CompositeFunction:
    """A product, quotient or power of registry functions.

    Derivatives come from the exact calculus identities applied to the
    parts' analytic derivatives. Lipschitz certificates for the composite
    itself are only present where a sound closed form exists; rule-based
    error bounds use the parts' certificates instead.
    """

    name: str
    rule: str
    f: TestFunction
    g: TestFunction | None = None
    power: int | None = None
    lipschitz_grad: float | None = None
    lipschitz_hess: float | None = None
    base_point: np.ndarray = field(default=None)  # type: ignore[assignment]
    ball_radius: float = 0.0

    def __post_init__(self):
        if self.rule not in ("product", "quotient", "power"):
            raise ValueError(f"unknown composite rule {self.rule!r}")
        if self.rule == "power" and (self.power is None or self.power < 2):
            raise ValueError("power composite needs an integer exponent p >= 2")
        if self.rule in ("product", "quotient") and self.g is None:
            raise ValueError(f"{self.rule} composite needs two parts")
        if self.base_point is None:
            self.base_point = self.f.base_point
        self.base_point = np.asarray(self.base_point, dtype=float)
        if self.ball_radius == 0.0:
            self.ball_radius = self.f.ball_radius

    @property
    def dim(self) -> int:
        return self.f.dim

    def oracle(self, x) -> float:
        if self.rule == "product":
            return self.f.oracle(x) * self.g.oracle(x)
        if self.rule == "quotient":
            return self.f.oracle(x) / self.g.oracle(x)
        return self.f.oracle(x) ** self.power

    def gradient(self, x) -> np.ndarray:
        f0, gf = self.f.oracle(x), self.f.gradient(x)
        if self.rule == "power":
            return self.power * f0 ** (self.power - 1) * gf
        g0, gg = self.g.oracle(x), self.g.gradient(x)
        if self.rule == "product":
            return g0 * gf + f0 * gg
        return (g0 * gf - f0 * gg) / g0**2

    def hessian(self, x) -> np.ndarray:
        f0, gf, hf = self.f.oracle(x), self.f.gradient(x), self.f.hessian(x)
        if self.rule == "power":
            p = self.power
            cross = 1.0 if p == 2 else f0 ** (p - 2)
            return p * f0 ** (p - 1) * hf + p * (p - 1) * cross * np.outer(gf, gf)
        g0, gg, hg = self.g.oracle(x), self.g.gradient(x), self.g.hessian(x)
        if self.rule == "product":
            return g0 * hf + f0 * hg + np.outer(gf, gg) + np.outer(gg, gf)
        return (
            g0 * g0 * (hf - f0 / g0 * hg)
            + 2.0 * f0 * np.outer(gg, gg)
            - g0 * (np.outer(gf, gg) + np.outer(gg, gf))
        ) / g0**3


def _random_quadratic(dim, x0, radius, seed) -> TestFunction:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(dim, dim))
    h = 0.5 * (a + a.T)
    b = rng.uniform(-5.0, 5.0, size=dim)
    c = float(rng.uniform(-5.0, 5.0))
    # Gradient Lipschitz constant of a quadratic is |H| everywhere.
    return TestFunction(
        name=f"quadratic(seed={seed})",
        dim=dim,
        oracle=lambda x: float(0.5 * x @ h @ x + b @ x + c),
        gradient=lambda x: h @ x + b,
        hessian=lambda x: h.copy(),
        lipschitz_grad=linalg.spectral_norm(h),
        lipschitz_hess=0.0,
        base_point=x0,
        ball_radius=radius,
    )


def _sum_of_cubes(dim, x0, radius, seed) -> TestFunction:
    # Third derivative tensor applied to a unit vector is diag(6 u_i), so
    # the Hessian is 6-Lipschitz everywhere; the Hessian norm on the ball
    # is at most 6 (max_i |x0_i| + radius).
    reach = float(np.max(np.abs(x0))) + radius
    return TestFunction(
        name="sum_of_cubes",
        dim=dim,
        oracle=lambda x: float(np.sum(x**3)),
        gradient=lambda x: 3.0 * x**2,
        hessian=lambda x: np.diag(6.0 * x),
        lipschitz_grad=6.0 * reach,
        lipschitz_hess=6.0,
        base_point=x0,
        ball_radius=radius,
    )


def _exp_of_sum(dim, x0, radius, seed) -> TestFunction:
    # f = exp(sum x): every derivative is f times a tensor of ones, so with
    # F = max f on the ball, |grad| <= sqrt(n) F, |hess| <= n F, and the
    # Hessian is n^(3/2) F Lipschitz.
    n = dim
    f_max = math.exp(float(np.sum(x0)) + math.sqrt(n) * radius)
    return TestFunction(
        name="exp_of_sum",
        dim=dim,
        oracle=lambda x: float(np.exp(np.sum(x))),
        gradient=lambda x: np.exp(np.sum(x)) * np.ones(n),
        hessian=lambda x: np.exp(np.sum(x)) * np.ones((n, n)),
        lipschitz_grad=n * f_max,
        lipschitz_hess=n**1.5 * f_max,
        base_point=x0,
        ball_radius=radius,
    )


def _rosenbrock_value(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _rosenbrock_gradient(x):
    n = x.shape[0]
    g = np.zeros(n)
    g[:-1] += -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return g


def _rosenbrock_hessian(x):
    n = x.shape[0]
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, i] += 1200.0 * x[i] ** 2 - 400.0 * x[i + 1] + 2.0
        h[i + 1, i + 1] += 200.0
        h[i, i + 1] += -400.0 * x[i]
        h[i + 1, i] += -400.0 * x[i]
    return h


def _rosenbrock(dim, x0, radius, seed) -> TestFunction:
    if dim < 2:
        raise ValueError("rosenbrock needs dim >= 2")
    # Entrywise suprema over the ball give a Frobenius certificate for the
    # Hessian norm; the third-derivative tensor has entries 2400 x_i (one
    # per chain link) and -400 (three symmetric placements per link), whose
    # Frobenius norm bounds the Hessian's Lipschitz constant.
    reach = float(np.max(np.abs(x0))) + radius
    diag_sup = 1200.0 * reach**2 + 400.0 * reach + 202.0
    off_sup = 400.0 * reach
    l_grad = math.sqrt(dim * diag_sup**2 + 2 * (dim - 1) * off_sup**2)
    l_hess = math.sqrt((dim - 1) * ((2400.0 * reach) ** 2 + 3 * 400.0**2))
    return TestFunction(
        name="rosenbrock",
        dim=dim,
        oracle=_rosenbrock_value,
        gradient=_rosenbrock_gradient,
        hessian=_rosenbrock_hessian,
        lipschitz_grad=l_grad,
        lipschitz_hess=l_hess,
        base_point=x0,
        ball_radius=radius,
    )


def _product_quadratics(dim, x0, radius, seed) -> TestFunction | CompositeFunction:
    f = _random_quadratic(dim, x0, radius, seed)
    g = _random_quadratic(dim, x0, radius, seed + 1)
    hf_n = f.lipschitz_grad
    hg_n = g.lipschitz_grad
    gf_max = float(np.linalg.norm(f.gradient(np.asarray(x0, float)))) + hf_n * radius
    gg_max = float(np.linalg.norm(g.gradient(np.asarray(x0, float)))) + hg_n * radius
    vf_max = abs(f.oracle(np.asarray(x0, float))) + gf_max * radius
    vg_max = abs(g.oracle(np.asarray(x0, float))) + gg_max * radius
    # Third derivative of q1*q2 applied to a unit vector expands into six
    # rank-structured terms, three per factor, each bounded by |H| times
    # the other factor's gradient sup.
    l_hess = 3.0 * (hf_n * gg_max + hg_n * gf_max)
    l_grad = hf_n * vg_max + hg_n * vf_max + 2.0 * gf_max * gg_max
    return CompositeFunction(
        name="product_quadratics",
        rule="product",
        f=f,
        g=g,
        lipschitz_grad=l_grad,
        lipschitz_hess=l_hess,
        base_point=x0,
        ball_radius=radius,
    )


def _cubes_and_exp(name: str, rule: str, power: int | None = None):
    """Factory of the ``rule`` composite of ``sum_of_cubes`` with ``exp_of_sum``,
    or of ``sum_of_cubes`` alone raised to ``power``."""

    def build(dim, x0, radius, seed) -> CompositeFunction:
        return CompositeFunction(
            name=name,
            rule=rule,
            f=_sum_of_cubes(dim, x0, radius, seed),
            g=None if power else _exp_of_sum(dim, x0, radius, seed),
            power=power,
        )

    return build


# name -> (factory(dim, x0, ball_radius, seed), every coordinate of the default x0)
_ENTRIES = {
    "quadratic": (_random_quadratic, 0.0),
    "sum_of_cubes": (_sum_of_cubes, 1.0),
    "exp_of_sum": (_exp_of_sum, 0.0),
    "rosenbrock": (_rosenbrock, 0.0),
    "product_quadratics": (_product_quadratics, 0.0),
    "product_cubes_exp": (_cubes_and_exp("product_cubes_exp", "product"), 1.0),
    "quotient_cubes_exp": (_cubes_and_exp("quotient_cubes_exp", "quotient"), 1.0),
    "power_cubes_2": (_cubes_and_exp("power_cubes_2", "power", 2), 1.0),
}


def registry_names() -> list[str]:
    return sorted(_ENTRIES)


def make_function(
    name: str,
    dim: int,
    seed: int = 0,
    x0=None,
    ball_radius: float = 1.0,
):
    """Instantiate a registry entry with certificates on ``B(x0, ball_radius)``.

    ``x0`` defaults to the entry's natural base point. Unknown names raise
    ValueError listing what is available.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if not 0 < ball_radius < math.inf:
        raise ValueError(f"ball_radius must be positive and finite, got {ball_radius}")
    if name not in _ENTRIES:
        raise ValueError(f"unknown registry function {name!r}; available: {registry_names()}")
    factory, default = _ENTRIES[name]
    x0 = np.full(dim, default) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {x0.shape}")

    key = (name, dim, seed, x0.tobytes(), float(ball_radius))
    token = _SKIP_SELFCHECK.set(key in _PASSED)
    try:
        fn = factory(dim, x0, ball_radius, seed)
    finally:
        _SKIP_SELFCHECK.reset(token)
    with _PASSED_LOCK:
        _PASSED[key] = None
        if len(_PASSED) > _PASSED_MAX:
            del _PASSED[next(iter(_PASSED))]
    return fn
