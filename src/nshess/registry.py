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

The oracles, gradients and Hessians call numpy's C paths directly
(``a.dot(b)``, ``np.add.reduce``, constants held per function) and return
the bytes of the plain expressions they stand for, which
``tests/test_registry.py`` keeps and compares.
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


def _central_differences(fn, x, h):
    """``(fn(x + h e_i) - fn(x - h e_i)) / 2h`` for each coordinate ``i``:
    the gradient of an oracle, or the Hessian columns of a gradient."""
    steps = np.where(np.eye(x.shape[0], dtype=bool), h, 0.0)  # row i is h e_i
    return [(fn(x + e) - fn(x - e)) / (2.0 * h) for e in steps]


def _central_gradient(oracle, x, h):
    return np.array(_central_differences(oracle, x, h), dtype=float)


@np.errstate(all="ignore")  # a probe that overflows raises ValueError in _agree instead
def _selfcheck(name, oracle, gradient, hessian, x0, radius, rng):
    h = (np.finfo(float).eps) ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(x0))))
    for _ in range(3):
        u = rng.standard_normal(x0.shape[0])
        u /= np.linalg.norm(u)
        x = x0 + 0.3 * radius * u
        _agree(name, "gradient", _central_gradient(oracle, x, h), gradient(x))
        _agree(name, "Hessian", np.column_stack(_central_differences(gradient, x, h)), hessian(x))


def _agree(name, what, fd, an):
    """Raise unless the finite differences ``fd`` match the analytic ``an``.
    A comparison with NaN would pass, so a probe that is not finite raises
    first."""
    if not (np.isfinite(fd).all() and np.isfinite(an).all()):
        raise ValueError(f"{name}: the {what} self-check is not finite at a probe near x0")
    scale = 1.0 + float(np.max(np.abs(an)))
    if not np.max(np.abs(fd - an)) <= _SELFCHECK_RTOL * scale:
        raise ValueError(f"{name}: analytic {what} disagrees with finite differences")


@np.errstate(all="ignore")  # what overflows is refused below, with no warning
def _check_base_point(name, fn, x0):
    """Raise unless ``fn``'s oracle, gradient and Hessian are finite at
    ``x0``. A composite's parts pass their own checks, yet their product,
    quotient or power may overflow, or a quotient divide by zero."""
    try:
        values = (fn.oracle(x0), fn.gradient(x0), fn.hessian(x0))
    except ArithmeticError:
        values = (math.nan,)
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"{name}: the oracle or a derivative is not finite at x0")


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


def _divide(a: float, b: float) -> float:
    """``a / b`` for the floats the parts' oracles return, divided as numpy
    divides: ``±inf`` or NaN where ``b`` is zero (with numpy's warning),
    where Python's float division raises ``ZeroDivisionError``. Bitwise
    ``a / b`` for every other ``b``."""
    return a / b if b else float(np.divide(a, b))


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
            return _divide(self.f.oracle(x), self.g.oracle(x))
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
            return p * f0 ** (p - 1) * hf + p * (p - 1) * cross * (gf[:, None] * gf)
        g0, gg, hg = self.g.oracle(x), self.g.gradient(x), self.g.hessian(x)
        if self.rule == "product":
            return g0 * hf + f0 * hg + (gf[:, None] * gg) + (gg[:, None] * gf)
        return (
            g0 * g0 * (hf - _divide(f0, g0) * hg)
            + 2.0 * f0 * (gg[:, None] * gg)
            - g0 * ((gf[:, None] * gg) + (gg[:, None] * gf))
        ) / g0**3


def _random_quadratic(dim, x0, radius, seed) -> TestFunction:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(dim, dim))
    h = 0.5 * (a + a.T)
    b = rng.uniform(-5.0, 5.0, size=dim)
    c = float(rng.uniform(-5.0, 5.0))
    half = 0.5 * h  # exact, so x . half == (0.5 * x) . h but for subnormals the sum drops
    # Gradient Lipschitz constant of a quadratic is |H| everywhere.
    return TestFunction(
        name=f"quadratic(seed={seed})",
        dim=dim,
        oracle=lambda x: float(x.dot(half).dot(x) + b.dot(x) + c),
        gradient=lambda x: h.dot(x) + b,
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
        oracle=lambda x: float(np.add.reduce(x**3)),
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
    ones, ones2 = np.ones(n), np.ones((n, n))
    # np.add.reduce is what np.sum calls; it also takes a list or a tuple.
    return TestFunction(
        name="exp_of_sum",
        dim=dim,
        oracle=lambda x: float(np.exp(np.add.reduce(x))),
        gradient=lambda x: np.exp(np.add.reduce(x)) * ones,
        hessian=lambda x: np.exp(np.add.reduce(x)) * ones2,
        lipschitz_grad=n * f_max,
        lipschitz_hess=n**1.5 * f_max,
        base_point=x0,
        ball_radius=radius,
    )


def _rosenbrock_value(x):
    a = x[:-1]
    d = x[1:] - a * a
    e = 1.0 - a
    return float(np.add.reduce(100.0 * (d * d) + e * e))


def _rosenbrock_gradient(x):
    a = x[:-1]
    d = x[1:] - a * a
    g = np.zeros(x.shape[0])
    g[:-1] += -400.0 * a * d - 2.0 * (1.0 - a)
    g[1:] += 200.0 * d
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
    ValueError listing what is available; so does a self-check that is not
    finite at its probes, an oracle, gradient or Hessian that is not finite
    at ``x0``, or a certificate that overflows.
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
    passed = key in _PASSED
    token = _SKIP_SELFCHECK.set(passed)
    try:
        # An overflow leaves a certificate infinite, or raises from Python
        # float arithmetic; either is refused below, with no warning first.
        with np.errstate(over="ignore", invalid="ignore"):
            fn = factory(dim, x0, ball_radius, seed)
        certificates = (fn.lipschitz_grad, fn.lipschitz_hess)
    except OverflowError:
        certificates = (math.inf,)
    except ValueError as exc:
        if str(exc).startswith(name):
            raise
        raise ValueError(f"{name}: {exc}") from exc  # a composite's part failed its check
    finally:
        _SKIP_SELFCHECK.reset(token)
    if not all(c is None or math.isfinite(c) for c in certificates):
        raise ValueError(
            f"{name}: a Lipschitz certificate is not finite on the ball of radius "
            f"{ball_radius:g} around x0"
        )
    if not passed:
        _check_base_point(name, fn, x0)
    with _PASSED_LOCK:
        _PASSED[key] = None
        if len(_PASSED) > _PASSED_MAX:
            del _PASSED[next(iter(_PASSED))]
    return fn
