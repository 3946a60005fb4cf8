import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nshess
from nshess import registry
from nshess import (
    CompositeFunction,
    EvaluationCache,
    EvaluationError,
    TestFunction,
    make_function,
    registry_names,
)


def central_gradient(oracle, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (oracle(x + e) - oracle(x - e)) / (2.0 * h)
    return g


def central_hessian(gradient, x, h=1e-6):
    n = x.shape[0]
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        cols.append((gradient(x + e) - gradient(x - e)) / (2.0 * h))
    return np.column_stack(cols)


class TestRegistryNames:
    def test_listing_is_sorted_and_complete(self):
        names = registry_names()
        assert names == sorted(names)
        assert set(names) == {
            "exp_of_sum",
            "power_cubes_2",
            "product_cubes_exp",
            "product_quadratics",
            "quadratic",
            "quotient_cubes_exp",
            "rosenbrock",
            "sum_of_cubes",
        }

    def test_every_entry_instantiates(self):
        for name in registry_names():
            fn = make_function(name, 2, seed=5)
            assert fn.dim == 2
            x = fn.base_point + 0.1
            assert np.isfinite(fn.oracle(x))
            assert fn.gradient(x).shape == (2,)
            assert fn.hessian(x).shape == (2, 2)

    @pytest.mark.parametrize("name", registry_names())
    def test_default_base_point_builds_what_an_explicit_one_does(self, name):
        ones = {"sum_of_cubes", "product_cubes_exp", "quotient_cubes_exp", "power_cubes_2"}
        fn = make_function(name, 3, seed=2)
        want = np.ones(3) if name in ones else np.zeros(3)
        assert fn.base_point.tobytes() == want.tobytes()
        explicit = make_function(name, 3, seed=2, x0=want.copy())
        x = want + np.array([0.05, -0.02, 0.01])
        assert explicit.oracle(x) == fn.oracle(x)
        assert explicit.hessian(x).tobytes() == fn.hessian(x).tobytes()
        assert (explicit.lipschitz_grad, explicit.lipschitz_hess) == (
            fn.lipschitz_grad, fn.lipschitz_hess
        )
        if isinstance(fn, CompositeFunction):
            assert fn.name == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="sum_of_cubes"):
            make_function("sine", 2)


class TestMakeFunctionValidation:
    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="dim"):
            make_function("quadratic", 0)

    def test_ball_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="ball_radius"):
            make_function("quadratic", 2, ball_radius=0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_ball_radius_must_be_finite(self, radius):
        # A NaN radius used to pass the self-check and certify
        # lipschitz_grad = nan.
        with pytest.raises(ValueError, match="ball_radius"):
            make_function("sum_of_cubes", 3, ball_radius=radius)

    def test_x0_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            make_function("quadratic", 2, x0=[1.0, 2.0, 3.0])

    def test_rosenbrock_needs_dim_two(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            make_function("rosenbrock", 1)

    def test_default_base_points(self):
        np.testing.assert_array_equal(make_function("sum_of_cubes", 3).base_point, np.ones(3))
        np.testing.assert_array_equal(make_function("quadratic", 3).base_point, np.zeros(3))
        np.testing.assert_array_equal(
            make_function("quotient_cubes_exp", 2).base_point, np.ones(2)
        )

    def test_quadratic_seed_determinism(self):
        a = make_function("quadratic", 3, seed=9)
        b = make_function("quadratic", 3, seed=9)
        c = make_function("quadratic", 3, seed=10)
        x = np.array([0.3, -0.2, 0.8])
        assert a.oracle(x) == b.oracle(x)
        assert a.oracle(x) != c.oracle(x)


class TestSelfCheck:
    def base_quadratic(self):
        h = np.array([[2.0, 1.0], [1.0, 4.0]])
        return {
            "dim": 2,
            "oracle": lambda x: float(0.5 * x @ h @ x),
            "gradient": lambda x: h @ x,
            "hessian": lambda x: h.copy(),
            "lipschitz_grad": 5.0,
            "lipschitz_hess": 0.0,
            "base_point": np.zeros(2),
            "ball_radius": 1.0,
        }

    def test_consistent_derivatives_accepted(self):
        TestFunction(name="ok", **self.base_quadratic())

    def test_wrong_gradient_rejected(self):
        spec = self.base_quadratic()
        spec["gradient"] = lambda x: 2.0 * x
        with pytest.raises(ValueError, match="gradient disagrees"):
            TestFunction(name="bad-grad", **spec)

    def test_wrong_hessian_rejected(self):
        spec = self.base_quadratic()
        spec["hessian"] = lambda x: np.eye(2)
        with pytest.raises(ValueError, match="Hessian disagrees"):
            TestFunction(name="bad-hess", **spec)


class TestNonFiniteProbes:
    """A self-check that overflows or meets NaN refuses the function; a
    comparison with NaN used to pass it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["sum_of_cubes", "quadratic", "power_cubes_2"])
    def test_overflowing_probes_raise_a_value_error(self, name):
        # At 1e200 the cubes and the quadratic overflow: the oracle was inf at
        # the base point, and make_function handed the function out.
        # The composite's message names the entry, then the part that failed.
        with pytest.raises(ValueError, match=f"^{name}.*not finite at a probe near x0"):
            make_function(name, 3, x0=[1e200] * 3)

    def test_a_nan_gradient_fails_the_check(self):
        spec = TestSelfCheck().base_quadratic()
        spec["gradient"] = lambda x: np.full(2, np.nan)
        with pytest.raises(ValueError, match="nan-grad: the gradient self-check is not finite"):
            TestFunction(name="nan-grad", **spec)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_nan_hessian_fails_the_check(self):
        spec = TestSelfCheck().base_quadratic()
        spec["hessian"] = lambda x: np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="nan-hess: the Hessian self-check is not finite"):
            TestFunction(name="nan-hess", **spec)

    @pytest.mark.parametrize(
        "name, x0", [("sum_of_cubes", [1e200, 1.0]), ("power_cubes_2", [1e60, 1.0])]
    )
    def test_a_refused_key_is_not_remembered(self, monkeypatch, name, x0):
        # power_cubes_2 passes its parts' probes and fails at x0 itself.
        monkeypatch.setattr(registry, "_PASSED", {})
        for _ in range(2):
            with pytest.raises(ValueError, match="not finite"):
                make_function(name, 2, x0=x0)
        assert registry._PASSED == {}


class TestNonFiniteAtTheBasePoint:
    """A composite whose parts pass their checks but which is not finite at
    its own base point is refused; make_function used to hand it out."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, x0",
        [
            ("product_cubes_exp", 233.0),  # e^699 times 3 * 233^3: the product is inf
            ("power_cubes_2", 1e60),  # every oracle call raised OverflowError from f0**2
            ("quotient_cubes_exp", -300.0),  # e^-900 is 0.0: the quotient is -inf
        ],
    )
    def test_raises_a_value_error_naming_the_entry(self, name, x0):
        with pytest.raises(ValueError, match=f"^{name}: the oracle or a derivative is not finite"):
            make_function(name, 3, x0=[x0] * 3)


class TestOverflowingCertificates:
    """A certificate that overflows raises ValueError naming the entry, not
    OverflowError, and leaves no RuntimeWarning."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, x0",
        [
            ("exp_of_sum", 300.0),  # math.exp raised OverflowError
            ("rosenbrock", 1e160),  # reach**2 raised OverflowError (34, ...)
            ("product_cubes_exp", 300.0),
            ("quotient_cubes_exp", 300.0),
        ],
    )
    def test_raises_a_value_error_naming_the_entry(self, name, x0):
        with pytest.raises(ValueError, match=f"{name}: a Lipschitz certificate is not finite"):
            make_function(name, 3, x0=[x0] * 3)

    def test_an_infinite_certificate_from_any_factory_is_refused(self, monkeypatch):
        def infinite(dim, x0, radius, seed):
            fn = registry._sum_of_cubes(dim, x0, radius, seed)
            fn.lipschitz_hess = math.inf
            return fn

        monkeypatch.setitem(registry._ENTRIES, "sum_of_cubes", (infinite, 1.0))
        with pytest.raises(ValueError, match="sum_of_cubes: a Lipschitz certificate"):
            make_function("sum_of_cubes", 2, seed=77)

    def test_a_large_finite_base_point_still_builds(self):
        fn = make_function("rosenbrock", 3, x0=[1e30] * 3)
        assert math.isfinite(fn.lipschitz_grad) and math.isfinite(fn.lipschitz_hess)


class TestSelfCheckMemo:
    """make_function probes once per (name, dim, seed, x0, ball_radius)."""

    @pytest.fixture
    def probes(self, monkeypatch):
        monkeypatch.setattr(registry, "_PASSED", {})
        calls = []
        central = registry._central_gradient

        def counting(oracle, x, h):
            calls.append(x.copy())
            return central(oracle, x, h)

        monkeypatch.setattr(registry, "_central_gradient", counting)
        return calls

    def test_repeated_key_runs_no_probe(self, probes):
        first = make_function("quadratic", 3, seed=4, x0=[0.1, 0.2, 0.3], ball_radius=0.5)
        assert len(probes) == 3
        again = make_function("quadratic", 3, seed=4, x0=[0.1, 0.2, 0.3], ball_radius=0.5)
        assert len(probes) == 3
        x = np.array([0.2, -0.1, 0.4])
        assert again.oracle(x) == first.oracle(x)
        assert again.lipschitz_grad == first.lipschitz_grad

    @pytest.mark.parametrize(
        "change",
        [
            {"name": "sum_of_cubes"},
            {"dim": 2, "x0": [0.1, 0.2]},
            {"seed": 5},
            {"x0": [0.1, 0.2, 0.30000000000000004]},
            {"ball_radius": 0.25},
        ],
    )
    def test_changed_key_runs_probes_again(self, probes, change):
        key = {"name": "quadratic", "dim": 3, "seed": 4, "x0": [0.1, 0.2, 0.3], "ball_radius": 0.5}
        make_function(**key)
        make_function(**key)
        assert len(probes) == 3
        make_function(**{**key, **change})
        assert len(probes) == 6

    def test_composite_parts_are_probed_once(self, probes):
        make_function("product_cubes_exp", 2)
        assert len(probes) == 6
        make_function("product_cubes_exp", 2)
        assert len(probes) == 6

    def test_failing_check_raises_every_time(self, probes, monkeypatch):
        monkeypatch.setattr(registry, "_SELFCHECK_RTOL", -1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="disagrees"):
                make_function("sum_of_cubes", 2)
        assert len(probes) == 2
        assert registry._PASSED == {}

    def test_memo_is_bounded(self, probes, monkeypatch):
        monkeypatch.setattr(registry, "_PASSED_MAX", 2)
        for seed in (1, 2, 3):
            make_function("quadratic", 2, seed=seed)
        assert len(registry._PASSED) == 2
        make_function("quadratic", 2, seed=3)
        assert len(probes) == 9
        make_function("quadratic", 2, seed=1)
        assert len(probes) == 12

    def test_direct_construction_still_probes(self, probes):
        make_function("sum_of_cubes", 2)
        registry._sum_of_cubes(2, np.ones(2), 1.0, 0)
        assert len(probes) == 6


class TestDerivativeConsistency:
    @pytest.mark.parametrize("name", sorted(registry_names()))
    def test_gradient_matches_finite_differences(self, name):
        fn = make_function(name, 3 if name != "rosenbrock" else 3, seed=2)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = fn.base_point + 0.4 * rng.standard_normal(fn.dim)
            fd = central_gradient(fn.oracle, x)
            scale = 1.0 + np.max(np.abs(fn.gradient(x)))
            np.testing.assert_allclose(fn.gradient(x), fd, atol=1e-4 * scale)

    @pytest.mark.parametrize("name", sorted(registry_names()))
    def test_hessian_matches_finite_differences(self, name):
        fn = make_function(name, 2, seed=2)
        rng = np.random.default_rng(8)
        x = fn.base_point + 0.3 * rng.standard_normal(fn.dim)
        fd = central_hessian(fn.gradient, x)
        scale = 1.0 + np.max(np.abs(fn.hessian(x)))
        np.testing.assert_allclose(fn.hessian(x), fd, atol=1e-4 * scale)


class TestCertificates:
    @pytest.mark.parametrize(
        "name", ["quadratic", "sum_of_cubes", "exp_of_sum", "rosenbrock", "product_quadratics"]
    )
    def test_hessian_norm_within_gradient_certificate(self, name):
        fn = make_function(name, 3, seed=1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.standard_normal(fn.dim)
            u *= rng.uniform(0.0, fn.ball_radius) / np.linalg.norm(u)
            h = fn.hessian(fn.base_point + u)
            assert np.linalg.norm(h, 2) <= fn.lipschitz_grad * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "name", ["quadratic", "sum_of_cubes", "exp_of_sum", "rosenbrock", "product_quadratics"]
    )
    def test_hessian_variation_within_hessian_certificate(self, name):
        fn = make_function(name, 3, seed=1)
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = rng.standard_normal(fn.dim)
            u *= rng.uniform(0.0, fn.ball_radius) / np.linalg.norm(u)
            v = rng.standard_normal(fn.dim)
            v *= rng.uniform(0.0, fn.ball_radius) / np.linalg.norm(v)
            x, y = fn.base_point + u, fn.base_point + v
            gap = np.linalg.norm(fn.hessian(x) - fn.hessian(y), 2)
            assert gap <= fn.lipschitz_hess * np.linalg.norm(x - y) + 1e-12

    def test_cubes_exp_composites_carry_no_composite_certificates(self):
        for name in ("product_cubes_exp", "quotient_cubes_exp", "power_cubes_2"):
            fn = make_function(name, 2)
            assert fn.lipschitz_grad is None
            assert fn.lipschitz_hess is None
            assert fn.f.lipschitz_grad is not None

    def test_product_quadratics_is_certified(self):
        fn = make_function("product_quadratics", 2, seed=3)
        assert fn.lipschitz_grad > 0
        assert fn.lipschitz_hess > 0


class TestCompositeStructure:
    def test_product_oracle_multiplies_parts(self):
        fn = make_function("product_cubes_exp", 2)
        x = np.array([1.2, 0.7])
        assert fn.oracle(x) == pytest.approx(np.sum(x**3) * np.exp(np.sum(x)))

    def test_quotient_hessian_identity_is_exact(self):
        # Check against the second derivative of f/g computed symbolically
        # for f = sum of cubes, g = exp of sum in one dimension:
        # (x^3 e^-x)'' = (x^3 - 6 x^2 + 6 x) e^-x.
        fn = make_function("quotient_cubes_exp", 1)
        x = np.array([0.8])
        expected = (x[0] ** 3 - 6.0 * x[0] ** 2 + 6.0 * x[0]) * np.exp(-x[0])
        np.testing.assert_allclose(fn.hessian(x), [[expected]], rtol=1e-12)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_quotient_divides_like_its_numpy_parts_where_g_is_zero(self):
        # e^-2238 underflows to 0.0 while f = 3 * (-746)^3 does not: IEEE
        # division gives -inf for the value and NaN where 0 * inf meets.
        fn = make_function("quotient_cubes_exp", 3)
        x = np.full(3, -746.0)
        assert fn.g.oracle(x) == 0.0
        assert fn.oracle(x) == -math.inf
        assert np.isnan(fn.gradient(x)).all()
        assert np.isnan(fn.hessian(x)).all()
        with pytest.raises(EvaluationError, match="oracle returned non-finite value -inf"):
            EvaluationCache(fn.oracle).evaluate(x)

    def test_power_hessian_at_zero_base_value(self):
        fn = make_function("power_cubes_2", 1, x0=np.zeros(1))
        h = fn.hessian(np.zeros(1))
        np.testing.assert_allclose(h, [[0.0]], atol=1e-12)

    def test_rule_validation(self):
        part = make_function("quadratic", 2)
        with pytest.raises(ValueError, match="unknown composite rule"):
            CompositeFunction(name="x", rule="chain", f=part)
        with pytest.raises(ValueError, match="p >= 2"):
            CompositeFunction(name="x", rule="power", f=part, power=1)
        with pytest.raises(ValueError, match="two parts"):
            CompositeFunction(name="x", rule="product", f=part)

    def test_composite_inherits_base_point_and_ball(self):
        fn = make_function("product_cubes_exp", 2, ball_radius=0.5)
        np.testing.assert_array_equal(fn.base_point, np.ones(2))
        assert fn.ball_radius == 0.5


class TestRosenbrock:
    def test_minimum_at_ones(self):
        fn = make_function("rosenbrock", 2, x0=np.ones(2))
        assert fn.oracle(np.ones(2)) == 0.0
        np.testing.assert_array_equal(fn.gradient(np.ones(2)), np.zeros(2))
        np.testing.assert_allclose(
            fn.hessian(np.ones(2)), [[802.0, -400.0], [-400.0, 200.0]], rtol=1e-14
        )

    def test_chained_dimensions(self):
        fn = make_function("rosenbrock", 4, x0=np.ones(4))
        assert fn.oracle(np.ones(4)) == 0.0
        x = np.array([1.1, 0.9, 1.0, 1.05])
        fd = central_gradient(fn.oracle, x)
        np.testing.assert_allclose(fn.gradient(x), fd, atol=1e-3)


_PROBE_SCRIPT = """
import json
import nshess.registry as registry

probes = []
real = registry._central_gradient

def spy(oracle, x, h):
    probes.append(x.tolist())
    return real(oracle, x, h)

registry._central_gradient = spy
registry.make_function("quadratic", 3)
print(json.dumps(probes))
"""


def _self_check_probes(hash_seed: str) -> list:
    """Points where ``quadratic``'s self-check probes the gradient, in a fresh process."""
    src = str(Path(nshess.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE_SCRIPT], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_self_check_probes_do_not_depend_on_the_string_hash_seed():
    first = _self_check_probes("1")
    assert len(first) == 3
    assert first == _self_check_probes("2")


# The oracle, gradient and Hessian expressions of every registry entry as
# they were first written, kept verbatim: the registry's own forms must
# return the same bytes.


def _ref_quadratic(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(dim, dim))
    h = 0.5 * (a + a.T)
    b = rng.uniform(-5.0, 5.0, size=dim)
    c = float(rng.uniform(-5.0, 5.0))
    return (
        lambda x: float(0.5 * x @ h @ x + b @ x + c),
        lambda x: h @ x + b,
        lambda x: h.copy(),
    )


def _ref_sum_of_cubes(dim):
    return (
        lambda x: float(np.sum(x**3)),
        lambda x: 3.0 * x**2,
        lambda x: np.diag(6.0 * x),
    )


def _ref_exp_of_sum(dim):
    n = dim
    return (
        lambda x: float(np.exp(np.sum(x))),
        lambda x: np.exp(np.sum(x)) * np.ones(n),
        lambda x: np.exp(np.sum(x)) * np.ones((n, n)),
    )


def _ref_rosenbrock_value(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _ref_rosenbrock_gradient(x):
    n = x.shape[0]
    g = np.zeros(n)
    g[:-1] += -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return g


def _ref_rosenbrock_hessian(x):
    n = x.shape[0]
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, i] += 1200.0 * x[i] ** 2 - 400.0 * x[i + 1] + 2.0
        h[i + 1, i + 1] += 200.0
        h[i, i + 1] += -400.0 * x[i]
        h[i + 1, i] += -400.0 * x[i]
    return h


def _ieee_divide(a, b):
    """``a / b`` as IEEE division. The first-written quotient divided Python
    floats, which raised ZeroDivisionError where the denominator
    underflowed to 0; the quotient now divides as numpy does, so the
    reference does too. Every other denominator gives ``a / b``'s bytes."""
    return float(np.divide(a, b))


def _ref_composite(rule, f, g=None, power=None):
    (fo, fg, fh), (go, gg_, gh) = f, g or (None, None, None)

    def oracle(x):
        if rule == "product":
            return fo(x) * go(x)
        if rule == "quotient":
            return _ieee_divide(fo(x), go(x))
        return fo(x) ** power

    def gradient(x):
        f0, gf = fo(x), fg(x)
        if rule == "power":
            return power * f0 ** (power - 1) * gf
        g0, gg = go(x), gg_(x)
        if rule == "product":
            return g0 * gf + f0 * gg
        return (g0 * gf - f0 * gg) / g0**2

    def hessian(x):
        f0, gf, hf = fo(x), fg(x), fh(x)
        if rule == "power":
            p = power
            cross = 1.0 if p == 2 else f0 ** (p - 2)
            return p * f0 ** (p - 1) * hf + p * (p - 1) * cross * np.outer(gf, gf)
        g0, gg, hg = go(x), gg_(x), gh(x)
        if rule == "product":
            return g0 * hf + f0 * hg + np.outer(gf, gg) + np.outer(gg, gf)
        return (
            g0 * g0 * (hf - _ieee_divide(f0, g0) * hg)
            + 2.0 * f0 * np.outer(gg, gg)
            - g0 * (np.outer(gf, gg) + np.outer(gg, gf))
        ) / g0**3

    return oracle, gradient, hessian


def _reference(name, dim, seed):
    """The first-written (oracle, gradient, hessian) of a registry entry."""
    if name == "quadratic":
        return _ref_quadratic(dim, seed)
    if name == "sum_of_cubes":
        return _ref_sum_of_cubes(dim)
    if name == "exp_of_sum":
        return _ref_exp_of_sum(dim)
    if name == "rosenbrock":
        return _ref_rosenbrock_value, _ref_rosenbrock_gradient, _ref_rosenbrock_hessian
    if name == "product_quadratics":
        return _ref_composite(
            "product", _ref_quadratic(dim, seed), _ref_quadratic(dim, seed + 1)
        )
    cubes, exp = _ref_sum_of_cubes(dim), _ref_exp_of_sum(dim)
    if name == "power_cubes_2":
        return _ref_composite("power", cubes, power=2)
    return _ref_composite(name.split("_", 1)[0], cubes, exp)


def _bytes(value):
    return np.asarray(value, dtype=float).tobytes()


def _outcome(fn, x):
    """The bytes ``fn`` returns at a copy of ``x``, or the type of what it raised
    (a power of a Python float that overflows raises OverflowError)."""
    try:
        return _bytes(fn(x.copy()))
    except ArithmeticError as exc:
        return type(exc)


_MAGNITUDE = st.floats(min_value=1e-300, max_value=1e150)
_COORD = st.one_of(
    _MAGNITUDE,
    _MAGNITUDE.map(lambda v: -v),
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
)


@st.composite
def _entry_and_point(draw):
    name = draw(st.sampled_from(registry_names()))
    dims = [2, 3, 4, 5, 6, 20] if name == "rosenbrock" else [1, 2, 3, 4, 5, 6, 20]
    dim = draw(st.sampled_from(dims))
    seed = draw(st.integers(0, 2**31 - 1))
    # Half the points lie where the entries are well scaled.
    coord = draw(st.sampled_from([_COORD, st.floats(-3.0, 3.0)]))
    x = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
    return name, dim, seed, x


class TestBitwiseReference:
    """Every entry returns the bytes of its first-written expressions."""

    @settings(max_examples=300, deadline=None)
    @given(_entry_and_point())
    def test_oracle_gradient_and_hessian_are_bitwise_the_reference(self, case):
        name, dim, seed, x = case
        fn = make_function(name, dim, seed=seed)
        ref = _reference(name, dim, seed)
        with np.errstate(all="ignore"):
            for got, want in zip((fn.oracle, fn.gradient, fn.hessian), ref):
                assert _outcome(got, x) == _outcome(want, x), (got, x)

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_exp_of_sum_takes_a_list_or_a_tuple(self, kind):
        fn = make_function("exp_of_sum", 3)
        ref = _ref_exp_of_sum(3)
        x = kind([0.25, -0.5, 1.0])
        for got, want in zip((fn.oracle, fn.gradient, fn.hessian), ref):
            assert _bytes(got(x)) == _bytes(want(x))
