import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nshess
from nshess import registry
from nshess import (
    CompositeFunction,
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
