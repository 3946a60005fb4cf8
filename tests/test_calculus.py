import numpy as np
import pytest

from nshess import (
    CalcMode,
    DirectionSet,
    EvaluationCache,
    RuleBoundInputs,
    RuleFunctionData,
    RuleGeometry,
    calculus_error_bound,
    canonical_set,
    gradient_constant,
    hessian_constant,
    model_gradient_constant,
    nshc_points,
    power_hessian,
    product_hessian,
    quadratic_model_gradient,
    quotient_hessian,
)
from nshess.bounds import BoundInputs, _gsg_constant, error_bound_gsg, error_bound_nsh
from nshess.exceptions import NotPoisedError


def geometry(m=4, k=4, du=0.1, dl=0.1, ns=1.0, nt=1.0, nt_raw=1.0):
    return RuleGeometry(
        m=m,
        k=k,
        delta_u=du,
        delta_l=dl,
        norm_s_hat_pinv=ns,
        norm_t_hat_pinv=nt,
        norm_t_pinv=nt_raw,
    )


class TestCalcMode:
    def test_coerce_strings(self):
        assert CalcMode.coerce("simplex") is CalcMode.SIMPLEX
        assert CalcMode.coerce("QUADRATIC") is CalcMode.QUADRATIC
        assert CalcMode.coerce(CalcMode.SIMPLEX) is CalcMode.SIMPLEX

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="simplex"):
            CalcMode.coerce("cubic")


class TestRuleGeometry:
    def test_from_sets(self):
        s, t = canonical_set(2, 2, 0.1)
        g = RuleGeometry.from_sets(s, t)
        assert g.m == 2
        assert g.k == 2
        assert g.delta_u == pytest.approx(0.1 * np.sqrt(2.0))
        assert g.delta_l == pytest.approx(0.1)
        assert g.norm_s_hat_pinv == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometry(m=0)
        with pytest.raises(ValueError):
            geometry(du=0.1, dl=0.2)

    @pytest.mark.parametrize("du, dl", [(np.nan, 0.1), (0.1, np.nan), (np.nan, np.nan)])
    def test_rejects_nan_radii(self, du, dl):
        # A NaN delta_u used to pass both comparisons.
        with pytest.raises(ValueError, match="radii"):
            geometry(du=du, dl=dl)

    @pytest.mark.parametrize("field", ["ns", "nt", "nt_raw"])
    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_rejects_nan_or_negative_norm_factors(self, field, bad):
        with pytest.raises(ValueError, match="must be nonnegative"):
            geometry(**{field: bad})

    def test_nan_norm_factor_no_longer_reaches_the_bound(self):
        # This used to build, and calculus_error_bound returned nan.
        f = RuleFunctionData(value=1.0, lipschitz_grad=1.0, lipschitz_hess=1.0, grad_norm=1.0)
        with pytest.raises(ValueError, match="norm_s_hat_pinv"):
            calculus_error_bound(
                "power", "simplex",
                RuleBoundInputs(f=f, geometry=geometry(ns=np.nan, nt_raw=-1.0), power=2),
            )


class TestRuleFunctionData:
    FIELDS = ["lipschitz_grad", "lipschitz_hess", "grad_norm", "approx_grad_norm",
              "model_grad_constant"]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_rejects_nan_or_negative_factors(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RuleFunctionData(value=1.0, **{field: bad})
        data = RuleFunctionData(value=1.0)
        with pytest.raises(ValueError, match=field):
            setattr(data, field, bad)
        assert getattr(data, field) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_value(self, bad):
        with pytest.raises(ValueError, match="value"):
            RuleFunctionData(value=bad)

    def test_accepts_zero_negative_values_and_missing_factors(self):
        data = RuleFunctionData(value=-2.0, lipschitz_grad=0.0, grad_norm=None)
        assert (data.value, data.lipschitz_grad, data.grad_norm) == (-2.0, 0.0, None)

    def test_nan_factor_no_longer_reaches_the_bound(self):
        # This used to build, and calculus_error_bound returned nan.
        with pytest.raises(ValueError, match="lipschitz_grad"):
            f = RuleFunctionData(value=1.0, lipschitz_grad=np.nan, lipschitz_hess=-1.0,
                                 grad_norm=1.0)
            calculus_error_bound("power", "simplex",
                                 RuleBoundInputs(f=f, geometry=geometry(), power=2))


class TestConstants:
    def test_gradient_constant_uses_raw_pseudoinverse(self):
        # T = 0.1 I in two dimensions: |pinv(T^T)| = 10, k = 2, L = 2.
        t = DirectionSet(0.1 * np.eye(2))
        s = DirectionSet(0.1 * np.eye(2))
        geo = RuleGeometry.from_sets(s, t)
        data = RuleFunctionData(value=0.0, lipschitz_grad=2.0)
        np.testing.assert_allclose(
            gradient_constant(geo, data), 0.5 * np.sqrt(2.0) * 2.0 * 10.0, rtol=1e-14
        )

    def test_hessian_constant_frozen_value(self):
        geo = geometry(m=4, k=4, du=0.1, dl=0.1)
        data = RuleFunctionData(value=0.0, lipschitz_hess=0.3)
        np.testing.assert_allclose(hessian_constant(geo, data), 4.0, rtol=1e-14)

    @staticmethod
    def _random_pairs(count=300):
        """Canonical pairs and overdetermined random pairs over many scales."""
        rng = np.random.default_rng(17)
        for i in range(count):
            n = int(rng.integers(1, 6))
            beta = 10.0 ** rng.uniform(-7, 0)
            if i % 2:
                yield canonical_set(n, int(rng.integers(0, n + 1)), beta)
            else:
                m, k = (n + int(rng.integers(0, 3)) for _ in range(2))
                yield (
                    DirectionSet(beta * rng.standard_normal((n, m))),
                    DirectionSet(beta * rng.uniform(0.2, 5.0) * rng.standard_normal((n, k))),
                )

    def test_hessian_constant_is_the_nested_set_bound_per_unit_radius(self):
        # Both read one formula: bitwise, not approximately.
        for s, t in self._random_pairs():
            geo = RuleGeometry.from_sets(s, t)
            data = RuleFunctionData(value=0.0, lipschitz_grad=2.0, lipschitz_hess=3.0)
            nsh = error_bound_nsh(BoundInputs.for_hessian(s, t, 2.0, 3.0))
            assert hessian_constant(geo, data) * geo.delta_u == nsh

    def test_gradient_constant_is_the_gradient_bound_on_the_raw_factor(self):
        for s, t in self._random_pairs():
            geo = RuleGeometry.from_sets(s, t)
            data = RuleFunctionData(value=0.0, lipschitz_grad=2.0)
            assert gradient_constant(geo, data) == _gsg_constant(t.count, 2.0, t.pinv_norm())
            gsg = error_bound_gsg(BoundInputs.for_gradient(t, 2.0))
            hat = t.pinv_norm(transpose=True, normalized=True)
            assert gsg == _gsg_constant(t.count, 2.0, hat) * t.radius

    def test_missing_lipschitz_constants_rejected(self):
        geo = geometry()
        with pytest.raises(ValueError, match="Lipschitz"):
            gradient_constant(geo, RuleFunctionData(value=1.0))
        with pytest.raises(ValueError, match="Lipschitz"):
            hessian_constant(geo, RuleFunctionData(value=1.0))

    def test_model_gradient_constant_positive_and_scales_with_lipschitz(self):
        s, t = canonical_set(2, 1, 0.1)
        pts = nshc_points(np.zeros(2), s, t)
        c1 = model_gradient_constant(1.0, pts, np.zeros(2))
        c2 = model_gradient_constant(2.0, pts, np.zeros(2))
        assert c1 > 0
        assert c2 == pytest.approx(2.0 * c1)

    def test_model_gradient_constant_rejects_degenerate_points(self):
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [5.0, 0.0]]
        )
        with pytest.raises(NotPoisedError):
            model_gradient_constant(1.0, pts, np.zeros(2))


class TestQuadraticModelGradient:
    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-3.0, 3.0, size=(2, 2))
        h = 0.5 * (a + a.T)
        b = rng.uniform(-3.0, 3.0, size=2)
        f = lambda x: float(0.5 * x @ h @ x + b @ x)  # noqa: E731
        x0 = np.array([0.3, -0.7])
        s, t = canonical_set(2, 1, 0.1)
        cache = EvaluationCache(f)
        grad, model, pts = quadratic_model_gradient(cache, x0, s, t)
        np.testing.assert_allclose(grad, h @ x0 + b, atol=1e-10)
        np.testing.assert_allclose(model.hessian, h, atol=1e-9)
        assert len(pts) == 6

    def test_gradient_error_within_model_constant_budget(self):
        f = lambda x: float(np.sum(x**3))  # noqa: E731
        x0 = np.ones(2)
        for beta in (1e-1, 1e-2):
            s, t = canonical_set(2, 2, beta)
            cache = EvaluationCache(f)
            grad, _, pts = quadratic_model_gradient(cache, x0, s, t)
            budget = model_gradient_constant(6.0, pts, x0) * max(s.radius, t.radius) ** 2
            assert np.linalg.norm(grad - 3.0 * x0**2) <= budget

    def test_unfolded_grid_rejected(self):
        rng = np.random.default_rng(3)
        s = DirectionSet(0.1 * (rng.standard_normal((2, 2)) + 2.0 * np.eye(2)))
        t = DirectionSet(0.1 * (rng.standard_normal((2, 2)) + 2.0 * np.eye(2)))
        cache = EvaluationCache(lambda x: float(np.sum(x**2)))
        with pytest.raises(NotPoisedError, match="exactly"):
            quadratic_model_gradient(cache, np.zeros(2), s, t)


class TestProductRule:
    def test_quadratic_mode_exact_on_quadratic_factors(self):
        # f = x1^2, g = x2^2 at (1, 1): the true Hessian of f g is
        # [[2, 4], [4, 2]].
        f = lambda x: float(x[0] ** 2)  # noqa: E731
        g = lambda x: float(x[1] ** 2)  # noqa: E731
        x0 = np.array([1.0, 1.0])
        s, t = canonical_set(2, 1, 0.05)
        res = product_hessian(
            EvaluationCache(f), EvaluationCache(g), x0, s, t, mode="quadratic"
        )
        np.testing.assert_allclose(res.hessian, [[2.0, 4.0], [4.0, 2.0]], atol=1e-9)

    def test_simplex_mode_exact_on_affine_factors(self):
        f = lambda x: float(2.0 * x[0] - x[1] + 1.0)  # noqa: E731
        g = lambda x: float(x[0] + 3.0 * x[1] - 2.0)  # noqa: E731
        x0 = np.array([0.5, -0.5])
        gf = np.array([2.0, -1.0])
        gg = np.array([1.0, 3.0])
        true = np.outer(gf, gg) + np.outer(gg, gf)
        s, t = canonical_set(2, 2, 0.1)
        res = product_hessian(
            EvaluationCache(f), EvaluationCache(g), x0, s, t, mode="simplex"
        )
        np.testing.assert_allclose(res.hessian, true, atol=1e-10)

    def test_simplex_mode_first_order_on_quadratic_factors(self):
        f = lambda x: float(x[0] ** 2)  # noqa: E731
        g = lambda x: float(x[1] ** 2)  # noqa: E731
        x0 = np.array([1.0, 1.0])
        true = np.array([[2.0, 4.0], [4.0, 2.0]])
        errors = []
        for beta in (1e-2, 1e-3):
            s, t = canonical_set(2, 0, beta)
            res = product_hessian(
                EvaluationCache(f), EvaluationCache(g), x0, s, t, mode="simplex"
            )
            errors.append(np.linalg.norm(res.hessian - true, 2))
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.2)

    def test_eval_count_sums_both_caches(self):
        f_cache = EvaluationCache(lambda x: float(x[0]))
        g_cache = EvaluationCache(lambda x: float(x[1]))
        s, t = canonical_set(2, 1, 0.1)
        res = product_hessian(f_cache, g_cache, np.zeros(2), s, t)
        assert res.eval_count == f_cache.distinct_count + g_cache.distinct_count == 12


class TestQuotientRule:
    def test_one_dimensional_frozen_values(self):
        # f = x^2, g = 1 + x^2: (f/g)'' is 2 at x = 0 and 0.256 at x = 0.5.
        f = lambda x: float(x[0] ** 2)  # noqa: E731
        g = lambda x: float(1.0 + x[0] ** 2)  # noqa: E731
        s, t = canonical_set(1, 0, 1e-3)
        at0 = quotient_hessian(
            EvaluationCache(f), EvaluationCache(g), np.zeros(1), s, t, mode="quadratic"
        )
        np.testing.assert_allclose(at0.hessian, [[2.0]], atol=1e-8)
        at_half = quotient_hessian(
            EvaluationCache(f), EvaluationCache(g), np.array([0.5]), s, t, mode="quadratic"
        )
        np.testing.assert_allclose(at_half.hessian, [[0.256]], atol=1e-8)

    def test_quadratic_mode_exact_on_quadratic_factors(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(-2.0, 2.0, size=(2, 2))
        hf = 0.5 * (a + a.T)
        bf = rng.uniform(-2.0, 2.0, size=2)
        f = lambda x: float(0.5 * x @ hf @ x + bf @ x + 1.0)  # noqa: E731
        g = lambda x: float(1.0 + x @ x)  # noqa: E731
        x0 = np.array([0.2, -0.3])

        f0, g0 = f(x0), g(x0)
        gf = hf @ x0 + bf
        gg = 2.0 * x0
        hg = 2.0 * np.eye(2)
        true = (
            g0 * g0 * hf
            - f0 * g0 * hg
            + 2.0 * f0 * np.outer(gg, gg)
            - g0 * (np.outer(gf, gg) + np.outer(gg, gf))
        ) / g0**3

        s, t = canonical_set(2, 2, 0.05)
        res = quotient_hessian(
            EvaluationCache(f), EvaluationCache(g), x0, s, t, mode="quadratic"
        )
        np.testing.assert_allclose(res.hessian, true, atol=1e-8)

    def test_constant_denominator_reduces_to_plain_estimate(self):
        f = lambda x: float(np.sum(x**3))  # noqa: E731
        one = lambda x: 1.0  # noqa: E731
        x0 = np.ones(2)
        s, t = canonical_set(2, 1, 0.05)
        from nshess import nested_set_hessian

        quot = quotient_hessian(EvaluationCache(f), EvaluationCache(one), x0, s, t)
        plain = nested_set_hessian(x0, s, t, EvaluationCache(f))
        np.testing.assert_allclose(quot.hessian, plain.hessian, atol=1e-10)

    def test_vanishing_denominator_rejected(self):
        f = lambda x: float(x[0])  # noqa: E731
        g = lambda x: float(x[0])  # noqa: E731
        s, t = canonical_set(1, 0, 0.1)
        with pytest.raises(ZeroDivisionError):
            quotient_hessian(EvaluationCache(f), EvaluationCache(g), np.zeros(1), s, t)


class TestPowerRule:
    def test_quadratic_mode_frozen_example(self):
        # f = x1 + x2^2, p = 2 at (1, 1): the true Hessian of f^2 is
        # [[2, 4], [4, 16]].
        f = lambda x: float(x[0] + x[1] ** 2)  # noqa: E731
        x0 = np.array([1.0, 1.0])
        s, t = canonical_set(2, 1, 0.05)
        res = power_hessian(EvaluationCache(f), x0, s, t, p=2, mode="quadratic")
        np.testing.assert_allclose(res.hessian, [[2.0, 4.0], [4.0, 16.0]], atol=1e-9)

    def test_cube_of_affine(self):
        f = lambda x: float(x[0] + 2.0 * x[1])  # noqa: E731
        x0 = np.array([1.0, 0.0])
        gf = np.array([1.0, 2.0])
        true = 6.0 * f(x0) * np.outer(gf, gf)
        s, t = canonical_set(2, 0, 1e-3)
        res = power_hessian(EvaluationCache(f), x0, s, t, p=3, mode="simplex")
        np.testing.assert_allclose(res.hessian, true, rtol=1e-6)

    def test_zero_base_value_with_p_two(self):
        # f(x0) = 0 with p = 2 must not evaluate 0^0; the outer-product
        # term survives alone.
        f = lambda x: float(x[0])  # noqa: E731
        s, t = canonical_set(1, 1, 0.1)
        res = power_hessian(EvaluationCache(f), np.zeros(1), s, t, p=2)
        np.testing.assert_allclose(res.hessian, [[2.0]], atol=1e-10)

    @pytest.mark.parametrize("p", [1, 0, -2, 2.5])
    def test_rejects_bad_exponents(self, p):
        s, t = canonical_set(1, 0, 0.1)
        with pytest.raises(ValueError):
            power_hessian(EvaluationCache(lambda x: 1.0), np.zeros(1), s, t, p=p)


class TestCrossTermMinimum:
    def make_data(self, **kwargs):
        base = dict(
            value=2.0,
            lipschitz_grad=1.0,
            lipschitz_hess=0.3,
            grad_norm=1.0,
        )
        base.update(kwargs)
        return RuleFunctionData(**base)

    def test_product_bound_frozen_all_candidates(self):
        # ef = eg = 1, du = 0.1: candidates are 2.1, 1.9 and 2.5; the
        # hessian constants are 4, the factor values 2 and 3, so the bound
        # is (12 + 8 + 2 * 1.9) * 0.1 = 2.38.
        geo = geometry(m=4, k=4, du=0.1, dl=0.1)
        f = self.make_data(value=2.0, approx_grad_norm=1.5)
        g = self.make_data(value=3.0, approx_grad_norm=0.9)
        got = calculus_error_bound("product", "simplex", RuleBoundInputs(f=f, geometry=geo, g=g))
        np.testing.assert_allclose(got, 2.38, rtol=1e-12)

    def test_product_bound_frozen_first_candidate_only(self):
        geo = geometry(m=4, k=4, du=0.1, dl=0.1)
        f = self.make_data(value=2.0)
        g = self.make_data(value=3.0)
        got = calculus_error_bound("product", "simplex", RuleBoundInputs(f=f, geometry=geo, g=g))
        np.testing.assert_allclose(got, 2.42, rtol=1e-12)

    def test_no_computable_candidate_rejected(self):
        geo = geometry()
        f = self.make_data(grad_norm=None, approx_grad_norm=1.0)
        g = self.make_data(grad_norm=None, approx_grad_norm=1.0)
        with pytest.raises(ValueError, match="candidate"):
            calculus_error_bound("product", "simplex", RuleBoundInputs(f=f, geometry=geo, g=g))

    def test_quotient_extra_candidates_can_win(self):
        # Make the shared candidates large and the denominator-specific
        # candidate E_hg du + 2 eg |grad g| small.
        geo = geometry(m=1, k=1, du=0.01, dl=0.01)
        f = self.make_data(value=1.0, grad_norm=100.0, lipschitz_grad=2.0)
        g = self.make_data(value=1.0, grad_norm=0.1, lipschitz_hess=0.0, lipschitz_grad=2.0)
        ef = gradient_constant(geo, f)
        eg = gradient_constant(geo, g)
        shared_best = ef * eg * 0.01 + eg * 100.0 + ef * 0.1
        extra = 0.0 * 0.01 + 2.0 * eg * 0.1
        assert extra < shared_best
        got = calculus_error_bound("quotient", "simplex", RuleBoundInputs(f=f, geometry=geo, g=g))
        ehf = hessian_constant(geo, f)
        expected = (ehf * 1.0 + 0.0 + 2.0 * extra * (1.0 + 1.0)) * 0.01 / 1.0
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestRuleBounds:
    def test_quadratic_mode_bound_vanishes_for_certified_quadratics(self):
        s, t = canonical_set(2, 1, 0.1)
        geo = RuleGeometry.from_sets(s, t)
        pts = nshc_points(np.zeros(2), s, t)
        f = RuleFunctionData(
            value=1.0,
            lipschitz_grad=2.0,
            lipschitz_hess=0.0,
            grad_norm=1.0,
            model_grad_constant=model_gradient_constant(0.0, pts, np.zeros(2)),
        )
        g = RuleFunctionData(
            value=2.0,
            lipschitz_grad=2.0,
            lipschitz_hess=0.0,
            grad_norm=1.0,
            model_grad_constant=model_gradient_constant(0.0, pts, np.zeros(2)),
        )
        got = calculus_error_bound("product", "quadratic", RuleBoundInputs(f=f, geometry=geo, g=g))
        assert got == 0.0

    def test_quadratic_mode_needs_model_constant(self):
        geo = geometry()
        f = RuleFunctionData(value=1.0, lipschitz_grad=1.0, lipschitz_hess=1.0, grad_norm=1.0)
        with pytest.raises(ValueError, match="model_grad_constant"):
            calculus_error_bound(
                "power", "quadratic", RuleBoundInputs(f=f, geometry=geo, power=2)
            )

    def test_power_bound_frozen_value(self):
        # p = 2, |f| = 2: (2 * ehf * 2 + 2 * 1 * ef * M) du with ehf = 4,
        # ef = 1, M = min(1 * 0.1 + 2 * 1, 1.5 + 1) = 2.1.
        geo = geometry(m=4, k=4, du=0.1, dl=0.1)
        f = RuleFunctionData(
            value=2.0,
            lipschitz_grad=1.0,
            lipschitz_hess=0.3,
            grad_norm=1.0,
            approx_grad_norm=1.5,
        )
        got = calculus_error_bound("power", "simplex", RuleBoundInputs(f=f, geometry=geo, power=2))
        np.testing.assert_allclose(got, (2.0 * 4.0 * 2.0 + 2.0 * 1.0 * 2.1) * 0.1, rtol=1e-12)

    def test_quotient_bound_rejects_zero_denominator_value(self):
        geo = geometry()
        f = RuleFunctionData(value=1.0, lipschitz_grad=1.0, lipschitz_hess=1.0, grad_norm=1.0)
        g = RuleFunctionData(value=0.0, lipschitz_grad=1.0, lipschitz_hess=1.0, grad_norm=1.0)
        with pytest.raises(ValueError, match="zero"):
            calculus_error_bound("quotient", "simplex", RuleBoundInputs(f=f, geometry=geo, g=g))

    def test_missing_second_factor_rejected(self):
        geo = geometry()
        f = RuleFunctionData(value=1.0, lipschitz_grad=1.0, lipschitz_hess=1.0, grad_norm=1.0)
        for rule in ("product", "quotient"):
            with pytest.raises(ValueError, match="both factors"):
                calculus_error_bound(rule, "simplex", RuleBoundInputs(f=f, geometry=geo))

    def test_unknown_rule_rejected(self):
        geo = geometry()
        f = RuleFunctionData(value=1.0, lipschitz_grad=1.0, lipschitz_hess=1.0, grad_norm=1.0)
        with pytest.raises(ValueError, match="unknown rule"):
            calculus_error_bound("chain", "simplex", RuleBoundInputs(f=f, geometry=geo))


class TestCompositeConvergence:
    def certified_bound(self, rule, mode, x0, s, t, f_parts, caches, power=None):
        from nshess import simplex_gradient

        geo = RuleGeometry.from_sets(s, t)
        datas = []
        for (oracle, grad_fn, l_grad, l_hess), cache in zip(f_parts, caches):
            data = RuleFunctionData(
                value=cache.evaluate(x0),
                lipschitz_grad=l_grad,
                lipschitz_hess=l_hess,
                grad_norm=float(np.linalg.norm(grad_fn(x0))),
            )
            if mode == "simplex":
                data.approx_grad_norm = float(
                    np.linalg.norm(simplex_gradient(x0, t, cache).gradient)
                )
            else:
                grad, _, pts = quadratic_model_gradient(cache, x0, s, t)
                data.approx_grad_norm = float(np.linalg.norm(grad))
                data.model_grad_constant = model_gradient_constant(l_hess, pts, x0)
            datas.append(data)
        if rule == "power":
            inputs = RuleBoundInputs(f=datas[0], geometry=geo, power=power)
        else:
            inputs = RuleBoundInputs(f=datas[0], geometry=geo, g=datas[1])
        return calculus_error_bound(rule, mode, inputs)

    def test_product_errors_decay_and_respect_bounds(self):
        # f = sum of cubes, g = exp of sum at x0 = (1, 1); certified
        # constants on the beta = 0.1 sample ball.
        f = lambda x: float(np.sum(x**3))  # noqa: E731
        g = lambda x: float(np.exp(np.sum(x)))  # noqa: E731
        gf = lambda x: 3.0 * x**2  # noqa: E731
        gg = lambda x: np.exp(np.sum(x)) * np.ones(2)  # noqa: E731
        x0 = np.ones(2)
        hf = np.diag(6.0 * x0)
        hg = np.exp(2.0) * np.ones((2, 2))
        true = (
            g(x0) * hf
            + f(x0) * hg
            + np.outer(gf(x0), gg(x0))
            + np.outer(gg(x0), gf(x0))
        )
        reach = 1.0 + 1.5 * 0.1 * (1.0 + np.sqrt(2.0))
        f_max = np.exp(2.0 + np.sqrt(2.0) * 0.5)
        parts = [
            (f, gf, 6.0 * reach, 6.0),
            (g, gg, 2.0 * f_max, 2.0**1.5 * f_max),
        ]
        for mode in ("simplex", "quadratic"):
            errors = []
            for beta in (1e-1, 1e-2, 1e-3):
                s, t = canonical_set(2, 1, beta)
                caches = [EvaluationCache(f), EvaluationCache(g)]
                res = product_hessian(caches[0], caches[1], x0, s, t, mode=mode)
                err = np.linalg.norm(res.hessian - true, 2)
                bound = self.certified_bound("product", mode, x0, s, t, parts, caches)
                assert err <= bound
                errors.append(err)
            slope = np.log(errors[0] / errors[2]) / np.log(1e2)
            assert slope >= 0.9

    def test_quadratic_mode_beats_simplex_on_quadratic_heavy_composites(self):
        rng = np.random.default_rng(77)
        a = rng.uniform(-2.0, 2.0, size=(2, 2))
        h1 = 0.5 * (a + a.T)
        f = lambda x: float(0.5 * x @ h1 @ x + x[0])  # noqa: E731
        g = lambda x: float(1.0 + x @ x)  # noqa: E731
        x0 = np.array([0.5, -0.2])
        f0, g0 = f(x0), g(x0)
        gf, gg = h1 @ x0 + np.array([1.0, 0.0]), 2.0 * x0
        hg = 2.0 * np.eye(2)
        true = g0 * h1 + f0 * hg + np.outer(gf, gg) + np.outer(gg, gf)
        s, t = canonical_set(2, 1, 0.05)
        sc = product_hessian(EvaluationCache(f), EvaluationCache(g), x0, s, t, "simplex")
        qc = product_hessian(EvaluationCache(f), EvaluationCache(g), x0, s, t, "quadratic")
        err_sc = np.linalg.norm(sc.hessian - true, 2)
        err_qc = np.linalg.norm(qc.hessian - true, 2)
        assert err_qc < 1e-9
        assert err_sc > 1e-4
