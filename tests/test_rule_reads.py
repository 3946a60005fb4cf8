"""A rule row reads each sample value once.

A factor's nested-set estimate returns the grid values it read, and the
factor's ``f(x0)`` and mode gradient come from them: no value is requested
twice, on the folded pairs or off them. The references below request the
values again, the way a row was built before the estimate returned them.
"""

import numpy as np
import pytest

from nshess import (
    DirectionSet,
    EvaluationCache,
    StudyConfig,
    build_uk,
    canonical_set,
    dedup_tolerance,
    make_function,
    minimal_point_count,
    nested_set_hessian,
    nshc_points,
    power_hessian,
    product_hessian,
    quadratic_model_gradient,
    quotient_hessian,
    simplex_gradient,
)
from nshess.sets import sample_grid
from nshess.study import approximate_once

FUNCTIONS = {
    "product": "product_cubes_exp",
    "quotient": "quotient_cubes_exp",
    "power": "power_cubes_2",
}


def _config(estimator, n, k):
    return StudyConfig(function=FUNCTIONS[estimator.split("-")[0]], dim=n, k=k,
                       estimator=estimator, beta_start=0.05, beta_steps=1, seed=2)


class TestOneReadPerValue:
    @pytest.mark.parametrize("estimator", ["product-qc", "power-qc", "product-sc", "power-sc"])
    @pytest.mark.parametrize("n, k", [(2, 1), (4, 0), (10, 3)])
    def test_every_request_is_a_new_point(self, estimator, n, k):
        _, caches = approximate_once(_config(estimator, n, k))
        for cache in caches:
            assert cache.distinct_count == minimal_point_count(n)
            assert cache.total_requests == cache.distinct_count

    @pytest.mark.parametrize("estimator", ["quotient-qc", "quotient-sc"])
    @pytest.mark.parametrize("n, k", [(2, 1), (10, 3)])
    def test_quotient_repeats_only_its_denominator_check(self, estimator, n, k):
        _, (f_cache, g_cache) = approximate_once(_config(estimator, n, k))
        assert f_cache.total_requests == f_cache.distinct_count
        assert g_cache.total_requests == g_cache.distinct_count + 1

    @pytest.mark.parametrize("mode", ["simplex", "quadratic"])
    def test_rule_functions_read_once_on_shared_caches(self, mode):
        fn = make_function("product_cubes_exp", 3, seed=1)
        s_set, t_set = canonical_set(3, 2, 1e-2)
        f_cache, g_cache = EvaluationCache(fn.f.oracle), EvaluationCache(fn.g.oracle)
        product_hessian(f_cache, g_cache, fn.base_point, s_set, t_set, mode)
        power_hessian(EvaluationCache(fn.f.oracle), fn.base_point, s_set, t_set, 3, mode)
        quotient_hessian(f_cache, g_cache, fn.base_point, s_set, t_set, mode)
        assert f_cache.total_requests == 2 * f_cache.distinct_count
        assert g_cache.total_requests == 2 * g_cache.distinct_count + 1


class TestGridValues:
    @pytest.mark.parametrize("k", [0, 2])
    def test_values_are_the_grid_read_only(self, k):
        fn = make_function("sum_of_cubes", 4, seed=3)
        x0 = fn.base_point
        s_set, t_set = canonical_set(4, k, 0.05)
        cache = EvaluationCache(fn.oracle)
        res = nested_set_hessian(x0, s_set, t_set, cache)
        values = res.values
        assert values.shape == (s_set.count + 1, t_set.count + 1)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 0.0
        assert values[0, 0] == cache.evaluate(x0)
        tol = dedup_tolerance(x0, s_set, t_set)
        grid = sample_grid(x0, s_set, t_set)
        want = cache.evaluate_many(grid.reshape(-1, 4), tol).reshape(values.shape)
        assert np.array_equal(values, want)

    def test_simplex_gradient_from_row_zero_is_bitwise_the_requested_one(self):
        fn = make_function("sum_of_cubes", 4, seed=3)
        s_set, t_set = canonical_set(4, 1, 0.05)
        cache = EvaluationCache(fn.oracle)
        res = nested_set_hessian(fn.base_point, s_set, t_set, cache)
        before = cache.total_requests
        got = simplex_gradient(fn.base_point, t_set, cache, res.values[0])
        assert cache.total_requests == before
        want = simplex_gradient(fn.base_point, t_set, cache)
        assert np.array_equal(got.gradient, want.gradient)
        assert got.eval_count == want.eval_count
        with pytest.raises(ValueError, match="shape"):
            simplex_gradient(fn.base_point, t_set, cache, res.values[0, 1:])

    def test_folded_model_from_the_grid_is_bitwise_the_requested_one(self):
        fn = make_function("sum_of_cubes", 4, seed=3)
        s_set, t_set = canonical_set(4, 3, 0.05)
        cache = EvaluationCache(fn.oracle)
        nested_set_hessian(fn.base_point, s_set, t_set, cache)
        before = cache.total_requests
        grad, model, pts = quadratic_model_gradient(cache, fn.base_point, s_set, t_set)
        assert cache.total_requests == before
        fresh = EvaluationCache(fn.oracle)
        want = quadratic_model_gradient(fresh, fn.base_point, s_set, t_set)
        assert fresh.total_requests == len(pts)
        assert np.array_equal(grad, want[0]) and want[2] is pts
        assert np.array_equal(model.hessian, want[1].hessian)

    def test_the_model_at_another_x0_reads_its_own_grid(self):
        # The model reaches F only through the grid record of its own x0,
        # so a read held for an estimate at another x0 cannot stand in.
        fn = make_function("sum_of_cubes", 3, seed=3)
        s_set, t_set = canonical_set(3, 2, 0.05)
        x0_a, x0_b = fn.base_point, fn.base_point + 0.5
        cache = EvaluationCache(fn.oracle)
        nested_set_hessian(x0_a, s_set, t_set, cache)
        grad, _, _ = quadratic_model_gradient(cache, x0_b, s_set, t_set)
        assert cache.distinct_count == 2 * minimal_point_count(3)
        want = quadratic_model_gradient(EvaluationCache(fn.oracle), x0_b, s_set, t_set)[0]
        assert grad.tobytes() == want.tobytes()
        np.testing.assert_allclose(grad, fn.gradient(x0_b), atol=1e-2)
        # No second hand-off: F read at x0_a cannot be passed in for x0_b.
        with pytest.raises(TypeError):
            quadratic_model_gradient(cache, x0_b, s_set, t_set, want)


class TestUnfoldedCoincidentGrid:
    """T is ``U_k`` up to rounding but not bitwise, so the grid is not folded."""

    def _sets(self, n=3, k=1, beta=1e-2):
        s_set = DirectionSet(beta * np.eye(n))
        u = build_uk(s_set, k).matrix
        t_set = DirectionSet(u * (1.0 + 2.0**-52))
        assert t_set.matrix.tobytes() != u.tobytes()
        return s_set, t_set

    def test_model_requests_nothing_after_the_estimate(self):
        fn = make_function("sum_of_cubes", 3, seed=1)
        s_set, t_set = self._sets()
        x0 = fn.base_point
        cache = EvaluationCache(fn.oracle)
        res = nested_set_hessian(x0, s_set, t_set, cache)
        pts = nshc_points(x0, s_set, t_set)
        assert len(pts) == minimal_point_count(3) < res.values.size
        before = cache.total_requests
        got = quadratic_model_gradient(cache, x0, s_set, t_set)
        assert cache.total_requests == before
        fresh = EvaluationCache(fn.oracle)
        want = quadratic_model_gradient(fresh, x0, s_set, t_set)
        assert fresh.distinct_count == len(pts)
        assert np.array_equal(got[0], want[0]) and want[2] is pts
        assert np.array_equal(got[1].hessian, want[1].hessian)

    def test_product_rule_matches_the_requesting_reference(self):
        fn = make_function("product_cubes_exp", 3, seed=1)
        s_set, t_set = self._sets()
        x0 = fn.base_point

        def caches():
            return EvaluationCache(fn.f.oracle), EvaluationCache(fn.g.oracle)

        f_cache, g_cache = caches()
        got = product_hessian(f_cache, g_cache, x0, s_set, t_set, "quadratic")

        ref_f, ref_g = caches()
        hf = nested_set_hessian(x0, s_set, t_set, ref_f).hessian
        hg = nested_set_hessian(x0, s_set, t_set, ref_g).hessian
        f0, g0 = ref_f.evaluate(x0), ref_g.evaluate(x0)
        gf = quadratic_model_gradient(ref_f, x0, s_set, t_set)[0]
        gg = quadratic_model_gradient(ref_g, x0, s_set, t_set)[0]
        want = hf * g0 + np.outer(gf, gg) + np.outer(gg, gf) + hg * f0
        assert np.array_equal(got.hessian, want)
        assert (f_cache.distinct_count, g_cache.distinct_count) == (
            ref_f.distinct_count, ref_g.distinct_count
        )
