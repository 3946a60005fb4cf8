import numpy as np
import pytest

from nshess import (
    DirectionSet,
    EvaluationCache,
    PointSet,
    QuadraticModel,
    canonical_set,
    interpolate_general,
    interpolate_minimal,
    nested_set_hessian,
    nshc_points,
)
from nshess.exceptions import NotPoisedError, RankDeficientError


def make_quadratic(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    h = 0.5 * (a + a.T)
    b = rng.uniform(-5.0, 5.0, size=n)
    c = float(rng.uniform(-5.0, 5.0))
    return (lambda x: float(0.5 * x @ h @ x + b @ x + c)), h, b, c


class TestQuadraticModel:
    def test_value_and_gradient(self):
        m = QuadraticModel(1.0, np.array([2.0, -1.0]), np.array([[2.0, 0.0], [0.0, 4.0]]))
        x = np.array([1.0, 1.0])
        assert m.value(x) == pytest.approx(1.0 + 2.0 - 1.0 + 0.5 * 6.0)
        np.testing.assert_allclose(m.gradient(x), [4.0, 3.0])

    def test_hessian_stored_symmetric(self):
        m = QuadraticModel(0.0, np.zeros(2), np.array([[0.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(m.hessian, [[0.0, 1.0], [1.0, 0.0]])

    def test_to_record_upper_triangle(self):
        m = QuadraticModel(3.0, np.array([1.0, 2.0]), np.array([[4.0, 5.0], [5.0, 6.0]]))
        rec = m.to_record()
        assert rec == {"alpha0": 3.0, "alpha": [1.0, 2.0], "hessian_upper": [4.0, 5.0, 6.0]}

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            QuadraticModel(0.0, np.zeros(2), np.zeros((3, 3)))


class TestInterpolateGeneral:
    def test_one_dimensional_parabola(self):
        pts = PointSet(np.array([[0.0], [1.0], [-1.0]]))
        model = interpolate_general(pts, [0.0, 1.0, 1.0])
        np.testing.assert_allclose(model.hessian, [[2.0]], atol=1e-12)
        np.testing.assert_allclose(model.alpha, [0.0], atol=1e-12)
        assert model.alpha0 == pytest.approx(0.0, abs=1e-12)

    def test_mixed_quadratic(self):
        f = lambda x: x[0] ** 2 + x[0] * x[1]  # noqa: E731
        s, t = canonical_set(2, 0, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        model = interpolate_general(pts, [f(p) for p in pts])
        np.testing.assert_allclose(model.hessian, [[2.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_cross_set_against_direct_solve(self):
        # Independent route: solve the raw (unscaled) 6 x 6 system for the
        # monomial coefficients of f = x1 x2 on the cross and compare.
        cross = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]]
        )
        vals = cross[:, 0] * cross[:, 1]
        raw = np.column_stack(
            [
                np.ones(6),
                cross[:, 0],
                cross[:, 1],
                0.5 * cross[:, 0] ** 2,
                cross[:, 0] * cross[:, 1],
                0.5 * cross[:, 1] ** 2,
            ]
        )
        coef = np.linalg.solve(raw, vals)
        model = interpolate_general(PointSet(cross), vals)
        np.testing.assert_allclose(model.alpha0, coef[0], atol=1e-12)
        np.testing.assert_allclose(model.alpha, coef[1:3], atol=1e-12)
        np.testing.assert_allclose(
            model.hessian, [[coef[3], coef[4]], [coef[4], coef[5]]], atol=1e-12
        )
        np.testing.assert_allclose(model.hessian, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_recovers_random_quadratics(self, n):
        f, h, b, c = make_quadratic(100 + n, n)
        rng = np.random.default_rng(200 + n)
        x0 = rng.standard_normal(n)
        s, t = canonical_set(n, min(1, n), 0.5)
        pts = nshc_points(x0, s, t)
        model = interpolate_general(pts, [f(p) for p in pts])
        np.testing.assert_allclose(model.hessian, h, atol=1e-8)
        np.testing.assert_allclose(model.alpha, b, atol=1e-8)
        np.testing.assert_allclose(model.alpha0, c, atol=1e-8)

    def test_interpolates_arbitrary_values_exactly(self):
        rng = np.random.default_rng(10)
        s, t = canonical_set(2, 2, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        vals = rng.standard_normal(6)
        model = interpolate_general(pts, vals)
        got = np.array([model.value(p) for p in pts])
        np.testing.assert_allclose(got, vals, atol=1e-10)

    def test_constant_function(self):
        s, t = canonical_set(2, 0, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        model = interpolate_general(pts, np.full(6, 7.0))
        assert model.alpha0 == pytest.approx(7.0)
        np.testing.assert_allclose(model.alpha, 0.0, atol=1e-12)
        np.testing.assert_allclose(model.hessian, 0.0, atol=1e-12)

    def test_far_from_origin_stays_well_conditioned(self):
        # An unscaled monomial basis at this distance has condition ~1e18
        # and returns garbage; the shifted, scaled solve stays near the
        # cancellation limit eps |f| / r^2 of the data itself.
        f, h, b, c = make_quadratic(33, 2)
        shift = np.array([1e3, -1e3])
        s, t = canonical_set(2, 1, 0.1)
        pts = nshc_points(shift, s, t)
        vals = [f(p) for p in pts]
        model = interpolate_general(pts, vals)
        limit = np.finfo(float).eps * max(abs(v) for v in vals) / 0.1**2
        assert np.max(np.abs(model.hessian - h)) <= 100.0 * limit

    def test_not_poised_set_rejected(self):
        pts = PointSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        )
        with pytest.raises(NotPoisedError):
            interpolate_general(pts, np.zeros(6))

    def test_wrong_cardinality_rejected(self):
        pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NotPoisedError, match="exactly"):
            interpolate_general(pts, np.zeros(3))

    def test_value_count_mismatch(self):
        pts = PointSet(np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(ValueError, match="shape"):
            interpolate_general(pts, np.zeros(4))


class TestInterpolateMinimal:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_recovers_quadratics_for_every_fold(self, k):
        f, h, b, c = make_quadratic(300 + k, 3)
        x0 = np.array([0.4, -1.2, 2.0])
        s = DirectionSet(0.2 * np.eye(3))
        model = interpolate_minimal(x0, s, k, EvaluationCache(f))
        np.testing.assert_allclose(model.hessian, h, atol=1e-8)
        np.testing.assert_allclose(model.alpha, b, atol=1e-8)
        np.testing.assert_allclose(model.alpha0, c, atol=1e-7)

    def test_general_outer_set(self):
        f, h, b, c = make_quadratic(44, 2)
        rng = np.random.default_rng(45)
        s = DirectionSet(0.3 * (rng.standard_normal((2, 2)) + 2.0 * np.eye(2)))
        model = interpolate_minimal(np.zeros(2), s, 1, EvaluationCache(f))
        np.testing.assert_allclose(model.hessian, h, atol=1e-8)

    @pytest.mark.parametrize("k", [0, 2])
    def test_matches_general_interpolation(self, k):
        f = lambda x: float(np.sin(x[0]) + np.exp(x[1]) + x[0] * x[1] ** 2)  # noqa: E731
        x0 = np.array([0.5, 0.5])
        s_set, t_set = canonical_set(2, k, 0.2)
        cache = EvaluationCache(f)
        minimal = interpolate_minimal(x0, s_set, k, cache)
        pts = nshc_points(x0, s_set, t_set)
        general = interpolate_general(pts, [f(p) for p in pts])
        scale = 1.0 + np.linalg.norm(general.hessian)
        assert np.linalg.norm(minimal.hessian - general.hessian) <= 1e-10 * scale
        np.testing.assert_allclose(minimal.alpha, general.alpha, atol=1e-10)
        np.testing.assert_allclose(minimal.alpha0, general.alpha0, atol=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_costs_minimal_evaluations_alone(self, k):
        cache = EvaluationCache(lambda x: float(np.sum(x**2)))
        s = DirectionSet(0.1 * np.eye(3))
        interpolate_minimal(np.ones(3), s, k, cache)
        assert cache.distinct_count == 10

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_free_after_hessian_estimate(self, k):
        f = lambda x: float(np.exp(np.sum(x)))  # noqa: E731
        x0 = np.array([0.1, 0.2])
        s_set, t_set = canonical_set(2, k, 0.1)
        cache = EvaluationCache(f)
        nested_set_hessian(x0, s_set, t_set, cache)
        before = cache.distinct_count
        interpolate_minimal(x0, s_set, k, cache)
        assert cache.distinct_count == before == 6

    def test_model_interpolates_the_samples(self):
        f = lambda x: float(np.cos(x[0]) + x[1] ** 3)  # noqa: E731
        x0 = np.array([0.3, 0.6])
        s_set, t_set = canonical_set(2, 1, 0.15)
        cache = EvaluationCache(f)
        model = interpolate_minimal(x0, s_set, 1, cache)
        for p in nshc_points(x0, s_set, t_set):
            assert model.value(p) == pytest.approx(f(p), abs=1e-10)

    def test_rank_deficient_outer_set_rejected(self):
        s = DirectionSet(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RankDeficientError):
            interpolate_minimal(np.zeros(2), s, 0, EvaluationCache(lambda x: 0.0))

    def test_rectangular_outer_set_rejected(self):
        s = DirectionSet(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            interpolate_minimal(np.zeros(2), s, 0, EvaluationCache(lambda x: 0.0))
