import numpy as np
import pytest

from nshess import (
    BoundInputs,
    DirectionSet,
    EvaluationCache,
    canonical_set,
    delta_f,
    error_bound_gsg,
    error_bound_nsh,
    nested_set_hessian,
    simplex_gradient,
)
from nshess.exceptions import EvaluationError, RankDeficientError


def sphere(x):
    return float(np.sum(x**2))


def make_quadratic(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    h = 0.5 * (a + a.T)
    b = rng.uniform(-5.0, 5.0, size=n)
    c = float(rng.uniform(-5.0, 5.0))
    return (lambda x: float(0.5 * x @ h @ x + b @ x + c)), h, b, c


class TestDeltaF:
    def test_forward_differences(self):
        t = DirectionSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
        d = delta_f(np.zeros(2), t, EvaluationCache(sphere))
        np.testing.assert_allclose(d, [1.0, 4.0])

    def test_shares_the_cache(self):
        cache = EvaluationCache(sphere)
        t = DirectionSet(np.eye(2))
        delta_f(np.zeros(2), t, cache)
        delta_f(np.zeros(2), t, cache)
        assert cache.distinct_count == 3
        assert cache.total_requests == 6


class TestSimplexGradient:
    def test_exact_on_affine_functions(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal(3)
        f = lambda x: float(b @ x + 2.5)  # noqa: E731
        for cols in (3, 5):
            t = DirectionSet(rng.standard_normal((3, cols)) * 0.3)
            res = simplex_gradient(rng.standard_normal(3), t, EvaluationCache(f))
            np.testing.assert_allclose(res.gradient, b, atol=1e-12)

    def test_sphere_coordinate_stencil(self):
        # f = |x|^2 with T = h I at the origin gives g = (h, h); the error
        # sqrt(2) h meets the theoretical bound exactly.
        h = 0.01
        t = DirectionSet(h * np.eye(2))
        res = simplex_gradient(np.zeros(2), t, EvaluationCache(sphere))
        np.testing.assert_allclose(res.gradient, [h, h], rtol=1e-12)
        error = np.linalg.norm(res.gradient)
        bound = error_bound_gsg(BoundInputs.for_gradient(t, lipschitz_grad=2.0))
        np.testing.assert_allclose(error, np.sqrt(2.0) * h, rtol=1e-12)
        np.testing.assert_allclose(bound, np.sqrt(2.0) * h, rtol=1e-12)

    def test_sphere_overdetermined_stencil(self):
        h = 0.05
        t = DirectionSet(h * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        res = simplex_gradient(np.zeros(2), t, EvaluationCache(sphere))
        np.testing.assert_allclose(res.gradient, [h, h], rtol=1e-12)
        bound = error_bound_gsg(BoundInputs.for_gradient(t, lipschitz_grad=2.0))
        np.testing.assert_allclose(bound, 2.0 * np.sqrt(3.0) * h, rtol=1e-12)
        assert np.linalg.norm(res.gradient) <= bound

    def test_square_set_matches_direct_solve(self):
        rng = np.random.default_rng(8)
        t_mat = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        t = DirectionSet(t_mat)
        x0 = rng.standard_normal(3)
        cache = EvaluationCache(sphere)
        res = simplex_gradient(x0, t, cache)
        d = np.array([sphere(x0 + t_mat[:, j]) - sphere(x0) for j in range(3)])
        np.testing.assert_allclose(res.gradient, np.linalg.solve(t_mat.T, d), rtol=1e-10)

    def test_error_shrinks_linearly_for_smooth_functions(self):
        f = lambda x: float(np.exp(np.sum(x)))  # noqa: E731
        errors = []
        for h in (1e-2, 1e-3):
            t = DirectionSet(h * np.eye(2))
            res = simplex_gradient(np.zeros(2), t, EvaluationCache(f))
            errors.append(np.linalg.norm(res.gradient - np.ones(2)))
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.1)

    def test_rank_deficient_set_rejected(self):
        t = DirectionSet(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RankDeficientError) as exc:
            simplex_gradient(np.zeros(2), t, EvaluationCache(sphere))
        assert exc.value.name == "T"

    def test_too_few_directions_rejected(self):
        t = DirectionSet(np.array([[1.0], [0.0]]))
        with pytest.raises(RankDeficientError):
            simplex_gradient(np.zeros(2), t, EvaluationCache(sphere))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        # A non-finite value at any of the points raises, and no answer is
        # counted from that point on; a NaN used to give a NaN gradient.
        t = DirectionSet(0.1 * np.eye(2))
        points = np.vstack([np.zeros(2), t.matrix.T])
        for i in range(3):

            def oracle(x, at=points[i]):
                return bad if np.array_equal(x, at) else sphere(x)

            cache = EvaluationCache(oracle)
            with pytest.raises(EvaluationError, match="non-finite"):
                simplex_gradient(np.zeros(2), t, cache)
            assert cache.total_requests == cache.distinct_count == i

    @pytest.mark.parametrize(
        "t_mat",
        [
            0.5 * np.eye(2),
            # Columns 1 and 3 differ by 2e-13, below dedup_tolerance(x0, T)
            # (about 1.5e-12) but not bitwise: they cost one evaluation.
            np.array([[0.5, 0.0, 0.5 + 2e-13], [0.0, 0.5, 0.0]]),
        ],
        ids=["square", "near_duplicate_columns"],
    )
    def test_reports_radius_and_eval_count(self, t_mat):
        t = DirectionSet(t_mat)
        cache = EvaluationCache(sphere)
        res = simplex_gradient(np.zeros(2), t, cache)
        assert res.set_radius == t.radius
        assert res.eval_count == cache.total_requests == 3


class TestNestedSetHessian:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_on_quadratics_with_generic_sets(self, n):
        f, h_true, _, _ = make_quadratic(21 + n, n)
        rng = np.random.default_rng(31 + n)
        s = DirectionSet(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
        t = DirectionSet(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
        x0 = rng.standard_normal(n)
        res = nested_set_hessian(x0, s, t, EvaluationCache(f))
        scale = 1.0 + np.linalg.norm(h_true)
        assert np.linalg.norm(res.hessian - h_true) <= 1e-9 * scale

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_exact_on_quadratics_with_folded_sets(self, k):
        f, h_true, _, _ = make_quadratic(55, 3)
        s, t = canonical_set(3, k, 0.1)
        res = nested_set_hessian(np.ones(3), s, t, EvaluationCache(f))
        np.testing.assert_allclose(res.hessian, h_true, atol=1e-9)

    def test_coordinate_stencil_identity(self):
        # With S = T = beta I the estimate collapses to the classic
        # second-order finite-difference stencil entry by entry.
        f = lambda x: float(np.sin(x[0]) * np.exp(x[1]) + x[0] * x[1] ** 2)  # noqa: E731
        beta = 0.05
        x0 = np.array([0.3, -0.2])
        s, t = canonical_set(2, 0, beta)
        res = nested_set_hessian(x0, s, t, EvaluationCache(f))
        e = np.eye(2) * beta
        stencil = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                stencil[i, j] = (
                    f(x0 + e[:, i] + e[:, j]) - f(x0 + e[:, i]) - f(x0 + e[:, j]) + f(x0)
                ) / beta**2
        np.testing.assert_allclose(res.hessian, stencil, rtol=1e-12, atol=1e-12)

    def test_first_order_convergence_on_cubes(self):
        f = lambda x: float(np.sum(x**3))  # noqa: E731
        x0 = np.ones(3)
        errors = []
        betas = [1e-2, 1e-3]
        for beta in betas:
            s, t = canonical_set(3, 1, beta)
            res = nested_set_hessian(x0, s, t, EvaluationCache(f))
            errors.append(np.linalg.norm(res.hessian - np.diag(6.0 * x0), 2))
        slope = np.log(errors[0] / errors[1]) / np.log(betas[0] / betas[1])
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_errors_stay_below_certified_bound_on_cubes(self):
        f = lambda x: float(np.sum(x**3))  # noqa: E731
        x0 = np.ones(3)
        for k in range(0, 4):
            for beta in (1e-1, 1e-2, 1e-3):
                s, t = canonical_set(3, k, beta)
                res = nested_set_hessian(x0, s, t, EvaluationCache(f))
                # Within the sample ball, the gradient 3 x^2 has Lipschitz
                # constant 6 (max |x_i| + radius) and the Hessian exactly 6.
                reach = 1.0 + 1.5 * (s.radius + t.radius)
                inputs = BoundInputs.for_hessian(s, t, 6.0 * reach, 6.0)
                bound = error_bound_nsh(inputs)
                error = np.linalg.norm(res.hessian - np.diag(6.0 * x0), 2)
                assert error <= bound

    def test_symmetrize_flag(self):
        # Generic direction sets leave the raw estimate visibly asymmetric
        # on non-quadratic functions; the flag reports the symmetric part.
        f = lambda x: float(x[0] ** 3 * x[1] + np.exp(x[0]))  # noqa: E731
        rng = np.random.default_rng(2)
        s = DirectionSet(0.2 * (rng.standard_normal((2, 2)) + 2.0 * np.eye(2)))
        t = DirectionSet(0.2 * (rng.standard_normal((2, 2)) + 2.0 * np.eye(2)))
        x0 = np.array([0.7, -0.4])
        raw = nested_set_hessian(x0, s, t, EvaluationCache(f))
        sym = nested_set_hessian(x0, s, t, EvaluationCache(f), symmetrize=True)
        assert not np.allclose(raw.hessian, raw.hessian.T, atol=1e-14)
        np.testing.assert_allclose(sym.hessian, sym.hessian.T, atol=0)
        np.testing.assert_allclose(sym.hessian, 0.5 * (raw.hessian + raw.hessian.T), atol=1e-14)
        assert raw.symmetrized is False
        assert sym.symmetrized is True

    def test_result_metadata(self):
        s, t = canonical_set(2, 2, 0.5)
        cache = EvaluationCache(sphere)
        res = nested_set_hessian(np.zeros(2), s, t, cache)
        assert res.delta_u == pytest.approx(0.5 * np.sqrt(2.0))
        assert res.delta_l == pytest.approx(0.5)
        assert res.eval_count == 6
        assert res.values.shape == (3, 3)

    def test_rank_deficient_outer_set_named(self):
        s = DirectionSet(np.array([[1.0, 2.0], [2.0, 4.0]]))
        t = DirectionSet(np.eye(2))
        with pytest.raises(RankDeficientError) as exc:
            nested_set_hessian(np.zeros(2), s, t, EvaluationCache(sphere))
        assert exc.value.name == "S"

    def test_dimension_mismatch(self):
        s, t = canonical_set(2, 0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            nested_set_hessian(np.zeros(3), s, t, EvaluationCache(sphere))
