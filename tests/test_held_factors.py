"""Direction sets hold their factors, canonical_set its pairs; every consumer reads them."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from nshess import (
    BoundInputs,
    DirectionSet,
    EvaluationCache,
    RuleGeometry,
    StudyConfig,
    canonical_set,
    error_bound_nsh,
    linalg,
    nested_set_hessian,
    run_study,
    sets,
    simplex_gradient,
)
from nshess.approx import second_differences
from nshess.quadmodel import interpolate_minimal
from nshess.sets import _fold_k, _uk_matrix, build_uk, sample_grid

EPS = np.finfo(float).eps


def _cubic(x):
    return float(np.sum(x**3) + x[0] * np.sum(x) ** 2)


def _consumers(s_set, t_set):
    """Every call that reads a set's factors."""
    s_set.rank(), s_set.rank(transpose=True), t_set.rank(), t_set.rank(transpose=True)
    s_set.pinv(), s_set.pinv(transpose=True), t_set.pinv(), t_set.pinv(transpose=True)
    BoundInputs.for_hessian(s_set, t_set, 1.0, 1.0)
    BoundInputs.for_gradient(t_set, 1.0)
    RuleGeometry.from_sets(s_set, t_set)


class TestSvdCount:
    @pytest.mark.parametrize("function", ["sum_of_cubes", "exp_of_sum", "rosenbrock"])
    def test_nested_set_study_takes_three_svds_per_row_plus_one(self, svd_calls, function):
        config = StudyConfig(
            function=function, dim=4, k=2, estimator="nested-set", beta_steps=12, seed=3
        )
        report = run_study(config)
        assert len(report.rows) == 12
        assert len(svd_calls) <= 3 * len(report.rows) + 1

    def test_second_calls_run_no_svd(self, svd_calls):
        rng = np.random.default_rng(2)
        s_set = DirectionSet(rng.standard_normal((3, 4)))
        t_set = DirectionSet(rng.standard_normal((3, 5)))
        _consumers(s_set, t_set)
        assert len(svd_calls) == 4  # S, S^T, T and T^T, once each
        first = s_set.radius, t_set.radius
        _consumers(s_set, t_set)
        assert len(svd_calls) == 4
        assert (s_set.radius, t_set.radius) == first

    def test_estimate_then_model_factor_s_once(self, svd_calls):
        s_set, t_set = canonical_set(3, 2, 0.1)
        x0 = np.array([0.2, -0.4, 0.9])
        cache = EvaluationCache(_cubic)
        nested_set_hessian(x0, s_set, t_set, cache)
        assert len(svd_calls) == 2
        s_set.rank(transpose=True)
        assert len(svd_calls) == 2
        simplex_gradient(x0, t_set, cache)
        simplex_gradient(x0, t_set, cache)
        assert len(svd_calls) == 3

    def test_folded_estimate_and_model_take_two_svds(self, svd_calls):
        # S^T and T for the estimate; the model's three solves with S^T
        # reuse the held rank instead of factoring S^T again.
        s_set, t_set = canonical_set(5, 2, 0.1)
        x0 = np.array([0.2, -0.4, 0.9, 0.1, -0.3])
        cache = EvaluationCache(_cubic)
        nested_set_hessian(x0, s_set, t_set, cache)
        interpolate_minimal(x0, s_set, 2, cache)
        assert len(svd_calls) == 2


class TestBitwiseEstimates:
    @pytest.mark.parametrize("seed", range(8))
    def test_nested_set_hessian_is_pinv_st_d_pinv_t(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        s_set = DirectionSet(0.1 * rng.standard_normal((n, n + int(rng.integers(1, 3)))))
        t_set = DirectionSet(0.1 * rng.standard_normal((n, n + int(rng.integers(1, 3)))))
        x0 = rng.uniform(-1.0, 1.0, n)
        got = nested_set_hessian(x0, s_set, t_set, EvaluationCache(_cubic)).hessian
        grid = sample_grid(x0, s_set, t_set)
        values = np.array([[_cubic(p) for p in row] for row in grid])
        d = second_differences(values)
        want = linalg.pseudoinverse(s_set.matrix.T) @ d @ linalg.pseudoinverse(t_set.matrix)
        assert got.tobytes() == want.tobytes()

    def test_pinv_and_rank_match_linalg(self):
        rng = np.random.default_rng(4)
        for shape in [(1, 1), (2, 5), (4, 4), (6, 3)]:
            matrix = rng.standard_normal(shape)
            d = DirectionSet(matrix)
            assert d.pinv().tobytes() == linalg.pseudoinverse(matrix).tobytes()
            assert d.pinv(transpose=True).tobytes() == linalg.pseudoinverse(matrix.T).tobytes()
            assert d.rank() == d.rank(transpose=True) == linalg.rank(matrix)

    def test_model_still_checks_the_rank_of_s(self):
        s_set = DirectionSet(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="rank"):
            interpolate_minimal(np.zeros(2), s_set, 1, EvaluationCache(_cubic))


def _kappa(d: DirectionSet) -> float:
    s = np.linalg.svd(d.matrix, compute_uv=False)
    s = s[s > linalg._cutoff(s, d.matrix.shape)]
    return float(s[0] / s[-1])


def _factor_sets():
    sets = [canonical_set(n, k, beta) for n in (1, 3, 6) for k in (0, 1, n) for beta in (1e-3, 2.0)]
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        s_mat = rng.standard_normal((n, n + int(rng.integers(0, 3))))
        t_mat = rng.standard_normal((n, n + int(rng.integers(0, 3))))
        sets.append((DirectionSet(1e-2 * s_mat), DirectionSet(3.0 * t_mat)))
    # The third column is the sum of the first two: the cutoff drops one
    # singular value, and only the kept ones enter the factors.
    deficient = DirectionSet(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]))
    sets.append((deficient, deficient))
    return sets


class TestBoundFactors:
    """The held-SVD factors agree with norms of explicit pseudoinverses.

    Both sides carry rounding of order ``eps * kappa``, where ``kappa`` is
    the condition number of the kept singular values: the old expression
    factors the normalized set and then its pseudoinverse again. So the
    tolerance is ``4 * eps * kappa`` relative.
    """

    @pytest.mark.parametrize("pair", _factor_sets())
    def test_factors_match_explicit_pseudoinverses(self, pair):
        s_set, t_set = pair
        s_hat, t_hat = s_set.normalized().matrix, t_set.normalized().matrix
        tol_s = 4 * EPS * _kappa(s_set)
        tol_t = 4 * EPS * _kappa(t_set)
        norm = linalg.spectral_norm
        hess = BoundInputs.for_hessian(s_set, t_set, 1.0, 1.0)
        grad = BoundInputs.for_gradient(t_set, 1.0)
        assert hess.norm_s_pinv == pytest.approx(norm(linalg.pseudoinverse(s_hat.T)), rel=tol_s)
        assert hess.norm_t_pinv == pytest.approx(norm(linalg.pseudoinverse(t_hat)), rel=tol_t)
        assert grad.norm_t_pinv == pytest.approx(norm(linalg.pseudoinverse(t_hat.T)), rel=tol_t)
        geometry = RuleGeometry.from_sets(s_set, t_set)
        spectral = linalg.spectral_norm
        assert geometry.norm_s_hat_pinv == pytest.approx(
            spectral(linalg.pseudoinverse(s_hat.T)), rel=tol_s
        )
        assert geometry.norm_t_hat_pinv == pytest.approx(
            spectral(linalg.pseudoinverse(t_hat)), rel=tol_t
        )
        assert geometry.norm_t_pinv == pytest.approx(
            spectral(linalg.pseudoinverse(t_set.matrix.T)), rel=tol_t
        )

    def test_deficient_set_drops_a_singular_value(self):
        deficient = _factor_sets()[-1][0]
        assert deficient.rank() == deficient.rank(transpose=True) == 2
        assert deficient.pinv_norm() == pytest.approx(1.0)  # singular values 3 and 1

    def test_zero_radius_cannot_be_normalized(self):
        zero = DirectionSet(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero radius"):
            zero.pinv_norm(normalized=True)
        assert zero.pinv_norm() == 0.0


def _estimate_bound_model(n: int, k: int, beta: float):
    """Bytes of H, its bound and the closed-form model on a fresh cache."""
    x0 = np.linspace(-0.7, 0.9, n)
    s_set, t_set = canonical_set(n, k, beta)
    cache = EvaluationCache(_cubic)
    h = nested_set_hessian(x0, s_set, t_set, cache).hessian
    bound = error_bound_nsh(BoundInputs.for_hessian(s_set, t_set, 2.0, 3.0))
    model = interpolate_minimal(x0, s_set, k, cache)
    return (
        h.tobytes(),
        np.float64(bound).tobytes(),
        np.float64(model.alpha0).tobytes() + model.alpha.tobytes() + model.hessian.tobytes(),
        cache.distinct_count,
    )


class TestGeometryMemo:
    """``canonical_set`` hands out held pairs; nothing it holds changes a result."""

    def setup_method(self):
        sets._canonical_pair.cache_clear()

    def test_repeated_key_returns_the_same_sets(self):
        s_set, t_set = canonical_set(4, 2, 0.1)
        again = canonical_set(4, 2, np.float64(0.1))
        assert again[0] is s_set and again[1] is t_set
        for other in [(5, 2, 0.1), (4, 1, 0.1), (4, 2, 0.2)]:
            s_other, t_other = canonical_set(*other)
            assert s_other is not s_set and t_other is not t_set
        assert sets._canonical_pair.cache_info().maxsize == 128

    def test_stays_a_plain_function(self):
        # The benchmark's tracer wraps only plain functions.
        assert inspect.isfunction(sets.canonical_set)

    @pytest.mark.parametrize(
        "args, match",
        [((0, 0, 0.1), "n must"), ((3, 4, 0.1), "k must"), ((3, -1, 0.1), "k must"),
         ((3, 1, 0.0), "beta"), ((3, 1, -0.1), "beta"), ((3, 1, np.inf), "beta"),
         ((3, 1, np.nan), "beta")],
    )
    def test_invalid_arguments_raise_on_every_call(self, args, match):
        canonical_set(3, 1, 0.1)
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                canonical_set(*args)
        assert sets._canonical_pair.cache_info().currsize == 1

    def test_held_factors_stay_bounded(self, svd_calls):
        # One slot per pseudoinverse or norm: asking again factors nothing
        # and hands back the held pseudoinverse itself.
        s_set, t_set = canonical_set(5, 1, 0.1)

        def ask_everything():
            return [
                (d.pinv(transpose), d.pinv_norm(transpose, normalized))
                for d in (s_set, t_set)
                for transpose in (False, True)
                for normalized in (False, True)
            ]

        first = ask_everything()
        assert len(svd_calls) == 4
        again = ask_everything()
        assert len(svd_calls) == 4
        assert all(p is q and a == b for (p, a), (q, b) in zip(first, again))

    def test_build_uk_holds_one_set_per_outer_set(self):
        # The closed-form model reuses the estimate's T; a sweep over k on
        # one S keeps only the last U_k alive.
        s_set, t_set = canonical_set(4, 2, 0.1)
        assert build_uk(s_set, 2) is t_set
        built = []
        for k in (0, 1, 3, 4, 1):
            u_set = build_uk(s_set, k)
            assert build_uk(s_set, k) is u_set
            assert u_set.matrix.tobytes() == _uk_matrix(s_set.matrix, k).tobytes()
            built.append(weakref.ref(u_set))
            del u_set
            gc.collect()
            assert [ref() is not None for ref in built] == [False] * (len(built) - 1) + [True]
        assert _fold_k(s_set, t_set) == 2

    def test_warm_geometry_takes_no_svd(self, svd_calls):
        first = _estimate_bound_model(6, 3, 0.05)
        assert len(svd_calls) == 2
        del svd_calls[:]
        assert _estimate_bound_model(6, 3, 0.05) == first
        assert svd_calls == []

    def test_held_pinv_is_read_only(self):
        s_set, t_set = canonical_set(3, 2, 0.1)
        for held in (s_set.pinv(transpose=True), t_set.pinv(), t_set.pinv(transpose=True)):
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0] = 1.0
        assert DirectionSet(np.eye(2)).pinv() is not DirectionSet(np.eye(2)).pinv()

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 0), (3, 2), (5, 5)])
    def test_fold_k_for_sets_built_elsewhere(self, n, k):
        s_set, t_set = canonical_set(n, k, 0.1)
        assert _fold_k(s_set, t_set) == k
        s_copy = DirectionSet(0.1 * np.eye(n))
        t_copy = DirectionSet(_uk_matrix(s_copy.matrix, k))
        assert _fold_k(s_copy, t_copy) == k
        assert _fold_k(s_set, t_copy) == k
        assert _fold_k(s_copy, t_set) == k

    def test_fold_k_reads_the_held_uk_without_rebuilding(self, monkeypatch):
        # T built from S by build_uk names its k from S's slot; any other T,
        # a bitwise copy included, is compared with the rebuilt U_k matrices.
        s_set = DirectionSet(0.1 * np.eye(4))
        t_set = build_uk(s_set, 2)
        built = []
        original = sets._uk_matrix
        monkeypatch.setattr(sets, "_uk_matrix", lambda s, k: built.append(k) or original(s, k))
        assert _fold_k(s_set, t_set) == 2
        assert built == []
        assert _fold_k(s_set, DirectionSet(t_set.matrix.copy())) == 2
        assert built[-1] == 2
        assert _fold_k(s_set, DirectionSet(t_set.matrix + 0.0)) is None

    def test_fold_k_none_for_a_pair_that_does_not_fold(self):
        s_set, t_set = canonical_set(3, 2, 0.1)
        assert _fold_k(s_set, DirectionSet(t_set.matrix.copy() * 1.5)) is None
        assert _fold_k(s_set, DirectionSet(np.hstack([t_set.matrix, s_set.matrix[:, :1]]))) is None
        other = DirectionSet(np.random.default_rng(0).standard_normal((3, 3)))
        assert _fold_k(s_set, other) is None
        assert _fold_k(other, DirectionSet(_uk_matrix(other.matrix, 1))) == 1

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_cold_and_warm_estimates_are_bitwise_equal(self, n):
        for k in sorted({0, 1, n}):
            sets._canonical_pair.cache_clear()
            cold = _estimate_bound_model(n, k, 0.02)
            warm = _estimate_bound_model(n, k, 0.02)
            assert warm == cold
            assert cold[3] == (n + 1) * (n + 2) // 2
