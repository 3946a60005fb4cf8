"""The grid-first estimator core: bulk cache reads, matrix-form Hessian,
grid deduplication, the coincidence pass, the closed-form fold map, and
the refusal to estimate on collapsed grids."""

import itertools

import numpy as np
import pytest

from nshess import (
    CollapsedGridError,
    DirectionSet,
    EvaluationCache,
    PointSet,
    build_uk,
    canonical_set,
    dedup_tolerance,
    interpolate_minimal,
    minimal_point_count,
    nested_set_hessian,
    nshc_points,
    product_hessian,
    quadratic_model_gradient,
    simplex_gradient,
)
from nshess import linalg, sets
from nshess.exceptions import EvaluationError
from nshess.sets import _distinct, _weights, fold_index, sample_grid


def smooth(x):
    return float(np.sum(x**3) + np.exp(0.3 * np.sum(x)) + x[0] * x[-1])


def counter_oracle():
    """Returns 0, 1, 2, ... so each stored value names the call that made it."""
    calls = itertools.count()
    return lambda x: float(next(calls))


def cache_state(cache):
    rows = cache.trace_rows()
    return (
        cache.distinct_count,
        cache.total_requests,
        [p.tolist() for p, _, _ in rows],
        [v for _, v, _ in rows],
        [s for _, _, s in rows],
    )


class TestBulkLookup:
    TOL = 1e-9

    def requests(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((6, 3))
        rows = np.vstack(
            [
                base,
                base[[0, 2]] + 0.5 * self.TOL,  # within a tolerance, but new keys
                base[[1, 1]],  # exact repeats
                base[[3]] + 3.0 * self.TOL,
                base[[3]] + 3.5 * self.TOL,
                rng.standard_normal((3, 3)),
            ]
        )
        return rows[rng.permutation(len(rows))]

    def test_matches_row_by_row_evaluation(self):
        rows = self.requests()
        one = EvaluationCache(counter_oracle())
        expected = [one.evaluate(x) for x in rows]
        bulk = EvaluationCache(counter_oracle())
        got = bulk.evaluate_many(rows)
        np.testing.assert_array_equal(got, expected)
        assert cache_state(bulk) == cache_state(one)
        statuses = cache_state(bulk)[4]
        assert statuses.count("miss") == 13 and statuses.count("hit") == 2

    def test_split_and_interleaved_calls_match(self):
        rows = self.requests()
        one = EvaluationCache(counter_oracle())
        expected = [one.evaluate(x) for x in rows]
        mixed = EvaluationCache(counter_oracle())
        got = list(mixed.evaluate_many(rows[:5]))
        got.append(mixed.evaluate(rows[5]))
        got.extend(mixed.evaluate_many(rows[6:]))
        assert got == expected
        assert cache_state(mixed) == cache_state(one)

    def test_first_class_wins_within_tolerance(self):
        # 0.9e-6 is within tol of both kept points; the earlier one wins
        # although the later one is nearer.
        points = np.array([[0.0], [5e-7], [1e-6], [1.5e-6], [0.9e-6]])
        kept, classes = _distinct(points, 1e-6)
        assert kept.tolist() == [0, 3]
        assert classes.tolist() == [0, 0, 0, 1, 0]

    def test_another_dimension_raises_before_any_state_changes(self):
        cache = EvaluationCache(counter_oracle())
        assert cache.evaluate_many(np.zeros((1, 2)))[0] == 0.0
        before = cache_state(cache)
        for other in (np.zeros(3), np.array([0.0, 0.0, 1e-12]), np.zeros(1)):
            with pytest.raises(ValueError, match="R\\^2"):
                cache.evaluate(other)
            with pytest.raises(ValueError, match="R\\^2"):
                cache.evaluate_many(np.vstack([other, other]))
        assert cache_state(cache) == before
        assert cache.evaluate(np.zeros(2)) == 0.0
        # A first request that stores nothing fixes no dimension.
        fresh = EvaluationCache(counter_oracle())
        with pytest.raises(ValueError, match="non-finite"):
            fresh.evaluate(np.array([np.nan, 0.0, 0.0]))
        assert fresh.evaluate(np.zeros(2)) == 0.0

    def test_non_finite_row_raises_after_serving_earlier_rows(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [np.nan, 0.0], [5.0, 6.0]])
        one = EvaluationCache(counter_oracle())
        with pytest.raises(ValueError, match="non-finite"):
            for x in rows:
                one.evaluate(x)
        bulk = EvaluationCache(counter_oracle())
        with pytest.raises(ValueError, match="non-finite"):
            bulk.evaluate_many(rows)
        assert cache_state(bulk) == cache_state(one)

    def test_oracle_failure_keeps_earlier_rows(self):
        def fails_at_three(x):
            if x[0] == 3.0:
                raise RuntimeError("backend offline")
            return float(x[0])

        rows = np.array([[1.0], [2.0], [1.0], [3.0], [4.0]])
        one = EvaluationCache(fails_at_three)
        with pytest.raises(EvaluationError):
            for x in rows:
                one.evaluate(x)
        bulk = EvaluationCache(fails_at_three)
        with pytest.raises(EvaluationError, match="backend offline"):
            bulk.evaluate_many(rows)
        assert cache_state(bulk) == cache_state(one)

    def test_rejects_vector_input(self):
        with pytest.raises(ValueError, match="2-D"):
            EvaluationCache(smooth).evaluate_many(np.zeros(3))


def loop_hessian(x0, s_mat, t_mat, f):
    """The nested estimate as first written: one simplex gradient per row."""
    t_pinv = linalg.pseudoinverse(t_mat.T)

    def gradient(base):
        fb = f(base)
        return t_pinv @ np.array([f(base + t_mat[:, j]) - fb for j in range(t_mat.shape[1])])

    g0 = gradient(x0)
    rows = [gradient(x0 + s_mat[:, i]) - g0 for i in range(s_mat.shape[1])]
    return linalg.pseudoinverse(s_mat.T) @ np.vstack(rows)


class TestMatrixForm:
    @pytest.mark.parametrize("n,m,k", [(2, 3, 4), (3, 5, 4), (4, 4, 7), (5, 8, 6)])
    def test_matches_loop_reference(self, n, m, k):
        rng = np.random.default_rng(100 + n)
        s_mat = 0.1 * rng.standard_normal((n, m))
        t_mat = 0.1 * rng.standard_normal((n, k))
        assert np.linalg.matrix_rank(s_mat) == n and np.linalg.matrix_rank(t_mat) == n
        x0 = rng.uniform(-0.5, 0.5, size=n)
        cache = EvaluationCache(smooth)
        res = nested_set_hessian(x0, DirectionSet(s_mat), DirectionSet(t_mat), cache)
        want = loop_hessian(x0, s_mat, t_mat, smooth)
        assert np.linalg.norm(res.hessian - want) <= 1e-12 * np.linalg.norm(want)


class TestEvaluationEconomy:
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_oracle_called_minimal_times(self, n):
        x0 = np.linspace(-0.5, 0.5, n)
        for k in sorted({0, 1, n // 2, n}):
            calls = []

            def counting(x):
                calls.append(1)
                return smooth(x)

            s_set, t_set = canonical_set(n, k, 1e-2)
            cache = EvaluationCache(counting)
            nested_set_hessian(x0, s_set, t_set, cache)
            interpolate_minimal(x0, s_set, k, cache)
            quadratic_model_gradient(cache, x0, s_set, t_set)
            assert len(calls) == minimal_point_count(n), f"k={k}"


def greedy_dedup(candidates, tol):
    """The grid deduplication as first written, kept as the reference."""
    kept = []
    for p in candidates:
        for q in kept:
            if np.max(np.abs(p - q)) <= tol:
                break
        else:
            kept.append(p)
    return np.array(kept)


def loop_candidates(x0, s_mat, t_mat):
    candidates = [x0]
    for j in range(t_mat.shape[1]):
        candidates.append(x0 + t_mat[:, j])
    for i in range(s_mat.shape[1]):
        base = x0 + s_mat[:, i]
        candidates.append(base)
        for j in range(t_mat.shape[1]):
            candidates.append(base + t_mat[:, j])
    return candidates


class TestGridDedup:
    TOL = 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_greedy_reference_with_planted_near_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        s_mat = rng.standard_normal((n, n))
        t_mat = np.empty((n, 5))
        # t_0 and t_1 fold grid points onto x0 + s_i up to a perturbation
        # inside the tolerance, t_2 up to one just outside it, t_3 folds
        # x0 + s_0 back onto x0 up to rounding, and t_4 is generic.
        jitter = rng.uniform(-0.9, 0.9, size=n) * self.TOL
        t_mat[:, 0] = s_mat[:, 1] - s_mat[:, 0] + jitter
        t_mat[:, 1] = s_mat[:, 2] - s_mat[:, 0] - jitter
        t_mat[:, 2] = s_mat[:, 2] - s_mat[:, 1] + np.array([1.5, 0.0, 0.0]) * self.TOL
        t_mat[:, 3] = -s_mat[:, 0]
        t_mat[:, 4] = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        got = nshc_points(x0, DirectionSet(s_mat), DirectionSet(t_mat), self.TOL)
        want = greedy_dedup(loop_candidates(x0, s_mat, t_mat), self.TOL)
        np.testing.assert_array_equal(got.points, want)
        assert len(want) < (n + 1) * 6

    def test_chained_near_duplicates_follow_first_seen(self):
        # 0.8 tol and 1.6 tol from x0: the first merges into x0, the second
        # is kept although it lies within tol of the first.
        tol = self.TOL
        t_mat = np.array([[0.8 * tol, 1.6 * tol], [0.0, 1.0]])
        s_mat = np.array([[10.0, 0.0], [0.0, 10.0]])
        x0 = np.zeros(2)
        got = nshc_points(x0, DirectionSet(s_mat), DirectionSet(t_mat), tol)
        want = greedy_dedup(loop_candidates(x0, s_mat, t_mat), tol)
        np.testing.assert_array_equal(got.points, want)
        np.testing.assert_array_equal(got.points[1], t_mat[:, 1])


class TestCollapsedGrids:
    def test_large_base_point_with_small_step(self):
        s_set, t_set = canonical_set(3, 1, 1e-7)
        cache = EvaluationCache(smooth)
        with pytest.raises(CollapsedGridError) as exc:
            nested_set_hessian(1e6 * np.ones(3), s_set, t_set, cache)
        assert exc.value.tol >= exc.value.spacing
        assert cache.distinct_count == 0

    def test_unit_base_point_with_step_below_tolerance(self):
        s_set, t_set = canonical_set(3, 2, 1e-13)
        with pytest.raises(CollapsedGridError):
            nested_set_hessian(np.ones(3), s_set, t_set, EvaluationCache(smooth))

    def test_cache_reused_small_after_large_scale(self):
        def cubic(x):
            return float(np.sum(x**3) + x[0] * x[-1])

        s_small, t_small = canonical_set(3, 1, 1e-5)
        x0 = np.zeros(3)
        estimators = {
            "nested_set_hessian": lambda c: nested_set_hessian(x0, s_small, t_small, c).hessian,
            "simplex_gradient": lambda c: simplex_gradient(x0, t_small, c).gradient,
            "interpolate_minimal": lambda c: interpolate_minimal(x0, s_small, 1, c).hessian,
            "quadratic_model_gradient": lambda c: quadratic_model_gradient(
                c, x0, s_small, t_small
            )[0],
            "product_hessian": lambda c: product_hessian(
                c, c, x0, s_small, t_small, "quadratic"
            ).hessian,
        }
        s_big, t_big = canonical_set(3, 1, 1.0)
        for name, estimate in estimators.items():
            cache = EvaluationCache(cubic)
            nested_set_hessian(1e8 * np.ones(3), s_big, t_big, cache)
            assert np.array_equal(estimate(cache), estimate(EvaluationCache(cubic))), name

    def test_every_estimator_refuses(self):
        s_set, t_set = canonical_set(2, 1, 1e-13)
        x0 = np.ones(2)
        for call in (
            lambda c: simplex_gradient(x0, t_set, c),
            lambda c: interpolate_minimal(x0, s_set, 1, c),
            lambda c: quadratic_model_gradient(c, x0, s_set, t_set),
        ):
            with pytest.raises(CollapsedGridError):
                call(EvaluationCache(smooth))


def scan_find(points, x, tol):
    """First row within ``tol`` of ``x`` in max-norm, by a full scan."""
    for i, p in enumerate(points):
        if np.max(np.abs(p - x)) <= tol:
            return i
    return -1


def scan_classes(cloud, tol):
    """Greedy first-seen classes by a full scan: each row's class, and the kept rows."""
    kept, labels = [], []
    for x in cloud:
        i = scan_find(kept, x, tol)
        if i < 0:
            i = len(kept)
            kept.append(x)
        labels.append(i)
    return labels, np.array(kept)


class TestCoincidencePass:
    """The windowed pass over sorted projections equals a full max-norm scan,
    and so does a point set's query."""

    def check(self, cloud, queries, tol):
        want_labels, want_kept = scan_classes(cloud, tol)
        rows, classes = _distinct(cloud, tol)
        assert classes.tolist() == want_labels
        assert cloud[rows].tobytes() == want_kept.tobytes()
        kept = PointSet(want_kept, tol)
        for q in queries:
            assert kept.index_of(q) == scan_find(want_kept, q, tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_at_and_just_beyond_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        tol = 2.0**-20
        n = 4
        # Dyadic coordinates, so base + tol is exact and differences are too.
        base = rng.integers(-2**10, 2**10, size=(40, n)) * 2.0**-10
        at = base + tol * rng.choice([-1.0, 0.0, 1.0], size=base.shape)
        beyond = base.copy()
        cols = rng.integers(n, size=len(base))
        beyond[np.arange(len(base)), cols] += np.where(rng.random(len(base)) < 0.5, -1, 1) * (
            tol + 2.0**-40
        )
        cloud = np.vstack([base, at, beyond])[rng.permutation(3 * len(base))]
        assert np.abs(at - base).max() == tol
        self.check(cloud, np.vstack([at, beyond, base + 0.5 * tol]), tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_cloud_with_overlapping_balls(self, seed):
        # Many queries lie within tol of several stored rows, whose
        # projections come in a different order than their rows.
        rng = np.random.default_rng(10 + seed)
        cloud = rng.uniform(0.0, 1.0, size=(150, 2))
        self.check(cloud, rng.uniform(0.0, 1.0, size=(300, 2)), 0.15)

    def test_large_coordinates_need_the_rounding_allowance(self):
        # At |x| = 1e8 a coordinate ulp is 1.5e-8. With mixed signs the
        # partial sums of two projections one ulp apart round differently,
        # and about one pair in ten lands more than tol * |w|_1 apart:
        # without the allowance those pairs are missed.
        rng = np.random.default_rng(5)
        n, p = 4, 200
        ulp = np.spacing(1e8)
        base = 1e8 * rng.choice([-1.0, 1.0], size=(p, n))
        base += ulp * rng.integers(-2**20, 2**20, size=base.shape)
        near = base + ulp * rng.integers(-1, 2, size=base.shape)
        cloud = np.vstack([base, near])
        assert _distinct(cloud, ulp)[1][p:].tolist() == list(range(p))
        self.check(cloud, near, ulp)

    def test_zero_tolerance_merges_signed_zeros(self):
        cloud = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [5e-324, 1.0]])
        assert _distinct(cloud, 0.0)[1].tolist() == [0, 0, 1, 1, 2]
        self.check(cloud, cloud, 0.0)

    def test_infinite_tolerance_matches_the_first_row(self):
        rng = np.random.default_rng(6)
        cloud = 1e6 * rng.standard_normal((20, 3))
        assert _distinct(cloud, np.inf)[1].tolist() == [0] * 20
        self.check(cloud, rng.standard_normal((5, 3)), np.inf)

    def test_dimension_one(self):
        rng = np.random.default_rng(7)
        cloud = rng.integers(0, 50, size=(120, 1)) * 0.25
        self.check(cloud, np.arange(0.0, 13.0, 0.125)[:, None], 0.25)

    def test_rows_whose_projections_tie(self):
        # Points on a hyperplane normal to the projection direction all
        # project to about one value, so every stored row is in the window.
        n = 3
        w = _weights(n)[0]
        v = np.array([w[1], -w[0], 0.0])
        steps = np.array([0.0, 3.0, 1.0, 2.5, 0.5, 4.0, 1.5]) * 1e-3
        cloud = np.array([0.25 + t * v for t in steps])
        y = cloud @ w
        assert np.ptp(y) < 1e-15
        queries = np.array([0.25 + t * v for t in np.linspace(-1e-3, 5e-3, 25)])
        self.check(cloud, queries, 0.6e-3)
        self.check(cloud, queries, 0.0)

    def test_exact_repeat_keeps_first_seen_row(self):
        # q lies within tol of both kept rows and nearer the second; it and
        # its bitwise repeat join the first.
        q = np.array([0.9e-6, 0.0])
        cloud = np.array([[0.0, 0.0], [1.5e-6, 0.0], q, q.copy()])
        assert _distinct(cloud, 1e-6)[1].tolist() == [0, 1, 0, 0]
        assert PointSet(cloud[:2], 1e-6).index_of(q) == 0
        self.check(cloud, cloud, 1e-6)


def canonical_or_random(n, k, rng):
    if rng is None:
        return canonical_set(n, k, 1e-2)
    s_set = DirectionSet(0.05 * rng.standard_normal((n, n)) + 0.1 * np.eye(n))
    return s_set, build_uk(s_set, k)


class TestFoldMap:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("random_s", [False, True], ids=["canonical", "random"])
    def test_classes_equal_greedy_dedup_of_the_grid(self, n, random_s):
        rng = np.random.default_rng(n) if random_s else None
        for k in range(n + 1):
            s_set, t_set = canonical_or_random(n, k, rng)
            x0 = np.linspace(-0.7, 0.9, n)
            grid = sample_grid(x0, s_set, t_set).reshape(-1, n)
            labels, kept = scan_classes(grid, dedup_tolerance(x0, s_set, t_set))
            cls, first = fold_index(n, k)
            assert cls.ravel().tolist() == labels, f"k={k}"
            np.testing.assert_array_equal(grid[first], kept)
            assert len(first) == minimal_point_count(n)

    def test_memoized_and_read_only(self):
        cls, first = fold_index(4, 2)
        assert fold_index(4, 2)[0] is cls
        assert not cls.flags.writeable and not first.flags.writeable
        with pytest.raises(ValueError):
            fold_index(3, 4)

    @staticmethod
    def non_folded_pair(kind, n, k):
        """``(S, T)`` whose T is not bitwise ``build_uk(S, k)``, so no fold map
        applies, while cells of the grid still coincide up to rounding."""
        if kind == "plus_zero":  # float-equal U_k, +0.0 for its -0.0 entries
            s_set, t_set = canonical_set(n, k, 1e-2)
            plus_zero = DirectionSet(t_set.matrix + 0.0)
            assert plus_zero.matrix.tobytes() != t_set.matrix.tobytes()
            return s_set, plus_zero
        rng = np.random.default_rng(n + k)
        s = 0.1 * (np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        # T repeats columns of S, so (x0 + s_i) + s_j meets (x0 + s_j) + s_i.
        return DirectionSet(s), DirectionSet(np.hstack([s[:, : n - 1], 0.1 * np.eye(n)[:, :1]]))

    @pytest.mark.parametrize("kind", ["folded", "plus_zero", "shared_columns"])
    def test_a_read_requests_each_distinct_point_once(self, kind):
        # The record, not the cache, merges cells within its tolerance, so
        # every read requests each of its distinct points exactly once; F, H
        # and the count are those of a scan that maps each cell to the first
        # earlier cell within dedup_tolerance(x0, S, T).
        n, k = 5, 2
        x0 = np.linspace(-0.5, 0.5, n)
        if kind == "folded":
            s_set, t_set = canonical_set(n, k, 1e-2)
        else:
            s_set, t_set = self.non_folded_pair(kind, n, k)
        grid = sample_grid(x0, s_set, t_set)
        labels, kept = scan_classes(grid.reshape(-1, n), dedup_tolerance(x0, s_set, t_set))
        want_values = np.array([smooth(p) for p in kept])[labels].reshape(grid.shape[:2])
        s, t = s_set.matrix.copy(), t_set.matrix.copy()
        d = want_values[1:, 1:] - want_values[1:, :1] - want_values[:1, 1:] + want_values[0, 0]
        want_hessian = linalg.pseudoinverse(s.T) @ d @ linalg.pseudoinverse(t)

        cache = EvaluationCache(smooth)
        res = nested_set_hessian(x0, s_set, t_set, cache)
        assert cache.total_requests == cache.distinct_count == len(kept)
        assert "hit" not in [status for _, _, status in cache.trace_rows()]
        assert res.values.tobytes() == want_values.tobytes()
        assert res.hessian.tobytes() == want_hessian.tobytes()
        if kind == "shared_columns":
            assert len(kept) < grid.shape[0] * grid.shape[1]
        else:
            assert len(kept) == minimal_point_count(n)

    def test_zero_tolerance_and_rounded_cells_keep_the_tolerance_path(self):
        # A random S puts rounding between the cells of a class, so at
        # tol = 0 the grid has more than the minimal number of points.
        rng = np.random.default_rng(4)
        s_set, t_set = canonical_or_random(3, 1, rng)
        x0 = np.array([0.3, -0.2, 0.7])
        grid = sample_grid(x0, s_set, t_set).reshape(-1, 3)
        got = nshc_points(x0, s_set, t_set, 0.0)
        np.testing.assert_array_equal(got.points, scan_classes(grid, 0.0)[1])
        assert len(got) > minimal_point_count(3)

    @staticmethod
    def close_columns(n):
        s = np.eye(n)
        s[:, 1] = s[:, 0] + 4e-13 * np.linspace(1.0, 2.0, n)
        return DirectionSet(s)

    def run_all(self, x0, s_set, k, cache, tol):
        t_set = build_uk(s_set, k)
        h = nested_set_hessian(x0, s_set, t_set, cache).hessian
        after_estimate = cache.distinct_count
        m = interpolate_minimal(x0, s_set, k, cache)
        pts = nshc_points(x0, s_set, t_set, tol)
        return (
            h.tobytes(),
            after_estimate,
            (m.alpha0, m.alpha.tobytes(), m.hessian.tobytes()),
            cache.distinct_count,
            pts.points.tobytes(),
        )

    @pytest.mark.parametrize("case", ["fresh", "prefilled", "close_columns"])
    def test_equals_the_general_path(self, case, monkeypatch):
        n = 4
        x0 = np.linspace(-0.3, 0.4, n)
        # With s_1 and s_2 closer than tol, U_1 and U_2 have a collapsed
        # column and every estimator refuses them.
        for k in (0, 3, 4) if case == "close_columns" else range(n + 1):
            if case == "close_columns":
                s_set = self.close_columns(n)
            else:
                s_set = canonical_set(n, k, 1e-2)[0]
            tol = dedup_tolerance(x0, s_set, build_uk(s_set, k))

            def make_cache():
                cache = EvaluationCache(smooth)
                if case == "prefilled":
                    # Another estimate, whose grid shares points with this one.
                    other = x0 + s_set.column(0)
                    nested_set_hessian(other, s_set, build_uk(s_set, (k + 1) % (n + 1)), cache)
                return cache

            folded = self.run_all(x0, s_set, k, make_cache(), tol)
            with monkeypatch.context() as m:
                m.setattr(sets, "_fold_k", lambda s, t: None)
                general = self.run_all(x0, s_set, k, make_cache(), tol)
            assert folded == general, f"k={k}"
            # The general path itself agrees with the loop references.
            t_set = build_uk(s_set, k)
            want_pts = greedy_dedup(loop_candidates(x0, s_set.matrix, t_set.matrix), tol)
            assert folded[4] == want_pts.tobytes()
            if case == "close_columns":
                # Classes {1, j} and {2, j} merge, so the grid has fewer points.
                assert len(want_pts) < minimal_point_count(n)
