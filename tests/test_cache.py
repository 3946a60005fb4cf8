import io
import threading

import numpy as np
import pytest

from nshess import EvaluationCache, canonical_set, dedup_tolerance, nested_set_hessian
from nshess.exceptions import EvaluationError


def sphere(x):
    return float(np.sum(x**2))


class TestCounting:
    def test_distinct_versus_total(self):
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0, 2.0]))
        cache.evaluate(np.array([1.0, 2.0]))
        cache.evaluate(np.array([3.0, 4.0]))
        assert cache.distinct_count == 2
        assert cache.total_requests == 3

    def test_oracle_called_once_per_point(self):
        calls = []

        def counting(x):
            calls.append(x.copy())
            return sphere(x)

        cache = EvaluationCache(counting)
        for _ in range(5):
            cache.evaluate(np.zeros(3))
        assert len(calls) == 1

    def test_tolerance_merges_nearby_points(self):
        cache = EvaluationCache(sphere, tol=1e-9)
        a = cache.evaluate(np.array([1.0, 0.0]))
        b = cache.evaluate(np.array([1.0 + 1e-12, 0.0]))
        assert a == b
        assert cache.distinct_count == 1

    def test_zero_tolerance_keeps_nearby_points_apart(self):
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0, 0.0]))
        cache.evaluate(np.array([1.0 + 1e-12, 0.0]))
        assert cache.distinct_count == 2

    def test_first_value_wins_inside_tolerance(self):
        values = iter([10.0, 20.0])
        cache = EvaluationCache(lambda x: next(values), tol=1e-6)
        assert cache.evaluate(np.array([0.0])) == 10.0
        assert cache.evaluate(np.array([1e-9])) == 10.0

    def test_callable_protocol(self):
        cache = EvaluationCache(sphere)
        assert cache(np.array([2.0])) == 4.0


class TestPerCallTolerance:
    def test_tolerance_merges_only_its_own_request(self):
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0]))
        cache.evaluate(np.array([1.0 + 1e-9]), tol=1e-6)
        assert cache.distinct_count == 1
        cache.evaluate(np.array([1.0 - 2e-9]))
        assert cache.distinct_count == 2
        assert cache.tol == 0.0


class TestNestedEstimateCounts:
    def test_generic_sets_cost_nine_points_in_two_dims(self):
        rng = np.random.default_rng(0)
        from nshess import DirectionSet

        s = DirectionSet(rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
        t = DirectionSet(rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
        cache = EvaluationCache(sphere)
        nested_set_hessian(np.zeros(2), s, t, cache)
        assert cache.distinct_count == 9

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_folded_sets_cost_minimal_points(self, n):
        for k in range(0, n + 1):
            s, t = canonical_set(n, k, 0.1)
            cache = EvaluationCache(sphere)
            nested_set_hessian(np.zeros(n), s, t, cache)
            assert cache.distinct_count == (n + 1) * (n + 2) // 2

    def test_folding_needs_the_tolerance_scan(self):
        # At a large base point, coincident grid points assembled through
        # different sums differ in the last bits; exact matching alone would
        # overcount.
        x0 = np.array([1e5, -1e5, 3e4])
        s, t = canonical_set(3, 2, 1e-3)
        cache = EvaluationCache(sphere, tol=dedup_tolerance(x0, s, t))
        nested_set_hessian(x0, s, t, cache)
        assert cache.distinct_count == 10


class TestFailures:
    def test_oracle_exception_is_wrapped(self):
        def broken(x):
            raise RuntimeError("backend offline")

        cache = EvaluationCache(broken)
        with pytest.raises(EvaluationError, match="backend offline"):
            cache.evaluate(np.zeros(2))

    def test_non_finite_value_rejected(self):
        cache = EvaluationCache(lambda x: float("nan"))
        with pytest.raises(EvaluationError, match="non-finite"):
            cache.evaluate(np.zeros(1))

    def test_error_carries_the_point(self):
        cache = EvaluationCache(lambda x: float("inf"))
        with pytest.raises(EvaluationError) as exc:
            cache.evaluate(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(exc.value.point, [1.0, 2.0])

    def test_failed_point_not_cached(self):
        attempts = []

        def flaky(x):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first call fails")
            return 7.0

        cache = EvaluationCache(flaky)
        with pytest.raises(EvaluationError):
            cache.evaluate(np.zeros(1))
        assert cache.evaluate(np.zeros(1)) == 7.0

    def test_rejects_non_finite_points(self):
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError):
            cache.evaluate(np.array([np.nan]))

    def test_rejects_matrix_input(self):
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError):
            cache.evaluate(np.eye(2))

    def test_rejects_non_callable_oracle(self):
        with pytest.raises(TypeError):
            EvaluationCache(42)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            EvaluationCache(sphere, tol=-1.0)

    def test_rejects_nan_tolerance(self):
        # A NaN tolerance used to pass the sign check and silently turn off
        # folding: this estimate used 12 distinct points instead of 10.
        s_set, t_set = canonical_set(3, 1, 1e-2)
        with pytest.raises(ValueError, match="nonnegative"):
            nested_set_hessian(np.zeros(3), s_set, t_set, EvaluationCache(sphere, tol=float("nan")))
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError, match="nonnegative"):
            cache.evaluate(np.array([1.0]), tol=float("nan"))
        with pytest.raises(ValueError, match="nonnegative"):
            cache.evaluate_many(np.array([[1.0]]), tol=np.nan)
        assert cache.total_requests == 0

    def test_infinite_tolerance_is_accepted(self):
        cache = EvaluationCache(sphere, tol=np.inf)
        assert cache.evaluate(np.array([1.0])) == cache.evaluate(np.array([5.0])) == 1.0
        assert cache.distinct_count == 1

    def test_rejects_negative_per_call_tolerance(self):
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError):
            cache.evaluate(np.array([1.0]), tol=-1.0)
        with pytest.raises(ValueError):
            cache.evaluate_many(np.array([[1.0]]), tol=-1.0)
        assert cache.total_requests == 0


class TestTrace:
    def test_records_hits_and_misses_in_order(self):
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0]))
        cache.evaluate(np.array([1.0]))
        cache.evaluate(np.array([2.0]))
        statuses = [status for _, _, status in cache.trace_rows()]
        assert statuses == ["miss", "hit", "miss"]

    def test_csv_output(self):
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0, 2.0]))
        cache.evaluate(np.array([1.0, 2.0]))
        buf = io.StringIO()
        cache.write_trace_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x1,x2,value,status"
        assert lines[1] == "1.0,2.0,5.0,miss"
        assert lines[2] == "1.0,2.0,5.0,hit"

    def test_empty_trace_csv(self):
        buf = io.StringIO()
        EvaluationCache(sphere).write_trace_csv(buf)
        assert buf.getvalue() == "value,status\n"


class TestThreadSafety:
    def test_concurrent_requests_share_one_oracle_call(self):
        calls = []
        lock = threading.Lock()

        def slow(x):
            with lock:
                calls.append(1)
            return sphere(x)

        cache = EvaluationCache(slow)
        threads = [
            threading.Thread(target=cache.evaluate, args=(np.array([1.0, 1.0]),))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert cache.total_requests == 8
