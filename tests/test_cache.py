import io
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nshess import EvaluationCache, canonical_set, dedup_tolerance, nested_set_hessian, nshc_points
from nshess.cache import PointIndex, _weights
from nshess.exceptions import EvaluationError


def sphere(x):
    return float(np.sum(x**2))


def counter():
    """An oracle whose values number its calls, so a value names its point."""
    calls = itertools.count(1)
    return lambda x: float(next(calls))


REFUSAL = "a cache's oracle may not make a request of the same cache"


def state(cache):
    """Counts and trace, with each traced point as bytes."""
    trace = [(point.tobytes(), value, status) for point, value, status in cache.trace_rows()]
    return cache.total_requests, cache.distinct_count, trace


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
        cache = EvaluationCache(sphere)
        a = cache.evaluate(np.array([1.0, 0.0]), tol=1e-9)
        b = cache.evaluate(np.array([1.0 + 1e-12, 0.0]), tol=1e-9)
        assert a == b
        assert cache.distinct_count == 1

    def test_zero_tolerance_keeps_nearby_points_apart(self):
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0, 0.0]))
        cache.evaluate(np.array([1.0 + 1e-12, 0.0]))
        assert cache.distinct_count == 2

    def test_first_value_wins_inside_tolerance(self):
        values = iter([10.0, 20.0])
        cache = EvaluationCache(lambda x: next(values))
        assert cache.evaluate(np.array([0.0]), tol=1e-6) == 10.0
        assert cache.evaluate(np.array([1e-9]), tol=1e-6) == 10.0

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
        cache = EvaluationCache(sphere)
        nested_set_hessian(x0, s, t, cache)
        assert cache.distinct_count == 10
        assert nshc_points(x0, s, t).dedup_tol == dedup_tolerance(x0, s, t)


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

    def test_rejects_empty_point_before_any_state_changes(self):
        # A zero-length point used to reach the oracle and then leave an
        # orphan index entry, so a repeat raised inside the lookup.
        calls = []
        cache = EvaluationCache(lambda x: calls.append(x) or 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="nonempty"):
                cache.evaluate(np.array([]))
        assert calls == []
        assert state(cache) == (0, 0, [])
        assert cache.evaluate(np.array([1.0])) == 1.0
        assert state(cache)[:2] == (1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_changes_no_state(self, bad):
        cache = EvaluationCache(counter())
        with pytest.raises(ValueError, match="non-finite"):
            cache.evaluate(np.array([1.0, bad]))
        assert state(cache) == (0, 0, [])
        cache.evaluate(np.array([1.0, 2.0]))
        cache.evaluate(np.array([1.0, 2.0]))
        before = state(cache)
        with pytest.raises(ValueError, match="non-finite"):
            cache.evaluate(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            cache.evaluate(np.array([bad, bad]), tol=1.0)
        assert state(cache) == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_infinities_raise_without_a_warning(self):
        # Their projection is inf - inf: numpy warned "invalid value
        # encountered in dot" before the ValueError, or raised that warning
        # under -W error.
        cache = EvaluationCache(counter())
        for stored in (False, True):
            for point in ([np.inf, -np.inf], [-np.inf, np.inf], [np.inf, np.nan]):
                with pytest.raises(ValueError, match="non-finite"):
                    cache.evaluate(np.array(point))
                with pytest.raises(ValueError, match="non-finite"):
                    cache.evaluate_many(np.array([point]))
            if not stored:
                assert cache.evaluate(np.array([1.0, 2.0])) == 1.0
        assert state(cache)[:2] == (1, 1)

    def test_infinite_coordinate_raises_under_infinite_tolerance(self):
        # Under tol = inf every finite point matches the first stored row;
        # a point with an infinite coordinate must still be refused.
        cache = EvaluationCache(counter())
        assert cache.evaluate(np.array([1.0, 2.0]), tol=np.inf) == 1.0
        assert cache.evaluate(np.array([-5.0, 9.0]), tol=np.inf) == 1.0
        before = state(cache)
        for point in ([np.inf, 2.0], [1.0, -np.inf], [np.nan, 2.0]):
            with pytest.raises(ValueError, match="non-finite"):
                cache.evaluate(np.array(point), tol=np.inf)
            with pytest.raises(ValueError, match="non-finite"):
                cache.evaluate_many(np.array([point]), tol=np.inf)
        assert state(cache) == before

    def test_rejects_matrix_input(self):
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError):
            cache.evaluate(np.eye(2))

    def test_rejects_non_callable_oracle(self):
        with pytest.raises(TypeError):
            EvaluationCache(42)

    def test_constructor_takes_no_tolerance(self):
        # The tolerance is the request's; an estimate reads at its geometry's.
        for args, kwargs in (((sphere, 1e-9), {}), ((sphere,), {"tol": 1e-9})):
            with pytest.raises(TypeError):
                EvaluationCache(*args, **kwargs)

    def test_rejects_nan_tolerance(self):
        # A NaN tolerance used to pass the sign check and silently turn off
        # folding.
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError, match="nonnegative"):
            cache.evaluate(np.array([1.0]), tol=float("nan"))
        with pytest.raises(ValueError, match="nonnegative"):
            cache.evaluate_many(np.array([[1.0]]), tol=np.nan)
        assert cache.total_requests == 0

    def test_infinite_tolerance_is_accepted(self):
        cache = EvaluationCache(sphere)
        one, five = np.array([1.0]), np.array([5.0])
        assert cache.evaluate(one, tol=np.inf) == cache.evaluate(five, tol=np.inf) == 1.0
        assert cache.distinct_count == 1

    def test_rejects_negative_per_call_tolerance(self):
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError):
            cache.evaluate(np.array([1.0]), tol=-1.0)
        with pytest.raises(ValueError):
            cache.evaluate_many(np.array([[1.0]]), tol=-1.0)
        assert cache.total_requests == 0


class TestEvaluateMany:
    def test_empty_block_still_validates(self):
        cache = EvaluationCache(sphere)
        for tol in (np.nan, -1.0):
            with pytest.raises(ValueError, match="nonnegative"):
                cache.evaluate_many(np.empty((0, 2)), tol=tol)
        with pytest.raises(ValueError, match="2-D"):
            cache.evaluate_many(np.empty((0,)))
        with pytest.raises(ValueError, match="nonempty"):
            cache.evaluate_many(np.empty((0, 0)))
        assert cache.evaluate_many(np.empty((0, 2))).shape == (0,)
        assert state(cache) == (0, 0, [])

    def test_bad_row_leaves_the_state_of_row_by_row_calls(self):
        block = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, np.nan], [5.0, 6.0]])
        many = EvaluationCache(counter())
        with pytest.raises(ValueError, match="non-finite"):
            many.evaluate_many(block)
        single = EvaluationCache(counter())
        with pytest.raises(ValueError, match="non-finite"):
            for x in block:
                single.evaluate(x)
        assert state(many) == state(single)
        assert state(many)[:2] == (2, 1)
        assert [status for _, _, status in state(many)[2]] == ["miss", "hit"]

    def test_oracle_failure_mid_block_keeps_earlier_rows(self):
        def oracle(x):
            if x[0] > 2.0:
                raise RuntimeError("out of range")
            return sphere(x)

        block = np.array([[1.0], [2.0], [3.0], [0.5]])
        many = EvaluationCache(oracle)
        with pytest.raises(EvaluationError, match="out of range"):
            many.evaluate_many(block)
        single = EvaluationCache(oracle)
        with pytest.raises(EvaluationError, match="out of range"):
            for x in block:
                single.evaluate(x)
        assert state(many) == state(single)
        assert many.distinct_count == 2
        for cache in (many, single):
            assert cache.total_requests == len(cache.trace_rows()) == 2
        assert many.evaluate_many(np.array([[2.0], [1.0]])).tolist() == [4.0, 1.0]
        assert many.distinct_count == 2
        assert many.total_requests == len(many.trace_rows()) == 4

    def test_one_evaluate_call_per_row(self, monkeypatch):
        # The benchmark's tracer counts requests by wrapping this attribute.
        calls = []
        original = EvaluationCache.evaluate

        def counting(self, x, tol=0.0):
            calls.append(tol)
            return original(self, x, tol)

        monkeypatch.setattr(EvaluationCache, "evaluate", counting)
        cache = EvaluationCache(sphere)
        block = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [1.0, 2.0 + 1e-12]])
        values = cache.evaluate_many(block, tol=1e-9)
        assert values.tolist() == [5.0, 5.0, 25.0, 5.0]
        assert calls == [1e-9] * 4
        assert cache.total_requests == 4


class TestBlockEquivalence:
    """A block leaves exactly the state of its rows requested one by one."""

    @staticmethod
    def oracle(plan, cell):
        """Numbers its calls, fails on call ``plan["fail"]``, and on call
        ``plan["reenter"]`` first asks its own cache ``cell[0]`` for a block,
        which refuses; it swallows the refusal, so the block runs on."""
        calls = itertools.count(1)

        def f(x):
            c = next(calls)
            if c == plan["fail"]:
                raise RuntimeError("planned failure")
            if c == plan["reenter"]:
                inner, tol, many = plan["inner"]
                with pytest.raises(RuntimeError, match=REFUSAL):
                    if many:
                        cell[0].evaluate_many(inner, tol)
                    else:
                        cell[0].evaluate(inner[0], tol)
            return float(c)

        return f

    @staticmethod
    def rows(data, rng, centers, p):
        rows = centers[rng.integers(len(centers), size=p)]
        rows = rows + rng.choice([0.0, 1e-13, 1e-9, 1e-3], size=rows.shape) * rng.choice(
            [-1.0, 1.0], size=rows.shape
        )
        rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -0.0
        if p and data.draw(st.booleans()) and rng.random() < 0.2:
            rows[rng.integers(p), rng.integers(rows.shape[1])] = rng.choice([np.nan, np.inf])
        return rows

    @staticmethod
    def stored(cache):
        return None if cache._index is None else cache._index.points.tobytes()

    @given(data=st.data())
    def test_same_values_state_and_later_answers(self, data):
        dim = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centers = rng.integers(-3, 4, size=(5, dim)) * 0.5
        tols = st.sampled_from([0.0, 1e-12, 1e-9, 2e-3, 1.0, np.inf])
        blocks = [
            (self.rows(data, rng, centers, data.draw(st.integers(0, 10))), data.draw(tols))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        plan = {
            "fail": data.draw(st.integers(0, 25)),
            "reenter": data.draw(st.integers(0, 25)),
            "inner": (self.rows(data, rng, centers, 3), data.draw(tols), data.draw(st.booleans())),
        }
        many_cell, single_cell = [], []
        many = EvaluationCache(self.oracle(plan, many_cell))
        single = EvaluationCache(self.oracle(plan, single_cell))
        many_cell.append(many)
        single_cell.append(single)
        errors = (ValueError, EvaluationError)
        for rows, tol in blocks:
            try:
                got = many.evaluate_many(rows, tol).tolist()
            except errors as exc:
                got = type(exc)
            want = []
            try:
                for x in rows:
                    want.append(single.evaluate(x, tol))
            except errors as exc:
                want = type(exc)
            assert got == want
            assert state(many) == state(single)
            assert self.stored(many) == self.stored(single)
        for x in np.vstack([centers, centers + 1e-9]):
            for tol in (0.0, 1e-6):
                answers = []
                for cache in (many, single):
                    try:
                        answers.append(cache.evaluate(x, tol))
                    except errors as exc:
                        answers.append(type(exc))
                assert answers[0] == answers[1]
        assert state(many) == state(single)
        assert self.stored(many) == self.stored(single)

    def test_failed_first_block_fixes_no_dimension(self, monkeypatch):
        reserved = []
        original = PointIndex.reserve

        def recording(self, block, keys, tol):
            reserved.append(original(self, block, keys, tol))
            return reserved[-1]

        monkeypatch.setattr(PointIndex, "reserve", recording)
        calls = []

        def oracle(x):
            calls.append(x)
            if len(calls) == 1:
                raise RuntimeError("not yet")
            return sphere(x)

        cache = EvaluationCache(oracle)
        with pytest.raises(EvaluationError, match="not yet"):
            cache.evaluate_many(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert reserved == [True]
        assert state(cache) == (0, 0, [])
        assert cache.evaluate(np.array([1.0, 2.0, 3.0])) == 14.0
        assert cache.evaluate_many(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])).tolist() == [
            14.0,
            1.0,
        ]
        assert state(cache)[:2] == (3, 2)


class TestRefusedReentry:
    """An oracle may not make a request of its own cache.

    The request raises ``RuntimeError`` before any state changes, and the
    oracle's own request then fails as any oracle exception does.
    """

    @staticmethod
    def reentrant(inner, on_call, swallow=False):
        """A cache whose oracle numbers its calls and, on call ``on_call``,
        first asks the cache for ``inner``: a point, or a block when 2-D."""
        cell = []
        calls = itertools.count(1)

        def oracle(x):
            c = next(calls)
            if c == on_call:
                ask = cell[0].evaluate_many if np.ndim(inner) == 2 else cell[0].evaluate
                try:
                    ask(inner)
                except RuntimeError:
                    if not swallow:
                        raise
            return float(c)

        cell.append(EvaluationCache(oracle))
        return cell[0]

    @pytest.mark.parametrize("inner", [[5.0], [[5.0]], [5.0, 6.0], [[5.0, 6.0]]])
    def test_reentrant_request_on_an_empty_cache_is_refused(self, inner):
        # An inner request in R^2 used to be stored beside its outer one in
        # R^1: the cache held two dimensions, and its points could not be
        # read. Now no dimension is fixed, so either may come first.
        cache = self.reentrant(np.array(inner), 1)
        with pytest.raises(EvaluationError, match=f"RuntimeError: {REFUSAL}"):
            cache.evaluate(np.array([1.0]))
        assert state(cache) == (0, 0, []) and cache._index is None
        point = np.ravel(inner)
        assert cache.evaluate(point) == 2.0
        assert cache._index.points.tobytes() == point.tobytes()

    @pytest.mark.parametrize("inner", [[5.0, 6.0], [[5.0, 6.0]]])
    def test_a_swallowed_refusal_stores_the_outer_point(self, inner):
        # The outer request then fixes the dimension, as it would alone.
        cache = self.reentrant(np.array(inner), 1, swallow=True)
        assert cache.evaluate(np.array([1.0])) == 1.0
        assert state(cache) == (1, 1, [(np.array([1.0]).tobytes(), 1.0, "miss")])
        assert cache._index.points.tolist() == [[1.0]]
        with pytest.raises(ValueError, match="R\\^1"):
            cache.evaluate(np.array([5.0, 6.0]))

    @pytest.mark.parametrize("inner", [[2.0], [[2.0], [4.0]]])
    def test_reentrant_oracle_mid_block_leaves_the_rows_before_its_own(self, inner):
        # The oracle of row 1 asks for row 2 first (or for a block), and is
        # refused: the block fails at row 1, with the state of row-by-row
        # calls up to the refused row.
        block = np.array([[0.0], [1.0], [2.0], [3.0]])
        many, single = (self.reentrant(np.array(inner), 2) for _ in range(2))
        with pytest.raises(EvaluationError, match=REFUSAL):
            many.evaluate_many(block)
        want = [single.evaluate(block[0])]
        with pytest.raises(EvaluationError, match=REFUSAL):
            single.evaluate(block[1])
        assert want == [1.0]
        assert state(many) == state(single) == (1, 1, [(block[0].tobytes(), 1.0, "miss")])
        assert many._index.points.ravel().tolist() == [0.0]
        assert many.evaluate_many(block).tolist() == [1.0, 3.0, 4.0, 5.0]
        assert [single.evaluate(x) for x in block] == [1.0, 3.0, 4.0, 5.0]
        assert state(many) == state(single)
        assert many._index.points.tobytes() == single._index.points.tobytes()


class TestHugeCoordinates:
    """Finite points whose ``x . x`` overflows, though their projection does not."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stored_without_a_warning(self):
        # Above about 1.3e154 the squared norm overflows. The bound on the
        # stored norms used it, so the request warned after the oracle ran,
        # and under warnings-as-errors it raised and stored nothing.
        cache = EvaluationCache(counter())
        big = np.full(3, 1e200)
        assert cache.evaluate(big) == 1.0
        assert cache.distinct_count == cache.total_requests == 1
        near = big.copy()
        near[0] = np.nextafter(1e200, 0.0)
        assert cache.evaluate(near, tol=1e190) == 1.0
        above = big.copy()
        above[1] = np.nextafter(1e200, np.inf)
        assert cache.evaluate(above) == 2.0
        assert cache.evaluate(-big) == 3.0
        assert cache.evaluate(big.copy()) == 1.0
        assert state(cache)[:2] == (5, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingProjection:
    """Finite points whose projection ``x . w`` overflows still resolve,
    and no request of them warns."""

    def test_matches_and_misses_near_the_largest_double(self):
        a = np.full(3, 1e308)
        w = _weights(3)[0]
        with np.errstate(over="ignore"):
            assert not np.isfinite(a @ w)
        near = a.copy()
        near[0] = np.nextafter(near[0], 0.0)  # one ulp, about 2e292, below
        far = np.array([1e308, 1e308, 9e307])
        cache = EvaluationCache(counter())
        assert cache.evaluate(a) == 1.0
        assert cache.evaluate(near, tol=1e300) == 1.0
        assert cache.evaluate(near.copy(), tol=0.0) == 1.0  # exact repeat
        assert cache.evaluate(np.array([1e308, 1e308, np.nextafter(1e308, 2e308)])) == 2.0
        assert cache.evaluate(far, tol=1e300) == 3.0
        assert cache.evaluate(far + [0.0, 0.0, 1e299], tol=1e300) == 3.0
        # A finite projection is tested against the overflowed rows too.
        assert cache.evaluate(np.zeros(3), tol=np.inf) == 1.0
        assert cache.evaluate(np.ones(3)) == 4.0
        assert cache.evaluate(-a) == 5.0
        assert cache.evaluate(np.array([1e308, -1e308, 1e308])) == 6.0
        assert cache.distinct_count == 6

    def test_a_block_is_tested_against_the_overflowed_rows(self):
        # An overflowed row has no sorted projection, so no window of a
        # block can clear it: the block takes the lookup of each row.
        cache = EvaluationCache(counter())
        assert cache.evaluate(np.full(3, 1e308)) == 1.0
        assert cache.evaluate_many(np.zeros((1, 3)), tol=np.inf).tolist() == [1.0]
        assert cache.evaluate_many(np.ones((2, 3))).tolist() == [2.0, 2.0]
        assert state(cache)[:2] == (4, 2)

    def test_a_block_near_the_largest_double_takes_the_lookup_of_each_row(self):
        # Its projections could overflow, so the proof declines it before
        # projecting anything.
        block = np.array([[1e308, 1e308, 1e308], [1e308, -1e308, 0.0], [1e308, 1e308, 1e308]])
        assert not PointIndex.separated(block[:2], 0.0)
        cache = EvaluationCache(counter())
        assert cache.evaluate_many(block).tolist() == [1.0, 2.0, 1.0]
        assert cache.evaluate_many(np.zeros((1, 3))).tolist() == [3.0]
        assert state(cache)[:2] == (4, 3)

    def test_a_window_too_wide_for_its_ends_is_not_reserved(self, monkeypatch):
        reserved = []
        original = PointIndex.reserve

        def recording(self, block, keys, tol):
            reserved.append(original(self, block, keys, tol))
            return reserved[-1]

        monkeypatch.setattr(PointIndex, "reserve", recording)
        big = float(np.finfo(float).max)
        w1 = _weights(1)[1]
        cache = EvaluationCache(counter())
        assert cache.evaluate_many(np.zeros((1, 1))).tolist() == [1.0]
        # The row lies within tol of row 0, but its window ends overflow.
        x = np.array([[0.2 * big / w1]])
        assert cache.evaluate_many(x, tol=0.9 * big / w1).tolist() == [1.0]
        assert reserved == [True, False]
        assert state(cache)[:2] == (2, 1)


class TestStorageAndHitPath:
    """Stored rows are their byte keys; a bitwise repeat is answered from the memo."""

    def test_points_are_the_stored_rows_bitwise_read_only_and_detached(self):
        rows = np.array([[0.1, -0.0], [5e-324, 3.0], [-0.0, 0.1], [1e200, -1e-300]])
        want = rows.tobytes()
        index = PointIndex(2)
        for x in rows:
            key = x.tobytes()
            index.insert(x, key, index.lookup(x, key, 0.0)[1])
        rows[:] = 7.0
        points = index.points
        assert points.shape == (4, 2)
        assert points.tobytes() == want
        assert not points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            points[0, 0] = 1.0
        assert PointIndex(3).points.shape == (0, 3)

    def test_bitwise_repeat_makes_no_lookup(self, monkeypatch):
        lookups = []
        original = PointIndex.lookup

        def counting(self, x, key, tol):
            lookups.append(key)
            return original(self, x, key, tol)

        monkeypatch.setattr(PointIndex, "lookup", counting)
        cache = EvaluationCache(counter())
        a, near = np.array([1.0, 2.0]), np.array([1.0, 2.0 + 1e-12])
        assert cache.evaluate(a) == 1.0
        assert cache.evaluate(near, tol=1e-9) == 1.0
        assert len(lookups) == 2
        # Whatever their tolerance, repeats of a request or of a match.
        for x, tol in ((a.copy(), 0.0), (near.copy(), 0.0), (a, 1.0)):
            assert cache.evaluate(x, tol) == 1.0
        assert cache.evaluate_many(np.array([a, near])).tolist() == [1.0, 1.0]
        assert len(lookups) == 2
        assert [status for _, _, status in cache.trace_rows()] == ["miss"] + ["hit"] * 6

    def test_wrong_dimension_after_hits_raises_before_any_state_changes(self):
        calls = []
        cache = EvaluationCache(lambda x: calls.append(x) or float(len(calls)))
        for x in ([1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [1.0, 2.0]):
            cache.evaluate(np.array(x))
        before = state(cache)
        assert before[:2] == (4, 2)
        for bad in ([1.0], [1.0, 2.0, 3.0], [1.0, 2.0, 1.0, 2.0]):
            with pytest.raises(ValueError, match="R\\^2"):
                cache.evaluate(np.array(bad))
            with pytest.raises(ValueError, match="R\\^2"):
                cache.evaluate_many(np.array([bad]))
        assert state(cache) == before
        assert len(calls) == 2


class TestAgainstLinearScan:
    """Random request blocks give what a linear scan of stored points gives."""

    @staticmethod
    def reference(blocks, dim):
        stored, exact, trace = [], {}, []
        for block, tol in blocks:
            for x in block:
                if not np.isfinite(x).all():
                    return stored, trace
                key = x.tobytes()
                i = exact.get(key)
                if i is None:
                    near = [j for j, p in enumerate(stored) if np.abs(p - x).max() <= tol]
                    i = near[0] if near else -1
                if i >= 0:
                    trace.append((key, float(i + 1), "hit"))
                else:
                    i = len(stored)
                    stored.append(x.copy())
                    trace.append((key, float(i + 1), "miss"))
                exact[key] = i
        return stored, trace

    @given(data=st.data())
    def test_same_values_counts_and_trace(self, data):
        dim = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centers = rng.integers(-3, 4, size=(4, dim)) * 0.5
        blocks = []
        for _ in range(data.draw(st.integers(1, 4))):
            p = data.draw(st.integers(0, 12))
            rows = centers[rng.integers(len(centers), size=p)]
            rows = rows + rng.choice([0.0, 1e-13, 1e-9, 1e-3], size=rows.shape) * rng.choice(
                [-1.0, 1.0], size=rows.shape
            )
            if p and data.draw(st.booleans()) and rng.random() < 0.2:
                rows[rng.integers(p), rng.integers(dim)] = rng.choice([np.nan, np.inf])
            tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 2e-3, 1.0, np.inf]))
            blocks.append((rows, tol))
        cache = EvaluationCache(counter())
        values = []
        try:
            for rows, tol in blocks:
                values.extend(cache.evaluate_many(rows, tol=tol))
        except ValueError:
            pass
        stored, trace = self.reference(blocks, dim)
        assert state(cache) == (len(trace), len(stored), trace)
        # A block that raises returns nothing, but its earlier rows count.
        assert values == [value for _, value, _ in trace][: len(values)]


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

    def test_points_are_the_requests_bitwise_and_detached(self):
        cache = EvaluationCache(sphere)
        requests = [np.array([0.1, -0.0]), np.array([0.1 + 1e-9, 0.0]), np.array([5e-324, 3.0])]
        for x in requests:
            cache.evaluate(x, tol=1e-6)
        for x in requests:
            x[:] = 7.0
        cache.evaluate_many(np.array([[2.0, 1.0]]), tol=1e-6)
        points = [point for point, _, _ in cache.trace_rows()]
        want = [[0.1, -0.0], [0.1 + 1e-9, 0.0], [5e-324, 3.0], [2.0, 1.0]]
        assert [p.tobytes() for p in points] == [np.array(w).tobytes() for w in want]
        assert [status for _, _, status in cache.trace_rows()] == ["miss", "hit", "miss", "miss"]

    def test_csv_has_one_header_for_every_row(self):
        # A 3-D request after a 2-D one used to be answered and traced, so
        # the CSV's x1,x2 header stood over a row of three coordinates.
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="R\\^2"):
            cache.evaluate(np.array([1.0, 2.0, 3.0]))
        cache.evaluate(np.array([3.0, 4.0]))
        buf = io.StringIO()
        cache.write_trace_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines == ["x1,x2,value,status", "1.0,2.0,5.0,miss", "3.0,4.0,25.0,miss"]

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
