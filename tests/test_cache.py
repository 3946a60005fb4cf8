import io
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nshess import EvaluationCache, canonical_set, dedup_tolerance, nested_set_hessian, nshc_points
from nshess import sets
from nshess.sets import PointSet, _distinct, _weights
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

    def test_only_bitwise_equal_points_share_a_value(self):
        # The cache is an exact memo on x.tobytes(): points one rounding
        # apart, or differing only in the sign of a zero, are each evaluated.
        cache = EvaluationCache(counter())
        points = [[1.0, 0.0], [1.0 + 1e-12, 0.0], [1.0, -0.0], [1.0, 5e-324]]
        assert [cache.evaluate(np.array(x)) for x in points] == [1.0, 2.0, 3.0, 4.0]
        assert [cache.evaluate(np.array(x)) for x in points] == [1.0, 2.0, 3.0, 4.0]
        assert state(cache)[:2] == (8, 4)

    def test_callable_protocol(self):
        cache = EvaluationCache(sphere)
        assert cache(np.array([2.0])) == 4.0


class TestNoTolerance:
    @pytest.mark.parametrize("tol", [0.0, 1e-9, np.inf, np.nan, -1.0])
    def test_requests_take_no_tolerance(self, tol):
        # Coincidence within a tolerance is the grid record's decision; a
        # request that names one is refused before any state changes.
        cache = EvaluationCache(sphere)
        cache.evaluate(np.array([1.0]))
        before = state(cache)
        with pytest.raises(TypeError):
            cache.evaluate(np.array([1.0 + 1e-12]), tol=tol)
        with pytest.raises(TypeError):
            cache.evaluate(np.array([1.0 + 1e-12]), tol)
        with pytest.raises(TypeError):
            cache.evaluate_many(np.array([[1.0 + 1e-12]]), tol=tol)
        with pytest.raises(TypeError):
            cache.evaluate_many(np.array([[1.0 + 1e-12]]), tol)
        assert state(cache) == before


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
            cache.evaluate(np.array([bad, bad]))
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

    def test_rejects_matrix_input(self):
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError):
            cache.evaluate(np.eye(2))

    def test_rejects_non_callable_oracle(self):
        with pytest.raises(TypeError):
            EvaluationCache(42)

    def test_constructor_takes_no_tolerance(self):
        # The tolerance is the grid record's; the cache compares bytes.
        for args, kwargs in (((sphere, 1e-9), {}), ((sphere,), {"tol": 1e-9})):
            with pytest.raises(TypeError):
                EvaluationCache(*args, **kwargs)


class TestEvaluateMany:
    def test_empty_block_still_validates(self):
        cache = EvaluationCache(sphere)
        with pytest.raises(ValueError, match="2-D"):
            cache.evaluate_many(np.empty((0,)))
        with pytest.raises(ValueError, match="nonempty"):
            cache.evaluate_many(np.empty((0, 0)))
        assert cache.evaluate_many(np.empty((0, 2))).shape == (0,)
        assert state(cache) == (0, 0, [])

    def test_empty_block_in_another_dimension_changes_nothing(self):
        # An empty block fixes no dimension and meets none: it is accepted
        # on a cache of any dimension, which it leaves as it was.
        cache = EvaluationCache(counter())
        cache.evaluate(np.array([1.0, 2.0]))
        before = state(cache)
        for dim in (1, 2, 3):
            values = cache.evaluate_many(np.empty((0, dim)))
            assert values.shape == (0,) and values.dtype == float
            assert state(cache) == before
        with pytest.raises(ValueError, match="R\\^2"):
            cache.evaluate(np.array([1.0, 2.0, 3.0]))
        assert cache.evaluate(np.array([1.0, 2.0])) == 1.0

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

        def counting(self, x):
            calls.append(x.tobytes())
            return original(self, x)

        monkeypatch.setattr(EvaluationCache, "evaluate", counting)
        cache = EvaluationCache(sphere)
        block = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [1.0, 2.0 + 1e-12]])
        values = cache.evaluate_many(block)
        assert values.tolist() == [5.0, 5.0, 25.0, sphere(block[3])]
        assert calls == [x.tobytes() for x in block]
        assert state(cache)[:2] == (4, 3)


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
                inner, many = plan["inner"]
                with pytest.raises(RuntimeError, match=REFUSAL):
                    if many:
                        cell[0].evaluate_many(inner)
                    else:
                        cell[0].evaluate(inner[0])
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

    @given(data=st.data())
    def test_same_values_state_and_later_answers(self, data):
        dim = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centers = rng.integers(-3, 4, size=(5, dim)) * 0.5
        blocks = [
            self.rows(data, rng, centers, data.draw(st.integers(0, 10)))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        plan = {
            "fail": data.draw(st.integers(0, 25)),
            "reenter": data.draw(st.integers(0, 25)),
            "inner": (self.rows(data, rng, centers, 3), data.draw(st.booleans())),
        }
        many_cell, single_cell = [], []
        many = EvaluationCache(self.oracle(plan, many_cell))
        single = EvaluationCache(self.oracle(plan, single_cell))
        many_cell.append(many)
        single_cell.append(single)
        errors = (ValueError, EvaluationError)
        for rows in blocks:
            try:
                got = many.evaluate_many(rows).tolist()
            except errors as exc:
                got = type(exc)
            want = []
            try:
                for x in rows:
                    want.append(single.evaluate(x))
            except errors as exc:
                want = type(exc)
            assert got == want
            assert state(many) == state(single)
        for x in np.vstack([centers, centers + 1e-9]):
            answers = []
            for cache in (many, single):
                try:
                    answers.append(cache.evaluate(x))
                except errors as exc:
                    answers.append(type(exc))
            assert answers[0] == answers[1]
        assert state(many) == state(single)

    def test_failed_first_block_fixes_no_dimension(self):
        calls = []

        def oracle(x):
            calls.append(x)
            if len(calls) == 1:
                raise RuntimeError("not yet")
            return sphere(x)

        cache = EvaluationCache(oracle)
        with pytest.raises(EvaluationError, match="not yet"):
            cache.evaluate_many(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert state(cache) == (0, 0, [])
        assert cache.evaluate(np.array([1.0, 2.0, 3.0])) == 14.0
        assert cache.evaluate_many(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])).tolist() == [
            14.0,
            1.0,
        ]
        assert state(cache)[:2] == (3, 2)
        # The failed block's rows left nothing behind: in R^2 they are refused.
        with pytest.raises(ValueError, match="R\\^3"):
            cache.evaluate(np.array([3.0, 4.0]))


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
        assert state(cache) == (0, 0, [])
        point = np.ravel(inner)
        assert cache.evaluate(point) == 2.0
        assert state(cache) == (1, 1, [(point.tobytes(), 2.0, "miss")])

    @pytest.mark.parametrize("inner", [[5.0, 6.0], [[5.0, 6.0]]])
    def test_a_swallowed_refusal_stores_the_outer_point(self, inner):
        # The outer request then fixes the dimension, as it would alone.
        cache = self.reentrant(np.array(inner), 1, swallow=True)
        assert cache.evaluate(np.array([1.0])) == 1.0
        assert state(cache) == (1, 1, [(np.array([1.0]).tobytes(), 1.0, "miss")])
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
        assert many.evaluate_many(block).tolist() == [1.0, 3.0, 4.0, 5.0]
        assert [single.evaluate(x) for x in block] == [1.0, 3.0, 4.0, 5.0]
        assert state(many) == state(single)


class TestHugeCoordinates:
    """Finite points whose ``x . x`` overflows."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stored_without_a_warning(self):
        # Above about 1.3e154 the squared norm overflows. A bound on the
        # stored norms once used it, so the request warned after the oracle
        # ran, and under warnings-as-errors it raised and stored nothing.
        cache = EvaluationCache(counter())
        big = np.full(3, 1e200)
        assert cache.evaluate(big) == 1.0
        assert cache.distinct_count == cache.total_requests == 1
        near = big.copy()
        near[0] = np.nextafter(1e200, 0.0)
        assert cache.evaluate(near) == 2.0
        assert cache.evaluate(-big) == 3.0
        assert cache.evaluate_many(np.array([big, near, np.full(3, 1e308)])).tolist() == [
            1.0,
            2.0,
            4.0,
        ]
        assert cache.evaluate(big.copy()) == 1.0
        assert state(cache)[:2] == (7, 4)


def scan_find(points, x, tol):
    """First row within ``tol`` of ``x`` in max-norm, or -1, by a full scan;
    a distance that overflows is a miss, with no warning."""
    with np.errstate(over="ignore"):
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingProjection:
    """Finite points whose projection ``x . w`` overflows still merge as a
    full scan merges them, and neither the pass nor a query warns."""

    def test_matches_and_misses_near_the_largest_double(self):
        a = np.full(3, 1e308)
        w = _weights(3)[0]
        with np.errstate(over="ignore"):
            assert not np.isfinite(a @ w)
        near = a.copy()
        near[0] = np.nextafter(near[0], 0.0)  # one ulp, about 2e292, below
        up = np.array([1e308, 1e308, np.nextafter(1e308, 2e308)])
        far = np.array([1e308, 1e308, 9e307])
        cloud = np.array(
            [a, near, near.copy(), up, far, far + [0.0, 0.0, 1e299],
             np.zeros(3), np.ones(3), -a, [1e308, -1e308, 1e308]]
        )
        want = {
            0.0: [0, 1, 1, 2, 3, 4, 5, 6, 7, 8],
            1e300: [0, 0, 0, 0, 1, 1, 2, 2, 3, 4],
            # A finite row is tested against the overflowed rows too.
            np.inf: [0] * 10,
        }
        for tol, labels in want.items():
            want_labels, want_kept = scan_classes(cloud, tol)
            assert want_labels == labels
            kept, classes = _distinct(cloud, tol)
            assert classes.tolist() == labels
            assert cloud[kept].tobytes() == want_kept.tobytes()
            points = PointSet(want_kept, tol)
            for q in cloud:
                assert points.index_of(q) == scan_find(want_kept, q, tol)

    def test_distinct_tests_every_row_against_the_overflowed_rows(self):
        # At an infinite tolerance the reach is inf, so every kept row, this
        # one too, is in each later row's window.
        top = np.full(3, 1e308)
        kept, classes = _distinct(np.array([top, np.zeros(3)]), np.inf)
        assert kept.tolist() == [0] and classes.tolist() == [0, 0]
        kept, classes = _distinct(np.array([top, np.ones(3), np.ones(3)]), 0.0)
        assert kept.tolist() == [0, 1] and classes.tolist() == [0, 1, 1]

    def test_rows_near_the_largest_double_are_compared_in_their_windows(self, monkeypatch):
        # Scaled by a power of two, their projections are finite, so each
        # row meets only the kept rows in its window: the repeat meets the
        # one row it repeats, and the second row meets none.
        compared = []
        real = sets._near
        monkeypatch.setattr(
            sets, "_near", lambda rows, *a: compared.append(len(rows)) or real(rows, *a)
        )
        block = np.array([[1e308, 1e308, 1e308], [1e308, -1e308, 0.0], [1e308, 1e308, 1e308]])
        kept, classes = _distinct(block, 0.0)
        assert kept.tolist() == [0, 1] and classes.tolist() == [0, 1, 0]
        assert compared == [1]
        with pytest.raises(ValueError, match="points 0 and 2 coincide"):
            PointSet(block)

    def test_a_window_too_wide_for_its_ends_still_matches(self):
        # The row lies within tol of row 0, though its window ends overflow.
        big = float(np.finfo(float).max)
        w1 = _weights(1)[1]
        rows = np.array([[0.0], [0.2 * big / w1]])
        kept, classes = _distinct(rows, 0.9 * big / w1)
        assert kept.tolist() == [0] and classes.tolist() == [0, 0]


# Rows of about 1e-310 to 1.7e308, with bitwise repeats and one-ulp
# neighbours, at tolerances from 0 to inf, and at one ulp of the largest
# entry, where the rounding allowance of the projections decides.
_MAGNITUDES = st.sampled_from([1e-310, 1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300, 1.7e308])
_TOLERANCES = st.sampled_from([0.0, 1e-320, 2.0**-20, 1e300, np.inf, "ulp"])


@st.composite
def _clouds(draw):
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        scale = np.array([draw(_MAGNITUDES) for _ in range(p)])[:, None]
    else:  # one magnitude, so more rows share the binade of the largest entry
        scale = draw(_MAGNITUDES)
    cloud = np.clip(rng.uniform(-1.0, 1.0, (p, n)) * scale, -1.7e308, 1.7e308)
    for b in range(1, p):
        kind = draw(st.sampled_from(["own", "repeat", "ulp"]))
        if kind != "own":
            cloud[b] = cloud[draw(st.integers(0, b - 1))]
        if kind == "ulp":
            cloud[b] = np.nextafter(cloud[b], rng.choice([-np.inf, np.inf], n))
    return cloud


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=200, deadline=None)
@given(cloud=_clouds(), tol=_TOLERANCES, bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
def test_distinct_is_the_full_scan_at_every_magnitude(cloud, tol, bad):
    if tol == "ulp":
        tol = float(np.spacing(np.abs(cloud).max()))
    if bad is not None:
        cloud[len(cloud) // 2, 0] = bad
        with pytest.raises(ValueError, match="point contains non-finite entries"):
            _distinct(cloud, tol)
        return
    want_labels, want_kept = scan_classes(cloud, tol)
    kept, classes = _distinct(cloud, tol)
    assert classes.tolist() == want_labels
    assert cloud[kept].tobytes() == want_kept.tobytes()
    merged = [b for b, a in enumerate(want_labels) if a != b]
    if merged:
        b = merged[0]
        with pytest.raises(ValueError, match=f"points {want_labels[b]} and {b} coincide"):
            PointSet(cloud, tol)
    else:
        assert PointSet(cloud, tol).points.tobytes() == cloud.tobytes()


class TestStorageAndHitPath:
    """A bitwise repeat is answered from the memo; no request compares points."""

    def test_a_request_makes_no_tolerance_lookup(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cache compared points within a tolerance")

        monkeypatch.setattr(sets, "_near", refuse)
        monkeypatch.setattr(sets, "_distinct", refuse)
        cache = EvaluationCache(counter())
        a, near = np.array([1.0, 2.0]), np.array([1.0, 2.0 + 1e-12])
        assert cache.evaluate(a) == 1.0
        assert cache.evaluate(near) == 2.0
        for x in (a.copy(), near.copy(), a):
            assert cache.evaluate(x) in (1.0, 2.0)
        assert cache.evaluate_many(np.array([a, near, a + 1.0])).tolist() == [1.0, 2.0, 3.0]
        assert [status for _, _, status in cache.trace_rows()] == (
            ["miss"] * 2 + ["hit"] * 5 + ["miss"]
        )

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


class TestAgainstExactMemo:
    """Random request blocks give what a dict of byte keys gives."""

    @staticmethod
    def reference(blocks):
        exact, trace = {}, []
        for block in blocks:
            for x in block:
                if not np.isfinite(x).all():
                    return exact, trace
                key = x.tobytes()
                status = "hit" if key in exact else "miss"
                value = exact.setdefault(key, float(len(exact) + 1))
                trace.append((key, value, status))
        return exact, trace

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
            blocks.append(rows)
        cache = EvaluationCache(counter())
        values = []
        try:
            for rows in blocks:
                values.extend(cache.evaluate_many(rows))
        except ValueError:
            pass
        stored, trace = self.reference(blocks)
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
        requests = [np.array([0.1, -0.0]), np.array([0.1, 0.0]), np.array([5e-324, 3.0])]
        for x in requests:
            cache.evaluate(x)
        for x in requests:
            x[:] = 7.0
        cache.evaluate_many(np.array([[2.0, 1.0], [0.1, -0.0]]))
        points = [point for point, _, _ in cache.trace_rows()]
        want = [[0.1, -0.0], [0.1, 0.0], [5e-324, 3.0], [2.0, 1.0], [0.1, -0.0]]
        assert [p.tobytes() for p in points] == [np.array(w).tobytes() for w in want]
        assert all(not p.flags.writeable for p in points)
        statuses = [status for _, _, status in cache.trace_rows()]
        assert statuses == ["miss", "miss", "miss", "miss", "hit"]

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
