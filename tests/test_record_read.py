"""A grid record's read is ``evaluate_many`` of its distinct points.

The record decides every coincidence of its grid when it is built: its
points are pairwise apart at its tolerance, and a read asks the cache for
each of them once, spreading the values over the cells. The values, the
counts, the trace and every failure are those of ``evaluate_many`` on the
record's points, and of the same points requested one by one.
"""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nshess import DirectionSet, EvaluationCache, EvaluationError, build_uk, canonical_set
from nshess import sets
from nshess.sets import _distinct, _grid, sample_grid

REFUSAL = "a cache's oracle may not make a request of the same cache"


def counter():
    """An oracle whose values number its calls, so a value names its point."""
    calls = itertools.count(1)
    return lambda x: float(next(calls))


def snapshot(cache):
    """Everything a cache shows: its counts and its trace, points as bytes."""
    trace = [(point.tobytes(), value, status) for point, value, status in cache.trace_rows()]
    return cache.total_requests, cache.distinct_count, trace


def _geometry(kind, n, seed, magnitude):
    """``(x0, S, T)`` of one kind, on fresh sets that hold no grid record."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, n) * magnitude
    scale = 10.0 ** rng.uniform(-3, 0)
    k = int(rng.integers(0, n + 1))
    if kind == "canonical":
        s_set, t_set = canonical_set(n, k, scale)
        # Copies, so the record is new.
        s_set = DirectionSet(s_set.matrix)
        t_set = build_uk(s_set, k)
    elif kind == "folded":
        s_set = DirectionSet(scale * rng.standard_normal((n, n)))
        t_set = build_uk(s_set, k)
    else:  # overdetermined: more columns than rows, no fold map
        s_set = DirectionSet(scale * rng.standard_normal((n, n + int(rng.integers(1, 3)))))
        t_set = DirectionSet(scale * rng.standard_normal((n, n + 1)))
    return x0, s_set, t_set


def _record(kind, n, seed, magnitude):
    """A fresh grid record of one geometry kind."""
    return _grid(*_geometry(kind, n, seed, magnitude))


def _bulk(record, cache):
    return cache.evaluate_many(record.points)[record.cls]


def _row_by_row(record, cache):
    return np.array([cache.evaluate(x) for x in record.points])[record.cls]


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["canonical", "overdetermined", "folded"]),
    n=st.sampled_from([1, 2, 3, 4, 5, 6, 20]),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([0.0, 1.0, 1e3, 1e20, 1e150]),
)
def test_a_read_is_evaluate_many_of_the_distinct_points(kind, n, seed, magnitude):
    x0, s_set, t_set = _geometry(kind, n, seed, magnitude)
    record = _grid(x0, s_set, t_set)
    read, bulk, single = (EvaluationCache(counter()) for _ in range(3))
    got = record.read(read)
    want = _bulk(record, bulk)
    assert _row_by_row(record, single).tobytes() == want.tobytes()
    assert got.shape == want.shape == record.cls.shape
    assert got.tobytes() == want.tobytes()
    assert snapshot(read) == snapshot(bulk) == snapshot(single)
    # One request per point, each a new one: the points are distinct at tol.
    assert read.total_requests == read.distinct_count == len(record.points)
    kept, classes = _distinct(record.points, record.tol)
    assert kept.tolist() == classes.tolist() == list(range(len(record.points)))
    # Every cell lies within tol of the point it reads.
    cells = sample_grid(x0, s_set, t_set)
    assert np.abs(cells - record.points[record.cls]).max() <= record.tol
    assert record.point_set().points is record.points


class TestOneDecisionPerRecord:
    def test_reads_from_many_caches_resolve_the_points_once(self, monkeypatch):
        calls = []
        real = sets._distinct
        monkeypatch.setattr(sets, "_distinct", lambda *a: calls.append(a) or real(*a))
        record = _record("folded", 20, 7, 1.0)
        assert len(calls) == 1
        for _ in range(3):
            record.read(EvaluationCache(counter()))
        record.point_set()
        assert len(calls) == 1

    def test_a_cache_holding_some_points_requests_each_point_once(self):
        # A held point is a hit; the others are new, so the values are the
        # fresh read's wherever the held point's value is the same.
        record = _record("canonical", 4, 3, 1.0)
        holding = EvaluationCache(lambda x: float(np.sum(x**3)))
        holding.evaluate(record.points[5].copy())
        holding.evaluate(np.full(4, 3.0))
        got = record.read(holding)
        want = record.read(EvaluationCache(lambda x: float(np.sum(x**3))))
        assert got.tobytes() == want.tobytes()
        statuses = [status for _, _, status in holding.trace_rows()]
        assert statuses[2:].count("hit") == 1
        assert holding.distinct_count == len(record.points) + 1

    def test_a_grid_whose_cells_repeat_bitwise_requests_each_once(self):
        # At 1e150 every cell rounds to x0 or a few neighbours: the points
        # repeat bitwise, and the record keeps the first cell of each.
        for magnitude in (1e150, 1.0):
            record = _record("overdetermined", 3, 11, magnitude)
            cache = EvaluationCache(counter())
            record.read(cache)
            assert cache.total_requests == cache.distinct_count == len(record.points)
            assert len({x.tobytes() for x in record.points}) == len(record.points)
        assert len(record.points) == record.cls.size  # at 1.0 no cells meet


def _failing_after(calls):
    count = itertools.count(1)

    def oracle(x):
        i = next(count)
        if i == calls:
            raise RuntimeError("oracle failed")
        return float(i)

    return oracle


class TestFailuresAreEvaluateMany:
    """Each failure leaves what evaluate_many of the record's points leaves."""

    def _both(self, record, make_cache):
        outcomes = []
        for read in (record.read, lambda cache: _bulk(record, cache)):
            cache = make_cache()
            with pytest.raises(Exception) as info:
                read(cache)
            outcomes.append((type(info.value), str(info.value), snapshot(cache), cache))
        return outcomes

    @pytest.mark.parametrize("calls", [1, 3, 15])
    def test_an_oracle_that_raises_mid_block_keeps_the_rows_before(self, calls):
        record = _record("canonical", 4, 5, 1.0)
        (got, _, got_state, kept), (want, _, want_state, bulk) = self._both(
            record, lambda: EvaluationCache(_failing_after(calls))
        )
        assert got is want is EvaluationError
        assert got_state == want_state
        assert kept.distinct_count == kept.total_requests == calls - 1
        # Both caches go on as one: the rest of the block, then more.
        assert _bulk(record, kept).tobytes() == _bulk(record, bulk).tobytes()
        assert snapshot(kept) == snapshot(bulk)
        assert [s for _, _, s in kept.trace_rows()].count("hit") == calls - 1

    def test_a_request_from_inside_the_oracle(self):
        record = _record("folded", 3, 9, 1.0)
        outcomes = []
        for read in (record.read, lambda cache: _bulk(record, cache)):
            box = []

            def oracle(x):
                return box[0].evaluate(x)

            cache = EvaluationCache(oracle)
            box.append(cache)
            with pytest.raises(EvaluationError, match=REFUSAL) as info:
                read(cache)
            assert snapshot(cache) == (0, 0, [])
            outcomes.append(str(info.value))
        assert outcomes[0] == outcomes[1]

    def test_a_cache_of_another_dimension(self):
        record = _record("canonical", 2, 13, 1.0)
        outcomes = []
        for read in (record.read, lambda cache: _bulk(record, cache)):
            cache = EvaluationCache(counter())
            cache.evaluate(np.zeros(3))
            before = snapshot(cache)
            with pytest.raises(ValueError, match="holds points in R\\^3") as info:
                read(cache)
            assert snapshot(cache) == before
            outcomes.append(str(info.value))
        assert outcomes[0] == outcomes[1]


def test_threads_sharing_records_read_their_own_caches():
    # More threads than cores, switching often, each reading two records
    # with fresh caches: a read answered for the other record would show
    # in the trace.
    records = [_record("folded", 5, seed, 1.0) for seed in (21, 22)]
    want = []
    for record in records:
        cache = EvaluationCache(counter())
        _bulk(record, cache)
        want.append(snapshot(cache))
    wrong = []

    def work(offset):
        for step in range(40):
            i = (offset + step) % 2
            cache = EvaluationCache(counter())
            records[i].read(cache)
            if snapshot(cache) != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
