"""A grid record keeps the proof that its points are apart, and a read from it is evaluate_many's.

The first read of a record by a cache that stores no point makes the
proof; later such reads take the block from it with no proof made. A
cache that already stores a point still proves the block against its
points. Either way the values, the counts, the trace, the stored rows and
every later lookup are those of ``evaluate_many`` on the record's points.
"""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nshess.cache as cache_module
from nshess import DirectionSet, EvaluationCache, EvaluationError, build_uk, canonical_set
from nshess.cache import PointIndex
from nshess.sets import _grid

REFUSAL = "a cache's oracle may not make a request of the same cache"


def counter():
    """An oracle whose values number its calls, so a value names its point."""
    calls = itertools.count(1)
    return lambda x: float(next(calls))


def snapshot(cache, projections=True):
    """Everything a cache holds: counts, trace bytes, stored rows and the index's state.

    A block's projections come from one matrix product and a lone request's
    from its own dot product, which may round differently: ``projections=False``
    leaves them out and keeps their order.
    """
    trace = [(point.tobytes(), value, status) for point, value, status in cache.trace_rows()]
    index = cache._index
    held = None
    if index is not None:
        held = (
            index.points.tobytes(),
            index._keys if projections else None,
            index._rows,
            index._wide,
            index._norm,
            list(index.memo.items()),
        )
    return cache.total_requests, cache.distinct_count, trace, held


def _record(kind, n, seed, magnitude):
    """A fresh grid record (not held on any memoized set) of one geometry kind."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, n) * magnitude
    scale = 10.0 ** rng.uniform(-3, 0)
    k = int(rng.integers(0, n + 1))
    if kind == "canonical":
        s_set, t_set = canonical_set(n, k, scale)
        # Copies, so the record is new and no earlier test left a proof on it.
        s_set = DirectionSet(s_set.matrix)
        t_set = build_uk(s_set, k)
    elif kind == "folded":
        s_set = DirectionSet(scale * rng.standard_normal((n, n)))
        t_set = build_uk(s_set, k)
    else:  # overdetermined: more columns than rows, every cell requested
        s_set = DirectionSet(scale * rng.standard_normal((n, n + int(rng.integers(1, 3)))))
        t_set = DirectionSet(scale * rng.standard_normal((n, n + 1)))
    return _grid(x0, s_set, t_set)


def _bulk(record, cache):
    return cache.evaluate_many(record.points, record.tol)[record.cls]


def _row_by_row(record, cache):
    return np.array([cache.evaluate(x, record.tol) for x in record.points])[record.cls]


def _later_lookups(record, rng):
    """Queries at, near and far from the record's points, with the tolerances to ask them at."""
    pts = record.points
    tol = record.tol
    queries = [pts, pts + 0.5 * tol, pts - 2.0 * tol, pts + rng.standard_normal(pts.shape)]
    return np.vstack(queries), (0.0, tol, 4.0 * tol)


def _answers(cache, queries, tols):
    out = []
    for tol in tols:
        for x in queries:
            try:
                out.append(cache.evaluate(x, tol))
            except (ValueError, EvaluationError) as exc:
                out.append(type(exc).__name__)
    return out


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["canonical", "overdetermined", "folded"]),
    n=st.sampled_from([1, 2, 3, 4, 5, 6, 20]),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([0.0, 1.0, 1e3, 1e20, 1e150]),
)
def test_a_read_from_the_kept_proof_is_evaluate_many(kind, n, seed, magnitude):
    record = _record(kind, n, seed, magnitude)
    first, kept, bulk, single = (EvaluationCache(counter()) for _ in range(4))
    # The first read makes the proof, the second takes the block from it.
    made = record.read(first)
    assert record._proof is not None
    got = record.read(kept)
    want = _bulk(record, bulk)
    # Requests one at a time, with no block proof: the state a block must leave.
    assert _row_by_row(record, single).tobytes() == want.tobytes()
    for values in (made, got):
        assert values.shape == want.shape
        assert values.tobytes() == want.tobytes()
    assert snapshot(first) == snapshot(kept) == snapshot(bulk)
    assert snapshot(kept, projections=False) == snapshot(single, projections=False)
    queries, tols = _later_lookups(record, np.random.default_rng(seed + 1))
    assert _answers(kept, queries, tols) == _answers(bulk, queries, tols)
    assert snapshot(kept) == snapshot(bulk)
    # The record's point set takes its rows from the same proof.
    want_kept = PointIndex.distinct(record.points, record.tol)
    assert record.point_set().points.tobytes() == record.points[want_kept].tobytes()
    assert record.kept.dtype == want_kept.dtype
    assert record.kept.tobytes() == want_kept.tobytes()


class TestThePathTaken:
    def test_a_second_fresh_read_makes_no_proof(self, monkeypatch):
        calls = []
        real = cache_module._windows

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cache_module, "_windows", counted)
        record = _record("folded", 20, 7, 1.0)
        record.read(EvaluationCache(counter()))
        assert len(calls) == 1
        record.read(EvaluationCache(counter()))
        record.read(EvaluationCache(counter()))
        assert len(calls) == 1
        # A cache that stores a point proves the block against it.
        holding = EvaluationCache(counter())
        holding.evaluate(np.full(20, 5.0))
        record.read(holding)
        assert len(calls) == 2

    def test_the_point_set_and_a_fresh_read_share_one_proof(self, monkeypatch):
        calls = []
        real = cache_module._windows
        monkeypatch.setattr(
            cache_module, "_windows", lambda *args: calls.append(args) or real(*args)
        )
        for point_set_first in (True, False):
            calls.clear()
            record = _record("folded", 20, 9, 1.0)
            if point_set_first:
                record.point_set()
            record.read(EvaluationCache(counter()))
            record.point_set()
            record.read(EvaluationCache(counter()))
            assert len(calls) == 1
            assert np.array_equal(record.kept, np.arange(len(record.points)))

    def test_a_cache_holding_points_takes_reserve(self, monkeypatch):
        reserved = []
        original = PointIndex.reserve

        def recording(self, block, keys, tol):
            reserved.append(original(self, block, keys, tol))
            return reserved[-1]

        monkeypatch.setattr(PointIndex, "reserve", recording)
        record = _record("canonical", 4, 3, 1.0)
        caches = [EvaluationCache(counter()) for _ in range(2)]
        for cache in caches:
            cache.evaluate(np.full(4, 3.0))
        got = record.read(caches[0])
        assert reserved == [True]
        assert record._proof is None  # only a cache that stores no point makes it
        want = _bulk(record, caches[1])
        assert reserved == [True, True]
        assert got.tobytes() == want.tobytes()
        assert snapshot(caches[0]) == snapshot(caches[1])
        # A fresh cache's read takes no reserve.
        record.read(EvaluationCache(counter()))
        assert reserved == [True, True]

    def test_a_block_with_exact_repeats_is_kept_by_its_first_rows(self):
        # At 1e150 every cell rounds to x0 or a few neighbours: the points
        # repeat bitwise, the proof covers their first rows, and it declines
        # what lies within the tolerance.
        for magnitude in (1e150, 1.0):
            record = _record("overdetermined", 3, 11, magnitude)
            record.read(EvaluationCache(counter()))
            kept, bulk = EvaluationCache(counter()), EvaluationCache(counter())
            assert record.read(kept).tobytes() == _bulk(record, bulk).tobytes()
            assert snapshot(kept) == snapshot(bulk)


def _failing_after(calls):
    count = itertools.count(1)

    def oracle(x):
        i = next(count)
        if i == calls:
            raise RuntimeError("oracle failed")
        return float(i)

    return oracle


class TestFailuresAreEvaluateMany:
    """Each failure leaves what evaluate_many leaves, proof kept or not."""

    def _both(self, record, make_cache):
        outcomes = []
        for read in (record.read, lambda cache: _bulk(record, cache)):
            cache = make_cache()
            with pytest.raises(Exception) as info:
                read(cache)
            outcomes.append((type(info.value), str(info.value), snapshot(cache), cache))
        return outcomes

    @pytest.mark.parametrize("calls", [1, 3, 15])
    def test_an_oracle_that_raises_mid_block(self, calls):
        record = _record("canonical", 4, 5, 1.0)
        record.read(EvaluationCache(counter()))  # the proof is kept
        (got, *_, kept), (want, *_, bulk) = self._both(
            record, lambda: EvaluationCache(_failing_after(calls))
        )
        assert got is want is EvaluationError
        assert snapshot(kept) == snapshot(bulk)
        assert kept._index is None if calls == 1 else len(kept._index) == calls - 1
        # Both caches go on as one: the rest of the block, then more.
        assert _bulk(record, kept).tobytes() == _bulk(record, bulk).tobytes()
        assert snapshot(kept) == snapshot(bulk)

    def test_a_request_from_inside_the_oracle(self):
        record = _record("folded", 3, 9, 1.0)
        record.read(EvaluationCache(counter()))
        outcomes = []
        for read in (record.read, lambda cache: _bulk(record, cache)):
            box = []

            def oracle(x):
                return box[0].evaluate(x)

            cache = EvaluationCache(oracle)
            box.append(cache)
            with pytest.raises(EvaluationError, match=REFUSAL) as info:
                read(cache)
            outcomes.append((str(info.value), snapshot(cache)))
            assert cache._index is None
        assert outcomes[0] == outcomes[1]

    def test_a_cache_of_another_dimension(self):
        record = _record("canonical", 2, 13, 1.0)
        record.read(EvaluationCache(counter()))
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


def test_threads_sharing_records_take_each_its_own_proof():
    # More threads than cores, switching often, each reading two records
    # with fresh caches: a proof made for one record and taken for the
    # other would show in the stored projections, their order or M.
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
