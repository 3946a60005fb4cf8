"""Grid records held per outer set, one distinctness proof per point set, one SVD per basis."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nshess import (
    DirectionSet,
    EvaluationCache,
    EvaluationError,
    NotPoisedError,
    PointSet,
    StudyConfig,
    build_uk,
    canonical_set,
    dedup_tolerance,
    interpolate_general,
    interpolate_minimal,
    minimal_point_count,
    model_gradient_constant,
    nested_set_hessian,
    nshc_points,
    quadratic_basis_matrix,
    quadratic_model_gradient,
    run_study,
    sets,
)
from nshess.cache import PointIndex
from nshess.sets import _fold_k, fold_index, sample_grid


def _cubic(x):
    return float(np.sum(x**3) + x[0] * np.sum(x) ** 2)


def _greedy_reference(x0, s_set, t_set, tol):
    """The points ``nshc_points`` keeps, found by a ``PointIndex`` lookup per point."""
    flat = sample_grid(x0, s_set, t_set).reshape(-1, len(x0))
    k = _fold_k(s_set, t_set)
    if k is not None:
        cls, first = fold_index(len(x0), k)
        if np.abs(flat - flat[first[cls.ravel()]]).max() <= tol:
            flat = flat[first]
    index = PointIndex(flat.shape[1])
    for x in flat:
        key = x.tobytes()
        row, y = index.lookup(x, key, tol)
        if row < 0:
            index.insert(x, key, y)
    return index.points


def _geometry(kind, n, rng):
    scale = 10.0 ** rng.uniform(-3, 0)
    if kind == "canonical":
        return canonical_set(n, int(rng.integers(0, n + 1)), scale)
    s = scale * rng.standard_normal((n, n))
    if kind == "random":
        s = scale * rng.standard_normal((n, n + int(rng.integers(0, 3))))
        return DirectionSet(s), DirectionSet(scale * rng.standard_normal((n, n + 1)))
    if kind == "shared":  # T repeats columns of S: exact coincidences off the fold path
        t = np.hstack([s[:, : max(1, n - 1)], scale * rng.standard_normal((n, 1))])
        return DirectionSet(s), DirectionSet(t)
    if kind == "adversarial" and n >= 2:
        # Two columns of S within any tolerance drawn below: distinct fold
        # classes whose first cells coincide.
        s[:, 1] = s[:, 0] + 1e-15 * scale
    s_set = DirectionSet(s)
    return s_set, build_uk(s_set, int(rng.integers(0, n + 1)))


@given(data=st.data())
def _matches_greedy(data):
    n = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(["random", "shared", "folded", "adversarial", "canonical"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s_set, t_set = _geometry(kind, n, rng)
    x0 = rng.uniform(-2.0, 2.0, n) * 10.0 ** rng.uniform(-2, 2)
    tol = data.draw(st.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-3]))
    got = nshc_points(x0, s_set, t_set, tol)
    want_tol = dedup_tolerance(x0, s_set, t_set) if tol is None else tol
    want = _greedy_reference(x0, s_set, t_set, want_tol)
    assert got.points.shape == want.shape
    assert got.points.tobytes() == want.tobytes()
    assert got.dedup_tol == want_tol


class TestDistinctPoints:
    def test_nshc_points_is_bitwise_the_greedy_loop(self, monkeypatch):
        # A record's point set takes its rows from the block proof when that
        # holds and falls back to the greedy lookups when it proves nothing.
        outcomes = []
        real = sets._proof

        def recorded(points, keys, tol):
            proof = real(points, keys, tol)
            outcomes.append(bool(proof))
            return proof

        monkeypatch.setattr(sets, "_proof", recorded)
        _matches_greedy()
        assert True in outcomes and False in outcomes  # fast path and fallback both ran

    def test_separated_answers(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert PointIndex.separated(rows, 1e-9)
        assert PointIndex.separated(rows[:1], np.inf)
        assert not PointIndex.separated(rows, 1.0)
        assert not PointIndex.separated(np.vstack([rows, rows[1]]), 0.0)
        assert not PointIndex.separated(np.array([[0.0, 0.0], [-0.0, 0.0]]), 0.0)
        near = rows.copy()
        near[2] = near[1] + 1e-10
        assert not PointIndex.separated(near, 1e-9)
        for bad in (np.nan, np.inf):
            odd = rows.copy()
            odd[1, 0] = bad
            assert not PointIndex.separated(odd, 1e-9)
        with np.errstate(over="ignore"):  # the projections overflow
            assert not PointIndex.separated(np.array([[1e308, 1e308], [-1e308, 1e308]]), 0.0)

    def test_point_set_construction_takes_the_vectorized_proof(self, monkeypatch):
        s_set, t_set = canonical_set(4, 2, 0.1)
        points = nshc_points(np.full(4, 0.3), s_set, t_set).points.copy()
        lookups = []
        real = PointIndex.lookup
        monkeypatch.setattr(
            PointIndex, "lookup", lambda self, *a: lookups.append(1) or real(self, *a)
        )
        assert np.array_equal(PointIndex.distinct(points, 1e-12), np.arange(len(points)))
        assert PointSet(points, 1e-12).points.tobytes() == points.tobytes()
        assert lookups == []
        repeated = np.vstack([points, points[3] + 1e-14])
        with pytest.raises(ValueError, match="points 3 and 15 coincide"):
            PointSet(repeated, 1e-12)
        assert len(lookups) == 16
        assert np.array_equal(PointIndex.distinct(repeated, 1e-12), np.arange(len(points)))

    def test_adversarial_classes_merge(self):
        s = 0.1 * np.eye(3)
        s[:, 1] = s[:, 0] * (1.0 + 1e-14)
        s_set = DirectionSet(s)
        pts = nshc_points(np.zeros(3), s_set, build_uk(s_set, 2))
        assert len(pts) < minimal_point_count(3)


class TestGridRecord:
    def setup_method(self):
        sets._canonical_pair.cache_clear()

    def test_estimate_then_model_build_the_grid_once(self, monkeypatch):
        calls = []
        real = sets.sample_grid
        monkeypatch.setattr(sets, "sample_grid", lambda *a: calls.append(1) or real(*a))
        x0 = np.array([0.3, -0.2, 0.5, 0.1])
        s_set, t_set = canonical_set(4, 2, 0.05)
        cache = EvaluationCache(_cubic)
        estimate = nested_set_hessian(x0, s_set, t_set, cache)
        model = interpolate_minimal(x0, s_set, 2, cache)
        assert len(calls) == 1
        first = nshc_points(x0, s_set, t_set)
        _, _, again = quadratic_model_gradient(cache, x0, s_set, t_set)
        assert again is first
        assert len(calls) == 1
        assert cache.distinct_count == minimal_point_count(4)
        np.testing.assert_allclose(model.hessian, estimate.hessian, atol=1e-6)

    def test_an_estimate_and_its_model_work_out_the_tolerance_once(self, monkeypatch):
        calls = []
        real = sets.dedup_tolerance

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sets, "dedup_tolerance", counted)
        x0 = np.array([0.3, -0.2, 0.5, 0.1])
        s_set, t_set = canonical_set(4, 2, 0.05)
        for want in (1, 0):  # cold, then warm
            calls.clear()
            cache = EvaluationCache(_cubic)
            nested_set_hessian(x0, s_set, t_set, cache)
            interpolate_minimal(x0, s_set, 2, cache)
            assert len(calls) == want

    def test_estimate_model_and_point_set_share_one_record(self):
        # One record: both models read the F the estimate read, and every
        # consumer gets the one point set, at the geometry's tolerance.
        x0 = np.array([0.3, -0.2, 0.5, 0.1])
        s_set, t_set = canonical_set(4, 1, 0.05)
        cache = EvaluationCache(_cubic)
        nested_set_hessian(x0, s_set, t_set, cache)
        requests = cache.total_requests
        pts = nshc_points(x0, s_set, t_set)
        interpolate_minimal(x0, s_set, 1, cache)
        _, _, model_pts = quadratic_model_gradient(cache, x0, s_set, t_set)
        assert cache.total_requests == requests
        assert pts is model_pts is nshc_points(x0, s_set, t_set)
        assert pts.dedup_tol == dedup_tolerance(x0, s_set, t_set)

    def test_a_folded_point_set_holds_its_records_rows(self):
        # Every row of a folded record is kept, so its point set takes the
        # record's read-only rows instead of a second copy.
        x0 = np.array([0.3, -0.2, 0.5, 0.1])
        s_set, t_set = canonical_set(4, 2, 0.05)
        pts = nshc_points(x0, s_set, t_set)
        assert pts.points is sets._grid(x0, s_set, t_set).points
        assert not pts.points.flags.writeable
        np.testing.assert_array_equal(pts.points, _greedy_reference(x0, s_set, t_set, pts.dedup_tol))

    def test_at_most_two_records_per_outer_set_across_an_x0_sweep(self):
        # The point set lives as long as its record: S holds the records of
        # the last two (T, x0) it was used with, so across a sweep the
        # oldest goes first.
        assert sets._HELD_RECORDS == 2
        s_set, t_set = canonical_set(3, 1, 0.1)
        rng = np.random.default_rng(3)
        held = []
        for step in range(6):
            x0 = rng.uniform(-1.0, 1.0, 3)
            cache = EvaluationCache(_cubic)
            nested_set_hessian(x0, s_set, t_set, cache)
            pts = nshc_points(x0, s_set, t_set)
            assert nshc_points(x0.copy(), s_set, t_set) is pts
            held.append(weakref.ref(pts))
            del pts
            gc.collect()
            alive = min(step + 1, 2)
            want = [False] * (len(held) - alive) + [True] * alive
            assert [ref() is not None for ref in held] == want
        # A new T joins the held records: the newest stays, the oldest goes.
        other = DirectionSet(0.1 * np.eye(3))
        swapped = nshc_points(x0, s_set, other)
        gc.collect()
        assert [ref() is not None for ref in held] == [False] * 5 + [True]
        assert nshc_points(x0, s_set, other) is swapped
        assert nshc_points(x0.copy(), s_set, t_set) is held[-1]()

    def test_a_hit_keeps_its_record_ahead_of_the_next_build(self):
        # The record dropped is the one used least recently, not the one
        # built first: a base point read between one-off points stays held.
        s_set, t_set = canonical_set(3, 1, 0.1)
        kept = nshc_points(np.zeros(3), s_set, t_set)
        for step in range(1, 4):
            passing = nshc_points(np.full(3, 0.1 * step), s_set, t_set)
            assert nshc_points(np.zeros(3), s_set, t_set) is kept
        ref = weakref.ref(passing)
        del passing
        nshc_points(np.ones(3), s_set, t_set)
        gc.collect()
        assert ref() is None
        assert nshc_points(np.zeros(3), s_set, t_set) is kept

    def test_alternating_base_points_build_each_record_once(self, monkeypatch):
        # Two base points taking turns on one S: each keeps its record, so
        # its grid is built and its block proof made once.
        builds, proofs = [], []
        real_grid, real_proof = sets.sample_grid, sets._proof
        monkeypatch.setattr(sets, "sample_grid", lambda *a: builds.append(1) or real_grid(*a))
        monkeypatch.setattr(sets, "_proof", lambda *a: proofs.append(1) or real_proof(*a))
        s_set, t_set = canonical_set(4, 2, 0.05)
        for _ in range(3):
            for x0 in (np.zeros(4), np.ones(4)):
                nested_set_hessian(x0, s_set, t_set, EvaluationCache(_cubic))
        assert len(builds) == 2
        assert len(proofs) == 2

    def test_threads_alternating_their_own_base_points_share_one_outer_set(self):
        # Two threads, two base points each, on one S with fresh caches: a
        # record found for another thread's x0 would show as a wrong
        # Hessian, F or point set.
        s_set, t_set = canonical_set(3, 2, 0.1)
        x0s = [np.array([0.2, -0.1, 0.3]), np.zeros(3), np.ones(3), np.array([-0.5, 0.4, 0.1])]
        want = []
        for x0 in x0s:
            fresh_s = DirectionSet(s_set.matrix)
            result = nested_set_hessian(x0, fresh_s, build_uk(fresh_s, 2), EvaluationCache(_cubic))
            want.append((result.hessian.tobytes(), result.values.tobytes(),
                         _greedy_reference(x0, s_set, t_set, dedup_tolerance(x0, s_set, t_set))))
        wrong = []

        def work(mine):
            for step in range(50):
                i = mine[step % 2]
                result = nested_set_hessian(x0s[i], s_set, t_set, EvaluationCache(_cubic))
                pts = nshc_points(x0s[i], s_set, t_set).points
                got = (result.hessian.tobytes(), result.values.tobytes())
                if got != want[i][:2] or pts.tobytes() != want[i][2].tobytes():
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(mine,)) for mine in ((0, 1), (2, 3))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_a_bad_x0_raises_before_it_becomes_a_key(self):
        s_set, t_set = canonical_set(2, 1, 0.1)
        pts = nshc_points(np.ones(2), s_set, t_set)
        for bad in (np.ones((1, 2)), np.ones(3), np.ones(1)):
            for tol in (None, pts.dedup_tol):
                with pytest.raises(ValueError, match="dimension"):
                    nshc_points(bad, s_set, t_set, tol)
        assert nshc_points(np.ones(2), s_set, t_set) is pts

    @pytest.mark.parametrize("k", [0, 2])
    def test_an_explicit_tolerance_leaves_the_record(self, k):
        s_set, t_set = canonical_set(3, k, 0.1)
        x0 = np.array([0.4, -0.3, 0.2])
        first = nshc_points(x0, s_set, t_set)
        assert nshc_points(x0, s_set, t_set) is first
        assert first.dedup_tol == dedup_tolerance(x0, s_set, t_set)
        for tol in (first.dedup_tol, 1e3 * first.dedup_tol, 0.0):
            other = nshc_points(x0, s_set, t_set, tol)
            assert other is not first and nshc_points(x0, s_set, t_set) is first
            assert other.dedup_tol == tol
            assert other.points.tobytes() == _greedy_reference(x0, s_set, t_set, tol).tobytes()
        assert nshc_points(x0, s_set, t_set) is first

    def test_held_arrays_are_read_only(self):
        s_set, t_set = canonical_set(3, 1, 0.1)
        x0 = np.array([0.1, 0.2, 0.3])
        pts = nshc_points(x0, s_set, t_set)
        record = sets._grid(x0, s_set, t_set)
        other = DirectionSet(0.1 * np.eye(3) + 0.01)
        other_t = DirectionSet(0.2 * np.eye(3))
        nshc_points(x0, other, other_t)
        unfolded = sets._grid(x0, other, other_t)
        _, center, _ = quadratic_basis_matrix(pts.points, x0)
        values = nested_set_hessian(x0, s_set, t_set, EvaluationCache(_cubic)).values
        held = [record.points, record.cls, unfolded.points, unfolded.cls, pts.points,
                pts._singular_values(x0), center, values, *sets._quadratic_terms(3)]
        for a in held:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0


class TestHeldBasis:
    @pytest.mark.parametrize(
        "estimator, function",
        [("product-qc", "product_cubes_exp"), ("quotient-qc", "quotient_cubes_exp"),
         ("power-qc", "power_cubes_2")],
    )
    def test_cold_rule_row_factors_the_basis_once(self, svd_calls, estimator, function):
        config = StudyConfig(function=function, dim=10, k=3, estimator=estimator,
                             beta_steps=1, seed=4)
        (row,) = run_study(config).rows
        assert row.evals == (1 if estimator == "power-qc" else 2) * 66
        assert svd_calls.count((66, 66)) == 1

    def test_one_svd_per_center(self, svd_calls):
        s_set, t_set = canonical_set(3, 2, 0.1)
        pts = nshc_points(np.zeros(3), s_set, t_set)
        rng = np.random.default_rng(8)
        for center in rng.uniform(-0.1, 0.1, (4, 3)):
            before = len(svd_calls)
            first = model_gradient_constant(1.0, pts, center)
            assert model_gradient_constant(1.0, pts, center.copy()) == first
            interpolate_general(pts, np.arange(10.0), center=center)
            assert len(svd_calls) == before + 1
        # The centroid is a center like any other, and only the last is held.
        before = len(svd_calls)
        interpolate_general(pts, np.arange(10.0))
        interpolate_general(pts, np.arange(10.0), center=pts.points.mean(axis=0))
        assert len(svd_calls) == before + 1
        model_gradient_constant(1.0, pts, center)
        assert len(svd_calls) == before + 2

    def test_a_caller_writing_its_center_leaves_the_held_key(self, svd_calls):
        s_set, t_set = canonical_set(2, 1, 0.1)
        x0 = np.array([0.2, 0.1])
        pts = nshc_points(x0, s_set, t_set)
        first = model_gradient_constant(1.0, pts, x0)
        before = len(svd_calls)
        x0[0] = 5.0
        assert model_gradient_constant(1.0, pts, np.array([0.2, 0.1])) == first
        assert len(svd_calls) == before


def _statuses(cache):
    return [status for _, _, status in cache.trace_rows()]


class TestHeldRead:
    """The grid record holds the F of its last complete read, per cache."""

    n, k = 4, 2
    x0 = np.array([0.3, -0.2, 0.5, 0.1])

    def _geometry(self):
        # A fresh S, so no record from another test is held on it.
        s_set = DirectionSet(0.05 * np.eye(self.n))
        return s_set, build_uk(s_set, self.k)

    def test_a_repeated_estimate_asks_the_cache_for_nothing(self):
        s_set, t_set = self._geometry()
        cache = EvaluationCache(_cubic)
        first = nested_set_hessian(self.x0, s_set, t_set, cache)
        requests = cache.total_requests
        assert requests == minimal_point_count(self.n)
        again = nested_set_hessian(self.x0, s_set, t_set, cache)
        assert cache.total_requests == requests
        assert again.values is first.values
        assert not first.values.flags.writeable
        assert again.hessian.tobytes() == first.hessian.tobytes()

    def test_the_model_after_an_estimate_requests_nothing(self):
        s_set, t_set = self._geometry()
        need = minimal_point_count(self.n)
        cache = EvaluationCache(_cubic)
        nested_set_hessian(self.x0, s_set, t_set, cache)
        model = interpolate_minimal(self.x0, s_set, self.k, cache)
        assert cache.total_requests == cache.distinct_count == need
        assert "hit" not in _statuses(cache)
        fresh = interpolate_minimal(self.x0, s_set, self.k, EvaluationCache(_cubic))
        assert model.alpha0 == fresh.alpha0
        assert model.alpha.tobytes() == fresh.alpha.tobytes()
        assert model.hessian.tobytes() == fresh.hessian.tobytes()

    def test_a_read_on_another_cache_requests_again(self):
        s_set, t_set = self._geometry()
        need = minimal_point_count(self.n)
        first = EvaluationCache(_cubic)
        want = nested_set_hessian(self.x0, s_set, t_set, first).values
        # Another oracle: a held F answering the wrong cache would show.
        other = EvaluationCache(lambda x: 2.0 * _cubic(x))
        got = nested_set_hessian(self.x0, s_set, t_set, other).values
        assert other.total_requests == need
        assert got.tobytes() == (2.0 * want).tobytes()
        assert nested_set_hessian(self.x0, s_set, t_set, other).values is got
        assert other.total_requests == need
        # One slot: the first cache is asked again, and answers from its memo.
        again = nested_set_hessian(self.x0, s_set, t_set, first).values
        assert first.total_requests == 2 * need and first.distinct_count == need
        assert again.tobytes() == want.tobytes()

    def test_a_read_that_raises_holds_nothing(self):
        s_set, t_set = self._geometry()
        need = minimal_point_count(self.n)
        calls = []

        def flaky(x):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("oracle down")
            return _cubic(x)

        cache = EvaluationCache(flaky)
        with pytest.raises(EvaluationError):
            nested_set_hessian(self.x0, s_set, t_set, cache)
        answered = cache.total_requests
        assert answered == 4
        retry = nested_set_hessian(self.x0, s_set, t_set, cache)
        assert cache.total_requests == answered + need
        assert _statuses(cache)[answered:].count("hit") == 4
        want = nested_set_hessian(self.x0, s_set, t_set, EvaluationCache(_cubic))
        assert retry.values.tobytes() == want.values.tobytes()

    def test_the_record_keeps_no_cache_or_oracle_alive(self):
        s_set, t_set = self._geometry()

        class Oracle:
            def __call__(self, x):
                return _cubic(x)

        oracle = Oracle()
        cache = EvaluationCache(oracle)
        nested_set_hessian(self.x0, s_set, t_set, cache)
        nested_set_hessian(self.x0, s_set, t_set, cache)
        assert cache.total_requests == minimal_point_count(self.n)  # the read is held
        cache_ref, oracle_ref = weakref.ref(cache), weakref.ref(oracle)
        del cache, oracle
        gc.collect()
        assert cache_ref() is None and oracle_ref() is None
        # A new cache, whatever its id, is asked in full.
        fresh = EvaluationCache(_cubic)
        nested_set_hessian(self.x0, s_set, t_set, fresh)
        assert fresh.total_requests == minimal_point_count(self.n)


class TestSharedAcrossThreads:
    def test_threads_sharing_one_geometry_get_their_own_answers(self):
        # More threads than cores, switching often, each on its own x0 and
        # center: a slot read after another thread replaced it would show
        # as a wrong Hessian or constant.
        s_set, t_set = canonical_set(3, 2, 0.1)
        x0s = [np.full(3, 0.01 * i) for i in range(4)]
        shared = nshc_points(x0s[0], s_set, t_set)
        want = [
            (
                nested_set_hessian(x0, DirectionSet(s_set.matrix), DirectionSet(t_set.matrix),
                                   EvaluationCache(_cubic)).hessian.tobytes(),
                model_gradient_constant(1.0, shared.points.copy(), x0),
            )
            for x0 in x0s
        ]
        wrong = []

        def work(offset):
            for step in range(40):
                i = (offset + step) % len(x0s)
                h = nested_set_hessian(x0s[i], s_set, t_set, EvaluationCache(_cubic)).hessian
                if (h.tobytes(), model_gradient_constant(1.0, shared, x0s[i])) != want[i]:
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

    def test_threads_on_one_geometry_read_their_own_caches(self):
        # One (x0, S, U_k) record, so one held slot, replaced by every
        # thread in turn: F held for another thread's cache would show as
        # another power of two, a lost slot as extra distinct points.
        s_set, t_set = canonical_set(3, 2, 0.1)
        x0 = np.array([0.2, -0.1, 0.3])
        need = minimal_point_count(3)
        want = nested_set_hessian(x0, DirectionSet(s_set.matrix), DirectionSet(t_set.matrix),
                                  EvaluationCache(_cubic)).values
        wrong = []

        def work(t):
            scale = 2.0**t
            cache = EvaluationCache(lambda x: scale * _cubic(x))
            for _ in range(40):
                got = nested_set_hessian(x0, s_set, t_set, cache).values
                interpolate_minimal(x0, s_set, 2, cache)
                if got.tobytes() != (scale * want).tobytes() or cache.distinct_count != need:
                    wrong.append(t)

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


def _loop_basis(points, center, scale):
    """The natural quadratic basis built one column at a time."""
    z = (points - center) / scale
    p, n = points.shape
    cols = [np.ones(p)] + [z[:, i] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            cols.append(0.5 * z[:, i] ** 2 if i == j else z[:, i] * z[:, j])
    return np.column_stack(cols)


class TestQuadraticBasis:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bitwise_the_loop_form(self, n):
        rng = np.random.default_rng(n)
        for p in (minimal_point_count(n), 3):
            points = rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-4, 4)
            center = points.mean(axis=0)
            scale = float(np.max(np.linalg.norm(points - center, axis=1)))
            basis, got_center, got_scale = quadratic_basis_matrix(points)
            assert got_scale == scale and got_center.tobytes() == center.tobytes()
            assert basis.tobytes() == _loop_basis(points, center, scale).tobytes()
            x0 = rng.standard_normal(n)
            scale = float(np.max(np.linalg.norm(points - x0, axis=1)))
            basis, _, got_scale = quadratic_basis_matrix(points, x0)
            assert got_scale == scale
            assert basis.tobytes() == _loop_basis(points, x0, scale).tobytes()

    @pytest.mark.parametrize("center", [np.zeros(1), 0.0, np.zeros(3), np.zeros((1, 2)),
                                        np.array([np.nan, 0.0]), np.array([0.0, np.inf])])
    def test_rejects_a_center_of_another_shape_or_non_finite(self, center):
        # A shape-(1,) or scalar center used to broadcast into a wrong basis.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="center"):
            quadratic_basis_matrix(points, center)

    @pytest.mark.parametrize("coord", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_scale(self, coord):
        # The scale is the largest distance from the center, so a
        # non-finite point makes it non-finite.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, coord]])
        with pytest.raises(ValueError, match="scale"):
            quadratic_basis_matrix(points, np.zeros(2))

    @pytest.mark.parametrize("center", [None, np.array([0.5, -0.0])])
    def test_a_zero_scale_means_one(self, center):
        # Every point at the center: the largest distance from it is 0.
        points = np.array([[0.5, 0.0], [0.5, 0.0], [0.5, -0.0]])
        basis, got_center, got = quadratic_basis_matrix(points, center)
        assert got == 1.0
        assert basis.tobytes() == _loop_basis(points, got_center, 1.0).tobytes()

    def test_a_bad_center_raises_before_it_becomes_a_key(self, svd_calls):
        s_set, t_set = canonical_set(2, 1, 0.1)
        pts = nshc_points(np.zeros(2), s_set, t_set)
        first = model_gradient_constant(1.0, pts, np.zeros(2))
        before = len(svd_calls)
        for bad in (np.zeros(1), 0.0, np.zeros((1, 2))):
            with pytest.raises(ValueError, match="center"):
                interpolate_general(pts, np.ones(6), center=bad)
        assert model_gradient_constant(1.0, pts, np.zeros(2)) == first
        assert len(svd_calls) == before


class TestModelGradientConstantInputs:
    def _points(self):
        s_set, t_set = canonical_set(2, 1, 0.1)
        return nshc_points(np.zeros(2), s_set, t_set)

    @pytest.mark.parametrize("x0", [np.zeros(1), 0.0, np.zeros(3), np.zeros((2, 1))])
    def test_rejects_x0_of_another_shape(self, x0):
        # A shape-(1,) x0 used to broadcast and return a plausible constant.
        with pytest.raises(ValueError, match="R\\^2"):
            model_gradient_constant(1.0, self._points(), x0)

    @pytest.mark.parametrize("lipschitz", [np.nan, -1.0, -np.inf])
    def test_rejects_nan_or_negative_lipschitz(self, lipschitz):
        with pytest.raises(ValueError, match="lipschitz_hess must be nonnegative"):
            model_gradient_constant(lipschitz, self._points(), np.zeros(2))

    def test_raw_arrays_and_point_sets_agree(self):
        pts = self._points()
        x0 = np.array([0.01, -0.02])
        assert model_gradient_constant(2.0, pts.points.copy(), x0) == model_gradient_constant(
            2.0, pts, x0
        )

    def test_degenerate_points_still_raise_not_poised(self):
        line = np.array([[t, 0.0] for t in range(6)], dtype=float)
        with pytest.raises(NotPoisedError):
            model_gradient_constant(1.0, line, np.zeros(2))
