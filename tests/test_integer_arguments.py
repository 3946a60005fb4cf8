"""Counts such as ``n``, ``k``, ``dim`` and ``beta_steps`` are checked as integers.

A float equal to an integer used to pass some entry points and fail others,
and a memo could answer it once the integer key was stored, because
``1.0 == 1``. Every entry point now takes its counts through
``operator.index``: numpy integers pass, anything else raises a
``ValueError`` naming the argument, the same on every call.
"""

import numpy as np
import pytest

from nshess import (
    DirectionSet,
    StudyConfig,
    build_uk,
    canonical_set,
    error_bound_canonical,
    minimal_point_count,
    run_study,
    sets,
)
from nshess.sets import fold_index


def _raises_every_time(call, name, times=3):
    for _ in range(times):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()


class TestCanonicalSet:
    def setup_method(self):
        sets._canonical_pair.cache_clear()

    @pytest.mark.parametrize("args, name", [((3, 1.0), "k"), ((3.0, 1), "n"), ((3, 2.0), "k")])
    def test_a_float_count_raises_cold_and_after_its_integer_is_memoized(self, args, name):
        _raises_every_time(lambda: canonical_set(*args, 0.1), name)
        canonical_set(int(args[0]), int(args[1]), 0.1)
        _raises_every_time(lambda: canonical_set(*args, 0.1), name)
        assert sets._canonical_pair.cache_info().currsize == 1

    def test_numpy_integers_share_the_plain_int_memo_entry(self):
        pair = canonical_set(3, 1, 0.1)
        assert canonical_set(np.int64(3), np.int32(1), 0.1) == pair
        assert sets._canonical_pair.cache_info().currsize == 1


class TestFoldIndex:
    def test_a_float_k_raises_before_and_after_the_memo_holds_its_integer(self):
        _raises_every_time(lambda: fold_index(3, 1.0), "k")
        cls, _ = fold_index(3, 1)
        _raises_every_time(lambda: fold_index(3, 1.0), "k")
        _raises_every_time(lambda: fold_index(3.0, 1), "n")
        assert fold_index(np.int64(3), np.int64(1))[0] is cls


class TestBuildUk:
    def test_a_float_k_raises(self):
        s_set = DirectionSet(0.1 * np.eye(3))
        _raises_every_time(lambda: build_uk(s_set, 1.0), "k")
        u_set = build_uk(s_set, 1)
        _raises_every_time(lambda: build_uk(s_set, 1.0), "k")
        assert build_uk(s_set, np.int64(1)) is u_set


class TestCounts:
    def test_minimal_point_count_takes_integers_only(self):
        _raises_every_time(lambda: minimal_point_count(2.5), "n")
        _raises_every_time(lambda: minimal_point_count(3.0), "n")
        count = minimal_point_count(np.int64(3))
        assert count == 10 and type(count) is int

    def test_error_bound_canonical_takes_integer_n_and_k(self):
        _raises_every_time(lambda: error_bound_canonical(3, 1.5, 0.1, 1.0), "k")
        _raises_every_time(lambda: error_bound_canonical(3.0, 1, 0.1, 1.0), "n")
        assert error_bound_canonical(np.int64(3), np.int64(1), 0.1, 1.0) == error_bound_canonical(
            3, 1, 0.1, 1.0
        )


class TestStudyConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("k", 1.0), ("k", 2.0), ("dim", 3.0), ("beta_steps", 3.0), ("beta_steps", 2.5)],
    )
    def test_a_float_count_raises_before_any_scale(self, field, value):
        config = StudyConfig("sum_of_cubes", 3, k=1, beta_steps=3)
        setattr(config, field, value)
        _raises_every_time(lambda: run_study(config), field, times=2)

    def test_numpy_integers_run_as_plain_ones(self):
        plain = run_study(StudyConfig("sum_of_cubes", 3, k=2, beta_steps=3))
        numpy = run_study(
            StudyConfig("sum_of_cubes", np.int64(3), k=np.int64(2), beta_steps=np.int64(3))
        )
        assert numpy.rows == plain.rows
