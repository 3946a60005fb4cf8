"""Every estimator's base point and every poisedness decision is checked once.

A base point x0 is checked where it first meets arithmetic: the grid
record's :func:`~nshess.sets.sample_grid` and the simplex read. A bad x0
raises the same ``ValueError`` from every entry point, before any request
and with no ``RuntimeWarning``, and leaves every held record in place.
Poisedness is decided by one method of :class:`~nshess.sets.PointSet`, so
every reader of a quadratic basis refuses a point count that cannot
determine a quadratic.
"""

import numpy as np
import pytest

from nshess import (
    EvaluationCache,
    NotPoisedError,
    PointSet,
    canonical_set,
    delta_f,
    interpolate_general,
    interpolate_minimal,
    is_poised_quadratic,
    model_gradient_constant,
    nested_set_hessian,
    nshc_points,
    quadratic_model_gradient,
    simplex_gradient,
)

ENTRY_POINTS = {
    "nested_set_hessian": lambda x0, s, t, cache: nested_set_hessian(x0, s, t, cache),
    "interpolate_minimal": lambda x0, s, t, cache: interpolate_minimal(x0, s, 1, cache),
    "quadratic_model_gradient": lambda x0, s, t, cache: quadratic_model_gradient(cache, x0, s, t),
    "nshc_points": lambda x0, s, t, cache: nshc_points(x0, s, t),
    "simplex_gradient": lambda x0, s, t, cache: simplex_gradient(x0, t, cache),
    "delta_f": lambda x0, s, t, cache: delta_f(x0, t, cache),
}

BAD_BASE_POINTS = {
    "inf": [np.inf, 1.0],
    "-inf": [1.0, -np.inf],
    "nan": [np.nan, 1.0],
    "R^3": [1.0, 1.0, 1.0],
    "R^1": [1.0],
    "2-D": [[1.0, 1.0]],
    "scalar": 1.0,
}

# The simplex read has no outer set, so its error names T alone.
X0_ERROR = (
    r"^x0 must be a finite 1-D point in the dimension of each set \((S in R\^2, )?T in R\^2\); got"
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", BAD_BASE_POINTS.values(), ids=BAD_BASE_POINTS.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_a_bad_base_point_raises_one_error_and_leaves_the_records(entry, bad):
    s_set, t_set = canonical_set(2, 1, 0.1)
    held = nshc_points(np.ones(2), s_set, t_set)
    cache = EvaluationCache(lambda x: float(np.sum(x**2)))
    with pytest.raises(ValueError, match=X0_ERROR):
        entry(np.array(bad, dtype=float), s_set, t_set, cache)
    assert cache.total_requests == 0
    assert nshc_points(np.ones(2), s_set, t_set) is held
    entry(np.ones(2), s_set, t_set, cache)


def test_the_error_names_each_dimension():
    s_set, _ = canonical_set(2, 0, 0.1)
    _, t_set = canonical_set(3, 0, 0.1)
    with pytest.raises(ValueError, match=r"\(S in R\^2, T in R\^3\); got shape \(2,\)$"):
        nshc_points(np.zeros(2), s_set, t_set)


def _poised_six():
    s_set, t_set = canonical_set(2, 1, 1.0)
    return nshc_points(np.zeros(2), s_set, t_set).points


@pytest.mark.parametrize("count", [5, 7])
def test_the_model_gradient_constant_needs_a_minimal_set(count):
    # The count was never checked, so 5 points in R^2 gave a "certificate"
    # of 191.86 and 7 points one of 1598.2.
    six = _poised_six()
    points = six[:5] if count == 5 else np.vstack([six, [[0.3, -0.7]]])
    for given in (points, PointSet(points)):
        with pytest.raises(NotPoisedError, match="exactly 6"):
            model_gradient_constant(1.0, given, np.zeros(2))


def test_every_reader_refuses_a_count_with_the_same_error():
    points = PointSet(_poised_six()[:5])
    with pytest.raises(NotPoisedError, match="exactly 6") as poised:
        is_poised_quadratic(points)
    with pytest.raises(NotPoisedError, match="exactly 6") as general:
        interpolate_general(points, np.zeros(5))
    with pytest.raises(NotPoisedError, match="exactly 6") as constant:
        model_gradient_constant(1.0, points, np.zeros(2))
    assert str(poised.value) == str(general.value) == str(constant.value)
