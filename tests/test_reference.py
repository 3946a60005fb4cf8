"""The behaviour contract: every estimate is the one a naive reference computes.

The reference uses no cache, fold, memo or held factor:

- it forms every grid cell as ``(x0 + s_i) + t_j``;
- it maps each cell, by a brute-force scan, to the first earlier cell of
  the same grid within ``dedup_tolerance(x0, S, T)``, and evaluates each
  cell it keeps once per byte key: a cache shared by several geometries is
  a dict of byte keys, so it merges only their bitwise-equal points;
- it takes ``linalg.pseudoinverse`` of fresh copies of ``S^T`` and ``T``.

F, H, the folded closed-form model, the model gradient and the rule
estimates must be bitwise the reference's, and ``distinct_count`` the
reference's point count, for canonical, folded, coincident and
overdetermined geometries, and for a scaled ``U_k`` that no fold map
recognises, whose cells meet up to rounding, on fresh and shared caches,
with cold and warm geometry. A read requests each distinct point of its
grid once, on every pair, and nothing when the record holds that cache's
read; the models after an estimate request nothing. Only the bound inputs
take another path: the library reads the singular values of S and T
divided by the radius, where the reference factors the normalized set
again, so each norm is held to ``4 * eps * kappa`` relative, ``kappa``
the condition number of the kept singular values.

Every drawn geometry keeps distinct points at least a direction's spacing
apart, far above the tolerance, while cells of one point differ by
rounding alone; "the first point within the tolerance" is then the same
whichever order coincident cells are resolved in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nshess import (
    BoundInputs,
    CalcMode,
    DirectionSet,
    EvaluationCache,
    NotPoisedError,
    PointSet,
    RuleGeometry,
    build_uk,
    canonical_set,
    dedup_tolerance,
    interpolate_general,
    interpolate_minimal,
    linalg,
    minimal_point_count,
    nested_set_hessian,
    product_hessian,
    quadratic_model_gradient,
    sets,
)

EPS = np.finfo(float).eps


def _f(x):
    return float(np.sum(x**3) + x[0] * np.sum(x) ** 2)


def _g(x):
    return float(np.exp(0.3 * np.sum(x)) + 0.5 * x[-1] ** 2)


class Reference:
    """An oracle's values with the cache written as a dict of byte keys."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.values: dict[bytes, float] = {}

    def value(self, x):
        key = x.tobytes()
        if key not in self.values:
            self.values[key] = float(self.oracle(x.copy()))
        return self.values[key]

    def read(self, x0, s, t):
        """F on the grid of ``(x0, S, T)``, the tolerance, the grid's own
        distinct points and their values, first-seen in row-major order, and
        each cell's position among them."""
        tol = dedup_tolerance(x0, DirectionSet(s), DirectionSet(t))
        values = np.empty((s.shape[1] + 1, t.shape[1] + 1))
        labels = np.empty(values.shape, dtype=np.intp)
        kept, kept_values = [], []
        for i in range(values.shape[0]):
            row = x0 if i == 0 else x0 + s[:, i - 1]
            for j in range(values.shape[1]):
                cell = row if j == 0 else row + t[:, j - 1]
                near = [a for a, p in enumerate(kept) if np.max(np.abs(p - cell)) <= tol]
                if not near:
                    kept.append(cell)
                    kept_values.append(self.value(cell))
                labels[i, j] = near[0] if near else len(kept) - 1
                values[i, j] = kept_values[labels[i, j]]
        return values, tol, np.array(kept), np.array(kept_values), labels


def _pinv(a):
    return linalg.pseudoinverse(np.array(a, copy=True))


def _hessian(s, t, values):
    d = values[1:, 1:] - values[1:, :1] - values[:1, 1:] + values[0, 0]
    return _pinv(s.T) @ d @ _pinv(t)


def _simplex_gradient(t, values):
    return _pinv(t.T) @ (values[0, 1:] - values[0, 0])


def _closed_form(x0, s, k, values):
    """The folded model: ``S^T H S = D E_k``, mapped back by solves with ``S^T``."""
    n = s.shape[0]
    d = values[1:, 1:] - values[1:, :1] - values[:1, 1:] + values[0, 0]
    e_k = np.eye(n)
    if k:
        e_k -= e_k[:, [k - 1]]
        e_k[:, k - 1] = -np.eye(n)[:, k - 1]
    hhat = d @ e_k
    hhat = np.triu(hhat) + np.triu(hhat, 1).T
    hessian = np.linalg.solve(s.T, np.linalg.solve(s.T, hhat).T).T
    hessian = 0.5 * (hessian + hessian.T)
    f0 = values[0, 0]
    abar = values[1:, 0] - f0 - 0.5 * np.diag(hhat) - x0 @ hessian @ s
    alpha = np.linalg.solve(s.T, abar)
    return f0 - alpha @ x0 - 0.5 * (x0 @ hessian @ x0), alpha, hessian


def _model_gradient(x0, kept, kept_values, tol):
    """The general interpolation through the grid's own points, or None."""
    if len(kept) != minimal_point_count(len(x0)):
        return None
    try:
        return interpolate_general(PointSet(kept, tol), kept_values, center=x0).gradient(x0)
    except NotPoisedError:
        return None


def _radius(m):
    return float(np.max(np.linalg.norm(m, axis=0)))


def _kappa(m):
    s = np.linalg.svd(m, compute_uv=False)
    s = s[s > linalg._cutoff(s, m.shape)]
    return float(s[0] / s[-1])


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _geometry(kind, n, rng):
    """``(S, T, k)``: ``k`` when T is built as ``U_k`` of S, else None."""
    beta = 10.0 ** rng.uniform(-4, 0)
    k = int(rng.integers(0, n + 1))
    if kind == "canonical":
        return (*canonical_set(n, k, beta), k)
    if kind == "folded":
        s_set = DirectionSet(beta * (np.eye(n) + 0.3 * rng.standard_normal((n, n))))
        return s_set, build_uk(s_set, k), k
    s = beta * rng.standard_normal((n, n + int(rng.integers(0, 3))))
    if kind == "coincident":  # T repeats columns of S: cells meet off the fold
        t = np.hstack([s[:, :n], beta * rng.standard_normal((n, 1))])
    else:  # overdetermined
        t = beta * rng.standard_normal((n, n + int(rng.integers(0, 3))))
    return DirectionSet(s), DirectionSet(t), None


def _check(x0, s_set, t_set, k, cache, ref, first_read):
    """One estimate, its models and its bound inputs against the reference."""
    s, t = s_set.matrix.copy(), t_set.matrix.copy()
    values, tol, kept, kept_values, _ = ref.read(x0, s, t)
    before = cache.total_requests
    res = nested_set_hessian(x0, s_set, t_set, cache)
    assert _same(res.values, values)
    assert _same(res.hessian, _hessian(s, t, values))
    assert (res.delta_u, res.delta_l) == (
        max(_radius(s), _radius(t)), min(_radius(s), _radius(t))
    )
    assert res.eval_count == cache.distinct_count == len(ref.values)
    if first_read:
        assert cache.total_requests - before == len(kept)
    else:  # the record holds this cache's read
        assert cache.total_requests == before

    # Every model reads the estimate's F: no request at all.
    before = cache.total_requests
    if k is not None:
        model = interpolate_minimal(x0, s_set, k, cache)
        alpha0, alpha, hessian = _closed_form(x0, s, k, values)
        assert _same(model.alpha0, alpha0) and _same(model.alpha, alpha)
        assert _same(model.hessian, 0.5 * (hessian + hessian.T))
    want = _model_gradient(x0, kept, kept_values, tol)
    if want is None:
        with pytest.raises(NotPoisedError):
            quadratic_model_gradient(cache, x0, s_set, t_set)
    else:
        grad, _, pts = quadratic_model_gradient(cache, x0, s_set, t_set)
        assert _same(grad, want) and _same(pts.points, kept) and pts.dedup_tol == tol
    assert cache.total_requests == before

    hess = BoundInputs.for_hessian(s_set, t_set, 2.0, 3.0)
    geometry = RuleGeometry.from_sets(s_set, t_set)
    s_hat, t_hat = s / _radius(s), t / _radius(t)
    tol_s, tol_t = 4 * EPS * _kappa(s), 4 * EPS * _kappa(t)
    norm = linalg.spectral_norm
    assert (hess.delta_s, hess.delta_t, hess.m, hess.k) == (
        _radius(s), _radius(t), s.shape[1], t.shape[1]
    )
    for got, want_norm, rel in [
        (hess.norm_s_pinv, norm(_pinv(s_hat.T)), tol_s),
        (hess.norm_t_pinv, norm(_pinv(t_hat)), tol_t),
        (geometry.norm_s_hat_pinv, norm(_pinv(s_hat.T)), tol_s),
        (geometry.norm_t_hat_pinv, norm(_pinv(t_hat)), tol_t),
        (geometry.norm_t_pinv, norm(_pinv(t.T)), tol_t),
    ]:
        assert got == pytest.approx(want_norm, rel=rel)
    return res.hessian


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_estimates_are_the_reference(data):
    n = data.draw(st.integers(1, 4), label="n")
    kind = data.draw(
        st.sampled_from(["canonical", "folded", "coincident", "overdetermined"]), label="kind"
    )
    shared = data.draw(st.booleans(), label="shared cache")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x0 = rng.uniform(-2.0, 2.0, n) * 10.0 ** rng.uniform(-1, 1)
    sets._canonical_pair.cache_clear()  # cold: every geometry is built afresh
    if kind == "canonical":  # every k, at one scale
        beta = 10.0 ** rng.uniform(-4, 0)
        geometries = [(*canonical_set(n, k, beta), k) for k in range(n + 1)]
    else:
        geometries = [_geometry(kind, n, rng) for _ in range(2)]

    cache, ref = EvaluationCache(_f), Reference(_f)
    cold = []
    for s_set, t_set, k in geometries:
        if not shared:
            cache, ref = EvaluationCache(_f), Reference(_f)
        cold.append(_check(x0, s_set, t_set, k, cache, ref, first_read=True))

    # Warm: the same sets again, holding their factors, U_k and grid
    # record; on the last cache the read is held, on a new one it is not.
    s_set, t_set, k = geometries[-1]
    again = _check(x0, s_set, t_set, k, cache, ref, first_read=False)
    fresh = _check(x0, s_set, t_set, k, EvaluationCache(_f), Reference(_f), first_read=True)
    assert _same(again, cold[-1]) and _same(fresh, cold[-1])
    # A new x0 on the warm sets and the last cache reads its own grid.
    _check(x0 + s_set.radius, s_set, t_set, k, cache, ref, first_read=True)


@pytest.mark.parametrize("n", [4, 10, 20])
def test_a_non_folded_grid_with_rounding_coincidences_is_the_reference(n):
    # T is U_k of a random S, scaled by beta, so it is not bitwise U_k of
    # the scaled S and no fold map applies: the record's own pass merges
    # the cells that differ by rounding alone, down to the minimal count.
    rng = np.random.default_rng(n)
    r, k, beta = np.eye(n) + 0.3 * rng.standard_normal((n, n)), n // 2, 1e-2
    s_set, t_set = DirectionSet(beta * r), DirectionSet(beta * sets._uk_matrix(r, k))
    assert sets._fold_k(s_set, t_set) is None
    x0 = rng.uniform(-1.0, 1.0, n)
    _, _, kept, _, labels = Reference(_f).read(x0, s_set.matrix.copy(), t_set.matrix.copy())
    record = sets._grid(x0, s_set, t_set)
    assert _same(record.points, kept) and _same(record.cls, labels)
    cache = EvaluationCache(_f)
    _check(x0, s_set, t_set, None, cache, Reference(_f), first_read=True)
    assert cache.total_requests == cache.distinct_count == minimal_point_count(n)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_rule_estimates_are_the_reference(data):
    n = data.draw(st.integers(1, 4), label="n")
    kind = data.draw(st.sampled_from(["canonical", "folded", "overdetermined"]), label="kind")
    mode = data.draw(st.sampled_from(list(CalcMode)), label="mode")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if mode is CalcMode.QUADRATIC and kind == "overdetermined":
        kind = "folded"  # the model needs a minimal grid
    s_set, t_set, _ = _geometry(kind, n, rng)
    x0 = rng.uniform(-1.0, 1.0, n)
    s, t = s_set.matrix.copy(), t_set.matrix.copy()

    gradients, hessians, f0 = [], [], []
    for oracle in (_f, _g):
        values, tol, kept, kept_values, _ = Reference(oracle).read(x0, s, t)
        hessians.append(_hessian(s, t, values))
        f0.append(values[0, 0])
        if mode is CalcMode.SIMPLEX:
            gradients.append(_simplex_gradient(t, values))
        else:
            gradients.append(_model_gradient(x0, kept, kept_values, tol))
    (hf, hg), (gf, gg), (f_0, g_0) = hessians, gradients, f0
    want = hf * g_0 + np.outer(gf, gg) + np.outer(gg, gf) + hg * f_0

    for _ in range(2):  # cold, then warm on the same sets and new caches
        f_cache, g_cache = EvaluationCache(_f), EvaluationCache(_g)
        res = product_hessian(f_cache, g_cache, x0, s_set, t_set, mode)
        assert _same(res.hessian, want)
        assert (res.delta_u, res.delta_l) == (
            max(_radius(s), _radius(t)), min(_radius(s), _radius(t))
        )
        # One read of each value, in the same requests as a lone estimate.
        for cache, oracle in ((f_cache, _f), (g_cache, _g)):
            lone = EvaluationCache(oracle)
            nested_set_hessian(x0, DirectionSet(s), DirectionSet(t), lone)
            assert cache.total_requests == lone.total_requests
            assert cache.distinct_count == lone.distinct_count
        assert res.eval_count == f_cache.distinct_count + g_cache.distinct_count
