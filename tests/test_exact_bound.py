"""The paper's Hessian bound checked in exact arithmetic.

A floating-point estimate carries three errors at once: truncation, which
the bound covers, and the rounding of the sample points and of the values.
Here the polynomial registry entries are evaluated in ``fractions.Fraction``
at exact points ``x0 + s_i + t_j``, and the nested-set Hessian
``(S S^T)^-1 S D T^T (T T^T)^-1`` is formed in rationals, so only the
truncation error is left. It must lie within ``error_bound_nsh`` under the
registry's certificates, for every β down to 1e-12.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nshess import DirectionSet, canonical_set, make_function
from nshess.bounds import BoundInputs, error_bound_nsh

FUNCTIONS = ("quadratic", "sum_of_cubes", "rosenbrock")


def _exact(a) -> list:
    """A float array as nested lists of the Fractions its entries are."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return [Fraction(float(v)) for v in a]
    return [_exact(row) for row in a]


def _rational_function(name, fn):
    """``(f, hessian)`` of registry entry ``fn`` on lists of Fractions."""
    if name == "quadratic":
        n = fn.dim
        h = _exact(fn.hessian(np.zeros(n)))
        b = _exact(fn.gradient(np.zeros(n)))  # h.0 + b
        c = Fraction(fn.oracle(np.zeros(n)))

        def f(x):
            hx = [sum(hij * xj for hij, xj in zip(row, x)) for row in h]
            quadratic = sum(xi * v for xi, v in zip(x, hx)) / 2
            return quadratic + sum(bi * xi for bi, xi in zip(b, x)) + c

        return f, lambda x: h
    if name == "sum_of_cubes":
        return (
            lambda x: sum(xi**3 for xi in x),
            lambda x: [[6 * xi if i == j else Fraction(0) for j in range(len(x))]
                       for i, xi in enumerate(x)],
        )

    def rosenbrock(x):
        return sum(100 * (b - a * a) ** 2 + (1 - a) ** 2 for a, b in zip(x, x[1:]))

    def rosenbrock_hessian(x):
        n = len(x)
        h = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n - 1):
            h[i][i] += 1200 * x[i] ** 2 - 400 * x[i + 1] + 2
            h[i + 1][i + 1] += 200
            h[i][i + 1] -= 400 * x[i]
            h[i + 1][i] -= 400 * x[i]
        return h

    return rosenbrock, rosenbrock_hessian


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _solve(a, b):
    """``a^-1 b`` for a nonsingular square ``a``, by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        lead = rows[c][c]
        rows[c] = [v / lead for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def rational_nested_set_hessian(f, x0, s, t):
    """``(S S^T)^-1 S D T^T (T T^T)^-1`` in Fractions, for full-row-rank S and T.

    ``D[i][j] = f(x0 + s_i + t_j) - f(x0 + s_i) - f(x0 + t_j) + f(x0)``
    at exact points; ``s`` and ``t`` are n-by-m and n-by-k.
    """
    cols_s, cols_t = _transpose(s), _transpose(t)
    f0 = f(x0)
    fs = [f([a + b for a, b in zip(x0, si)]) for si in cols_s]
    ft = [f([a + b for a, b in zip(x0, tj)]) for tj in cols_t]
    d = [
        [f([a + b + c for a, b, c in zip(x0, si, tj)]) - fsi - ftj + f0
         for tj, ftj in zip(cols_t, ft)]
        for si, fsi in zip(cols_s, fs)
    ]
    pinv_s_t = _solve(_matmul(s, cols_s), s)  # pinv(S^T) = (S S^T)^-1 S
    pinv_t = _transpose(_solve(_matmul(t, cols_t), t))  # pinv(T) = T^T (T T^T)^-1
    return _matmul(_matmul(pinv_s_t, d), pinv_t)


def _geometry(kind, n, m, k, beta, rng):
    if kind == "canonical":
        return canonical_set(n, int(rng.integers(0, n + 1)), beta)
    s = rng.standard_normal((n, m))
    t = rng.standard_normal((n, k))
    s *= beta / np.linalg.norm(s, axis=0).max()
    t *= beta * rng.uniform(0.5, 1.0) / np.linalg.norm(t, axis=0).max()
    return DirectionSet(s), DirectionSet(t)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_the_rational_evaluator_is_the_registry_function(name):
    rng = np.random.default_rng(5)
    fn = make_function(name, 3, seed=2)
    f, hessian = _rational_function(name, fn)
    for x in rng.uniform(-1.5, 1.5, (5, 3)):
        want = fn.oracle(x)
        assert abs(float(f(_exact(x))) - want) <= 1e-13 * (1.0 + abs(want))
        got = np.array([[float(v) for v in row] for row in hessian(_exact(x))])
        np.testing.assert_allclose(got, fn.hessian(x), rtol=1e-13, atol=1e-12)


def test_the_rational_estimate_is_exact_on_a_quadratic():
    fn = make_function("quadratic", 3, seed=1)
    f, hessian = _rational_function("quadratic", fn)
    s = _exact(0.1 * np.eye(3))
    t = _exact(np.random.default_rng(0).standard_normal((3, 4)))
    x0 = _exact([0.3, -0.7, 0.2])
    assert rational_nested_set_hessian(f, x0, s, t) == hessian(x0)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(FUNCTIONS),
    kind=st.sampled_from(["canonical", "random"]),
    n=st.integers(2, 3),
    extra=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    exponent=st.floats(-12.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_error_within_the_nested_set_bound(name, kind, n, extra, exponent, seed):
    rng = np.random.default_rng(seed)
    beta = 10.0**exponent
    s_set, t_set = _geometry(kind, n, n + extra[0], n + extra[1], beta, rng)
    x0 = rng.uniform(-1.0, 1.0, n)
    # Every sample point lies within δ_S + δ_T <= 2β of x0, inside the ball.
    fn = make_function(name, n, seed=int(rng.integers(0, 100)), x0=x0, ball_radius=1.0)
    f, hessian = _rational_function(name, fn)
    x0_exact = _exact(x0)
    estimate = rational_nested_set_hessian(f, x0_exact, _exact(s_set.matrix), _exact(t_set.matrix))
    error_fro2 = sum(
        (e - h) ** 2 for re, rh in zip(estimate, hessian(x0_exact)) for e, h in zip(re, rh)
    )
    bound = error_bound_nsh(
        BoundInputs.for_hessian(s_set, t_set, fn.lipschitz_grad, fn.lipschitz_hess)
    )
    # The spectral error is at most the Frobenius error, compared here exactly.
    assert error_fro2 <= Fraction(bound) ** 2
