"""Acceptance suite: one test per advertised guarantee.

Each test prints a single PASS line with the measured quantity once its
assertions hold, so a verbose run reads as a checklist. Tolerances are the
published ones, not relaxed copies.
"""

import re
import runpy
import time
from pathlib import Path

import numpy as np
import pytest

from nshess import (
    BoundInputs,
    EvaluationCache,
    PointSet,
    StudyConfig,
    build_uk,
    canonical_set,
    error_bound_canonical,
    error_bound_nsh,
    interpolate_general,
    interpolate_minimal,
    is_minimal_nshc,
    is_poised_quadratic,
    make_function,
    minimal_point_count,
    nested_set_hessian,
    nshc_points,
    power_hessian,
    product_hessian,
    pseudoinverse,
    quotient_hessian,
    run_study,
)
from nshess.sets import DirectionSet


def random_quadratic(rng, n, scale=3.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    h = 0.5 * (a + a.T)
    b = rng.uniform(-scale, scale, size=n)
    c = float(rng.uniform(-scale, scale))
    return (lambda x: float(0.5 * x @ h @ x + b @ x + c)), h, b


def test_c1_quadratic_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    combos = [(n, k) for n in range(2, 7) for k in range(0, n + 1)]
    trials = 0
    worst = 0.0
    while trials < 100:
        n, k = combos[trials % len(combos)]
        oracle, h_true, _ = random_quadratic(rng, n, scale=5.0)
        x0 = rng.uniform(-1.0, 1.0, size=n)
        s_set, t_set = canonical_set(n, k, 0.1)
        res = nested_set_hessian(x0, s_set, t_set, EvaluationCache(oracle))
        err = np.linalg.norm(res.hessian - h_true, "fro")
        tol = 1e-8 * (1.0 + np.linalg.norm(h_true, "fro"))
        assert err <= tol, f"n={n} k={k}: {err} > {tol}"
        worst = max(worst, err)
        trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS quadratic exactness: 100 trials, worst error {worst:.3e}, {elapsed:.2f}s")


def test_c2_evaluation_economy():
    for n in range(1, 9):
        for k in range(0, n + 1):
            s_set, t_set = canonical_set(n, k, 0.1)
            x0 = np.linspace(-0.5, 0.5, n)
            cache = EvaluationCache(lambda x: float(np.sum(x**2) + np.sum(x)))
            nested_set_hessian(x0, s_set, t_set, cache)
            interpolate_minimal(x0, s_set, k, cache)
            assert cache.distinct_count == minimal_point_count(n), (
                f"n={n} k={k}: {cache.distinct_count} distinct evaluations"
            )

    s_set, t_set = canonical_set(2, 2, 1.0)
    pts = nshc_points(np.zeros(2), s_set, t_set)
    listed = {(0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, -1.0), (1.0, 0.0), (2.0, -1.0)}
    assert {tuple(np.round(p, 12)) for p in pts} == listed
    print("PASS evaluation economy: (n+1)(n+2)/2 evaluations for n=1..8, worked grid matches")


def test_c3_first_order_accuracy_with_certified_bounds():
    start = time.perf_counter()
    slopes = {}
    for name in ("sum_of_cubes", "exp_of_sum"):
        cfg = StudyConfig(
            function=name, dim=3, k=1, estimator="nested-set",
            beta_start=1e-1, beta_ratio=0.1, beta_steps=4, seed=0,
        )
        rep = run_study(cfg)
        assert rep.fitted_order is not None
        assert 0.9 <= rep.fitted_order <= 2.1, f"{name}: order {rep.fitted_order}"
        assert all(r.error_spec <= r.bound for r in rep.rows), f"{name}: bound violated"
        slopes[name] = rep.fitted_order
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    print(f"PASS order-1 accuracy: slopes {detail}, bounds hold, {elapsed:.2f}s")


def test_c4_canonical_bound_constants():
    for n in range(1, 9):
        for lip in (0.5, 6.0, 123.0):
            for beta in (1e-1, 1e-3):
                expected0 = (5.0 / 3.0) * n**1.5 * lip * beta
                np.testing.assert_allclose(
                    error_bound_canonical(n, 0, beta, lip), expected0, rtol=1e-12
                )
                for k in range(1, n + 1):
                    expected = 5.5 * n**2 * lip * beta
                    np.testing.assert_allclose(
                        error_bound_canonical(n, k, beta, lip), expected, rtol=1e-12
                    )

    certified = ["quadratic", "sum_of_cubes", "exp_of_sum", "rosenbrock", "product_quadratics"]
    checked = 0
    for name in certified:
        for k in (0, 2):
            for beta in (1e-1, 1e-2):
                s_set, t_set = canonical_set(3, k, beta)
                ball = 1.5 * (s_set.radius + t_set.radius)
                fn = make_function(name, 3, seed=1, ball_radius=ball)
                x0 = np.asarray(fn.base_point, dtype=float)
                res = nested_set_hessian(x0, s_set, t_set, EvaluationCache(fn.oracle))
                h_true = fn.hessian(x0)
                err = np.linalg.norm(res.hessian - h_true, 2)
                # The bound is an exact-arithmetic statement; allow only
                # eps-scale roundoff on top of it.
                floor = 1e-12 * (1.0 + np.linalg.norm(h_true, 2))
                assert err <= error_bound_canonical(3, k, beta, fn.lipschitz_hess) + floor, (
                    f"{name} k={k} beta={beta}"
                )
                checked += 1
    print(f"PASS canonical constants: closed forms to 1e-12, {checked} measured errors below them")


def test_c5_minimal_model_matches_general_solver():
    rng = np.random.default_rng(55)
    combos = [(n, k) for n in range(1, 6) for k in range(0, n + 1)]
    trials = 0
    worst = 0.0
    while trials < 50:
        n, k = combos[trials % len(combos)]
        coeff = rng.uniform(-2.0, 2.0, size=n)
        oracle = (
            lambda x, c=coeff: float(np.sum(c * x**3) + np.exp(0.3 * np.sum(x)))
        )
        x0 = rng.uniform(-0.5, 0.5, size=n)
        s_set, _ = canonical_set(n, k, 0.2)
        cache = EvaluationCache(oracle)
        minimal = interpolate_minimal(x0, s_set, k, cache)
        pts = nshc_points(x0, s_set, build_uk(s_set, k))
        values = np.array([cache.evaluate(p) for p in pts])
        general = interpolate_general(pts, values)
        for got, want in (
            (minimal.alpha0, general.alpha0),
            (minimal.alpha, general.alpha),
            (minimal.hessian, general.hessian),
        ):
            gap = np.max(np.abs(np.asarray(got) - np.asarray(want)))
            scale = 1.0 + np.max(np.abs(np.asarray(want)))
            assert gap <= 1e-10 * scale, f"n={n} k={k}: {gap} vs scale {scale}"
            worst = max(worst, gap / scale)
        trials += 1
    print(f"PASS closed form vs general solver: 50 trials, worst relative gap {worst:.3e}")


def test_c6_poisedness_and_minimality():
    rng = np.random.default_rng(66)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(0, n + 1))
        s = rng.standard_normal((n, n))
        while abs(np.linalg.det(s)) < 0.3:
            s = rng.standard_normal((n, n))
        s_set = DirectionSet(0.5 * s)
        t_set = build_uk(s_set, k)
        pts = nshc_points(np.zeros(n), s_set, t_set)
        assert len(pts) == minimal_point_count(n)
        assert is_poised_quadratic(pts)

    cross = PointSet(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])
    )
    assert is_poised_quadratic(cross)
    assert not is_minimal_nshc(cross, np.zeros(2))

    base_s, base_t = canonical_set(2, 2, 1.0)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        while abs(np.linalg.det(a)) < 0.2:
            a = rng.standard_normal((2, 2))
        p1 = np.eye(2)[rng.permutation(2)]
        p2 = np.eye(2)[rng.permutation(2)]
        moved = nshc_points(
            np.zeros(2),
            DirectionSet(a @ base_s.matrix @ p1),
            DirectionSet(a @ base_t.matrix @ p2),
        )
        assert len(moved) == 6
        assert is_minimal_nshc(moved, np.zeros(2))
    print("PASS poisedness and minimality: folded grids poised, cross counterexample, 20 transforms")


def test_c7_calculus_exactness_and_bounds():
    rng = np.random.default_rng(77)

    worst_qc = 0.0
    for trial in range(12):
        n = 2 + trial % 2
        f, hf, bf = random_quadratic(rng, n, scale=2.0)
        g, hg, bg = random_quadratic(rng, n, scale=2.0)
        x0 = rng.uniform(-0.5, 0.5, size=n)
        s_set, t_set = canonical_set(n, 1, 0.05)

        f0, g0 = f(x0), g(x0)
        gf, gg = hf @ x0 + bf, hg @ x0 + bg

        true_prod = g0 * hf + f0 * hg + np.outer(gf, gg) + np.outer(gg, gf)
        got = product_hessian(
            EvaluationCache(f), EvaluationCache(g), x0, s_set, t_set, mode="quadratic"
        ).hessian
        worst_qc = max(worst_qc, np.max(np.abs(got - true_prod)))
        assert np.max(np.abs(got - true_prod)) <= 1e-7

        if abs(g0) >= 0.5:
            true_quot = (
                g0 * g0 * hf - f0 * g0 * hg
                + 2.0 * f0 * np.outer(gg, gg)
                - g0 * (np.outer(gf, gg) + np.outer(gg, gf))
            ) / g0**3
            got = quotient_hessian(
                EvaluationCache(f), EvaluationCache(g), x0, s_set, t_set, mode="quadratic"
            ).hessian
            worst_qc = max(worst_qc, np.max(np.abs(got - true_quot)))
            assert np.max(np.abs(got - true_quot)) <= 1e-7

        for p in (2, 3):
            cross = 1.0 if p == 2 else f0 ** (p - 2)
            true_pow = p * f0 ** (p - 1) * hf + p * (p - 1) * cross * np.outer(gf, gf)
            got = power_hessian(
                EvaluationCache(f), x0, s_set, t_set, p=p, mode="quadratic"
            ).hessian
            worst_qc = max(worst_qc, np.max(np.abs(got - true_pow)))
            assert np.max(np.abs(got - true_pow)) <= 1e-7

    worst_sc = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        bf = rng.uniform(-2.0, 2.0, size=n)
        bg = rng.uniform(-2.0, 2.0, size=n)
        f = lambda x, b=bf: float(b @ x + 1.0)  # noqa: E731
        g = lambda x, b=bg: float(b @ x - 0.5)  # noqa: E731
        x0 = rng.uniform(-1.0, 1.0, size=n)
        s_set, t_set = canonical_set(n, 0, 0.1)
        true = np.outer(bf, bg) + np.outer(bg, bf)
        got = product_hessian(
            EvaluationCache(f), EvaluationCache(g), x0, s_set, t_set, mode="simplex"
        ).hessian
        worst_sc = max(worst_sc, np.max(np.abs(got - true)))
        assert np.max(np.abs(got - true)) <= 1e-8

    pairs = [
        ("product_cubes_exp", "product-sc"),
        ("product_cubes_exp", "product-qc"),
        ("quotient_cubes_exp", "quotient-sc"),
        ("quotient_cubes_exp", "quotient-qc"),
        ("power_cubes_2", "power-sc"),
        ("power_cubes_2", "power-qc"),
    ]
    for function, estimator in pairs:
        cfg = StudyConfig(
            function=function, dim=2, k=1, estimator=estimator,
            beta_start=1e-1, beta_ratio=0.1, beta_steps=3, seed=0,
        )
        rep = run_study(cfg)
        assert all(r.error_spec <= r.bound for r in rep.rows), f"{estimator} bound violated"
    print(
        "PASS calculus exactness: qc worst "
        f"{worst_qc:.3e}, sc affine worst {worst_sc:.3e}, composite bounds hold"
    )


def test_c8_pseudoinverse_properties():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = rng.uniform(-5.0, 5.0, size=(rows, cols))
        if rng.uniform() < 0.2:
            a[:, rng.integers(0, cols)] = 0.0
        p = pseudoinverse(a)
        na, np_ = np.linalg.norm(a), np.linalg.norm(p)
        checks = [
            (np.linalg.norm(a @ p @ a - a), max(na, 1e-30)),
            (np.linalg.norm(p @ a @ p - p), max(np_, 1e-30)),
            (np.linalg.norm((a @ p).T - a @ p), max(na * np_, 1e-30)),
            (np.linalg.norm((p @ a).T - p @ a), max(na * np_, 1e-30)),
        ]
        for gap, scale in checks:
            assert gap <= 1e-10 * scale
            worst = max(worst, gap / scale)

    for n in range(2, 7):
        _, t_set = canonical_set(n, n, 1.0)
        e_hat = t_set.normalized().matrix
        np.testing.assert_allclose(pseudoinverse(e_hat), 2.0 * e_hat, atol=1e-13)
    print(f"PASS pseudoinverse: 1000 Penrose checks, worst residual {worst:.3e}, doubling identity")


DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo, pattern, want",
    [
        ("01_simplex_gradient.py", r"evals = (\d+)", ["3"] * 4),
        ("02_nested_hessian_economy.py", r"(\d+) distinct points", ["6", "9"]),
        (
            "02_nested_hessian_economy.py",
            r"k = 0\.\.\d+: (\[[\d, ]+\])",
            [str([6] * 3), str([15] * 5), str([28] * 7)],
        ),
        ("02_nested_hessian_economy.py", r"distinct evals: (\d+)", ["10"]),
        ("04_quadratic_models.py", r"evals (?:for the Hessian|after adding the model): +(\d+)",
         ["6", "6"]),
    ],
)
def test_c9_demo_evaluation_counts(demo, pattern, want, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    got = re.findall(pattern, capsys.readouterr().out)
    assert got == want
    print(f"PASS {demo} counts: {', '.join(got)}")
