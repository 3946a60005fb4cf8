"""Composite Hessians without differentiating the composite.

When h = f*g, f/g or f^p, the rules assemble an estimate of the Hessian
of h from per-factor gradients and Hessians. Simplex mode uses simplex
gradients; quadratic mode swaps in interpolation-model gradients and is
exact whenever the factors are quadratics.
"""

import numpy as np

from nshess import EvaluationCache, StudyConfig, canonical_set, product_hessian, run_study

# f = x1^2 and g = x1*x2 at (1, 1): the product x1^3*x2 has Hessian
# [[6,3],[3,0]]. (With g = x2^2 the simplex gradients' first-order errors
# would cancel in the cross term, and the error would fall as beta^2.)
f = lambda x: float(x[0] ** 2)  # noqa: E731
g = lambda x: float(x[0] * x[1])  # noqa: E731
x0 = np.array([1.0, 1.0])
true = np.array([[6.0, 3.0], [3.0, 0.0]])

print("== product rule, both modes, shrinking radius ==")
print(f"{'beta':>8} {'simplex error':>15} {'quadratic error':>17}")
for beta in (1e-1, 1e-2, 1e-3):
    s_set, t_set = canonical_set(2, 1, beta)
    sc = product_hessian(EvaluationCache(f), EvaluationCache(g), x0, s_set, t_set, "simplex")
    qc = product_hessian(EvaluationCache(f), EvaluationCache(g), x0, s_set, t_set, "quadratic")
    print(f"{beta:8.0e} {np.linalg.norm(sc.hessian - true, 2):15.3e} "
          f"{np.linalg.norm(qc.hessian - true, 2):17.3e}")
print("simplex mode converges at first order; quadratic mode is exact here.")

print()
print("== the registry carries ready-made composites with certified parts ==")
for function, estimator in (
    ("product_cubes_exp", "product-sc"),
    ("quotient_cubes_exp", "quotient-qc"),
    ("power_cubes_2", "power-qc"),
):
    cfg = StudyConfig(
        function=function, dim=2, k=1, estimator=estimator,
        beta_start=1e-1, beta_ratio=0.1, beta_steps=3, seed=0,
    )
    report = run_study(cfg)
    ok = all(r.error_spec <= r.bound for r in report.rows)
    print(f"{function:20} {estimator:12} order {report.fitted_order:6.3f}   "
          f"errors under bounds: {ok}")

print()
print("== asymmetry is a diagnostic, not a defect ==")
# On generic direction sets the raw estimate of a symmetric Hessian is
# slightly asymmetric; the gap shrinks with the radius and symmetrize=True
# averages it away.
from nshess.sets import DirectionSet

rng = np.random.default_rng(2)
fn = lambda x: float(x[0] ** 3 * x[1] + np.exp(x[0]))  # noqa: E731
x0 = np.array([0.7, -0.4])
for beta in (1e-1, 1e-2):
    m1 = beta * (rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
    m2 = beta * (rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
    from nshess import nested_set_hessian

    res = nested_set_hessian(x0, DirectionSet(m1), DirectionSet(m2), EvaluationCache(fn))
    asym = np.linalg.norm(res.hessian - res.hessian.T, 2)
    print(f"beta = {beta:6.0e}   asymmetry of the raw estimate: {asym:.3e}")
