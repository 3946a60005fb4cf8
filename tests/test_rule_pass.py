"""One pass per factor for rule estimates.

A rule row estimates each factor's Hessian, value and mode gradient once,
and its certificate reads those same numbers. The references below are
built the way a row was built before the factor records existed: the
public rule function first, then every factor's gradient again for the
bound.
"""

import numpy as np
import pytest

import nshess.calculus as calculus
import nshess.study as study
from nshess import (
    CalcMode,
    EvaluationCache,
    RuleBoundInputs,
    RuleFunctionData,
    RuleGeometry,
    StudyConfig,
    calculus_error_bound,
    linalg,
    make_function,
    model_gradient_constant,
    power_hessian,
    product_hessian,
    quadratic_model_gradient,
    quotient_hessian,
    run_study,
    simplex_gradient,
)
from nshess.study import approximate_once

FUNCTIONS = {
    "product": "product_cubes_exp",
    "quotient": "quotient_cubes_exp",
    "power": "power_cubes_2",
}
ESTIMATORS = [f"{rule}-{mode}" for rule in FUNCTIONS for mode in ("sc", "qc")]


def _config(estimator, n, k, **kw):
    rule = estimator.split("-")[0]
    return StudyConfig(function=FUNCTIONS[rule], dim=n, k=k, estimator=estimator,
                       beta_start=0.05, beta_steps=1, seed=2, **kw)


def _parts(fn):
    return [fn.f] if fn.rule == "power" else [fn.f, fn.g]


def _reference(config):
    """Estimate, bound and evaluation count of one row, built the old way."""
    beta = config.beta_start
    s_set, t_set = config.sets_at(beta)
    fn = make_function(config.function, config.dim, seed=config.seed,
                       ball_radius=1.5 * (s_set.radius + t_set.radius))
    x0 = np.asarray(fn.base_point, dtype=float)
    mode = CalcMode.SIMPLEX if config.estimator.endswith("-sc") else CalcMode.QUADRATIC
    caches = [EvaluationCache(p.oracle) for p in _parts(fn)]
    if fn.rule == "product":
        res = product_hessian(caches[0], caches[1], x0, s_set, t_set, mode)
    elif fn.rule == "quotient":
        res = quotient_hessian(caches[0], caches[1], x0, s_set, t_set, mode)
    else:
        res = power_hessian(caches[0], x0, s_set, t_set, fn.power, mode)
    datas = []
    for part, cache in zip(_parts(fn), caches):
        data = RuleFunctionData(
            value=cache.evaluate(x0),
            lipschitz_grad=part.lipschitz_grad,
            lipschitz_hess=part.lipschitz_hess,
            grad_norm=float(np.linalg.norm(part.gradient(x0))),
        )
        if mode is CalcMode.SIMPLEX:
            data.approx_grad_norm = float(
                np.linalg.norm(simplex_gradient(x0, t_set, cache).gradient)
            )
        else:
            grad, _, pts = quadratic_model_gradient(cache, x0, s_set, t_set)
            data.approx_grad_norm = float(np.linalg.norm(grad))
            data.model_grad_constant = model_gradient_constant(part.lipschitz_hess, pts, x0)
        datas.append(data)
    geometry = RuleGeometry.from_sets(s_set, t_set)
    if fn.rule == "power":
        inputs = RuleBoundInputs(f=datas[0], geometry=geometry, power=fn.power)
    else:
        inputs = RuleBoundInputs(f=datas[0], geometry=geometry, g=datas[1])
    bound = calculus_error_bound(fn.rule, mode, inputs)
    diff = res.hessian - fn.hessian(x0)
    return {
        "hessian": res.hessian,
        "bound": bound,
        "evals": sum(c.distinct_count for c in caches),
        "error_spec": linalg.spectral_norm(diff),
        "error_fro": linalg.frobenius_norm(diff),
    }


def _count(monkeypatch, name):
    """Count calls of ``calculus.<name>`` through every module that binds it."""
    calls = []
    real = getattr(calculus, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in (calculus, study):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestCallCounts:
    @pytest.mark.parametrize("estimator", ["product-qc", "quotient-qc", "power-qc"])
    def test_quadratic_mode_builds_one_model_per_factor(self, monkeypatch, estimator):
        counters = [
            _count(monkeypatch, name)
            for name in ("quadratic_model_gradient", "nshc_points", "interpolate_general")
        ]
        factors = 1 if estimator.startswith("power") else 2
        run_study(_config(estimator, 4, 1))
        assert [len(c) for c in counters] == [factors] * 3

    @pytest.mark.parametrize("estimator", ["product-sc", "quotient-sc", "power-sc"])
    def test_simplex_mode_takes_one_gradient_per_factor(self, monkeypatch, estimator):
        simplex = _count(monkeypatch, "simplex_gradient")
        model = _count(monkeypatch, "quadratic_model_gradient")
        factors = 1 if estimator.startswith("power") else 2
        approximate_once(_config(estimator, 4, 2))
        assert (len(simplex), len(model)) == (factors, 0)


class TestBitwiseEquality:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("k_sel", ["zero", "one", "n"])
    def test_row_and_payload_match_the_two_pass_reference(self, estimator, n, k_sel):
        k = {"zero": 0, "one": 1, "n": n}[k_sel]
        config = _config(estimator, n, k)
        ref = _reference(config)
        (row,) = run_study(config).rows
        assert (row.error_spec, row.error_fro, row.bound, row.evals) == (
            ref["error_spec"], ref["error_fro"], ref["bound"], ref["evals"]
        )
        payload, _ = approximate_once(config)
        assert payload["hessian"] == [[float(v) for v in r] for r in ref["hessian"]]
        assert (payload["bound"], payload["evals"]) == (ref["bound"], ref["evals"])
        assert (payload["error_spec"], payload["error_fro"]) == (
            ref["error_spec"], ref["error_fro"]
        )
