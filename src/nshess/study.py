"""Convergence studies and worked-example verification.

A study sweeps the scale of the sampling sets over a geometric schedule,
records the measured Hessian error against the matching theoretical bound
at every scale, and fits the convergence order by least squares on the
log-log data. Rows whose error sits at the floating-point noise floor are
excluded from the fit; when every row does, the study reports the estimate
as exact instead of fitting noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .approx import HessianResult, nested_set_hessian
from .bounds import BoundInputs, error_bound_nsh
from .cache import EvaluationCache, _write_text
from .calculus import (
    CalcMode,
    RuleBoundInputs,
    RuleFunctionData,
    RuleGeometry,
    _FactorRecord,
    _rule_estimate,
    calculus_error_bound,
    model_gradient_constant,
)
from .registry import CompositeFunction, TestFunction, make_function
from .sets import (
    DirectionSet,
    canonical_set,
    is_minimal_nshc,
    is_poised_quadratic,
    nshc_points,
    PointSet,
    _integer,
)

__all__ = [
    "StudyConfig",
    "StudyRow",
    "ConvergenceReport",
    "StudyError",
    "run_study",
    "Check",
    "VerificationReport",
    "verify_examples",
    "ESTIMATORS",
]

ESTIMATORS = (
    "nested-set",
    "product-sc",
    "product-qc",
    "quotient-sc",
    "quotient-qc",
    "power-sc",
    "power-qc",
)

CSV_HEADER = "beta,error_spec,error_fro,bound,evals"

NOISE_FLOOR_RTOL = 1e-12


class StudyError(RuntimeError):
    """An estimator failed mid-study; the message names the scale."""


@dataclass
class StudyConfig:
    """Declarative description of one convergence study.

    ``k`` selects the canonical set family; explicit ``s_base``/``t_base``
    shapes override it and are scaled by beta directly. The seed feeds any
    randomized registry entry, keeping reports reproducible.
    """

    function: str
    dim: int
    k: int = 0
    estimator: str = "nested-set"
    beta_start: float = 1e-1
    beta_ratio: float = 0.5
    beta_steps: int = 12
    symmetrize: bool = False
    seed: int = 0
    x0: np.ndarray | None = None
    s_base: DirectionSet | None = None
    t_base: DirectionSet | None = None

    def validate(self) -> None:
        if _integer(self.dim, "dim") < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}")
        if not (0 < self.beta_ratio < 1):
            raise ValueError(f"beta_ratio must lie in (0, 1), got {self.beta_ratio}")
        if self.beta_start <= 0 or not np.isfinite(self.beta_start):
            raise ValueError(f"beta_start must be positive, got {self.beta_start}")
        if _integer(self.beta_steps, "beta_steps") < 1:
            raise ValueError(f"beta_steps must be at least 1, got {self.beta_steps}")
        if (self.s_base is None) != (self.t_base is None):
            raise ValueError("explicit sets must supply both s_base and t_base")
        if self.s_base is None and not 0 <= _integer(self.k, "k") <= self.dim:
            raise ValueError(f"k must lie in 0..{self.dim}, got {self.k}")

    def betas(self) -> list[float]:
        return [self.beta_start * self.beta_ratio**i for i in range(self.beta_steps)]

    def sets_at(self, beta: float) -> tuple[DirectionSet, DirectionSet]:
        if self.s_base is not None:
            return self.s_base.scaled(beta), self.t_base.scaled(beta)
        return canonical_set(self.dim, self.k, beta)


@dataclass(frozen=True)
class StudyRow:
    beta: float
    error_spec: float
    error_fro: float
    bound: float
    evals: int


@dataclass
class ConvergenceReport:
    rows: list[StudyRow]
    fitted_order: float | None
    kappa: float | None
    exact: bool
    noise_floor: float

    def to_csv(self, target) -> None:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.beta!r},{r.error_spec!r},{r.error_fro!r},{r.bound!r},{r.evals}")
        text = "\n".join(lines) + "\n"
        _write_text(target, text)

    def summary(self) -> str:
        if self.exact:
            return "fitted order: exact (every error at the noise floor)"
        if self.fitted_order is None:
            return "fitted order: undetermined (not enough rows above the noise floor)"
        return f"fitted order: {self.fitted_order:.3f} (kappa = {self.kappa:.6g})"


def _rule_parts(fn: CompositeFunction) -> list[TestFunction]:
    return [fn.f] if fn.rule == "power" else [fn.f, fn.g]


def _rule_bound(
    fn: CompositeFunction,
    mode: CalcMode,
    x0: np.ndarray,
    s_set: DirectionSet,
    t_set: DirectionSet,
    records: list[_FactorRecord],
) -> float:
    """Certificate of a rule estimate, from the factor records it was built on."""
    geometry = RuleGeometry.from_sets(s_set, t_set)
    datas = []
    for part, record in zip(_rule_parts(fn), records):
        data = RuleFunctionData(
            value=record.value,
            lipschitz_grad=part.lipschitz_grad,
            lipschitz_hess=part.lipschitz_hess,
            grad_norm=float(np.linalg.norm(part.gradient(x0))),
            approx_grad_norm=float(np.linalg.norm(record.gradient)),
        )
        if mode is CalcMode.QUADRATIC:
            data.model_grad_constant = model_gradient_constant(
                part.lipschitz_hess, record.points, x0
            )
        datas.append(data)
    inputs = RuleBoundInputs(datas[0], geometry, *datas[1:], power=fn.power)
    return calculus_error_bound(fn.rule, mode, inputs)


def _estimate(
    config: StudyConfig,
    fn,
    x0: np.ndarray,
    s_set: DirectionSet,
    t_set: DirectionSet,
) -> tuple[HessianResult, float | None, list[EvaluationCache]]:
    """The configured estimate at ``x0``, its bound and the caches it read.

    The bound is ``None`` when a nested-set estimate lacks Lipschitz
    certificates; rule estimates use their parts' certificates.
    """
    if config.estimator == "nested-set":
        cache = EvaluationCache(fn.oracle)
        res = nested_set_hessian(x0, s_set, t_set, cache, config.symmetrize)
        bound = None
        if fn.lipschitz_grad is not None and fn.lipschitz_hess is not None:
            bound = error_bound_nsh(
                BoundInputs.for_hessian(s_set, t_set, fn.lipschitz_grad, fn.lipschitz_hess)
            )
        return res, bound, [cache]

    rule, mode_tag = config.estimator.rsplit("-", 1)
    mode = CalcMode.SIMPLEX if mode_tag == "sc" else CalcMode.QUADRATIC
    if not isinstance(fn, CompositeFunction) or fn.rule != rule:
        raise ValueError(
            f"estimator {config.estimator!r} needs a {rule} composite, "
            f"got {config.function!r}"
        )
    caches = [EvaluationCache(p.oracle) for p in _rule_parts(fn)]
    res, records = _rule_estimate(
        rule, caches, x0, s_set, t_set, mode, config.symmetrize, fn.power
    )
    return res, _rule_bound(fn, mode, x0, s_set, t_set, records), caches


def _setup(config: StudyConfig):
    """The validated ``config``'s function, ``x0`` and sets at ``beta_start``;
    the certificates cover ``1.5 (delta_S + delta_T)``, every scale's grid."""
    config.validate()
    s_set, t_set = config.sets_at(config.beta_start)
    ball = 1.5 * (s_set.radius + t_set.radius)
    fn = make_function(
        config.function, config.dim, seed=config.seed, x0=config.x0, ball_radius=ball
    )
    return fn, np.asarray(fn.base_point, dtype=float), s_set, t_set


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Sweep the beta schedule and report errors, bounds and the fitted order."""
    fn, x0, _, _ = _setup(config)
    if config.estimator == "nested-set":
        if fn.lipschitz_grad is None or fn.lipschitz_hess is None:
            raise ValueError(
                f"{config.function!r} carries no certified Lipschitz constants; "
                "the nested-set bound column cannot be filled"
            )

    h_true = fn.hessian(x0)
    floor = NOISE_FLOOR_RTOL * (1.0 + linalg.spectral_norm(h_true))

    errors, measured = [], []
    for beta in config.betas():
        try:
            res, bound, caches = _estimate(config, fn, x0, *config.sets_at(beta))
        except ValueError:
            raise
        except Exception as exc:
            raise StudyError(f"estimator failed at beta={beta!r}: {exc}") from exc
        diff = res.hessian - h_true
        # A non-finite error raises the norms' ValueError at its own row.
        fro = linalg.frobenius_norm(diff)
        errors.append(diff)
        evals = sum(c.distinct_count for c in caches)
        measured.append((beta, fro, float(bound), evals))
    # Every row's spectral norm from one batched SVD.
    spectral = linalg.spectral_norms(errors)
    rows = [
        StudyRow(beta, spec, fro, bound, evals)
        for (beta, fro, bound, evals), spec in zip(measured, spectral)
    ]

    live = [(r.beta, r.error_spec) for r in rows if r.error_spec > floor]
    if not live:
        return ConvergenceReport(rows, None, None, True, floor)
    if len(live) < 2:
        return ConvergenceReport(rows, None, None, False, floor)
    logb = np.log([b for b, _ in live])
    loge = np.log([e for _, e in live])
    slope, intercept = np.polyfit(logb, loge, 1)
    return ConvergenceReport(rows, float(slope), float(math.exp(intercept)), False, floor)


def approximate_once(config: StudyConfig, with_model: bool = False):
    """One-shot estimate at ``config.beta_start``; returns (payload, caches).

    The payload is a JSON-ready dict with the estimate, the bound where
    certificates exist, and optionally the interpolation model built on the
    same cached values (nested-set estimator with the canonical family
    only, where the sample grid is the folded one).
    """
    from .quadmodel import interpolate_minimal

    fn, x0, s_set, t_set = _setup(config)
    if with_model and (config.estimator != "nested-set" or config.s_base is not None):
        raise ValueError("--with-model applies to the nested-set estimator on canonical sets")

    res, bound, caches = _estimate(config, fn, x0, s_set, t_set)
    diff = res.hessian - fn.hessian(x0)
    payload = {
        "function": config.function,
        "estimator": config.estimator,
        "beta": config.beta_start,
        "k": config.k,
        "x0": [float(v) for v in x0],
        "hessian": [[float(v) for v in row] for row in res.hessian],
        "delta_u": res.delta_u,
        "delta_l": res.delta_l,
        "symmetrized": res.symmetrized,
        "evals": sum(c.distinct_count for c in caches),
        "bound": None if bound is None else float(bound),
        "error_spec": linalg.spectral_norm(diff),
        "error_fro": linalg.frobenius_norm(diff),
    }
    if with_model:
        model = interpolate_minimal(x0, s_set, config.k, caches[0])
        payload["model"] = model.to_record()
        payload["evals_with_model"] = caches[0].distinct_count
    return payload, caches


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_WORKED_POINTS = [(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (2, -1)]


def _worked_example_points() -> PointSet:
    s_set, t_set = canonical_set(2, 2, 1.0)
    return nshc_points(np.zeros(2), s_set, t_set)


def verify_examples(seed: int = 0) -> VerificationReport:
    """Re-run the worked examples the implementation is pinned to."""
    report = VerificationReport()

    pts = _worked_example_points()
    expected = {tuple(map(float, p)) for p in _WORKED_POINTS}
    got = {tuple(float(v) for v in np.round(row, 9)) for row in pts.points}
    report.checks.append(
        Check(
            "worked-points",
            got == expected,
            f"canonical n=2, k=2 grid is {sorted(got)}",
        )
    )

    counts = []
    for k in range(0, 3):
        s_set, t_set = canonical_set(2, k, 1.0)
        counts.append(len(nshc_points(np.zeros(2), s_set, t_set)))
    report.checks.append(
        Check("fold-counts", counts == [6, 6, 6], f"distinct counts over k=0..2: {counts}")
    )

    witness = is_minimal_nshc(pts, np.zeros(2))
    regen_ok = False
    if witness:
        regen = nshc_points(np.zeros(2), witness.s_set, witness.t_set)
        regen_ok = len(regen) == 6 and all(pts.contains(p) for p in regen)
    report.checks.append(
        Check("worked-witness", bool(witness) and regen_ok, "witness sets regenerate the grid")
    )

    cross = PointSet(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])
    )
    poised = is_poised_quadratic(cross)
    minimal = bool(is_minimal_nshc(cross, np.zeros(2)))
    report.checks.append(
        Check(
            "poised-not-minimal",
            poised and not minimal,
            f"six-point cross: poised={poised}, minimal={minimal}",
        )
    )

    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(5):
        n_mat = rng.standard_normal((2, 2))
        while abs(np.linalg.det(n_mat)) < 0.2:
            n_mat = rng.standard_normal((2, 2))
        p1 = np.eye(2)[rng.permutation(2)]
        p2 = np.eye(2)[rng.permutation(2)]
        s_set, t_set = canonical_set(2, 2, 1.0)
        s_bar = DirectionSet(n_mat @ s_set.matrix @ p1)
        t_bar = DirectionSet(n_mat @ t_set.matrix @ p2)
        moved = nshc_points(np.zeros(2), s_bar, t_bar)
        if len(moved) != 6 or not is_minimal_nshc(moved, np.zeros(2)):
            ok = False
            break
    report.checks.append(
        Check("transform-invariance", ok, "minimality survives basis changes and reordering")
    )
    return report
