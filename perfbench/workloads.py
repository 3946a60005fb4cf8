"""Seeded inputs, timed operations and output checks of the three workloads.

Every workload is a closed loop with one caller: the next operation ("op")
starts only after the previous one returned. Inputs are built once from the
seed, then cycled. A workload's *cycle* is one op of each kind it mixes, and
runs always end on a whole cycle, so per-op averages such as the evaluation
count are exact.

The library is reached only through attributes of the ``nshess`` package,
looked up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

import nshess

# Acceptance claim c1: a quadratic's Hessian is exact to 1e-8 * (1 + |H|_F).
C1_RTOL = 1e-8
# A second difference at step beta loses about eps * |f(x0)| / beta**2 to
# rounding, and an n x n error matrix has a spectral norm of at most n times
# its largest entry. On the quadratic rows of study-lowdim (60 seeds, n = 4
# and n = 2, all 12 scales) the spectral error never exceeded
# 0.9 * n * eps * (1 + |f(x0)|) / beta**2; the constant below leaves a margin
# of about 18 over that.
ROUNDING_CONST = 16.0
EPS = float(np.finfo(float).eps)

FOLDED_BETA = 1e-2
STUDY_FUNCTIONS = ("quadratic", "sum_of_cubes", "exp_of_sum", "rosenbrock")
RULES = (
    ("product-qc", "product_cubes_exp"),
    ("quotient-qc", "quotient_cubes_exp"),
    ("power-qc", "power_cubes_2"),
)


@dataclass(frozen=True)
class Workload:
    dim: int  # problem dimension
    tiny_dim: int  # dimension at the tiny size the benchmark's tests use
    cycle: int  # ops per cycle: one of each kind the workload mixes
    pool_cycles: int  # cycles of inputs built per run, a multiple of dim + 1


WORKLOADS = {
    "folded-n20": Workload(20, 4, 1, 21),
    "study-lowdim": Workload(4, 2, len(STUDY_FUNCTIONS), 30),
    "rules-quadratic-n10": Workload(10, 3, len(RULES), 33),
}


@dataclass(frozen=True)
class FoldedInput:
    fn: object  # registry TestFunction
    x0: np.ndarray
    k: int


@dataclass(frozen=True)
class Outcome:
    """What the checker concluded about one op.

    ``evals`` is the distinct-evaluation count the library reported.
    ``problems`` lists every failed check. ``known_defect`` is true when all
    of them are certificates of zero width whose error is still within what
    rounding explains (:func:`rounding_tol`): a zero bound cannot hold in
    floating point (ROADMAP Open item 4).
    """

    evals: int
    problems: tuple[str, ...] = ()
    known_defect: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _k_values(rng: np.random.Generator, n: int, count: int) -> list[int]:
    """Seeded permutations of ``0..n`` laid end to end.

    Op time depends on ``k``, so every seed gets each value equally often
    and only the order varies; independent draws made the mix, and with it
    the percentiles, differ from seed to seed.
    """
    blocks = -(-count // (n + 1))
    return [int(k) for _ in range(blocks) for k in rng.permutation(n + 1)][:count]


def build_inputs(workload: str, seed: int, tiny: bool = False) -> list:
    """The op inputs of a run, in the order they are cycled."""
    spec = WORKLOADS[workload]
    n = spec.tiny_dim if tiny else spec.dim
    rng = _rng(workload, seed)
    if workload == "folded-n20":
        inputs = []
        for k in _k_values(rng, n, spec.pool_cycles):
            fn_seed = int(rng.integers(2**31))
            x0 = rng.uniform(-1.0, 1.0, size=n)
            fn = nshess.make_function("quadratic", n, seed=fn_seed, x0=x0)
            inputs.append(FoldedInput(fn, x0, k))
        return inputs
    if workload == "study-lowdim":
        kinds = [(name, "nested-set", 2 if tiny else 12) for name in STUDY_FUNCTIONS]
    else:
        kinds = [(name, estimator, 1) for estimator, name in RULES]
    ks = {kind: _k_values(rng, n, spec.pool_cycles) for kind in kinds}
    return [
        nshess.StudyConfig(
            function=name,
            dim=n,
            k=ks[(name, estimator, steps)][i],
            estimator=estimator,
            beta_steps=steps,
            seed=int(rng.integers(2**31)),
        )
        for i in range(spec.pool_cycles)
        for name, estimator, steps in kinds
    ]


@dataclass(frozen=True)
class FoldedResult:
    hessian: np.ndarray
    evals_after_estimate: int
    evals_after_model: int
    model: object  # QuadraticModel


def run_op(workload: str, item):
    """One timed operation; returns the raw library output."""
    if workload == "folded-n20":
        cache = nshess.EvaluationCache(item.fn.oracle)
        s_set, t_set = nshess.canonical_set(item.x0.shape[0], item.k, FOLDED_BETA)
        est = nshess.nested_set_hessian(item.x0, s_set, t_set, cache)
        after_estimate = cache.distinct_count
        model = nshess.interpolate_minimal(item.x0, s_set, item.k, cache)
        return FoldedResult(est.hessian, after_estimate, cache.distinct_count, model)
    return nshess.run_study(item)


def rounding_tol(dim: int, f0: float, beta: float) -> float:
    """Largest spectral Hessian error that rounding alone explains at step ``beta``."""
    return ROUNDING_CONST * dim * EPS * (1.0 + abs(f0)) / beta**2


def _close(got, want, what: str, problems: list) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    gap = float(np.max(np.abs(got - want)))
    tol = C1_RTOL * (1.0 + float(np.max(np.abs(want))))
    if not gap <= tol:
        problems.append(f"{what}: gap {gap:.3e} > {tol:.3e}")


def check_folded(item: FoldedInput, res: FoldedResult) -> Outcome:
    n = item.x0.shape[0]
    need = nshess.minimal_point_count(n)
    problems = []
    if res.evals_after_estimate != need:
        problems.append(f"estimate used {res.evals_after_estimate} distinct points, not {need}")
    if res.evals_after_model != res.evals_after_estimate:
        problems.append(
            f"model added {res.evals_after_model - res.evals_after_estimate} evaluations"
        )
    h_true = item.fn.hessian(item.x0)
    err = float(np.linalg.norm(res.hessian - h_true, "fro"))
    tol = C1_RTOL * (1.0 + float(np.linalg.norm(h_true, "fro")))
    if not err <= tol:
        problems.append(f"Hessian error {err:.3e} > {tol:.3e}")
    model = res.model
    estimate = 0.5 * (res.hessian + res.hessian.T)
    _close(model.hessian, estimate, "model vs estimate Hessian", problems)
    _close(model.gradient(item.x0), item.fn.gradient(item.x0), "model gradient at x0", problems)
    _close(model.value(item.x0), item.fn.oracle(item.x0), "model value at x0", problems)
    return Outcome(res.evals_after_model, tuple(problems))


def _study_truth(config) -> tuple[int, float]:
    """Minimal evaluation count of a row and the function value at the base point."""
    fn = nshess.make_function(config.function, config.dim, seed=config.seed)
    parts = 2 if isinstance(fn, nshess.CompositeFunction) and fn.rule != "power" else 1
    need = parts * nshess.minimal_point_count(config.dim)
    return need, float(fn.oracle(np.asarray(fn.base_point, dtype=float)))


def check_study(config, report, truth: tuple[int, float]) -> Outcome:
    """Every row within its certificate and at the minimal evaluation count."""
    need, f0 = truth
    problems = []
    known = []
    if len(report.rows) != config.beta_steps:
        problems.append(f"{len(report.rows)} rows, expected {config.beta_steps}")
    for row in report.rows:
        if row.evals != need:
            problems.append(f"beta={row.beta:.3g}: {row.evals} evaluations, minimal is {need}")
        if not row.error_spec <= row.bound:
            msg = f"beta={row.beta:.3g}: error {row.error_spec:.3e} > bound {row.bound:.3e}"
            problems.append(msg)
            if row.bound == 0.0 and row.error_spec <= rounding_tol(config.dim, f0, row.beta):
                known.append(msg)
    evals = sum(row.evals for row in report.rows)
    return Outcome(evals, tuple(problems), bool(problems) and len(known) == len(problems))


class Checker:
    """Checks op outputs; reference data is derived once per input, untimed."""

    def __init__(self, workload: str):
        self.workload = workload
        self._truth: dict[int, tuple[int, float]] = {}

    def __call__(self, item, result) -> Outcome:
        if self.workload == "folded-n20":
            return check_folded(item, result)
        truth = self._truth.get(id(item))
        if truth is None:
            truth = self._truth[id(item)] = _study_truth(item)
        return check_study(item, result, truth)
