"""Print a SHA-256 digest of the benchmark workloads' results, one line per workload,
one of the coincidence pass and one of studies that no workload runs.

    python3 tools/bitwise_digest.py [--root CHECKOUT]

Each workload's pool of inputs (``perfbench/workloads.py``, full size) is
built at seeds 1 and 2, and each pool is run twice in this process, cold
then warm: 84 ops of ``folded-n20``, 480 of ``study-lowdim`` and 396 of
``rules-quadratic-n10``. Every op's result goes into one SHA-256 per
workload, printed as its first 16 hex digits:

- ``folded-n20``: the Hessian, the evaluation counts after the estimate
  and after the model, and the model's ``alpha0``, ``alpha`` and Hessian;
- the study workloads: the report's ``fitted_order``, ``kappa``,
  ``exact`` and ``noise_floor``, then every field of every row.

A fourth line, ``coincidence``, hashes public calls that reach the
coincidence pass off the folded path, which no workload takes: the points
and tolerance of ``nshc_points`` on seeded non-folded grids (a random S
with ``T = beta * U_k`` of S, or with T sharing columns of S) at base
points of magnitude about 1, 1e150 and 1e307, and the messages of
``PointSet`` constructions that refuse coincident points.

A fifth line, ``study``, hashes ``run_study`` reports on paths that no
workload runs: symmetrized nested-set studies, explicit overdetermined
``s_base``/``t_base`` with and without symmetrizing, multi-row studies of
every ``-sc`` and ``-qc`` rule estimator, schedules with fewer than two
rows above the noise floor, and the type and message of a study that
stops at a collapsed row.

A float is hashed as its float64 bytes, an array as ``str(shape)`` and
then its float64 bytes, anything else (an int, a bool, ``None``) as its
``str``. Two trees whose digests agree returned bitwise the same results
on every op. ``--root`` hashes another checkout, for instance the parent
commit's, from its own ``src`` and ``perfbench`` directories.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

SEEDS = (1, 2)
PASSES = 2  # cold, then warm
WORKLOADS = ("folded-n20", "study-lowdim", "rules-quadratic-n10")


def _feed(h, *values) -> None:
    for value in values:
        if isinstance(value, float):
            h.update(np.float64(value).tobytes())
        elif isinstance(value, np.ndarray):
            h.update(str(value.shape).encode())
            h.update(value.astype(float, copy=False).tobytes())
        else:
            h.update(str(value).encode())


def _feed_result(h, workload: str, result) -> None:
    if workload == "folded-n20":
        model = result.model
        _feed(
            h,
            result.hessian,
            result.evals_after_estimate,
            result.evals_after_model,
            model.alpha0,
            model.alpha,
            model.hessian,
        )
        return
    _feed(h, result.fitted_order, result.kappa, result.exact, result.noise_floor)
    for row in result.rows:
        _feed(h, *(getattr(row, f.name) for f in dataclasses.fields(row)))


def digest(workloads_module, workload: str) -> str:
    """The first 16 hex digits of the SHA-256 over ``workload``'s pooled ops."""
    h = hashlib.sha256()
    for seed in SEEDS:
        pool = workloads_module.build_inputs(workload, seed)
        for _ in range(PASSES):
            for item in pool:
                _feed_result(h, workload, workloads_module.run_op(workload, item))
    return h.hexdigest()[:16]


def coincidence_digest() -> str:
    """The first 16 hex digits of the SHA-256 over the coincidence calls."""
    from nshess import DirectionSet, PointSet, build_uk, nshc_points

    h = hashlib.sha256()
    rng = np.random.default_rng(31)
    for magnitude in (1.0, 1e150, 1e307):
        for n in (1, 2, 3, 5):
            for _ in range(8):
                x0 = magnitude * rng.uniform(0.5, 1.0, n)
                # Directions from 1e-16 to 1e-2 of x0, so at the small end
                # the cells round together under the geometry's tolerance.
                radius = magnitude * 10.0 ** rng.uniform(-16, -2)
                s_set = DirectionSet(radius * rng.standard_normal((n, n)))
                if rng.random() < 0.5:
                    k = int(rng.integers(0, n + 1))
                    t = rng.choice([0.5, 1.0 + 2.0**-20, 3.0]) * build_uk(s_set, k).matrix
                else:
                    t = np.hstack([s_set.matrix[:, : max(1, n - 1)], s_set.matrix[:, :1] * 0.5])
                for tol in (None, 0.0):
                    points = nshc_points(x0, s_set, DirectionSet(t), tol)
                    _feed(h, points.points, points.dedup_tol)
    for _ in range(200):
        n, p = int(rng.integers(1, 5)), int(rng.integers(2, 30))
        cloud = rng.uniform(-1.0, 1.0, (p, n)) * 10.0 ** rng.uniform(-300, 300, (p, 1))
        for _ in range(int(rng.integers(0, 3))):
            a, b = rng.integers(0, p, 2)
            cloud[b] = np.nextafter(cloud[a], 0.0) if rng.random() < 0.5 else cloud[a]
        tol = float(rng.choice([0.0, 1e-300, 2.0**-20, 1e300]))
        try:
            PointSet(cloud, tol)
            _feed(h, "distinct")
        except ValueError as exc:
            _feed(h, str(exc))
    return h.hexdigest()[:16]


def study_digest() -> str:
    """The first 16 hex digits of the SHA-256 over the study reports."""
    from nshess import DirectionSet, StudyConfig, run_study

    rng = np.random.default_rng(32)
    configs = []
    for function in ("sum_of_cubes", "exp_of_sum", "rosenbrock"):
        for n in (2, 3, 5):
            seed = int(rng.integers(2**31))
            configs.append(
                StudyConfig(function, n, k=int(rng.integers(0, n + 1)), beta_steps=6,
                            symmetrize=True, seed=seed)
            )
            s_base = DirectionSet(rng.standard_normal((n, n + 2)))
            t_base = DirectionSet(rng.standard_normal((n, n + 1)))
            for symmetrize in (False, True):
                configs.append(
                    StudyConfig(function, n, beta_start=0.3, beta_steps=6, symmetrize=symmetrize,
                                seed=seed, s_base=s_base, t_base=t_base)
                )
    for function, rule in (
        ("product_cubes_exp", "product"),
        ("quotient_cubes_exp", "quotient"),
        ("power_cubes_2", "power"),
    ):
        for mode in ("sc", "qc"):
            for n in (2, 3):
                configs.append(
                    StudyConfig(function, n, k=int(rng.integers(0, n + 1)),
                                estimator=f"{rule}-{mode}", beta_steps=4,
                                symmetrize=bool(rng.integers(2)), seed=int(rng.integers(2**31)))
                )
    # Fewer than two rows above the noise floor: one on the quadratic, none
    # on the exact quadratic-mode rule study of a product of quadratics, and
    # a one-row schedule.
    configs.append(StudyConfig("quadratic", 3, k=1, beta_steps=5))
    configs.append(StudyConfig("sum_of_cubes", 3, k=2, beta_steps=1))
    configs.append(StudyConfig("product_quadratics", 2, estimator="product-qc", beta_steps=3))
    # A schedule whose third row collapses under the coincidence tolerance.
    configs.append(StudyConfig("sum_of_cubes", 2, beta_start=1e-9, beta_ratio=0.01, beta_steps=4))

    h = hashlib.sha256()
    for config in configs:
        try:
            _feed_result(h, "study", run_study(config))
        except Exception as exc:  # the exception a study stops with is part of its result
            _feed(h, type(exc).__name__, str(exc))
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout to hash (default: the one holding this script)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for workload in WORKLOADS:
        print(workload, digest(workloads, workload), flush=True)
    print("coincidence", coincidence_digest(), flush=True)
    print("study", study_digest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
