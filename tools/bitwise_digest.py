"""Print a SHA-256 digest of the benchmark workloads' results, one line per workload.

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
