"""Command-line entry point.

Three subcommands: ``study`` sweeps a beta schedule and writes the
convergence table as CSV, ``verify-examples`` re-runs the built-in worked
examples, and ``approx`` produces a one-shot Hessian estimate as JSON.

Exit codes: 0 on success, 1 when a check or estimator fails or stdout is
closed before the output is written (``| head``), 2 on configuration
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .registry import registry_names
from .study import ESTIMATORS, StudyConfig, StudyError, approximate_once, run_study, verify_examples

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nshess",
        description="Derivative-free Hessian estimates: studies, checks, one-shot runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run a convergence study and emit CSV")
    _common_flags(study)
    study.add_argument("--beta-start", type=float, default=1e-1, help="largest scale (default 0.1)")
    study.add_argument("--beta-ratio", type=float, default=0.5, help="geometric ratio (default 0.5)")
    study.add_argument("--beta-steps", type=int, default=12, help="number of scales (default 12)")
    study.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    verify = sub.add_parser("verify-examples", help="re-run the built-in worked examples")
    verify.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    verify.add_argument(
        "--points-csv", default=None, help="also dump the worked-example point grid to this file"
    )

    approx = sub.add_parser("approx", help="one-shot Hessian estimate, JSON on stdout")
    _common_flags(approx)
    approx.add_argument("--x0", default=None, help="comma-separated base point (default: registry)")
    approx.add_argument("--beta", type=float, default=1e-1, help="sampling scale (default 0.1)")
    approx.add_argument(
        "--with-model",
        action="store_true",
        help="include the interpolation model built on the same evaluations",
    )
    approx.add_argument(
        "--trace", default=None, help="write the oracle evaluation trace (CSV) to this file"
    )
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", required=True, help=f"registry entry: {', '.join(registry_names())}")
    p.add_argument("--dim", type=int, required=True, help="problem dimension")
    p.add_argument("--k", type=int, default=0, help="canonical family index in 0..n (default 0)")
    p.add_argument("--estimator", default="nested-set", choices=ESTIMATORS)
    p.add_argument("--symmetrize", action="store_true", help="report the symmetric part")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized registry entries")


def _cmd_study(args) -> int:
    config = StudyConfig(
        function=args.function,
        dim=args.dim,
        k=args.k,
        estimator=args.estimator,
        beta_start=args.beta_start,
        beta_ratio=args.beta_ratio,
        beta_steps=args.beta_steps,
        symmetrize=args.symmetrize,
        seed=args.seed,
    )
    report = run_study(config)
    if args.out is None:
        report.to_csv(sys.stdout)
    else:
        report.to_csv(args.out)
        print(f"wrote {len(report.rows)} rows to {args.out}", file=sys.stderr)
    print(report.summary(), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    report = verify_examples(seed=args.seed)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    if args.points_csv is not None:
        from .study import _worked_example_points

        _worked_example_points().to_csv(args.points_csv)
        print(f"wrote worked-example points to {args.points_csv}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_approx(args) -> int:
    x0 = None
    if args.x0 is not None:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")])
        except ValueError:
            raise ValueError(f"could not parse --x0 {args.x0!r} as comma-separated floats")
    config = StudyConfig(
        function=args.function,
        dim=args.dim,
        k=args.k,
        estimator=args.estimator,
        beta_start=args.beta,
        beta_steps=1,
        symmetrize=args.symmetrize,
        seed=args.seed,
        x0=x0,
    )
    payload, caches = approximate_once(config, with_model=args.with_model)
    if args.trace is not None:
        if len(caches) > 1:
            raise ValueError(
                f"--trace writes one cache's trace; the {args.estimator} estimator "
                f"reads {len(caches)} caches"
            )
        caches[0].write_trace_csv(args.trace)
        print(f"wrote evaluation trace to {args.trace}", file=sys.stderr)
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"study": _cmd_study, "verify-examples": _cmd_verify, "approx": _cmd_approx}
    try:
        status = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader went away. Send what is still buffered to devnull, so
        # the flush at exit cannot raise again, and stop without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StudyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
