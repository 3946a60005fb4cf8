"""Benchmark child process: one workload, one caller, one thread.

Started by ``run.py`` with BLAS pinned to one thread and the checkout's
``src`` on ``PYTHONPATH``. Modes:

* ``setup``: import ``nshess``, build the inputs, print one line, then time
  the reference kernel and print that too. The parent times the first line
  from process start and scales it by the second.
* ``plain``: run the closed loop untraced for ``--seconds``.
* ``traced``: run it untraced for half of ``--seconds``, with only the
  oracle timed, then traced for the other half, and derive the per-layer
  metrics from the spans.

Each mode prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibrate
import nshess
import workloads
from tracing import CACHE, ORACLE, OracleClock, SpanStats, Tracer

LINALG = ("linalg.pseudoinverse", "linalg.rank", "linalg.solve")
CALCULUS_BOUND = ("calculus.model_gradient_constant", "calculus.calculus_error_bound")


def check_import_root(root: Path) -> None:
    """Refuse to measure an ``nshess`` that is not the checkout's own."""
    src = (root / "src").resolve()
    where = Path(nshess.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"nshess imported from {where}, not from {src}")


def run_loop(
    workload: str,
    inputs: list,
    seconds: float,
    tracer: Tracer | None = None,
    oracle_clock: OracleClock | None = None,
) -> dict:
    """Closed loop over whole cycles until ``seconds`` have passed.

    Each op is timed alone. The checks and a reference-kernel sample run
    between ops, outside the timing; ``op_ms`` holds the op times scaled to
    the nominal host speed (see ``calibrate``), ``raw_op_ms`` the measured
    ones. With a tracer, each op's oracle calls are compared with the
    evaluation count the library reported for it. With an installed oracle
    clock, ``oracle_ms`` holds each op's time inside the oracle, scaled by
    the same factor as its op time.
    """
    check = workloads.Checker(workload)
    cycle = workloads.WORKLOADS[workload].cycle
    op_ms: list[float] = []
    oracle_ms: list[float] = []
    ref_ms = [calibrate.reference_ms()]
    evals = failed = known_defect = raised = count_mismatch = 0
    problems: list[str] = []
    position = 0
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(cycle):
            item = inputs[position % len(inputs)]
            position += 1
            first_span = len(tracer.spans) if tracer else 0
            oracle_s = oracle_clock.seconds if oracle_clock else 0.0
            t0 = time.perf_counter()
            try:
                with tracer.op() if tracer else nullcontext():
                    result = workloads.run_op(workload, item)
                    t1 = time.perf_counter()
            except Exception as exc:  # an op that raises is counted, not fatal
                t1 = time.perf_counter()
                op_ms.append((t1 - t0) * 1e3)
                failed += 1
                raised += 1
                problems.append(f"raised {type(exc).__name__}: {exc}")
                ref_ms.append(calibrate.reference_ms())
                continue
            op_ms.append((t1 - t0) * 1e3)
            if oracle_clock:
                oracle_ms.append((oracle_clock.seconds - oracle_s) * 1e3)
            outcome = check(item, result)
            evals += outcome.evals
            if outcome.failed:
                failed += 1
                known_defect += outcome.known_defect
                if not outcome.known_defect:
                    problems.extend(outcome.problems)
            if tracer and tracer.count(ORACLE, first_span) != outcome.evals:
                count_mismatch += 1
            ref_ms.append(calibrate.reference_ms())
        if time.perf_counter() >= deadline:
            break
    scale = calibrate.scales(ref_ms)
    return {
        "attempted": len(op_ms),
        "failed": failed,
        "raised": raised,
        "known_defect": known_defect,
        "count_mismatch": count_mismatch,
        "evals": evals,
        "op_ms": [t * f for t, f in zip(op_ms, scale)],
        "oracle_ms": [t * f for t, f in zip(oracle_ms, scale)],
        "raw_op_ms": op_ms,
        "host_scale": calibrate.REF_NOMINAL_MS / statistics.median(ref_ms),
        "problems": problems[:20],
    }


def layer_metrics(tracer: Tracer, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced phase, normalized per op."""
    stats = SpanStats(tracer.spans)
    ops = traced["attempted"]

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 * traced["host_scale"] / ops

    oracle_calls = stats.count([ORACLE])
    requests = stats.count([CACHE])
    # From the untraced phase alone: op time outside the oracle over time inside it.
    inside = sum(untraced["oracle_ms"])
    return {
        "oracle.calls_per_op": oracle_calls / ops,
        "oracle.ms_per_op": per_op_ms(stats.inclusive([ORACLE])),
        "overhead_ratio": (sum(untraced["op_ms"]) - inside) / inside,
        "cache.requests_per_op": requests / ops,
        "cache.hit_ratio": (requests - oracle_calls) / requests,
        "cache.self_ms_per_op": per_op_ms(stats.self_time(CACHE)),
        "linalg.calls_per_op": stats.count(LINALG) / ops,
        "linalg.ms_per_op": per_op_ms(stats.inclusive(LINALG)),
        "sets.nshc_points.calls_per_op": stats.count(["sets.nshc_points"]) / ops,
        "sets.nshc_points.ms_per_op": per_op_ms(stats.inclusive(["sets.nshc_points"])),
        "sets.canonical_set.ms_per_op": per_op_ms(stats.inclusive(["sets.canonical_set"])),
        "approx.nested_set_hessian.ms_per_op": per_op_ms(
            stats.inclusive(["approx.nested_set_hessian"])
        ),
        "approx.self_ms_per_op": per_op_ms(stats.self_time("approx.")),
        "quadmodel.interpolate_minimal.ms_per_op": per_op_ms(
            stats.inclusive(["quadmodel.interpolate_minimal"])
        ),
        "quadmodel.interpolate_general.ms_per_op": per_op_ms(
            stats.inclusive(["quadmodel.interpolate_general"])
        ),
        "calculus.quadratic_model_gradient.calls_per_op": stats.count(
            ["calculus.quadratic_model_gradient"]
        )
        / ops,
        "calculus.quadratic_model_gradient.ms_per_op": per_op_ms(
            stats.inclusive(["calculus.quadratic_model_gradient"])
        ),
        "calculus.bound.ms_per_op": per_op_ms(stats.inclusive(CALCULUS_BOUND)),
        "bounds.ms_per_op": per_op_ms(
            stats.inclusive([n for n in stats.calls if n.startswith("bounds.")])
        ),
        "registry.make_function.ms_per_op": per_op_ms(
            stats.inclusive(["registry.make_function"])
        ),
        "study.self_ms_per_op": per_op_ms(stats.self_time("study.")),
        "trace.overhead_ratio": statistics.median(traced["op_ms"])
        / statistics.median(untraced["op_ms"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--root", type=Path, required=True, help="checkout root")
    parser.add_argument("--spans-out", type=Path, default=None, help="traced mode: span file")
    args = parser.parse_args(argv)

    check_import_root(args.root)
    inputs = workloads.build_inputs(args.workload, args.seed)
    if args.mode == "setup":
        print(json.dumps({"ready": len(inputs)}), flush=True)
        print(json.dumps({"ref_ms": [calibrate.reference_ms() for _ in range(3)]}), flush=True)
        return 0

    if args.mode == "plain":
        result = run_loop(args.workload, inputs, args.seconds)
    else:
        clock = OracleClock()
        clock.install()
        try:
            untraced = run_loop(args.workload, inputs, args.seconds / 2, oracle_clock=clock)
        finally:
            clock.uninstall()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(args.workload, inputs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result = traced
        result["untraced"] = {k: v for k, v in untraced.items() if not k.endswith("_ms")}
        result["layers"] = layer_metrics(tracer, untraced, traced)
        result["oracle_calls"] = tracer.count(ORACLE)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans_out)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
