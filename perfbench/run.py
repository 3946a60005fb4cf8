"""Run one nshess benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, so nothing needs installing. Every measurement runs in a
fresh child process whose environment pins OpenBLAS and OpenMP to one
thread; this process only starts children and aggregates what they report.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans go to ``.perfbench/`` in the checkout). The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a readable summary that
also gives ``error_rate``. Op, layer and set-up times are scaled to a
nominal host speed with a reference kernel timed in the same process (see
``calibrate.py``); import and cold-start times are as measured. Machine
settings are left alone and the file cache is not dropped, so set-up,
import and cold-start times are warm-cache times.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("folded-n20", "study-lowdim", "rules-quadratic-n10")

SETUP_SAMPLES = 15
CLI_SAMPLES = 5
CHILD_GRACE_S = 60.0
COLD_START_ARGS = ("approx", "--function", "sum_of_cubes", "--dim", "3", "--with-model")
COLD_START_EVALS = 10  # (n+1)(n+2)/2 at n=3, estimate and model together


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def worker_cmd(mode: str, args) -> list[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--root", str(ROOT),
    ]


def run_child(cmd: list[str], timeout: float) -> str:
    """Run a child to completion and return its stdout; raise if it failed."""
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its inputs being built.

    Scaled to the nominal host speed by the reference kernel, which the
    child runs right after set-up (see ``calibrate.py``).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd("setup", args), env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # Raw reads up to the first line: a buffered readline may also take the
    # child's second line, which communicate() reads past and would lose.
    head = b""
    try:
        fd = proc.stdout.fileno()
        while b"\n" not in head:
            if not select.select([fd], [], [], CHILD_GRACE_S)[0]:
                raise BenchError(f"setup child printed nothing within {CHILD_GRACE_S:.0f} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            head += chunk
        elapsed = time.perf_counter() - start
        out, err = proc.communicate(timeout=CHILD_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    text = (head + out).decode()
    if proc.returncode != 0 or not text.startswith("{"):
        raise BenchError(f"setup child failed: {err.decode()[-2000:]}")
    ref_ms = last_json(text)["ref_ms"]
    return elapsed * calibrate.REF_NOMINAL_MS / statistics.median(ref_ms)


def time_import() -> float:
    code = (
        "import time; t = time.perf_counter(); import nshess.cli; "
        "print(time.perf_counter() - t); print(nshess.__file__)"
    )
    out = run_child([sys.executable, "-c", code], CHILD_GRACE_S).split()
    if not Path(out[1]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"nshess imported from {out[1]}, not from the checkout")
    return float(out[0])


def time_cold_start() -> float:
    start = time.perf_counter()
    out = run_child([sys.executable, "-m", "nshess.cli", *COLD_START_ARGS], CHILD_GRACE_S)
    elapsed = time.perf_counter() - start
    payload = json.loads(out)
    if payload["evals_with_model"] != COLD_START_EVALS:
        raise BenchError(f"cold-start approx used {payload['evals_with_model']} evaluations")
    return elapsed


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unexplained_failures(phase: dict) -> int:
    """Failed ops not explained by the documented zero-width-certificate defect."""
    return phase["failed"] - phase["known_defect"]


def measure_plain(args) -> tuple[dict, dict]:
    setups = [time_setup(args) for _ in range(SETUP_SAMPLES)]
    res = last_json(run_child(worker_cmd("plain", args), args.seconds + CHILD_GRACE_S))
    op_ms = res["op_ms"]
    metrics = {
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p90": (percentile(op_ms, 90), "ms"),
        "ops_per_s": (len(op_ms) / (sum(op_ms) / 1e3), "1/s"),
        "evals_per_op": (res["evals"] / res["attempted"], "count"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    res["correct"] = res["raised"] == 0 and unexplained_failures(res) == 0
    return res, metrics


def measure_traced(args) -> tuple[dict, dict]:
    imports = [time_import() for _ in range(CLI_SAMPLES)]
    colds = [time_cold_start() for _ in range(CLI_SAMPLES)]
    cmd = worker_cmd("traced", args)
    cmd += ["--spans-out", str(ROOT / ".perfbench" / f"spans-{args.workload}.json")]
    res = last_json(run_child(cmd, args.seconds + CHILD_GRACE_S))
    untraced = res["untraced"]
    layers = res["layers"]
    # The traced oracle must be called exactly once per distinct evaluation
    # the library reports, op by op and in total against the untraced phase.
    oracle_total = res["oracle_calls"]
    counts_agree = (
        res["count_mismatch"] == 0
        and oracle_total * untraced["attempted"] == untraced["evals"] * res["attempted"]
    )
    units = {
        "calls_per_op": "count", "requests_per_op": "count", "ms_per_op": "ms", "ratio": "ratio"
    }
    metrics = {}
    for name, value in layers.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = (value, unit)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.cold_start_s"] = (statistics.median(colds), "s")
    combined = {
        key: res[key] + untraced[key] for key in ("attempted", "failed", "raised", "known_defect")
    }
    combined["correct"] = (
        combined["raised"] == 0 and unexplained_failures(combined) == 0 and counts_agree
    )
    combined["problems"] = res["problems"] + untraced["problems"]
    combined["raw_op_ms"] = res["raw_op_ms"]
    if not counts_agree:
        combined["problems"].append(
            f"traced oracle calls {oracle_total}/{res['attempted']} ops disagree with "
            f"untraced evaluations {untraced['evals']}/{untraced['attempted']} ops "
            f"({res['count_mismatch']} ops mismatched)"
        )
    return combined, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one nshess benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nshess" / "__init__.py").is_file():
        print(f"error: no nshess sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res, metrics = measure_traced(args) if args.trace else measure_plain(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    error_rate = res["failed"] / res["attempted"]
    shown = "  ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} closed loop, 1 caller: "
        f"ops={res['attempted']} failed={res['failed']} (raised {res['raised']}, zero-width "
        f"certificates {res['known_defect']}) error_rate={error_rate:.4g}  {shown}  "
        f"(op times scaled to the nominal host speed; measured op_ms_p50="
        f"{statistics.median(res['raw_op_ms']):.6g} ms)"
    )
    print(
        json.dumps(
            {
                "correct": bool(res["correct"]),
                "attempted": int(res["attempted"]),
                "failed": int(res["failed"]),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
