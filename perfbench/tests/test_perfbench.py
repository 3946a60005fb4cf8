"""Tests of the benchmark itself: seeding, checks, tracing, and the runner.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import calibrate
import nshess
import run
import workloads
from tracing import ORACLE, OracleClock, SpanStats, Tracer
from worker import run_loop

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAMES = sorted(workloads.WORKLOADS)


def _fingerprint(item):
    if isinstance(item, workloads.FoldedInput):
        return ("folded", item.k, item.x0.tolist(), item.fn.hessian(item.x0).tolist())
    return (item.function, item.estimator, item.dim, item.k, item.seed, item.beta_steps)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_inputs_and_counts(name):
    first = workloads.build_inputs(name, 7, tiny=True)
    again = workloads.build_inputs(name, 7, tiny=True)
    other = workloads.build_inputs(name, 8, tiny=True)
    assert [_fingerprint(i) for i in first] == [_fingerprint(i) for i in again]
    assert [_fingerprint(i) for i in first] != [_fingerprint(i) for i in other]
    a = run_loop(name, first, 0.0)
    b = run_loop(name, again, 0.0)
    assert (a["attempted"], a["evals"]) == (b["attempted"], b["evals"])


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_runs_at_tiny_size(name):
    res = run_loop(name, workloads.build_inputs(name, 3, tiny=True), 0.0)
    assert res["attempted"] == workloads.WORKLOADS[name].cycle
    assert res["raised"] == 0
    assert res["failed"] == res["known_defect"], res["problems"]
    assert res["evals"] > 0


def test_full_size_evaluation_counts():
    (item,) = workloads.build_inputs("folded-n20", 1)[:1]
    outcome = workloads.Checker("folded-n20")(item, workloads.run_op("folded-n20", item))
    assert outcome.evals == 231 and not outcome.failed


def test_checker_rejects_perturbed_folded_hessian():
    item = workloads.build_inputs("folded-n20", 5, tiny=True)[0]
    good = workloads.run_op("folded-n20", item)
    check = workloads.Checker("folded-n20")
    assert not check(item, good).failed
    bad = replace(good, hessian=good.hessian + 1e-3 * np.eye(good.hessian.shape[0]))
    outcome = check(item, bad)
    assert outcome.failed and not outcome.known_defect


def test_checker_rejects_perturbed_study_hessian(monkeypatch):
    inputs = workloads.build_inputs("study-lowdim", 5, tiny=True)
    config = next(c for c in inputs if c.function == "sum_of_cubes")
    check = workloads.Checker("study-lowdim")
    assert not check(config, workloads.run_op("study-lowdim", config)).failed
    honest = nshess.study.nested_set_hessian

    def perturbed(*args, **kwargs):
        res = honest(*args, **kwargs)
        return replace(res, hessian=res.hessian + 1e3)

    monkeypatch.setattr(nshess.study, "nested_set_hessian", perturbed)
    outcome = check(config, workloads.run_op("study-lowdim", config))
    assert outcome.failed and not outcome.known_defect


def test_zero_width_certificate_is_a_failure_of_known_cause():
    config = next(c for c in workloads.build_inputs("study-lowdim", 1) if c.function == "quadratic")
    check = workloads.Checker("study-lowdim")
    report = workloads.run_op("study-lowdim", config)
    outcome = check(config, report)
    assert outcome.failed and outcome.known_defect
    # An error of 1e-3 at the smallest scale is far beyond rounding.
    *rows, smallest = report.rows
    assert smallest.beta == min(r.beta for r in report.rows) and smallest.bound == 0.0
    wrong = replace(smallest, error_spec=smallest.error_spec + 1e-3)
    outcome = check(config, replace(report, rows=[*rows, wrong]))
    assert outcome.failed and not outcome.known_defect


def test_tracer_wraps_every_binding_and_restores_it():
    original = nshess.approx.nested_set_hessian
    tracer = Tracer()
    tracer.install()
    try:
        for module in (nshess, nshess.approx, nshess.study, nshess.calculus):
            assert module.nested_set_hessian is not original
            assert module.nested_set_hessian.__wrapped__ is original
        inputs = workloads.build_inputs("rules-quadratic-n10", 2, tiny=True)
        res = run_loop("rules-quadratic-n10", inputs, 0.0, tracer)
    finally:
        tracer.uninstall()
    for module in (nshess, nshess.approx, nshess.study, nshess.calculus):
        assert module.nested_set_hessian is original
    assert res["count_mismatch"] == 0
    assert tracer.count(ORACLE) == res["evals"]
    names = {s[0] for s in tracer.spans}
    assert {"study.run_study", "sets.nshc_points", "quadmodel.interpolate_general"} <= names


def test_oracle_clock_times_only_the_oracle_and_restores_the_cache():
    init = nshess.cache.EvaluationCache.__init__
    clock = OracleClock()
    clock.install()
    try:
        res = run_loop("folded-n20", workloads.build_inputs("folded-n20", 2, tiny=True), 0.0,
                       oracle_clock=clock)
    finally:
        clock.uninstall()
    assert nshess.cache.EvaluationCache.__init__ is init
    assert len(res["oracle_ms"]) == res["attempted"]
    assert all(0.0 < inside < op for inside, op in zip(res["oracle_ms"], res["op_ms"]))


def test_self_time_subtracts_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 7.0, 9.0, 0],
    ]
    stats = SpanStats(spans)
    assert stats.self_s["op"] == pytest.approx(3.0)
    assert stats.self_s["a"] == pytest.approx(4.0)
    assert stats.inclusive(["a", "b"]) == pytest.approx(7.0)
    assert stats.count(["b"]) == 2


def test_scales_follow_the_reference_kernel():
    nominal = calibrate.REF_NOMINAL_MS
    assert calibrate.scales([nominal, nominal, 3 * nominal, 3 * nominal]) == [1.0, 0.5, 1 / 3]


def test_setup_timer_keeps_a_second_line_that_arrives_with_the_first(monkeypatch):
    both_at_exit = "print('{\"ready\": 1}'); print('{\"ref_ms\": [%r]}')" % calibrate.REF_NOMINAL_MS
    monkeypatch.setattr(run, "worker_cmd", lambda mode, args: [sys.executable, "-c", both_at_exit])
    assert run.time_setup(None) > 0.0


def _run(cwd, *args, timeout=120):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "rules-quadratic-n10", "--seed", "4",
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "folded-n20", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
