import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nshess import (
    DirectionSet,
    StudyConfig,
    StudyError,
    approximate_once,
    run_study,
    verify_examples,
)
import nshess
from nshess.cli import build_parser, main
from nshess.study import CSV_HEADER


class TestStudyConfig:
    def test_betas_are_geometric(self):
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          beta_start=1.0, beta_ratio=0.5, beta_steps=4)
        assert cfg.betas() == [1.0, 0.5, 0.25, 0.125]

    def test_unknown_estimator_rejected(self):
        cfg = StudyConfig(function="quadratic", dim=2, estimator="secant")
        with pytest.raises(ValueError, match="estimator"):
            cfg.validate()

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("beta_ratio", 1.0, "beta_ratio"),
            ("beta_start", 0.0, "beta_start"),
            ("beta_steps", 0, "beta_steps"),
            ("k", 5, "k must lie"),
        ],
    )
    def test_schedule_validation(self, field, value, match):
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          **{field: value})
        with pytest.raises(ValueError, match=match):
            cfg.validate()

    def test_explicit_sets_must_come_in_pairs(self):
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          s_base=DirectionSet(np.eye(2)))
        with pytest.raises(ValueError, match="both"):
            cfg.validate()

    def test_sets_at_scales_explicit_bases(self):
        base = DirectionSet(np.array([[2.0, 0.0], [0.0, 1.0]]))
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          s_base=base, t_base=base)
        s, t = cfg.sets_at(0.5)
        np.testing.assert_allclose(s.matrix, [[1.0, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(t.matrix, s.matrix)


class TestRunStudy:
    def test_quadratic_is_exact_at_moderate_scales(self):
        cfg = StudyConfig(function="quadratic", dim=2, k=1, estimator="nested-set",
                          beta_steps=3, seed=0)
        rep = run_study(cfg)
        assert rep.exact
        assert rep.fitted_order is None
        assert all(r.error_spec <= rep.noise_floor for r in rep.rows)
        assert "exact" in rep.summary()

    def test_cubes_converges_at_first_order_with_flat_cost(self):
        cfg = StudyConfig(function="sum_of_cubes", dim=3, k=0, estimator="nested-set",
                          beta_steps=8, seed=0)
        rep = run_study(cfg)
        assert rep.fitted_order == pytest.approx(1.0, abs=0.1)
        assert {r.evals for r in rep.rows} == {10}
        assert all(r.error_spec <= r.bound for r in rep.rows)
        assert "fitted order" in rep.summary()
        # The canonical-set bound is linear in beta, so halving the scale
        # halves the column.
        for prev, cur in zip(rep.rows, rep.rows[1:]):
            assert cur.bound == pytest.approx(0.5 * prev.bound, rel=1e-12)

    def test_same_config_reproduces_rows(self):
        cfg = StudyConfig(function="quadratic", dim=3, k=2, estimator="nested-set",
                          beta_steps=5, seed=7)
        a = run_study(cfg).rows
        b = run_study(cfg).rows
        assert a == b

    @pytest.mark.parametrize(
        "function,estimator",
        [
            ("product_cubes_exp", "product-sc"),
            ("product_cubes_exp", "product-qc"),
            ("quotient_cubes_exp", "quotient-sc"),
            ("quotient_cubes_exp", "quotient-qc"),
            ("power_cubes_2", "power-sc"),
            ("power_cubes_2", "power-qc"),
        ],
    )
    def test_rule_estimators_converge_within_bounds(self, function, estimator):
        cfg = StudyConfig(function=function, dim=2, k=1, estimator=estimator,
                          beta_steps=6, seed=0)
        rep = run_study(cfg)
        assert all(r.error_spec <= r.bound for r in rep.rows)
        assert all(r.bound > 0 for r in rep.rows)
        assert rep.fitted_order == pytest.approx(1.0, abs=0.2)

    def test_quadratic_composite_is_exact_in_quadratic_mode(self):
        cfg = StudyConfig(function="product_quadratics", dim=2, k=1,
                          estimator="product-qc", beta_steps=4, seed=0)
        rep = run_study(cfg)
        assert rep.exact

    def test_uncertified_function_rejected_for_nested_set(self):
        cfg = StudyConfig(function="product_cubes_exp", dim=2, estimator="nested-set")
        with pytest.raises(ValueError, match="no certified Lipschitz"):
            run_study(cfg)

    def test_rule_estimator_needs_matching_composite(self):
        cfg = StudyConfig(function="sum_of_cubes", dim=2, estimator="product-sc")
        with pytest.raises(ValueError, match="product composite"):
            run_study(cfg)

    def test_degenerate_geometry_stays_a_usage_error(self):
        degenerate = DirectionSet(np.array([[1.0, 2.0], [1.0, 2.0]]))
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          beta_steps=2, s_base=degenerate, t_base=degenerate)
        with pytest.raises(ValueError, match="rank deficient"):
            run_study(cfg)

    def test_runtime_failure_is_wrapped_with_the_beta(self, monkeypatch):
        import nshess.study as study_mod

        def boom(*args, **kwargs):
            raise RuntimeError("backend offline")

        monkeypatch.setattr(study_mod, "nested_set_hessian", boom)
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          beta_steps=2)
        with pytest.raises(StudyError, match=r"beta=0\.1.*backend offline"):
            run_study(cfg)


def _overdetermined(n, seed):
    rng = np.random.default_rng(seed)
    return (
        DirectionSet(rng.standard_normal((n, n + 2))),
        DirectionSet(rng.standard_normal((n, n + 1))),
    )


class TestStudyNorms:
    """A study takes every row's spectral norm from one batched SVD and each
    Frobenius norm as sqrt(v . v): bitwise linalg's norms of H - H_true."""

    CASES = [
        ("quadratic", "nested-set"),
        ("sum_of_cubes", "nested-set"),
        ("exp_of_sum", "nested-set"),
        ("rosenbrock", "nested-set"),
        ("product_cubes_exp", "product-sc"),
        ("product_cubes_exp", "product-qc"),
        ("quotient_cubes_exp", "quotient-sc"),
        ("quotient_cubes_exp", "quotient-qc"),
        ("power_cubes_2", "power-sc"),
        ("power_cubes_2", "power-qc"),
    ]

    @staticmethod
    def _rows_and_errors(monkeypatch, cfg):
        import nshess.study as study_mod

        estimates = []
        real = study_mod._estimate

        def recorded(*args):
            estimates.append(real(*args))
            return estimates[-1]

        monkeypatch.setattr(study_mod, "_estimate", recorded)
        rep = run_study(cfg)
        fn = nshess.make_function(cfg.function, cfg.dim, seed=cfg.seed, x0=cfg.x0)
        h_true = fn.hessian(np.asarray(fn.base_point, dtype=float))
        return rep.rows, [res.hessian - h_true for res, _, _ in estimates]

    def _assert_bitwise(self, rows, errors):
        assert len(rows) == len(errors)
        for row, diff in zip(rows, errors):
            for got, want in (
                (row.error_spec, nshess.linalg.spectral_norm(diff)),
                (row.error_fro, nshess.linalg.frobenius_norm(diff)),
            ):
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("function,estimator", CASES)
    def test_every_estimator(self, monkeypatch, function, estimator, symmetrize):
        dim = 3 if estimator == "nested-set" else 2
        cfg = StudyConfig(function=function, dim=dim, k=1, estimator=estimator,
                          beta_steps=5, symmetrize=symmetrize, seed=3)
        self._assert_bitwise(*self._rows_and_errors(monkeypatch, cfg))

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("function", ["quadratic", "sum_of_cubes", "rosenbrock"])
    def test_explicit_overdetermined_sets(self, monkeypatch, function, symmetrize):
        s_base, t_base = _overdetermined(3, 17)
        cfg = StudyConfig(function=function, dim=3, estimator="nested-set", beta_steps=6,
                          beta_start=0.3, symmetrize=symmetrize, s_base=s_base,
                          t_base=t_base, seed=4)
        self._assert_bitwise(*self._rows_and_errors(monkeypatch, cfg))

    def test_one_row(self, monkeypatch):
        cfg = StudyConfig(function="sum_of_cubes", dim=4, k=2, beta_steps=1)
        self._assert_bitwise(*self._rows_and_errors(monkeypatch, cfg))

    def test_a_non_finite_error_raises_at_its_own_row(self, monkeypatch):
        import nshess.study as study_mod

        oracle_calls = []
        real_cache = study_mod.EvaluationCache

        def counting_cache(oracle):
            def counted(x):
                oracle_calls.append(1)
                return oracle(x)

            return real_cache(counted)

        calls = []
        calls_by_row = []  # oracle calls made when each row's estimate returned
        real = study_mod._estimate

        def poisoned(*args):
            res, bound, caches = real(*args)
            calls.append(res)
            calls_by_row.append(len(oracle_calls))
            if len(calls) == 2:
                hessian = res.hessian.copy()
                hessian[0, 1] = np.inf
                res = SimpleNamespace(hessian=hessian, eval_count=res.eval_count)
            return res, bound, caches

        monkeypatch.setattr(study_mod, "EvaluationCache", counting_cache)
        monkeypatch.setattr(study_mod, "_estimate", poisoned)
        cfg = StudyConfig(function="sum_of_cubes", dim=2, beta_steps=4)
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            run_study(cfg)
        assert len(calls) == 2  # no later row was estimated
        # ... and no later row called the oracle.
        assert len(oracle_calls) == calls_by_row[1] > calls_by_row[0] > 0

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_each_bound_is_bitwise_the_rows_own_certificate(self, explicit, symmetrize):
        import nshess.study as study_mod

        sets = dict(zip(("s_base", "t_base"), _overdetermined(3, 5))) if explicit else {}
        cfg = StudyConfig(function="rosenbrock", dim=3, k=2, beta_steps=7,
                          symmetrize=symmetrize, seed=2, **sets)
        rows = run_study(cfg).rows
        fn = study_mod._setup(cfg)[0]
        assert len(rows) == 7
        for row in rows:
            s_set, t_set = cfg.sets_at(row.beta)
            want = nshess.error_bound_nsh(
                nshess.BoundInputs.for_hessian(s_set, t_set, fn.lipschitz_grad, fn.lipschitz_hess)
            )
            assert type(row.bound) is float
            assert np.float64(row.bound).tobytes() == np.float64(want).tobytes()


class TestReportCsv:
    def test_header_and_roundtrip(self):
        cfg = StudyConfig(function="sum_of_cubes", dim=2, k=0, estimator="nested-set",
                          beta_steps=3, seed=0)
        rep = run_study(cfg)
        buf = io.StringIO()
        rep.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER == "beta,error_spec,error_fro,bound,evals"
        assert len(lines) == 4
        for line, row in zip(lines[1:], rep.rows):
            cells = line.split(",")
            assert float(cells[0]) == row.beta
            assert float(cells[3]) == row.bound
            assert int(cells[4]) == row.evals

    def test_writes_to_path(self, tmp_path):
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          beta_steps=2, seed=0)
        out = tmp_path / "study.csv"
        run_study(cfg).to_csv(out)
        assert out.read_text().startswith(CSV_HEADER)


class TestApproximateOnce:
    def test_payload_shape_for_nested_set(self):
        cfg = StudyConfig(function="quadratic", dim=2, k=2, estimator="nested-set",
                          beta_start=0.1, seed=0)
        payload, caches = approximate_once(cfg)
        assert set(payload) == {
            "function", "estimator", "beta", "k", "x0", "hessian", "delta_u",
            "delta_l", "symmetrized", "evals", "bound", "error_spec", "error_fro",
        }
        assert payload["evals"] == 6
        # A quadratic's Hessian-Lipschitz certificate is zero, so the
        # nested-set bound is sharp at zero.
        assert payload["bound"] == 0.0
        assert payload["error_spec"] <= 1e-10
        assert len(caches) == 1
        json.dumps(payload)

    def test_bound_is_positive_for_curved_functions(self):
        cfg = StudyConfig(function="sum_of_cubes", dim=2, k=1, estimator="nested-set",
                          beta_start=0.05, seed=0)
        payload, _ = approximate_once(cfg)
        assert payload["bound"] > payload["error_spec"] > 0

    def test_bound_is_null_without_certificates(self):
        cfg = StudyConfig(function="product_cubes_exp", dim=2, estimator="nested-set",
                          beta_start=1e-3, seed=0)
        payload, _ = approximate_once(cfg)
        assert payload["bound"] is None
        assert payload["error_spec"] < 1.0

    def test_model_reuses_the_same_evaluations(self):
        cfg = StudyConfig(function="sum_of_cubes", dim=3, k=1, estimator="nested-set",
                          beta_start=0.05, seed=0)
        payload, caches = approximate_once(cfg, with_model=True)
        assert payload["evals_with_model"] == payload["evals"] == 10
        assert set(payload["model"]) == {"alpha0", "alpha", "hessian_upper"}
        assert caches[0].distinct_count == 10

    def test_model_restricted_to_nested_set(self):
        cfg = StudyConfig(function="product_cubes_exp", dim=2, estimator="product-sc")
        with pytest.raises(ValueError, match="with-model"):
            approximate_once(cfg, with_model=True)

    def test_model_restricted_to_canonical_sets(self):
        base = DirectionSet(np.eye(2))
        cfg = StudyConfig(function="quadratic", dim=2, estimator="nested-set",
                          s_base=base, t_base=base)
        with pytest.raises(ValueError, match="canonical"):
            approximate_once(cfg, with_model=True)

    def test_rule_payload_carries_rule_bound(self):
        cfg = StudyConfig(function="power_cubes_2", dim=2, k=0,
                          estimator="power-qc", beta_start=0.05, seed=0)
        payload, caches = approximate_once(cfg)
        assert payload["bound"] > payload["error_spec"]
        assert len(caches) == 1
        assert payload["evals"] == caches[0].distinct_count


class TestVerifyExamples:
    def test_all_checks_pass(self):
        rep = verify_examples(seed=0)
        assert rep.passed
        assert [c.name for c in rep.checks] == [
            "worked-points",
            "fold-counts",
            "worked-witness",
            "poised-not-minimal",
            "transform-invariance",
        ]

    def test_seed_varies_the_randomized_check(self):
        assert verify_examples(seed=1).passed
        assert verify_examples(seed=2).passed


class TestCli:
    def test_parser_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_approx_emits_json(self, capsys):
        code = main([
            "approx", "--function", "quadratic", "--dim", "2", "--k", "1",
            "--beta", "0.1", "--seed", "3",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["function"] == "quadratic"
        assert np.asarray(payload["hessian"]).shape == (2, 2)

    def test_approx_with_trace_and_model(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main([
            "approx", "--function", "sum_of_cubes", "--dim", "2", "--k", "0",
            "--with-model", "--trace", str(trace),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evals_with_model"] == 6
        header, first = trace.read_text().strip().split("\n")[:2]
        assert header == "x1,x2,value,status"
        assert first.endswith(("hit", "miss"))

    @pytest.mark.parametrize(
        "function, estimator",
        [("product_cubes_exp", "product-qc"), ("quotient_cubes_exp", "quotient-sc")],
    )
    def test_approx_refuses_a_trace_of_two_caches(self, capsys, tmp_path, function, estimator):
        # One CSV would hold f's requests and silently drop g's.
        trace = tmp_path / "trace.csv"
        code = main([
            "approx", "--function", function, "--dim", "3", "--estimator", estimator,
            "--trace", str(trace),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "--trace" in captured.err and captured.out == ""
        assert not trace.exists()

    @pytest.mark.parametrize(
        "function, estimator", [("power_cubes_2", "power-qc"), ("sum_of_cubes", "nested-set")]
    )
    def test_approx_traces_a_single_cache_in_full(self, capsys, tmp_path, function, estimator):
        trace = tmp_path / "trace.csv"
        code = main([
            "approx", "--function", function, "--dim", "3", "--estimator", estimator,
            "--trace", str(trace),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = trace.read_text().strip().split("\n")[1:]
        assert sum(row.endswith("miss") for row in rows) == payload["evals"]

    def test_approx_parses_x0(self, capsys):
        code = main([
            "approx", "--function", "sum_of_cubes", "--dim", "2",
            "--x0", "2.0,-1.0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x0"] == [2.0, -1.0]

    def test_bad_x0_is_a_usage_error(self, capsys):
        code = main([
            "approx", "--function", "quadratic", "--dim", "2", "--x0", "1,two",
        ])
        assert code == 2
        assert "could not parse" in capsys.readouterr().err

    def test_unknown_function_is_a_usage_error(self, capsys):
        code = main(["approx", "--function", "sine", "--dim", "2"])
        assert code == 2
        assert "unknown registry function" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "function, x0",
        [
            ("exp_of_sum", "300,300,300"),  # an OverflowError traceback, exit 1
            ("rosenbrock", "1e160,1e160,1e160"),
            ("sum_of_cubes", "1e200,1e200,1e200"),  # inf at its own base point
            ("quadratic", "1e200,1e200,1e200"),
            ("product_cubes_exp", "233,233,233"),  # inf at x0, though each part is finite
            ("power_cubes_2", "1e60,1e60,1e60"),  # OverflowError from every oracle call
        ],
    )
    def test_an_overflowing_function_is_a_usage_error(self, capsys, function, x0):
        code = main(["approx", "--function", function, "--dim", "3", "--x0", x0])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {function}") and "not finite" in err

    def test_mismatched_estimator_is_a_usage_error(self, capsys):
        code = main([
            "study", "--function", "sum_of_cubes", "--dim", "2",
            "--estimator", "product-sc",
        ])
        assert code == 2

    def test_study_writes_csv_to_stdout(self, capsys):
        code = main([
            "study", "--function", "quadratic", "--dim", "2", "--k", "1",
            "--beta-steps", "3",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)
        assert "fitted order" in captured.err

    def test_study_writes_csv_to_file(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "study", "--function", "sum_of_cubes", "--dim", "2",
            "--beta-steps", "4", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_estimator_failure_maps_to_exit_one(self, capsys, monkeypatch):
        import nshess.cli as cli_mod

        def boom(config):
            raise StudyError("estimator failed at beta=0.1: synthetic")

        monkeypatch.setattr(cli_mod, "run_study", boom)
        code = main(["study", "--function", "quadratic", "--dim", "2"])
        assert code == 1
        assert "synthetic" in capsys.readouterr().err

    def test_verify_examples_reports_each_check(self, capsys):
        code = main(["verify-examples", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 5
        assert all(line.startswith("PASS") for line in out)

    def test_verify_examples_dumps_points(self, capsys, tmp_path):
        grid = tmp_path / "points.csv"
        code = main(["verify-examples", "--points-csv", str(grid)])
        assert code == 0
        lines = grid.read_text().strip().split("\n")
        assert lines[0] == "x1,x2"
        assert len(lines) == 7


def _run_into_closed_pipe(*args):
    """Run the console entry with stdout a pipe whose reader has already gone."""
    read, write = os.pipe()
    os.close(read)
    src = str(Path(nshess.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        return subprocess.run(
            [sys.executable, "-m", "nshess.cli", *args],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write)


class TestClosedStdout:
    def test_approx_stops_quietly(self):
        # ``nshess approx ... --dim 30 ... | head -c 300`` used to end in a
        # BrokenPipeError traceback.
        proc = _run_into_closed_pipe(
            "approx", "--function", "quadratic", "--dim", "30", "--k", "2", "--with-model"
        )
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_study_to_stdout_stops_quietly(self):
        proc = _run_into_closed_pipe(
            "study", "--function", "sum_of_cubes", "--dim", "3", "--beta-steps", "3"
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr and b"BrokenPipe" not in proc.stderr
