import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from consopt.harness import (
    METHODS,
    PROBLEMS,
    ExperimentConfig,
    build_instance,
    estimate_fstar,
    read_csv,
    run_experiment,
    write_csv,
    write_report,
)
from consopt.objectives import CompositeObjective, quadratic_objective
from consopt.cli import main as cli_main


class TestConfig:
    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="problem"):
            ExperimentConfig(problem="cubic")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="registered"):
            ExperimentConfig(problem="quadratic", methods=("sgd",))

    def test_composite_methods_only_with_l1(self):
        with pytest.raises(ValueError, match="smooth"):
            ExperimentConfig(problem="quadratic", methods=("fista",))
        with pytest.raises(ValueError, match="composite"):
            ExperimentConfig(problem="quadratic", l1=True, methods=("gd",))

    @pytest.mark.parametrize("field, value", [("h", 0.0), ("s", -1.0), ("h", float("nan"))])
    def test_rejects_non_positive_step(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            ExperimentConfig(problem="quadratic", **{field: value})

    def test_default_rosters(self):
        cfg = ExperimentConfig(problem="quadratic")
        assert cfg.methods == (
            "nag-sc", "nag-sc-under", "nag-c-restart",
            "rcm-grad", "rcm-mmd-dr", "rcm-mmd-r", "rcm-kin",
        )
        cfg = ExperimentConfig(problem="logistic", l1=True)
        assert "fista-restart" in cfg.methods


class TestRunExperiment:
    def test_row_count_contract(self):
        cfg = ExperimentConfig(problem="quadratic", n=8, reps=1, max_iter=10, methods=("gd",))
        rows = run_experiment(cfg)
        assert len(rows) == 11
        assert [r.iter for r in rows] == list(range(11))

    def test_determinism_bytes(self, tmp_path):
        cfg = ExperimentConfig(problem="logistic", n=10, m=30, reps=2, max_iter=40, base_seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg), p1)
        write_csv(run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_methods_share_instance_and_start(self):
        cfg = ExperimentConfig(
            problem="quadratic", n=12, reps=2, max_iter=5, methods=("gd", "nag-c-restart", "rcm-grad")
        )
        rows = run_experiment(cfg)
        for rep in range(2):
            first = {r.method: r.fval for r in rows if r.rep == rep and r.iter == 0}
            assert len(set(first.values())) == 1

    def test_gap_nonnegative_and_restart_binary(self):
        cfg = ExperimentConfig(problem="logsumexp", n=8, m=20, reps=1, max_iter=60)
        rows = run_experiment(cfg)
        assert all(r.gap >= 0.0 for r in rows)
        assert all(r.restart in (0, 1) for r in rows)

    def test_parallel_matches_sequential(self):
        cfg = ExperimentConfig(problem="quadratic", n=10, reps=4, max_iter=30, base_seed=2)
        seq = run_experiment(cfg, parallel=False)
        par = run_experiment(cfg, parallel=True)
        assert seq == par

    @pytest.mark.parametrize("l1", [False, True])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_every_registered_method_runs(self, problem, l1):
        cfg = ExperimentConfig(problem=problem, l1=l1, n=6, m=15, reps=1, max_iter=8)
        smooth, _ = build_instance(ExperimentConfig(problem=problem, n=6, m=15), 0)
        has_mu = (smooth.strong_convexity or 0.0) > 0.0
        for name, method in METHODS.items():
            if method.composite != l1:
                continue
            if method.needs_mu and not has_mu:
                with pytest.raises(ValueError, match="strong convexity"):
                    run_experiment(replace(cfg, methods=(name,)))
                continue
            rows = run_experiment(replace(cfg, methods=(name,)))
            assert [r.iter for r in rows] == list(range(cfg.max_iter + 1)), name
            assert all(np.isfinite([r.fval, r.gap, r.residual]).all() for r in rows), name

    def test_composite_rows(self):
        cfg = ExperimentConfig(problem="quadratic", l1=True, n=10, reps=1, max_iter=50,
                               methods=("fista", "fista-restart", "rcm-comp-grad"))
        rows = run_experiment(cfg)
        assert len(rows) == 3 * 51
        assert all(np.isfinite(r.residual) for r in rows)


class TestEstimateFstar:
    def test_quadratic_exact(self):
        obj = quadratic_objective(np.diag([2.0]), np.array([-2.0]))
        assert estimate_fstar(obj, np.zeros(1), 10) == pytest.approx(-1.0)

    def test_reference_run_is_lower_envelope(self):
        cfg = ExperimentConfig(problem="logistic", n=8, m=25, reps=1, max_iter=200)
        obj, x0 = build_instance(cfg, 0)
        f_hat = estimate_fstar(obj, x0, cfg.max_iter)
        rows = run_experiment(cfg)
        assert f_hat <= min(r.fval for r in rows) + 1e-12

    def test_composite_uses_fista_reference(self):
        cfg = ExperimentConfig(problem="quadratic", l1=True, n=8, reps=1, max_iter=100)
        obj, x0 = build_instance(cfg, 0)
        assert isinstance(obj, CompositeObjective)
        f_hat = estimate_fstar(obj, x0, 100)
        assert np.isfinite(f_hat)


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", n=6, reps=1, max_iter=12, methods=("gd", "rcm-grad"))
        rows = run_experiment(cfg)
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        assert read_csv(path) == rows

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "method,rep,iter,fval,gap,residual,restart\n"
        assert read_csv(path) == []

    def test_report_json(self, tmp_path):
        path = tmp_path / "rep.json"
        write_report({"bound_name": "x", "lhs": 1.0, "rhs": 2.0, "slack": 0.0, "pass": True}, path)
        assert json.loads(path.read_text())["pass"] is True


class TestCli:
    def test_bench_row_count(self, tmp_path):
        out = tmp_path / "q.csv"
        code = cli_main([
            "bench", "quadratic", "--n", "20", "--reps", "2", "--iters", "50",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 7 * 2 * 51  # full roster x reps x (iters + 1)

    def test_bench_method_subset(self, tmp_path):
        out = tmp_path / "g.csv"
        code = cli_main([
            "bench", "logsumexp", "--n", "8", "--m", "20", "--reps", "1",
            "--iters", "30", "--methods", "gd,rcm-grad", "--out", str(out),
        ])
        assert code == 0
        assert len(read_csv(out)) == 2 * 31

    def test_continuous_mmd_bounds_json(self, tmp_path, capsys):
        out = tmp_path / "mmd.json"
        code = cli_main(["continuous", "mmd-bounds", "--mu", "1", "--L", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["t_a"] == pytest.approx(1.1656, abs=1e-3)
        assert report["lower"] == pytest.approx(0.125)
        assert report["upper"] == pytest.approx(32.0)
        assert report["pass"] is True

    def test_continuous_other_checks(self):
        assert cli_main(["continuous", "visiting-time", "--mu", "4"]) == 0
        assert cli_main(["continuous", "kinetic-1d", "--mu", "2"]) == 0
        assert cli_main(["continuous", "quad-decrease", "--mu", "1", "--L", "9", "--n", "4"]) == 0
        assert cli_main(["continuous", "small-time", "--mu", "0.5", "--L", "3", "--n", "3"]) == 0
        assert cli_main(["continuous", "conv-cont", "--mu", "0.5", "--L", "3", "--n", "3",
                         "--restarts", "2"]) == 0
        assert cli_main(["continuous", "length", "--mu", "0.5", "--L", "3", "--n", "3",
                         "--restarts", "2"]) == 0

    def test_unknown_flag_exits_2(self):
        for args in (["quadratic", "--bogus"], ["quadratic", "--methods", "sgd"],
                     ["quadratic", "--methods", "fista"], ["logistic", "--methods", "nag-sc"],
                     ["quadratic", "--n", "0"], ["logistic", "--m", "0"], ["quadratic", "--seed", "-1"]):
            with pytest.raises(SystemExit) as info:
                cli_main(["bench", *args])
            assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        for command in ("frobnicate", "verify"):
            with pytest.raises(SystemExit) as info:
                cli_main([command])
            assert info.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "consopt.cli", "continuous", "visiting-time"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert '"pass": true' in proc.stdout
