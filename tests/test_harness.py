import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import entr

import consopt
from consopt import composite, continuous, discrete, harness, objectives
from consopt.composite import fista_restart_run
from consopt.harness import (
    CSV_HEADER,
    DUAL_GAP_ULPS,
    METHODS,
    PROBLEMS,
    ExperimentConfig,
    ResultRow,
    _entr,
    _logistic_l1_dual,
    _run_method,
    build_instance,
    estimate_fstar,
    read_csv,
    run_experiment,
    write_csv,
    write_report,
)
from consopt.objectives import CompositeObjective, _exp_neg_abs, _sigmoid_neg, quadratic_objective
from consopt.cli import main as cli_main

from oracles import max_ulps, read_csv_per_line

# A quadratic family, whose exact f* makes some gaps clip at roundoff, with
# one method (gd at s = 10 > 2/L) that diverges on every repetition.
DIVERGING = ExperimentConfig(problem="quadratic", n=8, reps=2, max_iter=200, s=10.0,
                             methods=("gd", "rcm-grad", "rcm-kin"))


def _scalar_rows(config):
    """Reference rows and clipped counts per repetition, built one NumPy
    scalar at a time from the same instances, f* and traces."""
    rows, counts = [], []
    for rep in range(config.reps):
        obj, x0 = build_instance(config, rep)
        f_star = estimate_fstar(obj, x0, config.max_iter)
        clipped = 0
        for name in config.methods:
            try:
                trace = _run_method(name, obj, x0, config)
                diverged = False
            except discrete.DivergenceError as err:
                trace = err.partial_trace
                diverged = True
            for i in range(len(trace)):
                gap = trace.fvals[i] - f_star
                if gap < 0.0:
                    clipped += 1
                    gap = 0.0
                rows.append(ResultRow(method=name, rep=rep, iter=i,
                                      fval=float(trace.fvals[i]), gap=float(gap),
                                      residual=float(trace.residuals[i]), restart=int(trace.restarts[i])))
            if diverged:
                nan = float("nan")
                rows.append(ResultRow(name, rep, len(trace), nan, nan, nan, 0))
        counts.append(clipped)
    return rows, counts


def _bits(rows):
    """Rows with every field as its repr: NaN compares equal to NaN, while
    0.0 and -0.0, 1 and 1.0, and a float and a NumPy scalar stay apart."""
    return [tuple(map(repr, r)) for r in rows]


def _run_recording_warnings(config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_experiment(config)
    return rows, caught


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

    @pytest.mark.parametrize(
        "field, value", [("s", 0.0), ("s", -1.0), ("s", float("nan")), ("s", float("inf"))]
    )
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

    def test_clipped_gap_warnings_in_rep_order_at_caller(self):
        cfg = ExperimentConfig(problem="quadratic", n=30, reps=2, max_iter=400, base_seed=4)
        _, caught = _run_recording_warnings(cfg)
        assert [str(w.message).split(":")[0] for w in caught] == ["rep 0", "rep 1"]
        assert all(w.filename == __file__ for w in caught)

    def test_rows_match_scalar_construction(self):
        rows, caught = _run_recording_warnings(DIVERGING)
        expected, counts = _scalar_rows(DIVERGING)
        assert _bits(rows) == _bits(expected)
        assert sum(math.isnan(r.fval) for r in rows) == DIVERGING.reps
        assert all(counts)
        assert [str(w.message) for w in caught] == [
            f"rep {rep}: clipped {n} slightly negative gap values to 0" for rep, n in enumerate(counts)
        ]
        field_types = (str, int, int, float, float, float, int)
        assert all(tuple(map(type, r)) == field_types for r in rows)
        assert all(type(r) is ResultRow for r in rows)

    @pytest.mark.parametrize("l1", [False, True])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_every_registered_method_runs(self, problem, l1):
        cfg = ExperimentConfig(problem=problem, l1=l1, n=6, m=15, reps=1, max_iter=8)
        smooth, _ = build_instance(ExperimentConfig(problem=problem, n=6, m=15), 0)
        has_mu = (smooth.strong_convexity or 0.0) > 0.0
        for name, method in METHODS.items():
            if method.composite != l1:
                continue
            if method.mu_divisor is not None and not has_mu:
                with pytest.raises(ValueError, match="strong convexity"):
                    run_experiment(replace(cfg, methods=(name,)))
                continue
            rows = run_experiment(replace(cfg, methods=(name,)))
            assert [r.iter for r in rows] == list(range(cfg.max_iter + 1)), name
            assert all(np.isfinite([r.fval, r.gap, r.residual]).all() for r in rows), name

    @pytest.mark.filterwarnings("ignore:.* exceeds 1/L")
    def test_nag_sc_momentum_out_of_range_is_refused_before_any_work(self, monkeypatch):
        cfg = ExperimentConfig(problem="quadratic", n=4, s=10.0, max_iter=5, methods=("nag-sc", "gd"))
        mu = build_instance(cfg, 0)[0].strong_convexity
        assert mu * 10.0 > 1.0 >= mu / 3.0 * 10.0
        rows = run_experiment(replace(cfg, methods=("nag-sc-under", "gd")))
        assert {r.method for r in rows} == {"nag-sc-under", "gd"}

        def called(*args, **kwargs):
            raise AssertionError("work started on a refused rep")

        monkeypatch.setattr(harness, "estimate_fstar", called)
        for name in ("nag_sc_run", "gradient_descent_run"):
            monkeypatch.setattr(discrete, name, called)
        with pytest.raises(ValueError, match=rf"^nag-sc on rep 0: mu \* s = {mu * 10.0:g} > 1"):
            run_experiment(cfg)

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

    @pytest.mark.parametrize("problem", ["quadratic", "logsumexp"])
    def test_uncertified_composites_keep_the_full_reference(self, problem):
        # Only l1-logistic has a dual certificate; the other composites take
        # the minimum of the FISTA-restart reference over its whole budget.
        cfg = ExperimentConfig(problem=problem, l1=True, n=8, m=20, reps=1, max_iter=60, base_seed=3)
        obj, x0 = build_instance(cfg, 0)
        full = fista_restart_run(obj, x0, 1.0 / obj.smooth.lipschitz, 600)
        assert estimate_fstar(obj, x0, 60) == float(np.min(full.fvals))

    def test_dual_bound_is_below_every_value(self):
        # Weak duality at random points and along reference runs, on several
        # instances.  Bounds from near-optimal points may pass the best value
        # by the rounding of the two sums, which reaches 2 ulps here.
        for n, m, seed in ((8, 20, 3), (8, 20, 4), (10, 30, 1), (20, 60, 5), (50, 200, 0)):
            f, x0 = build_instance(ExperimentConfig(problem="logistic", l1=True, n=n, m=m, base_seed=seed), 0)
            rng = np.random.default_rng(seed)
            far = [scale * rng.standard_normal(n) for scale in (0.01, 0.1, 1.0, 10.0) for _ in range(5)]
            near = list(fista_restart_run(f, x0, 1.0 / f.smooth.lipschitz, 300, keep_iterates=True).xs[::7])
            p_min = min(f.value(x) for x in far + near)
            assert max(_logistic_l1_dual(f, x) for x in far) < p_min
            assert max(_logistic_l1_dual(f, x) for x in near) <= p_min + 2 * np.spacing(p_min)

    def test_entropy_terms_are_no_less_accurate_than_scipy(self):
        # -p log p against the 200-bit mpmath value on [0, 1], subnormals
        # included, by no more ulps than scipy.special.entr; and SciPy's
        # values, without a warning, at 0, below 0, at inf and at NaN.
        p = np.concatenate([[0.0, 5e-324, 1e-320, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308],
                            np.logspace(-307, 0, 200), 1.0 - np.logspace(-16, -0.01, 50)])
        with mpmath.workprec(200):
            exact = [-v * mpmath.log(v) if v > 0 else 0 for v in map(mpmath.mpf, p.tolist())]
        assert max_ulps(_entr(p), exact) <= max_ulps(entr(p), exact)
        special = np.array([0.0, -0.0, -5e-324, -1.0, -np.inf, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_entr(special), entr(special), equal_nan=True)

    def test_dual_point_gives_the_gradient(self):
        # A theta, with theta formed as _logistic_l1_dual forms it, is the
        # smooth gradient bit for bit, at random points and along a
        # reference run, so the dual could take the gradient's product.
        f, x0 = build_instance(ExperimentConfig(problem="logistic", l1=True, n=50, m=200, base_seed=0), 0)
        A, y = f.smooth.A, f.smooth.y
        rng = np.random.default_rng(0)
        points = [scale * rng.standard_normal(50) for scale in np.logspace(-3, 1, 50)]
        points += list(fista_restart_run(f, x0, 1.0 / f.smooth.lipschitz, 200, keep_iterates=True).xs)
        for x in points:
            t = A.T.dot(x)
            theta = (1.0 - y) - _sigmoid_neg(t, _exp_neg_abs(t))
            assert A.dot(theta).tobytes() == f.smooth.gradient(x).tobytes()

    def test_certified_reference_on_the_criterion_08_family(self):
        # On the 20 l1-logistic reps of criterion 08, the certified f* is at
        # most DUAL_GAP_ULPS ulps above the minimum of the full 50,000-step
        # reference.  Reps 9 and 19, whose full references never reach an
        # exact fixed point, now stop after about 50 iterations.
        cfg = ExperimentConfig(problem="logistic", l1=True, n=50, m=200, reps=20, max_iter=5000, base_seed=0,
                               methods=("fista",))
        grad_calls = {}
        for rep in range(cfg.reps):
            obj, x0 = build_instance(cfg, rep)
            smooth = obj.smooth
            calls = [0]

            def gradient(x, inner=smooth.gradient):
                calls[0] += 1
                return inner(x)

            f_star = estimate_fstar(replace(obj, smooth=replace(smooth, gradient=gradient)), x0, cfg.max_iter)
            grad_calls[rep] = calls[0]
            full_min = float(np.min(fista_restart_run(obj, x0, 1.0 / smooth.lipschitz, 10 * cfg.max_iter).fvals))
            assert full_min <= f_star <= full_min + DUAL_GAP_ULPS * np.spacing(full_min)
        assert (grad_calls[9], grad_calls[19]) == (105, 101)


_SCIPY_FOOTPRINT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import consopt
from consopt.harness import ExperimentConfig, build_instance, estimate_fstar, run_experiment

def loaded():
    return sorted(m for m in ("scipy.integrate", "scipy.special") if m in sys.modules)

run_experiment(ExperimentConfig(problem="quadratic", n=5, reps=1, max_iter=20))
consopt.run_piecewise_conservative(consopt.quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2)), np.ones(2),
                                   n_restarts=1)
assert loaded() == [], loaded()
f, x0 = build_instance(ExperimentConfig(problem="logistic", l1=True, n=5, m=20, max_iter=20), 0)
estimate_fstar(f, x0, 20)
for l1 in (False, True):
    run_experiment(ExperimentConfig(problem="logistic", l1=l1, n=5, m=20, max_iter=20))
assert loaded() == [], loaded()
build_instance(ExperimentConfig(problem="logsumexp", n=5, m=20, max_iter=20), 0)
assert loaded() == ["scipy.special"], loaded()
consopt.visiting_time_1d(lambda x: 0.5 * x * x, 1.0, 0.0)
assert loaded() == ["scipy.integrate", "scipy.special"], loaded()
"""


def test_scipy_submodules_load_only_where_a_run_uses_them():
    # In a child process, since this one has SciPy loaded by other test
    # modules: a quadratic family, a flow, an l1-logistic f* and logistic
    # families load neither scipy.special nor scipy.integrate, a
    # log-sum-exp instance loads scipy.special only, and the 1-D visiting
    # time loads scipy.integrate.
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FOOTPRINT, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_package_names_are_those_of_its_modules_all_lists():
    # consopt/__init__.py star-imports its five modules, so their __all__
    # lists are the one list of its public names, with no name in two.
    modules = (objectives, discrete, composite, continuous, harness)
    exported = {name: module for module in modules for name in module.__all__}
    assert len(exported) == sum(len(module.__all__) for module in modules)
    submodules = {name for name, value in vars(consopt).items()
                  if isinstance(value, types.ModuleType) and value.__name__ == f"consopt.{name}"}
    assert {name for name in vars(consopt) if not name.startswith("_")} == exported.keys() | submodules
    assert isinstance(consopt.__version__, str)
    for name, module in exported.items():
        assert getattr(consopt, name) is getattr(module, name), name


# Lines after MALFORMED_PREFIX that read_csv refuses, and the line it names.
MALFORMED_PREFIX = "method,rep,iter,fval,gap,residual,restart\ngd,0,0,1.0,0.5,2.0,0\n"
MALFORMED = [
    ("gd,0,1,0.5,0.25,1.0\n", 3),
    ("gd,0,1,0.5,0.25,1.0,0,7\n", 3),
    ("gd,0,1,half,0.25,1.0,0\n", 3),
    ("gd,0,one,0.5,0.25,1.0,0\n", 3),
    ("\n", 3),
    ("gd,0,1,0.5,0.25,1.0,0\n\n", 4),
]


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", n=6, reps=1, max_iter=12, methods=("gd", "rcm-grad"))
        rows = run_experiment(cfg)
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        assert read_csv(path) == rows

    @pytest.mark.filterwarnings("ignore:rep .* clipped")
    def test_round_trip_with_divergence(self, tmp_path):
        rows = run_experiment(DIVERGING)
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        back = read_csv(path)
        assert any(math.isnan(r.gap) for r in back)
        assert _bits(back) == _bits(rows)

    @pytest.mark.parametrize("line, lineno", MALFORMED)
    def test_malformed_row_names_path_and_line(self, tmp_path, line, lineno):
        path = tmp_path / "rows.csv"
        path.write_text(MALFORMED_PREFIX + line)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {lineno}: "):
            read_csv(path)

    def test_bytes_equal_the_per_row_format(self, tmp_path):
        # Each run's distinct floats are formatted once; the bytes must be
        # those of formatting every field of every row on its own.
        special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1, -2.5]
        rows = [
            ResultRow("gd", 0, i, special[i % 10], special[(3 * i) % 10], special[(7 * i + 1) % 10], i % 2)
            for i in range(25)
        ]
        # a value repeated within and across runs, runs of one row, and a
        # run of the same method on another repetition
        rows += [ResultRow("rcm-grad", 0, i, 0.1, -0.0, 0.1, 0) for i in range(3)]
        rows += [ResultRow("rcm-grad", 1, 0, 0.0, 0.0, -0.0, 1), ResultRow("gd", 1, 0, 1e16, 1e-5, math.nan, 0)]
        expected = "method,rep,iter,fval,gap,residual,restart\n" + "".join(
            f"{m},{r},{i},{fval!r},{gap!r},{res!r},{restart}\n" for m, r, i, fval, gap, res, restart in rows
        )
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        assert path.read_text() == expected
        write_csv((row for row in rows), path)
        assert path.read_text() == expected

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "method,rep,iter,fval,gap,residual,restart\n"
        assert read_csv(path) == []

    def test_report_json(self, tmp_path):
        path = tmp_path / "rep.json"
        write_report({"bound_name": "x", "lhs": 1.0, "rhs": 2.0, "slack": 0.0, "pass": True}, path)
        assert json.loads(path.read_text())["pass"] is True


def _same_rows(path):
    """read_csv's rows of ``path`` equal the per-line reference's, field
    for field, bit for bit and type for type."""
    got, expected = read_csv(path), read_csv_per_line(path)
    assert _bits(got) == _bits(expected)
    assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in expected]
    assert all(type(r) is ResultRow for r in got)
    return got


def _same_error(path):
    """read_csv refuses ``path`` with the per-line reference's message."""
    with pytest.raises(ValueError) as expected:
        read_csv_per_line(path)
    with pytest.raises(ValueError) as got:
        read_csv(path)
    assert str(got.value) == str(expected.value)
    return str(got.value)


class TestCsvReader:
    """read_csv parses each run's rep once and each distinct tail (fval,
    gap, residual, restart) once per run; oracles.read_csv_per_line parses
    every field of every line."""

    def test_fixed_point_and_period_p_runs(self, tmp_path):
        rows = []
        for rep in range(2):
            # a run that settles after 40 iterations and one per period p,
            # each with a restart once per cycle
            rows += [ResultRow("rcm-kin", rep, i, 1.0 / (1 + min(i, 40)), 0.5 ** min(i, 40), 0.1 * rep, int(i == 40))
                     for i in range(301)]
            for p in (2, 3, 7):
                rows += [ResultRow(f"period-{p}", rep, i, 0.5 + i % p, 0.1 * (i % p), 2.0 ** -(i % p), int(i % p == 0))
                         for i in range(200)]
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        assert _bits(_same_rows(path)) == _bits(rows)

    def test_special_tails(self, tmp_path):
        # tails that differ only in a signed zero, NaN, infinities and
        # subnormals, repeated and alternating within one run
        tails = ["0.0,0.0,0.0,0", "-0.0,0.0,0.0,0", "0.0,-0.0,0.0,0", "0.0,0.0,-0.0,0", "nan,nan,nan,0",
                 "inf,-inf,inf,1", "-inf,inf,-inf,1", "5e-324,-5e-324,1e-310,0", "-1e-310,2.2250738585072e-308,0.0,1"]
        order = list(range(len(tails))) + [0, 1, 0, 1, 4, 4, 7, 8, 7, 2, 3]
        path = tmp_path / "rows.csv"
        path.write_text(CSV_HEADER + "\n" + "".join(f"gd,0,{i},{tails[k]}\n" for i, k in enumerate(order)))
        back = _same_rows(path)
        assert [math.copysign(1.0, r.fval) for r in back[:2]] == [1.0, -1.0]
        assert back[7].fval == back[-3].fval == 5e-324 and math.isnan(back[4].gap)

    def test_same_tail_under_another_run(self, tmp_path):
        tail = "0.25,0.125,1.5,1"
        runs = [("gd", 0), ("gd", 1), ("rcm-kin", 1), ("gd", 0), ("gd", 10), ("gd", 1)]
        path = tmp_path / "rows.csv"
        path.write_text(CSV_HEADER + "\n" + "".join(f"{m},{r},{i},{tail}\n" for m, r in runs for i in range(3)))
        back = _same_rows(path)
        assert [(r.method, r.rep) for r in back] == [run for run in runs for _ in range(3)]

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(CSV_HEADER + "\ngd,0,0,1.0,0.5,2.0,1\ngd,0,1,1.0,0.5,2.0,1")
        assert [r.restart for r in _same_rows(path)] == [1, 1]

    def test_header_errors(self, tmp_path):
        path = tmp_path / "rows.csv"
        for text in ("", "method,rep,iter\n", "x\ngd,0,0,1.0,0.5,2.0,0\n"):
            path.write_text(text)
            assert _same_error(path).startswith(f"{path}: unexpected header")

    @pytest.mark.parametrize("line, lineno", MALFORMED + [
        # a bad iter or rep on a line whose tail is already cached
        ("gd,0,x,1.0,0.5,2.0,0\n", 3),
        ("gd,0,1.0,1.0,0.5,2.0,0\n", 3),
        ("gd,0,1,1.0,0.5,2.0,0\ngd,0,,1.0,0.5,2.0,0\n", 4),
        ("gd,x,1,1.0,0.5,2.0,0\n", 3),
        ("gd,0,1,0.5,0.5,2.0,0\ngd,,2,0.5,0.5,2.0,0\n", 4),
        # errors in the order of the fields, after the field count
        ("gd,x,one,half,0.25,1.0,0\n", 3),
        ("gd,0,one,half,0.25,1.0,0\n", 3),
        ("gd,x,1,0.5\n", 3),
        ("gd,x\n", 3),
        ("gd\n", 3),
        ("gd,x,1,0.5,0.25,1.0,0,\n", 3),
        ("gd,0,1,0.5,0.25,1.0,0,,,\n", 3),
        # the tail's fields: a bad restart in a line with and without newline
        ("gd,0,1,0.5,0.25,1.0,x\n", 3),
        ("gd,0,1,0.5,0.25,1.0,", 3),
        ("gd,0,1,0.5,0.25,1.0,1.0", 3),
        ("gd,0,1,0.5,0.25,l,0\n", 3),
        ("gd,0,1,0.5,,1.0,0\n", 3),
        ("gd,0,1,1.0,0.5,2.0,0\ngd,0,2,1.0,0.5,2.0,o\n", 4),
    ])
    def test_malformed_rows_fail_as_the_per_line_reader_does(self, tmp_path, line, lineno):
        path = tmp_path / "rows.csv"
        path.write_text(MALFORMED_PREFIX + line)
        assert _same_error(path).startswith(f"{path}: line {lineno}: malformed row (")

    def test_whitespace_around_fields_parses_as_the_per_line_reader_does(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(MALFORMED_PREFIX + "gd, 0,1 , 1.0,0.5 ,2.0, 1 \ngd,0,2,1.0,0.5,2.0,0 \n")
        assert len(_same_rows(path)) == 3

    def test_each_distinct_tail_is_parsed_once_per_run(self, tmp_path, monkeypatch):
        # 1,001 rows of period 2: two distinct tails of three floats each
        rows = [ResultRow("rcm-kin", 0, i, (0.5, -0.0)[i % 2], (0.25, 0.0)[i % 2], (1e-300, math.inf)[i % 2], i % 2)
                for i in range(1001)]
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        parsed = []

        def counting_float(text):
            parsed.append(text)
            return float(text)

        monkeypatch.setattr(harness, "float", counting_float, raising=False)
        assert _bits(read_csv(path)) == _bits(rows)
        assert len(parsed) == 6


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

    def test_bad_continuous_option_exits_2(self):
        for args in (["mmd-bounds", "--mu", "0"], ["visiting-time", "--mu", "-1"], ["small-time", "--mu", "nan"],
                     ["conv-cont", "--mu", "2", "--L", "1"], ["mmd-bounds", "--L", "nan"],
                     ["mmd-bounds", "--n", "0"], ["mmd-bounds", "--dt", "0"], ["conv-cont", "--dt", "-0.01"],
                     ["kinetic-1d", "--dt", "nan"], ["mmd-bounds", "--dt", "inf"], ["conv-cont", "--restarts", "0"],
                     ["length", "--restarts", "0"], ["mmd-bounds", "--mu", "inf", "--L", "inf"],
                     ["mmd-bounds", "--L", "inf"], ["conv-cont", "--L", "inf"], ["kinetic-1d", "--mu", "inf"],
                     ["visiting-time", "--mu", "inf"], ["mmd-bounds", "--mu", "1e300", "--L", "1e300"],
                     ["mmd-bounds", "--mu", "1e-300", "--L", "1"], ["kinetic-1d", "--mu", "1e160"],
                     ["kinetic-1d", "--mu", "1e300"], ["kinetic-1d", "--mu", "1e-300"],
                     ["mmd-bounds", "--mu", "1e160", "--L", "1e160"],
                     ["small-time", "--mu", "1", "--L", "1e160", "--n", "3"], ["conv-cont", "--mu", "1e200", "--L", "1e200"],
                     ["conv-cont", "--mu", "1", "--L", "1e140", "--n", "3"], ["length", "--mu", "1e-125", "--L", "1", "--n", "2"],
                     ["mmd-bounds", "--mu", "1e300", "--L", "1.7e308"]):
            with pytest.raises(SystemExit) as info, warnings.catch_warnings():
                warnings.simplefilter("error")  # rejected before any arithmetic warns
                cli_main(["continuous", *args])
            assert info.value.code == 2

    def test_large_finite_mu_still_runs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in (["kinetic-1d", "--mu", "1e150"], ["kinetic-1d", "--mu", "1e-150"],
                         ["visiting-time", "--mu", "1e-150"], ["visiting-time", "--mu", "1e-12"]):
                assert cli_main(["continuous", *args]) == 0
            assert cli_main(["continuous", "mmd-bounds", "--mu", "1e150", "--L", "1e150"]) == 0

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
