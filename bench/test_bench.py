"""Tests of the benchmark's tracer, output checks and layer metrics.

Run with ``python -m pytest bench``; they use small instances and take a
few seconds.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for p in (HERE.parent / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from consopt import composite, continuous, discrete, harness, objectives  # noqa: E402
from consopt.harness import ExperimentConfig, run_experiment, write_csv, write_report  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SMALL = ExperimentConfig(problem="quadratic", n=8, reps=2, max_iter=20, methods=("gd", "rcm-grad"))


def _count(tracer, name):
    _, name_id, *_ = tracer.arrays()
    return int(np.sum(name_id == tracer.ids[name])) if name in tracer.ids else 0


def test_counting_oracle_counts_gradient_descent_calls_exactly():
    tracer = spans.Tracer()
    obj = tracer.traced_objective(objectives.gen_random_quadratic(10, 0.1, 2.0, 0))
    discrete.gradient_descent_run(obj, np.ones(10), 0.1, 10)
    assert _count(tracer, spans.GRADIENT) == 11
    assert _count(tracer, spans.VALUE) == 11


def test_counting_oracle_reaches_the_smooth_part_of_a_composite():
    tracer = spans.Tracer()
    smooth = objectives.gen_random_quadratic(6, 0.1, 2.0, 1)
    obj = tracer.traced_objective(objectives.CompositeObjective(smooth=smooth, l1_weight=0.1))
    obj.value(np.ones(6))
    objectives.minimal_norm_subgradient(obj, np.ones(6))
    assert (_count(tracer, spans.VALUE), _count(tracer, spans.GRADIENT)) == (1, 1)


def test_tracing_leaves_rows_unchanged_and_restores_modules():
    originals = [getattr(m, a) for m, a, _ in spans.RUNNERS]
    plain = run_experiment(SMALL)
    tracer = spans.Tracer()
    with spans.Instrumented(tracer):
        traced = run_experiment(SMALL)
    assert traced == plain
    assert [getattr(m, a) for m, a, _ in spans.RUNNERS] == originals
    assert harness.build_instance.__module__ == "consopt.harness"
    assert composite.minimal_norm_subgradient is objectives.minimal_norm_subgradient
    assert sorted({r.method for r in tracer.runs}) == ["gd", "rcm-grad"]


def test_speed_scaling_uses_the_kernel_times_around_each_interval():
    kernel = speed.Kernel(lambda: 0.0, reference_s=0.03)
    # Kernel twice as slow as the reference around the second interval.
    assert kernel.scale_factors([0.03, 0.03, 0.09]) == pytest.approx([1.0, 0.5])
    assert kernel.sample() >= 0.0
    assert {w.kernel for w in workloads.WORKLOADS.values()} == {speed.DENSE, speed.LOGISTIC, speed.VERLET}


def test_nearest_ancestor_follows_parent_links():
    parent = np.array([-1, 0, 1, 2, 0], dtype=np.int32)
    mask = np.array([False, True, False, False, False])
    assert workloads._nearest_ancestor(parent, mask).tolist() == [-1, -1, 1, 1, -1]


def test_csv_check_passes_on_correct_output(tmp_path):
    rows = run_experiment(SMALL)
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    read, failed, problems = checks.check_csv(path, rows, SMALL.methods, range(SMALL.reps), SMALL.max_iter)
    assert (failed, problems) == (set(), [])
    assert len(read) == SMALL.reps * len(SMALL.methods) * (SMALL.max_iter + 1)


@pytest.mark.parametrize("corrupt", ["negative_gap", "truncated", "header", "perturbed_value"])
def test_csv_check_fails_on_corrupted_output(tmp_path, corrupt):
    rows = run_experiment(SMALL)
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    lines = path.read_text().splitlines(keepends=True)
    if corrupt == "negative_gap":
        fields = lines[5].split(",")
        fields[4] = "-1e-3"
        lines[5] = ",".join(fields)
    elif corrupt == "truncated":
        lines = lines[:-1]
    elif corrupt == "header":
        lines[0] = "method,rep,iter\n"
    else:
        fields = lines[7].split(",")
        fields[3] = repr(float(fields[3]) * (1 + 1e-12))
        lines[7] = ",".join(fields)
    path.write_text("".join(lines))
    _, failed, problems = checks.check_csv(path, rows, SMALL.methods, range(SMALL.reps), SMALL.max_iter)
    assert failed and problems


def test_csv_check_counts_a_divergence_as_failed(tmp_path):
    config = replace(SMALL, s=10.0, methods=("gd",), max_iter=200)
    rows = run_experiment(config)
    assert np.isnan(rows[-1].fval)
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    _, failed, _ = checks.check_csv(path, rows, config.methods, range(config.reps), config.max_iter)
    assert ("gd", 1) in failed


def _small_flow(n_restarts=2):
    obj = objectives.gen_random_quadratic(5, 0.5, 2.0, 3)
    return [continuous.run_piecewise_conservative(obj, np.ones(5), n_restarts=n_restarts)]


def test_flow_check_passes_and_catches_failures(tmp_path):
    results = _small_flow()
    path = tmp_path / "reports.json"
    write_report([{"segments": r.segments, "reports": r.reports} for r in results], path)
    assert checks.check_flow(path, results, 2) == (set(), [])
    assert checks.check_flow(path, results, 3)[0] == {0}
    results[0].reports[0]["pass"] = False
    write_report([{"segments": r.segments, "reports": r.reports} for r in results], path)
    assert checks.check_flow(path, results, 2)[0] == {0}
    path.write_text(json.dumps([]))
    assert checks.check_flow(path, results, 2)[0] == {0}


def test_layer_metrics_of_a_small_traced_family(tmp_path):
    family = workloads.Family("quadratic", l1=False, n=8, m=8, reps=2, max_iter=30)
    tracer = spans.Tracer()
    with spans.Instrumented(tracer):
        traced = family.run_pass(0, 0, str(tmp_path), tracer=tracer)
    assert traced.failed == 0
    m = {k: v for k, (v, _) in workloads.layer_metrics(tracer, traced, family).items()}
    # One value call per recorded row; the exact-solve f* is outside the loop.
    assert m["objectives.value_calls_per_iter"] == pytest.approx(31 / 30)
    assert m["harness.fstar_useful_frac"] == 1.0
    assert m["discrete.us_per_iter.rcm-grad"] > 0.0
    assert m["composite.us_per_iter.fista"] == 0.0
    assert 0.0 <= m["discrete.wasted_grad_frac"] < 1.0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    family = workloads.Family("quadratic", l1=False, n=8, m=8, reps=1, max_iter=10)
    _, e2e, _ = workloads.end_to_end(family, 0, 0.01, str(tmp_path))
    _, layers, _ = workloads.per_layer(family, 0, str(tmp_path))
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    for metrics, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in listed}
