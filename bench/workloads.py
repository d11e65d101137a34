"""The three benchmark workloads, their passes, and the metrics they report.

A pass is a fixed amount of work with checked output on disk: one
``run_experiment`` family written with ``write_csv`` (``quad-smooth``,
``logistic-l1``) or a batch of ``run_piecewise_conservative`` flows written
with ``write_report`` (``flow-restart``).  Pass ``p`` of seed ``s`` draws its
instances from seeds ``s * 10_000 + p * size + i``, so every pass of a run
has fresh inputs and the same seed always gives the same inputs.

An untraced run repeats passes, one at a time, for as long as the next one
fits into ``--seconds``, times the workload's speed kernel between them
(``speed.py``), and reports the end-to-end metrics as scaled medians.  A traced run
makes pass 0 untraced and traced, alternately, and reports the per-layer
metrics of the first traced pass plus the tracing overhead.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from consopt import continuous, harness
from consopt.harness import COMPOSITE_METHODS, ExperimentConfig
from consopt.objectives import gen_random_quadratic

import checks
import spans
import speed

SEED_STRIDE = 10_000
SETUP_INSTANCES = 60  # instances generated per set-up sample
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
TRACE_PAIRS = 3  # untraced/traced pass pairs in a traced run


@dataclass
class PassResult:
    """One pass: its wall time, per-repetition times and outcome."""

    wall: float
    rep_times: list
    iters: int
    attempted: int
    failed: int
    problems: list
    out_path: str
    outcome: dict
    segments: int = 0
    warnings: int = 0


def _stamped_build_instance(stamps):
    """``build_instance`` that also notes when each repetition starts."""
    build = harness.build_instance

    def stamped(config, rep):
        stamps.append(time.perf_counter())
        return build(config, rep)

    return build, stamped


@dataclass(frozen=True)
class Family:
    """A ``consopt bench`` family: ``reps`` repetitions of every method."""

    problem: str
    l1: bool
    n: int
    m: int
    reps: int
    max_iter: int

    unit = "repetition"

    @property
    def kernel(self):
        return speed.LOGISTIC if self.problem == "logistic" else speed.DENSE

    def config(self, seed, p):
        return ExperimentConfig(
            problem=self.problem, l1=self.l1, n=self.n, m=self.m, reps=self.reps,
            max_iter=self.max_iter, base_seed=seed * SEED_STRIDE + p * self.reps,
        )

    def setup(self, seed):
        for i in range(SETUP_INSTANCES):
            p, rep = divmod(i, self.reps)
            harness.build_instance(self.config(seed, p), rep)

    def run_pass(self, seed, p, out_dir, tracer=None):
        """Run, write and check pass ``p``.  A traced pass reaches the oracle
        through ``build_instance``, so ``tracer`` is not used here."""
        config = self.config(seed, p)
        path = os.path.join(out_dir, "rows.csv")
        stamps = []
        t0 = time.perf_counter()
        build, harness.build_instance = _stamped_build_instance(stamps)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows = harness.run_experiment(config)
        finally:
            harness.build_instance = build
        t_rows = time.perf_counter()
        harness.write_csv(rows, path)
        read, failed, problems = checks.check_csv(
            path, rows, config.methods, range(config.reps), config.max_iter
        )
        wall = time.perf_counter() - t0
        return PassResult(
            wall=wall,
            rep_times=list(np.diff(stamps + [t_rows])),
            iters=sum(1 for r in read if r.iter > 0 and not math.isnan(r.fval)),
            attempted=config.reps * len(config.methods),
            failed=len(failed),
            problems=problems,
            out_path=path,
            outcome=outcome(self, read),
            warnings=len(caught),
        )


@dataclass(frozen=True)
class Flow:
    """``instances`` seeded quadratics, one piecewise conservative flow each."""

    n: int
    instances: int
    n_restarts: int
    lam_lo: float = 0.03
    lam_hi: float = 15.0

    unit = "flow instance"
    kernel = speed.VERLET

    def instance(self, seed, p, i):
        s = seed * SEED_STRIDE + p * self.instances + i
        obj = gen_random_quadratic(self.n, self.lam_lo, self.lam_hi, s)
        return obj, np.random.default_rng([s, 1]).standard_normal(self.n)

    def setup(self, seed):
        for i in range(SETUP_INSTANCES):
            self.instance(seed, *divmod(i, self.instances))

    def run_pass(self, seed, p, out_dir, tracer=None):
        """Run, write and check pass ``p``; ``tracer`` traces each oracle."""
        path = os.path.join(out_dir, "reports.json")
        results, rep_times, steps = [], [], 0
        t0 = time.perf_counter()
        for i in range(self.instances):
            t_i = time.perf_counter()
            obj, x0 = self.instance(seed, p, i)
            if tracer is not None:
                obj = tracer.traced_objective(obj)
            res = continuous.run_piecewise_conservative(obj, x0, n_restarts=self.n_restarts)
            rep_times.append(time.perf_counter() - t_i)
            dt = continuous.default_time_step(obj)
            steps += sum(math.ceil(s["restart_time"] / dt) for s in res.segments)
            results.append(res)
        harness.write_report([{"segments": r.segments, "reports": r.reports} for r in results], path)
        failed, problems = checks.check_flow(path, results, self.n_restarts)
        return PassResult(
            wall=time.perf_counter() - t0,
            rep_times=rep_times,
            iters=steps,
            attempted=self.instances,
            failed=len(failed),
            problems=problems,
            out_path=path,
            outcome=outcome(self, []),
            segments=sum(len(r.segments) for r in results),
        )


WORKLOADS = {
    # The paper's strongly convex figure (criterion 08's quadratic family):
    # dense 200x200 oracle plus the Python step/restart/record loop, exact f*.
    # Two repetitions per pass, so that a run makes many short passes.
    "quad-smooth": Family("quadratic", l1=False, n=200, m=200, reps=2, max_iter=1500),
    # The l1-composite family of criterion 08: FISTA-restart f* reference,
    # minimal-norm subgradient and sign crossings.  One repetition per pass,
    # at max_iter=1000 rather than criterion 08's 5000, so that a pass takes
    # about a second and sits between speed samples a second apart.
    "logistic-l1": Family("logistic", l1=True, n=50, m=200, reps=1, max_iter=1000),
    # The Verlet scan and restart-event bisection of continuous.py; no f*
    # reference, CSV, discrete or composite work.
    "flow-restart": Flow(n=50, instances=8, n_restarts=3),
}


# -- environment -----------------------------------------------------------------


def _blas_threads():
    """Threads each loaded OpenBLAS will use, queried from the library."""
    found = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    found[os.path.basename(path)] = int(fn())
                    break
    return found


def environment(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ[v] for v in sorted(os.environ) if v.endswith("_NUM_THREADS")},
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


# -- measurement -------------------------------------------------------------------


def measure_setup(workload, seed):
    """Generation of the run's first instances, repeated, with a speed sample
    before and after each repetition; the raw times and the speed samples."""
    kernel = workload.kernel
    times, cal = [], [kernel.sample()]
    t_start = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - t_start < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
        cal.append(kernel.sample())
    return times, cal


def outcome(workload, rows):
    """What the rows of a family say; zeros where the workload has none."""
    if not rows:
        return {"rcm_iters_to_tol": 0.0, "baseline_iters_to_tol": 0.0, "zero_gap_frac": 0.0}
    rcm, base = checks.iters_to_tol(rows, workload.l1)
    return {"rcm_iters_to_tol": rcm, "baseline_iters_to_tol": base,
            "zero_gap_frac": checks.zero_gap_frac(rows)}


def end_to_end(workload, seed, seconds, out_dir):
    """Passes for ``seconds``, each between two speed samples.

    Every time is scaled to the reference speed of the workload's kernel by
    the samples around it, and the metrics are medians of scaled times.
    """
    setup, setup_cal = measure_setup(workload, seed)
    kernel = workload.kernel
    passes, cal = [], [kernel.sample()]
    t_start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(seed, len(passes), out_dir))
        cal.append(kernel.sample())
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            break
    scale = kernel.scale_factors(cal)
    walls = [p.wall * f for p, f in zip(passes, scale)]
    rep_times = [t * f for p, f in zip(passes, scale) for t in p.rep_times]
    setup_scaled = [t * f for t, f in zip(setup, kernel.scale_factors(setup_cal))]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "rep_s_p50": (statistics.median(rep_times), "s"),
        "iters_per_s": (statistics.median(p.iters / w for p, w in zip(passes, walls)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    detail = {
        "passes": len(passes),
        "setup_samples": len(setup),
        "rep_samples": len(rep_times),
        "rep_unit": workload.unit,
        "rep_s_p90": float(np.percentile(rep_times, 90)),
        "speed_p50": statistics.median(scale + kernel.scale_factors(setup_cal)),
        "raw_wall_s": statistics.median(p.wall for p in passes),
        "raw_rep_s_p50": statistics.median(t for p in passes for t in p.rep_times),
        "raw_setup_s": statistics.median(setup),
        "pass_walls": [p.wall for p in passes],
        "outcome_pass0": passes[0].outcome,
        "consopt_warnings": sum(p.warnings for p in passes),
    }
    return passes, metrics, detail


def per_layer(workload, seed, out_dir):
    """Pass 0 untraced and traced, alternately, ``TRACE_PAIRS`` times.

    The layer metrics come from the first traced pass; the overhead compares
    the median traced and untraced pass times.
    """
    plain, traced = [], []
    for k in range(TRACE_PAIRS):
        plain.append(workload.run_pass(seed, 0, out_dir))
        tracer = spans.Tracer()
        with spans.Instrumented(tracer):
            traced.append(workload.run_pass(seed, 0, out_dir, tracer=tracer))
        if k == 0:
            metrics = layer_metrics(tracer, traced[0], workload)
            tracer.save(os.path.join(out_dir, "spans.npz"))
            n_spans = len(tracer.start)
        del tracer
    untraced_s = statistics.median(p.wall for p in plain)
    traced_s = statistics.median(p.wall for p in traced)
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "1")
    for key, value in traced[0].outcome.items():
        metrics["outcome." + key] = (value, "iter" if "iters" in key else "1")
    detail = {"spans": n_spans, "untraced_wall_s": [p.wall for p in plain],
              "traced_wall_s": [p.wall for p in traced]}
    return plain + traced, metrics, detail


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def _nearest_ancestor(parent, mask):
    """Index of each span's nearest strict ancestor inside ``mask``, or -1."""
    anc = parent.astype(np.int64)
    found = np.full(len(anc), -1, dtype=np.int64)
    todo = anc >= 0
    while todo.any():
        hit = np.zeros_like(todo)
        hit[todo] = mask[anc[todo]]
        found[hit] = anc[hit]
        todo &= ~hit
        anc[todo] = parent[anc[todo]]
        todo &= anc >= 0
    return found


def layer_metrics(tracer, traced, workload):
    names, name_id, parent, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    ids = {n: i for i, n in enumerate(names)}

    def named(name):
        return name_id == ids.get(name, -1)

    grad, value, sub = named(spans.GRADIENT), named(spans.VALUE), named(spans.SUBGRADIENT)
    under_fstar = _nearest_ancestor(parent, named(spans.FSTAR)) >= 0
    runner_ids = [i for n, i in ids.items() if n.startswith(spans.RUN_PREFIX)]
    runner_of = _nearest_ancestor(parent, np.isin(name_id, runner_ids))
    in_flow = _nearest_ancestor(parent, named(spans.FLOW)) >= 0

    runs = [r for r in tracer.runs if not under_fstar[r.span]]
    reference = [r for r in tracer.runs if under_fstar[r.span]]
    is_comp = lambda r: r.method.startswith(("fista", "rcm-comp-"))
    disc_runs = [r for r in runs if not is_comp(r)]
    comp_runs = [r for r in runs if is_comp(r)]
    # Loop iterations: method iterations, or Verlet steps on flow-restart.
    loop_iters = traced.iters if isinstance(workload, Flow) else sum(r.iters for r in runs)
    reps = max(int(np.sum(named(spans.BUILD))), 1)
    m = {}

    in_loop = ~under_fstar
    m["objectives.grad_calls_per_iter"] = (_ratio(np.sum(grad & in_loop), loop_iters), "1")
    m["objectives.value_calls_per_iter"] = (_ratio(np.sum(value & in_loop), loop_iters), "1")
    m["objectives.subgrad_calls_per_iter"] = (_ratio(np.sum(sub & in_loop), loop_iters), "1")
    m["objectives.grad_us"] = (1e6 * _ratio(dur[grad].sum(), grad.sum()), "us")
    m["objectives.value_us"] = (1e6 * _ratio(dur[value].sum(), value.sum()), "us")
    m["objectives.subgrad_self_us"] = (1e6 * _ratio(self_t[sub].sum(), sub.sum()), "us")
    m["objectives.oracle_share"] = (_ratio(self_t[grad | value | sub].sum(), traced.wall), "1")

    def layer(prefix, layer_runs, methods, rcm_prefix):
        spans_of = np.array([r.span for r in layer_runs], dtype=np.int64)
        iters = sum(r.iters for r in layer_runs)
        for method in methods:
            mine = [r for r in layer_runs if r.method == method]
            total = sum(dur[r.span] for r in mine)
            m[f"{prefix}.us_per_iter.{method}"] = (1e6 * _ratio(total, sum(r.iters for r in mine)), "us")
        m[f"{prefix}.self_us_per_iter"] = (1e6 * _ratio(self_t[spans_of].sum(), iters), "us")
        rcm = [r for r in layer_runs if r.method.startswith(rcm_prefix)]
        m[f"{prefix}.restart_rate"] = (_ratio(sum(r.restarts for r in rcm), sum(r.iters for r in rcm)), "1")
        return rcm, np.isin(runner_of, spans_of)

    smooth_roster = harness.DEFAULT_METHODS[("quadratic", False)]
    _, in_disc = layer("discrete", disc_runs, smooth_roster, "rcm-")
    restart_test = named(spans.SHOULD_RESTART) & in_disc
    m["discrete.restart_test_us"] = (1e6 * _ratio(dur[restart_test].sum(), restart_test.sum()), "us")
    m["discrete.wasted_grad_frac"] = (
        _ratio(sum(r.wasted_grads for r in disc_runs), np.sum(grad & in_disc)), "1")

    rcm_comp, _ = layer("composite", comp_runs, COMPOSITE_METHODS, "rcm-comp-")
    crossing = named(spans.CROSSING)
    m["composite.crossing_us"] = (1e6 * _ratio(dur[crossing].sum(), crossing.sum()), "us")
    m["composite.crossing_rate"] = (
        _ratio(sum(r.crossings for r in rcm_comp), sum(r.iters for r in rcm_comp)), "1")

    fstar = named(spans.FSTAR)
    ref_values = np.sum(value & under_fstar)
    # A reference run makes one value call per row; the calls after its
    # final minimum did not change f*.  An exact solve makes one useful call.
    tail = sum(r.iters - r.argmin for r in reference)
    m["harness.fstar_s"] = (_ratio(dur[fstar].sum(), reps) if fstar.any() else 0.0, "s")
    m["harness.fstar_share"] = (_ratio(dur[fstar].sum(), traced.wall), "1")
    m["harness.fstar_grad_calls"] = (_ratio(np.sum(grad & under_fstar), reps) if fstar.any() else 0.0, "count")
    m["harness.fstar_useful_frac"] = (_ratio(ref_values - tail, ref_values), "1")
    m["harness.csv_write_s"] = (float(dur[named(spans.WRITE_CSV)].sum()), "s")
    m["harness.csv_bytes"] = (float(os.path.getsize(traced.out_path)) if isinstance(workload, Family) else 0.0, "B")

    flow = named(spans.FLOW)
    steps, events = (traced.iters, traced.segments) if isinstance(workload, Flow) else (0, 0)
    m["continuous.us_per_step"] = (1e6 * _ratio(dur[flow].sum(), steps), "us")
    m["continuous.self_us_per_step"] = (1e6 * _ratio(self_t[flow].sum(), steps), "us")
    m["continuous.grad_calls_per_step"] = (_ratio(np.sum(grad & in_flow), steps), "1")
    m["continuous.value_calls_per_step"] = (_ratio(np.sum(value & in_flow), steps), "1")
    refine_grads = grad & has_parent & named(spans.REFINE)[np.maximum(parent, 0)]
    m["continuous.refine_grad_calls_per_event"] = (_ratio(np.sum(refine_grads), events), "1")
    m["continuous.steps_per_segment"] = (_ratio(steps, events), "1")
    return m


def run(workload_name, seed, seconds, trace, out_dir) -> int:
    workload = WORKLOADS[workload_name]
    os.makedirs(out_dir, exist_ok=True)
    env = environment(workload_name, seed, seconds, trace)
    if trace:
        passes, metrics, detail = per_layer(workload, seed, out_dir)
    else:
        passes, metrics, detail = end_to_end(workload, seed, seconds, out_dir)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [q for p in passes for q in p.problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**result, "environment": env, "detail": detail, "problems": problems}, fh, indent=2)
        fh.write("\n")
    print("# environment " + json.dumps(env))
    print("# detail " + json.dumps(detail))
    for q in problems[:20]:
        print("# check failed: " + q)
    print(json.dumps(result))
    return 0 if failed == 0 else 1
