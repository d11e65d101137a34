"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The stochastic-ordering checks (criterion 8) use the harness default
seeding (base_seed = 0) and the stated desk-scale sizes.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from consopt.composite import fista_run, rcm_comp_run
from consopt.continuous import (
    default_time_step,
    kinetic_energy_maxima,
    kinetic_max_restart_time,
    mmd_restart_time,
    quadratic_fixed_interval_decrease,
    restart_time_upper_bound,
    run_piecewise_conservative,
    small_time_energy_check,
    visiting_time_1d,
)
from consopt.discrete import rcm_run, symplectic_euler_step
from consopt.harness import ExperimentConfig, run_experiment
from consopt.objectives import (
    CompositeObjective,
    SmoothObjective,
    gen_logistic_instance,
    gen_logsumexp_instance,
    gen_random_quadratic,
    logistic_objective,
    logsumexp_objective,
    quadratic_objective,
)

from oracles import TAN_ROOT


def report(num, name, ok, elapsed, limit, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, limit {limit}s)"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s"


def sc_nonquadratic(n, seed, eps=0.5):
    quad = gen_random_quadratic(n, 0.03, 15.0, seed)
    M, c = gen_logsumexp_instance(n, 2 * n, seed + 10_000)
    lse = logsumexp_objective(M, c, 1.0)
    return SmoothObjective(
        value=lambda x: quad.value(x) + eps * lse.value(x),
        gradient=lambda x: quad.gradient(x) + eps * lse.gradient(x),
        lipschitz=quad.lipschitz + eps * lse.lipschitz,
        strong_convexity=quad.strong_convexity,
    )


@pytest.fixture(scope="module")
def sc_suite():
    """100 random strongly convex quadratics (n <= 20) and 20 non-quadratic
    strongly convex tests, with seeded starting points."""
    rng = np.random.default_rng(2024)
    quads = []
    for i in range(100):
        n = int(rng.integers(1, 21))
        quads.append((gen_random_quadratic(n, 0.03, 15.0, 10_000 + i), rng.standard_normal(n)))
    nonquads = []
    for i in range(20):
        n = int(rng.integers(2, 21))
        nonquads.append((sc_nonquadratic(n, 20_000 + i), rng.standard_normal(n)))
    return quads, nonquads


def test_criterion_01_discrete_conservation():
    t0 = time.perf_counter()
    obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    h = 0.5
    x, v = np.array([1.0]), np.array([0.0])
    q0 = 0.5 * v[0] ** 2 + 0.5 * x[0] ** 2 - 0.25 * x[0] * v[0]
    worst = 0.0
    for _ in range(10_000):
        x, v = symplectic_euler_step(obj, x, v, h)
        q = 0.5 * v[0] ** 2 + 0.5 * x[0] ** 2 - 0.25 * x[0] * v[0]
        worst = max(worst, abs(q - q0) / abs(q0))
    report(1, "discrete conservation", worst <= 1e-10, time.perf_counter() - t0, 1,
           f"worst relative drift {worst:.2e}")


def test_criterion_02_gd_dominance():
    t0 = time.perf_counter()
    A, y, _ = gen_logistic_instance(50, 200, 0)
    M, c = gen_logsumexp_instance(50, 200, 0)
    cases = [
        (gen_random_quadratic(200, 0.03, 15.0, 0), np.random.default_rng([0, 1]).standard_normal(200), 2000),
        (logistic_objective(A, y), np.zeros(50), 2000),
        (logsumexp_objective(M, c, 1.0), np.zeros(50), 2000),
    ]
    ok = True
    for obj, x0, iters in cases:
        h = 1.0 / np.sqrt(obj.lipschitz)
        trace = rcm_run(obj, x0, h, "grad", iters, keep_iterates=True)
        for k in range(len(trace) - 1):
            bound = obj.value(trace.xs[k] - h * h * obj.gradient(trace.xs[k]))
            if trace.fvals[k + 1] > bound + 1e-12 * (1 + abs(trace.fvals[k + 1])):
                ok = False
                break
    report(2, "gradient-descent dominance of the gradient-restart method", ok,
           time.perf_counter() - t0, 10)


def test_criterion_03_mmd_restart_time_bounds(sc_suite):
    t0 = time.perf_counter()
    quads, nonquads = sc_suite
    ok = True
    worst = ""
    for obj, x0 in quads + nonquads:
        ev = mmd_restart_time(obj, x0)
        mu, L = obj.strong_convexity, obj.lipschitz
        lo = np.sqrt(mu) / (8 * L)
        hi = restart_time_upper_bound(mu, L)
        if not (ev.time > lo * (1 - 1e-4) and ev.time <= hi * (1 + 1e-4)):
            ok = False
            worst = f"t_a={ev.time:g} outside ({lo:g}, {hi:g}]"
            break
    obj1 = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    ev1 = mmd_restart_time(obj1, np.array([1.0]))
    ok = ok and abs(ev1.time - TAN_ROOT) <= 1e-4
    report(3, "mean-dissipation restart-time bounds", ok, time.perf_counter() - t0, 60,
           worst or f"1d root {ev1.time:.6f} vs {TAN_ROOT:.6f}")


def test_criterion_04_kinetic_energy_sandwich(sc_suite):
    t0 = time.perf_counter()
    quads, nonquads = sc_suite
    ok = True
    for obj, x0 in quads + nonquads:
        rep = small_time_energy_check(obj, x0)
        if rep.get("status") == "degenerate":
            continue
        if not rep["pass"]:
            ok = False
            break
    report(4, "small-time kinetic-energy sandwich", ok, time.perf_counter() - t0, 30)


def test_criterion_05_piecewise_rate_and_length(sc_suite):
    t0 = time.perf_counter()
    quads, nonquads = sc_suite
    ok = True
    detail = ""
    for obj, x0 in quads:
        dt = 2.0 * default_time_step(obj)
        result = run_piecewise_conservative(obj, x0, dt=dt, n_restarts=3)
        if not all(r["pass"] for r in result.reports):
            ok = False
            detail = str([r for r in result.reports if not r["pass"]][0])
            break
    if ok:
        for obj, x0 in nonquads:
            f_star = minimize(obj.value, x0, jac=obj.gradient, method="L-BFGS-B",
                              tol=1e-14, options={"maxiter": 5000}).fun
            dt = 2.0 * default_time_step(obj)
            result = run_piecewise_conservative(obj, x0, dt=dt, n_restarts=3, f_star=f_star)
            if not all(r["pass"] for r in result.reports):
                ok = False
                detail = str([r for r in result.reports if not r["pass"]][0])
                break
    report(5, "piecewise flow: rate bound and curve length", ok, time.perf_counter() - t0, 60, detail)


def test_criterion_06_one_dimensional_theory():
    t0 = time.perf_counter()
    ok = abs(visiting_time_1d(lambda y: 0.5 * y * y, 1.0, 0.0) - np.pi / 2) <= 1e-6
    for x0 in (0.1, 1.0, 10.0):
        ok = ok and visiting_time_1d(lambda y: 0.25 * y**4, x0, 0.0) >= np.pi / (2 * x0)
    cases = [
        (quadratic_objective(np.array([[0.5]]), np.zeros(1)), np.array([1.0]), 0.5),
        (quadratic_objective(np.array([[1.0]]), np.zeros(1)), np.array([2.0]), 1.0),
        (quadratic_objective(np.array([[4.0]]), np.zeros(1)), np.array([-1.5]), 4.0),
        (
            SmoothObjective(
                value=lambda x: 0.5 * x[0] ** 2 + np.cosh(x[0]) - 1.0,
                gradient=lambda x: np.array([x[0] + np.sinh(x[0])]),
                lipschitz=1.0 + np.cosh(2.0),
                strong_convexity=2.0,
            ),
            np.array([1.5]),
            2.0,
        ),
    ]
    for obj, x0, mu in cases:
        ev = kinetic_max_restart_time(obj, x0)
        ok = ok and ev is not None
        if ev is not None:
            ok = ok and abs(obj.gradient(ev.x)[0]) <= 1e-6
            ok = ok and ev.time <= np.pi / (2 * np.sqrt(mu)) + 1e-6
    report(6, "one-dimensional visiting times and kinetic restarts", ok, time.perf_counter() - t0, 10)


def test_criterion_07_fixed_interval_decrease():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 16))
        lams = rng.uniform(0.03, 15.0, n)
        x0 = rng.standard_normal(n)
        if not quadratic_fixed_interval_decrease(lams, x0)["pass"]:
            ok = False
            break
    report(7, "quadratic fixed-interval decrease bound", ok, time.perf_counter() - t0, 5)


def _iterations_to_threshold(rows, metric, threshold_of_rep):
    """Median per-method iteration count at which `metric` first crosses its
    repetition-specific threshold (max_iter + 1 when it never does)."""
    by = {}
    for r in rows:
        by.setdefault((r.method, r.rep), []).append(r)
    meds = {}
    for (method, rep), rs in by.items():
        rs.sort(key=lambda r: r.iter)
        thr = threshold_of_rep(rs)
        hit = next((r.iter for r in rs if metric(r) <= thr), rs[-1].iter + 1)
        meds.setdefault(method, []).append(hit)
    return {m: float(np.median(v)) for m, v in meds.items()}


def test_criterion_08_figure_orderings():
    t0 = time.perf_counter()
    quad_cfg = ExperimentConfig(
        problem="quadratic", n=200, reps=20, max_iter=1500, base_seed=0,
        methods=("nag-sc", "nag-c-restart", "rcm-grad", "rcm-mmd-dr"),
    )
    rows = run_experiment(quad_cfg)
    med_q = _iterations_to_threshold(
        rows, metric=lambda r: r.gap, threshold_of_rep=lambda rs: 1e-8 * rs[0].gap
    )
    ok_q = (
        med_q["rcm-grad"] <= med_q["nag-c-restart"]
        and med_q["rcm-mmd-dr"] <= med_q["nag-c-restart"]
        and med_q["nag-sc"] <= min(med_q["rcm-grad"], med_q["rcm-mmd-dr"], med_q["nag-c-restart"])
    )

    comp_cfg = ExperimentConfig(
        problem="logistic", l1=True, n=50, m=200, reps=20, max_iter=5000, base_seed=0,
        methods=("fista", "fista-restart", "rcm-comp-grad"),
    )
    rows = run_experiment(comp_cfg)
    med_c = _iterations_to_threshold(
        rows, metric=lambda r: r.residual, threshold_of_rep=lambda rs: 1e-6
    )
    ok_c = (
        med_c["rcm-comp-grad"] <= med_c["fista-restart"]
        and med_c["fista"] >= max(med_c["fista-restart"], med_c["rcm-comp-grad"])
    )
    report(8, "benchmark orderings at desk scale", ok_q and ok_c, time.perf_counter() - t0, 180,
           f"quad medians {med_q}; composite medians {med_c}")


def test_criterion_09_composite_reductions():
    t0 = time.perf_counter()
    smooth = gen_random_quadratic(30, 0.03, 15.0, 3)
    x0 = np.random.default_rng([3, 1]).standard_normal(30)
    f0 = CompositeObjective(smooth=smooth, l1_weight=0.0)
    h = 1.0 / np.sqrt(smooth.lipschitz)
    s = 1.0 / smooth.lipschitz

    a = rcm_run(smooth, x0, h, "grad", 400)
    b = rcm_comp_run(f0, x0, h, "grad", 400)
    ok = (
        np.array_equal(a.fvals, b.fvals)
        and np.array_equal(a.residuals, b.residuals)
        and np.array_equal(a.restarts, b.restarts)
    )

    fista_trace = fista_run(f0, x0, s, 400)
    x, y, t = x0.copy(), x0.copy(), 1.0
    ref = [smooth.value(x)]
    for _ in range(400):
        x_prev = x
        x = y - s * smooth.gradient(y)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        ref.append(smooth.value(x))
    ok = ok and np.array_equal(fista_trace.fvals, np.array(ref))
    report(9, "composite methods reduce exactly at zero l1 weight", ok, time.perf_counter() - t0, 5)


def test_criterion_10_kinetic_maxima_are_not_mmd_maxima():
    t0 = time.perf_counter()
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    events = kinetic_energy_maxima(obj, np.array([1.0, 1.0]), horizon=25.0, dt=1e-3)
    ok = len(events) >= 3
    for ev in events:
        ek_dot = -float(obj.gradient(ev.x) @ ev.v)
        ok = ok and (ev.time * ek_dot - ev.kinetic_energy < 0)
    report(10, "kinetic-energy maxima are excluded by the mean-dissipation test", ok,
           time.perf_counter() - t0, 5, f"{len(events)} maxima checked")
