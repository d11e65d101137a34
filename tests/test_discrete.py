import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consopt.composite import fista_restart_run, fista_run, prox_l1, rcm_comp_run, sign_crossing_projection
from consopt.discrete import (
    DIVERGENCE_LIMIT,
    RESTART_CRITERIA,
    DivergenceError,
    _Recorder,
    gradient_descent_run,
    nag_c_restart_run,
    nag_c_run,
    nag_sc_run,
    rcm_run,
    should_restart,
    symplectic_euler_step,
)
from consopt.harness import ExperimentConfig, build_instance
from consopt.objectives import (
    CompositeObjective,
    SmoothObjective,
    gen_logistic_instance,
    gen_logsumexp_instance,
    gen_random_quadratic,
    l1_weight_rule,
    logistic_objective,
    logsumexp_objective,
    minimal_norm_subgradient,
    quadratic_objective,
)


def quad_1d(a=1.0, b=0.0):
    return quadratic_objective(np.array([[a]]), np.array([b]))


class TestSymplecticStep:
    def test_one_step_arithmetic(self):
        obj = quad_1d()
        x, v = symplectic_euler_step(obj, np.array([1.0]), np.array([0.0]), 1.0)
        assert v[0] == pytest.approx(-1.0)
        assert x[0] == pytest.approx(0.0)

    def test_rest_step_is_squared_gradient_step(self):
        obj = gen_random_quadratic(5, 0.5, 3.0, 0)
        x0 = np.random.default_rng(0).standard_normal(5)
        h = 0.3
        x1, _ = symplectic_euler_step(obj, x0, np.zeros(5), h)
        assert np.allclose(x1, x0 - h * h * obj.gradient(x0))

    def test_discrete_conservation_minus_sign(self):
        # Q(x, v) = v^2/2 + a x^2/2 - a h x v / 2 is exactly invariant;
        # the plus-sign variant is not (it drifts within a few steps).
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, h = rng.uniform(0.2, 3.0), rng.uniform(0.05, 0.5)
            obj = quad_1d(a)
            x, v = rng.standard_normal(2)
            x, v = np.array([x]), np.array([v])
            q_minus = 0.5 * v[0] ** 2 + 0.5 * a * x[0] ** 2 - 0.5 * a * h * x[0] * v[0]
            q_plus = 0.5 * v[0] ** 2 + 0.5 * a * x[0] ** 2 + 0.5 * a * h * x[0] * v[0]
            drift_plus = 0.0
            for _ in range(50):
                x, v = symplectic_euler_step(obj, x, v, h)
                q = 0.5 * v[0] ** 2 + 0.5 * a * x[0] ** 2 - 0.5 * a * h * x[0] * v[0]
                assert q == pytest.approx(q_minus, rel=1e-12, abs=1e-12)
                qp = 0.5 * v[0] ** 2 + 0.5 * a * x[0] ** 2 + 0.5 * a * h * x[0] * v[0]
                drift_plus = max(drift_plus, abs(qp - q_plus))
            assert drift_plus > 1e-3

    def test_long_run_conservation(self):
        obj = quad_1d(1.0)
        h = 0.5
        x, v = np.array([1.0]), np.array([0.0])
        q0 = 0.5 * v[0] ** 2 + 0.5 * x[0] ** 2 - 0.25 * x[0] * v[0]
        for _ in range(10_000):
            x, v = symplectic_euler_step(obj, x, v, h)
            q = 0.5 * v[0] ** 2 + 0.5 * x[0] ** 2 - 0.25 * x[0] * v[0]
            assert abs(q - q0) <= 1e-10 * abs(q0)

    def test_compactness_threshold(self):
        a = 2.7
        obj = quad_1d(a)
        x, v = np.array([1.0]), np.array([0.0])
        h = 1.99 / np.sqrt(a)
        for _ in range(100_000):
            x, v = symplectic_euler_step(obj, x, v, h)
        assert np.isfinite(x[0]) and abs(x[0]) < 1e3

        x, v = np.array([1.0]), np.array([0.0])
        h = 2.5 / np.sqrt(a)
        for _ in range(2_000):
            x, v = symplectic_euler_step(obj, x, v, h)
            if abs(x[0]) > 1e12:
                break
        assert abs(x[0]) > 1e12

    def test_one_step_contraction(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.uniform(0.2, 8.0)
            h = rng.uniform(0.05, 0.999) / np.sqrt(a)
            x0 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            x1, _ = symplectic_euler_step(quad_1d(a), np.array([x0]), np.array([0.0]), h)
            assert abs(x1[0]) < abs(x0)
            assert x0 * x1[0] >= 0


class TestRestRestartStep:
    """The step from rest is the symplectic step with a zero velocity."""

    def test_lands_at_minimizer(self):
        x, v = symplectic_euler_step(quad_1d(), np.array([2.0]), np.zeros(1), 1.0)
        assert x[0] == pytest.approx(0.0)
        assert v[0] == pytest.approx(-2.0)

    def test_stationary_fixed_point(self):
        obj = quadratic_objective(np.diag([2.0, 5.0]), np.array([-2.0, -5.0]))
        x, v = symplectic_euler_step(obj, np.ones(2), np.zeros(2), 0.4)
        assert np.array_equal(x, np.ones(2))
        assert np.all(v == 0.0)

    def test_equals_symplectic_from_rest(self):
        # v' = -h g and x' = x + h v', bit for bit, with g = grad f(x)
        obj = gen_random_quadratic(4, 0.5, 2.0, 5)
        x0 = np.random.default_rng(5).standard_normal(4)
        g = obj.gradient(x0)
        x, v = symplectic_euler_step(obj, x0, np.zeros_like(x0), 0.7)
        assert v.tobytes() == (0.0 - 0.7 * g).tobytes()
        assert x.tobytes() == (x0 + 0.7 * v).tobytes()


class TestShouldRestart:
    def test_grad_zero_velocity_never_fires(self):
        v = np.zeros(3)
        assert not should_restart("grad", v, v, np.ones(3), 5, 0)

    def test_kin_tie_does_not_fire(self):
        v = np.array([1.0])
        assert not should_restart("kin", v, v.copy(), None, 5, 0)

    def test_mmd_r_arithmetic(self):
        # |v|^2 = 4 over age 2 vs |v'|^2 = 5 over age 3: 5/3 < 2 fires
        v = np.array([2.0])
        v_new = np.array([np.sqrt(5.0)])
        assert should_restart("mmd-r", v, v_new, None, 2, 0)

    def test_mmd_dr_arithmetic(self):
        v_new = np.array([1.0, 0.0])
        grad = np.array([1.0, 0.0])
        assert should_restart("mmd-dr", np.zeros(2), v_new, grad, 0, 0)

    def test_mmd_r_guard(self):
        with pytest.raises(AssertionError):
            should_restart("mmd-r", np.ones(1), np.ones(1), None, 3, 3)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            should_restart("bogus", np.ones(1), np.ones(1), None, 1, 0)


class TestRcmRun:
    def test_exact_landing_when_ah2_is_one(self):
        obj = quad_1d(4.0)
        trace = rcm_run(obj, np.array([1.0]), 0.5, "grad", 20)  # a h^2 = 1
        assert trace.fvals[1] == pytest.approx(0.0, abs=1e-30)
        assert np.all(trace.fvals[1:] == 0.0)
        assert np.all(trace.residuals[1:] == 0.0)

    @pytest.mark.parametrize("criterion", ["grad", "kin", "mmd-r", "mmd-dr"])
    def test_row_count_and_determinism(self, criterion):
        obj = gen_random_quadratic(10, 0.05, 5.0, 1)
        x0 = np.random.default_rng(1).standard_normal(10)
        h = 1.0 / np.sqrt(obj.lipschitz)
        a = rcm_run(obj, x0, h, criterion, 137)
        b = rcm_run(obj, x0, h, criterion, 137)
        assert len(a) == 138
        assert np.array_equal(a.fvals, b.fvals)
        assert np.array_equal(a.restarts, b.restarts)

    def test_gd_dominance_all_families(self):
        A, y, _ = gen_logistic_instance(20, 60, 4)
        M, c = gen_logsumexp_instance(20, 60, 4)
        objs = [
            gen_random_quadratic(20, 0.03, 15.0, 4),
            logistic_objective(A, y),
            logsumexp_objective(M, c, 1.0),
        ]
        for obj in objs:
            h = 1.0 / np.sqrt(obj.lipschitz)
            x0 = np.random.default_rng(4).standard_normal(20)
            trace = rcm_run(obj, x0, h, "grad", 400, keep_iterates=True)
            for k in range(len(trace) - 1):
                xg = trace.xs[k] - h * h * obj.gradient(trace.xs[k])
                assert trace.fvals[k + 1] <= obj.value(xg) + 1e-12 * (1 + abs(trace.fvals[k + 1]))

    def test_converges_on_200dim_quadratic(self):
        obj = gen_random_quadratic(200, 0.03, 15.0, 6)
        x0 = np.random.default_rng(6).standard_normal(200)
        f_star = obj.value(np.linalg.solve(obj.A, -obj.b))
        trace = rcm_run(obj, x0, 1.0 / np.sqrt(obj.lipschitz), "grad", 2000)
        gaps = trace.fvals - f_star
        assert gaps[-1] <= 1e-8 * gaps[0]

    def test_conservation_along_restart_free_segments(self):
        a, h = 0.8, 0.9  # a h^2 < 1
        obj = quad_1d(a)
        trace = rcm_run(obj, np.array([1.3]), h, "kin", 2000, keep_iterates=True)
        xs = trace.xs[:, 0]
        vs = trace.vs[:, 0]
        q = lambda x, v: 0.5 * v**2 + 0.5 * a * x**2 - 0.5 * a * h * x * v
        segment_start = q(xs[0], vs[0])
        for k in range(1, len(xs)):
            val = q(xs[k], vs[k])
            if trace.restarts[k]:
                segment_start = val
            else:
                assert val == pytest.approx(segment_start, rel=1e-10, abs=1e-12)

    def test_warns_outside_step_range(self):
        obj = quad_1d(1.0)
        for run in (lambda: rcm_run(obj, np.array([1.0]), 1.5, "grad", 5),
                    lambda: rcm_comp_run(CompositeObjective(smooth=obj, l1_weight=0.1), np.array([1.0]), 1.5,
                                         "grad", 5)):
            with pytest.warns(UserWarning, match="outside the convergence range") as record:
                run()
            assert all(w.filename == __file__ for w in record)


def _scaled(obj, c):
    """c f as a ``SmoothObjective``: value, gradient, Lipschitz bound and
    strong convexity all scaled by c."""
    mu = obj.strong_convexity
    return SmoothObjective(value=lambda x: c * obj.value(x), gradient=lambda x: c * obj.gradient(x),
                           lipschitz=c * obj.lipschitz, strong_convexity=None if mu is None else c * mu)


@pytest.mark.parametrize("problem", ["quadratic", "logistic"])
@pytest.mark.parametrize("l1", [False, True], ids=["smooth", "composite"])
@pytest.mark.parametrize("criterion", ["grad", "kin", "mmd-r"])
def test_restarts_do_not_depend_on_the_units_of_f(problem, l1, criterion):
    """``grad``, ``kin`` and ``mmd-r`` restart, and the composite loop
    crosses, at the same iterations on f and on c f (c g + c gamma ||.||_1
    for a composite) at h = 1/sqrt(cL): the run on c f is the run on f with
    v scaled by sqrt(c) and g by c.  c = 1/16 and 16 are powers of 4, so
    sqrt(c) is a power of 2 and every scaling is exact in floats; at c = 1/3
    or 7 the two runs drift apart through rounding, so such c are not used.
    ``mmd-dr`` is left out: its restarts depend on the units of f
    (``should_restart``)."""
    for seed in (1, 2, 3):
        f, x0 = build_instance(ExperimentConfig(problem=problem, l1=l1, n=50, m=200, base_seed=seed), 0)
        smooth = f.smooth if l1 else f
        h = 1.0 / math.sqrt(smooth.lipschitz)
        run = rcm_comp_run if l1 else rcm_run
        base = run(f, x0, h, criterion, 400)
        assert base.restarts.any()
        for c in (1.0 / 16.0, 16.0):
            cf = _scaled(smooth, c)
            if l1:
                cf = CompositeObjective(smooth=cf, l1_weight=c * f.l1_weight)
            scaled = run(cf, x0, 1.0 / math.sqrt(c * smooth.lipschitz), criterion, 400)
            assert np.array_equal(scaled.restarts, base.restarts)
            if l1:
                assert base.crossings.any() and np.array_equal(scaled.crossings, base.crossings)


class TestGradientDescent:
    def test_one_step(self):
        trace = gradient_descent_run(quad_1d(), np.array([1.0]), 1.0, 1)
        assert trace.fvals[-1] == pytest.approx(0.0, abs=1e-30)

    def test_descent_inequality(self):
        obj = gen_random_quadratic(15, 0.1, 6.0, 2)
        L = obj.lipschitz
        s = 0.7 / L
        omega = s * (1 - L * s / 2)
        x0 = np.random.default_rng(2).standard_normal(15)
        trace = gradient_descent_run(obj, x0, s, 100)
        for k in range(100):
            drop = trace.fvals[k + 1] - trace.fvals[k]
            assert drop <= -omega * trace.residuals[k] ** 2 * (1 - 1e-9) + 1e-12

    def test_contraction_factor(self):
        obj = gen_random_quadratic(15, 0.1, 6.0, 3)
        mu, L = obj.strong_convexity, obj.lipschitz
        f_star = obj.value(np.linalg.solve(obj.A, -obj.b))
        x0 = np.random.default_rng(3).standard_normal(15)
        trace = gradient_descent_run(obj, x0, 1.0 / L, 50)
        gaps = trace.fvals - f_star
        for k in range(50):
            assert gaps[k + 1] <= gaps[k] * (1 - mu / L) * (1 + 1e-9) + 1e-15

    def test_divergence_aborts_with_partial_trace(self):
        obj = quad_1d(1.0)
        with pytest.raises(DivergenceError) as info:
            gradient_descent_run(obj, np.array([1.0]), 1e3, 10_000)
        assert info.value.partial_trace is not None
        assert len(info.value.partial_trace) >= 1


class TestNagC:
    def test_first_step_is_pure_gradient(self):
        obj = gen_random_quadratic(6, 0.2, 3.0, 7)
        x0 = np.random.default_rng(7).standard_normal(6)
        s = 1.0 / obj.lipschitz
        trace = nag_c_run(obj, x0, s, 1, keep_iterates=True)
        assert np.allclose(trace.xs[1], x0 - s * obj.gradient(x0))

    def test_momentum_coefficients(self):
        obj = gen_random_quadratic(6, 0.2, 3.0, 7)
        x0 = np.random.default_rng(7).standard_normal(6)
        s = 1.0 / obj.lipschitz
        trace = nag_c_run(obj, x0, s, 4, keep_iterates=True)
        # replay the recurrence with explicit k/(k+3) coefficients
        x, y = x0.copy(), x0.copy()
        for k in range(4):
            y_new = x - s * obj.gradient(x)
            x = y_new + (k / (k + 3.0)) * (y_new - y)
            y = y_new
            assert np.array_equal(trace.xs[k + 1], x)
        assert 1 / (1 + 3) == 0.25 and 3 / (3 + 3) == 0.5

    def test_unit_quadratic_lands_and_stays(self):
        trace = nag_c_run(quad_1d(1.0), np.array([1.0]), 1.0, 10)
        assert np.all(trace.fvals[1:] == 0.0)


class TestNagSC:
    def test_mu_s_one_reduces_to_gd(self):
        obj = gen_random_quadratic(8, 0.2, 3.0, 9)
        x0 = np.random.default_rng(9).standard_normal(8)
        s = 1.0 / obj.lipschitz
        a = nag_sc_run(obj, x0, s, 1.0 / s, 30)
        b = gradient_descent_run(obj, x0, s, 30)
        assert np.allclose(a.fvals, b.fvals, rtol=1e-12)

    def test_coefficient_value(self):
        obj = quad_1d(1.0)
        trace = nag_sc_run(obj, np.array([1.0]), 0.25, 1.0, 2, keep_iterates=True)
        # beta = (1 - 0.5)/(1 + 0.5) = 1/3; replay one momentum step
        s, beta = 0.25, 1.0 / 3.0
        y1 = 1.0 - s * 1.0
        x1 = y1  # first step has y0 = x0 so the momentum term is (y1 - x0) scaled
        x1 = y1 + beta * (y1 - 1.0)
        assert trace.xs[1][0] == pytest.approx(x1)

    def test_exact_and_underestimated_mu_both_converge(self):
        obj = gen_random_quadratic(40, 0.03, 15.0, 13)
        x0 = np.random.default_rng(13).standard_normal(40)
        s = 1.0 / obj.lipschitz
        mu = obj.strong_convexity
        f_star = obj.value(np.linalg.solve(obj.A, -obj.b))
        for m in (mu, mu / 3.0):
            trace = nag_sc_run(obj, x0, s, m, 800)
            assert trace.fvals[-1] - f_star <= 1e-8 * (trace.fvals[0] - f_star)

    def test_rejects_mu_s_above_one(self):
        with pytest.raises(ValueError, match="momentum coefficient"):
            nag_sc_run(quad_1d(1.0), np.array([1.0]), 1.0, 2.0, 5)


class TestNagCRestart:
    def test_zero_product_does_not_restart(self):
        # starting at the minimizer every y-difference is zero: never restarts
        obj = quadratic_objective(np.diag([2.0, 5.0]), np.array([-2.0, -5.0]))
        trace = nag_c_restart_run(obj, np.ones(2), 0.1, 20)
        assert trace.restarts.sum() == 0

    def test_dominance_over_gradient_step(self):
        obj = gen_random_quadratic(25, 0.03, 15.0, 15)
        x0 = np.random.default_rng(15).standard_normal(25)
        s = 1.0 / obj.lipschitz
        trace = nag_c_restart_run(obj, x0, s, 300, keep_iterates=True)
        for k in range(len(trace) - 1):
            y_next = trace.xs[k] - s * obj.gradient(trace.xs[k])
            assert trace.fvals[k + 1] <= obj.value(y_next) + 1e-12 * (1 + abs(trace.fvals[k + 1]))

    def test_monotone_while_plain_nag_oscillates(self):
        obj = gen_random_quadratic(200, 0.03, 15.0, 16)
        x0 = np.random.default_rng(16).standard_normal(200)
        s = 1.0 / obj.lipschitz
        restarted = nag_c_restart_run(obj, x0, s, 800)
        plain = nag_c_run(obj, x0, s, 800)
        diffs_restarted = np.diff(restarted.fvals)
        diffs_plain = np.diff(plain.fvals)
        assert np.all(diffs_restarted <= 1e-10 * (1 + np.abs(restarted.fvals[:-1])))
        assert np.any(diffs_plain > 0)
        assert restarted.fvals[-1] < plain.fvals[-1]


@pytest.mark.parametrize("method", ["nag-c", "nag-sc", "nag-c-restart"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nesterov_oracle_calls_per_iteration(method, seed):
    # One value and one gradient per row; a restart adds a gradient at y_{k+1}
    # unless the momentum was zero, that is, on the first iteration and right
    # after another restart, when the candidate point is y_{k+1} itself.
    obj = gen_random_quadratic(30, 0.03, 15.0, seed)
    x0 = np.random.default_rng([seed, 1]).standard_normal(30)
    calls = {"value": 0, "gradient": 0}

    def counted(name, inner):
        def call(x):
            calls[name] += 1
            return inner(x)
        return call

    c = replace(obj, value=counted("value", obj.value), gradient=counted("gradient", obj.gradient))
    s, max_iter = 1.0 / obj.lipschitz, 600
    if method == "nag-c":
        trace = nag_c_run(c, x0, s, max_iter)
    elif method == "nag-sc":
        trace = nag_sc_run(c, x0, s, obj.strong_convexity, max_iter)
    else:
        trace = nag_c_restart_run(c, x0, s, max_iter)
    r = trace.restarts
    # Restarts with and without momentum both occur.
    assert method != "nag-c-restart" or (np.any(r[2:] & ~r[1:-1]) and np.any(r[2:] & r[1:-1]))
    assert calls == {"value": max_iter + 1, "gradient": max_iter + 1 + int(np.sum(r[2:] & ~r[1:-1]))}


# Every runner, on a smooth quadratic q with L = 2 and mu = 0.5 or on its
# l1-composite c, for five iterations from x0.
RUNNERS = {
    "gd": lambda q, c, x0: gradient_descent_run(q, x0, 0.1, 5),
    "nag-c": lambda q, c, x0: nag_c_run(q, x0, 0.1, 5),
    "nag-sc": lambda q, c, x0: nag_sc_run(q, x0, 0.1, 0.5, 5),
    "nag-c-restart": lambda q, c, x0: nag_c_restart_run(q, x0, 0.1, 5),
    "rcm": lambda q, c, x0: rcm_run(q, x0, 0.5, "grad", 5),
    "fista": lambda q, c, x0: fista_run(c, x0, 0.1, 5),
    "fista-restart": lambda q, c, x0: fista_restart_run(c, x0, 0.1, 5),
    "rcm-comp": lambda q, c, x0: rcm_comp_run(c, x0, 0.5, "grad", 5),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_nan_start_diverges_at_iteration_zero(runner):
    q = quadratic_objective(np.diag([0.5, 1.0, 2.0]), np.ones(3))
    c = CompositeObjective(smooth=q, l1_weight=0.1)
    with pytest.raises(DivergenceError, match="at iteration 0 ") as info:
        RUNNERS[runner](q, c, np.full(3, np.nan))
    assert len(info.value.partial_trace) == 1
    assert np.isnan(info.value.partial_trace.x).all()


# Every runner and the symplectic Euler step, each given a bad step (or a
# bad mu, for NAG-SC), and the message it rejects that value with.
BAD_PARAMETER_RUNNERS = {
    "gd": (lambda q, c, x0, bad: gradient_descent_run(q, x0, bad, 5), "s must be positive"),
    "nag-c": (lambda q, c, x0, bad: nag_c_run(q, x0, bad, 5), "s must be positive"),
    "nag-sc": (lambda q, c, x0, bad: nag_sc_run(q, x0, bad, 0.5, 5), "s must be positive"),
    "nag-sc-mu": (lambda q, c, x0, bad: nag_sc_run(q, x0, 0.1, bad, 5), "mu must be positive"),
    "nag-c-restart": (lambda q, c, x0, bad: nag_c_restart_run(q, x0, bad, 5), "s must be positive"),
    "rcm": (lambda q, c, x0, bad: rcm_run(q, x0, bad, "grad", 5), "h must be positive"),
    "fista": (lambda q, c, x0, bad: fista_run(c, x0, bad, 5), "s must be positive"),
    "fista-restart": (lambda q, c, x0, bad: fista_restart_run(c, x0, bad, 5), "s must be positive"),
    "rcm-comp": (lambda q, c, x0, bad: rcm_comp_run(c, x0, bad, "grad", 5), "h must be positive"),
    "symplectic-euler": (lambda q, c, x0, bad: symplectic_euler_step(q, x0, np.zeros_like(x0), bad),
                         "h must be positive"),
}


def _assert_rejected_before_any_oracle_call(runner, bad):
    calls = []
    q = quadratic_objective(np.diag([0.5, 1.0, 2.0]), np.ones(3))
    q = replace(q, value=lambda x, f=q.value: calls.append("value") or f(x),
                gradient=lambda x, g=q.gradient: calls.append("gradient") or g(x))
    c = CompositeObjective(smooth=q, l1_weight=0.1)
    run, message = BAD_PARAMETER_RUNNERS[runner]
    with pytest.raises(ValueError, match=message):
        run(q, c, np.ones(3), bad)
    assert calls == []


@pytest.mark.parametrize("runner", sorted(BAD_PARAMETER_RUNNERS))
def test_nan_step_is_rejected_before_any_oracle_call(runner):
    _assert_rejected_before_any_oracle_call(runner, np.nan)


# An infinite mu already fails NAG-SC's mu * s <= 1 check, with its own message.
@pytest.mark.parametrize("runner", sorted(set(BAD_PARAMETER_RUNNERS) - {"nag-sc-mu"}))
def test_infinite_step_is_rejected_before_any_oracle_call(runner):
    _assert_rejected_before_any_oracle_call(runner, np.inf)


def _plain_fista(f, x0, s, max_iter, restart, yts=None):
    """FISTA written out in full: rows of (f, residual, restart, x).  A
    list passed as ``yts`` receives each row's (y, t)."""
    x = np.array(x0, dtype=float)
    y, t = x.copy(), 1.0
    rows = [(f.value(x), np.linalg.norm(minimal_norm_subgradient(f, x)), False, x)]
    if yts is not None:
        yts.append((y, t))
    for _ in range(max_iter):
        x_prev = x
        x = prox_l1(y - s * f.smooth.gradient(y), s * f.l1_weight)
        fire = restart and float((y - x) @ (x - x_prev)) > 0.0
        if fire:
            t, y = 1.0, x
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            t = t_next
        rows.append((f.value(x), np.linalg.norm(minimal_norm_subgradient(f, x)), fire, x))
        if yts is not None:
            yts.append((y, t))
    return rows


def _plain_nag(obj, x0, s, max_iter, beta=None):
    """NAG-SC with momentum ``beta`` (gradient descent at 0), or
    NAG-C-restart when ``beta`` is None, written out in full: rows of
    (f, residual, restart, x)."""
    x = np.array(x0, dtype=float)
    y, g, j = x.copy(), obj.gradient(x), 0
    rows = [(obj.value(x), np.linalg.norm(g), False, x)]
    for _ in range(max_iter):
        b = j / (j + 3.0) if beta is None else beta
        y_new = x - s * g
        x_cand = y_new + b * (y_new - y)
        g_cand = obj.gradient(x_cand)
        fire = beta is None and float(g_cand @ (y_new - y)) > 0.0
        if fire:
            x, g, j = y_new, g_cand if b == 0.0 else obj.gradient(y_new), 0
        else:
            x, g, j = x_cand, g_cand, j + 1
        y = y_new
        rows.append((obj.value(x), np.linalg.norm(g), fire, x))
    return rows


def _assert_rows(trace, rows):
    """The trace's columns, iterates kept, and its final x are those of
    ``rows``, as the loops written out in full give them."""
    fvals, residuals, restarts, xs = zip(*rows)
    assert trace.fvals.tobytes() == np.array(fvals).tobytes()
    assert trace.residuals.tobytes() == np.array(residuals).tobytes()
    assert np.array_equal(trace.restarts, restarts)
    assert trace.xs.tobytes() == np.array(xs).tobytes()
    assert trace.x.tobytes() == xs[-1].tobytes()


def _counted(smooth):
    """``smooth`` with a gradient that counts its calls in ``calls[0]``."""
    calls = [0]

    def gradient(x, inner=smooth.gradient):
        calls[0] += 1
        return inner(x)

    return replace(smooth, gradient=gradient), calls


@pytest.mark.parametrize("method", ["fista", "fista-restart", "nag-c-restart", "nag-sc", "gd"])
def test_fixed_point_rows_are_copies_made_without_oracle_calls(method):
    # Each instance reaches an exact floating-point fixed point well before
    # max_iter; the runner then stops calling the oracle, and its rows,
    # iterates and final state still match the loop run to the end.
    if method.startswith("fista"):
        A, y, _ = gen_logistic_instance(8, 30, 2)
        smooth = logistic_objective(A, y)
        gamma = l1_weight_rule("logistic", smooth.gradient(np.zeros(8)))
        f = CompositeObjective(smooth=smooth, l1_weight=gamma)
        x0, s, max_iter = np.zeros(8), 1.0 / smooth.lipschitz, 2000
        counted, calls = _counted(smooth)
        run = fista_restart_run if method == "fista-restart" else fista_run
        trace = run(replace(f, smooth=counted), x0, s, max_iter, keep_iterates=True)
        rows = _plain_fista(f, x0, s, max_iter, restart=method == "fista-restart")
    else:
        obj = gen_random_quadratic(6, 0.5, 2.0, 2)
        x0 = np.random.default_rng([2, 1]).standard_normal(6)
        s, mu, max_iter = 1.0 / obj.lipschitz, obj.strong_convexity, 500
        counted, calls = _counted(obj)
        if method == "nag-sc":
            trace = nag_sc_run(counted, x0, s, mu, max_iter, keep_iterates=True)
            rows = _plain_nag(obj, x0, s, max_iter, (1.0 - np.sqrt(mu * s)) / (1.0 + np.sqrt(mu * s)))
        elif method == "gd":
            trace = gradient_descent_run(counted, x0, s, max_iter, keep_iterates=True)
            rows = _plain_nag(obj, x0, s, max_iter, 0.0)
        else:
            trace = nag_c_restart_run(counted, x0, s, max_iter, keep_iterates=True)
            rows = _plain_nag(obj, x0, s, max_iter)
    assert len(trace) == max_iter + 1
    _assert_rows(trace, rows)
    assert trace.v is None
    assert calls[0] < max_iter


def _rcm_loop_without_stop(value, oracle, x0, h, criterion, max_iter, method, project=None):
    """The conservative loop of ``discrete._rcm_loop`` without its at-rest
    stop, run to ``max_iter`` with iterates kept.  Returns the trace and,
    for each row, the number of oracle calls made before it was recorded."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return oracle(x)

    needs_trial = criterion in ("grad", "mmd-dr")
    crossed = None if project is None else False
    x = np.array(x0, dtype=float)
    v = np.zeros_like(x)
    g = counted(x)
    l = 0
    rec = _Recorder(method, h, True)
    rec.add(value(x), math.sqrt(g @ g), False, x, v, crossed)
    calls_at_row = [calls[0]]
    for k in range(max_iter):
        v_trial = v - h * g
        x_trial = x + h * v_trial
        g_trial = counted(x_trial) if needs_trial else None
        fire = k - l >= 1 and should_restart(criterion, v, v_trial, g_trial, k, l)
        if fire:
            x_new = x - (h * h) * g
            g_new = counted(x_new)
            v_new = -h * g_new
            l = k
        else:
            x_new, v_new, g_new = x_trial, v_trial, g_trial
        if project is not None:
            x_new, crossed = project(x, x_new)
            if crossed:
                v_new = np.zeros_like(v_new)
                l = k + 1
        x, v = x_new, v_new
        g = counted(x) if g_new is None or crossed else g_new
        rec.add(value(x), math.sqrt(g @ g), fire, x, v, crossed)
        calls_at_row.append(calls[0])
    return rec.trace(x, v), calls_at_row


def _columns(trace):
    """Every field of a Trace, as (dtype, shape, bytes)."""
    cols = {f.name: getattr(trace, f.name) for f in fields(trace)}
    return {k: a if a is None or isinstance(a, str) else (np.asarray(a).dtype.str, np.shape(a), np.asarray(a).tobytes())
            for k, a in cols.items()}


@pytest.mark.parametrize("criterion", RESTART_CRITERIA)
@pytest.mark.parametrize("runner", ["rcm_run", "rcm_comp_run"])
def test_at_rest_rows_are_copies_made_without_oracle_calls(runner, criterion):
    # Both instances come to rest (v = 0 and h g = 0) well before max_iter:
    # 2 ||x||^2 at h = 1/2 after a restart, which leaves v = -0.0, and an
    # l1-logistic instance of the logistic-l1 benchmark at rows 40-65 (base
    # seed 70031, the first from 70002 on which all four runs come to rest
    # before row 100).  The runner then stops calling the oracle, and every
    # column still matches the loop run to the end.
    if runner == "rcm_run":
        obj = quadratic_objective(4.0 * np.eye(3), np.zeros(3))
        x0, h, max_iter = np.array([1.0, -0.5, 2.0]), 0.5, 50
        counted, calls = _counted(obj)
        trace = rcm_run(counted, x0, h, criterion, max_iter, keep_iterates=True)
        ref, calls_at_row = _rcm_loop_without_stop(obj.value, obj.gradient, x0, h, criterion, max_iter,
                                                   f"rcm-{criterion}")
    else:
        f, x0 = build_instance(ExperimentConfig(problem="logistic", l1=True, n=50, m=200, base_seed=70031), 0)
        h, max_iter = 1.0 / np.sqrt(f.smooth.lipschitz), 1000
        counted, calls = _counted(f.smooth)
        trace = rcm_comp_run(replace(f, smooth=counted), x0, h, criterion, max_iter, keep_iterates=True)
        ref, calls_at_row = _rcm_loop_without_stop(f.value, lambda x: minimal_norm_subgradient(f, x), x0, h,
                                                   criterion, max_iter, f"rcm-comp-{criterion}",
                                                   sign_crossing_projection)
    assert _columns(trace) == _columns(ref)
    # The stopped run made exactly the calls the full loop had made when it
    # recorded the stop row, and from that row on the full loop only
    # repeats it.
    stop = calls_at_row.index(calls[0])
    assert stop < 100 and calls[0] < calls_at_row[-1]
    assert not ref.restarts[stop + 1:].any() and not ref.vs[stop:].any()
    assert ref.xs[stop:].tobytes() == np.tile(ref.xs[stop], (max_iter + 1 - stop, 1)).tobytes()


@pytest.mark.filterwarnings("ignore:h = 1 is outside the convergence range")
@pytest.mark.parametrize("criterion, stop", [("grad", 4), ("kin", 20), ("mmd-r", 20), ("mmd-dr", 6)])
def test_zero_velocity_with_a_nonzero_step_is_not_at_rest(criterion, stop):
    # On f = x^2 - x at h = 1 the mmd-dr run returns to x = 1 with v = 0
    # and f repeated at row 2, but h g = 1 there, so the run goes on.  The
    # grad and mmd-dr runs then cycle with period 2 and stop at the cycle
    # (rows 4 and 6); the kin and mmd-r runs grow without repeating.
    obj = quadratic_objective(np.array([[2.0]]), np.array([-1.0]))
    counted, calls = _counted(obj)
    trace = rcm_run(counted, np.zeros(1), 1.0, criterion, 20, keep_iterates=True)
    ref, calls_at_row = _rcm_loop_without_stop(obj.value, obj.gradient, np.zeros(1), 1.0, criterion, 20,
                                               f"rcm-{criterion}")
    assert _columns(trace) == _columns(ref)
    assert calls[0] == calls_at_row[stop] > calls_at_row[2]


def _first_repeat(trace, criterion):
    """(row, period) of the first row whose state, x and v with the lag
    k - l as the criterion reads it, comes back later, or None."""
    seen = {}
    l = 0
    for r in range(len(trace)):
        if trace.crossings is not None and trace.crossings[r]:
            l = r
        elif trace.restarts[r]:
            l = r - 1
        lag = r - l if criterion.startswith("mmd") else r - l >= 1
        key = (trace.xs[r].tobytes(), trace.vs[r].tobytes(), lag)
        if key in seen:
            return seen[key], r - seen[key]
        seen[key] = r
    return None


def _cycle_stop_row(start, period, max_iter):
    """The last computed row of a run whose state repeats with ``period``
    from row ``start``: the checkpoint kept at power-of-two rows sits in
    the cycle and is at least a period old at the first such row c, so the
    cycle shows at row c + period, and the run goes on to the next row a
    whole number of periods before max_iter."""
    c = 1
    while c < max(start, period):
        c *= 2
    return c + period + (max_iter - c - period) % period


def _stopped_and_full(runner, criterion, instance, max_iter):
    """A counted run of ``runner`` and the loop run to the end without
    stops, on ``instance``: (trace, calls, reference, calls at each row)."""
    if runner == "rcm_run":
        obj, x0 = instance
        counted, calls = _counted(obj)
        h = 1.0 / np.sqrt(obj.lipschitz)
        trace = rcm_run(counted, x0, h, criterion, max_iter, keep_iterates=True)
        ref, calls_at_row = _rcm_loop_without_stop(obj.value, obj.gradient, x0, h, criterion, max_iter,
                                                   f"rcm-{criterion}")
    else:
        f, x0 = instance
        counted, calls = _counted(f.smooth)
        h = 1.0 / np.sqrt(f.smooth.lipschitz)
        trace = rcm_comp_run(replace(f, smooth=counted), x0, h, criterion, max_iter, keep_iterates=True)
        ref, calls_at_row = _rcm_loop_without_stop(f.value, lambda x: minimal_norm_subgradient(f, x), x0, h,
                                                   criterion, max_iter, f"rcm-comp-{criterion}",
                                                   sign_crossing_projection)
    return trace, calls[0], ref, calls_at_row


@pytest.mark.parametrize("criterion", RESTART_CRITERIA)
@pytest.mark.parametrize("runner", ["rcm_run", "rcm_comp_run"])
def test_cycle_rows_are_copies_of_one_period(runner, criterion):
    # Both instances end in exact cycles of period > 1 for every criterion:
    # a 5-d quadratic near its minimum, where rounding closes the orbit
    # (periods 3, 20, 15 and 3 from rows 44-82), and a 5-d l1-logistic
    # instance (periods 9, 8, 14 and 9 from rows 37-69).  The runner stops
    # calling the oracle at the cycle, and every column still matches the
    # loop run to the end.
    if runner == "rcm_run":
        instance = gen_random_quadratic(5, 0.1, 4.0, 6), np.random.default_rng([6, 1]).standard_normal(5)
    else:
        instance = build_instance(ExperimentConfig(problem="logistic", l1=True, n=5, m=20, base_seed=11), 0)
    max_iter = 300
    trace, calls, ref, calls_at_row = _stopped_and_full(runner, criterion, instance, max_iter)
    assert _columns(trace) == _columns(ref)
    start, period = _first_repeat(ref, criterion)
    assert period > 1
    assert calls == calls_at_row[_cycle_stop_row(start, period, max_iter)] < calls_at_row[-1]


def test_a_repeat_of_x_and_v_at_another_lag_is_not_a_cycle():
    # An oracle given point by point (x elsewhere) takes the mmd-r run at
    # h = 1 to x = 0, v = -1 by a restart at row 4 (lag 1) and again
    # without one at row 8 (lag 2).  From row 8 the run does not restart
    # where it did after row 4 (rows 11 and 7), since the mean-dissipation
    # test reads the lag, so rows 5-8 are no period.  The whole state first
    # repeats at rows 4 and 12, and the run stops at row 16, where the
    # checkpoint of row 8 comes back.
    table = {4.0: 1.0, 3.0: 1.0, 1.0: 0.5, -1.5: -1.5, 0.0: 1.0, -2.0: -4.625, 0.625: -0.375}
    obj = SmoothObjective(value=lambda x: float(x.dot(x)), gradient=lambda x: np.array([table.get(x[0], x[0])]),
                          lipschitz=1.0)
    counted, calls = _counted(obj)
    x0 = np.array([4.0])
    trace = rcm_run(counted, x0, 1.0, "mmd-r", 40, keep_iterates=True)
    ref, calls_at_row = _rcm_loop_without_stop(obj.value, obj.gradient, x0, 1.0, "mmd-r", 40, "rcm-mmd-r")
    assert _columns(trace) == _columns(ref)
    assert ref.xs[4].tobytes() == ref.xs[8].tobytes() and ref.vs[4].tobytes() == ref.vs[8].tobytes()
    assert ref.restarts[4] and not ref.restarts[8] and ref.restarts[7] and not ref.restarts[11]
    assert _first_repeat(ref, "mmd-r") == (4, 8) and _cycle_stop_row(4, 8, 40) == 16
    assert calls[0] == calls_at_row[16]


def test_cycle_stop_on_small_l1_instances():
    # On l1-logistic instances with n = 3-8 and m = 4n, every run's columns
    # match the loop run to the end, and a stopped run made exactly the
    # calls the full loop had made by some row.  Among the examples, some
    # runs stop at a cycle of period > 1.
    periods = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(3, 8), st.sampled_from(RESTART_CRITERIA))
    def check(base_seed, n, criterion):
        instance = build_instance(ExperimentConfig(problem="logistic", l1=True, n=n, m=4 * n, base_seed=base_seed),
                                  0)
        trace, calls, ref, calls_at_row = _stopped_and_full("rcm_comp_run", criterion, instance, 300)
        assert _columns(trace) == _columns(ref)
        assert calls in calls_at_row
        repeat = _first_repeat(ref, criterion)
        if calls < calls_at_row[-1] and repeat is not None:
            periods.append(repeat[1])

    check()
    assert any(p > 1 for p in periods)


@pytest.mark.parametrize("base_seed, start, period, restart_calls, fista_calls", [
    (10040, 130, 87, 783, 425), (10152, 92, 30, 321, 517), (10227, 81, 33, 351, 543),
])
def test_fista_restart_cycle_rows_are_copies_of_one_period(base_seed, start, period, restart_calls, fista_calls):
    # On these instances of the logistic-l1 benchmark's shape, the first
    # three base seeds from 10000 on which FISTA-restart's (x, y, t) state
    # repeats within max_iter, it repeats with the given period from row
    # ``start``, so the run stops calling the oracle at the cycle, making
    # the calls of the full loop at that row: one gradient for the step and
    # one inside the subgradient per row, after row 0's one.  Plain FISTA
    # repeats its x and y bits while t grows, from row 211 with period 1
    # (a fixed point) on the first and from rows 152 and 163 with periods
    # 2 and 9 on the others, and stops there.  Every column of both
    # matches the loop run to the end.
    f, x0 = build_instance(ExperimentConfig(problem="logistic", l1=True, n=50, m=200, base_seed=base_seed), 0)
    s, max_iter = 1.0 / f.smooth.lipschitz, 1000
    assert restart_calls == 1 + 2 * _cycle_stop_row(start, period, max_iter)
    for run, expected in ((fista_restart_run, restart_calls), (fista_run, fista_calls)):
        counted, calls = _counted(f.smooth)
        trace = run(replace(f, smooth=counted), x0, s, max_iter, keep_iterates=True)
        _assert_rows(trace, _plain_fista(f, x0, s, max_iter, restart=run is fista_restart_run))
        assert calls[0] == expected


def _first_t_free_repeat(rows, yts):
    """(row, period) of the first row whose x and y bits come back with no
    step between that restarted or formed a y other than x + dx in bits,
    or None."""
    seen, t_steps = {}, 0
    for r, ((_, _, fire, x), (y, _)) in enumerate(zip(rows, yts)):
        if r and (fire or y.tobytes() != (x + (x - rows[r - 1][3])).tobytes()):
            t_steps += 1
        key = (x.tobytes(), y.tobytes(), t_steps)
        if key in seen:
            return seen[key], r - seen[key]
        seen[key] = r
    return None


@pytest.mark.parametrize("base_seed, method, start, period", [
    (10012, "fista", 203, 32), (10012, "fista-restart", 225, 37),
    (10051, "fista", 178, 10), (10051, "fista-restart", 75, 8),
])
def test_fista_cycle_in_which_t_grows_is_copied(base_seed, method, start, period):
    # Over the logistic-l1 benchmark's 60 instances (base seeds
    # 10000-10059, max_iter 1000), 10012 is the first on which both runs
    # stop at a repeat of their x and y bits with a period above 1 and no
    # step between that depended on t, and it has the longest such period
    # of FISTA-restart; 10051 has the next longest.  (10003 repeats first,
    # but its FISTA-restart cycle starts at row 627, too late for a
    # checkpoint to catch it.)  t grows over the period, so the (x, y, t)
    # state never repeats, but the momentum no longer changes a bit: the
    # run stops at the cycle with the calls of the full loop at that row,
    # and every column matches the loop run to the end.
    f, x0 = build_instance(ExperimentConfig(problem="logistic", l1=True, n=50, m=200, base_seed=base_seed), 0)
    s, max_iter, restart = 1.0 / f.smooth.lipschitz, 1000, method == "fista-restart"
    yts = []
    rows = _plain_fista(f, x0, s, max_iter, restart, yts)
    assert _first_t_free_repeat(rows, yts) == (start, period)
    assert yts[start + period][1] > yts[start][1]
    counted, calls = _counted(f.smooth)
    trace = (fista_restart_run if restart else fista_run)(replace(f, smooth=counted), x0, s, max_iter,
                                                          keep_iterates=True)
    _assert_rows(trace, rows)
    assert calls[0] == 1 + 2 * _cycle_stop_row(start, period, max_iter) < 1 + 2 * max_iter


class TestDivergenceBoundary:
    """Which rows make ``_Recorder.add`` abort the run: |f| or the residual
    beyond DIVERGENCE_LIMIT, or either one NaN or infinite."""

    def add_rows(self, fval, resid):
        rec = _Recorder("probe", 0.1, False)
        x = np.zeros(2)
        rec.add(1.0, 2.0, False, x)
        rec.add(0.5, 1.0, False, x)
        rec.add(fval, resid, False, x)
        return rec

    @pytest.mark.parametrize("fval, resid", [
        (DIVERGENCE_LIMIT, 1.0), (-DIVERGENCE_LIMIT, 1.0), (1.0, DIVERGENCE_LIMIT),
        (-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT), (0.0, 0.0), (-0.0, 0.0),
    ])
    def test_limit_itself_is_kept(self, fval, resid):
        trace = self.add_rows(fval, resid).trace(np.zeros(2))
        assert trace.fvals[-1] == fval and trace.residuals[-1] == resid

    @pytest.mark.parametrize("fval, resid", [
        (np.nextafter(DIVERGENCE_LIMIT, np.inf), 1.0), (-np.nextafter(DIVERGENCE_LIMIT, np.inf), 1.0),
        (1.0, np.nextafter(DIVERGENCE_LIMIT, np.inf)),
        (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
        (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
    ])
    def test_beyond_the_limit_or_not_finite_aborts(self, fval, resid):
        with pytest.raises(DivergenceError, match="probe: diverged at iteration 2 ") as info:
            self.add_rows(float(fval), float(resid))
        partial = info.value.partial_trace
        assert len(partial) == 3
        assert partial.fvals[:2].tolist() == [1.0, 0.5] and partial.residuals[:2].tolist() == [2.0, 1.0]
