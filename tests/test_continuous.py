from dataclasses import replace

import numpy as np
import pytest

from consopt.continuous import (
    _verlet,
    default_time_step,
    finite_restart_cap,
    initial_dissipation_slope,
    integrate_conservative,
    kinetic_energy_maxima,
    kinetic_max_restart_time,
    mean_dissipation,
    mmd_restart_time,
    quadratic_closed_form,
    quadratic_fixed_interval_decrease,
    restart_time_upper_bound,
    run_piecewise_conservative,
    small_time_energy_check,
    visiting_time_1d,
)
from consopt.objectives import (
    SmoothObjective,
    gen_logsumexp_instance,
    gen_random_quadratic,
    logsumexp_objective,
    quadratic_objective,
)

from oracles import TAN_ROOT, mean_dissipation_root_1d


def quad_1d(mu=1.0):
    return quadratic_objective(np.array([[mu]]), np.zeros(1))


def sc_nonquadratic(n, seed, eps=0.5):
    """Strongly convex but non-quadratic: random quadratic + eps * log-sum-exp."""
    quad = gen_random_quadratic(n, 0.03, 15.0, seed)
    M, c = gen_logsumexp_instance(n, 2 * n, seed + 10_000)
    lse = logsumexp_objective(M, c, 1.0)
    value = lambda x: quad.value(x) + eps * lse.value(x)
    gradient = lambda x: quad.gradient(x) + eps * lse.gradient(x)
    return SmoothObjective(
        dim=n,
        value=value,
        gradient=gradient,
        lipschitz=quad.lipschitz + eps * lse.lipschitz,
        strong_convexity=quad.strong_convexity,
    )


class TestClosedForm:
    def test_initial_instant(self):
        x, v, ek = quadratic_closed_form([2.0, 5.0], [1.0, -1.0], 0.0)
        assert np.array_equal(x, [1.0, -1.0])
        assert np.all(v == 0.0)
        assert ek == 0.0

    def test_quarter_period(self):
        x, v, ek = quadratic_closed_form([1.0], [1.0], np.pi / 2)
        assert x[0] == pytest.approx(0.0, abs=1e-15)
        assert ek == pytest.approx(0.5)

    def test_kinetic_energy_is_half_speed_squared(self):
        rng = np.random.default_rng(0)
        lams = rng.uniform(0.1, 9.0, 6)
        x0 = rng.standard_normal(6)
        for t in rng.uniform(0, 10, 10):
            _, v, ek = quadratic_closed_form(lams, x0, t)
            assert ek == pytest.approx(0.5 * float(v @ v), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quadratic_closed_form([1.0, 0.0], [1.0, 1.0], 1.0)


class TestIntegrator:
    def test_tracks_cosine(self):
        lam = 3.0
        obj = quad_1d(lam)
        dt = 1e-3 / np.sqrt(lam)
        period = 2 * np.pi / np.sqrt(lam)
        traj = integrate_conservative(obj, np.array([1.0]), np.zeros(1), dt, period)
        for t, x in zip(traj.times, traj.xs):
            assert x[0] == pytest.approx(np.cos(np.sqrt(lam) * t), abs=5e-6)

    def test_energy_drift_second_order(self):
        obj = gen_random_quadratic(6, 0.2, 4.0, 1)
        x0 = np.random.default_rng(1).standard_normal(6)
        d1 = integrate_conservative(obj, x0, np.zeros(6), 2e-3, 5.0).energy_drift
        d2 = integrate_conservative(obj, x0, np.zeros(6), 1e-3, 5.0).energy_drift
        assert d1 / d2 == pytest.approx(4.0, rel=0.25)

    def test_stationary_start(self):
        obj = quadratic_objective(np.diag([2.0, 5.0]), np.array([-2.0, -5.0]))
        traj = integrate_conservative(obj, np.ones(2), np.zeros(2), 1e-2, 1.0)
        assert np.allclose(traj.xs, 1.0)
        assert traj.energy_drift == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("scale", [1e200, 1.5e308])
    def test_huge_finite_state_does_not_raise(self, scale):
        # x @ x and v @ v overflow, and at 1.5e308 so do the sums of x and v,
        # although every coordinate is finite
        x0, v0 = np.array([scale, scale / 2]), np.array([scale / 100, scale / 200])
        nodes = list(_verlet(lambda x: np.zeros(2), x0, v0, 0.5, 3))
        assert len(nodes) == 4
        assert np.all(np.isfinite(nodes[-1][2])) and np.all(np.isfinite(nodes[-1][3]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "bad, x0, v0, dt",
        [
            pytest.param(np.nan, [1.0, 1.0], [1.0, 1.0], 1.0, id="nan"),
            pytest.param(np.inf, [1.0, 1.0], [1.0, 1.0], 1.0, id="inf"),
            # only x overflows; v and the gradient stay finite
            pytest.param(0.0, [1.7e308, 0.0], [1e308, 0.0], 1.0, id="x-overflow"),
            # x overflows while v @ v stays finite, so the screen must read x
            pytest.param(0.0, [1.0, 0.0], [1e110, 0.0], 1e200, id="x-overflow-finite-vv"),
        ],
    )
    def test_non_finite_state_raises(self, bad, x0, v0, dt):
        grad = lambda x: np.array([0.0, bad]) if x[0] > 1.5 else np.zeros(2)
        with pytest.raises(RuntimeError, match="non-finite state"):
            list(_verlet(grad, x0, v0, dt, 2))

    def test_strictly_increasing_times_enforced(self):
        from consopt.continuous import ContinuousTrajectory

        with pytest.raises(ValueError, match="strictly increasing"):
            ContinuousTrajectory(
                times=np.array([0.0, 0.0]), xs=np.zeros((2, 1)), vs=np.zeros((2, 1))
            )


DT_ENTRY_POINTS = {
    "integrate_conservative": lambda obj, x0, dt: integrate_conservative(obj, x0, np.zeros(2), dt, 1.0),
    "mmd_restart_time": lambda obj, x0, dt: mmd_restart_time(obj, x0, dt=dt),
    "kinetic_max_restart_time": lambda obj, x0, dt: kinetic_max_restart_time(obj, x0, dt=dt),
    "kinetic_energy_maxima": lambda obj, x0, dt: kinetic_energy_maxima(obj, x0, 5.0, dt=dt),
    "run_piecewise_conservative": lambda obj, x0, dt: run_piecewise_conservative(obj, x0, dt=dt),
}


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(DT_ENTRY_POINTS))
def test_rejects_non_positive_dt(entry, dt):
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError, match="dt must be positive"):
        DT_ENTRY_POINTS[entry](obj, np.ones(2), dt)


class TestMeanDissipation:
    def test_zero_cases(self):
        assert mean_dissipation(0.0, 0.0) == 0.0
        assert mean_dissipation(0.0, 2.0) == 0.0

    def test_matches_1d_closed_form(self):
        # on f = x^2/2 from x0 = 1 the rate is sin^2(t) / (2 t)
        for t in (0.3, 0.7, 1.1):
            _, _, ek = quadratic_closed_form([1.0], [1.0], t)
            assert mean_dissipation(ek, t) == pytest.approx(np.sin(t) ** 2 / (2 * t))

    def test_slope_at_origin(self):
        obj = gen_random_quadratic(5, 0.5, 3.0, 2)
        x0 = np.random.default_rng(2).standard_normal(5)
        g = obj.gradient(x0)
        assert initial_dissipation_slope(obj, x0) == pytest.approx(0.5 * g @ g)
        # small-time limit of r(t)/t
        dt = 1e-4
        traj = integrate_conservative(obj, x0, np.zeros(5), dt, 40 * dt)
        t = traj.times[-1]
        ek = 0.5 * float(traj.vs[-1] @ traj.vs[-1])
        assert mean_dissipation(ek, t) / t == pytest.approx(0.5 * g @ g, rel=1e-3)


class TestMmdRestartTime:
    def test_mean_dissipation_root_oracle(self):
        assert mean_dissipation_root_1d(1.0) == pytest.approx(TAN_ROOT, abs=1e-12)
        assert np.tan(TAN_ROOT) == pytest.approx(2 * TAN_ROOT, rel=1e-10)

    def test_1d_quadratic_matches_tan_root(self):
        for mu in (0.25, 1.0, 7.0):
            ev = mmd_restart_time(quad_1d(mu), np.array([1.0]))
            assert ev.time == pytest.approx(TAN_ROOT / np.sqrt(mu), rel=1e-6)

    def test_bounds_on_random_suite(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            n = int(rng.integers(1, 15))
            obj = gen_random_quadratic(n, 0.03, 15.0, 400 + i)
            x0 = rng.standard_normal(n)
            ev = mmd_restart_time(obj, x0)
            mu, L = obj.strong_convexity, obj.lipschitz
            assert ev.time > np.sqrt(mu) / (8 * L)
            assert ev.time <= restart_time_upper_bound(mu, L) * (1 + 1e-4)

    def test_kinetic_energy_grad_lower_bound(self):
        for seed in range(3):
            obj = sc_nonquadratic(6, 500 + seed)
            x0 = np.random.default_rng(seed).standard_normal(6)
            ev = mmd_restart_time(obj, x0)
            g = obj.gradient(ev.x)
            assert ev.kinetic_energy >= float(g @ g) / (2 * obj.lipschitz) * (1 - 1e-6)

    def test_energy_accounting(self):
        obj = gen_random_quadratic(8, 0.1, 5.0, 6)
        x0 = np.random.default_rng(6).standard_normal(8)
        dt = default_time_step(obj)
        ev = mmd_restart_time(obj, x0, dt=dt)
        decrease = obj.value(x0) - ev.f_value
        drift = integrate_conservative(obj, x0, np.zeros(8), dt, ev.time).energy_drift
        assert abs(decrease - ev.kinetic_energy) <= 10 * max(drift, 1e-14)

    def test_rejects_stationary_start(self):
        obj = quadratic_objective(np.diag([2.0, 5.0]), np.array([-2.0, -5.0]))
        with pytest.raises(ValueError, match="stationary"):
            mmd_restart_time(obj, np.ones(2))

    def test_needs_cap_information(self):
        # no strong convexity and no f_star: refuse rather than guess
        M, c = gen_logsumexp_instance(4, 10, 9)
        lse = logsumexp_objective(M, c, 1.0)
        with pytest.raises(ValueError, match="f_star"):
            mmd_restart_time(lse, np.ones(4))


class TestKineticMaxRestart:
    def test_1d_arrives_at_minimizer(self):
        for mu in (0.5, 1.0, 4.0):
            obj = quad_1d(mu)
            ev = kinetic_max_restart_time(obj, np.array([1.0]))
            assert ev is not None
            assert abs(obj.gradient(ev.x)[0]) <= 1e-6
            assert ev.time <= np.pi / (2 * np.sqrt(mu)) + 1e-6

    def test_1d_nonquadratic_strongly_convex(self):
        # f = mu x^2 / 2 + (cosh(x) - 1) has f'' >= mu + 1
        mu = 1.0
        obj = SmoothObjective(
            dim=1,
            value=lambda x: 0.5 * mu * x[0] ** 2 + np.cosh(x[0]) - 1.0,
            gradient=lambda x: np.array([mu * x[0] + np.sinh(x[0])]),
            lipschitz=mu + np.cosh(2.0),
            strong_convexity=mu + 1.0,
        )
        ev = kinetic_max_restart_time(obj, np.array([1.5]))
        assert ev is not None
        assert abs(obj.gradient(ev.x)[0]) <= 1e-6
        assert ev.time <= np.pi / (2 * np.sqrt(obj.strong_convexity)) + 1e-6

    def test_2d_incommensurate_frequencies(self):
        obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
        ev = kinetic_max_restart_time(obj, np.array([1.0, 1.0]), cap=50.0)
        assert ev is not None  # maxima exist
        assert np.linalg.norm(ev.x) > 1e-2  # but not at the minimizer

    def test_maxima_are_never_mean_dissipation_maxima(self):
        obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
        events = kinetic_energy_maxima(obj, np.array([1.0, 1.0]), horizon=25.0, dt=1e-3)
        assert len(events) >= 3
        for ev in events:
            g = obj.gradient(ev.x)
            ek_dot = -float(g @ ev.v)
            assert ev.time * ek_dot - ev.kinetic_energy < 0
            # at a kinetic maximum the test value collapses to -E_K
            assert ev.time * ek_dot - ev.kinetic_energy == pytest.approx(
                -ev.kinetic_energy, abs=1e-8
            )


class TestPiecewise:
    def test_minimizer_start_is_constant(self):
        obj = quadratic_objective(np.diag([2.0, 5.0]), np.array([-2.0, -5.0]))
        result = run_piecewise_conservative(obj, np.ones(2), n_restarts=3)
        assert len(result.trajectory.times) == 1
        assert len(result.segments) == 0

    def test_bounds_and_bookkeeping(self):
        obj = gen_random_quadratic(8, 0.1, 6.0, 11)
        x0 = np.random.default_rng(11).standard_normal(8)
        result = run_piecewise_conservative(obj, x0, n_restarts=4)
        assert len(result.segments) == 4
        assert all(r["pass"] for r in result.reports)
        traj = result.trajectory
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(traj.vs[0] == 0.0)
        event_times = {ev.time_abs for ev in traj.events}
        for t, v in zip(traj.times, traj.vs):
            if t in event_times:
                assert np.all(v == 0.0)

    def test_decrease_per_restart(self):
        obj = sc_nonquadratic(6, 777)
        x0 = np.random.default_rng(12).standard_normal(6)
        from scipy.optimize import minimize

        res = minimize(obj.value, x0, jac=obj.gradient, method="L-BFGS-B", tol=1e-14)
        result = run_piecewise_conservative(obj, x0, n_restarts=3, f_star=res.fun)
        mu, L = obj.strong_convexity, obj.lipschitz
        for seg in result.segments:
            lhs = seg["f_end"] - res.fun
            rhs = (seg["f_start"] - res.fun) / (1 + mu / L)
            assert lhs <= rhs + 1e-7 * abs(rhs)


    @pytest.mark.parametrize("cap_from", ["mu", "f_star"])
    def test_no_gradient_repeated_at_a_segment_start(self, cap_from):
        # Each segment start's gradient feeds the stationarity check, the cap
        # bootstrap and the Verlet scan; none of them evaluates it again.
        if cap_from == "mu":
            obj, f_star = quadratic_objective(np.diag([1.0, 3.0]), np.zeros(2)), None
            x0 = np.array([1.0, -0.5])
        else:
            M, c = gen_logsumexp_instance(4, 12, 21)
            obj, x0 = logsumexp_objective(M, c, 1.0), np.ones(4)
            from scipy.optimize import minimize

            f_star = minimize(obj.value, x0, jac=obj.gradient, method="L-BFGS-B", tol=1e-12).fun
        points = []

        def gradient(x, inner=obj.gradient):
            points.append(np.array(x))
            return inner(x)

        counted = replace(obj, gradient=gradient)
        result = run_piecewise_conservative(counted, x0, dt=0.01, n_restarts=3, f_star=f_star)
        assert len(result.segments) == 3
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
        # the exact oracle work of the flow, so a leaner step cannot do less
        assert len(points) == {"mu": 403, "f_star": 720}[cap_from]


class TestVisitingTime:
    def test_quadratic_quarter_period(self):
        t = visiting_time_1d(lambda y: 0.5 * y * y, 1.0, 0.0)
        assert t == pytest.approx(np.pi / 2, abs=1e-6)

    def test_quartic_lower_bound(self):
        for x0 in (0.1, 1.0, 10.0):
            t = visiting_time_1d(lambda y: 0.25 * y**4, x0, 0.0)
            assert t >= np.pi / (2 * x0)

    def test_strongly_convex_upper_bound(self):
        mu = 2.0
        f = lambda y: 0.5 * mu * y * y + np.cosh(y) - 1.0
        # the minimizer is 0; modulus of strong convexity is at least mu
        t = visiting_time_1d(f, 1.7, 0.0)
        assert t <= np.pi / (2 * np.sqrt(mu))

    def test_direction_symmetry(self):
        t_right = visiting_time_1d(lambda y: 0.5 * y * y, -1.0, 0.0)
        assert t_right == pytest.approx(np.pi / 2, abs=1e-6)

    def test_rejects_flat_start(self):
        with pytest.raises(ValueError, match="f'"):
            visiting_time_1d(lambda y: 0.25 * y**4, 0.0, 1.0)

    def test_rejects_energy_violation(self):
        # uphill from x0: f(y) exceeds f(x0) between x0 and the target
        with pytest.raises(ValueError, match="exceed"):
            visiting_time_1d(lambda y: 0.5 * y * y, 0.5, 2.0)


class TestFixedIntervalDecrease:
    def test_isotropic_case(self):
        rep = quadratic_fixed_interval_decrease([3.0, 3.0], [1.0, -2.0])
        assert rep["pass"]
        assert rep["ratio"] == pytest.approx(0.0, abs=1e-30)

    def test_two_frequency_case(self):
        rep = quadratic_fixed_interval_decrease([1.0, 4.0], [1.0, 1.0])
        assert rep["pass"]
        assert rep["cos_bound"] == pytest.approx(0.5)

    def test_random_spectra_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            lams = rng.uniform(0.03, 15.0, n)
            x0 = rng.standard_normal(n)
            assert quadratic_fixed_interval_decrease(lams, x0)["pass"]


class TestSmallTimeEnergy:
    def test_sandwich_on_random_instances(self):
        for seed in range(3):
            obj = gen_random_quadratic(6, 0.03, 15.0, 600 + seed)
            x0 = np.random.default_rng(seed).standard_normal(6)
            rep = small_time_energy_check(obj, x0)
            assert rep["pass"]

    def test_1d_closed_form_window(self):
        # mu = L = 1: E_K = sin^2(t)/2 and the window is t <= 1/2
        obj = quad_1d(1.0)
        rep = small_time_energy_check(obj, np.array([2.0]))
        assert rep["pass"]
        assert rep["horizon"] == pytest.approx(0.5)
        gsq = 4.0
        for t in np.linspace(0.01, 0.5, 20):
            ek = 0.5 * (2 * np.sin(t)) ** 2
            assert gsq * t * t / 8 <= ek <= 25 / 32 * gsq * t * t

    def test_degenerate_at_minimizer(self):
        obj = quadratic_objective(np.diag([2.0, 5.0]), np.array([-2.0, -5.0]))
        rep = small_time_energy_check(obj, np.ones(2))
        assert rep["status"] == "degenerate"


class TestFiniteRestartCap:
    def test_covers_actual_restart_time(self):
        obj = quad_1d(1.0)
        x0 = np.array([1.0])
        t1 = TAN_ROOT / 2
        _, _, ek1 = quadratic_closed_form([1.0], [1.0], t1)
        cap = finite_restart_cap(obj, x0, t1, ek1, 0.0)
        assert cap >= TAN_ROOT

    def test_zero_at_minimum(self):
        obj = quad_1d(1.0)
        assert finite_restart_cap(obj, np.array([0.0]), 0.5, 0.1, 0.0) == 0.0

    def test_rejects_zero_kinetic_energy(self):
        with pytest.raises(ValueError):
            finite_restart_cap(quad_1d(), np.array([1.0]), 0.5, 0.0, 0.0)

    def test_used_as_cap_for_non_strongly_convex(self):
        M, c = gen_logsumexp_instance(4, 12, 21)
        lse = logsumexp_objective(M, c, 1.0)
        from scipy.optimize import minimize

        x0 = np.ones(4)
        res = minimize(lse.value, x0, jac=lse.gradient, method="L-BFGS-B", tol=1e-12)
        ev = mmd_restart_time(lse, x0, f_star=res.fun)
        assert ev.time > 0
