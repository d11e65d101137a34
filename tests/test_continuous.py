import os
import subprocess
import sys
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

from consopt import continuous
from consopt.continuous import (
    _verlet,
    default_time_step,
    finite_restart_cap,
    integrate_conservative,
    kinetic_energy_maxima,
    kinetic_max_restart_time,
    mmd_restart_time,
    quadratic_closed_form,
    quadratic_fixed_interval_decrease,
    restart_time_lower_bound,
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

from oracles import TAN_ROOT, initial_dissipation_slope, mean_dissipation, mean_dissipation_root_1d


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

    @pytest.mark.parametrize("T, message", [
        (0.01, "T must exceed dt"), (-1.0, "T must exceed dt"), (np.nan, "T must exceed dt"),
        (np.inf, "T must be positive and finite"),
    ])
    def test_rejects_a_bad_horizon(self, T, message):
        obj = quad_1d()
        with pytest.raises(ValueError, match=message):
            integrate_conservative(obj, np.ones(1), np.zeros(1), 0.01, T)

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
    "small_time_energy_check": lambda obj, x0, dt: small_time_energy_check(obj, x0, dt=dt),
}


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(DT_ENTRY_POINTS))
def test_rejects_non_positive_dt(entry, dt):
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError, match="dt must be positive"):
        DT_ENTRY_POINTS[entry](obj, np.ones(2), dt)


def _bits(value):
    """``value`` with each number replaced by its float64 bytes and each
    array by its dtype, shape and bytes, through dataclasses, dicts and
    lists, so that outputs compare bit for bit whatever their scalar types."""
    if is_dataclass(value):
        return _bits(vars(value))
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value


def assert_numpy_dt_runs_as_its_float(dtype):
    """Each dt entry point at dt = np.<dtype>(0.01) gives the bits of its
    run at float(dt).  Every run is made before any is compared."""
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    dt = getattr(np, dtype)(0.01)
    runs = {name: (run(obj, np.ones(2), dt), run(obj, np.ones(2), float(dt))) for name, run in
            DT_ENTRY_POINTS.items()}
    for name, (got, want) in runs.items():
        assert _bits(got) == _bits(want), f"{name} at dt = np.{dtype}(0.01)"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_numpy_dt_runs_as_its_python_float(dtype):
    # In a child process with a time limit: a clock that cannot resolve the
    # event bracket would keep the bisection from ever stopping.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import test_continuous as t; " \
           "t.assert_numpy_dt_runs_as_its_float(sys.argv[2])"
    proc = subprocess.run([sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)), dtype],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_the_flow_clock_is_python_floats():
    obj = gen_random_quadratic(6, 0.1, 4.0, 3)
    assert type(default_time_step(obj)) is float
    result = run_piecewise_conservative(obj, np.random.default_rng([3, 1]).standard_normal(6), n_restarts=3)
    assert len(result.segments) == 3
    for ev in result.trajectory.events:
        assert {type(v) for v in (ev.time, ev.time_abs, ev.kinetic_energy, ev.f_value, ev.arc_length)} == {float}
    for seg in result.segments:
        assert type(seg.pop("segment")) is int and {type(v) for v in seg.values()} == {float}


RECORD_EVERY_ENTRY_POINTS = {
    "integrate_conservative": lambda obj, x0, k: integrate_conservative(obj, x0, np.zeros(2), 0.01, 1.0,
                                                                        record_every=k),
    "run_piecewise_conservative": lambda obj, x0, k: run_piecewise_conservative(obj, x0, record_every=k),
}


@pytest.mark.parametrize("record_every", [0, -8, 2.5])
@pytest.mark.parametrize("entry", sorted(RECORD_EVERY_ENTRY_POINTS))
def test_rejects_a_record_every_that_is_not_a_positive_int(entry, record_every):
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    calls = []
    counted = replace(obj, gradient=lambda x: calls.append(x) or obj.gradient(x))
    with pytest.raises(ValueError, match="record_every must be a positive integer"):
        RECORD_EVERY_ENTRY_POINTS[entry](counted, np.ones(2), record_every)
    assert calls == []


def _bad_flow_inputs():
    cap_entry_points = {"mmd_restart_time": mmd_restart_time, "kinetic_max_restart_time": kinetic_max_restart_time,
                        "run_piecewise_conservative": run_piecewise_conservative}
    for bad in (-1.0, 0.0, np.nan, np.inf):
        for name, run in cap_entry_points.items():
            yield pytest.param(lambda obj, x0, run=run, bad=bad: run(obj, x0, cap=bad),
                               "cap must be positive and finite", id=f"{name}-cap={bad}")
        yield pytest.param(lambda obj, x0, bad=bad: kinetic_energy_maxima(obj, x0, bad, dt=0.01),
                           "horizon must be positive and finite", id=f"kinetic_energy_maxima-horizon={bad}")
    for bad in (-1, 2.5):
        yield pytest.param(lambda obj, x0, bad=bad: run_piecewise_conservative(obj, x0, n_restarts=bad),
                           "n_restarts must be a non-negative integer",
                           id=f"run_piecewise_conservative-n_restarts={bad}")
    # positive and finite, but with a step count that overflows
    for name, run in cap_entry_points.items():
        yield pytest.param(lambda obj, x0, run=run: run(obj, x0, dt=1e-10, cap=1e300),
                           "cap / dt overflows", id=f"{name}-cap=1e300-dt=1e-10")
    yield pytest.param(lambda obj, x0: kinetic_energy_maxima(obj, x0, 1e300, dt=1e-10),
                       "horizon / dt overflows", id="kinetic_energy_maxima-horizon=1e300-dt=1e-10")


@pytest.mark.parametrize("call, message", _bad_flow_inputs())
def test_rejects_a_bad_cap_horizon_or_restart_count(call, message):
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    calls = []
    counted = replace(obj, gradient=lambda x: calls.append(x) or obj.gradient(x))
    with pytest.raises(ValueError, match=message):
        call(counted, np.ones(2))
    assert calls == []


@pytest.mark.parametrize("entry", [mmd_restart_time, kinetic_max_restart_time, run_piecewise_conservative])
def test_rejects_a_derived_cap_whose_step_count_overflows(entry):
    # 2 x 32 L / (mu sqrt(mu)) is about 2e6 here, and 2e311 steps of 1e-305
    obj = quadratic_objective(np.diag([1e-3, 1.0]), np.zeros(2))
    calls = []
    counted = replace(obj, gradient=lambda x: calls.append(x) or obj.gradient(x))
    with pytest.raises(ValueError, match="cap / dt overflows"):
        entry(counted, np.ones(2), dt=1e-305)
    assert calls == []


def test_zero_restarts_run_no_segment():
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    result = run_piecewise_conservative(obj, np.ones(2), n_restarts=np.int64(0))
    assert result.segments == [] and result.trajectory.events == []


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
            assert restart_time_lower_bound(mu, L) == np.sqrt(mu) / (8 * L)
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

    @pytest.mark.parametrize("entry", [mmd_restart_time, kinetic_max_restart_time, run_piecewise_conservative])
    def test_needs_cap_information(self, entry):
        # no strong convexity and no f_star: refuse rather than guess, and
        # before any oracle call
        M, c = gen_logsumexp_instance(4, 10, 9)
        lse = logsumexp_objective(M, c, 1.0)
        calls = []
        counted = replace(lse, gradient=lambda x: calls.append(x) or lse.gradient(x),
                          value=lambda x: calls.append(x) or lse.value(x))
        with pytest.raises(ValueError, match="f_star"):
            entry(counted, np.ones(4))
        assert calls == []

    @pytest.mark.parametrize("offset", [1.0, 0.0, np.nan])
    @pytest.mark.parametrize("entry", [mmd_restart_time, kinetic_max_restart_time, run_piecewise_conservative])
    def test_refuses_an_f_star_not_below_f(self, entry, offset):
        # the coercive cap (t1 / E_K(t1)) (f(x0) - f_star) needs a positive,
        # finite gap
        M, c = gen_logsumexp_instance(4, 12, 21)
        lse = logsumexp_objective(M, c, 1.0)
        x0 = np.ones(4)
        with pytest.raises(ValueError, match="f_star = .* must lie below f = "):
            entry(lse, x0, f_star=lse.value(x0) + offset)


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
    @pytest.mark.parametrize("cap", [None, 50.0])
    @pytest.mark.parametrize("offset", [1.0, 0.0, np.nan, -np.inf])
    def test_refuses_an_f_star_not_below_f_whatever_the_cap(self, offset, cap):
        # a strongly convex flow's cap is derived or given, never bootstrapped
        # from f_star, but its bound reports read their gaps from f_star
        obj = gen_random_quadratic(4, 0.2, 3.0, 1)
        x0 = np.ones(4)
        with pytest.raises(ValueError, match="f_star = .* must lie below f = "):
            run_piecewise_conservative(obj, x0, dt=0.01, n_restarts=2, f_star=obj.value(x0) + offset, cap=cap)

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
        calls = []  # ("g" or "f", point) in call order

        def gradient(x, inner=obj.gradient):
            calls.append(("g", np.array(x)))
            return inner(x)

        def value(x, inner=obj.value):
            calls.append(("f", np.array(x)))
            return inner(x)

        counted = replace(obj, gradient=gradient, value=value)
        result = run_piecewise_conservative(counted, x0, dt=0.01, n_restarts=3, f_star=f_star)
        assert len(result.segments) == 3
        points = [x for kind, x in calls if kind == "g"]
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
        # the exact oracle work of the flow, so a leaner step cannot do less
        assert len(points) == {"mu": 403, "f_star": 720}[cap_from]
        # "mu": f* once, f(x0) once, then f at the 36 samples between
        # restarts and at the 3 events.  "f_star": f(x0) and f at each
        # event; each cap takes f at its segment start from them.  Every
        # value but f* comes right after the gradient at the same point.
        values = [x for kind, x in calls if kind == "f"]
        served = [b[0] == "f" and a[0] == "g" and np.array_equal(a[1], b[1]) for a, b in zip(calls, calls[1:])]
        assert (len(values), sum(served)) == {"mu": (41, 40), "f_star": (4, 4)}[cap_from]
        if cap_from == "mu":
            assert len(result.trajectory.times) == 1 + 36 + 3


def test_refine_event_is_called_once_per_event(monkeypatch):
    # The benchmark's span tracer wraps continuous._refine_event by name to
    # count the bisection's gradient calls: renamed or inlined, they read 0.
    calls = []
    refine = continuous._refine_event
    monkeypatch.setattr(continuous, "_refine_event", lambda *args: calls.append(args) or refine(*args))
    obj, x0 = gen_random_quadratic(6, 0.1, 4.0, 3), np.random.default_rng([3, 1]).standard_normal(6)
    result = run_piecewise_conservative(obj, x0, n_restarts=3)
    assert len(result.segments) == 3 and len(calls) == 3
    calls.clear()
    events = kinetic_energy_maxima(quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2)), np.ones(2), 25.0,
                                   dt=1e-3)
    assert len(events) >= 3 and len(calls) == len(events)


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
        # f = x^2 / 2 from rest at x0 = 1, with f* = 0: the gap is 1/2
        t1 = TAN_ROOT / 2
        _, _, ek1 = quadratic_closed_form([1.0], [1.0], t1)
        cap = finite_restart_cap(t1, ek1, 0.5)
        assert cap >= TAN_ROOT

    def test_zero_at_minimum(self):
        assert finite_restart_cap(0.5, 0.1, 0.0) == 0.0

    def test_rejects_zero_kinetic_energy(self):
        with pytest.raises(ValueError):
            finite_restart_cap(0.5, 0.0, 0.5)

    def test_used_as_cap_for_non_strongly_convex(self):
        M, c = gen_logsumexp_instance(4, 12, 21)
        lse = logsumexp_objective(M, c, 1.0)
        from scipy.optimize import minimize

        x0 = np.ones(4)
        res = minimize(lse.value, x0, jac=lse.gradient, method="L-BFGS-B", tol=1e-12)
        calls = []
        counted = replace(lse, gradient=lambda x: calls.append("g") or lse.gradient(x),
                          value=lambda x: calls.append("f") or lse.value(x))
        ev = mmd_restart_time(counted, x0, f_star=res.fun)
        assert ev.time > 0
        # f(x0) for the cap, right after grad f(x0), and f at the event
        assert calls[:2] == ["g", "f"] and calls.count("f") == 2
