import numpy as np
import pytest

from consopt.composite import (
    fista_restart_run,
    fista_run,
    prox_l1,
    rcm_comp_run,
    sign_crossing_projection,
)
from consopt.discrete import DivergenceError, rcm_run
from consopt.objectives import (
    CompositeObjective,
    SmoothObjective,
    gen_logistic_instance,
    gen_random_quadratic,
    l1_weight_rule,
    logistic_objective,
    minimal_norm_subgradient,
    quadratic_objective,
)


def quad_l1(n=20, seed=0, gamma=None):
    smooth = gen_random_quadratic(n, 0.03, 15.0, seed)
    if gamma is None:
        gamma = l1_weight_rule("quadratic", smooth.b)
    return CompositeObjective(smooth=smooth, l1_weight=gamma)


def logistic_l1(n=50, m=200, seed=0):
    A, y, _ = gen_logistic_instance(n, m, seed)
    smooth = logistic_objective(A, y)
    gamma = l1_weight_rule("logistic", smooth.gradient(np.zeros(n)))
    return CompositeObjective(smooth=smooth, l1_weight=gamma)


class TestProxL1:
    def test_examples(self):
        assert prox_l1(np.array([2.0]), 0.5)[0] == pytest.approx(1.5)
        assert prox_l1(np.array([-0.3]), 0.5)[0] == 0.0
        z = np.array([1.5, -0.2, 0.0])
        assert np.array_equal(prox_l1(z, 0.0), z)

    def test_nonexpansive(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z1 = 5 * rng.standard_normal(8)
            z2 = 5 * rng.standard_normal(8)
            tau = float(rng.uniform(0, 3))
            lhs = np.linalg.norm(prox_l1(z1, tau) - prox_l1(z2, tau))
            assert lhs <= np.linalg.norm(z1 - z2) + 1e-12

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            prox_l1(np.ones(2), -0.1)

    def test_rejects_nan_tau(self):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            prox_l1(np.ones(2), np.nan)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.0])
    def test_bits_at_ties_and_signed_zeros(self, tau):
        # |z_i| == tau exactly, signed zeros and NaN, at widths that take
        # both the scalar and the vector ufunc loops, against the formula
        # on Python floats.
        z = np.array([tau, -tau, 0.0, -0.0, 1.25, -1.25, 3.0, -3.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        for width in (1, 3, len(z)):
            for i in range(0, len(z), width):
                zi = z[i:i + width]
                expected = np.sign(zi) * np.maximum(np.abs(zi) - tau, 0.0)
                assert prox_l1(zi, tau).tobytes() == expected.tobytes()


class TestSignCrossing:
    def test_crossed_coordinate_zeroed(self):
        x_proj, crossed = sign_crossing_projection(np.array([1.0, -1.0]), np.array([-0.5, -2.0]))
        assert crossed
        assert np.array_equal(x_proj, [0.0, -2.0])

    def test_no_crossing(self):
        x_proj, crossed = sign_crossing_projection(np.array([1.0, 1.0]), np.array([0.5, 2.0]))
        assert not crossed
        assert np.array_equal(x_proj, [0.5, 2.0])

    def test_zero_is_not_a_crossing(self):
        x_proj, crossed = sign_crossing_projection(np.array([0.0]), np.array([-3.0]))
        assert not crossed
        assert x_proj[0] == -3.0

    def test_zeroed_coordinates_are_exact(self):
        x_proj, _ = sign_crossing_projection(np.array([1e-30]), np.array([-1e-30]))
        assert x_proj[0] == 0.0 and np.copysign(1.0, x_proj[0]) == 1.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # 0 * inf
    def test_bits_at_signed_zeros_and_nan(self):
        # every pairing of signed zeros, NaN, infinities and a product that
        # underflows to -0.0, at widths that take both the scalar and the
        # vector ufunc loops, against the formula on Python floats.
        vals = [0.0, -0.0, 1.0, -2.0, 1e-200, -1e-200, np.nan, np.inf, -np.inf]
        old, new = (np.array(c, dtype=float) for c in zip(*[(a, b) for a in vals for b in vals]))
        for width in (1, 3, len(old)):
            for i in range(0, len(old), width):
                oi, ni = old[i:i + width], new[i:i + width]
                mask = oi * ni < 0.0
                x_proj, crossed = sign_crossing_projection(oi, ni)
                assert crossed == bool(mask.any())
                assert x_proj.tobytes() == np.where(mask, 0.0, ni).tobytes()


class TestRcmComp:
    @pytest.mark.parametrize("criterion", ["grad", "kin", "mmd-r", "mmd-dr"])
    def test_gamma_zero_reduces_to_smooth(self, criterion):
        smooth = gen_random_quadratic(12, 0.05, 8.0, 3)
        f = CompositeObjective(smooth=smooth, l1_weight=0.0)
        x0 = np.random.default_rng(3).standard_normal(12)
        h = 1.0 / np.sqrt(smooth.lipschitz)
        a = rcm_run(smooth, x0, h, criterion, 250, keep_iterates=True)
        b = rcm_comp_run(f, x0, h, criterion, 250, keep_iterates=True)
        for col in ("fvals", "residuals", "restarts", "xs", "vs", "x", "v"):
            assert getattr(a, col).tobytes() == getattr(b, col).tobytes(), col
        assert a.crossings is None
        assert b.crossings.dtype == bool and len(b.crossings) == len(b) and not b.crossings.any()

    def test_first_crossing_zeroes_iterate_and_velocity(self):
        smooth = quadratic_objective(np.array([[1.0]]), np.zeros(1))
        f = CompositeObjective(smooth=smooth, l1_weight=0.3)
        trace = rcm_comp_run(f, np.array([5.0]), 0.9, "grad", 60, keep_iterates=True)
        crossings = np.flatnonzero(trace.crossings)
        assert len(crossings) >= 1
        k = crossings[0]
        assert trace.xs[k][0] == 0.0

    def test_crossing_resets_whole_velocity(self):
        # 2D: only one coordinate crosses, but v is reset entirely, so the
        # next step from the crossing point is a pure rest step
        smooth = quadratic_objective(np.diag([1.0, 1.0]), np.zeros(2))
        f = CompositeObjective(smooth=smooth, l1_weight=0.2)
        trace = rcm_comp_run(f, np.array([4.0, 0.02]), 0.9, "grad", 80, keep_iterates=True)
        ks = np.flatnonzero(trace.crossings)
        assert len(ks) >= 1
        k = ks[0]
        x_cross = trace.xs[k]
        d = minimal_norm_subgradient(f, x_cross)
        h = trace.step
        expected, _ = sign_crossing_projection(x_cross, x_cross - h * h * d)
        assert np.allclose(trace.xs[k + 1], expected)

    def test_logistic_l1_converges(self):
        f = logistic_l1()
        L = f.smooth.lipschitz
        trace = rcm_comp_run(f, np.zeros(50), 1.0 / np.sqrt(L), "grad", 5000)
        assert np.any(trace.residuals <= 1e-6)

    def test_divergence_guard(self):
        f = quad_l1(n=5, seed=1)
        with pytest.raises(Exception, match="diverged"):
            rcm_comp_run(f, np.ones(5), 50.0, "grad", 500)


def reference_accelerated_no_prox(smooth, x0, s, max_iter):
    """FISTA recurrence with the prox dropped: the smooth counterpart."""
    x = np.array(x0, dtype=float)
    y = x.copy()
    t = 1.0
    fvals = [smooth.value(x)]
    for _ in range(max_iter):
        x_prev = x
        x = y - s * smooth.gradient(y)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        fvals.append(smooth.value(x))
    return np.array(fvals)


class TestFista:
    def test_t_sequence_start(self):
        t1 = 1.0
        t2 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t1 * t1))
        assert t2 == pytest.approx((1 + np.sqrt(5)) / 2)

    def test_gamma_zero_matches_smooth_accelerated(self):
        smooth = gen_random_quadratic(10, 0.05, 6.0, 5)
        f = CompositeObjective(smooth=smooth, l1_weight=0.0)
        x0 = np.random.default_rng(5).standard_normal(10)
        s = 1.0 / smooth.lipschitz
        trace = fista_run(f, x0, s, 120)
        ref = reference_accelerated_no_prox(smooth, x0, s, 120)
        assert np.array_equal(trace.fvals, ref)

    def test_objective_not_monotone_on_quad_l1(self):
        f = quad_l1(n=40, seed=2)
        x0 = np.random.default_rng(2).standard_normal(40)
        trace = fista_run(f, x0, 1.0 / f.smooth.lipschitz, 1500)
        assert np.any(np.diff(trace.fvals) > 0)

    def test_row_count(self):
        f = quad_l1(n=5, seed=3)
        trace = fista_run(f, np.zeros(5), 1.0 / f.smooth.lipschitz, 37)
        assert len(trace) == 38
        # FISTA has no velocity and never crosses by projection.
        assert trace.v is None and trace.crossings is None


class TestFistaRestart:
    def test_stationary_start_never_restarts(self):
        # at the composite minimizer x stays put, so the restart product is 0
        f = quad_l1(n=8, seed=7)
        s = 1.0 / f.smooth.lipschitz
        long = fista_restart_run(f, np.zeros(8), s, 4000)
        x_star = long.x
        trace = fista_restart_run(f, x_star, s, 50)
        assert trace.restarts.sum() == 0

    def test_linear_convergence_gamma_zero(self):
        smooth = gen_random_quadratic(30, 0.05, 8.0, 8)
        f = CompositeObjective(smooth=smooth, l1_weight=0.0)
        x0 = np.random.default_rng(8).standard_normal(30)
        f_star = smooth.value(np.linalg.solve(smooth.A, -smooth.b))
        trace = fista_restart_run(f, x0, 1.0 / smooth.lipschitz, 600)
        gaps = trace.fvals - f_star
        # fit the decay before the gap hits the floating point floor
        window = gaps > 1e-12 * gaps[0]
        logg = np.log(gaps[window])
        slope = np.polyfit(np.arange(len(logg)), logg, 1)[0]
        assert slope < -1e-3
        assert gaps[-1] <= 1e-12 * gaps[0]

    def test_restart_beats_plain_fista_on_quad_l1(self):
        f = quad_l1(n=200, seed=9)
        x0 = np.random.default_rng(9).standard_normal(200)
        s = 1.0 / f.smooth.lipschitz
        plain = fista_run(f, x0, s, 4000)
        restarted = fista_restart_run(f, x0, s, 4000)
        def first_below(tr, tol=1e-6):
            ok = tr.residuals <= tol
            return np.argmax(ok) if ok.any() else 10**9
        assert first_below(restarted) < first_below(plain)


class TestFixedPoint:
    def test_residuals_vanish_together(self):
        f = quad_l1(n=30, seed=10)
        x0 = np.random.default_rng(10).standard_normal(30)
        s = 1.0 / f.smooth.lipschitz
        trace = fista_restart_run(f, x0, s, 6000)
        x = trace.x
        prox_residual = np.linalg.norm(x - prox_l1(x - s * f.smooth.gradient(x), s * f.l1_weight))
        sub_residual = np.linalg.norm(minimal_norm_subgradient(f, x))
        assert prox_residual <= 1e-8
        assert sub_residual <= 1e-8

    def test_converged_iterate_sparse_coordinates_exact_zero(self):
        f = quad_l1(n=30, seed=10)
        x0 = np.random.default_rng(10).standard_normal(30)
        trace = fista_restart_run(f, x0, 1.0 / f.smooth.lipschitz, 6000)
        x = trace.x
        assert np.any(x == 0.0)  # the l1 weight rule keeps some sparsity


@pytest.mark.parametrize("run", [
    lambda f, x0: rcm_comp_run(f, x0, 0.5, "grad", 20),
    lambda f, x0: fista_run(f, x0, 0.5, 20),
], ids=["rcm-comp", "fista"])
def test_nan_gradient_at_zero_coordinate_reaches_divergence_check(run):
    # g(x) = |x - 1|^2 / 2, with a gradient that is NaN wherever x_i == 0.
    # The second coordinate reaches exactly 0 after one step (a sign crossing
    # for rcm-comp, a soft threshold for FISTA), and the NaN that the
    # minimal-norm subgradient returns there must stop the run.
    smooth = SmoothObjective(
        value=lambda x: 0.5 * float((x - 1.0) @ (x - 1.0)),
        gradient=lambda x: np.where(x == 0.0, np.nan, x - 1.0),
        lipschitz=1.0,
    )
    f = CompositeObjective(smooth=smooth, l1_weight=2.0)
    with pytest.raises(DivergenceError, match=r"diverged at iteration 1 \(f = [^,]+, residual = nan\)") as info:
        run(f, np.array([2.0, -0.3]))
    assert info.value.partial_trace.x[1] == 0.0
