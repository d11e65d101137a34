import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit, logsumexp, softmax

from consopt.composite import fista_restart_run
from consopt.objectives import (
    _exp_neg_abs,
    _quadratic_min_value,
    _shared_product,
    _sigmoid_neg,
    CompositeObjective,
    QuadraticObjective,
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

from oracles import brute_force_min_subgradient, fd_gradient, gram_lambda_max_mp, max_ulps


def small_instances(seed=0):
    quad = gen_random_quadratic(8, 0.03, 15.0, seed)
    A, y, _ = gen_logistic_instance(6, 20, seed)
    M, c = gen_logsumexp_instance(6, 20, seed)
    return [quad, logistic_objective(A, y), logsumexp_objective(M, c, 1.0)]


class TestQuadratic:
    def test_identity_case(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        x = np.array([3.0, 4.0])
        assert obj.value(x) == pytest.approx(12.5)
        assert np.allclose(obj.gradient(x), [3.0, 4.0])

    def test_eigen_range_constants(self):
        obj = quadratic_objective(np.diag([0.03, 15.0]), np.zeros(2))
        assert obj.lipschitz == pytest.approx(15.0)
        assert obj.strong_convexity == pytest.approx(0.03)

    def test_minimizer_gradient(self):
        obj = quadratic_objective(np.diag([2.0, 5.0]), np.array([-2.0, -5.0]))
        assert np.allclose(obj.gradient(np.ones(2)), 0.0)

    def test_rejects_asymmetric(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            quadratic_objective(A, np.zeros(2))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_symmetry_tolerance_is_relative_1e_12(self, scale):
        # A is exactly symmetric, or accepted within 1e-12 of max(1, |A|max)
        # and refused beyond it; the accepted one keeps eigvalsh's constants
        A = scale * np.array([[3.0, 1.0], [1.0, 2.0]])
        tol = 1e-12 * 3.0 * scale
        for off, accepted in ((0.0, True), (0.5 * tol, True), (0.9 * tol, True), (2.0 * tol, False), (1e-3 * scale, False)):
            B = A.copy()
            B[1, 0] += off
            if accepted:
                obj = quadratic_objective(B, np.zeros(2))
                evals = np.linalg.eigvalsh(B)
                assert (obj.strong_convexity, obj.lipschitz) == (float(evals[0]), float(evals[-1]))
                assert obj.A is B
            else:
                with pytest.raises(ValueError, match="^A is not symmetric$"):
                    quadratic_objective(B, np.zeros(2))

    def test_a_negative_entry_sets_the_symmetry_scale(self):
        # |A|max is 1e6 from the off-diagonal; an asymmetry of 1e-7 lies
        # within 1e-12 of it, so A is refused only as indefinite
        A = np.array([[1.0, -1e6], [-1e6 + 1e-7, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            quadratic_objective(A, np.zeros(2))
        A[1, 0] = -1e6 + 1e-5
        with pytest.raises(ValueError, match="^A is not symmetric$"):
            quadratic_objective(A, np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            quadratic_objective(np.diag([1.0, -0.5]), np.zeros(2))

    @pytest.mark.parametrize("A, b, name", [
        ([[math.inf]], [0.0], "A"),
        ([[1.0, 0.0], [0.0, -math.inf]], [0.0, 0.0], "A"),
        ([[1.0, math.nan], [math.nan, 1.0]], [0.0, 0.0], "A"),
        ([[2.0, 0.0], [0.0, math.nan]], [0.0, 0.0], "A"),
        (np.eye(2), [0.0, math.nan], "b"),
        (np.eye(2), [-math.inf, 0.0], "b"),
    ])
    def test_rejects_non_finite_data(self, A, b, name):
        # [[inf]] was accepted with L = inf, a NaN in b with f NaN
        # everywhere, and a NaN in A refused as "lipschitz must be positive"
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry"):
            quadratic_objective(A, b)

    def test_rejects_an_empty_matrix_before_eigvalsh(self, monkeypatch):
        # NumPy's "zero-size array to reduction operation maximum" before
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigvalsh called"))
        with pytest.raises(ValueError, match="^A must be a non-empty square matrix$"):
            quadratic_objective(np.zeros((0, 0)), np.zeros(0))

    def test_rejects_a_non_finite_lipschitz_bound(self):
        for lipschitz in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="lipschitz must be positive and finite"):
                SmoothObjective(value=sum, gradient=np.asarray, lipschitz=lipschitz)

    def test_min_value_of_a_singular_quadratic_comes_from_least_squares(self):
        # quadratic_objective refuses a singular A, so only a directly built
        # QuadraticObjective reaches the fallback: LU meets the exact zero
        # pivot of diag(1, 0), and b lies in A's range, so f is bounded
        # below and its minimum is the value at the refined least-squares
        # point (-2, 0).
        A, b = np.diag([1.0, 0.0]), np.array([2.0, 0.0])
        value, gradient = _shared_product(A.dot, lambda x, Ax: 0.5 * float(x.dot(Ax)) + float(b.dot(x)),
                                          lambda x, Ax: Ax + b)
        obj = QuadraticObjective(value=value, gradient=gradient, lipschitz=1.0, A=A, b=b)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, -b)
        x = np.linalg.lstsq(A, -b, rcond=None)[0]
        x = x + np.linalg.lstsq(A, -b - A @ x, rcond=None)[0]
        assert x.tolist() == [-2.0, 0.0]
        assert _quadratic_min_value(obj) == obj.value(x) == -2.0


class TestRandomQuadratic:
    def test_degenerate_interval(self):
        obj = gen_random_quadratic(1, 3.5, 3.5, 0)
        assert obj.A.shape == (1, 1)
        assert obj.A[0, 0] == pytest.approx(3.5)

    def test_eigenvalues_within_range(self):
        obj = gen_random_quadratic(1000, 0.03, 15.0, 12345)
        lo, hi = obj.strong_convexity, obj.lipschitz
        assert lo >= 0.03 - 1e-9
        assert hi <= 15.0 + 1e-9

    def test_determinism(self):
        a = gen_random_quadratic(30, 0.03, 15.0, 7)
        b = gen_random_quadratic(30, 0.03, 15.0, 7)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            gen_random_quadratic(5, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            gen_random_quadratic(5, 2.0, 1.0, 0)

    @pytest.mark.parametrize("n", [1, 8, 50, 200, 1000])
    def test_matrix_starts_on_a_64_byte_boundary(self, n):
        # where BLAS products run fastest; NumPy's own block would sit at
        # the heap's offset for small n and 16 bytes past a page for the
        # mmap-served large ones.  The bits are 0.5 (M + M') of the stream.
        # b starts on the boundary too, with the stream's bits.
        obj = gen_random_quadratic(n, 0.03, 15.0, n)
        assert obj.A.ctypes.data % 64 == 0 and obj.A.flags.c_contiguous
        assert obj.b.ctypes.data % 64 == 0 and obj.b.flags.c_contiguous
        rng = np.random.default_rng(n)
        evals = rng.uniform(0.03, 15.0, size=n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = (Q * evals) @ Q.T
        assert obj.A.tobytes() == (0.5 * (M + M.T)).tobytes()
        assert obj.b.tobytes() == rng.standard_normal(n).tobytes()


class TestLogistic:
    def test_value_at_origin(self):
        A, y, _ = gen_logistic_instance(5, 12, 3)
        obj = logistic_objective(A, y)
        assert obj.value(np.zeros(5)) == pytest.approx(12 * np.log(2.0))

    def test_gradient_at_origin(self):
        A, y, _ = gen_logistic_instance(5, 12, 3)
        obj = logistic_objective(A, y)
        expected = A @ (0.5 - y)
        assert np.allclose(obj.gradient(np.zeros(5)), expected, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        A, y, _ = gen_logistic_instance(6, 25, 5)
        obj = logistic_objective(A, y)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(6)
            g = obj.gradient(x)
            g_fd = fd_gradient(obj.value, x)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_no_overflow_far_out(self):
        A, y, _ = gen_logistic_instance(4, 10, 1)
        obj = logistic_objective(A, y)
        x = 1e4 * np.ones(4)
        assert np.isfinite(obj.value(x))
        assert np.all(np.isfinite(obj.gradient(x)))

    def test_value_takes_the_loss_limit_at_infinite_margins(self):
        # t = A'x = (inf, -inf): both samples on their label's side cost 0,
        # and both on the wrong side cost inf, where (1 - y) t would give NaN.
        obj = logistic_objective(np.array([[1.0, -1.0]]), np.array([1.0, 0.0]))
        assert obj.value(np.array([np.inf])) == 0.0
        assert obj.value(np.array([-np.inf])) == np.inf

    def test_rejects_bad_labels(self):
        A = np.ones((2, 3))
        with pytest.raises(ValueError, match="0, 1"):
            logistic_objective(A, np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="length"):
            logistic_objective(A, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="0, 1"):
            logistic_objective(A, np.array([0.0, math.nan, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    def test_rejects_a_non_finite_sample_matrix(self, bad):
        # 1e200 is finite, but its square overflows the Gram matrix
        A = np.ones((2, 3))
        A[1, 2] = bad
        with pytest.raises(ValueError, match="^A has a non-finite entry or A A' overflows"), np.errstate(over="ignore"):
            logistic_objective(A, np.array([0.0, 1.0, 1.0]))

    def test_rejects_a_matrix_with_no_rows_before_eigvalsh(self, monkeypatch):
        # an IndexError from eigvalsh of the 0 x 0 Gram before
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigvalsh called"))
            with pytest.raises(ValueError, match="^A has no rows$"):
                logistic_objective(np.zeros((0, 3)), np.zeros(3))
        # no columns: G = 0, and the Lipschitz field is kept positive
        assert logistic_objective(np.zeros((3, 0)), np.zeros(0)).lipschitz == np.finfo(float).tiny


# The (n, m, seed) of every logistic instance that the tests draw, besides
# seeds below 2000 at 50 x 200.
TESTED_LOGISTIC_INSTANCES = [
    (1, 7, 3), (4, 10, 1), (5, 12, 3), (6, 15, 0), (6, 20, 0), (6, 20, 1), (6, 25, 5), (7, 31, 9), (8, 3, 4),
    (8, 16, 8), (8, 20, 3), (8, 20, 4), (8, 25, 0), (8, 30, 2), (10, 30, 0), (10, 30, 1), (10, 30, 5), (10, 30, 6),
    (10, 40, 11), (20, 60, 4), (20, 60, 5), (50, 200, 70031), (100, 500, 0), (200, 400, 200),
    *[(100, 400, seed) for seed in range(10)],
]


class TestLogisticGenerator:
    def test_shapes_and_labels(self):
        A, y, x_true = gen_logistic_instance(7, 31, 9)
        assert A.shape == (7, 31)
        assert y.shape == (31,)
        assert x_true.shape == (7,)
        assert np.all((y == 0.0) | (y == 1.0))

    def test_reference_sizes(self):
        A, y, x_true = gen_logistic_instance(100, 500, 0)
        assert A.shape == (100, 500)
        assert len(y) == 500

    def test_determinism(self):
        a = gen_logistic_instance(10, 40, 11)
        b = gen_logistic_instance(10, 40, 11)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_labels_are_scipy_expit_draws(self):
        # The labels are u < expit(A' x_true) with SciPy's expit, on seeds
        # 0-1999 at the benchmark's 50 x 200 and on every other instance
        # the tests draw, so a change of the sigmoid's formula moves no
        # instance.
        cases = [(50, 200, seed) for seed in range(2000)] + TESTED_LOGISTIC_INSTANCES
        for n, m, seed in cases:
            A, y, x_true = gen_logistic_instance(n, m, seed)
            rng = np.random.default_rng(seed)
            assert np.array_equal(0.1 * rng.standard_normal(n), x_true)
            assert np.array_equal(rng.standard_normal((n, m)), A)
            u = rng.uniform(size=m)
            assert np.array_equal(y, (u < expit(A.T @ x_true)).astype(float)), (n, m, seed)

    def test_sample_matrices_start_on_64_byte_boundaries(self):
        # where BLAS products run fastest; the draws are pinned above and
        # by the golden digests
        for n in range(5, 13):
            for M in (gen_logistic_instance(n, 7, n)[0], gen_logsumexp_instance(n, 7, n)[0]):
                assert M.ctypes.data % 64 == 0 and M.flags.c_contiguous


class TestLogSumExp:
    def test_uniform_softmax(self):
        obj = logsumexp_objective(np.zeros((4, 9)), np.zeros(9), 2.0)
        assert obj.value(np.ones(4)) == pytest.approx(2.0 * np.log(9.0))
        assert np.allclose(obj.gradient(np.ones(4)), 0.0)

    def test_gradient_is_convex_combination(self):
        A, b = gen_logsumexp_instance(5, 30, 2)
        obj = logsumexp_objective(A, b, 1.0)
        col_norm_max = np.linalg.norm(A, axis=0).max()
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = obj.gradient(rng.standard_normal(5) * 10)
            assert np.linalg.norm(g) <= col_norm_max + 1e-12

    def test_gradient_matches_finite_differences(self):
        A, b = gen_logsumexp_instance(6, 20, 8)
        obj = logsumexp_objective(A, b, 1.0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal(6)
            g = obj.gradient(x)
            g_fd = fd_gradient(obj.value, x)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError, match="rho"):
            logsumexp_objective(np.ones((2, 3)), np.zeros(3), 0.0)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_rejects_a_non_finite_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            logsumexp_objective(np.ones((2, 3)), np.zeros(3), rho)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_data(self, bad):
        A, b = np.ones((2, 3)), np.zeros(3)
        b[1] = bad
        with pytest.raises(ValueError, match="^b has a non-finite entry"):
            logsumexp_objective(A, b, 1.0)
        A[0, 1] = bad
        with pytest.raises(ValueError, match="^A has a non-finite entry or A A' overflows"):
            logsumexp_objective(A, np.zeros(3), 1.0)

    def test_rejects_a_matrix_with_no_rows_before_eigvalsh(self, monkeypatch):
        # an IndexError from eigvalsh of the 0 x 0 Gram before
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigvalsh called"))
            with pytest.raises(ValueError, match="^A has no rows$"):
                logsumexp_objective(np.zeros((0, 3)), np.zeros(3), 1.0)
        assert logsumexp_objective(np.zeros((3, 0)), np.zeros(0), 1.0).lipschitz == np.finfo(float).tiny

    def test_rejects_a_matrix_whose_gram_overflows(self):
        with pytest.raises(ValueError, match="^A has a non-finite entry or A A' overflows"), np.errstate(over="ignore"):
            logsumexp_objective(np.array([[1.0, 1e200], [0.0, 1.0]]), np.zeros(2), 1.0)


def _clip_subgradient(g, x, gamma):
    """The minimal-norm subgradient from a given gradient, as a masked update
    through ``np.clip`` and ``np.any``: the reference for bit equality."""
    out = g + gamma * np.sign(x)
    zero = x == 0.0
    if np.any(zero):
        gz = g[zero]
        out[zero] = gz - np.clip(gz, -gamma, gamma)
    return out


def _given_gradient(g, gamma):
    """A composite whose smooth gradient is ``g`` at every point."""
    g = np.array(g, dtype=float)
    smooth = SmoothObjective(value=lambda x: 0.0, gradient=lambda x: g.copy(), lipschitz=1.0)
    return CompositeObjective(smooth=smooth, l1_weight=gamma)


class TestCompositeValue:
    def test_value_is_a_python_float_with_the_formula_bits(self):
        rng = np.random.default_rng(3)
        for smooth in small_instances(3):
            n = smooth.A.shape[0]
            f = CompositeObjective(smooth=smooth, l1_weight=l1_weight_rule("logistic", rng.standard_normal(n)))
            for x in (np.zeros(n), rng.standard_normal(n), np.r_[-0.0, 1e-300, -np.ones(n - 2)]):
                v = f.value(x)
                assert type(v) is float
                # the formula's IEEE operations, in NumPy scalars
                expected = smooth.value(x) + f.l1_weight * np.add.reduce(np.abs(x))
                assert v.hex() == float(expected).hex()


class TestMinimalNormSubgradient:
    def _composite_with_gradient(self, g, x, gamma):
        n = len(g)
        smooth = quadratic_objective(np.eye(n), np.asarray(g, float) - np.asarray(x, float))
        return CompositeObjective(smooth=smooth, l1_weight=gamma)

    def test_zero_in_subdifferential(self):
        f = self._composite_with_gradient([0.0], [0.0], 1.0)
        assert minimal_norm_subgradient(f, np.array([0.0])) == pytest.approx(0.0)

    def test_sign_rule_away_from_zero(self):
        f = self._composite_with_gradient([3.0], [2.0], 1.0)
        assert minimal_norm_subgradient(f, np.array([2.0]))[0] == pytest.approx(4.0)

    def test_soft_threshold_matches_brute_force(self):
        for g, expected in [(2.5, 1.5), (0.4, 0.0)]:
            oracle = brute_force_min_subgradient(g, 1.0)
            assert oracle == pytest.approx(expected, abs=2e-6)
            f = self._composite_with_gradient([g], [0.0], 1.0)
            got = minimal_norm_subgradient(f, np.array([0.0]))[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_minimality_and_membership(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            x = rng.standard_normal(n) * rng.integers(0, 2, n)
            g = 3 * rng.standard_normal(n)
            gamma = float(rng.uniform(0.05, 2.5))
            f = self._composite_with_gradient(g, x, gamma)
            d = minimal_norm_subgradient(f, x)
            r = d - g
            nz = x != 0
            assert np.allclose(r[nz], gamma * np.sign(x[nz]))
            assert np.all(np.abs(r[~nz]) <= gamma + 1e-12)
            v = g + np.where(nz, gamma * np.sign(x), rng.uniform(-gamma, gamma, n))
            assert np.linalg.norm(d) <= np.linalg.norm(v) + 1e-12

    def test_bits_on_logistic_l1_iterates(self):
        A, y, _ = gen_logistic_instance(50, 200, 3)
        smooth = logistic_objective(A, y)
        gamma = l1_weight_rule("logistic", smooth.gradient(np.zeros(50)))
        f = CompositeObjective(smooth=smooth, l1_weight=gamma)
        xs = fista_restart_run(f, np.zeros(50), 1.0 / smooth.lipschitz, 60, keep_iterates=True).xs
        assert (xs == 0.0).mean() > 0.5
        for x in xs:
            got = minimal_norm_subgradient(f, x)
            assert got.tobytes() == _clip_subgradient(smooth.gradient(x), x, gamma).tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_bits_at_ties_and_signed_zeros(self, gamma):
        # |g_i| == gamma exactly, g_i = +-0 and x_i = +-0, in every pairing,
        # at widths that take both the scalar and the vector ufunc loops.
        g_vals = [gamma, -gamma, 0.0, -0.0, 1.25, -1.25, 3.0, -3.0, np.nan, np.inf, -np.inf]
        x_vals = [0.0, -0.0, 1.0, -2.0, np.nan]
        g, x = (np.array(c, dtype=float) for c in zip(*[(a, b) for a in g_vals for b in x_vals]))
        for width in (1, 3, len(g)):
            for i in range(0, len(g), width):
                gi, xi = g[i:i + width], x[i:i + width]
                got = minimal_norm_subgradient(_given_gradient(gi, gamma), xi)
                assert got.tobytes() == _clip_subgradient(gi.copy(), xi, gamma).tobytes()


class TestL1WeightRule:
    def test_quadratic_rule(self):
        assert l1_weight_rule("quadratic", [4.0, -8.0, 2.0]) == pytest.approx(2.0)

    def test_logistic_rule(self):
        assert l1_weight_rule("logistic", [1.0, -3.0]) == pytest.approx(1.5)

    def test_zero_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            l1_weight_rule("quadratic", np.zeros(3))


class TestLipschitzConstant:
    def test_quadratic_diagonal(self):
        obj = quadratic_objective(np.diag([2.0, 7.0]), np.zeros(2))
        assert obj.lipschitz == pytest.approx(7.0, rel=1e-7)

    def test_logistic_identity(self):
        obj = logistic_objective(np.eye(3), np.array([0.0, 1.0, 0.0]))
        assert obj.lipschitz == pytest.approx(0.25, rel=1e-7)

    def test_logsumexp_identity(self):
        obj = logsumexp_objective(np.eye(3), np.zeros(3), 2.0)
        assert obj.lipschitz == pytest.approx(0.5, rel=1e-7)

    @pytest.mark.parametrize("n, m, seed", [(50, 200, 10000), (50, 200, 10001), (50, 200, 10002), (6, 20, 0),
                                            (1, 7, 3), (8, 3, 4)])
    def test_certified_bound_lies_above_the_exact_lambda_max(self, n, m, seed):
        # 4 L and rho L are at or above lambda_max(A A') of the exact Gram
        # at 30 digits, at the benchmark's size and at a few small ones,
        # m < n included, where A A' is singular.
        A, y, _ = gen_logistic_instance(n, m, seed)
        lam_max = gram_lambda_max_mp(A)
        assert 4 * mpmath.mpf(logistic_objective(A, y).lipschitz) >= lam_max
        for rho in (1.0, 0.7, 3.0):
            assert mpmath.mpf(logsumexp_objective(A, np.zeros(m), rho).lipschitz) * rho >= lam_max

    @pytest.mark.parametrize("A, lam_max", [(np.eye(3), 1), (np.ones((3, 5)), 15), (np.diag([2.0, 0.5]), 4),
                                            (np.array([[3.0, 4.0]]), 25)])
    def test_certified_bound_on_matrices_with_a_known_lambda_max(self, A, lam_max):
        L = logistic_objective(A, np.zeros(A.shape[1])).lipschitz
        assert 0.25 * lam_max < L <= 0.25 * lam_max * (1.0 + 1e-13)

    def test_certified_bound_is_within_1e_11_of_eigvalsh(self):
        # On the 60 logistic instances of the benchmark's seed 1 (base seeds
        # 10000-10059, n = 50, m = 200) the bound lies 7.2e-13 to 8.3e-13
        # relative above eigvalsh(A A'), and on the 20 x 80 log-sum-exp
        # seeds 0-9 1.2e-13 to 1.4e-13.
        for seed in range(10000, 10060):
            A, y, _ = gen_logistic_instance(50, 200, seed)
            lam_max = np.linalg.eigvalsh(A @ A.T)[-1]
            assert lam_max < 4.0 * logistic_objective(A, y).lipschitz <= lam_max * (1.0 + 1e-11)
        for seed in range(10):
            A, b = gen_logsumexp_instance(20, 80, seed)
            lam_max = np.linalg.eigvalsh(A @ A.T)[-1]
            assert lam_max < logsumexp_objective(A, b, 1.0).lipschitz <= lam_max * (1.0 + 1e-11)

    def test_a_zero_matrix_gives_the_smallest_normal_lipschitz_bound(self):
        tiny = np.finfo(float).tiny
        assert logistic_objective(np.zeros((3, 4)), np.ones(4)).lipschitz == tiny
        assert logsumexp_objective(np.zeros((3, 4)), np.zeros(4), 0.5).lipschitz == tiny


class TestSharedInvariants:
    def test_gradient_consistency_sweep(self):
        rng = np.random.default_rng(0)
        for obj in small_instances():
            for _ in range(20):
                x = rng.standard_normal(obj.A.shape[0])
                g = obj.gradient(x)
                g_fd = fd_gradient(obj.value, x)
                err = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
                assert err <= 1e-4

    def test_gradient_lipschitz_spot_check(self):
        rng = np.random.default_rng(1)
        for obj in small_instances(seed=1):
            for _ in range(20):
                x = rng.standard_normal(obj.A.shape[0])
                y = rng.standard_normal(obj.A.shape[0])
                lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
                assert lhs <= obj.lipschitz * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_pl_inequality(self):
        obj = gen_random_quadratic(10, 0.03, 15.0, 21)
        mu = obj.strong_convexity
        f_star = obj.value(np.linalg.solve(obj.A, -obj.b))
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = 3 * rng.standard_normal(10)
            gap = obj.value(x) - f_star
            assert gap <= np.linalg.norm(obj.gradient(x)) ** 2 / (2 * mu) * (1 + 1e-9)

    def test_mu_not_above_lipschitz(self):
        with pytest.raises(ValueError, match="strong_convexity"):
            SmoothObjective(value=lambda x: 0.0, gradient=lambda x: x, lipschitz=1.0, strong_convexity=2.0)

    @pytest.mark.parametrize("mu", [0.0, -1.0, np.nan])
    def test_no_modulus_is_spelled_none(self, mu):
        # The flow would read 0 and NaN as no modulus, and a NaN would reach
        # NAG-SC's momentum; None is the only way to say it.
        with pytest.raises(ValueError, match="strong_convexity must be None or positive"):
            SmoothObjective(value=lambda x: 0.0, gradient=lambda x: x, lipschitz=1.0, strong_convexity=mu)


FAMILIES = {
    "quadratic": lambda: gen_random_quadratic(8, 0.03, 15.0, 0),
    "logistic": lambda: logistic_objective(*gen_logistic_instance(6, 20, 0)[:2]),
    "logsumexp": lambda: logsumexp_objective(*gen_logsumexp_instance(6, 20, 0), 0.7),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestSharedProduct:
    """``value`` reuses the product of the last ``gradient`` at the same
    point and must return exactly what it returns without that reuse."""

    def points(self, dim, k=10, seed=3):
        return list(np.random.default_rng(seed).standard_normal((k, dim)))

    def test_value_after_gradient_is_bit_equal(self, family):
        obj, fresh = FAMILIES[family](), FAMILIES[family]()
        for x in self.points(obj.A.shape[0]):
            obj.gradient(x)
            assert obj.value(x) == fresh.value(x)

    def test_point_mutated_in_place(self, family):
        obj, fresh = FAMILIES[family](), FAMILIES[family]()
        x = self.points(obj.A.shape[0], k=1)[0]
        obj.gradient(x)
        f_old = fresh.value(x.copy())
        x += 0.25
        assert obj.value(x) == fresh.value(x.copy())
        assert obj.value(x) != f_old

    def test_list_and_int_points(self, family):
        obj, fresh = FAMILIES[family](), FAMILIES[family]()
        x_int = np.arange(obj.A.shape[0]) % 3 - 1
        x = x_int.astype(float)
        expected_f, expected_g = fresh.value(x), fresh.gradient(x)
        for point in (x_int, x_int.tolist(), x):
            obj.gradient(x)
            assert obj.value(point) == expected_f
            assert np.array_equal(obj.gradient(point), expected_g)
            assert obj.value(point) == expected_f

    def test_threads_share_one_objective(self, family):
        obj, fresh = FAMILIES[family](), FAMILIES[family]()
        xs = self.points(obj.A.shape[0], k=30)
        expected = [(fresh.value(x), fresh.gradient(x).tobytes()) for x in xs]

        def work(offset):
            out = []
            for _ in range(20):
                for i in range(len(xs)):
                    j = (i + offset) % len(xs)
                    g = obj.gradient(xs[j])
                    out.append((j, obj.value(xs[j]), g.tobytes()))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(work, k) for k in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        assert sum(len(r) for r in results) == 6 * 20 * len(xs)
        for r in results:
            for j, f, g in r:
                assert (f, g) == expected[j]


def test_shared_product_computes_one_product_per_point():
    calls = []

    def product(x):
        calls.append(x.copy())
        return 2.0 * x

    value, gradient = _shared_product(product, lambda x, p: float(p.sum()), lambda x, p: p + x)
    x = np.arange(3.0)
    assert np.array_equal(gradient(x), 3.0 * x)
    assert value(x) == 6.0
    assert value([0.0, 1.0, 2.0]) == 6.0
    assert len(calls) == 1
    y = x + 1.0  # value alone does not store its product
    assert value(y) == value(y) == 12.0
    assert len(calls) == 3
    gradient(y)
    assert value(y) == 12.0
    assert len(calls) == 4
    y[0] = 5.0  # the stored key is a copy of the point's bytes
    assert value(y) == 20.0
    assert len(calls) == 5


def _oracle_cases(n):
    """Each family at dimension n with its value and gradient written out
    in the NumPy operators."""
    quad = gen_random_quadratic(n, 0.03, 15.0, n)
    A, y, _ = gen_logistic_instance(n, 2 * n, n)
    M, c = gen_logsumexp_instance(n, 2 * n, n)
    rho = 0.7

    def lse_z(x):
        return (M.T @ x - c) / rho

    return {
        "quadratic": (quad, lambda x: float(0.5 * (x @ (quad.A @ x)) + quad.b @ x),
                      lambda x: quad.A @ x + quad.b),
        "logistic": (logistic_objective(A, y),
                     lambda x: float(((1.0 - y) * (A.T @ x) + np.maximum(-(A.T @ x), 0.0)
                                      + np.log1p(np.exp(-np.abs(A.T @ x)))).sum()),
                     lambda x: A @ ((1.0 - y) - np.where(A.T @ x <= 0.0, 1.0, np.exp(-np.abs(A.T @ x)))
                                    / (1.0 + np.exp(-np.abs(A.T @ x))))),
        "logsumexp": (logsumexp_objective(M, c, rho), lambda x: float(rho * logsumexp(lse_z(x))),
                      lambda x: M @ softmax(lse_z(x))),
    }


@pytest.mark.parametrize("n", [8, 200])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_oracle_is_bit_equal_to_its_formula(family, n):
    """Each oracle returns its formula's bits at 50 points of scale 1e-8 to
    1e8, for a value asked alone and for one right after a gradient."""
    obj, value, gradient = _oracle_cases(n)[family]
    rng = np.random.default_rng(n)
    for scale in np.logspace(-8, 8, 50):
        x = scale * rng.standard_normal(n)
        alone = obj.value(x)  # the last gradient was at another point
        g = obj.gradient(x)
        after = obj.value(x)
        assert type(alone) is float and type(after) is float
        assert alone.hex() == after.hex() == value(x).hex()
        assert g.tobytes() == gradient(x).tobytes()


def test_logistic_terms_are_no_less_accurate_than_scipy():
    """sigmoid(-t) = _sigmoid_neg(t, e) and softplus(-t) = max(-t, 0) +
    log1p(e), with e = exp(-|t|), err from the 200-bit mpmath values by no
    more ulps than SciPy's expit(-t) and NumPy's logaddexp(0, -t), at both
    signs of the oracle-formula tests' 50 scales and at 0, 745, 800 and
    inf.  The helpers return the bits of np.exp(-np.abs(t)) and of
    np.where(t <= 0, 1, e) / (1 + e) there and at NaN."""
    scales = np.concatenate([np.logspace(-8, 8, 50), [0.0, 745.0, 800.0, np.inf]])
    t = np.concatenate([scales, -scales])
    u = np.append(t, [np.nan, -np.nan])
    assert _exp_neg_abs(u).tobytes() == np.exp(-np.abs(u)).tobytes()
    assert _sigmoid_neg(u, _exp_neg_abs(u)).tobytes() == (
        np.where(u <= 0.0, 1.0, np.exp(-np.abs(u))) / (1.0 + np.exp(-np.abs(u)))).tobytes()
    e = _exp_neg_abs(t)
    with mpmath.workprec(200):
        sigmoid = [1 / (1 + mpmath.exp(v)) for v in t.tolist()]
        softplus = [mpmath.log1p(mpmath.exp(-mpmath.mpf(v))) for v in t.tolist()]
    assert max_ulps(_sigmoid_neg(t, e), sigmoid) <= max_ulps(expit(-t), sigmoid)
    assert max_ulps(np.maximum(-t, 0.0) + np.log1p(e), softplus) <= max_ulps(np.logaddexp(0.0, -t), softplus)


def _lambda_max_bound_formula(A):
    """The certified bound on lambda_max(A A') written out in the NumPy
    operators: the row-built Gram through ``@``, ``np.linalg.eigvalsh`` and
    the margin (m + 2n + 3) u tr(G) + m n eta."""
    n, m = A.shape
    G = np.array([A @ a for a in A])
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    return float(np.linalg.eigvalsh(G)[-1]) + (m + 2 * n + 3) * u * float(np.trace(G)) + m * n * eta


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lipschitz_bound_is_bit_equal_to_its_formula(seed):
    """The Lipschitz bounds of the logistic and log-sum-exp families at the
    benchmark's 50 x 200 carry the written-out bound's bits."""
    A, y, _ = gen_logistic_instance(50, 200, seed)
    M, c = gen_logsumexp_instance(50, 200, seed)
    lam_a, lam_m = _lambda_max_bound_formula(A), _lambda_max_bound_formula(M)
    assert logistic_objective(A, y).lipschitz.hex() == (0.25 * lam_a).hex()
    for rho in (1.0, 0.7):
        assert logsumexp_objective(M, c, rho).lipschitz.hex() == (lam_m / rho).hex()


def test_dot_norm_is_numpy_norm():
    """sqrt(g . g) is np.linalg.norm(g) bit for bit on real vectors, also
    where g . g underflows to 0 or overflows to inf."""
    rng = np.random.default_rng(0)
    norms = []
    with np.errstate(over="ignore"):
        for scale in np.logspace(-170, 170, 69):
            for n in (1, 8, 50, 200):
                g = scale * rng.standard_normal(n)
                norms.append(math.sqrt(g.dot(g)))
                assert norms[-1].hex() == float(np.linalg.norm(g)).hex()
    assert 0.0 in norms and math.inf in norms


@settings(max_examples=400, derandomize=True, database=None)
@given(c=st.floats(), a=arrays(np.float64, st.integers(1, 64), elements=st.floats()))
@example(c=0.0, a=np.array([1.0, -1.0, -0.0]))
@example(c=-0.0, a=np.array([1.0, -1.0, 0.0]))
@example(c=5e-324, a=np.array([0.5, 3.0, -1e-300]))
@example(c=0.75, a=np.array([1e-310, -5e-324, 2.2250738585072014e-308]))
@example(c=1e300, a=np.array([1e10, -1e10, 1.0]))
@example(c=math.inf, a=np.array([0.0, 1.0, -2.0]))
@example(c=-1.5, a=np.array([math.inf, -math.inf]))
@example(c=math.nan, a=np.array([1.0, math.nan, -math.nan]))
@example(c=-math.nan, a=np.array([math.inf, 0.0]))
@example(c=2.0, a=np.array([math.nan, -math.nan]))
def test_a_0d_operand_multiplies_like_a_python_float(c, a):
    """np.array(c) * a is c * a byte for byte for a Python float c and a
    float64 vector a: the same IEEE product, also at signed zeros,
    subnormals, overflow to inf, inf and NaN.  The Verlet scan and the
    discrete loops rely on it to take their step sizes as 0-d arrays."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert (np.array(c) * a).tobytes() == (c * a).tobytes()


def _at_offset(a, offset):
    """A C-ordered copy of ``a`` whose data starts ``offset`` bytes past a
    64-byte boundary."""
    buf = np.empty(a.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def test_blas_results_do_not_depend_on_operand_offsets():
    """The products, the solve and the eigenvalues behind the quadratic and
    logistic oracles, f* and the Lipschitz bounds give the same bytes with
    each operand at every 8-byte offset of a 64-byte line, so that moving
    a generated matrix onto the boundary keeps every trace's bits."""
    offsets = range(0, 64, 8)
    rng = np.random.default_rng(24)
    A = gen_random_quadratic(200, 0.03, 15.0, 24).A
    x, b = rng.standard_normal(200), rng.standard_normal(200)
    S = gen_logistic_instance(50, 200, 24)[0]
    v, w = rng.standard_normal(200), rng.standard_normal(50)
    results = {"A x": set(), "solve": set(), "eigvalsh": set(), "S v": set(), "S' w": set()}
    for oa in offsets:
        A_o, S_o = _at_offset(A, oa), _at_offset(S, oa)
        results["eigvalsh"].add(np.linalg.eigvalsh(A_o).tobytes())
        for ox in offsets:
            results["A x"].add(A_o.dot(_at_offset(x, ox)).tobytes())
            results["solve"].add(np.linalg.solve(A_o, _at_offset(-b, ox)).tobytes())
            results["S v"].add(S_o.dot(_at_offset(v, ox)).tobytes())
            results["S' w"].add(S_o.T.dot(_at_offset(w, ox)).tobytes())
    assert {k: len(r) for k, r in results.items()} == dict.fromkeys(results, 1)
