"""Benchmark objective functions and their random generators.

Three smooth convex families are provided (quadratic, logistic regression,
log-sum-exp), each with an analytic gradient and its gradient Lipschitz
constant (from a dense eigendecomposition for the quadratic, a certified
upper bound from the Gram matrix's eigenvalues for the other two), plus the
l1-composite wrapper and its minimal-norm subgradient.  Each family's
``value`` reuses the matrix product of the last ``gradient`` call when it is
asked for the same point, so a value right after a gradient there costs no
second product.  Objectives are immutable after construction and safe to
evaluate concurrently: the reuse is keyed on the exact bytes of the point,
so a point mutated in place or given as a list or an integer array is never
served a stale product, and the stored (key, product) pair is replaced by
one atomic rebinding.  Generators are pure functions of their sizes and seed
(PCG64 streams via ``numpy.random.default_rng``).

The oracles and the Gram matrices behind the Lipschitz bounds call
``ndarray.dot``, not ``@``, and finish the quadratic value in floats: the
same BLAS calls and IEEE operations, so the same bits, at less of NumPy's
dispatch cost, which at these sizes rivals the arithmetic.

The logistic family runs on NumPy alone.  Its product is t = A'x together
with e = exp(-|t|), one exponential per sample that serves the value
through softplus(+-t) = max(+-t, 0) + log1p(e) and the gradient through
:func:`_sigmoid_neg`, so a value right after a gradient at the same point
costs no second exponential.  Only the log-sum-exp builder imports SciPy's
``logsumexp`` and ``softmax``, at first use: ``scipy.special`` adds about
24 MB of resident memory and 290 modules to a process, which quadratic and
logistic runs never need.  The oracle closures capture the imported names,
so a call finds them in a closure cell, not in the module's globals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray
_FLOAT = np.dtype(float)

__all__ = [
    "SmoothObjective",
    "QuadraticObjective",
    "LogisticObjective",
    "LogSumExpObjective",
    "CompositeObjective",
    "quadratic_objective",
    "gen_random_quadratic",
    "logistic_objective",
    "gen_logistic_instance",
    "logsumexp_objective",
    "gen_logsumexp_instance",
    "minimal_norm_subgradient",
    "l1_weight_rule",
]


def _check_positive(name: str, value) -> float:
    """``value`` as a Python float, or ValueError naming it unless it is
    positive and finite: the one check of every step size, time span,
    Lipschitz bound and ``rho`` in the package."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {value!r}")
    return float(value)


@dataclass(frozen=True, kw_only=True)
class SmoothObjective:
    """A differentiable convex function with a known gradient Lipschitz bound.

    ``value`` and ``gradient`` are callables taking a point of shape (n,).
    ``strong_convexity`` is a positive modulus no larger than ``lipschitz``,
    or ``None``, the one way to say that none is certified.
    """

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lipschitz: float
    strong_convexity: Optional[float] = None

    def __post_init__(self):
        _check_positive("lipschitz", self.lipschitz)
        mu = self.strong_convexity
        if mu is not None:
            if not mu > 0:
                raise ValueError(f"strong_convexity must be None or positive, not {mu!r}")
            if mu > self.lipschitz * (1.0 + 1e-12):
                raise ValueError("strong_convexity exceeds the Lipschitz bound")


@dataclass(frozen=True, kw_only=True)
class QuadraticObjective(SmoothObjective):
    """f(x) = 1/2 x'Ax + b'x with A symmetric positive definite."""

    A: Array
    b: Array


@dataclass(frozen=True, kw_only=True)
class LogisticObjective(SmoothObjective):
    """Negative log-likelihood of logistic regression with labels in {0,1}."""

    A: Array  # n x m, columns are the sample vectors a_i
    y: Array  # length m


@dataclass(frozen=True, kw_only=True)
class LogSumExpObjective(SmoothObjective):
    """f(x) = rho * log sum_i exp((a_i'x - b_i) / rho)."""

    A: Array  # n x m
    b: Array  # length m
    rho: float


@dataclass(frozen=True, kw_only=True)
class CompositeObjective:
    """Smooth part g plus gamma * ||x||_1.

    ``l1_weight`` may be zero; the composite then coincides with the smooth
    part and the minimal-norm subgradient reduces to the gradient, which is
    what the smooth/composite reduction checks rely on.
    """

    smooth: SmoothObjective
    l1_weight: float
    # gamma and -gamma as 0-d float64 arrays, for minimal_norm_subgradient
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.l1_weight < 0:
            raise ValueError("l1_weight must be nonnegative")
        object.__setattr__(self, "_bounds", (np.array(self.l1_weight, dtype=float),
                                             np.array(-self.l1_weight, dtype=float)))

    def value(self, x: Array) -> float:
        return self.smooth.value(x) + self.l1_weight * float(np.add.reduce(np.abs(x)))


def _shared_product(product, value_of, gradient_of):
    """``value`` and ``gradient`` closures that share one product per point.

    ``product(x)`` is the expensive part both need; ``value_of(x, p)`` and
    ``gradient_of(x, p)`` finish the value and the gradient from it.
    ``gradient`` stores its point's bytes with the product, and ``value``
    reuses that product when called at a point with the same bytes.  A
    float64 ndarray skips ``np.asarray``, which would return it unchanged.
    """
    last = (None, None)

    def value(x):
        x = x if type(x) is np.ndarray and x.dtype is _FLOAT else np.asarray(x, dtype=float)
        key, p = last
        if key != x.tobytes():
            p = product(x)
        return value_of(x, p)

    def gradient(x):
        nonlocal last
        x = x if type(x) is np.ndarray and x.dtype is _FLOAT else np.asarray(x, dtype=float)
        p = product(x)
        last = (x.tobytes(), p)
        return gradient_of(x, p)

    return value, gradient


_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = 2.0 ** -1074


def _gram_lambda_max(A) -> float:
    """A certified upper bound on lambda_max(A A') for an n x m matrix A.

    G = A A' is built one row at a time, G[i] = A A[i], from matrix-vector
    products, whose bits do not depend on the BLAS thread count; those of
    the matrix product A.dot(A.T) do, from 100 x 200 on.  The bound
    eigvalsh(G)[-1] + (m + 2n + 3) u tr(G) + m n eta, with u = 2^-53 and
    eta the smallest subnormal, adds to the computed eigenvalue a margin for:

    - the Gram's rounding, at most gamma_m ||A||_F^2 + m n eta / 2 in the
      2-norm, with ||A||_F^2 = tr(G) (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., section 3.1);
    - ``eigvalsh``'s backward error, taken as 2 n u ||G||_2 <= 2 n u tr(G)
      (the p(n) u ||G||_2 of the LAPACK Users' Guide, section 4.7, at
      p(n) = 2n), and m n eta / 2 for its underflow;
    - the roundings of the trace, of the margin, of its sum with the
      eigenvalue and of a later division by a positive float, with the
      second-order terms: 3 u tr(G) while (m + n) u is small.

    On the logistic-l1 benchmark's 60 instances (50 x 200) the bound lies
    7.2e-13 to 8.3e-13 relative above ``eigvalsh(A @ A.T)``, and on three
    of them 40-digit ``mpmath`` put ``eigvalsh(G)`` within 9.7e-16 of the
    exact value.  A with a NaN or infinite entry, or whose A A' overflows,
    has a NaN or infinite trace and is refused with a ``ValueError`` that
    names A, as is A with no rows, before ``eigvalsh``; A with no columns
    has G = 0.
    """
    n, m = A.shape
    if n == 0:
        raise ValueError("A has no rows")
    G = np.empty((n, n))
    for i in range(n):
        A.dot(A[i], out=G[i])
    trace = float(G.trace())
    if not trace < math.inf:
        raise ValueError(f"A has a non-finite entry or A A' overflows (tr(A A') = {trace!r})")
    return float(np.linalg.eigvalsh(G)[-1]) + (m + 2 * n + 3) * _UNIT_ROUNDOFF * trace + m * n * _SMALLEST_SUBNORMAL


def quadratic_objective(A, b) -> QuadraticObjective:
    """Build 1/2 x'Ax + b'x from a symmetric positive definite matrix.

    The Lipschitz constant is lambda_max(A) and the strong convexity modulus
    lambda_min(A), both from a dense symmetric eigendecomposition.  A must be
    symmetric to relative tolerance 1e-12; an exactly symmetric A, as every
    generator makes, passes without forming A - A'.  A or b with a NaN or
    infinite entry, and a 0 x 0 A, is refused with a ``ValueError`` that
    names it.  A is kept as given when it is already a float64 array, not
    copied.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError("A must be a non-empty square matrix")
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError("b has inconsistent length")
    a_max = max(float(A.max()), -float(A.min()))  # NaN if A has a NaN
    if not a_max < math.inf:
        raise ValueError("A has a non-finite entry")
    if not np.isfinite(b).all():
        raise ValueError("b has a non-finite entry")
    if not np.array_equal(A, A.T) and np.abs(A - A.T).max() > 1e-12 * max(1.0, a_max):
        raise ValueError("A is not symmetric")
    evals = np.linalg.eigvalsh(A)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    if lam_min <= 0:
        raise ValueError(f"A is not positive definite (lambda_min = {lam_min:g})")

    value, gradient = _shared_product(
        A.dot,
        lambda x, Ax: 0.5 * float(x.dot(Ax)) + float(b.dot(x)),
        lambda x, Ax: Ax + b,
    )
    return QuadraticObjective(
        value=value,
        gradient=gradient,
        lipschitz=lam_max,
        strong_convexity=lam_min,
        A=A,
        b=b,
    )


def _quadratic_min_value(obj: QuadraticObjective) -> float:
    """Minimum value of a quadratic, at the solution of A x = -b: a linear
    solve, or, if the solve fails, a least squares solution plus one
    iterative refinement step."""
    try:
        x_min = np.linalg.solve(obj.A, -obj.b)
    except np.linalg.LinAlgError:
        x_min = np.linalg.lstsq(obj.A, -obj.b, rcond=None)[0]
        r = -obj.b - obj.A @ x_min
        x_min = x_min + np.linalg.lstsq(obj.A, r, rcond=None)[0]
    return obj.value(x_min)


def _aligned_matrix(n: int, m: int) -> Array:
    """An uninitialised C-ordered float64 n x m array whose data starts on
    a 64-byte boundary, where every generated matrix starts.  OpenBLAS's
    products are slower off the boundary, and NumPy's own allocations land
    off it: a block below glibc's mmap threshold sits at whatever 16-byte
    offset the heap's history gives it, and an mmap-served block starts 16
    bytes past a page.  On a 2-core Xeon with AVX-512, a 200 x 200
    matrix-vector product took 3.89 us on the boundary and 5.45 us at 16
    bytes past it, and the Lipschitz bounds of ten 50 x 200 instances
    1.66 ms on it and 1.68-1.87 ms at the other offsets, for the same
    bits."""
    buf = np.empty(n * m + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + n * m].reshape(n, m)


def gen_random_quadratic(n: int, lam_lo: float, lam_hi: float, seed: int) -> QuadraticObjective:
    """Random SPD quadratic: eigenvalues uniform on [lam_lo, lam_hi],
    eigenbasis from the QR factorization of a standard normal matrix,
    b standard normal.  Deterministic given the seed.

    A = (M + M')/2 for M = Q diag(evals) Q' is formed in a 64-byte-aligned
    buffer (:func:`_aligned_matrix`), which :func:`quadratic_objective`
    keeps, so every gradient's product A x runs on the boundary, and b is
    drawn into another, with the bits of ``standard_normal(n)``.
    Q diag(evals) is formed in the dead buffer of the normal draw, and
    adding into the aligned buffer and halving in place keeps the bits of
    0.5 * (M + M'), without further n x n temporaries."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < lam_lo <= lam_hi):
        raise ValueError("need 0 < lam_lo <= lam_hi")
    rng = np.random.default_rng(seed)
    evals = rng.uniform(lam_lo, lam_hi, size=n)
    G = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(G)
    M = np.multiply(Q, evals, out=G) @ Q.T
    A = np.add(M, M.T, out=_aligned_matrix(n, n))
    A *= 0.5
    b = rng.standard_normal(out=_aligned_matrix(1, n)[0])
    return quadratic_objective(A, b)


# 0-d operands skip NumPy 2's weak-scalar promotion, the larger part of a
# ufunc's cost at m = 200, and give the same IEEE results as Python floats.
_ZERO, _ONE, _MINUS_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)


def _exp_neg_abs(t):
    """e = exp(-|t|), with -|t| as copysign(t, -1), one ufunc."""
    return np.exp(np.copysign(t, _MINUS_ONE))


def _sigmoid_neg(t, e):
    """sigmoid(-t) = 1 / (1 + exp(t)) from t and e = exp(-|t|): 1 / (1 + e)
    where t <= 0 and e / (1 + e) where t > 0, so nothing overflows.  Since
    e lies in [0, 1], the numerator where(t <= 0, 1, e) is max(e, t <= 0),
    the same bits at a lower cost than ``np.where``."""
    return np.maximum(e, t <= _ZERO) / (_ONE + e)


def logistic_objective(A, y) -> LogisticObjective:
    """Logistic regression loss sum_i [(1-y_i) a_i'x + log(1 + exp(-a_i'x))].

    A is n x m with columns a_i; y has entries in {0, 1}.  With t = A'x and
    e = exp(-|t|), the value is sum_i [(1-y_i) t_i + max(-t_i, 0) +
    log1p(e_i)] and the gradient A ((1-y) - sigmoid(-t)), both from the one
    exponential e, which the product keeps beside t.  The value is summed
    as max(s_i t_i, 0) + log1p(e_i) with s = 1 - 2y: the same bits at
    finite t in one operation less, and the loss's limit, not NaN, at
    infinite t.  Against 200-bit ``mpmath`` at 20,400 log-spaced points
    with |t| from 1e-8 to 630, sigmoid(-t) is within 1.96 ulps, 1.13 at the
    99th percentile (SciPy's ``expit``: 1.99 and 1.65), and softplus(-t)
    within 1.26 ulps (``np.logaddexp``: 1.38).  The Lipschitz constant is
    a certified upper bound on lambda_max(A A') / 4 from
    :func:`_gram_lambda_max`; A with no rows or a NaN or infinite entry,
    or whose A A' overflows, is refused with a ``ValueError`` that names it.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m = A.shape[1]
    if y.shape != (m,):
        raise ValueError("y length must equal the number of columns of A")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y entries must lie in {0, 1}")
    lam = _gram_lambda_max(A)
    A_t_dot = A.T.dot
    not_y = 1.0 - y
    sign = not_y - y

    def product(x):
        t = A_t_dot(x)
        return t, _exp_neg_abs(t)

    def value_of(x, te):
        t, e = te
        return float(np.add.reduce(np.maximum(sign * t, _ZERO) + np.log1p(e)))

    value, gradient = _shared_product(product, value_of, lambda x, te: A.dot(not_y - _sigmoid_neg(*te)))
    # A = 0 gives a linear objective; keep the Lipschitz field positive
    return LogisticObjective(
        value=value, gradient=gradient,
        lipschitz=max(0.25 * lam, np.finfo(float).tiny), A=A, y=y,
    )


def gen_logistic_instance(n: int, m: int, seed: int):
    """Random logistic instance: returns (A, y, x_true).

    x_true ~ N(0, 0.01), A entries standard normal, and y_i Bernoulli with
    success probability sigmoid(a_i'x_true).  The Bernoulli labels consume
    one uniform draw each, in index order, after x_true and A.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    rng = np.random.default_rng(seed)
    x_true = 0.1 * rng.standard_normal(n)
    A = rng.standard_normal(out=_aligned_matrix(n, m))
    u = rng.uniform(size=m)
    z = A.T @ x_true
    y = (u < _sigmoid_neg(-z, _exp_neg_abs(z))).astype(float)
    return A, y, x_true


def logsumexp_objective(A, b, rho: float) -> LogSumExpObjective:
    """Smoothed max f(x) = rho * log sum_i exp((a_i'x - b_i)/rho).

    Evaluation shifts by the max exponent before exponentiating; the gradient
    is A @ softmax of the shifted exponents.  The Lipschitz constant is a
    certified upper bound on lambda_max(A A') / rho from
    :func:`_gram_lambda_max`.  A or b with a NaN or infinite entry, and A
    with no rows or whose A A' overflows, is refused with a ``ValueError``
    that names it.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_positive("rho", rho)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m = A.shape[1]
    if b.shape != (m,):
        raise ValueError("b length must equal the number of columns of A")
    if not np.isfinite(b).all():
        raise ValueError("b has a non-finite entry")
    lam = _gram_lambda_max(A)
    from scipy.special import logsumexp, softmax

    value, gradient = _shared_product(
        lambda x: (A.T.dot(x) - b) / rho,
        lambda x, z: float(rho * logsumexp(z)),
        lambda x, z: A.dot(softmax(z)),
    )
    return LogSumExpObjective(
        value=value, gradient=gradient,
        lipschitz=max(lam / rho, np.finfo(float).tiny), A=A, b=b, rho=rho,
    )


def gen_logsumexp_instance(n: int, m: int, seed: int):
    """Random log-sum-exp instance: A and b standard normal; returns (A, b)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(out=_aligned_matrix(n, m))
    b = rng.standard_normal(m)
    return A, b


def minimal_norm_subgradient(f: CompositeObjective, x: Array) -> Array:
    """Least Euclidean norm element of the subdifferential of g + gamma||.||_1.

    Coordinatewise: grad_i + gamma*sign(x_i) away from zero; at x_i = 0 the
    subdifferential is the interval [grad_i - gamma, grad_i + gamma] and the
    norm minimizer is grad_i - clip(grad_i, -gamma, gamma) (soft threshold).

    The clip is two ufuncs over every coordinate rather than ``np.clip`` on
    a masked copy, whose Python wrappers cost more than the arithmetic.
    ``maximum`` and ``minimum`` return their second argument on a tie, so
    with the gradient second they keep ``clip``'s signed zeros at
    gamma = 0; a NaN gradient propagates.  The zero coordinates are then
    overwritten in place, not selected by ``np.where``.  gamma, -gamma and
    0 enter as 0-d float64 arrays, the IEEE results of Python floats
    without NumPy 2's weak-scalar promotion.
    """
    x = x if type(x) is np.ndarray and x.dtype is _FLOAT else np.asarray(x, dtype=float)
    g = f.smooth.gradient(x)
    gamma, minus_gamma = f._bounds
    d = g + gamma * np.sign(x)
    np.subtract(g, np.minimum(gamma, np.maximum(minus_gamma, g)), out=d, where=x == _ZERO)
    return d


def l1_weight_rule(problem_kind: str, data) -> float:
    """Regularization weight keeping the composite minimizer off the origin.

    quadratic: gamma = ||b||_inf / 4; logistic and logsumexp:
    gamma = ||grad g(0)||_inf / 2.  A zero data vector would give gamma = 0
    (a smooth problem in disguise) and is rejected as degenerate.
    """
    data = np.asarray(data, dtype=float)
    norm_inf = float(np.abs(data).max()) if data.size else 0.0
    if norm_inf == 0.0:
        raise ValueError(f"degenerate {problem_kind} input: l1 weight would be 0")
    if problem_kind == "quadratic":
        return 0.25 * norm_inf
    if problem_kind in ("logistic", "logsumexp"):
        return 0.5 * norm_inf
    raise ValueError(f"unknown problem kind {problem_kind!r}")
