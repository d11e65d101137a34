"""Discrete-time conservative optimizers with adaptive restarts.

The core iteration is the explicit symplectic Euler step for the frictionless
system (x' = v, v' = -grad f): one iteration is a gradient step of size h^2
plus the momentum carried by the velocity.  Four restart criteria are
implemented (gradient, kinetic-energy, and the ratio/differential forms of
the mean-dissipation test), together with gradient descent and the Nesterov
accelerated methods used as baselines.

Every run is deterministic given its inputs, never mutates the objective,
and records one trace row per iteration plus the starting point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objectives import SmoothObjective

Array = np.ndarray

RESTART_CRITERIA = ("grad", "kin", "mmd-r", "mmd-dr")

# Runs abort once |f| or the residual norm passes this threshold (or goes NaN).
DIVERGENCE_LIMIT = 1e150

__all__ = [
    "RESTART_CRITERIA",
    "DiscreteState",
    "Trace",
    "DivergenceError",
    "symplectic_euler_step",
    "rest_restart_step",
    "should_restart",
    "rcm_run",
    "gradient_descent_run",
    "nag_c_run",
    "nag_sc_run",
    "nag_c_restart_run",
]


class DivergenceError(RuntimeError):
    """Non-finite or astronomically large value/gradient during a run.

    Carries the partial trace accumulated so far in ``partial_trace``.
    """

    def __init__(self, message, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace


@dataclass
class DiscreteState:
    """Iterate, velocity, iteration counter, and last-restart index."""

    x: Array
    v: Array
    iter: int
    last_restart: int


@dataclass
class Trace:
    """Per-iteration record of a discrete run, smooth or composite.

    Row k holds (iteration index, f value, residual, restart flag) at
    iterate x_k; row 0 is the starting point, so the number of rows equals
    the number of iterations plus one.  The residual is the gradient norm,
    or the minimal-norm subgradient norm on a composite objective.
    ``restart_origin`` tracks the bookkeeping index l of the segment each
    iterate belongs to (restart runs only), ``crossings`` flags the
    iterations where a composite run zeroed at least one coordinate
    (composite runs only), and ``xs``/``vs`` hold the iterate and velocity
    history when the run was asked to keep it.
    """

    method: str
    step: float
    iters: Array
    fvals: Array
    residuals: Array
    restarts: Array
    final_state: DiscreteState
    restart_origin: Optional[Array] = None
    xs: Optional[Array] = None
    vs: Optional[Array] = None
    crossings: Optional[Array] = None

    def __len__(self) -> int:
        return len(self.iters)


class _Recorder:
    """Rows of one run.  ``add`` appends a row and aborts the run with a
    DivergenceError carrying the rows so far when the row's value or
    residual is non-finite or beyond DIVERGENCE_LIMIT.

    The ``restart_origin`` and ``crossings`` columns exist only when the
    runner passes ``l`` and ``crossed`` to ``add``.  Runners pass the
    residual as ``math.sqrt(g @ g)``, bit for bit what ``np.linalg.norm``
    computes for a real vector, at a fraction of its call cost.
    """

    def __init__(self, method, step, keep_iterates):
        self.method = method
        self.step = step
        self.iters = []
        self.fvals = []
        self.residuals = []
        self.restarts = []
        self.origins = []
        self.crossings = []
        self.xs = [] if keep_iterates else None
        self.vs = [] if keep_iterates else None

    def add(self, k, fval, resid, fired, x, v=None, l=None, crossed=None):
        self.iters.append(k)
        self.fvals.append(fval)
        self.residuals.append(resid)
        self.restarts.append(fired)
        if l is not None:
            self.origins.append(l)
        if crossed is not None:
            self.crossings.append(crossed)
        if self.xs is not None:
            self.xs.append(np.array(x))
            self.vs.append(None if v is None else np.array(v))
        if not (math.isfinite(fval) and math.isfinite(resid)) or abs(fval) > DIVERGENCE_LIMIT or resid > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"{self.method}: diverged at iteration {k} (f = {fval:g}, residual = {resid:g})",
                partial_trace=self.trace(x, v, l),
            )

    def fill(self, max_iter):
        """Repeat the last row for every iteration up to ``max_iter``, for a
        run whose state no longer changes: same value, residual, restart
        origin and iterates, no restart and no crossing."""
        n = max_iter - self.iters[-1]
        self.iters.extend(range(self.iters[-1] + 1, max_iter + 1))
        self.fvals.extend([self.fvals[-1]] * n)
        self.residuals.extend([self.residuals[-1]] * n)
        self.restarts.extend([False] * n)
        if self.origins:
            self.origins.extend([self.origins[-1]] * n)
        if self.crossings:
            self.crossings.extend([False] * n)
        if self.xs is not None:
            self.xs.extend([self.xs[-1]] * n)
            self.vs.extend([self.vs[-1]] * n)

    def trace(self, x, v=None, l=None):
        """The rows so far, ending in state (x, v) with last restart l;
        runners without a velocity or restart index report zeros."""
        return Trace(
            method=self.method,
            step=self.step,
            iters=np.asarray(self.iters, dtype=int),
            fvals=np.asarray(self.fvals, dtype=float),
            residuals=np.asarray(self.residuals, dtype=float),
            restarts=np.asarray(self.restarts, dtype=bool),
            final_state=DiscreteState(x, np.zeros_like(x) if v is None else v, self.iters[-1], l or 0),
            restart_origin=np.asarray(self.origins, dtype=int) if self.origins else None,
            xs=None if self.xs is None else np.asarray(self.xs),
            vs=None if self.vs is None or any(u is None for u in self.vs) else np.asarray(self.vs),
            crossings=np.asarray(self.crossings, dtype=bool) if self.crossings else None,
        )


def symplectic_euler_step(obj: SmoothObjective, x: Array, v: Array, h: float):
    """One explicit symplectic Euler step: v' = v - h grad f(x), x' = x + h v'."""
    if not 0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    v_new = v - h * obj.gradient(x)
    x_new = x + h * v_new
    return x_new, v_new


def rest_restart_step(obj: SmoothObjective, x: Array, h: float):
    """Symplectic step from rest: v' = -h grad f(x), x' = x - h^2 grad f(x).

    The gradient is evaluated at the pre-restart point.
    """
    x = np.asarray(x, dtype=float)
    return symplectic_euler_step(obj, x, np.zeros_like(x), h)


def should_restart(criterion: str, v: Array, v_new: Array, grad_at_xnew, k: int, l: int) -> bool:
    """Restart predicate of the conservative method at iteration k -> k+1.

    ``v`` is the pre-step velocity, ``v_new`` the trial velocity, and
    ``grad_at_xnew`` the (sub)gradient at the trial point (unused by the
    ``kin`` and ``mmd-r`` tests, which may pass None).  ``l`` is the index of
    the most recent restart.  All inequalities are strict, so ties never
    restart.  The mean-dissipation tests require k - l >= 1.
    """
    if criterion == "grad":
        return float(grad_at_xnew @ v) > 0.0
    if criterion == "kin":
        return float(v_new @ v_new) < float(v @ v)
    if criterion == "mmd-r":
        assert k - l >= 1, "mmd-r queried with an empty segment (k - l < 1)"
        return float(v_new @ v_new) / (k + 1 - l) < float(v @ v) / (k - l)
    if criterion == "mmd-dr":
        assert k + 1 - l >= 1, "mmd-dr queried with an empty segment"
        return float(v_new @ v_new) + 2.0 * (k + 1 - l) * float(grad_at_xnew @ v_new) > 0.0
    raise ValueError(f"unknown restart criterion {criterion!r}; expected one of {RESTART_CRITERIA}")


def _rcm_loop(value, oracle, L, x0, h, criterion, max_iter, keep_iterates, method, project=None):
    """The conservative evolution-restart loop behind ``rcm_run`` and
    ``rcm_comp_run``.

    ``oracle`` is the gradient, or the minimal-norm subgradient, and ``L``
    the Lipschitz constant of its smooth part; a step outside h < sqrt(2/L)
    warns at the runner's caller.  ``project(x_old, x_new)``, when given,
    returns the new iterate and whether a coordinate crossed zero; a
    crossing zeroes the whole velocity and moves the bookkeeping index l to
    k + 1, and the trace records a ``crossings`` column.

    Once a row is at rest, v = 0 and a trial step v - h g, x + h v that
    reproduces v and x bit for bit, every later iteration repeats it
    exactly, so the remaining rows are written as copies of it without
    further oracle calls: the oracle sees the same x and returns the same
    g, each test of the four criteria reads 0 > 0 or 0 < 0, so none fires,
    and no coordinate changes sign, so none crosses.  Bits, not values, are
    compared so that a signed zero that would flip does not count as rest.
    """
    if criterion not in RESTART_CRITERIA:
        raise ValueError(f"unknown restart criterion {criterion!r}")
    if not 0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if h >= np.sqrt(2.0 / L):
        warnings.warn(
            f"h = {h:g} is outside the convergence range h < sqrt(2/L) = "
            f"{np.sqrt(2.0 / L):g}; the run may diverge",
            stacklevel=3,
        )
    needs_trial = criterion in ("grad", "mmd-dr")
    crossed = None if project is None else False

    x = np.array(x0, dtype=float)
    v = np.zeros_like(x)
    g = oracle(x)
    l = 0
    rec = _Recorder(method, h, keep_iterates)
    rec.add(0, value(x), math.sqrt(g @ g), False, x, v, l, crossed)

    for k in range(max_iter):
        v_trial = v - h * g
        x_trial = x + h * v_trial
        g_trial = oracle(x_trial) if needs_trial else None
        fire = k - l >= 1 and should_restart(criterion, v, v_trial, g_trial, k, l)
        if fire:
            x_new = x - (h * h) * g
            g_new = oracle(x_new)
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
        # Without a crossing, x is the point g_new was evaluated at.
        g = oracle(x) if g_new is None or crossed else g_new
        rec.add(k + 1, value(x), math.sqrt(g @ g), fire, x, v, l, crossed)
        # A state at rest repeats f; comparing f first keeps the array
        # tests off nearly every other iteration.
        if (rec.fvals[-1] == rec.fvals[-2] and not v.any()
                and (v - h * g).tobytes() == v.tobytes() and (x + h * v).tobytes() == x.tobytes()):
            rec.fill(max_iter)
            break

    return rec.trace(x, v, l)


def rcm_run(obj: SmoothObjective, x0, h: float, criterion: str, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Conservative evolution-restart loop.

    Starts at rest from x0 (the first iteration is therefore the symplectic
    step from rest), then at every later iteration takes a trial symplectic
    step and queries the restart criterion.  On a restart it replaces the
    trial with the step from rest x' = x - h^2 grad f(x), takes the new
    velocity -h grad f(x') from the gradient at the post-restart point, and
    resets the bookkeeping index l.  A run that comes to rest (v = 0 and
    h grad f(x) = 0) repeats its state exactly from there, so its remaining
    rows are copies written without oracle calls.
    """
    return _rcm_loop(obj.value, obj.gradient, obj.lipschitz, x0, h, criterion, max_iter, keep_iterates,
                     f"rcm-{criterion}")


def gradient_descent_run(obj: SmoothObjective, x0, s: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Plain gradient descent x_{k+1} = x_k - s grad f(x_k)."""
    if not 0 < s < math.inf:
        raise ValueError("s must be positive and finite")
    grad, fval = obj.gradient, obj.value
    x = np.array(x0, dtype=float)
    g = grad(x)
    rec = _Recorder("gd", s, keep_iterates)
    rec.add(0, fval(x), math.sqrt(g @ g), False, x)
    for k in range(max_iter):
        x = x - s * g
        g = grad(x)
        rec.add(k + 1, fval(x), math.sqrt(g @ g), False, x)
    return rec.trace(x)


def _check_step(s, L, who, stacklevel=3):
    """Reject a gradient step that is not positive and finite and warn,
    at the runner's caller, about one above 1/L."""
    if not 0 < s < math.inf:
        raise ValueError("s must be positive and finite")
    if s > 1.0 / L:
        warnings.warn(f"{who}: s = {s:g} exceeds 1/L = {1.0 / L:g}", stacklevel=stacklevel)


def _momentum_run(obj, x0, s, momentum, max_iter, keep_iterates, method, restart=False):
    """Nesterov's loop y_{k+1} = x_k - s grad f(x_k),
    x_{k+1} = y_{k+1} + momentum(j) (y_{k+1} - y_k), from y_0 = x_0, where j
    counts the iterations since the last restart, so j = k unless
    ``restart`` turns on the gradient restart of ``nag_c_restart_run``.

    Once an iteration leaves both x and y unchanged (compared by value), it
    cannot restart and every later iteration repeats it exactly, so the
    remaining rows are written as copies of the last one without further
    oracle calls.
    """
    grad, fval = obj.gradient, obj.value
    x = np.array(x0, dtype=float)
    y = x.copy()
    g = grad(x)
    j = 0
    rec = _Recorder(method, s, keep_iterates)
    rec.add(0, fval(x), math.sqrt(g @ g), False, x)
    for k in range(max_iter):
        x_old = x
        beta = momentum(j)
        y_new = x - s * g
        dy = y_new - y
        x = y_new + beta * dy
        y = y_new
        g = grad(x)
        fire = restart and float(g @ dy) > 0.0
        if fire:
            x = y_new
            if beta != 0.0:
                g = grad(x)
            j = 0
        else:
            j += 1
        rec.add(k + 1, fval(x), math.sqrt(g @ g), fire, x)
        # A fixed state repeats f; comparing f first keeps the array tests
        # off nearly every other iteration.
        if rec.fvals[-1] == rec.fvals[-2] and not dy.any() and np.array_equal(x, x_old):
            rec.fill(max_iter)
            break
    return rec.trace(x)


def nag_c_run(obj: SmoothObjective, x0, s: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Nesterov's method for convex functions with momentum k/(k+3)."""
    _check_step(s, obj.lipschitz, "nag-c")
    return _momentum_run(obj, x0, s, lambda j: j / (j + 3.0), max_iter, keep_iterates, "nag-c")


def nag_sc_run(obj: SmoothObjective, x0, s: float, mu: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Nesterov's method for strongly convex functions.

    The momentum coefficient is (1 - sqrt(mu s)) / (1 + sqrt(mu s)); ``mu``
    is caller-supplied so that deliberate underestimates of the strong
    convexity constant can be benchmarked.
    """
    _check_step(s, obj.lipschitz, "nag-sc")
    if not mu > 0:
        raise ValueError("mu must be positive")
    if mu * s > 1.0:
        raise ValueError(f"mu * s = {mu * s:g} > 1: momentum coefficient out of range")
    beta = (1.0 - np.sqrt(mu * s)) / (1.0 + np.sqrt(mu * s))
    return _momentum_run(obj, x0, s, lambda j: beta, max_iter, keep_iterates, "nag-sc")


def nag_c_restart_run(obj: SmoothObjective, x0, s: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """NAG-C with the adaptive gradient restart.

    After each iteration, if grad f(x_{k+1}) . (y_{k+1} - y_k) > 0 the
    momentum counter is reset to zero and the iterate is set back to the
    plain gradient-step point y_{k+1} (which keeps every recorded iteration
    at least as good as a gradient step).  The gradient there is the one
    just evaluated if the momentum was zero, and a new evaluation if not.
    """
    _check_step(s, obj.lipschitz, "nag-c-restart")
    return _momentum_run(obj, x0, s, lambda j: j / (j + 3.0), max_iter, keep_iterates, "nag-c-restart",
                         restart=True)
