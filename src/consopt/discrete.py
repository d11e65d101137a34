"""Discrete-time conservative optimizers with adaptive restarts.

The core iteration is the explicit symplectic Euler step for the frictionless
system (x' = v, v' = -grad f): one iteration is a gradient step of size h^2
plus the momentum carried by the velocity.  Four restart criteria are
implemented (gradient, kinetic-energy, and the ratio/differential forms of
the mean-dissipation test), together with gradient descent and the Nesterov
accelerated methods used as baselines.

Every run is deterministic given its inputs, never mutates the objective,
and records one trace row per iteration plus the starting point.  A run
whose state comes back bit for bit, at a fixed point or, for the
conservative loop and FISTA, in a cycle of any period, writes its
remaining rows as copies without further oracle calls (``_Recorder``);
this takes the oracle to be a function of the bits of its point.  FISTA's
state leaves out its growing t once t no longer changes a bit
(``composite._fista``).
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objectives import SmoothObjective, _check_positive

Array = np.ndarray

RESTART_CRITERIA = ("grad", "kin", "mmd-r", "mmd-dr")

# Runs abort once |f| or the residual norm passes this threshold (or goes NaN).
DIVERGENCE_LIMIT = 1e150

__all__ = [
    "RESTART_CRITERIA",
    "Trace",
    "DivergenceError",
    "symplectic_euler_step",
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
class Trace:
    """Per-iteration record of a discrete run, smooth or composite.

    Row k is iteration k: the f value, residual and restart flag at
    iterate x_k, with row 0 at the starting point.  The residual is the
    gradient norm, or the minimal-norm subgradient norm on a composite
    objective.  ``x`` is the last iterate and ``v`` the velocity there,
    None for the methods without one (gradient descent, the Nesterov loops
    and FISTA).  A conservative run on a composite records ``crossings``,
    the iterations that zeroed a coordinate.  ``xs`` holds the iterate
    history when kept, and ``vs`` the velocity history when kept for a
    method with a velocity.

    The restart bookkeeping index l of a conservative run is not stored:
    it is r on a crossing row r, r - 1 on a restart row r, and otherwise
    that of row r - 1, starting from 0 at row 0.
    """

    method: str
    step: float
    fvals: Array
    residuals: Array
    restarts: Array
    x: Array
    v: Optional[Array] = None
    xs: Optional[Array] = None
    vs: Optional[Array] = None
    crossings: Optional[Array] = None

    def __len__(self) -> int:
        return len(self.fvals)


class _Recorder:
    """Rows of one run, and the one place that decides when the rest of
    them are copied instead of computed.

    ``add`` appends a row and aborts the run with a DivergenceError carrying
    the rows so far when the row's value or residual is non-finite or beyond
    DIVERGENCE_LIMIT.  The ``crossings`` column exists only when the runner
    passes ``crossed``, and the velocity history only when it passes ``v``.
    Runners pass the residual as ``math.sqrt(g.dot(g))``, bit for bit
    ``np.linalg.norm`` of a real vector, at a fraction of its call cost.

    A runner that passes ``max_iter`` states its loop's facts once per
    run: ``fixed_point()``, true when every later row repeats the last one
    with no restart or crossing, and, if the loop can cycle, ``state(row)``,
    a tuple of keys, each of which, when it comes back equal, fixes every
    row after ``row`` to repeat those after the row it came from, taking
    the oracle and the value to be functions of the bits of x.  The keys
    are checkpointed at rows 0, 1, 2, 4, 8, ... and compared with each
    later row's of the same f (R. P. Brent, BIT 20, 1980).  When a key of
    row r repeats row c's, the run is in a cycle of period p = r - c: it
    computes (max_iter - r) mod p more rows, and ``add`` returns True once
    it has copied the last period up to ``max_iter``, flags and iterates
    included.  So the trace and the final state are those of the loop run
    to the end, and a run whose key repeats with period p from row m on
    computes its last row before row 2 max(m, p) + 2 p.
    """

    def __init__(self, method, step, keep_iterates, max_iter=None, fixed_point=lambda: False, state=None):
        self.method = method
        self.step = step
        self.fvals = []
        self.residuals = []
        self.restarts = []
        self.crossings = []
        self.xs = [] if keep_iterates else None
        self.vs = []
        self.max_iter = max_iter
        self._fixed_point = fixed_point
        self._state = state
        # Only a row repeating the last f or the checkpoint's, or the row
        # _mark - 1 (the next checkpoint, then the last to compute), can stop.
        self._last_f = self._seen_f = math.nan
        self._seen = self._seen_row = self._period = None
        self._mark = 1 if state is not None else 0

    def add(self, fval, resid, fired, x, v=None, crossed=None):
        fvals = self.fvals
        fvals.append(fval)
        self.residuals.append(resid)
        self.restarts.append(fired)
        if crossed is not None:
            self.crossings.append(crossed)
        if self.xs is not None:
            self.xs.append(np.array(x))
            if v is not None:
                self.vs.append(np.array(v))
        # |f| <= limit and -inf < residual <= limit; NaN fails every test.
        if not abs(fval) <= DIVERGENCE_LIMIT >= resid > -math.inf:
            raise DivergenceError(
                f"{self.method}: diverged at iteration {len(fvals) - 1} (f = {fval:g}, residual = {resid:g})",
                partial_trace=self.trace(x, v),
            )
        if fval != self._last_f and fval != self._seen_f and len(fvals) != self._mark:
            self._last_f = fval
            return False
        last, self._last_f = self._last_f, fval
        row = len(fvals) - 1
        if fval == last and self._fixed_point():
            self._fill()
            return True
        if self._period is None:
            if fval == self._seen_f and any(map(operator.eq, self._state(row), self._seen)):
                self._period = row - self._seen_row
                self._mark = row + (self.max_iter - row) % self._period + 1
            elif row + 1 == self._mark:
                self._seen_f, self._seen, self._seen_row = fval, self._state(row), row
                self._mark = (2 * row or 1) + 1
        if self._period is not None and row + 1 == self._mark:
            self._fill(self._period)
            return True
        return False

    def _fill(self, period=None):
        """Write the rows up to ``max_iter`` as copies: of the last row,
        with no restart or crossing whatever the step into it did, or of
        the last ``period`` rows, column by column and flags included."""
        n = self.max_iter + 1 - len(self.fvals)
        columns = [self.fvals, self.residuals, self.xs, self.vs]
        if period is None:
            period = 1
            self.restarts.extend([False] * n)
            if self.crossings:
                self.crossings.extend([False] * n)
        else:
            columns += [self.restarts, self.crossings]
        for col in columns:
            if col:
                col.extend(col[-period:] * (n // period))

    def trace(self, x, v=None):
        """The rows so far, ending in iterate x with velocity v."""
        return Trace(
            method=self.method,
            step=self.step,
            fvals=np.asarray(self.fvals, dtype=float),
            residuals=np.asarray(self.residuals, dtype=float),
            restarts=np.asarray(self.restarts, dtype=bool),
            x=x,
            v=v,
            xs=None if self.xs is None else np.asarray(self.xs),
            vs=np.asarray(self.vs) if self.vs else None,
            crossings=np.asarray(self.crossings, dtype=bool) if self.crossings else None,
        )


def symplectic_euler_step(obj: SmoothObjective, x: Array, v: Array, h: float):
    """One explicit symplectic Euler step: v' = v - h grad f(x), x' = x + h v'."""
    _check_positive("h", h)
    v_new = v - h * obj.gradient(x)
    x_new = x + h * v_new
    return x_new, v_new


def should_restart(criterion: str, v: Array, v_new: Array, grad_at_xnew, k: int, l: int) -> bool:
    """Restart predicate of the conservative method at iteration k -> k+1.

    ``v`` is the pre-step velocity, ``v_new`` the trial velocity, and
    ``grad_at_xnew`` the (sub)gradient at the trial point (unused by the
    ``kin`` and ``mmd-r`` tests, which may pass None).  ``l`` is the index of
    the most recent restart.  All inequalities are strict, so ties never
    restart.  The mean-dissipation tests require k - l >= 1.

    ``mmd-dr`` tests |v'|^2 + 2 (k + 1 - l) g' . v' > 0, with g' the
    gradient at the trial point.  On c f at h = 1/sqrt(cL) the loop runs
    with v scaled by sqrt(c) and g by c, so the two terms scale as c and
    c^(3/2): ``mmd-dr`` is the one criterion whose restarts depend on the
    units of f, while ``grad``, ``kin`` and ``mmd-r`` fire at the same
    iterations on f and on c f.  The h-weighted test
    |v'|^2 + 2 (k + 1 - l) h g' . v' > 0 is scale-free: it is the
    first-order form of ``mmd-r`` and the flow's mean-dissipation test
    (``continuous._mmd_after``) at t = (k + 1 - l) h.  The rule stays as
    coded; the h-weighted one would move criterion 08's ``rcm-mmd-dr``
    median from 103.0 to 133.5 iterations, above ``nag-c-restart``'s 104.0.
    """
    if criterion == "grad":
        return float(grad_at_xnew.dot(v)) > 0.0
    if criterion == "kin":
        return float(v_new.dot(v_new)) < float(v.dot(v))
    if criterion == "mmd-r":
        assert k - l >= 1, "mmd-r queried with an empty segment (k - l < 1)"
        return float(v_new.dot(v_new)) / (k + 1 - l) < float(v.dot(v)) / (k - l)
    if criterion == "mmd-dr":
        assert k + 1 - l >= 1, "mmd-dr queried with an empty segment"
        return float(v_new.dot(v_new)) + 2.0 * (k + 1 - l) * float(grad_at_xnew.dot(v_new)) > 0.0
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

    A row's state, the bits of x and v and the lag k - l (only whether
    k - l >= 1 for ``grad`` and ``kin``), fixes every later row, so the
    recorder copies the rows after a cycle of it (``_Recorder``), and after
    a row at rest: v = 0 and a trial step v - h g, x + h v that reproduces
    v and x bit for bit, where no criterion fires (each reads 0 > 0 or
    0 < 0) and no coordinate changes sign.  Bits, not values, are compared
    so that a signed zero that would flip does not count as rest.
    """
    if criterion not in RESTART_CRITERIA:
        raise ValueError(f"unknown restart criterion {criterion!r}")
    _check_positive("h", h)
    if h >= np.sqrt(2.0 / L):
        warnings.warn(
            f"h = {h:g} is outside the convergence range h < sqrt(2/L) = "
            f"{np.sqrt(2.0 / L):g}; the run may diverge",
            stacklevel=3,
        )
    needs_trial = criterion in ("grad", "mmd-dr")
    crossed = None if project is None else False
    reads_lag = criterion in ("mmd-r", "mmd-dr")

    def at_rest():
        return not v.any() and (v - h * g).tobytes() == v.tobytes() and (x + h * v).tobytes() == x.tobytes()

    def state(row):
        return (x.tobytes(), v.tobytes(), row - l if reads_lag else row - l >= 1),

    rec = _Recorder(method, h, keep_iterates, max_iter, at_rest, state)
    # h, -h and h^2 enter the products as 0-d float64 arrays: the same IEEE
    # products as Python floats, at less of NumPy's dispatch cost.
    h, minus_h, h2 = (np.array(c, dtype=float) for c in (h, -h, h * h))
    x = np.array(x0, dtype=float)
    v = np.zeros_like(x)
    g = oracle(x)
    l = 0
    rec.add(value(x), math.sqrt(g.dot(g)), False, x, v, crossed)

    for k in range(max_iter):
        v_trial = v - h * g
        x_trial = x + h * v_trial
        g_trial = oracle(x_trial) if needs_trial else None
        fire = k - l >= 1 and should_restart(criterion, v, v_trial, g_trial, k, l)
        if fire:
            x_new = x - h2 * g
            g_new = oracle(x_new)
            v_new = minus_h * g_new
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
        if rec.add(value(x), math.sqrt(g.dot(g)), fire, x, v, crossed):
            break

    return rec.trace(x, v)


def rcm_run(obj: SmoothObjective, x0, h: float, criterion: str, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Conservative evolution-restart loop.

    Starts at rest from x0 (the first iteration is therefore the symplectic
    step from rest), then at every later iteration takes a trial symplectic
    step and queries the restart criterion.  On a restart it replaces the
    trial with the step from rest x' = x - h^2 grad f(x), takes the new
    velocity -h grad f(x') from the gradient at the post-restart point, and
    resets the bookkeeping index l.  The rows after a rest or an exact
    repeat of the state are copies made without oracle calls.
    """
    return _rcm_loop(obj.value, obj.gradient, obj.lipschitz, x0, h, criterion, max_iter, keep_iterates,
                     f"rcm-{criterion}")


def gradient_descent_run(obj: SmoothObjective, x0, s: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Plain gradient descent x_{k+1} = x_k - s grad f(x_k): the loop of
    ``_momentum_run`` with momentum 0, so a run that reaches a fixed point
    writes its remaining rows without oracle calls.  A step above 1/L is
    allowed without a warning, so that divergence can be benchmarked."""
    _check_positive("s", s)
    return _momentum_run(obj, x0, s, lambda j: 0.0, max_iter, keep_iterates, "gd")


def _check_step(s, L, who, stacklevel=3):
    """Reject a gradient step that is not positive and finite and warn,
    at the runner's caller, about one above 1/L."""
    _check_positive("s", s)
    if s > 1.0 / L:
        warnings.warn(f"{who}: s = {s:g} exceeds 1/L = {1.0 / L:g}", stacklevel=stacklevel)


def _momentum_run(obj, x0, s, momentum, max_iter, keep_iterates, method, restart=False):
    """Nesterov's loop y_{k+1} = x_k - s grad f(x_k),
    x_{k+1} = y_{k+1} + momentum(j) (y_{k+1} - y_k), from y_0 = x_0, where j
    counts the iterations since the last restart, so j = k unless
    ``restart`` turns on the gradient restart of ``nag_c_restart_run``.
    With momentum 0 it is gradient descent.

    Once an iteration leaves both x and y unchanged (compared by value), it
    cannot restart and every later iteration repeats it exactly, so the
    recorder copies it without further oracle calls.  No ``nag-c-restart``,
    ``nag-sc`` or ``nag-sc-under`` run on 20 quad-smooth-shaped instances
    repeated (x, y, j) otherwise, so no state is tested.
    """
    grad, fval = obj.gradient, obj.value
    x = np.array(x0, dtype=float)
    y = x.copy()
    g = grad(x)
    j = 0

    def fixed_point():
        return not dy.any() and np.array_equal(x, x_old)

    rec = _Recorder(method, s, keep_iterates, max_iter, fixed_point)
    rec.add(fval(x), math.sqrt(g.dot(g)), False, x)
    step = np.array(s, dtype=float)  # a 0-d operand, as in _rcm_loop
    for _ in range(max_iter):
        x_old = x
        beta = momentum(j)
        y_new = x - step * g
        dy = y_new - y
        x = y_new + beta * dy
        y = y_new
        g = grad(x)
        fire = restart and float(g.dot(dy)) > 0.0
        if fire:
            x = y_new
            if beta != 0.0:
                g = grad(x)
            j = 0
        else:
            j += 1
        if rec.add(fval(x), math.sqrt(g.dot(g)), fire, x):
            break
    return rec.trace(x)


def nag_c_run(obj: SmoothObjective, x0, s: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Nesterov's method for convex functions with momentum k/(k+3)."""
    _check_step(s, obj.lipschitz, "nag-c")
    return _momentum_run(obj, x0, s, lambda j: j / (j + 3.0), max_iter, keep_iterates, "nag-c")


def _nag_sc_momentum(mu: float, s: float) -> float:
    """The NAG-SC momentum (1 - sqrt(mu s)) / (1 + sqrt(mu s)), or
    ValueError when mu s > 1 puts it out of range."""
    if mu * s > 1.0:
        raise ValueError(f"mu * s = {mu * s:g} > 1: momentum coefficient out of range")
    return (1.0 - math.sqrt(mu * s)) / (1.0 + math.sqrt(mu * s))


def nag_sc_run(obj: SmoothObjective, x0, s: float, mu: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """Nesterov's method for strongly convex functions.

    The momentum coefficient is (1 - sqrt(mu s)) / (1 + sqrt(mu s)); ``mu``
    is caller-supplied so that deliberate underestimates of the strong
    convexity constant can be benchmarked.
    """
    _check_step(s, obj.lipschitz, "nag-sc")
    if not mu > 0:
        raise ValueError("mu must be positive")
    beta = np.array(_nag_sc_momentum(mu, s))  # a 0-d operand, as s is in _momentum_run
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
