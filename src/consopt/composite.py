"""Conservative restart methods and FISTA baselines for l1-composite problems.

The smooth gradient is replaced throughout by the minimal-norm subgradient,
and crossings of the non-differentiability set {x : x_1 ... x_n = 0} zero the
crossed coordinates and the whole velocity (the kink absorbs the momentum,
like an inelastic collision).  With a zero l1 weight the objective is smooth
everywhere, the non-differentiability set is empty, and every method here
reproduces its smooth counterpart exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .discrete import Trace, _check_step, _rcm_loop, _Recorder
# Not called here (rcm_comp_run reaches it through discrete._rcm_loop), but
# bench/spans.py patches this attribute to trace the restart test.
from .discrete import should_restart  # noqa: F401
from .objectives import CompositeObjective, minimal_norm_subgradient

Array = np.ndarray

__all__ = [
    "prox_l1",
    "sign_crossing_projection",
    "rcm_comp_run",
    "fista_run",
    "fista_restart_run",
]


def prox_l1(z: Array, tau: float) -> Array:
    """Soft threshold, the proximal map of tau * ||.||_1."""
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def sign_crossing_projection(x_old: Array, x_new: Array):
    """Zero every coordinate whose sign flipped strictly between x_old and x_new.

    Returns (x_proj, crossed).  A coordinate at exactly zero never counts as
    a crossing (the product test is strict).  The caller is responsible for
    resetting the whole velocity when ``crossed`` is True.
    """
    x_old = np.asarray(x_old, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    if x_old.shape != x_new.shape:
        raise ValueError("x_old and x_new must have equal length")
    mask = x_old * x_new < 0.0
    crossed = bool(mask.any())
    if crossed:
        x_new = np.where(mask, 0.0, x_new)
    return x_new, crossed


def rcm_comp_run(f: CompositeObjective, x0, h: float, criterion: str, max_iter: int,
                 keep_iterates: bool = False) -> Trace:
    """Conservative restart method on g + gamma ||.||_1.

    The same loop as ``discrete.rcm_run`` on the minimal-norm subgradient
    instead of grad f, followed at every iteration by the sign-crossing
    projection with a full velocity reset whenever any coordinate crossed
    zero.  A crossing also resets the mean-dissipation reference index l,
    since a forced velocity zeroing invalidates the kinetic-energy
    comparison across it.

    With ``l1_weight == 0`` the non-differentiability set is empty, nothing
    is projected, and the trace equals the smooth run on ``f.smooth`` plus
    a ``crossings`` column of False.

    As in ``rcm_run``, rows after a rest or a repeat of the state are
    copies made without oracle calls; crossings make cycles common here.
    """
    project = sign_crossing_projection if f.l1_weight > 0.0 else lambda x_old, x_new: (x_new, False)
    return _rcm_loop(f.value, lambda x: minimal_norm_subgradient(f, x), f.smooth.lipschitz, x0, h, criterion,
                     max_iter, keep_iterates, f"rcm-comp-{criterion}", project)


def fista_run(f: CompositeObjective, x0, s: float, max_iter: int, keep_iterates: bool = False) -> Trace:
    """FISTA: proximal gradient steps with the t-sequence momentum.

    x_k = prox(y_k - s grad g(y_k), s gamma), t_{k+1} = (1 + sqrt(1+4t_k^2))/2,
    y_{k+1} = x_k + ((t_k - 1)/t_{k+1})(x_k - x_{k-1}), starting from
    y_1 = x_0, t_1 = 1.  The recorded objective is not necessarily monotone.
    """
    return _fista(f, x0, s, max_iter, restart=False, keep_iterates=keep_iterates)


def fista_restart_run(f: CompositeObjective, x0, s: float, max_iter: int, keep_iterates: bool = False,
                      *, _stop=None) -> Trace:
    """FISTA with the adaptive gradient restart.

    When (y_k - x_k) . (x_k - x_{k-1}) > 0 the momentum is discarded:
    t resets to 1 and y to x_k.  A run whose (x, y, t) state repeats
    exactly stops computing at the cycle and copies its period (``_fista``).
    """
    return _fista(f, x0, s, max_iter, restart=True, keep_iterates=keep_iterates, stop=_stop)


def _fista(f, x0, s, max_iter, restart, keep_iterates, stop=None):
    """The FISTA loop, with or without the adaptive restart.

    x, y and t fix every later row, so the recorder copies the rows after a
    cycle of their bits (``discrete._Recorder``); without the restart t
    grows and never comes back.  It also copies a fixed point, where a prox
    step returns its iterate from a y equal to it (by value) and the
    restart cannot fire.  ``stop(x, f)`` sees every later computed iterate
    and its value, and the run ends unfilled where it returns True.  A
    cycle is filled as any run: ``stop`` has seen its period (x0 aside, the
    value of row 0), so a running min or max such as the f* reference's
    dual-gap test is final.
    """
    method = "fista-restart" if restart else "fista"
    _check_step(s, f.smooth.lipschitz, method, stacklevel=4)
    grad_g = f.smooth.gradient
    tau = s * f.l1_weight

    x = np.array(x0, dtype=float)
    y = x.copy()
    t = 1.0

    def fixed_point():
        return not dx.any() and np.array_equal(y_prev, x_prev)

    def state(row):
        return x.tobytes(), y.tobytes(), t

    rec = _Recorder(method, s, keep_iterates, max_iter, fixed_point, state)
    d0 = minimal_norm_subgradient(f, x)
    rec.add(f.value(x), math.sqrt(d0.dot(d0)), False, x)

    for _ in range(max_iter):
        x_prev, y_prev = x, y
        x = prox_l1(y - s * grad_g(y), tau)
        dx = x - x_prev
        fire = restart and float((y - x).dot(dx)) > 0.0
        if fire:
            t = 1.0
            y = x
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x + ((t - 1.0) / t_next) * dx
            t = t_next
        d = minimal_norm_subgradient(f, x)
        if rec.add(f.value(x), math.sqrt(d.dot(d)), fire, x) or (stop is not None and stop(x, rec.fvals[-1])):
            break

    return rec.trace(x)
