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
    t resets to 1 and y to x_k.
    """
    return _fista(f, x0, s, max_iter, restart=True, keep_iterates=keep_iterates, stop=_stop)


def _fista(f, x0, s, max_iter, restart, keep_iterates, stop=None):
    """The FISTA loop, with or without the adaptive restart.

    Once a prox step returns its previous iterate from a y equal to that
    iterate (compared by value), the restart test cannot fire and every
    later iteration repeats it exactly, so the remaining rows are written
    as copies of the last one without further oracle calls.  ``stop(x, f)``,
    when given, sees every later iterate and its value, and the run ends,
    without filling its remaining rows, at the first one where it returns
    True.
    """
    method = "fista-restart" if restart else "fista"
    _check_step(s, f.smooth.lipschitz, method, stacklevel=4)
    grad_g = f.smooth.gradient
    tau = s * f.l1_weight

    x = np.array(x0, dtype=float)
    y = x.copy()
    t = 1.0
    rec = _Recorder(method, s, keep_iterates)
    d0 = minimal_norm_subgradient(f, x)
    rec.add(0, f.value(x), math.sqrt(d0 @ d0), False, x, crossed=False)

    for k in range(max_iter):
        x_prev, y_prev = x, y
        x = prox_l1(y - s * grad_g(y), tau)
        dx = x - x_prev
        fire = restart and float((y - x) @ dx) > 0.0
        if fire:
            t = 1.0
            y = x
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x + ((t - 1.0) / t_next) * dx
            t = t_next
        d = minimal_norm_subgradient(f, x)
        rec.add(k + 1, f.value(x), math.sqrt(d @ d), fire, x, crossed=False)
        # A fixed state repeats f; comparing f first keeps the array tests
        # off nearly every other iteration.
        if rec.fvals[-1] == rec.fvals[-2] and not dx.any() and np.array_equal(y_prev, x_prev):
            rec.fill(max_iter)
            break
        if stop is not None and stop(x, rec.fvals[-1]):
            break

    return rec.trace(x)
