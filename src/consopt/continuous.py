"""High-accuracy simulation of the conservative flow x'' = -grad f(x).

The reference integrator is fixed-step Stormer-Verlet (velocity Verlet),
which is second-order and symplectic, so the mechanical energy
H = |v|^2/2 + f(x) drifts by O(dt^2) over a run and dt acts as a pure
accuracy knob.

Each of the two restart rules is one predicate after(t, g . v, v . v),
true once the flow from rest is past the rule's event: the mean-dissipation
rule past the first local maximum of E_K(t)/t (t*dE_K/dt - E_K < 0), the
kinetic-energy rule at or past a local maximum of E_K(t), which may
legitimately never come in more than one dimension.  One scan fires where
the predicate turns true between two nodes, and bisects that bracket with
the same predicate on cubic Hermite interpolants of (x, v), evaluating the
gradient exactly at the interpolated point.  The first-event functions and
every segment of the piecewise flow run through one segment helper, which
runs the scan to the flow's cap, decided once before any oracle call, or
else to a cap it bootstraps from f_star, which must lie below f at the
segment start, and builds the event.  Theoretical bounds are structured
reports {bound_name, lhs, rhs, slack, pass}.

The scan takes its per-step dots and norms with ``ndarray.dot``, not ``@``
or ``np.linalg.norm``, and carries them as Python floats: the same BLAS
calls and IEEE operations, so the same bits, at less of NumPy's dispatch
cost, which at these sizes rivals the arithmetic.  Every entry point takes
dt as a Python float, so the clock t = i dt, the predicates, the arc and
the event bisection skip NumPy's scalar path too, and a float32 dt cannot
stall the bisection on a coarse clock.  For the same reason the step's two
scalar-times-vector products take dt and dt/2 as 0-d float64 arrays,
which skip the promotion path NumPy 2 takes for a Python float, and the
piecewise flow takes f at each recorded node right after the gradient
there, so the oracle's shared product serves it.

``scipy.integrate`` serves only the quadrature of :func:`visiting_time_1d`
and is imported there, at first use: it adds about 26 MB of resident memory
to a process that the flow itself never needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .objectives import QuadraticObjective, SmoothObjective, _quadratic_min_value

Array = np.ndarray

# Bisection stops when the event bracket is this narrow relative to the event
# time.  Tight enough that detected kinetic-energy maxima in one dimension
# pin the local minimizer to well below 1e-6 in gradient norm.
EVENT_TIME_RELTOL = 1e-12

__all__ = [
    "RestartEvent",
    "ContinuousTrajectory",
    "PiecewiseResult",
    "default_time_step",
    "restart_time_lower_bound",
    "restart_time_upper_bound",
    "curve_length_bound",
    "integrate_conservative",
    "quadratic_closed_form",
    "mmd_restart_time",
    "kinetic_max_restart_time",
    "kinetic_energy_maxima",
    "run_piecewise_conservative",
    "visiting_time_1d",
    "quadratic_fixed_interval_decrease",
    "small_time_energy_check",
    "bound_report",
]


@dataclass
class RestartEvent:
    """A detected restart instant on one conservative segment.

    ``time`` is elapsed since the segment start (positive), ``time_abs`` the
    absolute trajectory time.  ``kinetic_energy`` is E_K just before the
    velocity reset; by energy conservation it equals the objective decrease
    over the segment up to integrator tolerance.  ``x`` and ``v`` hold the
    interpolated state at the event.
    """

    time: float
    time_abs: float
    kinetic_energy: float
    f_value: float
    arc_length: float
    x: Array
    v: Array


@dataclass
class ContinuousTrajectory:
    """Sampled conservative flow with its restart events.

    Sample times are strictly increasing; the velocity is zero at t = 0 and
    at every sample that starts a new segment.
    """

    times: Array
    xs: Array
    vs: Array
    events: List[RestartEvent] = field(default_factory=list)
    energy_drift: Optional[float] = None

    def __post_init__(self):
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")


@dataclass
class PiecewiseResult:
    """Outcome of a piecewise conservative run: trajectory, per-segment data,
    and the theoretical bound checks."""

    trajectory: ContinuousTrajectory
    segments: List[dict]
    reports: List[dict]


def bound_report(name: str, lhs: float, rhs: float, slack: float = 0.0) -> dict:
    return {
        "bound_name": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "slack": float(slack),
        "pass": bool(lhs <= rhs + slack),
    }


def default_time_step(obj: SmoothObjective) -> float:
    """The flow's default Verlet step 1e-3 / sqrt(L), a Python float."""
    return 1e-3 / math.sqrt(obj.lipschitz)


def _check_positive(name: str, value: float) -> float:
    """``value`` as a Python float, for the scan's clock (see the module
    docstring), or ValueError naming it unless it is positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


def _time_step(obj: SmoothObjective, dt) -> float:
    """``dt`` checked by ``_check_positive``, ``default_time_step`` if None."""
    return default_time_step(obj) if dt is None else _check_positive("dt", dt)


def _step_count(name: str, span: float, dt: float) -> int:
    """Number of Verlet steps of size ``dt`` that cover ``span``, the check
    of every span a scan covers: ValueError naming it unless the span is
    positive and finite and span / dt does not overflow."""
    steps = _check_positive(name, span) / dt
    if steps == math.inf:
        raise ValueError(f"{name} / dt overflows: {name} = {span:g}, dt = {dt:g}")
    return math.ceil(steps)


def _check_record_every(record_every) -> None:
    """ValueError unless ``record_every`` is a positive integer."""
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError("record_every must be a positive integer")


def restart_time_lower_bound(mu: float, L: float) -> float:
    """Uniform restart-time bound sqrt(mu) / (8 L) from below for the
    mean-dissipation rule on a strongly convex function."""
    return np.sqrt(mu) / (8.0 * L)


def restart_time_upper_bound(mu: float, L: float) -> float:
    """Uniform restart-time bound 32 L / (mu sqrt(mu)) for the
    mean-dissipation rule on a strongly convex function."""
    return 32.0 * L / (mu * np.sqrt(mu))


def curve_length_bound(mu: float, L: float, t_r: float, gap0: float) -> float:
    """Bound 4 sqrt(2) (L / mu) t_r sqrt(gap0) on the total arc length of
    the piecewise flow from rest, where t_r bounds every restart time and
    gap0 = f(x0) - f*."""
    return 4.0 * np.sqrt(2.0) * (L / mu) * t_r * np.sqrt(gap0)


def _flow_cap(obj: SmoothObjective, dt, cap, has_f_star: bool):
    """A flow's (dt, cap), decided before any oracle call: dt through
    ``_time_step``; ``cap``, else twice ``restart_time_upper_bound`` of a
    strongly convex ``obj``, checked by ``_step_count``; else None, for each
    segment to bootstrap its own from f_star, and ValueError without one."""
    dt = _time_step(obj, dt)
    if cap is None and obj.strong_convexity is not None:
        cap = 2.0 * restart_time_upper_bound(obj.strong_convexity, obj.lipschitz)
    if cap is not None:
        _step_count("cap", cap, dt)
    elif not has_f_star:
        raise ValueError("objective has no strong convexity constant: pass f_star (for the "
                         "coercive-function cap) or an explicit cap")
    return dt, cap


def _check_f_star(f_star: float, f0: float) -> None:
    """ValueError unless f0 - ``f_star``, the gap at a segment start, is
    positive and finite."""
    if not 0.0 < f0 - f_star < math.inf:
        raise ValueError(f"f_star = {f_star:g} must lie below f = {f0:g} at the segment start")


# -- cubic Hermite interpolation ----------------------------------------------


def _hermite(s: float, h: float, y0, d0, y1, d1):
    """Cubic Hermite value at fraction s of an interval of length h."""
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
        + (s3 - 2.0 * s2 + s) * h * d0
        + (-2.0 * s3 + 3.0 * s2) * y1
        + (s3 - s2) * h * d1
    )


def _refine_event(grad, after, node_a, node_b):
    """Bisect an event bracket on Hermite interpolants of (x, v).

    ``node_a``/``node_b`` are (t, x, v, g) at the bracketing integration
    nodes, with g = grad f(x) and the rule's predicate ``after`` false at a
    and true at b.  The velocity is interpolated with the accelerations -g
    of the two nodes.  The predicate is re-evaluated on the interpolated
    state with the exact gradient until the bracket is
    ``EVENT_TIME_RELTOL`` narrow, at least once.  Returns the last state
    tested, (t, x, v, g).
    """
    ta, xa, va, ga = node_a
    tb, xb, vb, gb = node_b
    aa, ab = -ga, -gb
    lo, hi = ta, tb
    h = tb - ta
    while True:
        t = 0.5 * (lo + hi)
        s = (t - ta) / h
        x = _hermite(s, h, xa, va, xb, vb)
        v = _hermite(s, h, va, aa, vb, ab)
        g = grad(x)
        if after(t, float(g.dot(v)), float(v.dot(v))):
            hi = t
        else:
            lo = t
        if not hi - lo > EVENT_TIME_RELTOL * max(hi, 1e-300):
            return t, x, v, g


# -- integration ---------------------------------------------------------------


def _verlet(grad, x0, v0, dt: float, n_steps: int, g0=None):
    """Stormer-Verlet nodes of x'' = -grad f(x) from (x0, v0).

    Yields (i, t, x, v, g, vv) at node 0 and after each of ``n_steps``
    steps of size ``dt``, with t = i dt, g = grad f(x) and vv = v · v.
    ``g0``, when given, is grad f(x0) already known to the caller.  A step
    makes one gradient call, and the half kick (dt/2) g of a node closes
    the step into it and opens the step out of it.  Raises on the first
    non-finite state.

    dt and dt/2 enter the two per-step products as 0-d float64 arrays: the
    same IEEE products as with Python floats, at less of NumPy's dispatch
    cost.  A 0-d float64 operand is not a weak scalar, so the half kick of
    a gradient returned in float32 would be formed in float64; every
    objective in the package returns float64.
    """
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    g = grad(x) if g0 is None else g0
    step, half = np.array(dt, dtype=float), np.array(0.5 * dt, dtype=float)
    hg = half * g
    yield 0, 0.0, x, v, g, float(v.dot(v))
    for i in range(1, n_steps + 1):
        v_half = v - hg
        x = x + step * v_half
        g = grad(x)
        hg = half * g
        v = v_half - hg
        t = i * dt
        vv = float(v.dot(v))
        # A non-finite entry makes v . v or x . x non-finite; a finite state
        # can overflow them too, so only a failed screen is checked entry by
        # entry.
        if not math.isfinite(vv + float(x.dot(x))) and not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise RuntimeError(f"non-finite state at t = {t:g}")
        yield i, t, x, v, g, vv


def integrate_conservative(
    obj: SmoothObjective, x0, v0, dt: float, T: float, record_every: int = 1
) -> ContinuousTrajectory:
    """Fixed-step Stormer-Verlet integration of x'' = -grad f(x) over [0, T].

    Samples every ``record_every``-th node (always including the endpoints)
    and reports the worst mechanical-energy drift max_t |H(t) - H(0)|, which
    shrinks like dt^2.
    """
    dt = _check_positive("dt", dt)
    _check_record_every(record_every)
    if not T > dt:
        raise ValueError("T must exceed dt")
    n_steps = _step_count("T", T, dt)
    nodes = _verlet(obj.gradient, x0, v0, dt, n_steps)
    _, t, x, v, _, vv = next(nodes)
    h0 = 0.5 * vv + obj.value(x)
    drift = 0.0
    times, xs, vs = [t], [x], [v]
    for i, t, x, v, _, vv in nodes:
        drift = max(drift, abs(0.5 * vv + obj.value(x) - h0))
        if i % record_every == 0 or i == n_steps:
            times.append(t)
            xs.append(x)
            vs.append(v)
    return ContinuousTrajectory(
        times=np.asarray(times),
        xs=np.asarray(xs),
        vs=np.asarray(vs),
        energy_drift=drift,
    )


def quadratic_closed_form(lams, x0, t: float):
    """Exact conservative flow of f(x) = sum_i lam_i x_i^2 / 2 from rest.

    In the eigenbasis the coordinates decouple into independent oscillators:
    x_i(t) = x0_i cos(sqrt(lam_i) t), v_i(t) = -x0_i sqrt(lam_i) sin(...),
    and E_K(t) = sum_i lam_i x0_i^2 sin^2(sqrt(lam_i) t) / 2.
    Returns (x, v, E_K).
    """
    lams = np.asarray(lams, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if np.any(lams <= 0):
        raise ValueError("all lam_i must be positive")
    w = np.sqrt(lams)
    x = x0 * np.cos(w * t)
    v = -x0 * w * np.sin(w * t)
    e_k = 0.5 * float(np.sum(lams * x0**2 * np.sin(w * t) ** 2))
    return x, v, e_k


def _mmd_after(t, q, vv):
    # t dE_K/dt - E_K < 0, with q = grad f . v = -dE_K/dt and vv = v . v:
    # past the first local maximum of E_K(t)/t
    return -t * q - 0.5 * vv < 0.0


def _kin_after(t, q, vv):
    # dE_K/dt = -q <= 0: at or past a local maximum of E_K
    return q >= 0.0


def _no_value(x):
    return None


def _scan_from_rest(obj, x0, g0, dt, n_steps, after, samples=None, stride=1, t_offset=0.0, value=_no_value):
    """Integrate from rest at x0 for ``n_steps`` steps, yielding in turn
    each event of the restart rule ``after``.

    ``g0`` is grad f(x0) when the caller already has it, else None.  An
    event fires at a node where ``after`` holds and did not at the node
    before, so after a kinetic event the scan waits for dE_K/dt > 0 again;
    nothing fires at node 0.  Each event is ((t, x, v, g), arc): the state
    refined by bisection and the curve length from x0 to it.  When
    ``samples`` is a list, the scan appends (t_offset + t, x, v, value(x))
    at every ``stride``-th node after node 0 as it moves on from that node,
    so every node recorded before an event lies before it, and ``value``
    comes right after the gradient at the same x.
    """
    grad = obj.gradient
    x0 = np.asarray(x0, dtype=float)
    half_dt = 0.5 * dt
    arc = 0.0
    was_after = True
    prev, prev_speed = None, 0.0
    record_at = stride if samples is not None else -1  # the next node to record; -1 for none
    for i, t, x, v, g, vv in _verlet(grad, x0, np.zeros_like(x0), dt, n_steps, g0):
        speed = math.sqrt(vv)
        node = (t, x, v, g)
        is_after = after(t, float(g.dot(v)), vv)
        if is_after and not was_after:
            state = _refine_event(grad, after, prev, node)
            t_ev, _, v_ev, _ = state
            yield state, arc + 0.5 * (t_ev - prev[0]) * (prev_speed + math.sqrt(v_ev.dot(v_ev)))
        arc += half_dt * (prev_speed + speed)
        if i == record_at:
            samples.append((t_offset + t, x, v, value(x)))
            record_at += stride
        prev, prev_speed, was_after = node, speed, is_after


def _event_from_state(obj, state, arc, t_offset=0.0) -> RestartEvent:
    t_ev, x_ev, v_ev, _ = state
    return RestartEvent(
        time=t_ev,
        time_abs=t_offset + t_ev,
        kinetic_energy=0.5 * float(v_ev.dot(v_ev)),
        f_value=obj.value(x_ev),
        arc_length=arc,
        x=x_ev,
        v=v_ev,
    )


def _segment(obj, x0, g0, f0, dt, cap, f_star, after, samples=None, stride=1, t_offset=0.0, value=_no_value):
    """First event of the rule ``after`` on the flow from rest at x0, with
    g0 = grad f(x0), on a segment that starts at ``t_offset``.

    The scan stops at ``cap``, the flow's from ``_flow_cap``, or if None at
    the finite-restart cap bootstrapped from 16 Verlet steps and the gap
    f0 - ``f_star``, with f0 = f(x0) (only read here), which must be
    positive and finite.  ``samples``, ``stride`` and ``value`` are passed
    to the scan.  Returns (event, grad f at the event, cap), or (None,
    None, cap) at the cap.
    """
    if cap is None:
        _check_f_star(f_star, f0)
        for _, t1, _, _, _, vv1 in _verlet(obj.gradient, x0, np.zeros_like(g0), dt, 16, g0):
            pass
        ek1 = 0.5 * vv1
        if ek1 <= 0.0:
            raise RuntimeError("kinetic energy vanished during the cap bootstrap")
        cap = finite_restart_cap(t1, ek1, f0 - f_star)
    scan = _scan_from_rest(obj, x0, g0, dt, _step_count("cap", cap, dt), after, samples, stride, t_offset, value)
    state, arc = next(scan, (None, None))
    if state is None:
        return None, None, cap
    return _event_from_state(obj, state, arc, t_offset), state[3], cap


def _first_event(obj, x0, dt, cap, f_star, after):
    """First event of the rule ``after`` on the flow from rest at x0, or
    None when the scan reaches the cap; also returns the cap."""
    dt, cap = _flow_cap(obj, dt, cap, f_star is not None)
    x0 = np.asarray(x0, dtype=float)
    g0 = obj.gradient(x0)
    if math.sqrt(g0.dot(g0)) == 0.0:
        raise ValueError("grad f(x0) = 0: the flow from rest is stationary")
    # only the bootstrapped cap reads f(x0), served by g0's product
    event, _, cap = _segment(obj, x0, g0, obj.value(x0) if cap is None else None, dt, cap, f_star, after)
    return event, cap


def mmd_restart_time(
    obj: SmoothObjective,
    x0,
    dt: Optional[float] = None,
    cap: Optional[float] = None,
    f_star: Optional[float] = None,
) -> RestartEvent:
    """First local maximum of the mean dissipation E_K(t)/t from rest.

    Integrates the conservative flow from x0 at rest and returns the first
    instant where t*dE_K/dt - E_K turns negative, bisection-refined on
    interpolated states.  The search is capped at ``cap``, else for strongly
    convex objectives at twice the uniform bound 32 L / (mu sqrt(mu)), else
    by :func:`finite_restart_cap` from the gap f(x0) - ``f_star``, which
    must be positive and finite.  Failing to find the event within the cap
    raises, since it would contradict the restart-time bound.
    """
    event, cap = _first_event(obj, x0, dt, cap, f_star, _mmd_after)
    if event is None:
        raise RuntimeError(f"no mean-dissipation maximum within the cap {cap:g}; this "
                           "contradicts the restart-time upper bound")
    return event


def kinetic_max_restart_time(
    obj: SmoothObjective,
    x0,
    dt: Optional[float] = None,
    cap: Optional[float] = None,
    f_star: Optional[float] = None,
) -> Optional[RestartEvent]:
    """First local maximum of the kinetic energy from rest, or None.

    Returns the refined event where dE_K/dt crosses from positive to
    negative.  In more than one dimension the kinetic energy of the
    conservative flow need not attain a local maximum (incommensurate
    frequencies), so reaching the cap without an event returns None rather
    than raising.
    """
    return _first_event(obj, x0, dt, cap, f_star, _kin_after)[0]


def kinetic_energy_maxima(
    obj: SmoothObjective,
    x0,
    horizon: float,
    dt: Optional[float] = None,
) -> List[RestartEvent]:
    """All local maxima of E_K(t) on [0, horizon] for the flow from rest.

    Used to check that a kinetic-energy maximum is never a mean-dissipation
    maximum: at each returned event t*dE_K/dt - E_K = -E_K < 0.
    """
    dt = _time_step(obj, dt)
    events = _scan_from_rest(obj, x0, None, dt, _step_count("horizon", horizon, dt), _kin_after)
    return [_event_from_state(obj, state, np.nan) for state, _ in events]


def run_piecewise_conservative(
    obj: SmoothObjective,
    x0,
    dt: Optional[float] = None,
    n_restarts: int = 5,
    f_star: Optional[float] = None,
    cap: Optional[float] = None,
    record_every: int = 8,
) -> PiecewiseResult:
    """Piecewise conservative flow: evolve from rest, restart at each
    mean-dissipation maximum, repeat ``n_restarts`` times.

    Returns the trajectory sampled at every ``record_every``-th Verlet node
    of each segment and at each restart (velocity reset to zero), the
    per-segment decrease data, and the bound reports: restart-time
    lower/upper bounds per segment, per-restart objective contraction, the
    global floor-rate bound, and the total-arc-length bound.  Bound checks
    that need mu or f* are emitted only when those are available (f* is
    computed exactly for quadratics when not supplied).  A supplied
    ``f_star`` must lie below f(x0), whatever the cap: ValueError, once
    f(x0) is known, unless f(x0) - ``f_star`` is positive and finite.
    """
    exact_f_star = f_star is None and isinstance(obj, QuadraticObjective)
    dt, cap = _flow_cap(obj, dt, cap, f_star is not None or exact_f_star)
    _check_record_every(record_every)
    if not isinstance(n_restarts, (int, np.integer)) or n_restarts < 0:
        raise ValueError("n_restarts must be a non-negative integer")
    x0 = np.asarray(x0, dtype=float)
    if exact_f_star:
        f_star = _quadratic_min_value(obj)
    mu, L = obj.strong_convexity, obj.lipschitz
    t_r = None if mu is None else restart_time_upper_bound(mu, L)
    # objective_rate needs f at every sample; the scan takes it right after
    # the gradient at the same point, which the oracle's product serves.
    rate = t_r is not None and f_star is not None
    sample_value = obj.value if rate else _no_value

    g0 = obj.gradient(x0)
    f0 = obj.value(x0)
    if f_star is not None and not exact_f_star:
        _check_f_star(f_star, f0)
    grad_floor = 1e-14 * max(1.0, math.sqrt(g0.dot(g0)))
    samples = [(0.0, x0.copy(), np.zeros_like(x0), f0)]  # (t, x, v, f), f None when not needed
    events: List[RestartEvent] = []
    segments: List[dict] = []
    reports: List[dict] = []

    x, g, t_abs = x0, g0, 0.0  # the current segment's start, grad f there and its time
    total_arc = 0.0
    f_prev = f0
    for seg in range(n_restarts):
        if math.sqrt(g.dot(g)) <= grad_floor:
            break
        event, g, seg_cap = _segment(obj, x, g, f_prev, dt, cap, f_star, _mmd_after, samples, record_every, t_abs,
                                     sample_value)
        if event is None:
            raise RuntimeError(f"segment {seg}: no restart within the cap {seg_cap:g}")
        t_abs = event.time_abs
        samples.append((t_abs, event.x, np.zeros_like(event.x), event.f_value))  # restart: velocity reset
        events.append(event)
        total_arc += event.arc_length
        f_now = event.f_value
        segments.append({
            "segment": seg, "t_start": event.time_abs - event.time, "t_end": event.time_abs,
            "restart_time": event.time, "f_start": f_prev, "f_end": f_now, "f_decrease": f_prev - f_now,
            "kinetic_energy": event.kinetic_energy, "arc_length": event.arc_length,
        })
        if t_r is not None:
            reports.append(bound_report(f"restart_time_lower[{seg}]", restart_time_lower_bound(mu, L), event.time,
                                        slack=1e-4 * event.time))
            reports.append(bound_report(f"restart_time_upper[{seg}]", event.time, t_r, slack=1e-4 * t_r))
            if f_star is not None:
                gap_prev = f_prev - f_star
                reports.append(bound_report(f"decrease_per_restart[{seg}]", f_now - f_star,
                                            gap_prev / (1.0 + mu / L), slack=1e-7 * max(gap_prev, 1e-300)))
        f_prev = f_now
        x = event.x

    times, xs, vs, fs = zip(*samples)
    times = np.asarray(times)
    traj = ContinuousTrajectory(times=times, xs=np.asarray(xs), vs=np.asarray(vs), events=events)

    if rate:
        gap0 = f0 - f_star
        factor = (1.0 + mu / L) ** np.floor(times / t_r)
        gaps = np.array(fs) - f_star
        reports.append(bound_report("objective_rate", float(np.max(gaps * factor)), gap0,
                                    slack=1e-7 * max(gap0, 1e-300)))
        length_rhs = curve_length_bound(mu, L, t_r, max(gap0, 0.0))
        reports.append(bound_report("curve_length", total_arc, length_rhs, slack=1e-7 * max(length_rhs, 1e-300)))
    return PiecewiseResult(trajectory=traj, segments=segments, reports=reports)


def visiting_time_1d(f: Callable[[float], float], x0: float, x_star: float, df=None) -> float:
    """Travel time of the 1D conservative flow from rest at x0 to x_star.

    By energy conservation the speed at height y is sqrt(2(f(x0) - f(y))),
    so the time is the integral of the reciprocal speed.  The inverse
    square-root endpoint singularity at x0 is removed by the substitution
    y = x0 +/- u^2 before adaptive quadrature (absolute tolerance 1e-8).

    Requires f'(x0) != 0 (otherwise the singularity is not integrable) and
    f(x0) > f(y) strictly between x0 and x_star; |f'(x0)| counts as 0 at or
    below 1e-12 of the mean slope |f(x0) - f(x_star)| / |x_star - x0|.
    """
    x0 = float(x0)
    x_star = float(x_star)
    span = x_star - x0
    if span == 0.0:
        raise ValueError("x_star must differ from x0")
    f0 = float(f(x0))
    if df is not None:
        fp0 = float(df(x0))
    else:
        step = 1e-7 * (1.0 + abs(x0))
        fp0 = (float(f(x0 + step)) - float(f(x0 - step))) / (2.0 * step)
    if abs(fp0) <= 1e-12 * abs(f0 - float(f(x_star))) / abs(span):
        raise ValueError("f'(x0) = 0: the endpoint singularity is not integrable")
    interior = x0 + span * np.linspace(1.0 / 513.0, 512.0 / 513.0, 512)
    if not all(f0 > float(f(y)) for y in interior):
        raise ValueError("f(x0) must exceed f strictly between x0 and x_star")
    sgn = 1.0 if span > 0 else -1.0
    limit_value = np.sqrt(2.0 / abs(fp0))

    def integrand(u):
        d = f0 - float(f(x0 + sgn * u * u))
        if d <= 0.0:
            return limit_value  # only at the u ~ 0 roundoff boundary
        return 2.0 * u / np.sqrt(2.0 * d)

    from scipy.integrate import quad

    val, _ = quad(integrand, 0.0, np.sqrt(abs(span)), epsabs=1e-10, epsrel=1e-10, limit=200)
    return float(val)


def quadratic_fixed_interval_decrease(lams, x0) -> dict:
    """Objective decrease of the conservative flow on a diagonal quadratic
    after the fixed interval pi / (2 sqrt(lam_max)).

    Evaluates f(x(T)) with the closed form and checks it against
    cos^2((pi/2) sqrt(lam_min/lam_max)) * f(x0).  Returns a bound report
    with the achieved ratio under the key "ratio".
    """
    lams = np.asarray(lams, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if np.any(lams <= 0):
        raise ValueError("all lam_i must be positive")
    lam_min, lam_max = float(lams.min()), float(lams.max())
    T = np.pi / (2.0 * np.sqrt(lam_max))
    x_T, _, _ = quadratic_closed_form(lams, x0, T)
    f0 = 0.5 * float(np.sum(lams * x0**2))
    f_T = 0.5 * float(np.sum(lams * x_T**2))
    bound = np.cos(0.5 * np.pi * np.sqrt(lam_min / lam_max)) ** 2
    rep = bound_report(
        "fixed_interval_decrease", f_T, bound * f0, slack=1e-12 * (1.0 + abs(bound * f0))
    )
    rep["ratio"] = f_T / f0 if f0 > 0 else 0.0
    rep["cos_bound"] = float(bound)
    return rep


def small_time_energy_check(obj: SmoothObjective, x0, dt: Optional[float] = None) -> dict:
    """Sandwich check on the early kinetic-energy growth.

    For strongly convex objectives, E_K(t) lies between |g0|^2 t^2 / 8 and
    (25/32) |g0|^2 t^2 for all t up to sqrt(mu)/(2L), within the slack
    1e-6 |g0|^2 for integrator error.  The flow is integrated with ``dt``
    cut to at most a 25th of that horizon.  Returns a report with the worst
    margins; a start at the minimizer is flagged as degenerate and skipped.
    """
    mu = obj.strong_convexity
    if mu is None:
        raise ValueError("small-time sandwich requires a strong convexity constant")
    dt = _time_step(obj, dt)
    x0 = np.asarray(x0, dtype=float)
    g0 = obj.gradient(x0)
    gsq = float(g0.dot(g0))
    if gsq == 0.0:
        return {"bound_name": "kinetic_energy_small_time", "status": "degenerate", "pass": True}
    T = np.sqrt(mu) / (2.0 * obj.lipschitz)
    dt = min(dt, T / 25)
    traj = integrate_conservative(obj, x0, np.zeros_like(x0), dt, T)
    ts = traj.times[1:]
    eks = 0.5 * np.einsum("ij,ij->i", traj.vs[1:], traj.vs[1:])
    slack = 1e-6 * gsq
    lower = gsq * ts**2 / 8.0
    upper = (25.0 / 32.0) * gsq * ts**2
    lo_margin = float(np.max(lower - eks))  # <= slack required
    hi_margin = float(np.max(eks - upper))
    return {
        "bound_name": "kinetic_energy_small_time",
        "lhs": max(lo_margin, hi_margin),
        "rhs": 0.0,
        "slack": slack,
        "pass": bool(lo_margin <= slack and hi_margin <= slack),
        "horizon": float(T),
        "grid_points": int(len(ts)),
    }


def finite_restart_cap(t1: float, ek_t1: float, gap: float) -> float:
    """Upper bound (t1 / E_K(t1)) (f(x0) - f*) on the mean-dissipation
    restart time of a coercive objective from rest at x0, from any instant
    t1 with positive kinetic energy and the gap f(x0) - f*."""
    if ek_t1 <= 0.0:
        raise ValueError("E_K(t1) must be positive")
    return (t1 / ek_t1) * gap
