"""In-memory spans around consopt's public functions, for the traced run.

A span is one call of a wrapped function: its name, start and end times
(``time.perf_counter``) and the index of the span that was open when it
started.  Spans are appended to flat arrays, so a traced pass of a million
oracle calls costs a few tens of megabytes, and are written out once, at
exit.  Self times are derived afterwards: a span's duration minus the
durations of its direct children.

Wrappers are installed by replacing module attributes (``Instrumented``) and
removed again when the traced pass ends; nothing in ``consopt`` is edited.
The oracle is wrapped per objective with ``dataclasses.replace``, so only
objectives built while tracing is installed are counted.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

from consopt import composite, continuous, discrete, harness, objectives
from consopt.discrete import DivergenceError

GRADIENT = "objectives.gradient"
VALUE = "objectives.value"
SUBGRADIENT = "objectives.minimal_norm_subgradient"
SHOULD_RESTART = "discrete.should_restart"
CROSSING = "composite.sign_crossing_projection"
BUILD = "harness.build_instance"
FSTAR = "harness.estimate_fstar"
WRITE_CSV = "harness.write_csv"
FLOW = "continuous.run_piecewise_conservative"
REFINE = "continuous._refine_event"
RUN_PREFIX = "run."  # runner spans are named run.<method>, e.g. run.rcm-grad


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _nag_sc_label(args, kwargs):
    mu = _arg(args, kwargs, 3, "mu")
    return "nag-sc" if mu == args[0].strong_convexity else "nag-sc-under"


# (module, attribute) of every runner, with the method name its call runs.
RUNNERS = (
    (discrete, "gradient_descent_run", lambda a, k: "gd"),
    (discrete, "nag_c_run", lambda a, k: "nag-c"),
    (discrete, "nag_sc_run", _nag_sc_label),
    (discrete, "nag_c_restart_run", lambda a, k: "nag-c-restart"),
    (discrete, "rcm_run", lambda a, k: "rcm-" + _arg(a, k, 3, "criterion")),
    (composite, "fista_run", lambda a, k: "fista"),
    (composite, "fista_restart_run", lambda a, k: "fista-restart"),
    (composite, "rcm_comp_run", lambda a, k: "rcm-comp-" + _arg(a, k, 3, "criterion")),
)


@dataclasses.dataclass
class RunNote:
    """What a runner's trace says about the run behind span ``span``."""

    span: int
    method: str
    iters: int
    restarts: int
    crossings: int
    wasted_grads: int
    argmin: int


def _wasted_trial_gradients(method, restarts):
    """Trial gradients a run computed and then threw away on a restart.

    ``rcm-grad`` and ``rcm-mmd-dr`` evaluate the gradient at the trial point
    before the restart test and drop it when the test fires.  NAG-C-restart
    drops its candidate gradient when it fires with nonzero momentum, that
    is, unless the previous row restarted or it is the first iteration.
    """
    if method in ("rcm-grad", "rcm-mmd-dr"):
        return int(restarts.sum())
    if method == "nag-c-restart":
        return int(np.sum(restarts[2:] & ~restarts[1:-1]))
    return 0


class Tracer:
    """Spans of one traced pass, kept in memory until ``save``."""

    def __init__(self):
        self.ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.runs = []
        self._open = [-1]

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.ids)
        return nid

    def _begin(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i):
        self.end[i] = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(i)

        return traced

    def wrap_runner(self, label_of, fn):
        """A runner whose span is named after its method and whose trace
        (or partial trace on divergence) is summarised in ``self.runs``."""

        def traced(*args, **kwargs):
            method = label_of(args, kwargs)
            i = self._begin(self._id(RUN_PREFIX + method))
            trace = None
            try:
                trace = fn(*args, **kwargs)
            except DivergenceError as err:
                trace = err.partial_trace
                raise
            finally:
                self._finish(i)
                if trace is not None:
                    self.runs.append(self._note(i, method, trace))
            return trace

        return traced

    @staticmethod
    def _note(i, method, trace):
        restarts = np.asarray(trace.restarts, dtype=bool)
        crossings = getattr(trace, "crossings", None)
        return RunNote(
            span=i,
            method=method,
            iters=len(trace) - 1,
            restarts=int(restarts.sum()),
            crossings=0 if crossings is None else int(np.sum(crossings)),
            wasted_grads=_wasted_trial_gradients(method, restarts),
            argmin=int(np.argmin(trace.fvals)),
        )

    def oracle(self, smooth):
        """``smooth`` with its value and gradient callables traced."""
        return dataclasses.replace(
            smooth,
            value=self.wrap(VALUE, smooth.value),
            gradient=self.wrap(GRADIENT, smooth.gradient),
        )

    def traced_objective(self, obj):
        """Trace the oracle of a smooth or composite objective."""
        if isinstance(obj, objectives.CompositeObjective):
            return dataclasses.replace(obj, smooth=self.oracle(obj.smooth))
        return self.oracle(obj)

    def arrays(self):
        """Name table, and name id, parent, start and end per span."""
        return (
            sorted(self.ids, key=self.ids.get),
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def save(self, path):
        """Write every span and the name table to one ``.npz`` file."""
        names, name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(names), name_id=name_id, parent=parent, start=start, end=end)


class Instrumented:
    """Context manager that routes consopt's public functions through a
    tracer by replacing module attributes, and puts them back on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self):
        t = self.tracer
        build = harness.build_instance

        def build_traced(config, rep):
            obj, x0 = build(config, rep)
            return t.traced_objective(obj), x0

        self._patch(harness, "build_instance", t.wrap(BUILD, build_traced))
        self._patch(harness, "estimate_fstar", t.wrap(FSTAR, harness.estimate_fstar))
        self._patch(harness, "write_csv", t.wrap(WRITE_CSV, harness.write_csv))
        for module, attr, label_of in RUNNERS:
            self._patch(module, attr, t.wrap_runner(label_of, getattr(module, attr)))
        restart = t.wrap(SHOULD_RESTART, discrete.should_restart)
        self._patch(discrete, "should_restart", restart)
        self._patch(composite, "should_restart", restart)
        subgrad = t.wrap(SUBGRADIENT, objectives.minimal_norm_subgradient)
        self._patch(objectives, "minimal_norm_subgradient", subgrad)
        self._patch(composite, "minimal_norm_subgradient", subgrad)
        self._patch(composite, "sign_crossing_projection",
                    t.wrap(CROSSING, composite.sign_crossing_projection))
        self._patch(continuous, "run_piecewise_conservative",
                    t.wrap(FLOW, continuous.run_piecewise_conservative))
        # Private, but the only boundary between a Verlet step and the
        # bisection that locates a restart event; without it the refinement
        # counts read 0.
        if hasattr(continuous, "_refine_event"):
            self._patch(continuous, "_refine_event", t.wrap(REFINE, continuous._refine_event))
        return t

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False
