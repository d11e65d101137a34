"""Benchmark harness: seeded experiment families, runners, and CSV output.

Each repetition draws a fresh problem instance from seed ``base_seed + rep``
(PCG64 via ``numpy.random.default_rng``; the starting point for quadratic
problems comes from the companion stream ``default_rng([base_seed + rep, 1])``,
logistic and log-sum-exp problems start at the origin).  All methods within a
repetition share the identical instance and starting point, so row streams
are a pure function of the configuration.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import composite as comp
from . import discrete as disc
from .objectives import (
    CompositeObjective,
    QuadraticObjective,
    SmoothObjective,
    gen_logistic_instance,
    gen_logsumexp_instance,
    gen_random_quadratic,
    l1_weight_rule,
    logistic_objective,
    logsumexp_objective,
)

PROBLEMS = ("quadratic", "logistic", "logsumexp")


@dataclass(frozen=True)
class Method:
    """A registered method.

    ``run(obj, x0, step, max_iter)`` calls the runner, looked up on its
    module at call time; ``step`` names the step size it takes ("h" for the
    conservative step, "s" for the gradient step).  ``needs_mu`` methods
    read the objective's strong convexity constant, which only quadratic
    problems carry; ``composite`` methods run on l1-composite objectives
    only, and ``rosters`` lists the problems whose default roster (a
    benchmark figure) includes the method.
    """

    run: Callable
    step: str
    needs_mu: bool = False
    composite: bool = False
    rosters: tuple = PROBLEMS


def _rcm(criterion):
    return Method(lambda obj, x0, h, k: disc.rcm_run(obj, x0, h, criterion, k), "h")


def _rcm_comp(criterion):
    return Method(lambda obj, x0, h, k: comp.rcm_comp_run(obj, x0, h, criterion, k), "h", composite=True)


# Default rosters list methods in this order.
METHODS = {
    "gd": Method(lambda obj, x0, s, k: disc.gradient_descent_run(obj, x0, s, k), "s",
                 rosters=("logistic", "logsumexp")),
    "nag-c": Method(lambda obj, x0, s, k: disc.nag_c_run(obj, x0, s, k), "s", rosters=()),
    "nag-sc": Method(lambda obj, x0, s, k: disc.nag_sc_run(obj, x0, s, obj.strong_convexity, k), "s",
                     needs_mu=True, rosters=("quadratic",)),
    "nag-sc-under": Method(lambda obj, x0, s, k: disc.nag_sc_run(obj, x0, s, obj.strong_convexity / 3.0, k), "s",
                           needs_mu=True, rosters=("quadratic",)),
    "nag-c-restart": Method(lambda obj, x0, s, k: disc.nag_c_restart_run(obj, x0, s, k), "s"),
    "rcm-grad": _rcm("grad"),
    "rcm-mmd-dr": _rcm("mmd-dr"),
    "rcm-mmd-r": _rcm("mmd-r"),
    "rcm-kin": _rcm("kin"),
    "fista": Method(lambda obj, x0, s, k: comp.fista_run(obj, x0, s, k), "s", composite=True),
    "fista-restart": Method(lambda obj, x0, s, k: comp.fista_restart_run(obj, x0, s, k), "s", composite=True),
    "rcm-comp-grad": _rcm_comp("grad"),
    "rcm-comp-kin": _rcm_comp("kin"),
    "rcm-comp-mmd-r": _rcm_comp("mmd-r"),
    "rcm-comp-mmd-dr": _rcm_comp("mmd-dr"),
}

SMOOTH_METHODS = tuple(name for name, m in METHODS.items() if not m.composite)
COMPOSITE_METHODS = tuple(name for name, m in METHODS.items() if m.composite)

# Method rosters of the benchmark figures.
DEFAULT_METHODS = {
    (p, l1): tuple(name for name, m in METHODS.items() if m.composite == l1 and p in m.rosters)
    for p in PROBLEMS
    for l1 in (False, True)
}

CSV_HEADER = "method,rep,iter,fval,gap,residual,restart"

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "PROBLEMS",
    "METHODS",
    "SMOOTH_METHODS",
    "COMPOSITE_METHODS",
    "DEFAULT_METHODS",
    "build_instance",
    "run_experiment",
    "estimate_fstar",
    "write_csv",
    "read_csv",
    "write_report",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark family: problem, sizes, repetitions, and methods.

    ``h`` and ``s`` override the default step sizes h = 1/sqrt(L) and
    s = 1/L.  ``methods`` defaults to the roster of the corresponding
    benchmark figure.
    """

    problem: str
    l1: bool = False
    n: int = 100
    m: int = 200
    reps: int = 1
    max_iter: int = 1000
    base_seed: int = 0
    methods: tuple = ()
    h: Optional[float] = None
    s: Optional[float] = None
    lam_lo: float = 0.03
    lam_hi: float = 15.0
    rho: float = 1.0

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        for name in ("n", "m", "reps", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        for name in ("h", "s"):
            step = getattr(self, name)
            if step is not None and not step > 0:
                raise ValueError(f"{name} must be positive")
        methods = tuple(self.methods) or DEFAULT_METHODS[(self.problem, self.l1)]
        object.__setattr__(self, "methods", methods)
        for name in methods:
            if name not in METHODS or METHODS[name].composite != self.l1:
                kind = "composite" if self.l1 else "smooth"
                raise ValueError(f"{name!r} is not a registered {kind} method")
            if METHODS[name].needs_mu and self.problem != "quadratic":
                raise ValueError(f"{name!r} needs a strong convexity constant, which {self.problem} lacks")


@dataclass(frozen=True)
class ResultRow:
    method: str
    rep: int
    iter: int
    fval: float
    gap: float
    residual: float
    restart: int


def build_instance(config: ExperimentConfig, rep: int):
    """Instance, starting point, and smooth objective for one repetition.

    Returns (objective, x0) where the objective is composite when
    ``config.l1`` is set.
    """
    seed = config.base_seed + rep
    if config.problem == "quadratic":
        smooth = gen_random_quadratic(config.n, config.lam_lo, config.lam_hi, seed)
        x0 = np.random.default_rng([seed, 1]).standard_normal(config.n)
        gamma_data = smooth.b
    elif config.problem == "logistic":
        A, y, _ = gen_logistic_instance(config.n, config.m, seed)
        smooth = logistic_objective(A, y)
        x0 = np.zeros(config.n)
        gamma_data = None
    else:
        A, b = gen_logsumexp_instance(config.n, config.m, seed, rho=config.rho)
        smooth = logsumexp_objective(A, b, config.rho)
        x0 = np.zeros(config.n)
        gamma_data = None
    if not config.l1:
        return smooth, x0
    if gamma_data is None:
        gamma_data = smooth.gradient(np.zeros(config.n))
    gamma = l1_weight_rule(config.problem, gamma_data)
    return CompositeObjective(smooth=smooth, l1_weight=gamma), x0


def _run_method(name: str, obj, x0, config: ExperimentConfig):
    method = METHODS[name]
    L = obj.smooth.lipschitz if method.composite else obj.lipschitz
    if method.step == "h":
        step = config.h if config.h is not None else 1.0 / np.sqrt(L)
    else:
        step = config.s if config.s is not None else 1.0 / L
    return method.run(obj, x0, step, config.max_iter)


def estimate_fstar(obj, x0, budget: int, s: Optional[float] = None) -> float:
    """Lower envelope estimate of the minimum value for the gap column.

    Quadratic objectives are solved exactly (linear solve, with a least
    squares fallback plus one iterative refinement step if the solve fails).
    Everything else takes the minimum value along a restarted reference run
    (NAG-C-restart for smooth problems, FISTA-restart for composites) of ten
    times the experiment budget.  A reference run that reaches an exact
    fixed point writes its remaining rows as copies of the last one, without
    oracle calls, so it costs only the iterations up to that point.
    """
    if isinstance(obj, QuadraticObjective):
        try:
            x_min = np.linalg.solve(obj.A, -obj.b)
        except np.linalg.LinAlgError:
            x_min = np.linalg.lstsq(obj.A, -obj.b, rcond=None)[0]
            r = -obj.b - obj.A @ x_min
            x_min = x_min + np.linalg.lstsq(obj.A, r, rcond=None)[0]
        return obj.value(x_min)
    if isinstance(obj, CompositeObjective):
        L = obj.smooth.lipschitz
        trace = comp.fista_restart_run(obj, x0, s if s is not None else 1.0 / L, 10 * budget)
    else:
        L = obj.lipschitz
        trace = disc.nag_c_restart_run(obj, x0, s if s is not None else 1.0 / L, 10 * budget)
    return float(np.min(trace.fvals))


def _rep_rows(config: ExperimentConfig, rep: int) -> List[ResultRow]:
    obj, x0 = build_instance(config, rep)
    f_star = estimate_fstar(obj, x0, config.max_iter, s=config.s)
    rows = []
    clipped = 0
    for name in config.methods:
        try:
            trace = _run_method(name, obj, x0, config)
            diverged = False
        except disc.DivergenceError as err:
            trace = err.partial_trace
            diverged = True
        for i in range(len(trace)):
            gap = trace.fvals[i] - f_star
            if gap < 0.0:
                clipped += 1
                gap = 0.0
            rows.append(
                ResultRow(
                    method=name,
                    rep=rep,
                    iter=int(trace.iters[i]),
                    fval=float(trace.fvals[i]),
                    gap=float(gap),
                    residual=float(trace.residuals[i]),
                    restart=int(trace.restarts[i]),
                )
            )
        if diverged:
            rows.append(
                ResultRow(
                    method=name,
                    rep=rep,
                    iter=int(trace.iters[-1]) + 1,
                    fval=float("nan"),
                    gap=float("nan"),
                    residual=float("nan"),
                    restart=0,
                )
            )
    if clipped:
        warnings.warn(
            f"rep {rep}: clipped {clipped} slightly negative gap values to 0",
            stacklevel=2,
        )
    return rows


def run_experiment(config: ExperimentConfig, parallel: bool = False) -> List[ResultRow]:
    """Run every configured method on every repetition and return the rows.

    Repetitions are independent; with ``parallel=True`` they run on a thread
    pool and the merged row list is identical to the sequential one.  A
    diverging method contributes its truncated rows plus one NaN diagnostic
    row.
    """
    if parallel and config.reps > 1:
        with ThreadPoolExecutor() as pool:
            per_rep = list(pool.map(lambda r: _rep_rows(config, r), range(config.reps)))
    else:
        per_rep = [_rep_rows(config, rep) for rep in range(config.reps)]
    rows: List[ResultRow] = []
    for chunk in per_rep:
        rows.extend(chunk)
    return rows


def write_csv(rows, path) -> None:
    """Rows to CSV with round-trip float formatting."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.method},{r.rep},{r.iter},{r.fval!r},{r.gap!r},{r.residual!r},{r.restart}\n"
            )


def read_csv(path) -> List[ResultRow]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            method, rep, it, fval, gap, resid, restart = line.rstrip("\n").split(",")
            rows.append(
                ResultRow(
                    method=method,
                    rep=int(rep),
                    iter=int(it),
                    fval=float(fval),
                    gap=float(gap),
                    residual=float(resid),
                    restart=int(restart),
                )
            )
    return rows


def write_report(report, path) -> None:
    """Bound-check report(s) to JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
