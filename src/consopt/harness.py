"""Benchmark harness: seeded experiment families, runners, and CSV output.

Each repetition draws a fresh problem instance from seed ``base_seed + rep``
(PCG64 via ``numpy.random.default_rng``; the starting point for quadratic
problems comes from the companion stream ``default_rng([base_seed + rep, 1])``,
logistic and log-sum-exp problems start at the origin).  All methods within a
repetition share the identical instance and starting point, so row streams
are a pure function of the configuration.

The l1-logistic dual bound runs on NumPy alone: it forms the dual point
with the logistic gradient's own sigmoid and takes SciPy's definition of
the entropy terms (:func:`_entr`) without SciPy, so only a log-sum-exp
family loads ``scipy.special``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import composite as comp
from . import discrete as disc
from .objectives import (
    CompositeObjective,
    LogisticObjective,
    QuadraticObjective,
    SmoothObjective,
    _check_positive,
    _exp_neg_abs,
    _quadratic_min_value,
    _sigmoid_neg,
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
    conservative step, "s" for the gradient step).  Methods with a
    ``mu_divisor`` run NAG-SC with mu the objective's strong convexity
    constant divided by it, which only quadratic problems carry;
    ``composite`` methods run on l1-composite objectives
    only, and ``rosters`` lists the problems whose default roster (a
    benchmark figure) includes the method.
    """

    run: Callable
    step: str
    mu_divisor: Optional[float] = None
    composite: bool = False
    rosters: tuple = PROBLEMS


def _rcm(criterion):
    return Method(lambda obj, x0, h, k: disc.rcm_run(obj, x0, h, criterion, k), "h")


def _nag_sc(mu_divisor):
    return Method(lambda obj, x0, s, k: disc.nag_sc_run(obj, x0, s, obj.strong_convexity / mu_divisor, k), "s",
                  mu_divisor=mu_divisor, rosters=("quadratic",))


def _rcm_comp(criterion):
    return Method(lambda obj, x0, h, k: comp.rcm_comp_run(obj, x0, h, criterion, k), "h", composite=True)


# Default rosters list methods in this order.
METHODS = {
    "gd": Method(lambda obj, x0, s, k: disc.gradient_descent_run(obj, x0, s, k), "s",
                 rosters=("logistic", "logsumexp")),
    "nag-c": Method(lambda obj, x0, s, k: disc.nag_c_run(obj, x0, s, k), "s", rosters=()),
    "nag-sc": _nag_sc(1.0),
    "nag-sc-under": _nag_sc(3.0),
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

    Conservative methods take the step h = 1/sqrt(L); ``s`` overrides the
    gradient step s = 1/L of the other methods, not of the f* reference.
    ``methods`` defaults to the roster of the corresponding benchmark
    figure.
    """

    problem: str
    l1: bool = False
    n: int = 100
    m: int = 200
    reps: int = 1
    max_iter: int = 1000
    base_seed: int = 0
    methods: tuple = ()
    s: Optional[float] = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        for name in ("n", "m", "reps", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if self.s is not None:
            _check_positive("s", self.s)
        methods = tuple(self.methods) or DEFAULT_METHODS[(self.problem, self.l1)]
        object.__setattr__(self, "methods", methods)
        for name in methods:
            if name not in METHODS or METHODS[name].composite != self.l1:
                kind = "composite" if self.l1 else "smooth"
                raise ValueError(f"{name!r} is not a registered {kind} method")
            if METHODS[name].mu_divisor is not None and self.problem != "quadratic":
                raise ValueError(f"{name!r} needs a strong convexity constant, which {self.problem} lacks")


class ResultRow(NamedTuple):
    """One recorded iteration of one method on one repetition.

    ``fval`` and ``residual`` are the trace's value and (sub)gradient norm
    at iterate ``iter``, and ``restart`` is 1 where a restart fired, else 0.
    ``gap`` is max(fval - f*, 0) with f* from :func:`estimate_fstar`; a
    negative difference is roundoff around f* and is clipped to 0, and the
    clipped count is reported by :func:`run_experiment`.  A run that
    diverged ends in one diagnostic row at the next iteration whose fval,
    gap and residual are NaN and whose restart is 0.  Every field is a
    plain Python ``str``, ``int`` or ``float``, never a NumPy scalar.
    """

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
    ``config.l1`` is set, with the l1 weight ``l1_weight_rule`` gives for
    grad g(0), which for the quadratic is b bit for bit.
    """
    seed = config.base_seed + rep
    if config.problem == "quadratic":
        smooth = gen_random_quadratic(config.n, 0.03, 15.0, seed)
        x0 = np.random.default_rng([seed, 1]).standard_normal(config.n)
    elif config.problem == "logistic":
        A, y, _ = gen_logistic_instance(config.n, config.m, seed)
        smooth = logistic_objective(A, y)
        x0 = np.zeros(config.n)
    else:
        A, b = gen_logsumexp_instance(config.n, config.m, seed)
        smooth = logsumexp_objective(A, b, 1.0)
        x0 = np.zeros(config.n)
    if not config.l1:
        return smooth, x0
    gamma = l1_weight_rule(config.problem, smooth.gradient(np.zeros(config.n)))
    return CompositeObjective(smooth=smooth, l1_weight=gamma), x0


def _step(method: Method, obj, config: ExperimentConfig) -> float:
    L = obj.smooth.lipschitz if method.composite else obj.lipschitz
    return 1.0 / math.sqrt(L) if method.step == "h" else (config.s or 1.0 / L)


def _run_method(name: str, obj, x0, config: ExperimentConfig):
    method = METHODS[name]
    return method.run(obj, x0, _step(method, obj, config), config.max_iter)


# Width of the dual certificate, in ulps of |f*|.  f and D are sums of m
# rounded terms.  Along 3000-step FISTA-restart runs on the l1-logistic
# test instances and the 20 criterion-08 reps, D exceeded the smallest f
# by up to 2 ulps.  A gap of twice that is reached whatever the rounding,
# and on the criterion-08 family every reference still stops after its
# minimum.
DUAL_GAP_ULPS = 4


def _entr(p):
    """Elementwise entropy term with ``scipy.special.entr``'s definition:
    -p log p for p > 0, 0 at p = 0 and -inf below (NaN stays NaN).  The log
    is taken only where p > 0, and the product only of p clipped at 0, so
    no RuntimeWarning fires."""
    q = np.maximum(p, 0.0)
    log_q = np.log(q, out=np.zeros_like(q), where=q > 0.0)
    return np.where(p < 0.0, -np.inf, -q * log_q)


def _logistic_l1_dual(f: CompositeObjective, x) -> float:
    """Fenchel dual value of l1-logistic regression at the dual point built
    from x: a lower bound on f* by weak duality, up to rounding.

    theta = sigmoid(A'x) - y is the dual point that is optimal when x is,
    and c = min(1, gamma / ||A theta||_inf) scales it into the dual feasible
    set ||A u||_inf <= gamma (the rescaling of Ndiaye, Fercoq, Gramfort and
    Salmon, "Gap Safe screening rules for sparsity enforcing penalties",
    JMLR 18, 2017).  With p = y + c theta, the value is
    sum entr(p) + entr(1 - p), entr(p) = -p log p with entr(0) = 0
    (:func:`_entr`).
    """
    A, y = f.smooth.A, f.smooth.y
    # sigmoid(t) - y as the gradient forms it, and 1 - p as (1 - y) - c theta,
    # so that neither loses the small entries of 1 - p where p is near 1.
    t = A.T.dot(x)
    theta = (1.0 - y) - _sigmoid_neg(t, _exp_neg_abs(t))
    norm = float(np.abs(A.dot(theta)).max())
    ctheta = theta if norm <= f.l1_weight else (f.l1_weight / norm) * theta
    return float((_entr(y + ctheta) + _entr((1.0 - y) - ctheta)).sum())


def _dual_gap_stop(f: CompositeObjective):
    """Stop rule for the reference run on l1-logistic regression: true once
    the running min of f and the running max of the dual bound meet within
    ``DUAL_GAP_ULPS`` ulps of the min."""
    best_f, best_d = math.inf, -math.inf

    def stop(x, fval):
        nonlocal best_f, best_d
        best_f = min(best_f, fval)
        best_d = max(best_d, _logistic_l1_dual(f, x))
        return best_f - best_d <= DUAL_GAP_ULPS * np.spacing(abs(best_f))

    return stop


def estimate_fstar(obj, x0, budget: int) -> float:
    """Estimate of the minimum value f* for the gap column.

    f* comes from one of three sources:

    - **Exact solve.**  Quadratic objectives are solved exactly (linear
      solve, with a least squares fallback plus one iterative refinement
      step if the solve fails), so their f* is exact up to the roundoff of
      the solve and one evaluation.
    - **Dual-certified reference minimum.**  On l1-logistic regression f*
      is the minimum value along a FISTA-restart reference run, which
      stops at the first iterate where that running minimum exceeds the
      largest Fenchel dual bound seen so far (:func:`_logistic_l1_dual`)
      by at most ``DUAL_GAP_ULPS`` ulps of |f*|.  The true minimum lies
      between the two, so this f* is at most that width, plus the
      rounding of both sums, above it.
    - **Reference minimum.**  Everything else takes the minimum value along
      a restarted reference run (NAG-C-restart for smooth problems,
      FISTA-restart for composites) of ten times the experiment budget,
      at the step 1/L whatever step the methods take.

    A reference minimum is a value the reference reached, so it is at least
    f*: an estimate from above.  Rows of a method that dips below it get
    their gaps clipped to 0, only at roundoff on the ``bench/`` and
    criterion-08 families.  The default smooth logistic and log-sum-exp
    families (m = 2n) clip far more: most draws there are separable or
    unbounded below, with no minimum (ROADMAP.md, open item 1).  A
    reference run stops computing at an exact fixed point or, for
    FISTA-restart, once an exact cycle has shown: of its (x, y, t) state,
    or of its (x, y) bits after t has stopped changing a bit.
    """
    if isinstance(obj, QuadraticObjective):
        return _quadratic_min_value(obj)
    if isinstance(obj, CompositeObjective):
        stop = _dual_gap_stop(obj) if isinstance(obj.smooth, LogisticObjective) else None
        trace = comp.fista_restart_run(obj, x0, 1.0 / obj.smooth.lipschitz, 10 * budget, _stop=stop)
    else:
        trace = disc.nag_c_restart_run(obj, x0, 1.0 / obj.lipschitz, 10 * budget)
    return float(np.min(trace.fvals))


def _rep_rows(config: ExperimentConfig, rep: int) -> Tuple[List[ResultRow], int]:
    """Rows of every configured method on repetition ``rep``, and the number
    of gaps clipped to 0.  A NAG-SC momentum out of range on this instance
    raises ValueError before f* is estimated or any method runs."""
    obj, x0 = build_instance(config, rep)
    for name in config.methods:
        method = METHODS[name]
        if method.mu_divisor is not None:
            try:
                disc._nag_sc_momentum(obj.strong_convexity / method.mu_divisor, _step(method, obj, config))
            except ValueError as err:
                raise ValueError(f"{name} on rep {rep}: {err}") from err
    f_star = estimate_fstar(obj, x0, config.max_iter)
    rows = []
    clipped = 0
    for name in config.methods:
        try:
            trace = _run_method(name, obj, x0, config)
            diverged = False
        except disc.DivergenceError as err:
            trace = err.partial_trace
            diverged = True
        gaps = trace.fvals - f_star
        negative = gaps < 0.0
        clipped += int(np.count_nonzero(negative))
        gaps[negative] = 0.0
        rows.extend(map(tuple.__new__, repeat(ResultRow), zip(
            repeat(name), repeat(rep), range(len(trace)), trace.fvals.tolist(), gaps.tolist(),
            trace.residuals.tolist(), trace.restarts.astype(int).tolist(),
        )))
        if diverged:
            nan = float("nan")
            rows.append(ResultRow(name, rep, len(trace), nan, nan, nan, 0))
    return rows, clipped


def run_experiment(config: ExperimentConfig) -> List[ResultRow]:
    """Run every configured method on every repetition and return the rows.

    A diverging method contributes its truncated rows plus one NaN
    diagnostic row.  Each repetition that clipped gaps to 0 raises one
    ``UserWarning`` at the caller, in repetition order.
    """
    per_rep = [_rep_rows(config, rep) for rep in range(config.reps)]
    rows: List[ResultRow] = []
    for rep, (chunk, clipped) in enumerate(per_rep):
        if clipped:
            warnings.warn(f"rep {rep}: clipped {clipped} slightly negative gap values to 0", stacklevel=2)
        rows.extend(chunk)
    return rows


def _reprs(column):
    """``repr`` of each float in ``column``, each distinct bit pattern
    formatted once: the values are compared as the int64 view of their
    float64 bits, so -0.0 and 0.0 stay apart."""
    distinct, index = np.unique(np.array(column, dtype=float).view(np.int64), return_inverse=True)
    return map(list(map(repr, distinct.view(float).tolist())).__getitem__, index.tolist())


def write_csv(rows, path) -> None:
    """Rows to CSV, one line per row after the header line ``CSV_HEADER``.

    Fields are separated by commas and lines end in a single newline.
    ``method`` is written as is, ``rep``, ``iter`` and ``restart`` as
    decimal integers, and ``fval``, ``gap`` and ``residual`` with ``repr``,
    which round-trips every float (``nan`` for the diagnostic row).

    ``rows`` may be any iterable.  It is written one run, the consecutive
    rows of one (method, rep), at a time: each distinct float of a run's
    float columns is formatted once (:func:`_reprs`), so the formatting
    cost follows the distinct values per run (runs that settle or cycle
    repeat theirs), and the run's lines are joined behind one
    ``method,rep,`` prefix and written at once.  The bytes are those of
    formatting every row on its own.  A float field is converted to
    float64 first, so a NumPy float scalar, which ``ResultRow`` rules out,
    is written as its value and not as ``np.float64(...)``.
    """
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for (method, rep), run in groupby(rows, itemgetter(0, 1)):
            _, _, its, fvals, gaps, residuals, restarts = zip(*run)
            prefix = f"{method},{rep},"
            fh.write(prefix + ("\n" + prefix).join(map("%s,%s,%s,%s,%s".__mod__, zip(
                its, _reprs(fvals), _reprs(gaps), _reprs(residuals), restarts,
            ))) + "\n")


def read_csv(path) -> List[ResultRow]:
    """Rows from a CSV in the format :func:`write_csv` writes.

    Raises ``ValueError`` if the first line is not ``CSV_HEADER``, or,
    naming the path and the 1-based line number, if a line is blank, has
    other than seven fields, or has a field that does not parse as its
    type.

    Each line is split once into method, rep, iter and the rest, its
    tail.  ``rep`` is parsed once per run (consecutive lines of one
    method and rep), and a tail only the first time its text appears in
    its run, so the parsing cost follows the distinct rows per run.  The
    rows, their field types and every error message are those of parsing
    each line in full.
    """
    rows = []
    append, new = rows.append, tuple.__new__
    run_method = run_rep = None
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                try:
                    method, rep, it, tail = line.split(",", 3)
                    new_run = rep != run_rep or method != run_method
                    vals = None if new_run else tails.get(tail)
                    if vals is None:
                        fval, gap, residual, restart = tail.split(",")
                except ValueError:
                    # not seven fields: fail as unpacking them into seven does
                    _, _, _, _, _, _, _ = line.rstrip("\n").split(",")
                if new_run:
                    run_method, run_rep, rep_i, tails = method, rep, int(rep), {}
                i = int(it)
                if vals is None:
                    vals = tails[tail] = (float(fval), float(gap), float(residual), int(restart.rstrip("\n")))
                append(new(ResultRow, (method, rep_i, i) + vals))
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: malformed row ({err})") from None
    return rows


def write_report(report, path) -> None:
    """Bound-check report(s) to JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
