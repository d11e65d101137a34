"""Command line interface.

Subcommands:
  bench       run a benchmark family and write the convergence rows as CSV
  continuous  run one continuous-time theory check and emit a JSON report
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import continuous as cont
from .harness import (
    COMPOSITE_METHODS,
    PROBLEMS,
    SMOOTH_METHODS,
    ExperimentConfig,
    run_experiment,
    write_csv,
    write_report,
)
from .objectives import quadratic_objective

def _diag_quadratic(mu, L, n):
    lams = np.linspace(mu, L, n)  # [mu] when n = 1
    return quadratic_objective(np.diag(lams), np.zeros(n)), np.ones(n), lams


def _check_mmd_bounds(args):
    obj, x0, _ = _diag_quadratic(args.mu, args.L, args.n)
    ev = cont.mmd_restart_time(obj, x0, dt=args.dt)
    lower = cont.restart_time_lower_bound(args.mu, args.L)
    upper = cont.restart_time_upper_bound(args.mu, args.L)
    g_ev = obj.gradient(ev.x)
    ek_bound = float(g_ev @ g_ev) / (2.0 * args.L)
    ok = lower < ev.time <= upper * (1.0 + 1e-4) and ev.kinetic_energy >= ek_bound * (1.0 - 1e-6)
    return {
        "check": "mmd-bounds",
        "t_a": ev.time,
        "lower": lower,
        "upper": upper,
        "kinetic_energy": ev.kinetic_energy,
        "kinetic_energy_grad_bound": ek_bound,
        "pass": bool(ok),
    }


def _check_kinetic_1d(args):
    obj, x0, _ = _diag_quadratic(args.mu, args.mu, 1)
    ev = cont.kinetic_max_restart_time(obj, x0, dt=args.dt)
    if ev is None:
        return {"check": "kinetic-1d", "pass": False, "outcome": "no-max-within-cap"}
    grad_norm = float(abs(obj.gradient(ev.x)[0]))
    t_bound = np.pi / (2.0 * np.sqrt(args.mu))
    # To 1e-6 of |f'(x0)| and 5e-7 of the quarter period: 1e-6 and 7.9e-7 at --mu 1.
    ok = grad_norm <= 1e-6 * float(abs(obj.gradient(x0)[0])) and ev.time <= t_bound * (1.0 + 5e-7)
    return {
        "check": "kinetic-1d",
        "t_bar": ev.time,
        "quarter_period": t_bound,
        "grad_norm_at_event": grad_norm,
        "pass": bool(ok),
    }


def _check_conv_cont(args, length_only=False):
    obj, x0, _ = _diag_quadratic(args.mu, args.L, args.n)
    result = cont.run_piecewise_conservative(obj, x0, dt=args.dt, n_restarts=args.restarts)
    reports = result.reports
    if length_only:
        reports = [r for r in reports if r["bound_name"] == "curve_length"]
    return {
        "check": "length" if length_only else "conv-cont",
        "reports": reports,
        "pass": bool(all(r["pass"] for r in reports)),
    }


def _check_small_time(args):
    obj, x0, _ = _diag_quadratic(args.mu, args.L, args.n)
    rep = cont.small_time_energy_check(obj, x0, dt=args.dt)
    rep["check"] = "small-time"
    return rep


def _check_quad_decrease(args):
    _, x0, lams = _diag_quadratic(args.mu, args.L, args.n)
    rep = cont.quadratic_fixed_interval_decrease(lams, x0)
    rep["check"] = "quad-decrease"
    return rep


def _check_visiting_time(args):
    mu = args.mu
    t = cont.visiting_time_1d(lambda y: 0.5 * mu * y * y, 1.0, 0.0, df=lambda y: mu * y)
    expected = np.pi / (2.0 * np.sqrt(mu))
    return {
        "check": "visiting-time",
        "time": t,
        "quarter_period": expected,
        # 5e-7 of the quarter period: 7.9e-7 at --mu 1.
        "pass": bool(abs(t - expected) <= 5e-7 * expected),
    }


CONTINUOUS_CHECKS = {
    "mmd-bounds": _check_mmd_bounds,
    "kinetic-1d": _check_kinetic_1d,
    "conv-cont": _check_conv_cont,
    "length": lambda a: _check_conv_cont(a, length_only=True),
    "small-time": _check_small_time,
    "quad-decrease": _check_quad_decrease,
    "visiting-time": _check_visiting_time,
}


def _bench_config(args):
    return ExperimentConfig(
        problem=args.problem,
        l1=args.l1,
        n=args.n,
        m=args.m,
        reps=args.reps,
        max_iter=args.iters,
        base_seed=args.seed,
        methods=tuple(args.methods.split(",")) if args.methods else (),
    )


def _cmd_bench(args):
    rows = run_experiment(args.config)
    if args.out:
        write_csv(rows, args.out)
        print(f"{len(rows)} rows -> {args.out}")
    else:
        print(f"{len(rows)} rows (no --out given; pass a path to keep them)")
    return 0


def _cmd_continuous(args):
    report = CONTINUOUS_CHECKS[args.check](args)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        write_report(report, args.out)
    return 0 if report.get("pass", False) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="consopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a benchmark family, write CSV rows")
    bench.add_argument("problem", choices=PROBLEMS)
    bench.add_argument("--l1", action="store_true", help="l1-composite variant")
    bench.add_argument("--n", type=int, default=ExperimentConfig.n)
    bench.add_argument("--m", type=int, default=ExperimentConfig.m)
    bench.add_argument("--reps", type=int, default=ExperimentConfig.reps)
    bench.add_argument("--iters", type=int, default=ExperimentConfig.max_iter)
    bench.add_argument("--seed", type=int, default=ExperimentConfig.base_seed)
    bench.add_argument("--methods", type=str, default="",
                       help=f"comma-separated method names; smooth: {', '.join(SMOOTH_METHODS)}; "
                       f"with --l1: {', '.join(COMPOSITE_METHODS)}")
    bench.add_argument("--out", type=str, default="")
    bench.set_defaults(func=_cmd_bench)

    con = sub.add_parser("continuous", help="continuous-time theory checks")
    con.add_argument("check", choices=CONTINUOUS_CHECKS)
    con.add_argument("--mu", type=float, default=1.0)
    con.add_argument("--L", type=float, default=1.0)
    con.add_argument("--n", type=int, default=1)
    con.add_argument("--dt", type=float, default=None)
    con.add_argument("--restarts", type=int, default=3)
    con.add_argument("--out", type=str, default="")
    con.set_defaults(func=_cmd_continuous)
    return parser


def _continuous_usage_error(args):
    """What is wrong with the options of ``consopt continuous``, or None.
    ``kinetic-1d`` and ``visiting-time`` read only ``--mu``, so only the
    other checks need a finite ``--L >= --mu``.  The restart-time bound
    t_r, where read, the curve-length bound ``cont.curve_length_bound`` of
    ``conv-cont`` and ``length``, and |grad f(x0)|^2 = sum lam^2, with
    gap0 = sum lam / 2 for flows from rest at x0 = (1, ..., 1), must be
    positive and finite, not overflowed."""
    if not 0 < args.mu < np.inf:
        return "--mu must be positive and finite"
    if args.n < 1:
        return "--n must be >= 1"
    if args.check not in ("kinetic-1d", "visiting-time"):
        if not args.L < np.inf:
            return "--L must be positive and finite"
        if not args.L >= args.mu:
            return "--L must be at least --mu"
    if args.check in ("mmd-bounds", "conv-cont", "length"):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound = cont.restart_time_upper_bound(args.mu, args.L)
            gap0 = 0.5 * np.linspace(args.mu, args.L, args.n).sum()
            length = cont.curve_length_bound(args.mu, args.L, bound, gap0)
        if not 0 < bound < np.inf:
            return f"--mu and --L give a restart-time bound of {bound:g}; it must be positive and finite"
        if args.check != "mmd-bounds" and not length < np.inf:
            return f"--mu, --L and --n give a curve-length bound of {length:g}; it must be finite"
    if args.check not in ("quad-decrease", "visiting-time"):
        L, n = (args.mu, 1) if args.check == "kinetic-1d" else (args.L, args.n)
        lams = np.linspace(args.mu, L, n)
        with np.errstate(over="ignore"):
            grad_sq = float(lams.dot(lams))
        if not 0 < grad_sq < np.inf:
            return f"the options give |grad f(x0)|^2 = {grad_sq:g}; it must be positive and finite"
    if args.dt is not None and not 0 < args.dt < np.inf:
        return "--dt must be positive and finite"
    if args.restarts < 1:
        return "--restarts must be >= 1"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        try:
            args.config = _bench_config(args)
        except ValueError as err:  # e.g. an unknown method, or a composite one without --l1
            parser.error(str(err))
    elif (problem := _continuous_usage_error(args)) is not None:
        parser.error(problem)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
