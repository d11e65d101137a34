"""Checks of the benchmark's outputs on disk, and what the rows say.

A run is one method on one repetition (discrete workloads) or one flow
instance (``flow-restart``).  Every check names the runs it failed, so the
benchmark can count failures against the runs it attempted.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

import numpy as np

from consopt.harness import read_csv

# Energy conservation: the kinetic energy at a restart equals the objective
# decrease over its segment up to the Verlet drift, O(dt^2).  Measured
# worst case on the flow-restart instances: 2.1e-7.
ENERGY_RTOL = 1e-4


def group_rows(rows):
    """Rows keyed by (method, rep), in file order."""
    runs = defaultdict(list)
    for r in rows:
        runs[(r.method, r.rep)].append(r)
    return runs


def _run_problem(rs, max_iter):
    """Why the rows of one run are wrong, or None if they are right."""
    if [r.iter for r in rs] != list(range(len(rs))):
        return "iterations are not 0, 1, 2, ..."
    if math.isnan(rs[-1].fval):
        return f"diverged at iteration {rs[-1].iter}"
    if len(rs) != max_iter + 1:
        return f"{len(rs)} rows, expected {max_iter + 1}"
    for r in rs:
        if not (math.isfinite(r.fval) and math.isfinite(r.residual) and r.residual >= 0.0):
            return f"non-finite value or residual at iteration {r.iter}"
        if not (math.isfinite(r.gap) and r.gap >= 0.0):
            return f"gap {r.gap!r} at iteration {r.iter} is not finite and >= 0"
        if r.restart not in (0, 1):
            return f"restart flag {r.restart} at iteration {r.iter}"
    if rs[-1].gap > rs[0].gap:
        return f"final gap {rs[-1].gap!r} exceeds the initial gap {rs[0].gap!r}"
    return None


def check_csv(path, expected, methods, reps, max_iter):
    """Read a family's CSV back and check it run by run.

    ``expected`` are the rows that were written, ``reps`` the repetition
    indices and ``methods`` the roster.  Returns (rows read, failed runs,
    problems); failed runs are (method, rep) keys.
    """
    attempted = [(m, r) for r in reps for m in methods]
    try:
        rows = read_csv(path)
    except (OSError, ValueError) as err:
        return [], set(attempted), [f"{path}: {err}"]
    problems = []
    failed = set()
    got, want = group_rows(rows), group_rows(expected)
    for key in got.keys() - set(attempted):
        failed.add(key)
        problems.append(f"{key}: run was not attempted")
    row0 = {}
    for key in attempted:
        rs = got.get(key)
        if not rs:
            failed.add(key)
            problems.append(f"{key}: no rows")
            continue
        why = _run_problem(rs, max_iter)
        # A run that passed has no NaN rows, so plain equality is exact.
        if why is None and rs != want[key]:
            why = "rows on disk differ from the rows written"
        if why is None and row0.setdefault(key[1], rs[0].fval) != rs[0].fval:
            why = "iteration-0 value differs from the other methods of its repetition"
        if why is not None:
            failed.add(key)
            problems.append(f"{key}: {why}")
    return rows, failed, problems


def check_flow(path, results, n_restarts):
    """Read a pass's flow reports back and check each instance.

    ``results`` are the ``PiecewiseResult`` objects whose reports and
    segments were written to ``path``.  Returns (failed instance indices,
    problems).
    """
    try:
        with open(path) as fh:
            on_disk = json.load(fh)
    except (OSError, ValueError) as err:
        return set(range(len(results))), [f"{path}: {err}"]
    failed, problems = set(), []
    for i, res in enumerate(results):
        why = None
        if i >= len(on_disk) or on_disk[i] != {"segments": res.segments, "reports": res.reports}:
            why = "report on disk differs from the report written"
        elif len(res.segments) != n_restarts:
            why = f"{len(res.segments)} segments, expected {n_restarts}"
        elif not all(r["pass"] for r in res.reports):
            why = "bound report failed: " + ", ".join(r["bound_name"] for r in res.reports if not r["pass"])
        else:
            for s in res.segments:
                if not (s["f_decrease"] > 0.0
                        and abs(s["kinetic_energy"] - s["f_decrease"]) <= ENERGY_RTOL * s["f_decrease"]):
                    why = f"segment {s['segment']}: kinetic energy does not match the decrease"
                    break
        if why is not None:
            failed.add(i)
            problems.append(f"instance {i}: {why}")
    if len(on_disk) != len(results):
        problems.append(f"{len(on_disk)} reports on disk, expected {len(results)}")
        failed.update(range(len(results)))
    return failed, problems


def iters_to_tol(rows, composite):
    """Median iterations until the tolerance of criterion 08, split into RCM
    methods and baselines.

    The tolerance is gap <= 1e-8 * initial gap on smooth families and
    subgradient residual <= 1e-6 on composite ones; a run that never meets
    it counts max_iter + 1.  Returns (rcm median, baseline median).
    """
    hits = {True: [], False: []}
    for (method, _), rs in group_rows(rows).items():
        if composite:
            hit = next((r.iter for r in rs if r.residual <= 1e-6), rs[-1].iter + 1)
        else:
            thr = 1e-8 * rs[0].gap
            hit = next((r.iter for r in rs if r.gap <= thr), rs[-1].iter + 1)
        hits[method.startswith("rcm")].append(hit)
    return float(np.median(hits[True])), float(np.median(hits[False]))


def zero_gap_frac(rows):
    """Share of finite rows whose gap is exactly 0 (clipped or equal to f*)."""
    finite = [r for r in rows if not math.isnan(r.gap)]
    return sum(r.gap == 0.0 for r in finite) / len(finite)
