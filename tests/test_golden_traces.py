"""Bit-identity pins for the runners, the harness and the Verlet flow.

Each case hashes exact output bytes on fixed seeds: the CSV that
``write_csv`` writes for a small family and for the quadratic family at the
benchmark's size, every column of the restart and Nesterov loops' traces,
the raw arrays of an integrated trajectory, and the floats of restart
events and bound reports, on small flows and on the flow at the
benchmark's size.  A change that alters any trace by even one ulp
changes a digest.  When a change is meant to alter traces, the new digests
go in with an explanation of the difference in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from consopt.composite import rcm_comp_run
from consopt.continuous import (
    integrate_conservative,
    kinetic_energy_maxima,
    kinetic_max_restart_time,
    run_piecewise_conservative,
)
from consopt.discrete import RESTART_CRITERIA, DivergenceError, Trace, nag_c_restart_run, nag_c_run, nag_sc_run, rcm_run
from consopt.harness import ExperimentConfig, build_instance, run_experiment, write_csv
from consopt.objectives import CompositeObjective, gen_random_quadratic, quadratic_objective

SMOOTH = ("gd", "nag-c", "nag-c-restart", "rcm-grad", "rcm-kin", "rcm-mmd-r", "rcm-mmd-dr")
NEEDS_MU = ("nag-sc", "nag-sc-under")
COMPOSITE = ("fista", "fista-restart", "rcm-comp-grad", "rcm-comp-kin", "rcm-comp-mmd-r", "rcm-comp-mmd-dr")

GOLDEN = {
    "bench-flow": "ae637c9a9602bb16685385676239966556bbb5ebd6332bdb885461a8ea6d851c",
    "bench-quadratic": "5f5440a698e46c780c45caa1e407800e0362782eb69e04041ab49d24f3b55557",
    "csv-quadratic": "ca329359259067b4d433fe70440eda2569ec12cc1beb38d8f5fce6f7df3e0e2b",
    "csv-quadratic-l1": "11889a5c829cbd71e0b2967b360cb786a884f98856fc5fa96510ffb7f3a5cbae",
    "csv-logistic": "155e49928b7f3a29e200b4e6bfad4e82ea50d510edd58daaa237c37c96e4e723",
    "csv-logistic-l1": "188640b93abd104e79a93613afaa37aacb7c9266dd31e2d076e56e4945a8727e",
    "csv-logsumexp": "1efc48e33da9c8549f81f57164c00fdf3838df9b410bff3da9ed1e54865cc920",
    "csv-logsumexp-l1": "a94bcccd56b6de6b2fb86d57a548e91b65502e78110e9c8cd9930fb535850f2f",
    "integrate-conservative": "e88c19747ea44466a9c59cd8fac2b429f901ede9e8e15a9dcd8e077e304ac2fd",
    "kinetic-energy-maxima": "527551dca9a6f133e9531d9d65bb7ecd59bf6394599d98ed04d66f47bf3989e1",
    "nesterov-traces": "022402632018302dd8c5cd15dc9ef914a2ad737a4969f6e90a81084638da1821",
    "piecewise-conservative": "c3faacf103d042b95f30aa69631f6bcdf0e5863c10377b8b3dd6eb638296a627",
    "rcm-traces": "d713a93cf5ee4616267b47ee723ee1a61b875e3b7889ee47da8fe6c8c784a763",
}


def _sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _family_csv(problem, l1, tmp_path):
    methods = COMPOSITE if l1 else SMOOTH + (NEEDS_MU if problem == "quadratic" else ())
    cfg = ExperimentConfig(problem=problem, l1=l1, n=8, m=20, reps=2, max_iter=60, base_seed=3,
                           methods=methods)
    path = tmp_path / "rows.csv"
    write_csv(run_experiment(cfg), path)
    return path.read_bytes()


def _bench_quadratic(tmp_path):
    """The quadratic family at the benchmark's n=200 with its default roster,
    one rep of 100 iterations, written by ``consopt bench``.  It runs in a
    child process with BLAS pinned to one thread, as the benchmark runs: at
    this size the exact f* solve, and with it the gap column, depends on
    the BLAS thread count in its last bits."""
    path = tmp_path / "rows.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "consopt.cli", "bench", "quadratic", "--n", "200", "--reps", "1",
                    "--iters", "100", "--seed", "5", "--out", str(path)], env=env, check=True, capture_output=True)
    return path.read_bytes()


def _quadratic(n, seed):
    obj = gen_random_quadratic(n, 0.1, 4.0, seed)
    return obj, np.random.default_rng([seed, 1]).standard_normal(n)


def _integrate_conservative():
    obj, x0 = _quadratic(5, 11)
    traj = integrate_conservative(obj, x0, 0.3 * x0[::-1], 0.01, 3.0, record_every=7)
    return _sha(traj.times, traj.xs, traj.vs, np.float64(traj.energy_drift))


# The Trace fields that _trace_bytes hashes, besides method, step, x and v.
TRACE_COLUMNS = ("fvals", "residuals", "restarts", "restart_origin", "crossings", "xs", "vs")


def _trace_bytes(trace):
    """Every field of a Trace, with a marker for the absent columns, laid
    out as the digests were pinned: the row index as an ``iters`` column,
    zeros for an absent v, and then the last row index and the last
    restart origin (0 without that column)."""
    chunks = [trace.method.encode(), np.float64(trace.step)]
    columns = {"iters": np.arange(len(trace)), **{col: getattr(trace, col) for col in TRACE_COLUMNS}}
    for col, a in columns.items():
        chunks += [col.encode(), b"none"] if a is None else [col.encode(), str(a.dtype).encode(), np.array(a.shape), a]
    v = np.zeros_like(trace.x) if trace.v is None else trace.v
    last = 0 if trace.restart_origin is None else trace.restart_origin[-1]
    return chunks + [trace.x, v, np.array([len(trace) - 1, last])]


def test_trace_bytes_cover_every_trace_field():
    # A field added to Trace must be hashed too, or it escapes the pins.
    assert {f.name for f in fields(Trace)} == {"method", "step", "x", "v", *TRACE_COLUMNS}


def _rcm_traces():
    quad, x0 = _quadratic(6, 7)
    h = 1.0 / np.sqrt(quad.lipschitz)
    logistic, z0 = build_instance(ExperimentConfig(problem="logistic", l1=True, n=10, m=30, base_seed=0), 0)
    hl = 1.0 / np.sqrt(logistic.smooth.lipschitz)
    traces = []
    for criterion in RESTART_CRITERIA:
        traces.append(rcm_run(quad, x0, h, criterion, 80, keep_iterates=True))
        traces.append(rcm_comp_run(CompositeObjective(smooth=quad, l1_weight=0.0), x0, h, criterion, 80,
                                   keep_iterates=True))
        traces.append(rcm_comp_run(logistic, z0, hl, criterion, 120, keep_iterates=True))
    # The pins must see restarts and crossings, not only plain steps.
    assert all(t.restarts.any() for t in traces)
    assert all(t.crossings.any() for t in traces[2::3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError) as smooth_info:
            rcm_run(quad, x0, 3.0 * h, "kin", 500, keep_iterates=True)
        with pytest.raises(DivergenceError) as comp_info:
            rcm_comp_run(CompositeObjective(smooth=quad, l1_weight=0.05), x0, 3.0 * h, "kin", 500,
                         keep_iterates=True)
    traces += [smooth_info.value.partial_trace, comp_info.value.partial_trace]
    return _sha(*[c for t in traces for c in _trace_bytes(t)])


def _nesterov_traces():
    traces = []
    for seed in (7, 8, 9):
        quad, x0 = _quadratic(8, seed)
        s = 1.0 / quad.lipschitz
        traces.append(nag_c_run(quad, x0, s, 150, keep_iterates=True))
        traces.append(nag_sc_run(quad, x0, s, quad.strong_convexity / 3.0, 150, keep_iterates=True))
        traces.append(nag_c_restart_run(quad, x0, s, 150, keep_iterates=True))
    # The pin must see restarts, not only plain steps.
    assert all(t.restarts.any() for t in traces[2::3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run in (nag_c_run, nag_c_restart_run):
            with pytest.raises(DivergenceError) as info:
                run(quad, x0, 3.5 * s, 500, keep_iterates=True)
            traces.append(info.value.partial_trace)
    # Both loops reach an exact fixed point on this instance and stop
    # calling the gradient well before max_iter.
    quad = gen_random_quadratic(6, 0.5, 2.0, 2)
    x0 = np.random.default_rng([2, 1]).standard_normal(6)
    s = 1.0 / quad.lipschitz
    calls = [0]

    def gradient(x, inner=quad.gradient):
        calls[0] += 1
        return inner(x)

    counted = replace(quad, gradient=gradient)
    traces.append(nag_sc_run(counted, x0, s, quad.strong_convexity, 500, keep_iterates=True))
    traces.append(nag_c_restart_run(counted, x0, s, 500, keep_iterates=True))
    assert calls[0] < 500
    return _sha(*[c for t in traces for c in _trace_bytes(t)])


def _event_bytes(events):
    return [np.array([e.time, e.time_abs, e.kinetic_energy, e.f_value, e.arc_length]) for e in events] + [
        np.concatenate([e.x, e.v]) for e in events
    ]


def _kinetic_energy_maxima():
    obj = quadratic_objective(np.diag([1.0, 2.0, 3.5]), np.zeros(3))
    events = kinetic_energy_maxima(obj, np.array([1.0, -0.5, 0.25]), 12.0, dt=0.004)
    assert len(events) >= 2
    one_d = kinetic_max_restart_time(quadratic_objective(np.array([[2.0]]), np.array([0.5])), np.array([1.0]),
                                     dt=0.003)
    return _sha(*_event_bytes(events + [one_d]))


def _flow_bytes(res):
    traj = res.trajectory
    text = json.dumps({"segments": res.segments, "reports": res.reports}, sort_keys=True).encode()
    return [text, traj.times, traj.xs, traj.vs, *_event_bytes(traj.events)]


def _piecewise_conservative():
    obj, x0 = _quadratic(4, 5)
    return _sha(*_flow_bytes(run_piecewise_conservative(obj, x0, dt=0.002, n_restarts=3, record_every=16)))


def bench_flow_digest():
    """Digest of the piecewise conservative flow at the benchmark's size:
    seeded 50-dimensional quadratics, 3 restarts, the default dt."""
    chunks = []
    for seed in (5, 6):
        obj = gen_random_quadratic(50, 0.03, 15.0, seed)
        x0 = np.random.default_rng([seed, 1]).standard_normal(50)
        chunks += _flow_bytes(run_piecewise_conservative(obj, x0, n_restarts=3))
    return _sha(*chunks)


def _bench_flow():
    """``bench_flow_digest`` computed in a child process with BLAS pinned to
    one thread, as the benchmark runs: the flow's f* for its bound reports
    is an exact solve, whose last bits may depend on the BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = "import sys; sys.path.insert(0, sys.argv[1]); import test_golden_traces as g; print(g.bench_flow_digest())"
    out = subprocess.run([sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__))], env=env,
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


@pytest.mark.filterwarnings("ignore:rep .* clipped")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, tmp_path):
    if name.startswith("csv-"):
        problem, _, l1 = name[len("csv-"):].partition("-")
        digest = _sha(_family_csv(problem, l1 == "l1", tmp_path))
    elif name == "bench-quadratic":
        digest = _sha(_bench_quadratic(tmp_path))
    elif name == "bench-flow":
        digest = _bench_flow()
    else:
        digest = {
            "integrate-conservative": _integrate_conservative,
            "kinetic-energy-maxima": _kinetic_energy_maxima,
            "nesterov-traces": _nesterov_traces,
            "piecewise-conservative": _piecewise_conservative,
            "rcm-traces": _rcm_traces,
        }[name]()
    assert digest == GOLDEN[name]
