"""Independent numerical oracles shared by the tests.

These deliberately avoid the library's own code paths: gradients come from
central differences, subgradient minima from dense search over the
subdifferential interval, and reference roots/integrals from scipy solvers
applied to the defining equations, or 200-bit ``mpmath`` values to
measure rounding errors in ulps.  The mean dissipation rate of the
conservative flow, r(t) = E_K(t) / t, and its slope at t = 0 are stated here
too: only the tests read them, as they do the per-line CSV reader that
``harness.read_csv`` must agree with.  The largest eigenvalue of a Gram
matrix A A' comes from the exact integer Gram of A's floats and
``mpmath.eigsy``.
"""

import math

import mpmath
import numpy as np
from scipy.optimize import brentq

from consopt.harness import CSV_HEADER, ResultRow


def fd_gradient(fun, x, rel_step=1e-6):
    """Central finite differences with step rel_step * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        h = rel_step * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def gram_lambda_max_mp(A, dps=30):
    """lambda_max(A A') at ``dps`` digits: the Gram of A's floats formed
    exactly in integers, A scaled by a power of two to integer entries,
    then rounded to ``dps`` digits and handed to ``mpmath.eigsy``."""
    A = np.asarray(A, dtype=float)
    e = int(max(53 - np.frexp(A)[1].min(), 0)) if A.size else 0
    A_int = np.array([[int(a) for a in row] for row in np.ldexp(A, e).tolist()], dtype=object).reshape(A.shape)
    G_int = A_int.dot(A_int.T)
    with mpmath.workdps(dps):
        G = mpmath.matrix([[mpmath.ldexp(mpmath.mpf(g), -2 * e) for g in row] for row in G_int.tolist()])
        return max(mpmath.eigsy(G, eigvals_only=True))


def max_ulps(computed, exact):
    """Largest error of the float64 values ``computed`` against the mpmath
    values ``exact``, in units in the last place of the exact value:
    2**(e - 52) for |exact| in [2**e, 2**(e + 1)), and 2**-1074 below
    2**-1022.  A zero or infinite exact value must be met exactly.  The
    error is formed at 200 bits."""
    worst = 0.0
    with mpmath.workprec(200):
        for c, r in zip(np.asarray(computed, dtype=float).tolist(), exact):
            r = mpmath.mpf(r)
            if r == 0 or mpmath.isinf(r) or math.isinf(c):
                err = 0.0 if c == r else math.inf
            else:
                ulp = mpmath.ldexp(1, max(mpmath.frexp(r)[1] - 1, -1022) - 52)
                err = float(abs(mpmath.mpf(c) - r) / ulp)
            worst = max(worst, err)
    return worst


def brute_force_min_subgradient(grad_i, gamma, n_grid=2_000_001):
    """Smallest |v| over the subdifferential interval [grad_i - gamma, grad_i + gamma]."""
    vs = np.linspace(grad_i - gamma, grad_i + gamma, n_grid)
    return vs[np.argmin(np.abs(vs))]


def mean_dissipation_root_1d(mu=1.0):
    """First positive root of d/dt [sin^2(sqrt(mu) t) / t] = 0.

    With u = sqrt(mu) t the condition reduces to u sin(2u) = sin^2(u),
    equivalently tan(u) = 2u; the root is bracketed in (1, 1.5).
    """
    u = brentq(lambda v: v * np.sin(2 * v) - np.sin(v) ** 2, 1.0, 1.5, xtol=1e-15, rtol=8.9e-16)
    return u / np.sqrt(mu)


# Frozen value of mean_dissipation_root_1d(1.0); equals the first positive
# solution of tan(u) = 2u.
TAN_ROOT = 1.1655611852072114


def mean_dissipation(kinetic_energy, t):
    """r(t) = E_K(t)/t for t > 0 with the continuous extension r(0) = 0."""
    t_arr = np.asarray(t, dtype=float)
    e_arr = np.asarray(kinetic_energy, dtype=float)
    pos = t_arr > 0
    r = np.where(pos, e_arr / np.where(pos, t_arr, 1.0), 0.0)
    return float(r) if r.ndim == 0 else r


def initial_dissipation_slope(obj, x0) -> float:
    """dr/dt at t = 0, which equals |grad f(x0)|^2 / 2."""
    g = obj.gradient(np.asarray(x0, dtype=float))
    return 0.5 * float(g.dot(g))


def read_csv_per_line(path):
    """Rows from a harness CSV, every line split and parsed in full: the
    reference for ``harness.read_csv``'s rows, field types and errors."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                method, rep, it, fval, gap, residual, restart = line.rstrip("\n").split(",")
                rows.append(ResultRow(method, int(rep), int(it), float(fval), float(gap),
                                      float(residual), int(restart)))
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: malformed row ({err})") from None
    return rows
