"""How fast the CPU runs right now, from fixed kernels that do not use consopt.

The benchmark runs on shared hosts whose speed drifts by up to half within
a minute or two.  Timing a fixed kernel between passes tracks that drift,
and each pass time is rescaled to what it would have been at a fixed
reference speed:

    scaled = measured * kernel.reference_s / (mean kernel time before and after)

A host slows different code by different amounts, so each workload has a
kernel with the shape of its own inner loop: recorded steps on a dense
200x200 quadratic, a logistic proximal-gradient loop on a 200x50 matrix, or
Verlet steps on a 50-dimensional quadratic.  The kernels never call consopt, so a change to
consopt cannot move them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(20_091_123)
_R = _rng.standard_normal((200, 200))
_DENSE_A = _R @ _R.T / 200 + 0.1 * np.eye(200)  # eigenvalues within (0.1, 4.2)
_DENSE_B = _rng.standard_normal(200)
_R = _rng.standard_normal((50, 50))
_FLOW_A = _R @ _R.T / 50 + 0.1 * np.eye(50)
_FLOW_B = _rng.standard_normal(50)
_LOGIT_A = _rng.standard_normal((200, 50))
_LOGIT_Y = np.sign(_rng.standard_normal(200))


def dense_steps() -> float:
    """Symplectic steps with a kinetic restart on a dense 200x200 quadratic,
    each recorded as a CSV line; the lines are then parsed back."""
    h = 0.1
    x, v = np.ones(200), np.zeros(200)
    g = _DENSE_A @ x + _DENSE_B
    lines = []
    for k in range(1500):
        v = v - h * g
        x = x + h * v
        g = _DENSE_A @ x + _DENSE_B
        f = 0.5 * float(x @ (_DENSE_A @ x)) + float(_DENSE_B @ x)
        r = float(np.linalg.norm(g))
        if float(g @ v) > 0.0:
            v = np.zeros(200)
        lines.append(f"dense,0,{k},{f!r},{f!r},{r!r},0")
    total = 0.0
    for line in lines:
        parts = line.split(",")
        total += float(parts[3]) + float(parts[5])
    return total


def logistic_steps() -> float:
    """Accelerated proximal-gradient steps on an l1-regularised logistic loss."""
    x = z = np.zeros(50)
    t = 1.0
    acc = 0.0
    for _ in range(1500):
        s = 1.0 / (1.0 + np.exp(_LOGIT_Y * (_LOGIT_A @ z)))
        g = -(_LOGIT_A.T @ (_LOGIT_Y * s)) / 200.0
        x_new = z - 0.1 * g
        x_new = np.sign(x_new) * np.maximum(np.abs(x_new) - 0.001, 0.0)
        t_new = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        acc += float(g @ g)
    return acc


def verlet_steps() -> float:
    """Velocity Verlet steps from rest on a 50-dimensional quadratic."""
    dt = 0.05
    x, v = np.ones(50), np.zeros(50)
    a = -(_FLOW_A @ x + _FLOW_B)
    acc = 0.0
    for i in range(1, 3001):
        v_half = v + 0.5 * dt * a
        x = x + dt * v_half
        g = _FLOW_A @ x + _FLOW_B
        a = -g
        v = v_half + 0.5 * dt * a
        if not np.all(np.isfinite(x)):
            break
        speed = float(np.linalg.norm(v))
        acc += -i * dt * float(g @ v) - 0.5 * speed * speed
    return acc


@dataclass(frozen=True)
class Kernel:
    """Fixed work, and its wall time at the reference speed.

    The reference times are round numbers of the order of the kernels' times
    on a 2-core Intel Xeon VM (2026).  They fix only the unit of the scaled
    times: seconds on a machine where the kernel takes ``reference_s``.
    """

    run: Callable[[], float]
    reference_s: float

    def sample(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def scale_factors(self, samples):
        """Scale factor of the interval between each two consecutive samples."""
        return [2.0 * self.reference_s / (a + b) for a, b in zip(samples, samples[1:])]


DENSE = Kernel(dense_steps, 0.030)
LOGISTIC = Kernel(logistic_steps, 0.025)
VERLET = Kernel(verlet_steps, 0.032)
