"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the speed of the same
single-threaded code drifts by tens of per cent over tens of seconds, and CPU
time drifts with it.  The benchmark therefore times a fixed calibration task
while or right after every untraced op and reports the op's wall time
rescaled to the speed at which the task takes its reference time REF:

    slowdown   = 1 / mean(REF / task time) over the op
    normalised = wall / slowdown

Three tasks, each matched to what some ops spend their time on:

* ``scalar_kernel``: Python calls on floats, frozen-dataclass construction
  and a few small numpy calls -- the variational table.
* ``sweep_kernel``: numpy stencil, dot and norm calls on a 1023-point grid --
  the descent iterations behind grid-oracle and critical-threshold.
* a bare ``python -c pass`` child, waited for -- the process start-up and
  imports that dominate a CLI call and the set-up time.

``KernelSampler`` runs a kernel during the op from a timer signal;
``SpawnSampler`` starts the child after each op.  The calibration code never
changes with the program under test, so two commits are compared at the same
speed.

The reference times are the kernels' times in the faster phases of a 2-vCPU
"Intel Xeon Processor" guest (Python 3.11.7, numpy 2.4.6), so normalised
figures read roughly as seconds on that machine at its best.
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

SCALAR_REF_S = 3.0e-3
SWEEP_REF_S = 1.6e-3
SPAWN_REF_S = 4.5e-2


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _f(s: float, g: float) -> float:
    return -1.5 / s**3 + 1.5 * s - 3.0 * g / (2.5 * s**4)


def scalar_kernel() -> float:
    """Scalar float calls and dataclass construction, like the variational layer."""
    acc = 0.0
    pairs = []
    for i in range(1, 2500):
        acc += _f(0.5 + i * 1e-4, -0.3)
        pairs.append(_Pair(acc, math.sqrt(i)))
    a = np.arange(512.0)
    for _ in range(80):
        bond = a[1:] - a[:-1]
        acc += float(np.dot(bond, bond)) + float(np.dot(a, a * a))
    return acc


def sweep_kernel() -> float:
    """Sixty gradient-and-energy sweeps on a 1023-point grid, like a descent."""
    x = np.linspace(-8.0, 8.0, 1023)
    sq = x * x
    h = float(x[1] - x[0])
    v = np.exp(-sq / 2.0)
    acc = 0.0
    for _ in range(60):
        grad = np.empty_like(v)
        grad[1:-1] = -(v[2:] - 2.0 * v[1:-1] + v[:-2]) / h + h * sq[1:-1] * v[1:-1] + 0.1 * h * v[1:-1] ** 3
        grad[0] = grad[-1] = 0.0
        trial = v - 1e-4 * grad
        trial /= math.sqrt(h * float(np.dot(trial, trial)))
        bond = np.diff(trial)
        density = trial * trial
        acc += float(np.dot(bond, bond)) + float(np.dot(sq, density)) + float(np.dot(density, density))
    return acc


def spawn_s(cwd, env, code: str = "pass") -> float:
    """Wall seconds of one ``python -c code`` child, waited for."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True)
    return time.perf_counter() - t0


def setup_slowdown(cwd, env) -> float:
    """Best of two bare interpreter children over their reference time.

    Set-up is mostly imports, as a CLI call is, so it is rescaled by the
    same task.
    """
    return min(spawn_s(cwd, env), spawn_s(cwd, env)) / SPAWN_REF_S


class KernelSampler:
    """Times the kernel from a SIGALRM handler while an op runs.

    The first sample comes 10 ms into the op and then one every 0.25 s, so a
    long op is calibrated all along its length.  The handler's own time is
    subtracted from the op's wall time; it is about 1 per cent of it.
    """

    FIRST_S = 0.01
    INTERVAL_S = 0.25
    MIN_SAMPLES = 3

    def __init__(self, kernel, ref_s: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.samples: list[tuple[float, float]] = []   # (start, seconds)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextmanager
    def section(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.FIRST_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def account(self, t0: float, t1: float) -> tuple[float, float]:
        """(handler seconds inside [t0, t1], slowdown over that interval).

        The slowdown is the inverse of the mean speed, ref / time, of the
        samples, so that the samples, evenly spaced in time, weigh the work
        done in each stretch of the op.  A short op holds fewer than three
        samples; the latest three are used.
        """
        inside = [dt for start, dt in self.samples if t0 <= start <= t1]
        recent = inside if len(inside) >= self.MIN_SAMPLES else [dt for _, dt in self.samples[-self.MIN_SAMPLES:]]
        return sum(inside), len(recent) / sum(self.ref_s / dt for dt in recent)


class SpawnSampler:
    """Times one bare interpreter child after each op; the op's slowdown is
    the mean of the samples before and after it."""

    def __init__(self, cwd, env):
        self.cwd = cwd
        self.env = env
        self.samples = [spawn_s(cwd, env)]

    @contextmanager
    def section(self):
        yield
        self.samples.append(spawn_s(self.cwd, self.env))

    def account(self, t0: float, t1: float) -> tuple[float, float]:
        return 0.0, 0.5 * (self.samples[-2] + self.samples[-1]) / SPAWN_REF_S
