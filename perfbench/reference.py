"""Independent reference for the discrete ground-state energy of ``becstab.gpe``.

Rebuilds the grid and the trapezoidal energy from the conventions stated in
the ``becstab.gpe`` module docstring, without importing the library, and
solves the discrete Euler-Lagrange equation as a self-consistent tridiagonal
eigenproblem

    [ -D2 / (2 h^2) + x^2 / 2 + 2 g q u^2 ] u = mu u

on the interior samples (endpoints pinned to zero), with q = 1/r^2 and
g = 2 pi Gamma in 3D, q = 1 and g = Gamma in 1D.  The density is mixed 50/50
between iterations, which keeps attractive couplings on the metastable branch
that the Gaussian start of ``minimize`` descends into.

scipy is a test-only dependency of becstab; it is imported here only, and
only after the timed part of a benchmark run.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_TOL = 1e-11
MAX_SWEEPS = 2000


def ground_state_energy(dim: int, r_max: float, n_points: int, gamma: float) -> tuple[float, float]:
    """(energy per particle, relative residual) of the discrete ground state."""
    from scipy.linalg import eigh_tridiagonal

    h = r_max / (n_points - 1)
    if dim == 3:
        x = np.linspace(0.0, r_max, n_points)[1:-1]
        weight, g, q = 4.0 * math.pi, 2.0 * math.pi * gamma, 1.0 / (x * x)
        u = x * np.exp(-x * x / 2.0)
    else:
        x = np.linspace(-r_max, r_max, 2 * n_points - 1)[1:-1]
        weight, g, q = 1.0, gamma, np.ones_like(x)
        u = np.exp(-x * x / 2.0)
    off = np.full(len(x) - 1, -0.5 / (h * h))

    def normalise(v):
        return v / math.sqrt(weight * h * float(np.dot(v, v)))

    def energy(v):
        bond = np.diff(np.concatenate(([0.0], v, [0.0])))
        return (
            0.5 * weight / h * float(np.dot(bond, bond))
            + 0.5 * weight * h * float(np.dot(x * x, v * v))
            + g * weight * h * float(np.dot(q, v**4))
        )

    def residual(v):
        hv = (1.0 / (h * h) + 0.5 * x * x + 2.0 * g * q * v * v) * v
        hv[:-1] += off * v[1:]
        hv[1:] += off * v[:-1]
        mu = float(np.dot(v, hv) / np.dot(v, v))
        return float(np.linalg.norm(hv - mu * v) / np.linalg.norm(v))

    density = normalise(u) ** 2
    v = normalise(u)
    res = residual(v)
    for _ in range(MAX_SWEEPS):
        diag = 1.0 / (h * h) + 0.5 * x * x + 2.0 * g * q * density
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        v = normalise(np.abs(vecs[:, 0]))
        res = residual(v)
        if res < RESIDUAL_TOL:
            break
        density = 0.5 * density + 0.5 * v * v
    return energy(v), res
