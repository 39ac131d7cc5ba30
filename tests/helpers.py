"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the production root finder: roots are
located by dense sign-change scans refined with scipy's brentq, and the
degenerate (double-root) coupling is found by bisecting on the sign of the
slope function's minimum.  The grid oracles rebuild the discrete
Euler-Lagrange operator from the conventions of the ``becstab.gpe`` module
docstring and solve it with scipy's banded solver and, through the
benchmark's reference, its tridiagonal eigensolver, never with the library's
minimizer.  Agreement between these
routines and the library is the point of the tests.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq, minimize_scalar

from becstab import Dimension, DimensionlessProblem, GridSpec, denergy


def slope(problem: DimensionlessProblem):
    """Scalar de/ds callable for scipy routines."""

    def f(s: float) -> float:
        return denergy(s, problem, 1)

    return f


def scan_roots(problem: DimensionlessProblem, lo=1e-3, hi=3.0, n=100_000):
    """All roots of de/ds in (lo, hi] by dense sign-change scan + brentq."""
    f = slope(problem)
    grid = np.linspace(lo, hi, n)
    values = np.array([f(s) for s in grid])
    roots = []
    signs = np.sign(values)
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14))
    roots.extend(float(grid[i]) for i in np.nonzero(signs == 0)[0])
    return sorted(roots)


def attractive_3d_roots(gamma: float):
    """Both branch roots for an attractive 3D coupling, robust near critical.

    The slope's sign dip always contains its own minimiser, so bracketing
    from the argmin works arbitrarily close to the merge point.
    """
    problem = DimensionlessProblem(Dimension.D3, gamma)
    f = slope(problem)
    res = minimize_scalar(f, bounds=(0.05, 2.0), method="bounded",
                          options={"xatol": 1e-13})
    if res.fun >= 0.0:
        return []
    s_star = res.x
    left = brentq(f, 1e-6, s_star, xtol=1e-15)
    right = brentq(f, s_star, 3.0, xtol=1e-15)
    return [left, right]


def locate_double_root(merge_tol: float = 1e-6):
    """Coupling and width where the two attractive 3D branches merge.

    Bisects the coupling between 'two roots' and 'no roots' outcomes until
    the two roots are closer than ``merge_tol``; returns (gamma, s_merge).
    """
    gamma_two = -0.5     # comfortably subcritical
    gamma_none = -0.8    # comfortably collapsed
    assert len(attractive_3d_roots(gamma_two)) == 2
    assert len(attractive_3d_roots(gamma_none)) == 0
    while True:
        mid = 0.5 * (gamma_two + gamma_none)
        roots = attractive_3d_roots(mid)
        if roots:
            gamma_two = mid
            if roots[1] - roots[0] < merge_tol:
                return mid, 0.5 * (roots[0] + roots[1])
        else:
            gamma_none = mid


def central_difference(fn, x: float, order: int = 1) -> float:
    """Five-point central first or second derivative, O(h^4) truncation.

    The relative step 1e-3 balances truncation against roundoff well enough
    to resolve derivatives to ~1e-9 even where they nearly vanish.
    """
    h = max(x, 0.05) * 1e-3
    fm2, fm1, fp1, fp2 = fn(x - 2 * h), fn(x - h), fn(x + h), fn(x + 2 * h)
    if order == 1:
        return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    return (-fm2 + 16.0 * fm1 - 30.0 * fn(x) + 16.0 * fp1 - fp2) / (12.0 * h * h)


# --- grid oracles ------------------------------------------------------------------------

# The benchmark's reference for the discrete ground-state energy, loaded by
# path so that one copy serves both; it does not import the library.
_REFERENCE_SPEC = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
_REFERENCE = importlib.util.module_from_spec(_REFERENCE_SPEC)
_REFERENCE_SPEC.loader.exec_module(_REFERENCE)


def stated_residual(spec: GridSpec, gamma: float, values: np.ndarray) -> float:
    """sqrt(r . P r / u . u) as the ``becstab.gpe`` docstring defines it.

    r = H(u) u - mu u with mu = u . H(u) u / u . u on the interior samples,
    H(u) = -Delta_h/2 + x^2/2 + 2 g q u^2 with q = 1/r^2 and g = 2 pi Gamma in
    3D, q = 1 and g = Gamma in 1D; P r solves (-Delta_h/2 + 1) y = r as a
    banded system.
    """
    h = spec.r_max / (spec.n_points - 1)
    if spec.dimension is Dimension.D3:
        x = np.linspace(0.0, spec.r_max, spec.n_points)[1:-1]
        g, q = 2.0 * math.pi * gamma, 1.0 / x**2
    else:
        x = np.linspace(-spec.r_max, spec.r_max, 2 * spec.n_points - 1)[1:-1]
        g, q = gamma, 1.0
    u = np.asarray(values, dtype=float)[1:-1]
    off = -0.5 / h**2
    hu = (1.0 / h**2 + 0.5 * x**2 + 2.0 * g * q * u * u) * u
    hu[:-1] += off * u[1:]
    hu[1:] += off * u[:-1]
    r = hu - float(np.dot(u, hu)) / float(np.dot(u, u)) * u
    bands = np.array([np.full(len(u), off), np.full(len(u), 1.0 / h**2 + 1.0), np.full(len(u), off)])
    pr = solve_banded((1, 1), bands, r)
    return math.sqrt(float(np.dot(r, pr)) / float(np.dot(u, u)))


def grid_ground_state_energy(spec: GridSpec, gamma: float) -> float:
    """Discrete ground-state energy by a damped self-consistent eigensolve.

    See ``perfbench/reference.py``: scipy's tridiagonal eigensolver with the
    density mixed 50/50 between sweeps, which keeps attractive couplings on
    the metastable branch of a Gaussian start.
    """
    energy, res = _REFERENCE.ground_state_energy(spec.dimension.value, spec.r_max, spec.n_points, gamma)
    assert res < _REFERENCE.RESIDUAL_TOL, f"reference did not converge at gamma={gamma}"
    return energy
