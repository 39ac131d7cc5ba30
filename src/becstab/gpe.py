"""Grid-based energy minimizer for the full mean-field functional.

This is the brute-force cross-check for the Gaussian ansatz: it discretises
the per-particle energy functional on a uniform grid and minimises it on the
unit-norm sphere by preconditioned nonlinear conjugate gradient.  No
closed-form input enters, so agreement with the variational module is a real
test, and the variational energy must always sit at or above the value found
here (the Gaussian is one admissible state among many).

Conventions, chosen so that a sampled Gaussian of width ``s`` reproduces the
variational energies exactly as the spacing h -> 0:

* 1D: ``values`` holds the per-particle wave function phi(x) on the symmetric
  grid [-r_max, r_max], with int |phi|^2 dx = 1 and

      e[phi] = int [ phi'^2 / 2 + (x^2/2) phi^2 + Gamma phi^4 ] dx.

* 3D: the trap is isotropic, so the ground state is spherically symmetric
  and ``values`` holds u(r) = r * phi(r) on [0, r_max] with u(0) = 0 and
  4 pi int u^2 dr = 1.  Then

      e[u] = 4 pi int [ u'^2 / 2 + (r^2/2) u^2 ] dr
           + 8 pi^2 Gamma int u^4 / r^2 dr,

  the interaction coefficient 2 pi Gamma absorbing the contact-coupling
  normalisation used throughout the package.

All integrals use trapezoidal weights; with both endpoint values pinned to
zero that reduces to a plain sum, and the summation-by-parts identity makes
the bond-difference kinetic sum equal to the 3-point second-difference form.
Energies are per particle in units of hbar*omega, as everywhere else.

The discrete Euler-Lagrange equation is H(u) u = mu u on the interior
samples, with the mean-field operator

    H(u) = -Delta_h / 2 + x^2 / 2 + 2 g q u^2,

where Delta_h is the Dirichlet 3-point second difference over h^2, q = 1/r^2
and g = 2 pi Gamma in 3D, q = 1 and g = Gamma in 1D.  ``minimize`` measures
how far a state is from solving it by the preconditioned residual

    residual = sqrt( r . P r / u . u ),   r = H(u) u - mu u,
    mu = u . H(u) u / u . u,              P = (-Delta_h / 2 + 1)^-1,

(plain dot products over the grid samples), and reports ``converged`` only
when it is at most 1e-6.  P is applied exactly in O(n) memory: the discrete
sine transform (DST-I), built from the real FFT of the odd extension,
diagonalises Delta_h.  A run is ``collapsed`` once its rms width is below 4h,
or in 3D once its energy is below -1e3.  In 1D that means the grid is too coarse.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .units import Dimension
from .variational import EnergyBreakdown

DEFAULT_MAX_ITER = 500_000
# A run is ``converged`` once the preconditioned residual is at most this.
_RESIDUAL_TOL = 1e-6
# Collapse thresholds: the rms width in grid spacings, and the energy floor in 3D.
_COLLAPSE_WIDTH_FACTOR = 4.0
_COLLAPSE_ENERGY = -1e3
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform-grid discretisation parameters.

    3D grids are radial ([0, r_max] with n_points samples); 1D grids span
    [-r_max, r_max] with 2*n_points - 1 samples.  Both share the spacing
    h = r_max / (n_points - 1).  Lengths are in oscillator units.
    """

    dimension: Dimension
    r_max: float = 8.0
    n_points: int = 512

    def __post_init__(self) -> None:
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 64:
            raise ValueError(f"n_points must be >= 64, got {self.n_points}")
        if not (math.isfinite(self.r_max) and self.r_max >= 6.0):
            raise ValueError(f"r_max must be finite and >= 6 oscillator lengths, got {self.r_max}")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points - 1)

    def axis(self) -> np.ndarray:
        if self.dimension is Dimension.D3:
            return np.linspace(0.0, self.r_max, self.n_points)
        return np.linspace(-self.r_max, self.r_max, 2 * self.n_points - 1)


@dataclass(frozen=True, eq=False)
class GridState:
    """A normalised grid wave function with its energy bookkeeping.

    ``values`` is phi (1D) or u = r*phi (3D); see the module docstring for
    the stored normalisation.  ``iterations`` counts accepted minimizer
    steps.  ``residual`` is the preconditioned residual of ``values`` (see
    the module docstring) for minimizer output, and None for collapsed
    minimizer output and hand-built states.  ``collapsed`` is set by the
    collapse rule in the module docstring.
    """

    values: np.ndarray
    spec: GridSpec
    gamma_total: float
    energy: EnergyBreakdown
    iterations: int = 0
    converged: bool = False
    collapsed: bool = False
    residual: Optional[float] = None


class _Discretisation:
    """Precomputed arrays and the energy, residual and line-search kernels for one (spec, gamma)."""

    def __init__(self, spec: GridSpec, gamma: float):
        self.h = spec.spacing
        axis = spec.axis()
        self.axis = axis
        self.sq = axis * axis
        if spec.dimension is Dimension.D3:
            self.weight = 4.0 * math.pi
            self.int_coef = 2.0 * math.pi * gamma
            quartic = np.zeros_like(axis)
            quartic[1:] = 1.0 / self.sq[1:]   # u^4/r^2 term; u(0)=0 kills r=0
        else:
            self.weight = 1.0
            self.int_coef = gamma
            quartic = np.ones_like(axis)
        self.quartic_weight = quartic

    @cached_property
    def inverse_spectrum(self) -> np.ndarray:
        # On the m interior samples, DST-I mode k = 1..m is an eigenvector of
        # -Delta_h/2 with eigenvalue 2 sin^2(pi k / 2(m+1)) / h^2; the factor
        # 2/(m+1) makes two unnormalised transforms the identity.
        m_plus_1 = len(self.axis) - 1
        k = np.arange(1, m_plus_1)
        half_laplacian = 2.0 * np.sin(0.5 * math.pi * k / m_plus_1) ** 2 / self.h ** 2
        return (2.0 / m_plus_1) / (half_laplacian + 1.0)

    def normalized(self, values: np.ndarray) -> np.ndarray:
        # Dirichlet grid: both endpoint samples are pinned to zero.
        out = np.array(values, dtype=float)
        out[0] = 0.0
        out[-1] = 0.0
        norm = self.norm(out)
        if norm == 0.0:
            raise ValueError("cannot normalise an all-zero grid function")
        return out / math.sqrt(norm)

    def norm(self, values: np.ndarray) -> float:
        return self.weight * self.h * float(np.dot(values, values))

    def normalised_breakdown(self, values: np.ndarray) -> EnergyBreakdown:
        """Energy of ``values``, which must already be normalised (within 1e-9)."""
        norm = self.norm(values)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalised: integral of |phi|^2 = {norm!r}")
        return self.breakdown(values)

    def breakdown(self, values: np.ndarray) -> EnergyBreakdown:
        bond = np.diff(values)
        kinetic = 0.5 * self.weight / self.h * float(np.dot(bond, bond))
        density = values * values
        potential = 0.5 * self.weight * self.h * float(np.dot(self.sq, density))
        interaction = (
            self.int_coef * self.weight * self.h
            * float(np.dot(self.quartic_weight, density * density))
        )
        return EnergyBreakdown.from_parts(kinetic, potential, interaction)

    def linear(self, values: np.ndarray) -> np.ndarray:
        """(-Delta_h/2 + x^2/2) applied to the interior; real or complex input."""
        out = np.zeros_like(values)
        out[1:-1] = (
            -0.5 * (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (self.h * self.h)
            + 0.5 * self.sq[1:-1] * values[1:-1]
        )
        return out

    def hamiltonian(self, values: np.ndarray) -> np.ndarray:
        """H(u) u; the energy gradient is 2 * weight * h times this."""
        return self.linear(values) + 2.0 * self.int_coef * self.quartic_weight * values ** 3

    def arc(self, values: np.ndarray, unit: np.ndarray) -> tuple[complex, complex]:
        """Coefficients (a2, a4) of the energy along the great circle.

        For ``values`` and ``unit`` orthonormal in the grid norm, the energy of
        u(t) = values cos(t) + unit sin(t) = Re[z e^{it}], z = values - i unit,
        is Re[a2 e^{2it} + a4 e^{4it}] plus a constant.
        """
        z = values - 1j * unit
        wh = self.weight * self.h
        qz2 = self.quartic_weight * z * z
        a2 = 0.5 * wh * complex(
            np.dot(z, self.linear(z))
            + self.int_coef * np.dot(qz2, values * values + unit * unit)
        )
        a4 = 0.125 * wh * self.int_coef * complex(np.dot(qz2, z * z))
        return a2, a4

    def precondition(self, values: np.ndarray) -> np.ndarray:
        """(-Delta_h/2 + 1)^-1 applied to the interior samples."""
        out = np.zeros_like(values)
        out[1:-1] = _dst1(self.inverse_spectrum * _dst1(values[1:-1]))
        return out


def _width(energy: EnergyBreakdown, dimension: Dimension) -> float:
    """sqrt(2 <r^2> / 3) in 3D, sqrt(2 <x^2>) in 1D: sigma/a_ho for a Gaussian.

    <r^2> (or <x^2>) is twice the trap term of the energy breakdown.
    """
    mean_sq = 2.0 * energy.potential
    if dimension is Dimension.D3:
        return math.sqrt(2.0 * mean_sq / 3.0)
    return math.sqrt(2.0 * mean_sq)


def _dst1(values: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I, sum_j x_j sin(pi j k / (m+1)), from the FFT of the odd extension."""
    odd = np.concatenate(([0.0], values, [0.0], -values[::-1]))
    return -0.5 * np.fft.rfft(odd)[1:len(values) + 1].imag


def sample_gaussian(spec: GridSpec, s: float = 1.0) -> np.ndarray:
    """Normalised grid samples of the Gaussian of width ``s``."""
    if not s > 0.0:
        raise ValueError(f"width must be positive, got {s}")
    axis = spec.axis()
    raw = np.exp(-(axis * axis) / (2.0 * s * s))
    if spec.dimension is Dimension.D3:
        raw = axis * raw     # u = r * phi
    return _Discretisation(spec, 0.0).normalized(raw)


def state_from_values(spec: GridSpec, gamma: float, values: np.ndarray) -> GridState:
    """Wrap raw grid samples into a :class:`GridState`.

    The samples must already be normalised (within 1e-9); the endpoint
    samples are pinned to zero, as the Dirichlet discretisation assumes
    fully decayed tails at the grid edge.
    """
    arr = np.array(values, dtype=float)
    expected = spec.n_points if spec.dimension is Dimension.D3 else 2 * spec.n_points - 1
    if arr.shape != (expected,):
        raise ValueError(f"expected {expected} samples for this grid, got {arr.shape}")
    arr[0] = 0.0
    arr[-1] = 0.0
    energy = _Discretisation(spec, gamma).normalised_breakdown(arr)
    return GridState(values=arr, spec=spec, gamma_total=gamma, energy=energy)


def gaussian_state(spec: GridSpec, gamma: float, s: float = 1.0) -> GridState:
    """Ready-made normalised Gaussian state (the default minimizer start)."""
    return state_from_values(spec, gamma, sample_gaussian(spec, s))


def discrete_energy(state: GridState) -> EnergyBreakdown:
    """Trapezoidal energy of a normalised state; rejects unnormalised input."""
    return _Discretisation(state.spec, state.gamma_total).normalised_breakdown(state.values)


def minimize(
    spec: GridSpec,
    gamma: float,
    init: Optional[GridState] = None,
    max_iter: int = DEFAULT_MAX_ITER,
    on_accept: Optional[Callable[[float, np.ndarray], None]] = None,
) -> GridState:
    """Preconditioned nonlinear conjugate gradient on the unit-norm sphere.

    Each step computes the residual r = H(u) u - mu u, preconditions it with
    P = (-Delta_h/2 + 1)^-1 and projects it onto the tangent space of the
    sphere.  The search direction is that preconditioned gradient plus a
    Polak-Ribiere+ multiple of the previous direction, carried along the
    sphere; it restarts as the bare preconditioned gradient whenever its
    descent rate falls below 0.2 of r . P r.  The step follows the great
    circle u cos(t) + d sin(t) through the normalised direction d, on which
    the energy is a trigonometric polynomial in t known in closed form, to
    its first minimum.  A step is accepted only if that closed form says the
    energy decreases, so accepted energies are monotone up to rounding and
    the norm stays 1 to rounding.

    Termination, tested before every step and so on the start state too:
    the collapse rule (``collapsed``, module docstring), tested first from
    the energy alone; the residual sqrt(r . P r / u . u) at most 1e-6
    (``converged``); a stall, where the energy no longer decreases in float64
    along the search direction; or ``max_iter`` accepted steps.  A stall or
    the cap sets neither flag and raises no exception.  The returned state's
    ``residual`` is that of its ``values``, except on a collapse, which
    skips it (it can overflow there) and returns None.  For attractive
    couplings the default Gaussian start lies in the metastable basin, and
    the energy falls along every accepted arc, so the local minimum is
    found, never the global descent.

    ``on_accept(energy, values)`` is invoked after every accepted step with
    a read-only view of the live state.
    """
    disc = _Discretisation(spec, gamma)
    if init is not None:
        if init.spec != spec:
            raise ValueError("init state was built for a different grid")
        values = disc.normalized(init.values)
    else:
        values = sample_gaussian(spec, 1.0)

    energy = disc.breakdown(values)
    iterations = 0
    direction = None
    last_pr = last_rpr = None

    while True:
        # A grid-scale width: collapse in 3D, a failed grid in 1D (a 1D ground state always exists).
        # On fine 3D grids collapse is a spike whose tail keeps the width wide; the energy decides.
        collapsed = (_width(energy, spec.dimension) < _COLLAPSE_WIDTH_FACTOR * disc.h
                     or spec.dimension is Dimension.D3 and energy.total < _COLLAPSE_ENERGY)
        if collapsed:
            converged, residual_norm = False, None
            break
        hu = disc.hamiltonian(values)
        uu = float(np.dot(values, values))
        residual = hu - (float(np.dot(values, hu)) / uu) * values
        pr = disc.precondition(residual)
        rpr = float(np.dot(residual, pr))
        residual_norm = math.sqrt(rpr / uu)
        converged = residual_norm <= _RESIDUAL_TOL
        if converged or iterations >= max_iter:
            break
        pr -= (float(np.dot(values, pr)) / uu) * values
        if direction is not None:
            beta = max(0.0, (rpr - float(np.dot(residual, last_pr))) / last_rpr)
            direction = beta * direction - pr
            if -float(np.dot(direction, residual)) < 0.2 * rpr:
                direction = -pr
        else:
            direction = -pr
        last_pr, last_rpr = pr, rpr

        length = math.sqrt(disc.norm(direction))
        unit = direction / length
        a2, a4 = disc.arc(values, unit)
        t = _arc_step(a2, a4)
        if t is None:
            break
        cos_t, sin_t = math.cos(t), math.sin(t)
        trial = cos_t * values + sin_t * unit
        direction = length * (cos_t * unit - sin_t * values)
        values = trial / math.sqrt(disc.norm(trial))
        energy = disc.breakdown(values)
        iterations += 1
        if on_accept is not None:
            view = values.view()
            view.flags.writeable = False
            on_accept(energy.total, view)

    return GridState(
        values=values,
        spec=spec,
        gamma_total=gamma,
        energy=energy,
        iterations=iterations,
        converged=converged,
        collapsed=collapsed,
        residual=residual_norm,
    )


def _arc_step(a2: complex, a4: complex) -> Optional[float]:
    """First local minimum t > 0 of f(t) = Re[a2 e^{2it} + a4 e^{4it}].

    Returns None unless f descends from t = 0 to there.  Where the slope
    s = f'(t) is negative and c = f''(t), the bound |f'''| <= m with
    m = 8 |a2| + 64 |a4| keeps the slope negative on [t, t + h) for the
    positive root h of s + c h + m h^2 / 2 = 0.  Stepping by h therefore
    climbs to the first zero of f' without passing it, quadratically fast
    near that zero.
    """
    def slope(t: float) -> tuple[float, float]:
        e = complex(math.cos(2.0 * t), math.sin(2.0 * t))
        return -(e * (2.0 * a2 + 4.0 * a4 * e)).imag, -(e * (4.0 * a2 + 16.0 * a4 * e)).real

    m = 8.0 * abs(a2) + 64.0 * abs(a4)
    t = 0.0
    s, c = slope(t)
    if not s < 0.0:
        return None
    for _ in range(100):
        root = math.sqrt(c * c - 2.0 * m * s)
        h = (root - c) / m if c < 0.0 else -2.0 * s / (c + root)
        t += h
        s, c = slope(t)
        if not s < 0.0 or h <= 1e-15 * t:
            break
    # f(t) - f(0), using e^{ix} - 1 = 2i sin(x/2) e^{ix/2} to avoid cancellation
    half = complex(math.cos(t), math.sin(t))
    drop = -2.0 * (a2 * math.sin(t) * half + a4 * math.sin(2.0 * t) * half * half).imag
    return t if drop < 0.0 else None


def measured_width(state: GridState) -> float:
    """Root-mean-square cloud width mapped to the Gaussian ``s`` convention.

    Returns sqrt(2 <r^2> / 3) in 3D and sqrt(2 <x^2>) in 1D, which equal
    sigma/a_ho exactly when the state is Gaussian, from ``state.energy``.
    Collapsed states have no meaningful width; unconverged minimizer output is
    rejected too (hand-built states, ``residual`` None, are always measurable).
    """
    if state.collapsed:
        raise ValueError("collapsed state has no meaningful width")
    if state.residual is not None and not state.converged:
        raise ValueError("unconverged minimizer state; width would be untrustworthy")
    return _width(state.energy, state.spec.dimension)


def critical_scan(spec: GridSpec, bracket: tuple[float, float]) -> float:
    """Bisect the coupling between collapsing and stable minimizer outcomes.

    ``bracket`` = (gamma_lo, gamma_hi) with gamma_lo < gamma_hi < 0; the
    lower edge must collapse and the upper edge must converge, otherwise the
    bracket is rejected.  Probes are sequential and warm-start from the most
    recent stable profile.  A probe that stops at the step cap or on a
    stall without collapsing counts as stable.  Returns the bracket midpoint
    once its width is below 0.01.
    """
    gamma_lo, gamma_hi = bracket
    if not (gamma_lo < gamma_hi < 0.0):
        raise ValueError(f"bracket must satisfy gamma_lo < gamma_hi < 0, got {bracket}")

    low_state = minimize(spec, gamma_lo)
    if not low_state.collapsed:
        raise ValueError(f"bad bracket: gamma_lo={gamma_lo} did not collapse")
    high_state = minimize(spec, gamma_hi)
    if high_state.collapsed or not high_state.converged:
        raise ValueError(f"bad bracket: gamma_hi={gamma_hi} did not converge to a stable state")

    warm = high_state
    while gamma_hi - gamma_lo > 0.01:
        mid = 0.5 * (gamma_lo + gamma_hi)
        probe = minimize(spec, mid, init=warm)
        if probe.collapsed:
            gamma_lo = mid
        else:
            gamma_hi = mid
            warm = probe
    return 0.5 * (gamma_lo + gamma_hi)
