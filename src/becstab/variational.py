"""Gaussian-ansatz stability analysis of a harmonically trapped condensate.

The trial state is a single isotropic Gaussian of dimensionless width
``s`` = sigma/a_ho.  Its mean-field energy per particle, in units of
hbar*omega, is

    1D:  e(s) = 1/(4 s^2) + s^2/4 + Gamma / (sqrt(2 pi) s)
    3D:  e(s) = 3/(4 s^2) + 3 s^2/4 + Gamma / (sqrt(2 pi) s^3)

with Gamma the signed coupling of :class:`~becstab.units.DimensionlessProblem`.
Stationary widths solve de/ds = 0; a positive second derivative marks a
(meta)stable minimum.  For attractive 3D gases the minimum coexists with a
maximum (a barrier against collapse) until |Gamma| reaches the critical
coupling GAMMA_CRITICAL_3D, where both merge at width S_MIN_3D and the cloud
becomes unstable against collapse.  In 1D there is a single stable width for
every coupling, so no critical atom number exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .units import (
    HBAR,
    Dimension,
    DimensionlessProblem,
    PhysicalSetup,
    derive_scales,
    n_from_gamma,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Width (in a_ho) of the last metastable 3D cloud: 5^(-1/4).
S_MIN_3D = 5.0 ** -0.25
# Coupling magnitude at which the attractive 3D minimum disappears:
# |Gamma| = 2 sqrt(2 pi) / 5^(5/4).
GAMMA_CRITICAL_3D = 2.0 * SQRT_2PI / 5.0**1.25

# Root-finder settings: log-spaced bracketing scan, bisection, Newton polish.
_SCAN_LO = 1e-4
_SCAN_HI = 1e3
_SCAN_POINTS = 256
_BISECT_WIDTH = 1e-14
_RESIDUAL_TOL = 1e-10
# |Gamma + GAMMA_CRITICAL_3D| below this is treated as exactly critical.
_CRITICAL_BAND = 1e-9


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-particle energy terms in units of hbar*omega."""

    kinetic: float
    potential: float
    interaction: float
    total: float

    @classmethod
    def from_parts(cls, kinetic: float, potential: float, interaction: float) -> "EnergyBreakdown":
        return cls(kinetic, potential, interaction, kinetic + potential + interaction)


class PointKind(Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"


class Regime(Enum):
    NONINTERACTING = "noninteracting"
    REPULSIVE_STABLE = "repulsive_stable"
    ATTRACTIVE_SUBCRITICAL = "attractive_subcritical"
    ATTRACTIVE_CRITICAL = "attractive_critical"
    ATTRACTIVE_COLLAPSED = "attractive_collapsed"
    ATTRACTIVE_1D = "attractive_one_d"


@dataclass(frozen=True)
class StationaryPoint:
    """A root of de/ds with its curvature classification.

    ``residual`` is |de/ds| at ``s``, and :func:`stationary_points` keeps it
    at most max(1e-10, 4 eps * sum of |terms of de/ds at s|), eps the float64
    epsilon.  The relative part is the rounding floor of de/ds; it dominates
    where the terms are large (the 3D barrier width at |Gamma| below ~0.02,
    1D at large |Gamma|).  The exactly critical report is exempt: its one
    point sits at S_MIN_3D by construction.
    """

    s: float
    kind: PointKind
    energy: EnergyBreakdown
    residual: float


@dataclass(frozen=True)
class StabilityReport:
    """All stationary widths of a problem, ordered by increasing s."""

    problem: DimensionlessProblem
    points: tuple[StationaryPoint, ...]
    regime: Regime
    s_min_critical: float | None = None    # 3D attractive only
    gamma_critical: float | None = None    # 3D attractive only (magnitude)

    @property
    def minimum(self) -> StationaryPoint | None:
        """The stable (energy-minimum) point, if any."""
        for point in self.points:
            if point.kind is PointKind.MINIMUM:
                return point
        return None

    @property
    def maximum(self) -> StationaryPoint | None:
        """The unstable (barrier) point, if any."""
        for point in self.points:
            if point.kind is PointKind.MAXIMUM:
                return point
        return None


@dataclass(frozen=True)
class CriticalNumber:
    """Maximum stable atom number of an attractive 3D setup.

    ``n_direct`` evaluates the closed form in SI arithmetic; ``n_via_gamma``
    converts the dimensionless critical coupling back to an atom number.
    Both agree to roundoff.  For 1D or repulsive setups no maximum exists
    and ``bounded`` is False (both numbers are +inf).
    """

    bounded: bool
    n_direct: float
    n_via_gamma: float

    @property
    def n_floor(self) -> int | None:
        """Largest whole atom count below the critical curve."""
        if not self.bounded:
            return None
        return math.floor(self.n_direct)


def ansatz_energy(s: float, problem: DimensionlessProblem) -> EnergyBreakdown:
    """Per-particle Gaussian energy at width ``s``, term by term.

    With d the dimension (1 or 3): d/(4 s^2) + d s^2/4 + Gamma/(sqrt(2 pi) s^d).
    """
    if not s > 0.0:
        raise ValueError(f"width must be positive, got {s}")
    d = problem.dimension.value
    return EnergyBreakdown.from_parts(
        kinetic=d / (4.0 * s * s),
        potential=d * s * s / 4.0,
        interaction=problem.gamma_total / (SQRT_2PI * s**d),
    )


def denergy(s: float, problem: DimensionlessProblem, order: int = 1) -> float:
    """Exact first or second derivative of the per-particle energy in s."""
    if not s > 0.0:
        raise ValueError(f"width must be positive, got {s}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    gamma = problem.gamma_total
    if problem.dimension is Dimension.D3:
        if order == 1:
            return -1.5 / s**3 + 1.5 * s - 3.0 * gamma / (SQRT_2PI * s**4)
        return 4.5 / s**4 + 1.5 + 12.0 * gamma / (SQRT_2PI * s**5)
    if order == 1:
        return -0.5 / s**3 + 0.5 * s - gamma / (SQRT_2PI * s * s)
    return 1.5 / s**4 + 0.5 + 2.0 * gamma / (SQRT_2PI * s**3)


def total_energy_si(energy: EnergyBreakdown, setup: PhysicalSetup) -> float:
    """Total (not per-particle) energy in joules: N * hbar*omega * e."""
    return setup.n_atoms * derive_scales(setup).energy_hw * energy.total


def gamma_of_width(s: float, dimension: Dimension) -> float:
    """Coupling whose energy is stationary at width ``s`` (dimensionless twin
    of :func:`n_of_sigma`).

    Solves de/ds = 0 for Gamma:  sqrt(2 pi) (s^4 - 1) / (2 s) in 1D,
    sqrt(2 pi) (s^5 - s) / 2 in 3D.
    """
    if not s > 0.0:
        raise ValueError(f"width must be positive, got {s}")
    if dimension is Dimension.D3:
        return SQRT_2PI * (s**5 - s) / 2.0
    return SQRT_2PI * (s**4 - 1.0) / (2.0 * s)


def n_of_sigma(sigma: float, setup: PhysicalSetup) -> float:
    """Atom number whose energy is stationary at dimensional width ``sigma`` [m].

    1D:  N = sqrt(2 pi)/B  [ (m w^2/2) sigma^3 - (hbar^2/2m) / sigma ]
    3D:  N = (2 pi)^{3/2}/B [ (m w^2/2) sigma^5 - (hbar^2/2m) sigma ]

    May be negative, meaning no physical atom number makes ``sigma``
    stationary.  sigma = a_ho always gives N = 0.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    coupling = setup.coupling
    if coupling == 0.0:
        raise ValueError("zero interaction: every width is stationary only at N=0")
    half_trap = setup.mass * setup.omega**2 / 2.0
    half_kin = HBAR**2 / (2.0 * setup.mass)
    if setup.dimension is Dimension.D3:
        return (2.0 * math.pi) ** 1.5 / coupling * (half_trap * sigma**5 - half_kin * sigma)
    return SQRT_2PI / coupling * (half_trap * sigma**3 - half_kin / sigma)


def n_max_physical(setup: PhysicalSetup) -> CriticalNumber:
    """Maximum stable atom number for an attractive 3D setup.

    Evaluated twice: directly in SI,

        N_max = (4 / 5^{5/4}) (2 pi)^{3/2} / |B| * (hbar^2 / 2m) * a_ho,

    and through the dimensionless route N(Gamma = -GAMMA_CRITICAL_3D).
    Repulsive or 1D setups are stable at every atom number (unbounded).
    """
    if setup.dimension is Dimension.D1:
        return CriticalNumber(bounded=False, n_direct=math.inf, n_via_gamma=math.inf)
    assert setup.scattering_length is not None
    if setup.scattering_length >= 0.0:
        return CriticalNumber(bounded=False, n_direct=math.inf, n_via_gamma=math.inf)

    b_tilde = -setup.coupling     # positive for attractive interactions
    aho = derive_scales(setup).length_aho
    n_direct = (
        4.0 / 5.0**1.25
        * (2.0 * math.pi) ** 1.5 / b_tilde
        * HBAR**2 / (2.0 * setup.mass)
        * aho
    )
    n_via_gamma = n_from_gamma(-GAMMA_CRITICAL_3D, setup)
    return CriticalNumber(bounded=True, n_direct=n_direct, n_via_gamma=n_via_gamma)


# --- stationary-point finder ---------------------------------------------------

def _scan_grid(problem: DimensionlessProblem) -> np.ndarray:
    """Bracketing grid for de/ds: log-spaced points plus guaranteed probes.

    de/ds shares its positive roots with the polynomial
    s^5 - s - c (3D) or s^4 - c s - 1 (1D), c = 2 Gamma / sqrt(2 pi).
    The probes pin a grid point on the known-sign side of every root so a
    sign change can never fall between samples:

    * 3D attractive: the polynomial's unique local minimum sits at exactly
      s = 5^(-1/4) for every c, strictly between the two roots whenever they
      exist; |c|/2 lies below the small root (the polynomial is positive
      there for every attractive c).
    * 1D attractive with huge |c|: the single root ~ 1/|c| can undershoot
      the scan window; 1/(2|c|) is always on its negative side.
    * A point beyond the Cauchy root bound 1 + max(1, |c|) is always past
      the largest root.
    """
    grid = np.geomspace(_SCAN_LO, _SCAN_HI, _SCAN_POINTS)
    gamma = problem.gamma_total
    c = 2.0 * gamma / SQRT_2PI
    probes = [1.0 + max(1.0, abs(c)) + 1.0]
    if problem.dimension is Dimension.D3 and gamma < 0.0:
        probes.append(S_MIN_3D)
        probes.append(abs(c) / 2.0)
    if problem.dimension is Dimension.D1 and gamma < 0.0:
        probes.append(min(_SCAN_LO, 1.0 / (2.0 * abs(c))))
    grid = np.unique(np.concatenate([grid, np.asarray(probes)]))
    return grid[grid > 0.0]


def _bisect(f, lo: float, hi: float, f_lo: float) -> float:
    """Bisection of a bracketed sign change down to width _BISECT_WIDTH."""
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:     # interval at floating resolution
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _polish(s: float, problem: DimensionlessProblem) -> float:
    """Newton steps on de/ds from an already-bisected root; keeps the best."""
    # Aim two orders inside the residual contract; one step usually suffices.
    target = _RESIDUAL_TOL * 1e-2
    best, best_res = s, abs(denergy(s, problem, 1))
    for _ in range(4):
        if best_res <= target:
            break
        slope = denergy(s, problem, 2)
        if slope == 0.0:
            break
        step = denergy(s, problem, 1) / slope
        s_next = s - step
        if not s_next > 0.0:
            break
        res = abs(denergy(s_next, problem, 1))
        if res < best_res:
            best, best_res = s_next, res
        if abs(step) < 1e-17 * s:
            break
        s = s_next
    return best


def _stationary_point(s: float, problem: DimensionlessProblem) -> StationaryPoint:
    curvature = denergy(s, problem, 2)
    kind = PointKind.MINIMUM if curvature > 0.0 else PointKind.MAXIMUM
    return StationaryPoint(
        s=s,
        kind=kind,
        energy=ansatz_energy(s, problem),
        residual=abs(denergy(s, problem, 1)),
    )


def _critical_report(problem: DimensionlessProblem) -> StabilityReport:
    # Degenerate double root: de/ds and d2e/ds2 both vanish at s = 5^(-1/4).
    # The third derivative is positive there, so the point is the limit of the
    # merging barrier/minimum pair; by convention it is reported once as the
    # last metastable MINIMUM.  The residual is an honest evaluation and may
    # exceed the usual solver tolerance anywhere inside the critical band.
    point = StationaryPoint(
        s=S_MIN_3D,
        kind=PointKind.MINIMUM,
        energy=ansatz_energy(S_MIN_3D, problem),
        residual=abs(denergy(S_MIN_3D, problem, 1)),
    )
    return StabilityReport(
        problem=problem,
        points=(point,),
        regime=Regime.ATTRACTIVE_CRITICAL,
        s_min_critical=S_MIN_3D,
        gamma_critical=GAMMA_CRITICAL_3D,
    )


def stationary_points(problem: DimensionlessProblem) -> StabilityReport:
    """All roots of de/ds on (0, inf), classified and bundled with the regime.

    Roots are bracketed by sign changes on the scan grid, refined by
    bisection and polished with Newton steps; zero roots is a valid outcome
    (3D attractive past the critical coupling).  Every point meets the
    residual bound stated on :class:`StationaryPoint`.
    """
    gamma = problem.gamma_total
    three_d = problem.dimension is Dimension.D3
    attractive_3d = three_d and gamma < 0.0

    if attractive_3d and abs(gamma + GAMMA_CRITICAL_3D) < _CRITICAL_BAND:
        return _critical_report(problem)

    def f(s: float) -> float:
        return denergy(s, problem, 1)

    grid = _scan_grid(problem)
    values = np.array([f(s) for s in grid])

    roots: list[float] = []
    for i in range(len(grid) - 1):
        left, right = values[i], values[i + 1]
        if left == 0.0:
            roots.append(float(grid[i]))
            continue
        if right == 0.0:
            continue    # picked up as the left edge of the next interval
        if (left > 0.0) != (right > 0.0):
            root = _bisect(f, float(grid[i]), float(grid[i + 1]), float(left))
            roots.append(_polish(root, problem))
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))

    points = tuple(_stationary_point(s, problem) for s in sorted(roots))

    if gamma == 0.0:
        regime = Regime.NONINTERACTING
    elif gamma > 0.0:
        regime = Regime.REPULSIVE_STABLE
    elif not three_d:
        regime = Regime.ATTRACTIVE_1D
    elif len(points) == 2:
        regime = Regime.ATTRACTIVE_SUBCRITICAL
    else:
        regime = Regime.ATTRACTIVE_COLLAPSED

    return StabilityReport(
        problem=problem,
        points=points,
        regime=regime,
        s_min_critical=S_MIN_3D if attractive_3d else None,
        gamma_critical=GAMMA_CRITICAL_3D if attractive_3d else None,
    )
