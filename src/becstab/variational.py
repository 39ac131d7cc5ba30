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
every coupling, so no critical atom number exists.  An attractive 3D coupling
weaker than about 1.6e-61 is rejected: its barrier width is below float64 range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

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

# Root finder: a log-spaced scan brackets the roots, a safeguarded Newton refines each.
_SCAN_LO = 1e-4
_SCAN_HI = 1e3
_SCAN_POINTS = 256
# The scan points: 10 ** (evenly spaced exponents), with both ends exact.
_LOG_LO, _LOG_HI = math.log10(_SCAN_LO), math.log10(_SCAN_HI)
_LOG_STEP = (_LOG_HI - _LOG_LO) / (_SCAN_POINTS - 1)
_SCAN_GRID = (_SCAN_LO, *(10.0 ** (i * _LOG_STEP + _LOG_LO) for i in range(1, _SCAN_POINTS - 1)),
              _SCAN_HI)
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


def gamma_of_width(s: float, dimension: Dimension) -> float:
    """Coupling whose energy is stationary at width ``s``.

    Solves de/ds = 0 for Gamma:  sqrt(2 pi) (s^4 - 1) / (2 s) in 1D,
    sqrt(2 pi) (s^5 - s) / 2 in 3D.
    """
    if not s > 0.0:
        raise ValueError(f"width must be positive, got {s}")
    if dimension is Dimension.D3:
        return SQRT_2PI * (s**5 - s) / 2.0
    return SQRT_2PI * (s**4 - 1.0) / (2.0 * s)


def n_max_physical(setup: PhysicalSetup) -> CriticalNumber:
    """Maximum stable atom number for an attractive 3D setup.

    Evaluated twice: directly in SI,

        N_max = (4 / 5^{5/4}) (2 pi)^{3/2} / |B| * (hbar^2 / 2m) * a_ho,

    and through the dimensionless route N(Gamma = -GAMMA_CRITICAL_3D).
    Repulsive or 1D setups are stable at every atom number (unbounded).
    """
    b_tilde = -setup.coupling     # positive for attractive interactions
    if setup.dimension is Dimension.D1 or not b_tilde > 0.0:
        return CriticalNumber(bounded=False, n_direct=math.inf, n_via_gamma=math.inf)
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

def _scan_grid(problem: DimensionlessProblem) -> list[float]:
    """Bracketing grid for p: log-spaced points plus guaranteed probes.

    The scan reads the signs of the polynomial p that :func:`stationary_points`
    refines, with c = 2 Gamma / sqrt(2 pi); de/ds has the same sign and roots.
    The probes pin a grid point on the known-sign side of every root so a
    sign change can never fall between samples:

    * 3D attractive: p's unique local minimum sits at exactly s = 5^(-1/4)
      for every c, strictly between the two roots whenever they exist; |c|/2
      lies below the small root (p is positive there for every attractive c).
    * 1D attractive with huge |c|: the single root ~ 1/|c| can undershoot
      the scan window; 1/(2|c|) is always on its negative side.
    * A point beyond the Cauchy root bound 1 + max(1, |c|) is always past
      the largest root.

    An attractive 3D coupling with (|c|/2)^5 below the normal float64 range
    (|Gamma| under about 1.6e-61) is still rejected, though p stays finite: the
    barrier width ~|c| takes its residual from 1/s^4 in :func:`denergy`.  The
    power is taken only for |c| < 1, so a huge |c| cannot overflow it.
    """
    gamma = problem.gamma_total
    c = gamma / (SQRT_2PI / 2.0)   # 2 * gamma would overflow above about 9e307
    probes = [1.0 + max(1.0, abs(c)) + 1.0]
    if problem.dimension is Dimension.D3 and gamma < 0.0:
        if abs(c) < 1.0 and (abs(c) / 2.0) ** 5 < sys.float_info.min:
            raise ValueError(f"attractive 3D coupling {gamma!r} is too weak: its barrier "
                             f"width ~{abs(c)!r} is below the float64 range of de/ds")
        probes.append(S_MIN_3D)
        probes.append(abs(c) / 2.0)
    if problem.dimension is Dimension.D1 and gamma < 0.0:
        probes.append(min(_SCAN_LO, 1.0 / (2.0 * abs(c))))
    return [s for s in sorted({*_SCAN_GRID, *probes}) if s > 0.0]


def _refine(p, dp, lo: float, hi: float) -> float:
    """Root of p in [lo, hi], where p changes sign, by safeguarded Newton.

    Newton starts from the endpoint where |p| is smaller, which is returned
    as it is if p is 0 there.  A step that would leave the bracket is
    replaced by bisection, and each new iterate shrinks the bracket.  Returns
    the iterate with the smallest |p|; stops once s no longer moves or the
    bracket can no longer be split.
    """
    p_lo, p_hi = p(lo), p(hi)
    rising = p_lo < p_hi
    s, p_s = (lo, p_lo) if abs(p_lo) <= abs(p_hi) else (hi, p_hi)
    best, p_best = s, math.inf
    while p_s != 0.0:
        slope = dp(s)
        step = s - p_s / slope if slope else math.inf     # a flat p: bisect
        if step == s:
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        s, p_s = step, p(step)
        if (p_s > 0.0) == rising:
            hi = s
        else:
            lo = s
        if abs(p_s) < abs(p_best):
            best, p_best = s, p_s
    return best


def _stationary_point(s: float, kind: PointKind, problem: DimensionlessProblem) -> StationaryPoint:
    return StationaryPoint(
        s=s,
        kind=kind,
        energy=ansatz_energy(s, problem),
        residual=abs(denergy(s, problem, 1)),
    )


def _resolved(report: StabilityReport) -> bool:
    """Whether every point meets the StationaryPoint bound, and 1D or repulsive has one."""
    gamma, d = report.problem.gamma_total, report.problem.dimension.value
    for point in report.points:
        s = point.s     # sum |terms of de/ds| = d (1/(2s^3) + s/2 + |Gamma|/(sqrt(2 pi) s^(d+1)))
        scale = d * (0.5 / s**3 + 0.5 * s + abs(gamma) / (SQRT_2PI * s ** (d + 1)))
        if not point.residual <= max(1e-10, 4.0 * sys.float_info.epsilon * scale) < math.inf:
            return False
    return len(report.points) == 1 or (d == 3 and gamma < 0.0)


def _critical_report(problem: DimensionlessProblem) -> StabilityReport:
    # Degenerate double root: de/ds and d2e/ds2 both vanish at s = 5^(-1/4).
    # The third derivative is positive there, so the point is the limit of the
    # merging barrier/minimum pair; by convention it is reported once as the
    # last metastable MINIMUM.  The residual is an honest evaluation and may
    # exceed the usual solver tolerance anywhere inside the critical band.
    point = _stationary_point(S_MIN_3D, PointKind.MINIMUM, problem)
    return StabilityReport(
        problem=problem,
        points=(point,),
        regime=Regime.ATTRACTIVE_CRITICAL,
        s_min_critical=S_MIN_3D,
        gamma_critical=GAMMA_CRITICAL_3D,
    )


def stationary_points(problem: DimensionlessProblem) -> StabilityReport:
    """All roots of de/ds on (0, inf), classified and bundled with the regime.

    Each sign change of p, which shares the roots and signs of de/ds, on the
    scan grid of :func:`_scan_grid`, with 0 counted as non-positive, brackets
    one root; a safeguarded Newton on p refines it.  A change from - to + is a
    MINIMUM, from + to - a MAXIMUM.  Zero roots is a valid outcome (3D
    attractive past the critical coupling).  Every point meets the residual
    bound stated on :class:`StationaryPoint`, and a 1D or repulsive problem
    has exactly one: a report that breaks either, where p near the root of a
    huge |Gamma| overflows or rounds away its constant, raises OverflowError.
    """
    gamma = problem.gamma_total
    three_d = problem.dimension is Dimension.D3
    attractive_3d = three_d and gamma < 0.0

    if attractive_3d and abs(gamma + GAMMA_CRITICAL_3D) < _CRITICAL_BAND:
        return _critical_report(problem)

    # de/ds = 3 p / (2 s^4) in 3D and p / (2 s^3) in 1D.  Nested products, not
    # powers: p overflows to inf, never to nan or an exception.
    c = gamma / (SQRT_2PI / 2.0)   # 2 * gamma would overflow above about 9e307
    if three_d:
        p, dp = (lambda s: s * (s * s * s * s - 1.0) - c), (lambda s: 5.0 * s * s * s * s - 1.0)
    else:
        p, dp = (lambda s: s * (s * s * s - c) - 1.0), (lambda s: 4.0 * s * s * s - c)

    grid = _scan_grid(problem)
    values = [p(s) for s in grid]
    points = tuple(
        _stationary_point(_refine(p, dp, lo, hi),
                          PointKind.MINIMUM if right > 0.0 else PointKind.MAXIMUM, problem)
        for lo, hi, left, right in zip(grid, grid[1:], values, values[1:])
        if (left > 0.0) != (right > 0.0))

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

    report = StabilityReport(
        problem=problem,
        points=points,
        regime=regime,
        s_min_critical=S_MIN_3D if attractive_3d else None,
        gamma_critical=GAMMA_CRITICAL_3D if attractive_3d else None,
    )
    if not _resolved(report):
        raise OverflowError(f"coupling {gamma!r}: float64 cannot resolve its stationary widths")
    return report
