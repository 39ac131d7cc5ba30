"""Gaussian-ansatz energies, derivatives, branch structure and critical point."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from becstab import (
    ATOMIC_MASS,
    GAMMA_CRITICAL_3D,
    S_MIN_3D,
    Dimension,
    DimensionlessProblem,
    PhysicalSetup,
    PointKind,
    Regime,
    ansatz_energy,
    denergy,
    gamma_of_width,
    n_from_gamma,
    n_max_physical,
    reduce,
    stationary_points,
)
from helpers import attractive_3d_roots, central_difference, locate_double_root, scan_roots

SQRT_2PI = math.sqrt(2.0 * math.pi)

LI7 = PhysicalSetup(
    mass=7.016 * ATOMIC_MASS,
    omega=2.0 * math.pi * 120.0,
    dimension=Dimension.D3,
    scattering_length=-14.5e-10,
)


def problem(dim: Dimension, gamma: float) -> DimensionlessProblem:
    return DimensionlessProblem(dimension=dim, gamma_total=gamma)


# --- closed-form energies ---------------------------------------------------------

def energy(dim: Dimension, s: float, gamma: float):
    return ansatz_energy(s, problem(dim, gamma))


def test_energy_1d_oscillator_ground_state():
    assert energy(Dimension.D1, 1.0, 0.0).total == 0.5


def test_energy_1d_direct_substitution():
    e = energy(Dimension.D1, 2.0, 0.0)
    assert e.kinetic == 1.0 / 16.0
    assert e.potential == 1.0
    assert e.total == 1.0625


def test_energy_1d_unit_interaction_term():
    e = energy(Dimension.D1, 1.0, SQRT_2PI)
    assert e.interaction == pytest.approx(1.0, rel=1e-15)
    assert e.total == pytest.approx(1.5, rel=1e-15)


def test_energy_3d_oscillator_ground_state():
    assert energy(Dimension.D3, 1.0, 0.0).total == 1.5


def test_energy_3d_unit_interaction_term():
    e = energy(Dimension.D3, 1.0, SQRT_2PI)
    assert e.total == pytest.approx(2.5, rel=1e-15)


def test_energy_breakdown_signs_and_sum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = rng.uniform(0.05, 5.0)
        gamma = rng.uniform(-3.0, 3.0)
        for e in (energy(Dimension.D1, s, gamma), energy(Dimension.D3, s, gamma)):
            assert e.kinetic > 0.0
            assert e.potential > 0.0
            assert math.copysign(1.0, e.interaction) == math.copysign(1.0, gamma) or gamma == 0.0
            assert e.total == e.kinetic + e.potential + e.interaction


def test_energy_rejects_nonpositive_width():
    for dim in (Dimension.D1, Dimension.D3):
        with pytest.raises(ValueError):
            energy(dim, 0.0, 1.0)
        with pytest.raises(ValueError):
            energy(dim, -1.0, 1.0)
    with pytest.raises(ValueError):
        denergy(0.0, problem(Dimension.D3, 1.0))
    with pytest.raises(ValueError):
        ansatz_energy(-0.5, problem(Dimension.D3, 0.0))


def test_gaussian_ansatz_dispatches_by_dimension():
    assert ansatz_energy(1.0, problem(Dimension.D3, 0.0)).total == 1.5
    assert ansatz_energy(1.0, problem(Dimension.D1, 0.0)).total == 0.5
    assert ansatz_energy(2.0, problem(Dimension.D1, 0.0)).total == 1.0625


def test_degeneracy_at_critical_point():
    # at (s, Gamma) = (5^(-1/4), -Gamma_crit) both derivatives vanish
    p = problem(Dimension.D3, -GAMMA_CRITICAL_3D)
    assert abs(denergy(S_MIN_3D, p, 1)) < 1e-12
    assert abs(denergy(S_MIN_3D, p, 2)) < 1e-12


# --- derivatives against finite differences ----------------------------------------

def test_denergy_rejects_bad_order():
    with pytest.raises(ValueError):
        denergy(1.0, problem(Dimension.D3, 0.0), order=3)


def test_denergy_noninteracting_3d():
    assert denergy(1.0, problem(Dimension.D3, 0.0), 1) == 0.0
    fd = central_difference(lambda s: energy(Dimension.D3, s, 0.0).total, 1.0, order=2)
    d2 = denergy(1.0, problem(Dimension.D3, 0.0), 2)
    assert d2 == pytest.approx(6.0, rel=1e-12)
    assert d2 == pytest.approx(fd, rel=1e-8)


def test_denergy_matches_finite_difference_spot():
    p = problem(Dimension.D3, -0.3)
    fd = central_difference(lambda s: energy(Dimension.D3, s, -0.3).total, 0.5, order=1)
    assert denergy(0.5, p, 1) == pytest.approx(fd, rel=1e-8)


def test_denergy_matches_finite_difference_random():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        s = rng.uniform(0.05, 5.0)
        gamma = rng.uniform(-5.0, 5.0)
        dim = Dimension.D3 if rng.random() < 0.5 else Dimension.D1
        p = problem(dim, gamma)
        fn = lambda x: ansatz_energy(x, p).total
        for order in (1, 2):
            exact = denergy(s, p, order)
            approx = central_difference(fn, s, order=order)
            assert abs(exact - approx) <= 1e-7 * max(1.0, abs(exact)), (
                f"order-{order} derivative mismatch at s={s}, gamma={gamma}, {dim}: "
                f"analytic {exact} vs finite difference {approx}"
            )


# --- the coupling that makes a width stationary ---------------------------------------

def test_gamma_of_width_vanishes_at_oscillator_length():
    for dim in (Dimension.D1, Dimension.D3):
        assert gamma_of_width(1.0, dim) == 0.0


def test_critical_width_gives_n_max():
    n_at_min_width = n_from_gamma(gamma_of_width(S_MIN_3D, Dimension.D3), LI7)
    assert n_at_min_width == pytest.approx(n_max_physical(LI7).n_direct, rel=1e-12)


def test_gamma_of_width_consistency():
    # dimensionless twin: gamma_of_width inverts the stationary condition
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = rng.uniform(0.1, 3.0)
        for dim in (Dimension.D1, Dimension.D3):
            gamma = gamma_of_width(s, dim)
            assert abs(denergy(s, problem(dim, gamma), 1)) < 1e-12
    # and matches the SI route through a trap whose interaction has gamma's sign
    repulsive = dataclasses.replace(LI7, scattering_length=-LI7.scattering_length)
    for s in (0.7, 0.9, 1.3):
        gamma = gamma_of_width(s, Dimension.D3)
        setup = LI7 if gamma < 0.0 else repulsive
        n = n_from_gamma(gamma, setup)
        assert n > 0.0
        assert reduce(setup.with_n(n)).gamma_total == pytest.approx(gamma, rel=1e-10)


# --- stationary_points ---------------------------------------------------------------

def test_noninteracting_point_is_exact():
    for dim, total in ((Dimension.D3, 1.5), (Dimension.D1, 0.5)):
        report = stationary_points(problem(dim, 0.0))
        assert report.regime is Regime.NONINTERACTING
        assert len(report.points) == 1
        point = report.points[0]
        assert point.kind is PointKind.MINIMUM
        assert point.s == pytest.approx(1.0, abs=1e-12)
        assert point.energy.total == pytest.approx(total, abs=1e-12)


def test_attractive_3d_two_branches_match_scan_oracle():
    report = stationary_points(problem(Dimension.D3, -0.3))
    assert report.regime is Regime.ATTRACTIVE_SUBCRITICAL
    assert len(report.points) == 2
    barrier, minimum = report.points
    assert barrier.kind is PointKind.MAXIMUM
    assert minimum.kind is PointKind.MINIMUM
    oracle = scan_roots(problem(Dimension.D3, -0.3))
    assert len(oracle) == 2
    assert barrier.s == pytest.approx(oracle[0], rel=1e-10)
    assert minimum.s == pytest.approx(oracle[1], rel=1e-10)
    assert S_MIN_3D < minimum.s < 1.0
    assert report.s_min_critical == S_MIN_3D
    assert report.gamma_critical == GAMMA_CRITICAL_3D


def test_supercritical_3d_has_no_points():
    report = stationary_points(problem(Dimension.D3, -1.0))
    assert report.regime is Regime.ATTRACTIVE_COLLAPSED
    assert report.points == ()
    assert report.minimum is None
    assert scan_roots(problem(Dimension.D3, -1.0)) == []


def test_attractive_1d_strong_coupling_matches_quartic():
    report = stationary_points(problem(Dimension.D1, -10.0))
    assert report.regime is Regime.ATTRACTIVE_1D
    assert len(report.points) == 1
    point = report.points[0]
    assert point.kind is PointKind.MINIMUM
    # independent: positive real root of s^4 - (2 gamma / sqrt(2 pi)) s - 1
    roots = np.roots([1.0, 0.0, 0.0, -2.0 * -10.0 / SQRT_2PI, -1.0])
    quartic = [r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0.0]
    assert len(quartic) == 1
    assert point.s == pytest.approx(quartic[0], rel=1e-10)
    assert point.s == pytest.approx(SQRT_2PI / 20.0, rel=2e-2)   # asymptotic value


def test_repulsive_single_minimum_both_dims():
    for dim in (Dimension.D1, Dimension.D3):
        for gamma in (0.3, 2.0, 50.0):
            report = stationary_points(problem(dim, gamma))
            assert report.regime is Regime.REPULSIVE_STABLE
            assert len(report.points) == 1
            assert report.points[0].kind is PointKind.MINIMUM
            assert report.points[0].s > 1.0
            assert report.s_min_critical is None
            assert report.gamma_critical is None


def test_stationarity_residuals_below_tolerance():
    rng = np.random.default_rng(8)
    gammas_3d = list(rng.uniform(-0.6, 5.0, 40))
    gammas_1d = list(rng.uniform(-50.0, 50.0, 40))
    for dim, gammas in ((Dimension.D3, gammas_3d), (Dimension.D1, gammas_1d)):
        for gamma in gammas:
            for point in stationary_points(problem(dim, gamma)).points:
                assert point.residual < 1e-10


def test_classification_matches_second_derivative():
    rng = np.random.default_rng(9)
    for _ in range(60):
        dim = Dimension.D3 if rng.random() < 0.5 else Dimension.D1
        gamma = rng.uniform(-0.6, 3.0) if dim is Dimension.D3 else rng.uniform(-30.0, 30.0)
        p = problem(dim, gamma)
        for point in stationary_points(p).points:
            curvature = denergy(point.s, p, 2)
            assert abs(curvature) > 1e-12
            assert (point.kind is PointKind.MINIMUM) == (curvature > 0.0)


def test_branch_count_drops_across_critical():
    low = problem(Dimension.D3, -0.99 * GAMMA_CRITICAL_3D)
    high = problem(Dimension.D3, -1.01 * GAMMA_CRITICAL_3D)
    assert len(stationary_points(low).points) == 2
    assert len(stationary_points(high).points) == 0
    # independent dense-scan verification of both counts
    assert len(scan_roots(low)) == 2
    assert len(scan_roots(high)) == 0


def test_one_dimensional_uniqueness():
    for gamma in np.linspace(-50.0, 50.0, 101):
        report = stationary_points(problem(Dimension.D1, float(gamma)))
        assert len(report.points) == 1
        assert report.points[0].kind is PointKind.MINIMUM


def test_repulsive_width_increases_with_coupling():
    for dim in (Dimension.D1, Dimension.D3):
        widths = [stationary_points(problem(dim, g)).points[0].s
                  for g in np.linspace(0.0, 50.0, 41)]
        assert all(b > a for a, b in zip(widths, widths[1:]))


def test_attractive_1d_width_shrinks_to_zero():
    gammas = np.linspace(-1.0, -50.0, 50)
    widths = [stationary_points(problem(Dimension.D1, float(g))).points[0].s
              for g in gammas]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert widths[-1] < 0.03


def test_report_depends_only_on_gamma_and_dimension():
    base = PhysicalSetup(mass=LI7.mass, omega=LI7.omega, dimension=Dimension.D3,
                         n_atoms=800.0, scattering_length=LI7.scattering_length)
    # halving a and doubling N, and rescaling the trap by an exact factor of 4,
    # both reproduce gamma bit for bit
    rescaled_atoms = PhysicalSetup(
        mass=LI7.mass, omega=LI7.omega, dimension=Dimension.D3,
        n_atoms=1600.0, scattering_length=LI7.scattering_length / 2.0)
    softer_trap = PhysicalSetup(
        mass=LI7.mass, omega=LI7.omega / 4.0, dimension=Dimension.D3,
        n_atoms=800.0, scattering_length=LI7.scattering_length * 2.0)
    g0 = reduce(base).gamma_total
    assert reduce(rescaled_atoms).gamma_total == g0
    assert reduce(softer_trap).gamma_total == g0
    r0 = stationary_points(reduce(base))
    assert stationary_points(reduce(rescaled_atoms)) == r0
    assert stationary_points(reduce(softer_trap)) == r0


def test_extreme_couplings_still_bracketed():
    # far outside the base scan window in both directions
    report = stationary_points(problem(Dimension.D1, -1e6))
    assert len(report.points) == 1
    assert report.points[0].residual < 1e-6 * abs(denergy(
        report.points[0].s * 1.01, problem(Dimension.D1, -1e6), 1))
    report = stationary_points(problem(Dimension.D3, 1e7))
    assert len(report.points) == 1
    assert report.points[0].kind is PointKind.MINIMUM
    tiny = stationary_points(problem(Dimension.D3, -1e-5))
    assert len(tiny.points) == 2


def test_scan_grid_is_geomspace_with_exact_ends():
    grid = sys.modules["becstab.variational"]._SCAN_GRID
    assert len(grid) == 256
    assert grid[0] == 1e-4 and grid[-1] == 1e3
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert all(type(s) is float for s in grid)
    reference = np.geomspace(1e-4, 1e3, 256)
    assert np.all(np.abs(np.asarray(grid) - reference) <= 4 * np.spacing(reference))


def slope_terms(dim: Dimension, gamma: float, s: float) -> tuple[float, float, float]:
    """Kinetic, trap and interaction terms of de/ds, written out independently."""
    if dim is Dimension.D3:
        return -1.5 / s**3, 1.5 * s, -3.0 * gamma / (SQRT_2PI * s**4)
    return -0.5 / s**3, 0.5 * s, -gamma / (SQRT_2PI * s * s)


def test_residual_meets_the_stated_contract():
    # Where the absolute 1e-10 cannot hold: the 3D barrier width at small
    # |Gamma| (residual ~5e-4 at Gamma = -1e-4) and 1D at large |Gamma|
    # (~64 at Gamma = -1e6).  The bound is the one stated on StationaryPoint.
    small = np.geomspace(1e-6, 0.02, 300)
    cases = [(Dimension.D3, -g) for g in [*small, 1e-4]]
    cases += [(Dimension.D1, sign * g) for sign in (1.0, -1.0)
              for g in [*np.geomspace(1e-6, 1e6, 200), 1e6]]
    for dim, gamma in cases:
        report = stationary_points(problem(dim, float(gamma)))
        assert report.points
        for point in report.points:
            terms = slope_terms(dim, gamma, point.s)
            bound = max(1e-10, 4.0 * sys.float_info.epsilon * sum(abs(t) for t in terms))
            assert point.residual <= bound, (dim, gamma, point.s, point.residual, bound)
            assert abs(sum(terms)) <= bound, (dim, gamma, point.s, bound)


def test_roots_on_scan_points_are_found_once():
    # Gamma = gamma_of_width(s_i) puts a root on scan point s_i, where the scanned
    # polynomial p (s^5 - s - c in 3D, s^4 - c s - 1 in 1D, c = 2 Gamma / sqrt(2 pi),
    # in nested form) is often exactly 0.  Counted as non-positive, such a zero
    # brackets its root exactly once, with the kind of the sign change it sits in.
    exact_zeros = 0
    for dim in (Dimension.D1, Dimension.D3):
        for s in sys.modules["becstab.variational"]._SCAN_GRID:
            gamma = gamma_of_width(s, dim)
            if dim is Dimension.D3 and abs(gamma + GAMMA_CRITICAL_3D) < 1e-9:
                continue
            c = gamma / (SQRT_2PI / 2.0)
            exact_zeros += (s * (s * s * s * s - 1.0) - c if dim is Dimension.D3
                            else s * (s * s * s - c) - 1.0) == 0.0
            points = stationary_points(problem(dim, gamma)).points
            kinds = ([PointKind.MAXIMUM, PointKind.MINIMUM] if dim is Dimension.D3 and gamma < 0.0
                     else [PointKind.MINIMUM])
            assert [point.kind for point in points] == kinds, (dim, s, points)
            assert any(abs(point.s - s) <= 1e-12 * s for point in points), (dim, s, points)
            for point in points:
                terms = slope_terms(dim, gamma, point.s)
                bound = max(1e-10, 4.0 * sys.float_info.epsilon * sum(abs(t) for t in terms))
                assert point.residual <= bound, (dim, s, point, bound)
    assert exact_zeros > 0


# Couplings past 1e6 whose outcome is pinned: answered (True) or refused with an
# ArithmeticError (False).  Unrefused, the four False ones would be reported with a
# wrong width, with no width in 1D, or with an infinite residual.
HUGE_COUPLING_ANSWERED = {
    (Dimension.D3, 1e300): True,
    (Dimension.D1, 1e200): True,
    (Dimension.D1, 1.7e308): False,
    (Dimension.D1, -1.7e308): False,
    (Dimension.D3, 1.7e308): False,
    (Dimension.D3, -1.7e308): True,
    (Dimension.D1, 4.9485809171023767e+294): False,
}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(dim=st.sampled_from([Dimension.D1, Dimension.D3]),
       gamma=st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                       st.floats(allow_nan=False, allow_infinity=False)))
@example(dim=Dimension.D3, gamma=-GAMMA_CRITICAL_3D)
@example(dim=Dimension.D3, gamma=-GAMMA_CRITICAL_3D + 5e-10)     # inside the band
@example(dim=Dimension.D3, gamma=-GAMMA_CRITICAL_3D - 5e-10)
@example(dim=Dimension.D3, gamma=-GAMMA_CRITICAL_3D + 2e-9)      # just outside it
@example(dim=Dimension.D3, gamma=-GAMMA_CRITICAL_3D - 2e-9)
@example(dim=Dimension.D3, gamma=-1e-57)      # barrier far below the scan window
@example(dim=Dimension.D3, gamma=-1e-60)
@example(dim=Dimension.D3, gamma=-1e-300)     # barrier below float64 range
@example(dim=Dimension.D3, gamma=-5e-324)
@example(dim=Dimension.D3, gamma=1e300)
@example(dim=Dimension.D1, gamma=1e200)
@example(dim=Dimension.D1, gamma=1.7e308)
@example(dim=Dimension.D1, gamma=-1.7e308)
@example(dim=Dimension.D3, gamma=1.7e308)
@example(dim=Dimension.D3, gamma=-1.7e308)
@example(dim=Dimension.D1, gamma=4.9485809171023767e+294)
def test_stationary_points_property_any_finite_coupling(dim, gamma):
    c = gamma / (SQRT_2PI / 2.0)   # 2 * gamma / SQRT_2PI, bit for bit, without overflow
    if (dim is Dimension.D3 and gamma < 0.0 and abs(c) < 1.0
            and (abs(c) / 2.0) ** 5 < sys.float_info.min):
        # de/ds cannot be evaluated at the barrier width ~|c|: rejected, not mislabelled
        with pytest.raises(ValueError, match="too weak"):
            stationary_points(problem(dim, gamma))
        return
    try:
        report = stationary_points(problem(dim, gamma))
    except ArithmeticError:
        # past 1e6 a width, or its residual, may leave what float64 resolves
        assert abs(gamma) > 1e6 and not HUGE_COUPLING_ANSWERED.get((dim, gamma), False)
        return
    assert HUGE_COUPLING_ANSWERED.get((dim, gamma), True)

    minimum, maximum = PointKind.MINIMUM, PointKind.MAXIMUM
    if gamma == 0.0:
        expected = (Regime.NONINTERACTING, [minimum])
    elif gamma > 0.0:
        expected = (Regime.REPULSIVE_STABLE, [minimum])
    elif dim is Dimension.D1:
        expected = (Regime.ATTRACTIVE_1D, [minimum])     # Descartes: one positive root
    elif abs(gamma + GAMMA_CRITICAL_3D) < 1e-9:
        expected = (Regime.ATTRACTIVE_CRITICAL, [minimum])
    elif -0.8 * 5.0**-0.25 - c < 0.0:
        # s^5 - s - c dips below zero at its minimum s = 5^(-1/4): two roots
        expected = (Regime.ATTRACTIVE_SUBCRITICAL, [maximum, minimum])
    else:
        expected = (Regime.ATTRACTIVE_COLLAPSED, [])
    assert (report.regime, [p.kind for p in report.points]) == expected

    if report.regime is Regime.ATTRACTIVE_CRITICAL:
        return      # exempt from the residual contract, see StationaryPoint
    for point in report.points:
        terms = slope_terms(dim, gamma, point.s)
        # 4 eps is a power of two, so scaling each term first gives 4 eps * sum(|terms|)
        # bit for bit, and the sum of three finite terms cannot overflow
        bound = max(1e-10, sum(4.0 * sys.float_info.epsilon * abs(t) for t in terms))
        assert point.residual <= bound < math.inf, (point, bound)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(dim=st.sampled_from([Dimension.D1, Dimension.D3]),
       sign=st.sampled_from([-1.0, 1.0]),
       exponent=st.floats(min_value=-6.0, max_value=3.0))
def test_gamma_of_width_recovers_the_coupling_of_every_point(dim, sign, exponent):
    # gamma_of_width(s) - Gamma is sqrt(2 pi)/2 p(s) in 3D and sqrt(2 pi) p(s)/(2 s) in 1D,
    # p the stationarity polynomial, so the residual bounds it; the 8 eps term covers
    # the rounding of gamma_of_width's terms and of Gamma.
    gamma = sign * 10.0 ** exponent
    report = stationary_points(problem(dim, gamma))
    if report.regime is Regime.ATTRACTIVE_CRITICAL:
        return      # its point sits at S_MIN_3D by construction
    eps = sys.float_info.epsilon
    for point in report.points:
        s = point.s
        if dim is Dimension.D3:
            bound = SQRT_2PI * s**4 / 3.0 * point.residual + 8.0 * eps * (
                SQRT_2PI / 2.0 * (s**5 + s) + abs(gamma))
        else:
            bound = SQRT_2PI * s * s * point.residual + 8.0 * eps * (
                SQRT_2PI / 2.0 * (s**3 + 1.0 / s) + abs(gamma))
        assert abs(gamma_of_width(s, dim) - gamma) <= bound, (point, bound)


# --- critical point -------------------------------------------------------------------

def test_critical_width_closed_form():
    assert S_MIN_3D == 5.0 ** -0.25
    assert S_MIN_3D == pytest.approx(0.668740304976422, abs=1e-15)


def test_critical_coupling_against_double_root_search():
    gamma_merge, s_merge = locate_double_root(merge_tol=1e-6)
    assert abs(-gamma_merge - GAMMA_CRITICAL_3D) < 5e-6
    assert s_merge == pytest.approx(S_MIN_3D, abs=1e-4)


def test_near_critical_regimes():
    eps_sub = GAMMA_CRITICAL_3D * 1e-7
    sub = stationary_points(problem(Dimension.D3, -(GAMMA_CRITICAL_3D - eps_sub)))
    assert sub.regime is Regime.ATTRACTIVE_SUBCRITICAL
    assert len(sub.points) == 2
    oracle = attractive_3d_roots(-(GAMMA_CRITICAL_3D - eps_sub))
    assert sub.points[0].s == pytest.approx(oracle[0], abs=1e-8)
    assert sub.points[1].s == pytest.approx(oracle[1], abs=1e-8)

    exactly = stationary_points(problem(Dimension.D3, -GAMMA_CRITICAL_3D))
    assert exactly.regime is Regime.ATTRACTIVE_CRITICAL
    assert len(exactly.points) == 1
    assert exactly.points[0].s == S_MIN_3D

    barely_over = stationary_points(problem(Dimension.D3,
                                            -(GAMMA_CRITICAL_3D + 1e-7)))
    assert barely_over.regime is Regime.ATTRACTIVE_COLLAPSED
    assert barely_over.points == ()


# --- n_max_physical -------------------------------------------------------------------

def test_n_max_paths_agree():
    critical = n_max_physical(LI7)
    assert critical.bounded
    assert critical.n_direct == pytest.approx(critical.n_via_gamma, rel=1e-10)
    assert critical.n_direct == pytest.approx(1602.2401356152297, rel=1e-12)
    assert critical.n_floor == 1602


def test_n_max_li7_order_of_magnitude():
    critical = n_max_physical(LI7)
    assert critical.n_direct == pytest.approx(1.6e3, rel=2e-2)


def test_n_max_unbounded_cases():
    one_d = PhysicalSetup(mass=LI7.mass, omega=LI7.omega, dimension=Dimension.D1,
                          coupling_1d=-1e-40)
    repulsive = PhysicalSetup(mass=LI7.mass, omega=LI7.omega, dimension=Dimension.D3,
                              scattering_length=+5e-9)
    for setup in (one_d, repulsive):
        critical = n_max_physical(setup)
        assert not critical.bounded
        assert math.isinf(critical.n_direct)
        assert math.isinf(critical.n_via_gamma)
        assert critical.n_floor is None
