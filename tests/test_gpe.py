"""Grid minimizer: discretisation accuracy, descent behaviour, critical scan."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from becstab import (
    Dimension,
    DimensionlessProblem,
    GridSpec,
    ansatz_energy,
    critical_scan,
    discrete_energy,
    dump_profile,
    gaussian_state,
    measured_width,
    minimize,
    sample_gaussian,
    state_from_values,
    stationary_points,
)
from helpers import grid_ground_state_energy, stated_residual

SQRT_2PI = math.sqrt(2.0 * math.pi)

FAST_3D = GridSpec(Dimension.D3, r_max=6.0, n_points=128)
FAST_1D = GridSpec(Dimension.D1, r_max=6.0, n_points=128)


def energy_floor_3d(spec):
    # E >= sqrt(5)/2 at every 3D stationary state (virial), less the grid's O(h^2) error
    h = spec.spacing
    return math.sqrt(5.0) / 2.0 - h * h


# --- grid plumbing --------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(Dimension.D3, n_points=32)
    with pytest.raises(ValueError):
        GridSpec(Dimension.D3, r_max=4.0)
    for r_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="r_max"):
            GridSpec(Dimension.D3, r_max=r_max)
    for n_points in (64.5, 128.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_points"):
            GridSpec(Dimension.D1, n_points=n_points)
    assert GridSpec(Dimension.D3, n_points=np.int64(128)).spacing == 8.0 / 127


def test_grid_axes():
    spec = GridSpec(Dimension.D3, 8.0, 101)
    axis = spec.axis()
    assert axis.shape == (101,)
    assert axis[0] == 0.0 and axis[-1] == 8.0
    assert spec.spacing == pytest.approx(0.08)
    spec1 = GridSpec(Dimension.D1, 8.0, 101)
    axis1 = spec1.axis()
    assert axis1.shape == (201,)
    assert axis1[0] == -8.0 and axis1[100] == 0.0 and axis1[-1] == 8.0


def test_state_from_values_validation():
    spec = GridSpec(Dimension.D3, 8.0, 256)
    with pytest.raises(ValueError):
        state_from_values(spec, 0.0, np.zeros(7))
    good = sample_gaussian(spec, 1.0)
    with pytest.raises(ValueError):
        state_from_values(spec, 0.0, good * 1.1)   # unnormalised
    state = state_from_values(spec, 0.0, good)
    assert state.iterations == 0 and not state.converged and not state.collapsed


def test_discrete_energy_rejects_unnormalised():
    spec = GridSpec(Dimension.D3, 8.0, 256)
    state = gaussian_state(spec, 0.0)
    bad = state_from_values(spec, 0.0, state.values)
    object.__setattr__(bad, "values", bad.values * 1.05)
    with pytest.raises(ValueError):
        discrete_energy(bad)


@pytest.mark.parametrize("dim", [Dimension.D3, Dimension.D1])
@pytest.mark.parametrize("n_points", [128, 2048])
def test_kinetic_energy_matches_the_bond_difference_sum(dim, n_points):
    # independent reference: the kinetic term as w / (2h) * sum of squared bond
    # differences, which equals the stencil form by summation by parts
    spec = GridSpec(dim, 8.0, n_points)
    weight = 4.0 * math.pi if dim is Dimension.D3 else 1.0
    for s in (0.5, 1.0, 2.0):
        state = gaussian_state(spec, 0.0, s=s)
        bonds = np.diff(state.values)
        reference = 0.5 * weight / spec.spacing * math.fsum(bonds * bonds)
        assert discrete_energy(state).kinetic == pytest.approx(reference, rel=1e-12)


# --- sampled Gaussians reproduce the closed forms --------------------------------------

def test_sampled_gaussian_noninteracting_3d():
    state = gaussian_state(GridSpec(Dimension.D3, 8.0, 2048), 0.0)
    assert state.energy.total == pytest.approx(1.5, abs=1e-4)
    # kinetic/potential split is the oscillator equipartition
    assert state.energy.kinetic == pytest.approx(0.75, abs=1e-4)
    assert state.energy.potential == pytest.approx(0.75, abs=1e-4)


def test_sampled_gaussian_interacting_3d():
    state = gaussian_state(GridSpec(Dimension.D3, 8.0, 2048), SQRT_2PI)
    assert state.energy.total == pytest.approx(2.5, abs=1e-3)


def test_sampled_gaussian_noninteracting_1d():
    state = gaussian_state(GridSpec(Dimension.D1, 8.0, 2048), 0.0)
    assert state.energy.total == pytest.approx(0.5, abs=1e-4)


def test_sampled_gaussian_matches_closed_form_any_width():
    for s, gamma in ((0.7, -0.4), (1.3, 2.0)):
        state = gaussian_state(GridSpec(Dimension.D3, 8.0, 2048), gamma, s=s)
        exact = ansatz_energy(s, DimensionlessProblem(Dimension.D3, gamma))
        assert state.energy.total == pytest.approx(exact.total, abs=2e-4)
        assert state.energy.interaction == pytest.approx(exact.interaction, rel=1e-5)


def test_discretisation_error_is_second_order():
    # halve h twice (n-1 doubles) and fit the convergence order
    errors = []
    for n in (513, 1025, 2049):
        state = gaussian_state(GridSpec(Dimension.D3, 8.0, n), 0.0)
        errors.append(abs(state.energy.total - 1.5))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.1)


# --- minimizer -------------------------------------------------------------------------

def test_minimize_noninteracting_default_grids():
    for dim, e_exact in ((Dimension.D3, 1.5), (Dimension.D1, 0.5)):
        out = minimize(GridSpec(dim), 0.0)
        assert out.converged and not out.collapsed
        assert out.energy.total == pytest.approx(e_exact, abs=1e-4)
        assert measured_width(out) == pytest.approx(1.0, abs=1e-3)


def test_minimize_noninteracting_virial():
    out = minimize(GridSpec(Dimension.D3), 0.0)
    assert out.energy.kinetic == pytest.approx(out.energy.potential, abs=1e-4)


def test_ground_state_is_nodeless():
    for gamma in (0.5, -0.3):
        out = minimize(FAST_3D, gamma)
        assert out.converged
        assert out.values.min() >= -1e-10


def test_minimize_repulsive_regression():
    out = minimize(GridSpec(Dimension.D3), 1.0)
    assert out.converged
    variational_minimum = stationary_points(
        DimensionlessProblem(Dimension.D3, 1.0)).minimum.energy.total
    assert 1.5 < out.energy.total < variational_minimum
    # self-generated golden value at the default grid (deterministic descent)
    assert out.energy.total == pytest.approx(1.811195271189894, abs=1e-6)


def test_minimize_is_monotone_and_norm_preserving():
    energies = []
    norms = []
    spec = FAST_3D
    h = spec.spacing
    weight = 4.0 * math.pi

    def record(energy, values):
        energies.append(energy)
        norms.append(weight * h * float(np.dot(values, values)))

    out = minimize(spec, -0.3, on_accept=record)
    assert out.converged
    # once per accepted step, the last with the returned state's energy
    assert len(energies) == out.iterations
    assert energies[-1] == out.energy.total
    diffs = np.diff(np.array(energies))
    assert diffs.max() <= 1e-13
    assert norms, "expected at least one norm sample"
    for norm in norms:
        assert abs(norm - 1.0) < 1e-12
    assert energies[-1] <= energies[0]


@pytest.mark.parametrize("dim, gamma", [
    (Dimension.D3, 1.0), (Dimension.D3, -0.3), (Dimension.D1, 1.0), (Dimension.D1, -0.5),
])
def test_minimize_meets_stated_residual_and_reference_energy(dim, gamma):
    spec = GridSpec(dim)
    out = minimize(spec, gamma)
    assert out.converged and not out.collapsed
    # the bound that defines ``converged``, recomputed from the docstring
    residual = stated_residual(spec, gamma, out.values)
    assert residual <= 1e-6
    assert out.residual == pytest.approx(residual, rel=1e-6)
    assert abs(out.energy.total - grid_ground_state_energy(spec, gamma)) <= 1e-10


def test_minimize_starts_anywhere_monotone():
    # a deliberately bad start still descends and lands on the same state
    spec = FAST_3D
    wide = gaussian_state(spec, 0.5, s=2.0)
    out = minimize(spec, 0.5, init=wide)
    ref = minimize(spec, 0.5)
    assert out.converged
    assert out.energy.total <= wide.energy.total
    assert out.energy.total == pytest.approx(ref.energy.total, abs=1e-7)


@pytest.mark.parametrize("spec, gamma, budget", [
    (GridSpec(Dimension.D3, 8.0, 128), -0.5, 74),     # 37 steps; steepest descent takes 317
    (GridSpec(Dimension.D1, 8.0, 256), -3.0, 80),     # 40 steps; steepest descent takes 242
])
def test_cold_runs_converge_within_a_step_budget(spec, gamma, budget):
    # step counts, not seconds: twice today's count still tells conjugate
    # gradient from steepest descent, whose outcomes are the same
    out = minimize(spec, gamma)
    assert out.converged
    assert out.iterations <= budget


def test_arc_step_refuses_a_step_that_does_not_descend():
    from becstab.gpe import _arc_step

    # f(t) = -cos(2t) - 1e-300 sin(2t) starts downhill, but its first minimum, at
    # t ~ 5e-301, lies about 1e-600 below f(0): the drop rounds to 0, so no step
    assert _arc_step(complex(-1.0, 1e-300), 0j) is None


def test_minimize_rejects_foreign_init():
    with pytest.raises(ValueError):
        minimize(FAST_3D, 0.0, init=gaussian_state(FAST_1D, 0.0))


def test_minimize_iteration_cap_reports_unconverged():
    out = minimize(FAST_3D, 1.0, max_iter=3)
    assert not out.converged and not out.collapsed
    assert out.iterations == 3
    with pytest.raises(ValueError):
        measured_width(out)
    # a negative cap takes no step, as a cap of zero does
    out = minimize(FAST_3D, 1.0, max_iter=-1)
    assert not out.converged and not out.collapsed
    assert out.iterations == 0
    with pytest.raises(ValueError):
        measured_width(out)


def test_measured_width_rejects_a_stall_before_the_first_step():
    # a minimizer state that stopped unconverged at its start: residual set, no flag
    out = dataclasses.replace(gaussian_state(FAST_3D, 1.0), residual=0.5)
    assert not out.converged and not out.collapsed
    assert out.iterations == 0
    with pytest.raises(ValueError):
        measured_width(out)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_minimize_rejects_a_non_finite_coupling(gamma):
    for spec in (FAST_3D, FAST_1D):
        with pytest.raises(ValueError, match="gamma must be finite"):
            minimize(spec, gamma)


@pytest.mark.parametrize("spec, gamma", [(FAST_3D, -0.3), (FAST_1D, -0.5), (FAST_3D, 2.0)])
def test_converged_energy_is_the_discrete_energy_of_the_state(spec, gamma):
    out = minimize(spec, gamma)
    assert out.converged
    assert out.energy == discrete_energy(out)   # bit for bit: one formula


def test_minimize_supercritical_collapses():
    out = minimize(GridSpec(Dimension.D3), -1.0)
    assert out.collapsed and not out.converged
    with pytest.raises(ValueError):
        measured_width(out)
    # a coarse 3D grid collapses too; its Gaussian start already lies below the energy floor
    coarse = minimize(GridSpec(Dimension.D3, 6.0, 64), -1.5)
    assert coarse.collapsed and coarse.iterations == 0
    # here the width rule decides, at the first step where the spike is narrower than 4 h,
    # while E is still above the floor (a coarse grid moves the fold above -0.55)
    spec = GridSpec(Dimension.D3, 14.0, 80)
    widths = []
    spike = minimize(spec, -0.55, on_accept=lambda energy, values: widths.append(
        measured_width(state_from_values(spec, -0.55, values))))
    assert spike.collapsed and not spike.converged and spike.iterations == len(widths) > 1
    assert min(widths[:-1]) >= 4.0 * spec.spacing > widths[-1]
    assert spike.energy.total >= energy_floor_3d(spec)


def test_collapsing_run_stops_at_its_first_energy_below_the_floor():
    energies = []
    spec = GridSpec(Dimension.D3)
    out = minimize(spec, -0.6, on_accept=lambda energy, values: energies.append(energy))
    assert out.collapsed and out.iterations > 1
    assert len(energies) == out.iterations and energies[-1] == out.energy.total
    assert min(energies[:-1]) >= energy_floor_3d(spec) > energies[-1]
    assert np.diff(energies).max() <= 1e-13


def test_minimize_checks_the_start_state_for_collapse():
    # the Gaussian start already lies below the 3D energy floor: no step is taken
    out = minimize(FAST_3D, -1e300)
    assert out.collapsed and not out.converged
    assert out.iterations == 0
    assert out.residual is None     # skipped: it would overflow


@pytest.mark.parametrize("gamma, start_collapsed", [(-1.0, True), (-0.9, False)])
def test_start_state_below_the_energy_floor(gamma, start_collapsed):
    # the s = 1 start has E = 3/2 + gamma / sqrt(2 pi), below the floor for gamma < about -0.96
    start = gaussian_state(FAST_3D, gamma)
    out = minimize(FAST_3D, gamma)
    assert out.collapsed
    assert (start.energy.total < energy_floor_3d(FAST_3D)) == start_collapsed
    if start_collapsed:
        assert out.iterations == 0 and out.energy == start.energy
    else:
        assert out.iterations >= 1


# Each example is one minimizer run of at most about 20 ms; 40 examples take about 0.3 s.
@settings(derandomize=True, deadline=None, max_examples=40)
@given(n_points=st.integers(64, 256), r_max=st.floats(6.0, 12.0),
       gamma=st.floats(-0.55, 100.0))
@example(n_points=64, r_max=9.0, gamma=-0.55)     # coarse grid near the fold: 1.4 h^2
@example(n_points=256, r_max=6.0, gamma=100.0)    # the cloud reaches the wall
def test_converged_3d_states_obey_the_virial_theorem(n_points, r_max, gamma):
    # The 3D energy floor rests on this: a stationary state has 2K - 2V + 3I = 0, so
    # E = K/3 + 5V/3 >= sqrt(5)/2, since K V >= 9/16.  On the grid the identity holds to
    # O(h^2), plus the pressure W = 2 pi R u'(R)^2 of the Dirichlet wall at R = r_max,
    # which matters only when the cloud reaches it (about 7e-4 at gamma = 100, r_max = 6).
    spec = GridSpec(Dimension.D3, r_max, n_points)
    out = minimize(spec, gamma)
    # a coarse grid moves the fold above -0.55 (n = 64, r_max = 12): such a run collapses
    assume(not out.collapsed)
    assert out.converged
    e = out.energy
    # K/3 + 5V/3 does not involve the collapse rule; measured: at least 0.054 above the floor
    assert e.kinetic / 3.0 + 5.0 * e.potential / 3.0 >= energy_floor_3d(spec)
    assert e.total >= energy_floor_3d(spec)
    h = spec.spacing
    wall = 2.0 * math.pi * r_max * (out.values[-2] / h) ** 2
    # measured: at most 1.5 h^2, on coarse grids next to the fold
    assert abs(2.0 * e.kinetic - 2.0 * e.potential + 3.0 * e.interaction - wall) <= 2.0 * h * h


@pytest.mark.parametrize("spec, gamma, resolved", [
    (GridSpec(Dimension.D1, 6.0, 2048), -80.0, True),    # ansatz width about 5.3 h
    (GridSpec(Dimension.D1, 8.0, 512), -60.0, False),    # ansatz width about 1.3 h
])
def test_one_dimensional_collapse_means_an_under_resolved_grid(spec, gamma, resolved):
    out = minimize(spec, gamma)
    minimum = stationary_points(DimensionlessProblem(Dimension.D1, gamma)).minimum
    if resolved:
        # the energy falls below -1e3 on the way; a 1D ground state exists anyway
        assert out.converged and not out.collapsed
        assert out.energy.total <= minimum.energy.total
        assert measured_width(out) == pytest.approx(minimum.s, rel=0.02)
    else:
        assert out.collapsed and not out.converged
        # the 1D collapse rule: an rms width sqrt(2 <x^2>) below 4 h
        assert math.sqrt(4.0 * out.energy.potential) < 4.0 * spec.spacing


def test_upper_bound_property():
    # the Gaussian is an admissible state, so its minimum can never undercut
    # the grid minimum (beyond discretisation slack)
    spec = GridSpec(Dimension.D3, 8.0, 256)
    for gamma in (0.0, 0.1, 1.0, 10.0, -0.3, -0.5):
        out = minimize(spec, gamma)
        assert out.converged, f"gamma={gamma} failed to converge"
        report = stationary_points(DimensionlessProblem(Dimension.D3, gamma))
        assert report.minimum.energy.total >= out.energy.total - 1e-3, (
            f"variational minimum fell below the grid energy at gamma={gamma}"
        )


def test_measured_width_exact_gaussians():
    assert measured_width(
        gaussian_state(GridSpec(Dimension.D3, 8.0, 512), 0.0, s=1.0)
    ) == pytest.approx(1.0, abs=1e-6)
    assert measured_width(
        gaussian_state(GridSpec(Dimension.D1, 8.0, 512), 0.0, s=0.5)
    ) == pytest.approx(0.5, abs=1e-6)


def test_minimized_width_tracks_variational_branch():
    out = minimize(GridSpec(Dimension.D3), -0.4)
    width = measured_width(out)
    stable = stationary_points(DimensionlessProblem(Dimension.D3, -0.4)).minimum.s
    assert width < 1.0
    assert abs(width - stable) < 0.1


# --- critical scan ----------------------------------------------------------------------

def test_critical_scan_brackets_and_value():
    gamma_crit = critical_scan(FAST_3D, (-1.0, -0.1))
    assert -0.671 < gamma_crit < -0.5
    # every probe outcome is pinned: a step that jumps the barrier near the
    # fold would move the final bracket
    assert gamma_crit == pytest.approx(-0.574609375, abs=1e-12)
    # the Gaussian bound always overestimates stability
    assert abs(gamma_crit) < 0.6705133427357031


def test_critical_scan_grid_refinement():
    coarse = critical_scan(FAST_3D, (-1.0, -0.1))
    fine = critical_scan(GridSpec(Dimension.D3, 6.0, 256), (-1.0, -0.1))
    assert abs(coarse - fine) < 0.01
    assert coarse == pytest.approx(-0.574609375, abs=1e-12)
    assert fine == pytest.approx(-0.574609375, abs=1e-12)


def test_critical_scan_rejects_bad_brackets():
    with pytest.raises(ValueError):
        critical_scan(FAST_3D, (-0.1, -0.05))    # both stable
    with pytest.raises(ValueError):
        critical_scan(FAST_3D, (-0.1, -1.0))     # not ordered
    with pytest.raises(ValueError):
        critical_scan(FAST_3D, (-1.0, 0.5))      # not attractive


# --- profile dump -----------------------------------------------------------------------

def test_dump_profile_3d_roundtrip():
    out = minimize(FAST_3D, 0.2)
    sink = io.StringIO()
    dump_profile(out, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "r,density"
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    assert data.shape == (FAST_3D.n_points, 2)
    assert np.all(data[:, 1] >= 0.0)
    # density integrates to one over 3D space
    norm = np.trapezoid(4.0 * math.pi * data[:, 0] ** 2 * data[:, 1], data[:, 0])
    assert norm == pytest.approx(1.0, abs=1e-3)


def test_dump_profile_1d(tmp_path):
    out = minimize(FAST_1D, -0.5)
    target = tmp_path / "profile.csv"
    dump_profile(out, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "x,density"
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    norm = np.trapezoid(data[:, 1], data[:, 0])
    assert norm == pytest.approx(1.0, abs=1e-3)


def test_dump_profile_3d_origin_density():
    # The r = 0 row estimates phi(0)^2 = (pi s^2)^(-3/2) from u'(0); its error is ~ -(h/s)^2.
    for n_points in (64, 128, 512):
        spec = GridSpec(Dimension.D3, n_points=n_points)
        for s in (0.5, 1.0, 1.5):
            sink = io.StringIO()
            dump_profile(gaussian_state(spec, 0.0, s), sink)
            r0, density = map(float, sink.getvalue().splitlines()[1].split(","))
            assert r0 == 0.0
            exact = (math.pi * s * s) ** -1.5
            assert density == pytest.approx(exact, rel=1.5 * (spec.spacing / s) ** 2), (n_points, s)
