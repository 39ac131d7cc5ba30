"""Acceptance gate: every release criterion at its pinned tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import math

import numpy as np

from becstab import (
    ATOMIC_MASS,
    GAMMA_CRITICAL_3D,
    S_MIN_3D,
    Dimension,
    DimensionlessProblem,
    GridSpec,
    PhysicalSetup,
    PointKind,
    critical_scan,
    denergy,
    emit_csv,
    ansatz_energy,
    measured_width,
    minimize,
    n_max_physical,
    parse_csv,
    stationary_points,
    sweep,
)
from helpers import central_difference, locate_double_root

import io


def _verdict(number: int, label: str, checks: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in checks)
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    failed = [msg for flag, msg in checks if not flag]
    assert ok, f"criterion {number} ({label}): " + "; ".join(failed)


def li7(freq_hz: float = 120.0) -> PhysicalSetup:
    return PhysicalSetup(
        mass=7.016 * ATOMIC_MASS,
        omega=2.0 * math.pi * freq_hz,
        dimension=Dimension.D3,
        scattering_length=-14.5e-10,
    )


def test_criterion_1_critical_width():
    s_min = S_MIN_3D
    _verdict(1, "critical width 5^(-1/4)", [
        (abs(s_min - 0.668740304976422) < 1e-12,
         f"s_min={s_min!r} not within 1e-12 of 0.668740304976422"),
    ])


def test_criterion_2_critical_coupling():
    gamma_merge, s_merge = locate_double_root(merge_tol=1e-6)
    gamma_crit = GAMMA_CRITICAL_3D
    _verdict(2, "critical coupling vs independent double-root search", [
        (abs(-gamma_merge - gamma_crit) < 5e-6,
         f"double-root search gave {-gamma_merge!r}, closed form {gamma_crit!r}"),
        (abs(s_merge - S_MIN_3D) < 1e-3,
         f"merge width {s_merge!r} far from 5^(-1/4)"),
    ])


def test_criterion_3_li7_critical_number():
    checks = []
    for freq in np.linspace(117.0, 163.0, 12):
        critical = n_max_physical(li7(float(freq)))
        rel_band = abs(critical.n_direct - 1400.0) / 1400.0
        checks.append((rel_band <= 0.20,
                       f"N_max({freq:.0f} Hz)={critical.n_direct:.1f} "
                       f"is {100 * rel_band:.1f}% from 1400"))
        path_gap = abs(critical.n_direct - critical.n_via_gamma) / critical.n_direct
        checks.append((path_gap <= 1e-10,
                       f"paths disagree by {path_gap:.2e} at {freq:.0f} Hz"))
    _verdict(3, "lithium-7 critical atom number across the 117-163 Hz band", checks)


def test_criterion_4_noninteracting_exactness():
    checks = []
    for dim, e_exact in ((Dimension.D3, 1.5), (Dimension.D1, 0.5)):
        report = stationary_points(DimensionlessProblem(dim, 0.0))
        point = report.points[0]
        checks.append((abs(point.s - 1.0) < 1e-12,
                       f"{dim}: variational width {point.s!r}"))
        checks.append((abs(point.energy.total - e_exact) < 1e-12,
                       f"{dim}: variational energy {point.energy.total!r}"))
        state = minimize(GridSpec(dim), 0.0)
        width = measured_width(state)
        checks.append((state.converged, f"{dim}: oracle did not converge"))
        checks.append((abs(width - 1.0) <= 1e-3, f"{dim}: oracle width {width!r}"))
        checks.append((abs(state.energy.total - e_exact) <= 1e-4,
                       f"{dim}: oracle energy {state.energy.total!r}"))
    _verdict(4, "noninteracting widths and energies", checks)


def test_criterion_5_upper_bound():
    spec = GridSpec(Dimension.D3)
    checks = []
    for gamma in (0.1, 1.0, 10.0, -0.3, -0.5):
        state = minimize(spec, gamma)
        checks.append((state.converged, f"gamma={gamma}: oracle unconverged"))
        minimum = stationary_points(DimensionlessProblem(Dimension.D3, gamma)).minimum
        checks.append((minimum.energy.total >= state.energy.total - 1e-3,
                       f"gamma={gamma}: variational {minimum.energy.total!r} "
                       f"below oracle {state.energy.total!r}"))
        width = measured_width(state)
        checks.append((abs(width - minimum.s) <= 0.1,
                       f"gamma={gamma}: widths {width!r} vs {minimum.s!r}"))
    _verdict(5, "variational energy is an upper bound; widths agree", checks)


def test_criterion_6_oracle_critical_coupling():
    coarse_spec = GridSpec(Dimension.D3, 6.0, 128)
    fine_spec = GridSpec(Dimension.D3, 6.0, 256)
    coarse = critical_scan(coarse_spec, (-1.0, -0.1))
    fine = critical_scan(fine_spec, (-1.0, -0.1))
    _verdict(6, "grid-minimizer critical coupling brackets", [
        (abs(coarse) < 0.6706, f"|gamma_crit^oracle|={abs(coarse)!r} not < 0.6706"),
        (abs(coarse) > 0.50, f"|gamma_crit^oracle|={abs(coarse)!r} not > 0.50"),
        (abs(coarse - fine) <= 0.01,
         f"grid doubling moved the estimate from {coarse!r} to {fine!r}"),
    ])


def test_criterion_7_branch_structure():
    checks = []
    for gamma in np.linspace(-0.65999, -0.01, 20):
        report = stationary_points(DimensionlessProblem(Dimension.D3, float(gamma)))
        two = len(report.points) == 2
        checks.append((two, f"gamma={gamma:.4f}: {len(report.points)} points"))
        if two:
            barrier, minimum = report.points
            checks.append((barrier.kind is PointKind.MAXIMUM
                           and minimum.kind is PointKind.MINIMUM
                           and barrier.s < minimum.s,
                           f"gamma={gamma:.4f}: wrong branch ordering"))
    for gamma in np.linspace(-5.0, -0.68, 20):
        report = stationary_points(DimensionlessProblem(Dimension.D3, float(gamma)))
        checks.append((len(report.points) == 0,
                       f"gamma={gamma:.4f}: expected collapse, got points"))
    for gamma in np.linspace(-50.0, 50.0, 101):
        report = stationary_points(DimensionlessProblem(Dimension.D1, float(gamma)))
        checks.append((len(report.points) == 1
                       and report.points[0].kind is PointKind.MINIMUM,
                       f"1D gamma={gamma:.2f}: not a single minimum"))
    _verdict(7, "two branches below critical, none beyond, one in 1D", checks)


def test_criterion_8_derivatives_and_limits():
    checks = []
    rng = np.random.default_rng(777)
    for _ in range(200):
        s = float(rng.uniform(0.05, 5.0))
        gamma = float(rng.uniform(-5.0, 5.0))
        dim = Dimension.D3 if rng.random() < 0.5 else Dimension.D1
        problem = DimensionlessProblem(dim, gamma)
        for order in (1, 2):
            exact = denergy(s, problem, order)
            approx = central_difference(lambda x: ansatz_energy(x, problem).total,
                                        s, order=order)
            checks.append((abs(exact - approx) <= 1e-7 * max(1.0, abs(exact)),
                           f"derivative order {order} off at s={s}, gamma={gamma}"))
    for dim in (Dimension.D1, Dimension.D3):
        widths = [stationary_points(DimensionlessProblem(dim, float(g))).points[0].s
                  for g in np.linspace(0.0, 40.0, 30)]
        checks.append((all(b > a for a, b in zip(widths, widths[1:])),
                       f"{dim}: repulsive width not increasing"))
    tight = stationary_points(DimensionlessProblem(Dimension.D1, -50.0)).points[0].s
    checks.append((tight < 0.03, f"1D width at gamma=-50 is {tight!r}"))
    _verdict(8, "derivative consistency and limiting widths", checks)


def test_criterion_9_csv_round_trip():
    setup = li7()
    rows = sweep(setup, [0.0, 400.0, 800.0, 1200.0, 1600.0])
    first, second = io.StringIO(), io.StringIO()
    emit_csv(rows, first)
    emit_csv(sweep(setup, [0.0, 400.0, 800.0, 1200.0, 1600.0]), second)
    checks = [(first.getvalue() == second.getvalue(), "re-run CSV differs byte-wise")]

    rng = np.random.default_rng(2718)
    tags = ("noninteracting", "repulsive_stable", "attractive_subcritical",
            "attractive_collapsed", "attractive_one_d")
    from becstab import SweepRow
    for trial in range(100):
        random_rows = []
        for _ in range(int(rng.integers(0, 10))):
            def maybe(v):
                return float(v) if rng.random() < 0.7 else None
            random_rows.append(SweepRow(
                n_atoms=float(rng.uniform(0, 1e6)),
                gamma=float(rng.normal(scale=2.0)),
                s_stable=maybe(rng.uniform(0.01, 5.0)),
                s_unstable=maybe(rng.uniform(0.01, 5.0)),
                e_var=maybe(rng.normal(scale=10.0)),
                s_oracle=maybe(rng.uniform(0.01, 5.0)),
                e_oracle=maybe(rng.normal(scale=10.0)),
                regime=str(rng.choice(tags)),
            ))
        sink = io.StringIO()
        emit_csv(random_rows, sink)
        checks.append((parse_csv(sink.getvalue()) == random_rows,
                       f"round trip failed on random sweep {trial}"))
    _verdict(9, "CSV determinism and parse/emit identity", checks)
