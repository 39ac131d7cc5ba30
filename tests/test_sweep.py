"""Sweep rows, CSV emission/parsing, and the qualitative width curves."""

import dataclasses
import io
import math

import numpy as np
import pytest

from becstab import (
    ATOMIC_MASS,
    CSV_HEADER,
    Dimension,
    DimensionlessProblem,
    GridSpec,
    PhysicalSetup,
    SweepRow,
    comparison_row,
    emit_csv,
    gaussian_state,
    measured_width,
    n_max_physical,
    parse_csv,
    stationary_points,
    sweep,
)

LI7 = PhysicalSetup(
    mass=7.016 * ATOMIC_MASS,
    omega=2.0 * math.pi * 120.0,
    dimension=Dimension.D3,
    scattering_length=-14.5e-10,
)

RB87 = PhysicalSetup(
    mass=86.909 * ATOMIC_MASS,
    omega=2.0 * math.pi * 100.0,
    dimension=Dimension.D3,
    scattering_length=+5.3e-9,
)

REGIME_TAGS = (
    "noninteracting",
    "repulsive_stable",
    "attractive_subcritical",
    "attractive_critical",
    "attractive_collapsed",
    "attractive_one_d",
    "attractive_subcritical_oracle_unconverged",
)


# --- sweep ------------------------------------------------------------------------

def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        sweep(RB87, [])
    with pytest.raises(ValueError):
        sweep(RB87, [100.0, 50.0])
    with pytest.raises(ValueError):
        sweep(RB87, [-1.0, 50.0])


def test_repulsive_widths_grow_with_atom_number():
    rows = sweep(RB87, [0.0, 1e3, 1e4])
    assert [row.n_atoms for row in rows] == [0.0, 1e3, 1e4]
    widths = [row.s_stable for row in rows]
    assert widths[0] == pytest.approx(1.0, abs=1e-12)
    assert widths[0] < widths[1] < widths[2]
    assert all(row.s_unstable is None for row in rows)
    assert rows[0].regime == "noninteracting"
    assert rows[1].regime == "repulsive_stable"


def test_attractive_widths_shrink_with_atom_number():
    rows = sweep(LI7, [0.0, 500.0, 1000.0])
    widths = [row.s_stable for row in rows]
    assert widths[0] > widths[1] > widths[2]
    assert rows[1].regime == "attractive_subcritical"
    assert rows[1].s_unstable is not None
    assert rows[1].s_unstable < rows[1].s_stable


def test_collapsed_rows_have_no_widths():
    n_max = n_max_physical(LI7).n_direct
    rows = sweep(LI7, [10.0 * n_max])
    row = rows[0]
    assert row.regime == "attractive_collapsed"
    assert row.s_stable is None
    assert row.s_unstable is None
    assert row.e_var is None


def test_branches_meet_at_critical_width():
    n_max = n_max_physical(LI7).n_direct
    fractions = [0.2, 0.5, 0.9, 0.999]
    rows = sweep(LI7, [f * n_max for f in fractions])
    stable = [row.s_stable for row in rows]
    unstable = [row.s_unstable for row in rows]
    assert all(b < a for a, b in zip(stable, stable[1:]))       # non-increasing
    assert all(b > a for a, b in zip(unstable, unstable[1:]))   # non-decreasing
    s_min = 5.0 ** -0.25
    assert stable[-1] == pytest.approx(s_min, abs=0.02)
    assert unstable[-1] == pytest.approx(s_min, abs=0.02)


def test_sweep_with_oracle_columns():
    grid = GridSpec(Dimension.D3, 6.0, 128)
    rows = sweep(LI7, [0.0, 500.0], with_oracle=True, grid=grid)
    for row in rows:
        assert row.s_oracle is not None
        assert row.e_oracle is not None
        assert row.e_var >= row.e_oracle - 1e-3
        assert abs(row.s_oracle - row.s_stable) < 0.1
    # collapsed rows skip the oracle entirely
    n_max = n_max_physical(LI7).n_direct
    rows = sweep(LI7, [2.0 * n_max], with_oracle=True, grid=grid)
    assert rows[0].s_oracle is None
    assert rows[0].regime == "attractive_collapsed"


def test_sweep_without_oracle_leaves_columns_empty():
    rows = sweep(LI7, [500.0])
    assert rows[0].s_oracle is None and rows[0].e_oracle is None


def test_oracle_collapse_inside_variational_window_is_tagged():
    # between the true critical coupling (~0.575) and the Gaussian bound
    # (~0.6705) the ansatz predicts a metastable cloud that the grid
    # minimizer correctly collapses; the row records that per-row
    grid = GridSpec(Dimension.D3, 6.0, 128)
    n_window = 0.64 / 0.6705133427357031 * n_max_physical(LI7).n_direct
    rows = sweep(LI7, [n_window], with_oracle=True, grid=grid)
    row = rows[0]
    assert row.regime == "attractive_subcritical_oracle_collapsed"
    assert row.s_stable is not None      # variational branch still exists
    assert row.s_oracle is None and row.e_oracle is None


def test_comparison_row_tags_each_oracle_outcome():
    report = stationary_points(DimensionlessProblem(Dimension.D3, -0.3))
    plain = comparison_row(42.0, report)
    assert (plain.n_atoms, plain.gamma, plain.regime) == (42.0, -0.3, "attractive_subcritical")
    assert plain.s_stable == report.minimum.s and plain.s_unstable == report.maximum.s
    assert plain.e_var == report.minimum.energy.total
    assert plain.s_oracle is None and plain.e_oracle is None

    state = gaussian_state(GridSpec(Dimension.D3, 6.0, 128), -0.3, s=0.9)
    collapsed = dataclasses.replace(state, collapsed=True, residual=1.0)
    unconverged = dataclasses.replace(state, residual=1.0)
    converged = dataclasses.replace(state, converged=True, residual=0.0)
    for outcome, suffix in ((collapsed, "_oracle_collapsed"),
                            (unconverged, "_oracle_unconverged")):
        row = comparison_row(42.0, report, outcome)
        assert row == dataclasses.replace(plain, regime=plain.regime + suffix)
    row = comparison_row(42.0, report, converged)
    assert row == dataclasses.replace(plain, s_oracle=measured_width(converged),
                                      e_oracle=state.energy.total)


# --- CSV --------------------------------------------------------------------------

def test_emit_header_only_for_empty_rows():
    sink = io.StringIO()
    emit_csv([], sink)
    assert sink.getvalue() == CSV_HEADER + "\n"
    # the column order is SweepRow's field order; pin it literally
    assert CSV_HEADER == "n_atoms,gamma,s_stable,s_unstable,e_var,s_oracle,e_oracle,regime"


def test_emit_noninteracting_row_fields():
    rows = sweep(LI7, [0.0])
    sink = io.StringIO()
    emit_csv(rows, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0
    assert float(fields[1]) == 0.0
    assert float(fields[2]) == pytest.approx(1.0, abs=1e-12)
    assert fields[3] == ""                       # no unstable branch
    assert float(fields[4]) == pytest.approx(1.5, abs=1e-12)
    assert fields[5] == "" and fields[6] == ""   # oracle columns empty
    assert fields[7] == "noninteracting"


def test_emit_is_deterministic():
    rows = sweep(LI7, [0.0, 300.0, 900.0])
    first, second = io.StringIO(), io.StringIO()
    emit_csv(rows, first)
    emit_csv(sweep(LI7, [0.0, 300.0, 900.0]), second)
    assert first.getvalue() == second.getvalue()
    assert "\r" not in first.getvalue()          # LF only


def test_emit_rejects_bad_regime_tags():
    row = SweepRow(1.0, 0.0, None, None, None, None, None, "Bad Tag!")
    with pytest.raises(ValueError):
        emit_csv([row], io.StringIO())


def test_emit_to_path(tmp_path):
    target = tmp_path / "rows.csv"
    emit_csv(sweep(LI7, [0.0, 100.0]), target)
    rows = parse_csv(target.read_text())
    assert len(rows) == 2


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_csv("not,a,header\n")
    with pytest.raises(ValueError):
        parse_csv(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_csv(CSV_HEADER + "\n,,1,,1.5,,,tag\n")   # missing n_atoms/gamma


def _random_rows(rng: np.random.Generator) -> list[SweepRow]:
    rows = []
    for _ in range(rng.integers(0, 12)):
        def maybe(value: float):
            return float(value) if rng.random() < 0.7 else None

        rows.append(
            SweepRow(
                n_atoms=float(rng.uniform(0.0, 1e6)),
                gamma=float(rng.normal(scale=2.0)),
                s_stable=maybe(rng.uniform(0.01, 5.0)),
                s_unstable=maybe(rng.uniform(0.01, 5.0)),
                e_var=maybe(rng.normal(scale=10.0)),
                s_oracle=maybe(rng.uniform(0.01, 5.0)),
                e_oracle=maybe(rng.normal(scale=10.0)),
                regime=str(rng.choice(REGIME_TAGS)),
            )
        )
    return rows


def test_round_trip_random_sweeps():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        rows = _random_rows(rng)
        sink = io.StringIO()
        emit_csv(rows, sink)
        assert parse_csv(sink.getvalue()) == rows
