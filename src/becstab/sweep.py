"""Batch evaluation over atom-number ranges, and the package's CSV files.

Each sweep row records, for one atom number, the coupling, the variational
stable/unstable widths and minimum energy, and (optionally) the grid
minimizer's width and energy for direct comparison.  Optional columns
serialise as empty CSV fields; floats are written in shortest round-trip
decimal form, so emitting and re-parsing is lossless and byte-deterministic.
Grid density profiles (:func:`dump_profile`) are written the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .units import Dimension, PhysicalSetup, reduce
from .variational import StabilityReport, stationary_points

if TYPE_CHECKING:
    from . import gpe

_REGIME_TAG = re.compile(r"^[a-z_]+$")


@dataclass(frozen=True)
class SweepRow:
    """One sweep record; None marks a column with no value at this point."""

    n_atoms: float
    gamma: float
    s_stable: Optional[float]
    s_unstable: Optional[float]
    e_var: Optional[float]
    s_oracle: Optional[float]
    e_oracle: Optional[float]
    regime: str


# The column order is SweepRow's field order; every column but the last is numeric.
_COLUMNS = tuple(field.name for field in fields(SweepRow))
CSV_HEADER = ",".join(_COLUMNS)
_numbers = attrgetter(*_COLUMNS[:-1])


def comparison_row(
    n_atoms: float, report: StabilityReport, state: Optional[gpe.GridState] = None
) -> SweepRow:
    """One record from a variational report and, optionally, a grid minimizer run.

    Without ``state`` the oracle columns stay empty.  A ``state`` that
    collapsed or did not converge also leaves them empty and instead tags
    the regime with ``_oracle_collapsed`` or ``_oracle_unconverged``.
    """
    minimum = report.minimum
    maximum = report.maximum
    regime = report.regime.value
    s_oracle = e_oracle = None
    if state is not None:
        if state.collapsed:
            regime += "_oracle_collapsed"
        elif not state.converged:
            regime += "_oracle_unconverged"
        else:
            from . import gpe
            s_oracle = gpe.measured_width(state)
            e_oracle = state.energy.total
    return SweepRow(
        n_atoms=n_atoms,
        gamma=report.problem.gamma_total,
        s_stable=minimum.s if minimum is not None else None,
        s_unstable=maximum.s if maximum is not None else None,
        e_var=minimum.energy.total if minimum is not None else None,
        s_oracle=s_oracle,
        e_oracle=e_oracle,
        regime=regime,
    )


def sweep(
    setup: PhysicalSetup,
    n_values: Sequence[float],
    with_oracle: bool = False,
    grid: Optional[gpe.GridSpec] = None,
) -> list[SweepRow]:
    """One row per atom number, in input order.

    ``setup`` provides trap and interaction; its own ``n_atoms`` is ignored.
    ``n_values`` must be non-empty, non-negative and sorted ascending.
    Oracle columns are filled only when ``with_oracle``, and only for rows
    with a variational minimum; a minimizer run that collapses or fails to
    converge leaves them empty and tags the row's regime instead of
    aborting the sweep (see :func:`comparison_row`).
    """
    if len(n_values) == 0:
        raise ValueError("n_values must be non-empty")
    if any(n < 0 for n in n_values):
        raise ValueError("n_values must be non-negative")
    if any(b < a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be sorted ascending")

    rows: list[SweepRow] = []
    for n in n_values:
        problem = reduce(setup.with_n(float(n)))
        report = stationary_points(problem)
        state = None
        if with_oracle and report.minimum is not None:
            from . import gpe
            grid_spec = grid if grid is not None else gpe.GridSpec(dimension=problem.dimension)
            state = gpe.minimize(grid_spec, problem.gamma_total)
        rows.append(comparison_row(float(n), report, state))
    return rows


def _format_field(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def _write_lines(lines: Iterable[str], destination: Union[str, Path, IO[str]]) -> None:
    """Join lines with LF, end with one LF, and write to a text stream or a path."""
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)  # type: ignore[union-attr]
    else:
        Path(destination).write_text(text)  # type: ignore[arg-type]


def emit_csv(rows: Sequence[SweepRow], destination: Union[str, Path, IO[str]]) -> None:
    """Write rows as CSV (LF newlines, comma separator, no quoting).

    Regime tags are restricted to [a-z_]+ so no field ever needs quoting.
    """
    lines = [CSV_HEADER]
    for row in rows:
        if not _REGIME_TAG.match(row.regime):
            raise ValueError(f"regime tag must match [a-z_]+, got {row.regime!r}")
        lines.append(",".join(map(_format_field, _numbers(row))) + "," + row.regime)
    _write_lines(lines, destination)


def parse_csv(text: str) -> list[SweepRow]:
    """Inverse of :func:`emit_csv`; round-trips every finite value exactly."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad or missing header; expected {CSV_HEADER!r}")
    rows: list[SweepRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(_COLUMNS)} fields, got {len(values)}")
        numbers = [None if f == "" else float(f) for f in values[:-1]]
        if numbers[0] is None or numbers[1] is None:
            raise ValueError(f"line {lineno}: n_atoms and gamma are required")
        rows.append(SweepRow(*numbers, values[-1]))  # type: ignore[arg-type]
    return rows


def dump_profile(state: gpe.GridState, destination: Union[str, Path, IO[str]]) -> None:
    """Write the density profile |phi|^2 as two-column CSV (coordinate, density)."""
    axis = state.spec.axis()
    values = state.values
    three_d = state.spec.dimension is Dimension.D3
    density = values * values
    if three_d:
        density[1:] = (values[1:] / axis[1:]) ** 2
        # phi(0) = u'(0); one-sided first-order estimate from the pinned origin.
        density[0] = (values[1] / state.spec.spacing) ** 2
    rows = (f"{_format_field(c)},{_format_field(d)}" for c, d in zip(axis, density))
    _write_lines(["r,density" if three_d else "x,density", *rows], destination)
