"""Batch evaluation over atom-number ranges, with CSV emit/parse.

Each row records, for one atom number, the coupling, the variational
stable/unstable widths and minimum energy, and (optionally) the grid
minimizer's width and energy for direct comparison.  Optional columns
serialise as empty CSV fields; floats are written in shortest round-trip
decimal form, so emitting and re-parsing is lossless and byte-deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Union

from . import gpe
from .units import PhysicalSetup, reduce
from .variational import StabilityReport, stationary_points

CSV_HEADER = "n_atoms,gamma,s_stable,s_unstable,e_var,s_oracle,e_oracle,regime"
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
            grid_spec = grid if grid is not None else gpe.GridSpec(dimension=problem.dimension)
            state = gpe.minimize(grid_spec, problem.gamma_total)
        rows.append(comparison_row(float(n), report, state))
    return rows


def _format_field(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def emit_csv(rows: Sequence[SweepRow], destination: Union[str, Path, IO[str]]) -> None:
    """Write rows as CSV (LF newlines, comma separator, no quoting).

    Regime tags are restricted to [a-z_]+ so no field ever needs quoting.
    """
    lines = [CSV_HEADER]
    for row in rows:
        if not _REGIME_TAG.match(row.regime):
            raise ValueError(f"regime tag must match [a-z_]+, got {row.regime!r}")
        lines.append(
            ",".join(
                (
                    _format_field(row.n_atoms),
                    _format_field(row.gamma),
                    _format_field(row.s_stable),
                    _format_field(row.s_unstable),
                    _format_field(row.e_var),
                    _format_field(row.s_oracle),
                    _format_field(row.e_oracle),
                    row.regime,
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)  # type: ignore[union-attr]
    else:
        Path(destination).write_text(text)  # type: ignore[arg-type]


def parse_csv(text: str) -> list[SweepRow]:
    """Inverse of :func:`emit_csv`; round-trips every finite value exactly."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad or missing header; expected {CSV_HEADER!r}")
    rows: list[SweepRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"line {lineno}: expected 8 fields, got {len(fields)}")
        numbers = [None if f == "" else float(f) for f in fields[:7]]
        if numbers[0] is None or numbers[1] is None:
            raise ValueError(f"line {lineno}: n_atoms and gamma are required")
        rows.append(
            SweepRow(
                n_atoms=numbers[0],
                gamma=numbers[1],
                s_stable=numbers[2],
                s_unstable=numbers[3],
                e_var=numbers[4],
                s_oracle=numbers[5],
                e_oracle=numbers[6],
                regime=fields[7],
            )
        )
    return rows
