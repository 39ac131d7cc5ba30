"""Command-line surface: critical numbers, stability reports, sweeps, grid runs.

Subcommands
-----------
critical   closed-form critical width/coupling and the maximum atom number
minimize   stationary widths and energies for one setup (or bare coupling)
sweep      CSV table over a list/range of atom numbers
oracle     grid minimizer run: energy, width, convergence, density profile
compare    variational vs grid-minimizer values side by side

Setups come from SI flags (``--mass-amu``, ``--freq-hz``, ``--scattering-a``
or ``--coupling-1d``, ``--dim``, ``--n-atoms``), from a ``key=value`` config
file (flags win), or from the dimensionless shortcut ``--gamma`` + ``--dim``.

Exit status: 0 success, 1 validation error (including non-finite input),
2 compute failure (an unconverged grid run or an arithmetic overflow).
A stdout closed early (``| head``) ends the run quietly with status 1.
Only ``oracle``, ``compare`` and oracle or range sweeps import numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Optional, Sequence, Union

from .sweep import comparison_row, dump_profile, emit_csv
from .sweep import sweep as run_sweep
from .units import (
    CONFIG_KEYS,
    Dimension,
    DimensionlessProblem,
    PhysicalSetup,
    derive_scales,
    parse_config,
    reduce,
    setup_from_mapping,
)
from .variational import (
    GAMMA_CRITICAL_3D,
    S_MIN_3D,
    StabilityReport,
    n_max_physical,
    stationary_points,
)

if TYPE_CHECKING:
    from . import gpe


class _UsageError(Exception):
    """Flag/config validation problem; maps to exit status 1."""


class _ComputeError(Exception):
    """A computation failed (e.g. unconverged minimizer); exit status 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Accept scientific-notation negatives ("-1.45e-9") as option values;
        # argparse installs its narrower matcher as an instance attribute.
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_setup_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("setup")
    group.add_argument("--config", type=str, help="key=value config file, overridden by flags")
    # --mass-amu to --n-atoms store under their config keys (units.CONFIG_KEYS).
    group.add_argument("--mass-amu", type=float, help="atom mass in atomic mass units")
    group.add_argument("--freq-hz", type=float, help="trap frequency omega/(2 pi) in Hz")
    group.add_argument("--scattering-a", type=float, dest="scattering_a_m",
                       help="s-wave scattering length in meters (3D)")
    group.add_argument("--coupling-1d", type=float, dest="coupling_1d_jm",
                       help="contact coupling in J*m (1D)")
    group.add_argument("--dim", type=int, choices=(1, 3), help="spatial dimension")
    group.add_argument("--n-atoms", type=float, help="atom number")
    group.add_argument("--gamma", type=float,
                       help="dimensionless coupling shortcut (takes --dim only, no SI setup)")


def _add_grid_flags(parser: argparse.ArgumentParser, step_cap: bool = True) -> None:
    group = parser.add_argument_group("grid")
    group.add_argument("--r-max", type=float, default=8.0,
                       help="grid extent in oscillator lengths (default 8)")
    group.add_argument("--n-points", type=int, default=512,
                       help="grid points (default 512)")
    if step_cap:
        # None stands for gpe.DEFAULT_MAX_ITER, read only when a grid run starts.
        group.add_argument("--max-iter", type=int, help="minimizer step cap")


def _add_output_flags(parser: argparse.ArgumentParser, csv_help: Optional[str] = None) -> None:
    group = parser.add_argument_group("output")
    if csv_help is not None:
        group.add_argument("--csv", type=str, help=csv_help)
    group.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="becstab", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_critical = subparsers.add_parser(
        "critical", help="critical width, coupling and maximum atom number")
    _add_setup_flags(p_critical)
    _add_output_flags(p_critical)

    p_minimize = subparsers.add_parser(
        "minimize", help="stationary widths and energies for one setup")
    _add_setup_flags(p_minimize)
    _add_output_flags(p_minimize)

    p_sweep = subparsers.add_parser("sweep", help="CSV table over atom numbers")
    _add_setup_flags(p_sweep)
    _add_grid_flags(p_sweep, step_cap=False)
    p_sweep.add_argument("--n-list", type=str,
                         help="comma-separated atom numbers, e.g. 0,500,1000")
    p_sweep.add_argument("--n-min", type=float, help="range start")
    p_sweep.add_argument("--n-max", type=float, help="range end (inclusive)")
    p_sweep.add_argument("--n-steps", type=int, help="number of range points")
    p_sweep.add_argument("--log", action="store_true", help="log-spaced range")
    p_sweep.add_argument("--with-oracle", action="store_true",
                         help="also run the grid minimizer per row")
    _add_output_flags(p_sweep, csv_help="CSV destination path, or - for stdout")

    p_oracle = subparsers.add_parser("oracle", help="one grid-minimizer run")
    _add_setup_flags(p_oracle)
    _add_grid_flags(p_oracle)
    _add_output_flags(p_oracle, csv_help="write the density profile CSV here (- for stdout)")

    p_compare = subparsers.add_parser(
        "compare", help="variational vs grid minimizer at one point")
    _add_setup_flags(p_compare)
    _add_grid_flags(p_compare)
    _add_output_flags(p_compare, csv_help="write the comparison row as CSV (- for stdout)")

    return parser


# --- setup assembly ------------------------------------------------------------

def _setup_entries(args: argparse.Namespace) -> dict[str, object]:
    entries: dict[str, object] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise _UsageError(f"config file not found: {path}")
        entries.update(parse_config(path.read_text()))
    for key in CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            entries[key] = value
    return entries


def _build_setup(args: argparse.Namespace, need_n: bool = False) -> PhysicalSetup:
    if args.gamma is not None:
        raise _UsageError(f"{args.command} works in atom numbers; it needs an SI setup, not --gamma")
    entries = _setup_entries(args)
    if need_n and "n_atoms" not in entries:
        raise _UsageError("this command needs --n-atoms (or n_atoms in the config)")
    return setup_from_mapping(entries)


def _build_problem(args: argparse.Namespace) -> tuple[DimensionlessProblem, float]:
    """(problem, atom number) from --gamma/--dim, with N = NaN, or from the SI setup."""
    if args.gamma is not None:
        for key, flag in (("config", "--config"), ("mass_amu", "--mass-amu"),
                          ("freq_hz", "--freq-hz"), ("scattering_a_m", "--scattering-a"),
                          ("coupling_1d_jm", "--coupling-1d"), ("n_atoms", "--n-atoms")):
            if getattr(args, key) is not None:
                raise _UsageError(f"--gamma conflicts with {flag}")
        if args.dim is None:
            raise _UsageError("--gamma needs --dim")
        dimension = Dimension.D1 if args.dim == 1 else Dimension.D3
        return DimensionlessProblem(dimension=dimension, gamma_total=args.gamma), math.nan
    setup = _build_setup(args, need_n=True)
    return reduce(setup), setup.n_atoms


def _open_sink(arg: str) -> Union[IO[str], str]:
    return sys.stdout if arg == "-" else arg


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# --- subcommands ----------------------------------------------------------------

def _cmd_critical(args: argparse.Namespace) -> int:
    setup = _build_setup(args)
    critical = n_max_physical(setup)
    three_d = setup.dimension is Dimension.D3
    if args.json:
        # Attractive 1D clouds shrink forever but never destabilise.
        _print_json({
            "s_min": S_MIN_3D if three_d else 0.0,
            "gamma_crit": GAMMA_CRITICAL_3D if three_d else None,
            "n_max_real": critical.n_direct if critical.bounded else None,
            "n_max_floor": critical.n_floor,
            "path_direct": critical.n_direct if critical.bounded else None,
            "path_dimensionless": critical.n_via_gamma if critical.bounded else None,
        })
        return 0
    if not three_d:
        print("dimension:            1")
        print("sigma_min:            0 (width shrinks to zero as N grows)")
        print("N_max:                unbounded (1D clouds are stable at every N)")
        return 0

    sigma_min_m = S_MIN_3D * derive_scales(setup).length_aho
    print("dimension:            3")
    print(f"s_min (sigma/a_ho):   {S_MIN_3D!r}")
    print(f"sigma_min:            {sigma_min_m!r} m")
    print(f"gamma_crit:           {GAMMA_CRITICAL_3D!r}")
    if critical.bounded:
        print(f"N_max (direct):       {critical.n_direct!r}")
        print(f"N_max (via gamma):    {critical.n_via_gamma!r}")
        print(f"N_max (floor):        {critical.n_floor}")
    else:
        print("N_max:                unbounded (repulsive branch is stable at every N)")
    return 0


def _report_payload(report: StabilityReport) -> dict:
    return {
        "dimension": report.problem.dimension.value,
        "gamma": report.problem.gamma_total,
        "regime": report.regime.value,
        "s_min_critical": report.s_min_critical,
        "gamma_critical": report.gamma_critical,
        "points": [
            {
                "s": point.s,
                "kind": point.kind.value,
                "kinetic": point.energy.kinetic,
                "potential": point.energy.potential,
                "interaction": point.energy.interaction,
                "total": point.energy.total,
                "residual": point.residual,
            }
            for point in report.points
        ],
    }


def _cmd_minimize(args: argparse.Namespace) -> int:
    problem, _ = _build_problem(args)
    report = stationary_points(problem)
    if args.json:
        _print_json(_report_payload(report))
        return 0
    print(f"dimension: {problem.dimension.value}   gamma: {problem.gamma_total!r}")
    print(f"regime:    {report.regime.value}")
    if not report.points:
        print("no stationary widths: the cloud has no metastable configuration")
    for point in report.points:
        e = point.energy
        print(
            f"  {point.kind.value:8s} s={point.s!r}  E/N={e.total!r}"
            f"  (kin={e.kinetic:.6g}, pot={e.potential:.6g}, int={e.interaction:.6g},"
            f" residual={point.residual:.2e})"
        )
    if report.gamma_critical is not None:
        print(f"critical width 5^(-1/4) = {report.s_min_critical!r},"
              f" critical |gamma| = {report.gamma_critical!r}")
    return 0


def _sweep_values(args: argparse.Namespace) -> list[float]:
    if args.n_list is not None:
        if args.n_min is not None or args.n_max is not None or args.n_steps is not None:
            raise _UsageError("--n-list conflicts with --n-min/--n-max/--n-steps")
        try:
            values = [float(tok) for tok in args.n_list.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise _UsageError(f"bad --n-list: {exc}") from exc
        if not values:
            raise _UsageError("--n-list is empty")
        return values
    if args.n_min is None or args.n_max is None or args.n_steps is None:
        raise _UsageError("sweep needs --n-list or all of --n-min/--n-max/--n-steps")
    if args.n_steps < 1:
        raise _UsageError("--n-steps must be >= 1")
    import numpy as np  # ranges keep numpy's linspace/geomspace values, byte for byte
    if args.log:
        if args.n_min <= 0:
            raise _UsageError("--log needs --n-min > 0")
        return list(np.geomspace(args.n_min, args.n_max, args.n_steps))
    return list(np.linspace(args.n_min, args.n_max, args.n_steps))


def _cmd_sweep(args: argparse.Namespace) -> int:
    setup = _build_setup(args)
    n_values = _sweep_values(args)
    grid = None
    if args.with_oracle:
        from . import gpe
        grid = gpe.GridSpec(setup.dimension, args.r_max, args.n_points)
    rows = run_sweep(setup, n_values, grid=grid)
    emit_csv(rows, _open_sink(args.csv if args.csv is not None else "-"))
    return 0


def _unconverged_message(state: gpe.GridState, max_iter: int) -> str:
    # The minimizer leaves both flags unset at its step cap or on a stall.
    reason = "hit the iteration cap" if state.iterations >= max_iter else "stalled"
    return f"minimizer {reason} after {state.iterations} steps, unconverged"


def _grid_run(args: argparse.Namespace,
              problem: DimensionlessProblem) -> tuple[gpe.GridState, Optional[str]]:
    """Minimizer run on the flags' grid, and the failure to raise once its output is written."""
    from . import gpe
    max_iter = gpe.DEFAULT_MAX_ITER if args.max_iter is None else args.max_iter
    spec = gpe.GridSpec(problem.dimension, args.r_max, args.n_points)
    state = gpe.minimize(spec, problem.gamma_total, max_iter=max_iter)
    if state.converged or state.collapsed:
        return state, None
    return state, _unconverged_message(state, max_iter)


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import gpe
    problem, _ = _build_problem(args)
    state, failure = _grid_run(args, problem)
    payload = {
        "dimension": problem.dimension.value,
        "gamma": problem.gamma_total,
        "converged": state.converged,
        "collapsed": state.collapsed,
        "iterations": state.iterations,
        "kinetic": state.energy.kinetic,
        "potential": state.energy.potential,
        "interaction": state.energy.interaction,
        "total": state.energy.total,
        "width": gpe.measured_width(state) if state.converged else None,
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"dimension: {problem.dimension.value}   gamma: {problem.gamma_total!r}")
        print(f"converged: {state.converged}   collapsed: {state.collapsed}"
              f"   iterations: {state.iterations}")
        e = state.energy
        print(f"E/N: {e.total!r}  (kin={e.kinetic:.6g}, pot={e.potential:.6g},"
              f" int={e.interaction:.6g})")
        if payload["width"] is not None:
            print(f"width s_eff: {payload['width']!r}")
    if args.csv is not None and state.converged:
        dump_profile(state, _open_sink(args.csv))
    if failure is not None:
        raise _ComputeError(failure)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    problem, n_atoms = _build_problem(args)
    report = stationary_points(problem)
    state, failure = _grid_run(args, problem)
    row = comparison_row(n_atoms, report, state)
    if args.json:
        _print_json({
            "gamma": row.gamma,
            "regime": row.regime,
            "variational": {"s_stable": row.s_stable, "s_unstable": row.s_unstable,
                            "e_per_atom": row.e_var},
            "oracle": {"s": row.s_oracle, "e_per_atom": row.e_oracle},
        })
    elif args.csv is not None:
        emit_csv([row], _open_sink(args.csv))
    else:
        print(f"gamma:  {row.gamma!r}   regime: {row.regime}")
        print(f"variational: s_stable={row.s_stable!r}  s_unstable={row.s_unstable!r}"
              f"  E/N={row.e_var!r}")
        print(f"oracle:      s={row.s_oracle!r}  E/N={row.e_oracle!r}")
    if failure is not None:
        raise _ComputeError(failure)
    return 0


_COMMANDS = {
    "critical": _cmd_critical,
    "minimize": _cmd_minimize,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute; returns the exit status instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand (try --help)")
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _ComputeError as exc:
        print(f"compute failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:   # e.g. a finite but huge coupling overflows
        print(f"compute failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()   # a closed pipe must fail here, not at interpreter exit
    except BrokenPipeError:
        # The documented recipe: point stdout at devnull so the final flush is a no-op.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
