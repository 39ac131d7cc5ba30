"""The four closed-loop workloads of the becstab benchmark.

Each workload draws the inputs of its next op from the seeded generator, runs
the op through becstab's public functions (``run``, the timed part) and then
checks every output against closed forms or an independent computation
(``check``, untimed).  Every call into the library goes through a module
attribute, so that the tracer's rebinding sees it.

Why these four: ``variational-table`` never reaches ``gpe``; ``grid-oracle``
spends nearly all its time in ``gpe.minimize`` from a cold Gaussian start;
``critical-threshold`` uses ``gpe`` through warm-started probes near the fold,
half of which end in the collapse exit; ``cli-calls`` is the only workload
that pays interpreter start-up and imports on every op.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from becstab import ATOMIC_MASS, HBAR, Dimension, DimensionlessProblem, GridSpec, PhysicalSetup

import calibration
from layers import percentile_tail

gpe = sys.modules["becstab.gpe"]
variational = sys.modules["becstab.variational"]
# ``becstab.sweep`` as a package attribute is the sweep function, not the module.
sweep_mod = sys.modules["becstab.sweep"]

SQRT_2PI = math.sqrt(2.0 * math.pi)
GAMMA_C = 2.0 * SQRT_2PI / 5.0**1.25      # |Gamma_c| of the Gaussian ansatz
RESIDUAL_TOL = 1e-10                       # stationary_points' residual contract
ENERGY_TOL = 1e-8                          # grid energy against the reference
CRITICAL_BAND = (0.50, 0.6706)             # grid |Gamma_c| lies below the ansatz value
REFINEMENT_TOL = 0.01                      # coarse and fine critical_scan agree


# --- closed forms the checks use --------------------------------------------------

def slope_terms(dim: int, gamma: float, s: float) -> tuple[float, float, float]:
    """The three terms of de/ds of the Gaussian energy per particle."""
    if dim == 3:
        return -1.5 / s**3, 1.5 * s, -3.0 * gamma / (SQRT_2PI * s**4)
    return -0.5 / s**3, 0.5 * s, -gamma / (SQRT_2PI * s * s)


def residual_bound(dim: int, gamma: float, s: float) -> float:
    """RESIDUAL_TOL, or the rounding floor of evaluating de/ds if that is larger.

    For the small 3D barrier width at |Gamma| below ~0.02 the 1/s^3 term
    exceeds 1e6, and no float64 width brings |de/ds| below 1e-10; there the
    check asks for a residual at the rounding floor of the sum instead.
    """
    floor = 4.0 * sys.float_info.epsilon * sum(abs(t) for t in slope_terms(dim, gamma, s))
    return max(RESIDUAL_TOL, floor)


def ansatz_energy(dim: int, gamma: float, s: float) -> float:
    if dim == 3:
        return 0.75 / (s * s) + 0.75 * s * s + gamma / (SQRT_2PI * s**3)
    return 0.25 / (s * s) + 0.25 * s * s + gamma / (SQRT_2PI * s)


def expected_regime(dim: int, gamma: float) -> tuple[str, int]:
    """Regime tag and number of stationary widths, from the sign rule alone.

    In 3D the attractive branch pair exists while Gamma > -|Gamma_c|; in 1D
    there is always exactly one width.
    """
    if gamma == 0.0:
        return "noninteracting", 1
    if gamma > 0.0:
        return "repulsive_stable", 1
    if dim == 1:
        return "attractive_one_d", 1
    if abs(gamma + GAMMA_C) < 1e-9:
        return "attractive_critical", 1
    if gamma > -GAMMA_C:
        return "attractive_subcritical", 2
    return "attractive_collapsed", 0


def check_widths(dim: int, gamma: float, regime: str, widths: list[float]) -> list[str]:
    tag, count = expected_regime(dim, gamma)
    failures = []
    if regime != tag or len(widths) != count:
        failures.append(f"regime {regime}/{len(widths)} widths, expected {tag}/{count} at gamma={gamma!r}")
    if tag != "attractive_critical":
        for s in widths:
            residual = abs(sum(slope_terms(dim, gamma, s)))
            if not residual <= residual_bound(dim, gamma, s):
                failures.append(f"residual {residual:.3g} at s={s!r}, gamma={gamma!r}")
    return failures


def coupling(setup: PhysicalSetup) -> float:
    a_ho = math.sqrt(HBAR / (setup.mass * setup.omega))
    if setup.dimension is Dimension.D3:
        return setup.n_atoms * setup.scattering_length / a_ho
    return setup.n_atoms * setup.coupling_1d / (a_ho * HBAR * setup.omega)


class Workload:
    name = ""
    # The closed-loop unit of work whose median time is op_norm_s.
    op_label = ""

    def __init__(self, rng: np.random.Generator, tiny: bool, root: Path):
        self.rng = rng
        self.tiny = tiny
        self.root = root

    def warm_up(self) -> None:
        raise NotImplementedError

    def next_input(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result, info: dict) -> list[str]:
        raise NotImplementedError

    def sampler(self):
        """The calibration sampler suited to this workload's ops."""
        raise NotImplementedError

    def finish(self, records: list[dict]) -> None:
        """Checks that need work outside the timed window."""

    def probes(self) -> dict[str, float]:
        """Per-layer figures measured directly, after the window (traced runs)."""
        return {}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def named_metrics(self, walls: list[float]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


# --- variational-table -----------------------------------------------------------------

def _li7(freq_hz: float, **interaction) -> dict:
    return dict(mass=7.016 * ATOMIC_MASS, omega=2.0 * math.pi * freq_hz, **interaction)


class VariationalTable(Workload):
    name = "variational-table"
    op_label = "one CSV table of 4 setups x 50 seeded atom numbers"

    def __init__(self, rng, tiny, root):
        super().__init__(rng, tiny, root)
        self.per_setup = 5 if tiny else 50
        # (setup, largest atom number).  Li-7 at 145 Hz has N_max ~ 1457, so
        # its lists cross the collapse threshold; the 1D couplings give
        # |Gamma| up to ~3 at N = 2000.
        self.setups = [
            (PhysicalSetup(dimension=Dimension.D3, **_li7(145.0, scattering_length=-14.5e-10)), 2200.0),
            (PhysicalSetup(mass=86.909 * ATOMIC_MASS, omega=2.0 * math.pi * 100.0,
                           dimension=Dimension.D3, scattering_length=5.3e-9), 2000.0),
            (PhysicalSetup(dimension=Dimension.D1, **_li7(145.0, coupling_1d=-4.5e-40)), 2000.0),
            (PhysicalSetup(dimension=Dimension.D1, **_li7(145.0, coupling_1d=4.5e-40)), 2000.0),
        ]
        self.rows_per_op = self.per_setup * len(self.setups)

    def warm_up(self):
        self.run([[0.0, 100.0, 1000.0, 1900.0] for _ in self.setups])

    def sampler(self):
        return calibration.KernelSampler(calibration.scalar_kernel, calibration.SCALAR_REF_S)

    def next_input(self):
        return [np.sort(self.rng.uniform(0.0, hi, self.per_setup)).tolist() for _, hi in self.setups]

    def run(self, inp):
        tables = []
        for (setup, _), n_values in zip(self.setups, inp):
            rows = sweep_mod.sweep(setup, n_values)
            sink = io.StringIO()
            sweep_mod.emit_csv(rows, sink)
            text = sink.getvalue()
            tables.append((rows, text, sweep_mod.parse_csv(text)))
        return tables

    def check(self, inp, result, info):
        failures = []
        info["csv_bytes"] = sum(len(text) for _, text, _ in result)
        for (setup, _), n_values, (rows, text, parsed) in zip(self.setups, inp, result):
            dim = setup.dimension.value
            again = io.StringIO()
            sweep_mod.emit_csv(parsed, again)
            if parsed != rows or again.getvalue() != text:
                failures.append(f"CSV round trip differs for dim={dim}")
            if [row.n_atoms for row in rows] != n_values:
                failures.append(f"row atom numbers differ from the input for dim={dim}")
            for row in rows:
                gamma = coupling(setup.with_n(row.n_atoms))
                if not math.isclose(row.gamma, gamma, rel_tol=1e-12, abs_tol=1e-300):
                    failures.append(f"gamma {row.gamma!r} != {gamma!r}")
                widths = [s for s in (row.s_stable, row.s_unstable) if s is not None]
                failures += check_widths(dim, row.gamma, row.regime, widths)
                if row.s_stable is not None and not math.isclose(
                        row.e_var, ansatz_energy(dim, row.gamma, row.s_stable), rel_tol=1e-12):
                    failures.append(f"e_var {row.e_var!r} is not e(s_stable) at gamma={row.gamma!r}")
        return failures

    def named_metrics(self, walls):
        return {"table_rows_per_s": (self.rows_per_op / statistics.median(walls), "rows/s")}


# --- grid-oracle and critical-threshold -------------------------------------------------

class GpeWorkload(Workload):
    def sampler(self):
        return calibration.KernelSampler(calibration.sweep_kernel, calibration.SWEEP_REF_S)

    def probes(self):
        """Median µs per ``gpe.discrete_energy`` call on a 3D state (n=512)."""
        spec = GridSpec(Dimension.D3, 6.0, 64) if self.tiny else GridSpec(Dimension.D3)
        state = gpe.gaussian_state(spec, -0.3)
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(400):
                gpe.discrete_energy(state)
            batches.append((time.perf_counter() - t0) / 400 * 1e6)
        return {"gpe.discrete_energy_us": statistics.median(batches)}


class GridOracle(GpeWorkload):
    name = "grid-oracle"
    op_label = "one point set: minimize + measured_width + stationary_points per point"
    # One seeded coupling per (dimension, sign of Gamma).  The windows are
    # narrow because iteration counts grow with |Gamma| on the attractive
    # side; a few per cent of spread keeps the op time seed-independent.
    WINDOWS = ((3, 0.9, 1.1), (3, -0.32, -0.28), (1, 0.9, 1.1), (1, -0.55, -0.45))

    def __init__(self, rng, tiny, root):
        super().__init__(rng, tiny, root)
        self.specs = {
            dim: GridSpec(Dimension(dim), 6.0, 64) if tiny else GridSpec(Dimension(dim))
            for dim in (1, 3)
        }
        self._reference_cache: dict = {}

    def warm_up(self):
        for dim, lo, hi in self.WINDOWS:
            spec = GridSpec(Dimension(dim), 6.0, 64)
            gpe.measured_width(gpe.minimize(spec, 0.5 * (lo + hi)))
            variational.stationary_points(DimensionlessProblem(Dimension(dim), 0.5 * (lo + hi)))

    def next_input(self):
        return [(dim, float(self.rng.uniform(lo, hi))) for dim, lo, hi in self.WINDOWS]

    def run(self, inp):
        out = []
        for dim, gamma in inp:
            state = gpe.minimize(self.specs[dim], gamma)
            width = gpe.measured_width(state)
            report = variational.stationary_points(DimensionlessProblem(Dimension(dim), gamma))
            out.append((state, width, report))
        return out

    def check(self, inp, result, info):
        failures = []
        info["energies"] = []
        for (dim, gamma), (state, width, report) in zip(inp, result):
            if not state.converged or state.collapsed:
                failures.append(f"minimize did not converge at dim={dim}, gamma={gamma!r}")
            if not (math.isfinite(width) and width > 0.0):
                failures.append(f"measured width {width!r} at dim={dim}, gamma={gamma!r}")
            failures += check_widths(dim, gamma, report.regime.value, [p.s for p in report.points])
            e_grid = state.energy.total
            if report.minimum is None or not e_grid <= report.minimum.energy.total:
                failures.append(f"E_grid {e_grid!r} above E_var at dim={dim}, gamma={gamma!r}")
            info["energies"].append((dim, gamma, e_grid))
        return failures

    def finish(self, records):
        from reference import ground_state_energy

        for rec in records:
            for dim, gamma, e_grid in rec["info"].get("energies", []):
                spec = self.specs[dim]
                key = (dim, gamma)
                if key not in self._reference_cache:
                    self._reference_cache[key] = ground_state_energy(dim, spec.r_max, spec.n_points, gamma)
                e_ref, res = self._reference_cache[key]
                if not res < RESIDUAL_TOL:
                    rec["failures"].append(f"reference unconverged (residual {res:.3g}) at dim={dim}, gamma={gamma!r}")
                elif not abs(e_grid - e_ref) <= ENERGY_TOL:
                    rec["failures"].append(
                        f"|E_grid - E_ref| = {abs(e_grid - e_ref):.3g} > {ENERGY_TOL} at dim={dim}, gamma={gamma!r}")

    def named_metrics(self, walls):
        return {"oracle_wall_s": (statistics.median(walls), "s")}


class CriticalThreshold(GpeWorkload):
    name = "critical-threshold"
    op_label = "critical_scan on 3D grids r_max=6, n=128 then n=256"

    def __init__(self, rng, tiny, root):
        super().__init__(rng, tiny, root)
        self.grids = (64, 128) if tiny else (128, 256)

    def warm_up(self):
        gpe.critical_scan(GridSpec(Dimension.D3, 6.0, 64), (-1.0, -0.1))

    def next_input(self):
        # A probe that lands next to the fold converges slowly.  Jitter of
        # +-0.02 moves the probes enough to change an op's iterations by up
        # to 1.7x; +-0.002 keeps them within a few per cent of each other.
        return (-1.0 + float(self.rng.uniform(-0.002, 0.002)), -0.1 + float(self.rng.uniform(-0.002, 0.002)))

    def run(self, inp):
        return [gpe.critical_scan(GridSpec(Dimension.D3, 6.0, n), inp) for n in self.grids]

    def check(self, inp, result, info):
        failures = []
        lo, hi = CRITICAL_BAND
        for n, gamma_c in zip(self.grids, result):
            if not lo < abs(gamma_c) < hi:
                failures.append(f"grid |Gamma_c| = {abs(gamma_c)!r} outside {CRITICAL_BAND} at n={n}")
        if not abs(result[0] - result[1]) <= REFINEMENT_TOL:
            failures.append(f"n={self.grids[0]} and n={self.grids[1]} disagree: {result}")
        return failures

    def named_metrics(self, walls):
        return {"critical_wall_s": (statistics.median(walls), "s")}


# --- cli-calls --------------------------------------------------------------------------

def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], cwd: Path, env: dict) -> tuple[int, str, str, int]:
    """(exit status, stdout, stderr, peak RSS in KiB) of one child, waited for.

    ``os.wait4`` reaps the child, which gives its own resource usage; the
    outputs are small enough that reading the pipes in turn cannot block.
    """
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


class CliCalls(Workload):
    name = "cli-calls"
    op_label = "one `python -m becstab.cli` child: critical, minimize or a 9-row sweep"
    SUBCOMMANDS = ("critical", "minimize", "sweep")

    def __init__(self, rng, tiny, root):
        super().__init__(rng, tiny, root)
        self.env = child_env(root / "src")
        self.count = 0
        self.child_rss_kb = 0

    def warm_up(self):
        import becstab.cli  # noqa: F401

        self.in_process(self._argv("critical", 145.0, None, None, None))

    def in_process(self, argv: list[str]) -> str:
        cli = sys.modules["becstab.cli"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            status = cli.run(argv)
        if status != 0:
            raise RuntimeError(f"in-process becstab {' '.join(argv)} exited {status}")
        return sink.getvalue()

    @staticmethod
    def _argv(kind, freq, dim, gamma, n_list):
        li7 = ["--mass-amu", "7.016", "--freq-hz", repr(freq), "--scattering-a", "-1.45e-9", "--dim", "3"]
        if kind == "critical":
            return ["critical", *li7, "--json"]
        if kind == "minimize":
            return ["minimize", "--gamma", repr(gamma), "--dim", str(dim), "--json"]
        return ["sweep", *li7, "--n-list", ",".join(repr(n) for n in n_list)]

    def next_input(self):
        kind = self.SUBCOMMANDS[self.count % len(self.SUBCOMMANDS)]
        self.count += 1
        freq = float(self.rng.uniform(117.0, 163.0))
        dim = int(self.rng.choice([1, 3]))
        gamma = float(self.rng.uniform(-1.0, 2.0))
        n_list = np.sort(self.rng.uniform(0.0, 2000.0, 9)).tolist()
        return kind, freq, dim, gamma, n_list

    def run(self, inp):
        cmd = [sys.executable, "-m", "becstab.cli", *self._argv(*inp)]
        status, out, err, rss_kb = run_child(cmd, self.root, self.env)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return status, out, err

    def check(self, inp, result, info):
        kind, freq, dim, gamma, n_list = inp
        status, out, err = result
        if status != 0:
            return [f"{kind} exited {status}: {err.strip()[-200:]}"]
        try:
            if kind == "critical":
                return self._check_critical(freq, json.loads(out))
            if kind == "minimize":
                payload = json.loads(out)
                return check_widths(dim, gamma, payload["regime"], [p["s"] for p in payload["points"]])
            return self._check_sweep(n_list, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{kind} output does not parse: {exc!r}"]

    @staticmethod
    def _check_critical(freq, payload):
        setup = PhysicalSetup(dimension=Dimension.D3, **_li7(freq, scattering_length=-1.45e-9))
        n_max = GAMMA_C / abs(coupling(setup.with_n(1.0)))
        failures = []
        if not math.isclose(payload["gamma_crit"], GAMMA_C, rel_tol=1e-12):
            failures.append(f"gamma_crit {payload['gamma_crit']!r}")
        if not math.isclose(payload["n_max_real"], n_max, rel_tol=1e-9):
            failures.append(f"n_max_real {payload['n_max_real']!r} != {n_max!r}")
        if payload["n_max_floor"] != math.floor(payload["n_max_real"]):
            failures.append(f"n_max_floor {payload['n_max_floor']!r}")
        return failures

    @staticmethod
    def _check_sweep(n_list, out):
        table = list(csv.reader(io.StringIO(out)))
        if table[0] != sweep_mod.CSV_HEADER.split(",") or len(table) != len(n_list) + 1:
            return [f"sweep CSV has header {table[0]} and {len(table) - 1} rows"]
        failures = []
        for n, row in zip(n_list, table[1:]):
            values = [float(f) for f in row[:7] if f != ""]
            if float(row[0]) != n or not all(math.isfinite(v) for v in values):
                failures.append(f"sweep row {row}")
        return failures

    def sampler(self):
        return calibration.SpawnSampler(self.root, self.env)

    def peak_rss_kb(self):
        return self.child_rss_kb

    def probes(self):
        """Interpreter and import costs, and the in-process cost of each subcommand."""
        def median_child(code: str) -> float:
            return statistics.median(calibration.spawn_s(self.root, self.env, code) for _ in range(5))

        bare = median_child("pass")
        metrics = {
            "cli.interpreter_s": bare,
            "cli.numpy_import_s": median_child("import numpy") - bare,
            "cli.import_s": median_child("import becstab.cli") - bare,
        }
        for kind in self.SUBCOMMANDS:
            argv = self._argv(kind, 145.0, 3, -0.3, [0.0, 500.0, 1000.0, 1400.0, 1500.0, 1600.0, 1700.0, 1800.0, 1900.0])
            walls = []
            for _ in range(7):
                t0 = time.perf_counter()
                self.in_process(argv)
                walls.append(time.perf_counter() - t0)
            metrics[f"cli.run_ms.{kind}"] = statistics.median(walls) * 1e3
        return metrics

    def named_metrics(self, walls):
        tail, pct = percentile_tail(walls)
        return {
            "cli_call_s_p50": (statistics.median(walls), "s"),
            "cli_call_s_tail": (tail, "s"),
            "cli_call_tail_pct": (pct, "%"),
            "cli_call_samples": (float(len(walls)), "count"),
        }


WORKLOADS = {w.name: w for w in (VariationalTable, GridOracle, CriticalThreshold, CliCalls)}
