"""Command-line surface: flags, config merging, output formats, exit codes."""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from becstab import (CSV_HEADER, Dimension, EnergyBreakdown, GridSpec, GridState, gaussian_state,
                     parse_csv)
from becstab.cli import _unconverged_message, run

LI7_FLAGS = ["--mass-amu", "7.016", "--freq-hz", "120",
             "--scattering-a", "-1.45e-9", "--dim", "3"]


def run_child(*args: str, close_stdout: bool = False) -> subprocess.CompletedProcess:
    """``python <args>`` with this checkout's ``src`` first on the import path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cmd, env = [sys.executable, *args], {**os.environ, "PYTHONPATH": path}
    if not close_stdout:
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        proc.stdout.close()      # the reader goes away before the child writes a byte
        err = proc.stderr.read()
    return subprocess.CompletedProcess(cmd, proc.returncode, "", err)


# --- critical ---------------------------------------------------------------------

def test_critical_li7_text(capsys):
    assert run(["critical", *LI7_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "gamma_crit" in out
    assert "0.6705133427357031" in out
    assert "1602.2401356152297" in out      # direct path
    assert "1602" in out                    # floored count


def test_critical_li7_json_schema(capsys):
    assert run(["critical", *LI7_FLAGS, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"s_min", "gamma_crit", "n_max_real", "n_max_floor",
                            "path_direct", "path_dimensionless"}
    assert payload["s_min"] == pytest.approx(0.668740304976422, abs=1e-14)
    assert payload["gamma_crit"] == pytest.approx(0.6705133427357031, abs=1e-14)
    assert payload["n_max_floor"] == 1602
    assert payload["path_direct"] == pytest.approx(payload["path_dimensionless"], rel=1e-10)


def test_critical_rejects_gamma(capsys):
    # critical reads an SI setup; --gamma must not be silently ignored
    assert run(["critical", *LI7_FLAGS, "--gamma", "-0.3"]) == 1
    assert "not --gamma" in capsys.readouterr().err


def test_critical_scientific_notation_negative_flag_value(capsys):
    # space-separated negative values in scientific notation must parse
    assert run(["critical", "--mass-amu", "7.016", "--freq-hz", "120",
                "--scattering-a", "-1.45e-9", "--dim", "3"]) == 0
    capsys.readouterr()


def test_critical_one_dimensional_unbounded(capsys):
    code = run(["critical", "--mass-amu", "7.016", "--freq-hz", "120",
                "--coupling-1d", "-1e-40", "--dim", "1"])
    assert code == 0
    assert "unbounded" in capsys.readouterr().out


def test_critical_repulsive_unbounded_json(capsys):
    code = run(["critical", "--mass-amu", "86.909", "--freq-hz", "100",
                "--scattering-a", "5.3e-9", "--dim", "3", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_max_real"] is None
    assert payload["n_max_floor"] is None
    assert payload["gamma_crit"] is not None


# --- minimize ---------------------------------------------------------------------

def test_minimize_gamma_shortcut_noninteracting(capsys):
    assert run(["minimize", "--dim", "3", "--gamma", "0"]) == 0
    out = capsys.readouterr().out
    assert "noninteracting" in out
    assert "minimum" in out


def test_minimize_gamma_shortcut_json(capsys):
    assert run(["minimize", "--dim", "3", "--gamma", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "noninteracting"
    point = payload["points"][0]
    assert point["s"] == pytest.approx(1.0, abs=1e-12)
    assert point["total"] == pytest.approx(1.5, abs=1e-12)


def test_minimize_collapsed_report(capsys):
    assert run(["minimize", "--dim", "3", "--gamma", "-1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "attractive_collapsed"
    assert payload["points"] == []


def test_minimize_si_setup(capsys):
    assert run(["minimize", *LI7_FLAGS, "--n-atoms", "1000"]) == 0
    out = capsys.readouterr().out
    assert "attractive_subcritical" in out
    assert "maximum" in out and "minimum" in out


def test_minimize_json_keys_are_the_report_fields(capsys):
    assert run(["minimize", "--dim", "3", "--gamma", "-0.3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"dimension", "gamma", "points", "regime",
                            "s_min_critical", "gamma_critical"}
    assert [point["kind"] for point in payload["points"]] == ["maximum", "minimum"]
    for point in payload["points"]:
        assert set(point) == {"s", "kind", "kinetic", "potential", "interaction", "total",
                              "residual"}


# --- validation errors --------------------------------------------------------------

def test_unknown_flag_is_validation_error(capsys):
    assert run(["critical", "--frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand(capsys):
    assert run([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_gamma_conflicts_with_si_interaction(capsys):
    assert run(["minimize", "--dim", "3", "--gamma", "-0.3",
                "--scattering-a", "-1e-9"]) == 1
    assert "--gamma conflicts" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--config", "/nonexistent.cfg"], ["--mass-amu", "7"],
                                  ["--freq-hz", "100"]])
def test_gamma_conflicts_with_every_setup_flag(flag, capsys):
    assert run(["minimize", "--dim", "3", "--gamma", "-0.3", *flag]) == 1
    assert f"--gamma conflicts with {flag[0]}" in capsys.readouterr().err


def test_gamma_requires_dim(capsys):
    assert run(["minimize", "--gamma", "-0.3"]) == 1
    assert "--dim" in capsys.readouterr().err


def test_setup_needs_n_atoms_for_minimize(capsys):
    assert run(["minimize", *LI7_FLAGS]) == 1
    assert "n-atoms" in capsys.readouterr().err


def test_mismatched_dimension_interaction(capsys):
    assert run(["critical", "--mass-amu", "7", "--freq-hz", "100",
                "--coupling-1d", "-1e-40", "--dim", "3"]) == 1
    err = capsys.readouterr().err
    assert "scattering_a_m" in err or "coupling" in err


def test_bad_grid_flags(capsys):
    assert run(["oracle", "--dim", "3", "--gamma", "0",
                "--n-points", "8"]) == 1
    assert "n_points" in capsys.readouterr().err
    # sweep's oracle runs to convergence: it takes no step cap
    assert run(["sweep", *LI7_FLAGS, "--n-list", "500", "--with-oracle",
                "--n-points", "128", "--r-max", "6", "--max-iter", "3"]) == 1
    captured = capsys.readouterr()
    assert "--max-iter" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["minimize", "--dim", "3", "--gamma", "nan"],
    ["minimize", "--dim", "1", "--gamma", "inf"],
    ["minimize", *LI7_FLAGS, "--n-atoms", "inf"],
    ["oracle", "--dim", "3", "--gamma", "0", "--r-max", "inf"],
    ["oracle", "--dim", "3", "--gamma", "0", "--r-max", "nan"],
    ["critical", "--mass-amu", "7.016", "--freq-hz", "inf",
     "--scattering-a", "-1.45e-9", "--dim", "3"],
    ["minimize", "--mass-amu", "inf", "--freq-hz", "120",
     "--scattering-a", "-1.45e-9", "--dim", "3", "--n-atoms", "10"],
])
def test_non_finite_input_is_validation_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    # 3 * gamma overflows in the residual bound here, though c and the root are finite
    ["minimize", "--dim", "3", "--gamma", "1e308"],
    # 2 * gamma alone overflows here; the closed form must not report s = inf or a regime
    ["minimize", "--dim", "1", "--gamma", "1.7e308"],
    ["minimize", "--dim", "1", "--gamma", "-1.7e308"],
    ["minimize", "--dim", "3", "--gamma", "1.7e308"],
])
def test_arithmetic_overflow_is_compute_failure(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("compute failure: OverflowError")


@pytest.mark.parametrize("gamma", ["-1e63", "-1.7e308"])
def test_huge_attractive_3d_coupling_has_no_width(gamma, capsys):
    # far past the fold: collapsed with no stationary width, not an overflow in the scan
    assert run(["minimize", "--dim", "3", "--gamma", gamma, "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (payload["regime"], payload["points"]) == ("attractive_collapsed", [])
    assert captured.err == ""


def test_huge_repulsive_coupling_gets_its_width(capsys):
    # s^5 - s = c with c = 2 Gamma / sqrt(2 pi) ~ 8e299: s = c^(1/5) to within c^(-4/5) / 5
    gamma = 1e300
    assert run(["minimize", "--dim", "3", "--gamma", "1e300", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "repulsive_stable"
    [point] = payload["points"]
    s = point["s"]
    assert point["kind"] == "minimum"
    assert s == pytest.approx((2.0 * gamma / math.sqrt(2.0 * math.pi)) ** 0.2, rel=1e-12)
    terms = (1.5 / s**3, 1.5 * s, 3.0 * gamma / (math.sqrt(2.0 * math.pi) * s**4))
    assert point["residual"] <= max(1e-10, 4.0 * sys.float_info.epsilon * sum(terms))


# --- config file ---------------------------------------------------------------------

def test_config_file_supplies_setup(tmp_path, capsys):
    cfg = tmp_path / "li7.cfg"
    cfg.write_text(
        "mass_amu = 7.016\nfreq_hz = 120\nscattering_a_m = -1.45e-9\ndim = 3\n"
    )
    assert run(["critical", "--config", str(cfg), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_max_floor"] == 1602


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "li7.cfg"
    cfg.write_text(
        "mass_amu = 7.016\nfreq_hz = 120\nscattering_a_m = -1.45e-9\ndim = 3\n"
    )
    assert run(["critical", "--config", str(cfg), "--freq-hz", "163", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_max_floor"] == 1374    # the 163 Hz value wins


def test_missing_config_file(capsys):
    assert run(["critical", "--config", "/nonexistent.cfg"]) == 1
    assert "not found" in capsys.readouterr().err


# --- sweep ------------------------------------------------------------------------------

def test_sweep_n_list_to_stdout(capsys):
    assert run(["sweep", *LI7_FLAGS, "--n-list", "0,500,1000"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert [row.n_atoms for row in rows] == [0.0, 500.0, 1000.0]
    assert rows[0].regime == "noninteracting"


def test_sweep_range_to_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    assert run(["sweep", *LI7_FLAGS, "--n-min", "0", "--n-max", "1000",
                "--n-steps", "5", "--csv", str(target)]) == 0
    rows = parse_csv(target.read_text())
    assert len(rows) == 5
    assert rows[-1].n_atoms == 1000.0


def test_sweep_log_range_needs_positive_start(capsys):
    assert run(["sweep", *LI7_FLAGS, "--n-min", "0", "--n-max", "100",
                "--n-steps", "3", "--log"]) == 1
    assert "--log" in capsys.readouterr().err


def test_sweep_needs_some_range(capsys):
    assert run(["sweep", *LI7_FLAGS]) == 1
    assert "--n-list" in capsys.readouterr().err


def test_sweep_rejects_json(capsys):
    # sweep writes CSV only; --json is a usage error, not silently ignored
    assert run(["sweep", *LI7_FLAGS, "--n-list", "0,500", "--json"]) == 1
    captured = capsys.readouterr()
    assert "--json" in captured.err and captured.out == ""


def test_sweep_rejects_gamma(capsys):
    assert run(["sweep", "--dim", "3", "--gamma", "-0.3",
                "--n-list", "0,10"]) == 1
    assert "atom numbers" in capsys.readouterr().err


# --- oracle and compare -------------------------------------------------------------------

def test_oracle_noninteracting(capsys):
    assert run(["oracle", "--dim", "3", "--gamma", "0",
                "--n-points", "128", "--r-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "converged: True" in out
    assert "width" in out


def test_oracle_json_and_profile(capsys):
    assert run(["oracle", "--dim", "3", "--gamma", "0", "--n-points", "128",
                "--r-max", "6", "--json", "--csv", "-"]) == 0
    out = capsys.readouterr().out
    json_part, _, csv_part = out.partition("r,density")
    payload = json.loads(json_part)
    assert payload["converged"] is True
    assert payload["total"] == pytest.approx(1.5, abs=1e-3)
    assert payload["width"] == pytest.approx(1.0, abs=1e-2)
    assert len(csv_part.strip().splitlines()) == 128   # one row per grid point


def test_oracle_unconverged_is_compute_failure(capsys):
    code = run(["oracle", "--dim", "3", "--gamma", "1.0", "--n-points", "128",
                "--r-max", "6", "--max-iter", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "compute failure" in err
    assert "iteration cap" in err


def test_unconverged_message_tells_a_stall_from_the_cap():
    state = gaussian_state(GridSpec(Dimension.D3, 6.0, 128), 1.0)
    stalled = dataclasses.replace(state, iterations=5)
    assert "stalled" in _unconverged_message(stalled, max_iter=30)
    assert "iteration cap" in _unconverged_message(stalled, max_iter=5)


def test_oracle_collapse_is_reported_not_failed(capsys):
    assert run(["oracle", "--dim", "3", "--gamma", "-1.0",
                "--n-points", "128", "--r-max", "6"]) == 0
    assert "collapsed: True" in capsys.readouterr().out


@pytest.mark.parametrize("gamma, collapsed", [("0", False), ("-1.0", True)])
def test_oracle_json_reports_the_residual(capsys, gamma, collapsed):
    assert run(["oracle", "--dim", "3", "--gamma", gamma,
                "--n-points", "128", "--r-max", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["collapsed"] is collapsed
    if collapsed:
        assert payload["residual"] is None     # a collapse skips the residual
    else:
        assert 0.0 <= payload["residual"] <= 1e-6


@pytest.mark.parametrize("dim", ["1", "3"])
def test_oracle_json_keys_are_the_state_fields(dim, capsys):
    assert run(["oracle", "--dim", dim, "--gamma", "0", "--n-points", "128", "--r-max", "6",
                "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # A list, not a set: a merged key that overwrote another would show as a missing key.
    names = [field.name for cls in (GridState, GridSpec, EnergyBreakdown)
             for field in dataclasses.fields(cls)
             if field.name not in ("values", "spec", "energy", "gamma_total")]
    assert sorted(payload) == sorted([*names, "gamma", "width"])
    assert payload["dimension"] == int(dim) and payload["n_points"] == 128
    assert not [value for value in payload.values() if isinstance(value, list)]   # no grid arrays


def test_oracle_reports_a_start_state_that_has_collapsed(capsys):
    # the Gaussian start is already far below the 3D energy floor
    assert run(["oracle", "--dim", "3", "--gamma", "-1e300",
                "--n-points", "128", "--r-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "collapsed: True" in out and "iterations: 0" in out


def test_compare_text_and_csv(capsys):
    assert run(["compare", "--dim", "3", "--gamma", "-0.3",
                "--n-points", "128", "--r-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "variational" in out and "oracle" in out

    assert run(["compare", "--dim", "3", "--gamma", "-0.3", "--n-points", "128",
                "--r-max", "6", "--csv", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[-1] == "attractive_subcritical"


def test_compare_runs_the_oracle_without_a_minimum(capsys):
    # sweep skips the grid run when the ansatz has no minimum; compare does not
    assert run(["compare", "--dim", "3", "--gamma", "-0.7", "--n-points", "128",
                "--r-max", "6", "--csv", "-"]) == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert row.regime == "attractive_collapsed_oracle_collapsed"
    assert row.s_stable is None and row.s_oracle is None


def test_compare_takes_the_atom_number_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "li7.cfg"
    cfg.write_text(
        "mass_amu = 7.016\nfreq_hz = 120\nscattering_a_m = -1.45e-9\ndim = 3\nn_atoms = 300\n"
    )
    assert run(["compare", "--config", str(cfg), "--n-points", "128",
                "--r-max", "6", "--csv", "-"]) == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert row.n_atoms == 300.0
    assert row.regime == "attractive_subcritical"


def test_compare_json_upper_bound(capsys):
    assert run(["compare", "--dim", "3", "--gamma", "0.5", "--n-points", "128",
                "--r-max", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variational"]["e_per_atom"] >= payload["oracle"]["e_per_atom"] - 1e-3
    assert abs(payload["variational"]["s_stable"] - payload["oracle"]["s"]) < 0.1


# --- processes: imports and a closed stdout -----------------------------------------------

@pytest.mark.parametrize("argv", [
    ["critical", *LI7_FLAGS, "--json"],
    ["minimize", "--dim", "3", "--gamma", "-0.3", "--json"],
    ["sweep", *LI7_FLAGS, "--n-list", "0,500,1000,1400,1500,1600,1700"],
])
def test_closed_form_commands_never_import_numpy(argv, capsys):
    child = run_child("-X", "importtime", "-m", "becstab.cli", *argv)
    assert child.returncode == 0, child.stderr
    imported = re.findall(r"^import time:.*\|\s*(\S+)$", child.stderr, flags=re.MULTILINE)
    assert "becstab.variational" in imported
    assert "becstab.gpe" not in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    assert run(argv) == 0
    assert child.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # A few lines break the pipe at the final flush; 400 CSV rows inside a write.
    ["minimize", "--dim", "3", "--gamma", "-0.3"],
    ["sweep", *LI7_FLAGS, "--n-list", ",".join(map(str, range(0, 1600, 4)))],
])
def test_closed_stdout_ends_quietly(argv):
    child = run_child("-m", "becstab.cli", *argv, close_stdout=True)
    assert child.stderr == "", child.stderr      # no Traceback, no "Exception ignored"
    assert child.returncode == 1


# --- installed entry point -------------------------------------------------------------------

def test_console_script_smoke():
    exe = shutil.which("becstab")
    assert exe is not None, "becstab entry point not installed"
    result = subprocess.run([exe, "critical", *LI7_FLAGS, "--json"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert json.loads(result.stdout)["n_max_floor"] == 1602
