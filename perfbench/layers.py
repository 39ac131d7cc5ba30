"""Per-layer metrics of a traced run, computed from its spans.

Counts come from the first traced op only.  Its input depends on the seed
alone, so a count repeats exactly between two commits run with the same seed,
however many ops each fits into the window.  Times are medians (or sums) over
every traced span of the window.  A layer the workload never calls reports 0.
"""

from __future__ import annotations

import statistics

from tracing import self_times

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "units.reduce_calls": "count",
    "units.reduce_us_p50": "us",
    "variational.stationary_points_calls": "count",
    "variational.stationary_points_us_p50": "us",
    "variational.stationary_points_us_tail": "us",
    "variational.points_found": "count",
    "variational.residual_max": "1",
    "variational.self_share": "frac",
    "sweep.self_us_per_row": "us",
    "sweep.emit_csv_us_per_row": "us",
    "sweep.parse_csv_us_per_row": "us",
    "sweep.csv_bytes": "B",
    "gpe.minimize_calls": "count",
    "gpe.minimize_s_p50_3d": "s",
    "gpe.minimize_s_p50_1d": "s",
    "gpe.iterations_3d": "count",
    "gpe.iterations_1d": "count",
    "gpe.us_per_iteration": "us",
    "gpe.outcomes.converged": "count",
    "gpe.outcomes.collapsed": "count",
    "gpe.outcomes.capped": "count",
    "gpe.discrete_energy_us": "us",
    "gpe.bytes_per_iteration_computed": "B",
    "gpe.critical_scan_probes": "count",
    "gpe.critical_scan_iterations": "count",
    "gpe.critical_scan_s_n128": "s",
    "gpe.critical_scan_s_n256": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.run_ms.critical": "ms",
    "cli.run_ms.minimize": "ms",
    "cli.run_ms.sweep": "ms",
    "op.wall_s_tail": "s",
    "op.tail_pct": "%",
    "op.samples": "count",
    "trace.overhead_frac": "frac",
}

# A descent iteration reads the state, r^2 and the quartic weight and writes
# the gradient and the trial state: five float64 arrays of the grid's length.
# Computed from array sizes, not measured; cache misses are not counted.
_ARRAYS_PER_ITERATION = 5
_TIME_UNITS = ("s", "ms", "us")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def layer_metrics(spans: list[dict], untraced: list[float], traced: list[float],
                  slowdown: float, probes: dict[str, float]) -> dict[str, float]:
    """Every name in UNITS -> value.

    ``untraced`` and ``traced`` are the op wall times, ``slowdown`` the median
    calibration slowdown of the traced ops; every time is divided by it, as
    the end-to-end times are.
    """
    own = self_times(spans)
    first = min(s["op"] for s in spans if s["name"] == "op")
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def in_first(name):
        return [s for s in named(name) if s["op"] == first]

    ops = named("op")
    reduce_ = named("units.reduce")
    stationary = named("variational.stationary_points")
    minimize = named("gpe.minimize")
    scans = named("gpe.critical_scan")
    rows = sum(s["rows"] for s in named("sweep.sweep"))
    m: dict[str, float] = {}

    m["units.reduce_calls"] = len(in_first("units.reduce"))
    m["units.reduce_us_p50"] = _median([_duration(s) for s in reduce_], 1e6)

    sp_us = [_duration(s) * 1e6 for s in stationary]
    m["variational.stationary_points_calls"] = len(in_first("variational.stationary_points"))
    m["variational.stationary_points_us_p50"] = _median(sp_us)
    m["variational.stationary_points_us_tail"] = percentile_tail(sp_us)[0] if sp_us else 0.0
    m["variational.points_found"] = sum(s["points"] for s in in_first("variational.stationary_points"))
    m["variational.residual_max"] = max((s["residual_max"] for s in stationary), default=0.0)
    m["variational.self_share"] = (
        sum(own[s["id"]] for s in stationary) / sum(_duration(s) for s in ops))

    m["sweep.self_us_per_row"] = sum(own[s["id"]] for s in named("sweep.sweep")) / rows * 1e6 if rows else 0.0
    m["sweep.emit_csv_us_per_row"] = sum(map(_duration, named("sweep.emit_csv"))) / rows * 1e6 if rows else 0.0
    m["sweep.parse_csv_us_per_row"] = sum(map(_duration, named("sweep.parse_csv"))) / rows * 1e6 if rows else 0.0
    m["sweep.csv_bytes"] = next((s.get("csv_bytes", 0) for s in ops if s["op"] == first), 0)

    first_min = in_first("gpe.minimize")
    m["gpe.minimize_calls"] = len(first_min)
    for dim in (3, 1):
        m[f"gpe.minimize_s_p50_{dim}d"] = _median([_duration(s) for s in minimize if s["dim"] == dim])
        m[f"gpe.iterations_{dim}d"] = sum(s["iterations"] for s in first_min if s["dim"] == dim)
    iterations = sum(s["iterations"] for s in minimize)
    m["gpe.us_per_iteration"] = sum(map(_duration, minimize)) / iterations * 1e6 if iterations else 0.0
    m["gpe.outcomes.converged"] = sum(1 for s in first_min if s["converged"])
    m["gpe.outcomes.collapsed"] = sum(1 for s in first_min if s["collapsed"])
    m["gpe.outcomes.capped"] = sum(1 for s in first_min if not s["converged"] and not s["collapsed"])
    m["gpe.discrete_energy_us"] = probes.get("gpe.discrete_energy_us", 0.0)
    first_iterations = sum(s["iterations"] for s in first_min)
    m["gpe.bytes_per_iteration_computed"] = (
        sum(s["iterations"] * s["samples"] * 8 * _ARRAYS_PER_ITERATION for s in first_min) / first_iterations
        if first_iterations else 0.0)

    scan_ids = {s["id"] for s in scans}
    probes_first = [s for s in first_min if s["parent"] in scan_ids]
    m["gpe.critical_scan_probes"] = len(probes_first)
    m["gpe.critical_scan_iterations"] = sum(s["iterations"] for s in probes_first)
    # The coarse and the fine grid of the workload (n = 128 and 256).
    sizes = sorted({s["n_points"] for s in scans})
    for key, size in zip(("gpe.critical_scan_s_n128", "gpe.critical_scan_s_n256"), sizes + [None, None]):
        m[key] = _median([_duration(s) for s in scans if s["n_points"] == size])

    for key in ("cli.interpreter_s", "cli.import_s", "cli.numpy_import_s",
                "cli.run_ms.critical", "cli.run_ms.minimize", "cli.run_ms.sweep"):
        m[key] = probes.get(key, 0.0)

    m["op.wall_s_tail"], m["op.tail_pct"] = percentile_tail(untraced)
    m["op.samples"] = len(untraced)
    m["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    return {key: float(m[key]) / (slowdown if UNITS[key] in _TIME_UNITS else 1.0) for key in UNITS}
