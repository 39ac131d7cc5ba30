"""becstab benchmark: four closed-loop workloads, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a becstab checkout; the library is imported from its
``src/`` directory, so nothing needs installing.  The run

1. sets up (imports, inputs, one warm-up op) in this process and in four more
   processes started one after the other, and takes the median as setup_s;
2. runs ops, drawing each op's inputs from ``--seed``, until the next op would
   end after ``--seconds`` (at least one op); with ``--trace 1`` every input
   runs twice, traced and untraced, in alternating order;
3. times a calibration task during or after every untraced op (see
   calibration.py) and rescales times to the reference machine speed;
4. checks every output, with independent reference energies for grid-oracle
   computed after the window;
5. prints a report and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
   ``--trace 1`` the per-layer metrics.

The full record of the run, with the environment and the raw times, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and the spans of a
traced run to ``perfbench/out/<workload>-seed<N>.trace.jsonl``.
``--tiny`` shrinks grids and tables for smoke tests.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread: the machine has two cores and every workload is one caller.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("variational-table", "grid-oracle", "critical-threshold", "cli-calls")
SETUP_SAMPLES = 5

E2E_UNITS = {"op_norm_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small grids and tables, for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import becstab from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import becstab

    if Path(becstab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"becstab was imported from {becstab.__file__}, not from {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(args) -> float:
    """Set-up time of a fresh process, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def setup_samples(args, own_s: float) -> list[dict]:
    """This process's set-up time and that of SETUP_SAMPLES - 1 fresh ones,
    each rescaled by a calibration taken right after it."""
    import calibration

    samples = []
    for i in range(SETUP_SAMPLES):
        raw = own_s if i == 0 else setup_probe(args)
        samples.append({"raw_s": raw, "norm_s": raw / calibration.setup_slowdown(ROOT, os.environ)})
    return samples


def run_op(workload, inp, op_id: int, tracer, sampler) -> dict:
    """One op; untraced ops are timed under the calibration sampler."""
    rec = {"op": op_id, "traced": tracer is not None, "failures": [], "info": {}}
    result = None
    with sampler.section() if tracer is None else tracer.op_span(op_id) as root:
        t0 = time.perf_counter()
        try:
            result = workload.run(inp)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            rec["failures"].append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
    rec["wall"] = t1 - t0
    if tracer is None:
        overhead, rec["slowdown"] = sampler.account(t0, t1)
        rec["wall"] -= overhead
    if result is not None:
        rec["failures"] += workload.check(inp, result, rec["info"])
    if root is not None and "csv_bytes" in rec["info"]:
        root["csv_bytes"] = rec["info"]["csv_bytes"]
    return rec


def measure(workload, seconds: float, tracer) -> list[dict]:
    """Closed loop: the next op starts when the previous one is checked.

    A traced op is not calibrated; it takes the median slowdown of the
    untraced ops, which alternate with it.
    """
    records: list[dict] = []
    unit_walls: list[float] = []
    sampler = workload.sampler()
    start = time.perf_counter()
    while True:
        inp = workload.next_input()
        t0 = time.perf_counter()
        # With tracing, alternate which side goes first so neither always runs warm.
        sides = [None] if tracer is None else [None, tracer][:: 1 if len(unit_walls) % 2 == 0 else -1]
        for side in sides:
            records.append(run_op(workload, inp, len(records), side, sampler))
        unit_walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(unit_walls) > seconds:
            break
    typical = statistics.median(r["slowdown"] for r in records if not r["traced"])
    for rec in records:
        rec.setdefault("slowdown", typical)
        rec["norm"] = rec["wall"] / rec["slowdown"]
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_library()
    except ImportError as exc:
        print(f"error: cannot import becstab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    workload = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), args.tiny, ROOT)
    workload.warm_up()
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = setup_samples(args, setup_s)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    records = measure(workload, args.seconds, tracer)
    peak_rss_mb = workload.peak_rss_kb() / 1024.0
    workload.finish(records)

    plain = [r for r in records if not r["traced"]]
    failed = [r for r in records if r["failures"]]
    e2e = {
        "op_norm_s": statistics.median(r["norm"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(s["norm_s"] for s in setups),
    }
    report = {name: (value, E2E_UNITS[name]) for name, value in e2e.items()}
    report["op_wall_s_raw"] = (statistics.median(r["wall"] for r in plain), "s")
    report["slowdown"] = (statistics.median(r["slowdown"] for r in plain), "1")
    report.update(workload.named_metrics([r["norm"] for r in plain]))
    report["ops_failed_frac"] = (len(failed) / len(records), "failed/attempted")
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}

    layer = {}
    if tracer is not None:
        import layers

        traced = [r for r in records if r["traced"]]
        layer = layers.layer_metrics(
            tracer.spans,
            untraced=[r["wall"] for r in plain], traced=[r["wall"] for r in traced],
            slowdown=statistics.median(r["slowdown"] for r in traced), probes=workload.probes())
        metrics = {name: {"value": value, "unit": layers.UNITS[name]} for name, value in layer.items()}
        report.update({name: (m["value"], m["unit"]) for name, m in metrics.items()})
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.trace.jsonl")

    env = environment()
    print(f"# becstab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"# op: {workload.op_label}; closed loop, one caller")
    print("# env: " + json.dumps(env))
    print("# setup samples raw (s): " + ", ".join(f"{s['raw_s']:.4f}" for s in setups))
    for name, (value, unit) in report.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for rec in failed[:10]:
        print(f"# FAILED op {rec['op']}: {'; '.join(rec['failures'][:3])}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "args": vars(args), "env": env, "setup_samples": setups,
        "ops": [{k: r[k] for k in ("op", "traced", "wall", "slowdown", "norm", "failures")} for r in records],
        "report": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
