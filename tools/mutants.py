"""Mutation check of the test suite: does Tier-1 notice each hand-written fault?

Each row of ``MUTANTS`` names a file under ``src/becstab``, a snippet that
occurs exactly once in it, the snippet's replacement and the fault it stands
for.  The script copies ``src/``, ``tests/``, ``perfbench/`` (``tests/helpers.py``
loads ``perfbench/reference.py``) and ``pyproject.toml`` to a temporary
directory, runs Tier-1 there once unmutated, and then once per mutant with
that one edit applied.  A mutant is killed when a test fails that passed
unmutated; tests that already fail unmutated (``test_console_script_smoke``
without an installed entry point) are deselected.  A run past the timeout
counts as killed.

Run from anywhere, outside Tier-1:  python tools/mutants.py
A full run takes about 90 s on a 2-core Xeon with Python 3.11.  It prints
one line per mutant.  It exits 1 when a mutant survives that is
not in ``SURVIVORS``, the mutants kept with a reason, and also, before
anything runs, when a snippet no longer occurs exactly once; else it exits 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

MUTANTS = (
    # Faults in the solver, the scan, the constants and the profile writer.
    ("gpe.py", "beta = max(0.0, (rpr - float(np.dot(residual, last_pr))) / last_rpr)",
     "beta = 0.0", "steepest descent in place of conjugate gradient"),
    ("gpe.py", "< 0.2 * rpr:", "< 0.0:", "the restart test never fires"),
    ("gpe.py", "return t if drop < 0.0 else None", "return t",
     "_arc_step drops its closed-form descent guard"),
    ("sweep.py", "density[0] = (values[1] / state.spec.spacing) ** 2", "density[0] = 0.0",
     "dump_profile writes 0 for the 3D density at r = 0"),
    ("gpe.py", "_RESIDUAL_TOL = 1e-6", "_RESIDUAL_TOL = 1e-4", "a looser convergence tolerance"),
    ("gpe.py", "_COLLAPSE_WIDTH_FACTOR = 4.0", "_COLLAPSE_WIDTH_FACTOR = 3.0",
     "collapse width factor 3"),
    ("gpe.py", "        out[-1] = 0.0\n        norm = self.norm(out)", "        norm = self.norm(out)",
     "normalized no longer pins the far end"),
    ("gpe.py", "self.int_coef = 2.0 * math.pi * gamma",
     "self.int_coef = 2.0 * math.pi * gamma * (1.0 + 1e-7)", "3D coupling off by 1e-7"),
    ("gpe.py", "return 0.5 * (gamma_lo + gamma_hi)", "return gamma_hi",
     "critical_scan returns its upper edge"),
    ("gpe.py", "while gamma_hi - gamma_lo > 0.01:", "while gamma_hi - gamma_lo > 0.02:",
     "critical_scan stops at bracket width 0.02"),
    ("gpe.py", "if state.residual is not None and not state.converged:", "if False:",
     "measured_width accepts unconverged states"),
    ("variational.py", "_CRITICAL_BAND = 1e-9", "_CRITICAL_BAND = 1e-6", "a wider critical band"),
    ("variational.py", "    if not _resolved(report):", "    if False:",
     "stationary_points returns reports float64 cannot resolve"),
    ("variational.py", "if (left > 0.0) != (right > 0.0))", "if (left >= 0.0) != (right >= 0.0))",
     "the scan counts a zero of p as positive"),
    ("units.py", "HBAR = 1.054571817e-34", "HBAR = 1.0546e-34", "HBAR rounded"),
    ("variational.py", "        * aho\n", "        * aho * (1.0 + 1e-9)\n",
     "N_max off by 1e-9"),
    ("gpe.py", "if iterations and on_accept is not None:", "if on_accept is not None:",
     "on_accept fires at the start state"),
    ("gpe.py", "if not (math.isfinite(self.r_max) and self.r_max >= 6.0):",
     "if not self.r_max >= 6.0:", "GridSpec accepts an infinite r_max"),
    ("gpe.py", "energy.total < _COLLAPSE_ENERGY - disc.h * disc.h",
     "energy.total < 0.0", "the 3D energy floor back at 0"),
    ("gpe.py", "_COLLAPSE_ENERGY = math.sqrt(5.0) / 2.0",
     "_COLLAPSE_ENERGY = math.sqrt(5.0) / 2.0 + 0.1",
     "the 3D energy floor above the metastable states near the fold"),
    ("variational.py", "if abs(c) < 1.0 and (abs(c) / 2.0) ** 5 < sys.float_info.min:",
     "if (abs(c) / 2.0) ** 5 < sys.float_info.min:",
     "the weak-coupling guard overflows on a huge attractive 3D coupling"),
    # The JSON walker.
    ("cli.py", "payload.update(_fields(value))", "continue",
     "_fields skips nested dataclasses"),
    ("cli.py", 'key = "gamma" if field.name == "gamma_total" else field.name',
     "key = field.name", "_fields drops the gamma rename"),
)

# Mutants that Tier-1 is known not to kill, by reason, with why each is kept.
SURVIVORS = {
    "the restart test never fires":
        "costs only steps, and on every run tried the step counts are identical",
}


def _tier1(cwd: Path, deselect: list[str], stop_early: bool) -> tuple[str, list[str]]:
    """Run Tier-1 in ``cwd``; returns ("passed" | "failed" | "timed out", failed test ids)."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *(["-x"] if stop_early else []),
           *(f"--deselect={test}" for test in deselect)]
    try:
        run = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out", []
    failed = re.findall(r"^FAILED (\S+)", run.stdout, flags=re.MULTILINE)
    return ("passed" if run.returncode == 0 else "failed"), failed


def main() -> int:
    sources = {name: (ROOT / "src" / "becstab" / name).read_text()
               for name in {row[0] for row in MUTANTS}}
    stale = [(name, old) for name, old, _, _ in MUTANTS if sources[name].count(old) != 1]
    for name, old in stale:
        print(f"error: {name}: snippet does not occur exactly once: {old!r}", file=sys.stderr)
    if stale:
        return 1

    with tempfile.TemporaryDirectory(prefix="becstab-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")

        _, baseline = _tier1(work, [], stop_early=False)
        print(f"unmutated: {len(baseline)} failing, deselected: {' '.join(baseline) or '-'}")
        killed, unexpected = 0, []
        for name, old, new, reason in MUTANTS:
            path = work / "src" / "becstab" / name
            path.write_text(sources[name].replace(old, new))
            start = time.perf_counter()
            outcome, failed = _tier1(work, baseline, stop_early=True)
            path.write_text(sources[name])
            verdict = "survived" if outcome == "passed" else "killed"
            killed += verdict == "killed"
            if verdict == "survived" and reason not in SURVIVORS:
                unexpected.append(reason)
            evidence = failed[0] if failed else outcome
            print(f"{verdict:8s} {time.perf_counter() - start:6.1f}s  {name}: {reason}"
                  + (f"  [{evidence}]" if verdict == "killed" else "")
                  + (f"  (kept: {SURVIVORS[reason]})" if reason in SURVIVORS else ""), flush=True)
        print(f"{killed} of {len(MUTANTS)} killed")
    for reason in unexpected:
        print(f"error: survived, and not a kept survivor: {reason}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
