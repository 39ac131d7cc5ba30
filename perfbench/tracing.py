"""In-memory span tracer that rebinds the public names each becstab layer calls.

Only traced ops use it: ``Tracer.op_span`` swaps the module attributes for
timing wrappers for the length of one op and then puts the originals back, so
a traced op and an untraced op run the same library code.

A span is a dict with ``id``, ``name``, ``start``, ``end`` (perf_counter
seconds), ``parent`` (span id or None), ``op`` (op id) and optional result
attributes.  Self time is a span's duration minus its children's durations;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _minimize_attrs(args, kwargs, state):
    spec = args[0] if args else kwargs["spec"]
    return {
        "dim": spec.dimension.value,
        "n_points": spec.n_points,
        "samples": len(state.values),
        "iterations": state.iterations,
        "converged": state.converged,
        "collapsed": state.collapsed,
    }


def _critical_attrs(args, kwargs, gamma_c):
    spec = args[0] if args else kwargs["spec"]
    return {"n_points": spec.n_points, "gamma_c": gamma_c}


def _stationary_attrs(args, kwargs, report):
    return {
        "points": len(report.points),
        "residual_max": max((p.residual for p in report.points), default=0.0),
    }


def _sweep_attrs(args, kwargs, rows):
    return {"rows": len(rows)}


def _targets():
    """(module, attribute, span name, result summariser) for every traced call.

    ``becstab.sweep`` as a package attribute is the sweep *function*, so the
    module is taken from ``sys.modules``.  ``critical_scan`` and ``sweep``
    reach ``minimize`` through the ``gpe`` module global, and ``sweep``
    calls its own imported ``reduce`` and ``stationary_points``.
    """
    gpe = sys.modules["becstab.gpe"]
    variational = sys.modules["becstab.variational"]
    sweep_mod = sys.modules["becstab.sweep"]
    return [
        (gpe, "minimize", "gpe.minimize", _minimize_attrs),
        (gpe, "measured_width", "gpe.measured_width", None),
        (gpe, "critical_scan", "gpe.critical_scan", _critical_attrs),
        (variational, "stationary_points", "variational.stationary_points", _stationary_attrs),
        (sweep_mod, "stationary_points", "variational.stationary_points", _stationary_attrs),
        (sweep_mod, "reduce", "units.reduce", None),
        (sweep_mod, "sweep", "sweep.sweep", _sweep_attrs),
        (sweep_mod, "emit_csv", "sweep.emit_csv", None),
        (sweep_mod, "parse_csv", "sweep.parse_csv", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op: int | None = None

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, summarise):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if summarise is not None:
                span.update(summarise(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op_span(self, op_id: int):
        """Rebind the traced names and open the root span of one op."""
        self.op = op_id
        self.install()
        try:
            with self.span("op") as root:
                yield root
        finally:
            self.uninstall()

    def install(self) -> None:
        for module, attr, name, summarise in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, summarise))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
