"""Stability of a harmonically trapped Bose-Einstein condensate.

Gaussian variational analysis (stationary widths, stable/unstable branches,
critical atom number for attractive 3D gases) cross-validated by a
grid-based mean-field energy minimizer, plus sweep and CLI front ends.

Importing the package loads only the closed-form modules (no numpy); the
grid minimizer ``becstab.gpe`` and its names load on first use.
"""

from .units import (
    ATOMIC_MASS,
    HBAR,
    Dimension,
    DimensionlessProblem,
    PhysicalSetup,
    derive_scales,
    n_from_gamma,
    parse_config,
    reduce,
    setup_from_mapping,
)
from .variational import (
    GAMMA_CRITICAL_3D,
    S_MIN_3D,
    CriticalNumber,
    EnergyBreakdown,
    PointKind,
    Regime,
    StabilityReport,
    StationaryPoint,
    ansatz_energy,
    denergy,
    gamma_of_width,
    n_max_physical,
    stationary_points,
)
from .sweep import CSV_HEADER, SweepRow, comparison_row, dump_profile, emit_csv, parse_csv, sweep

__version__ = "0.1.0"

# The grid minimizer's names, bound on first use by __getattr__ (gpe is the
# package's only array module, so importing becstab alone never loads numpy).
_GPE_NAMES = (
    "GridSpec", "GridState", "critical_scan", "discrete_energy", "gaussian_state",
    "measured_width", "minimize", "sample_gaussian", "state_from_values",
)


def __getattr__(name: str):
    if name not in _GPE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import gpe
    value = globals()[name] = getattr(gpe, name)
    return value


__all__ = [
    # units
    "ATOMIC_MASS", "HBAR", "Dimension", "DimensionlessProblem", "PhysicalSetup",
    "derive_scales", "n_from_gamma", "parse_config", "reduce", "setup_from_mapping",
    # variational
    "GAMMA_CRITICAL_3D", "S_MIN_3D", "CriticalNumber", "EnergyBreakdown", "PointKind",
    "Regime", "StabilityReport", "StationaryPoint", "ansatz_energy", "denergy",
    "gamma_of_width", "n_max_physical", "stationary_points",
    # gpe
    *_GPE_NAMES,
    # sweep
    "CSV_HEADER", "SweepRow", "comparison_row", "dump_profile", "emit_csv", "parse_csv", "sweep",
]
