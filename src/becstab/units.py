"""Dimensional trap parameters and reduction to harmonic-oscillator units.

Everything downstream of this module is dimensionless: lengths are measured
in oscillator lengths a_ho = sqrt(hbar/(m*omega)) and energies in quanta
hbar*omega.  In those units a trapped zero-range-interacting gas is fully
characterised by its spatial dimension and one signed coupling

    Gamma = N * a / a_ho                (3D, a = s-wave scattering length)
    Gamma = N * B / (a_ho * hbar*omega) (1D, B = contact coupling in J*m)

so two setups with equal (dimension, Gamma) give identical dimensionless
results.  Dimensional quantities exist only at this API boundary.

Constants are pinned (not read from scipy) so that derived critical atom
numbers are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

HBAR = 1.054571817e-34        # reduced Planck constant [J*s]
ATOMIC_MASS = 1.66053906660e-27  # unified atomic mass unit [kg]


class Dimension(Enum):
    """Spatial dimension of the trapped gas."""

    D1 = 1
    D3 = 3


@dataclass(frozen=True)
class PhysicalSetup:
    """Dimensional trap and atom parameters.

    The interaction strength is carried by exactly one field, selected by
    ``dimension``: the s-wave scattering length ``scattering_length`` [m]
    in 3D, or the direct contact coupling ``coupling_1d`` [J*m] in 1D.
    Its sign carries the interaction sign (negative = attractive).
    """

    mass: float                 # atom mass [kg]
    omega: float                # trap angular frequency [rad/s]
    dimension: Dimension
    n_atoms: float = 0.0        # continuous atom number, N >= 0
    scattering_length: float | None = None   # a [m], 3D only
    coupling_1d: float | None = None         # B [J*m], 1D only

    def __post_init__(self) -> None:
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not self.n_atoms >= 0.0:
            raise ValueError(f"n_atoms must be non-negative, got {self.n_atoms}")
        if self.dimension is Dimension.D3:
            if self.scattering_length is None:
                raise ValueError("3D setup requires scattering_length")
            if self.coupling_1d is not None:
                raise ValueError("coupling_1d is meaningless in 3D; use scattering_length")
        else:
            if self.coupling_1d is None:
                raise ValueError("1D setup requires coupling_1d")
            if self.scattering_length is not None:
                raise ValueError("scattering_length is meaningless in 1D; use coupling_1d")

    @property
    def coupling(self) -> float:
        """Contact coupling B: supplied directly in 1D, 2*pi*hbar^2*a/m in 3D."""
        if self.dimension is Dimension.D3:
            assert self.scattering_length is not None
            return 2.0 * math.pi * HBAR**2 * self.scattering_length / self.mass
        assert self.coupling_1d is not None
        return self.coupling_1d

    def with_n(self, n_atoms: float) -> "PhysicalSetup":
        """Copy of this setup with a different atom number (sweep helper)."""
        return replace(self, n_atoms=n_atoms)


@dataclass(frozen=True)
class OscillatorScales:
    """Natural length and energy scales of the harmonic trap."""

    length_aho: float   # a_ho = sqrt(hbar/(m*omega)) [m]
    energy_hw: float    # hbar*omega [J]


@dataclass(frozen=True)
class DimensionlessProblem:
    """Oscillator-unit reduction of a setup: dimension plus finite total coupling."""

    dimension: Dimension
    gamma_total: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma_total):
            raise ValueError(f"gamma_total must be finite, got {self.gamma_total}")


def derive_scales(setup: PhysicalSetup) -> OscillatorScales:
    """Oscillator length and trap quantum for a setup.

    a_ho is also the width of the noninteracting (N=0) ground-state cloud.
    """
    return OscillatorScales(
        length_aho=math.sqrt(HBAR / (setup.mass * setup.omega)),
        energy_hw=HBAR * setup.omega,
    )


def reduce(setup: PhysicalSetup) -> DimensionlessProblem:
    """Fold a dimensional setup into its single dimensionless coupling.

    The ``+ 0.0`` normalises the N=0 attractive case to plain zero instead
    of IEEE negative zero.
    """
    scales = derive_scales(setup)
    if setup.dimension is Dimension.D3:
        assert setup.scattering_length is not None
        gamma = setup.n_atoms * setup.scattering_length / scales.length_aho
    else:
        assert setup.coupling_1d is not None
        gamma = setup.n_atoms * setup.coupling_1d / (scales.length_aho * scales.energy_hw)
    return DimensionlessProblem(dimension=setup.dimension, gamma_total=gamma + 0.0)


def n_from_gamma(gamma: float, setup: PhysicalSetup) -> float:
    """Atom number that would produce coupling ``gamma`` in ``setup``'s trap.

    Inverse of :func:`reduce` (the ``n_atoms`` of ``setup`` is ignored).
    The interaction parameter must be nonzero and of the same sign as
    ``gamma``, otherwise no non-negative N exists; ``gamma`` = 0 is rejected
    as degenerate.
    """
    if setup.dimension is Dimension.D3:
        strength = setup.scattering_length
    else:
        strength = setup.coupling_1d
    assert strength is not None
    if strength == 0.0:
        raise ValueError("zero interaction: atom number is undefined for any gamma")
    if gamma == 0.0:
        raise ValueError("gamma = 0 is degenerate: any trap gives gamma = 0 at N = 0")
    if (gamma > 0.0) != (strength > 0.0):
        raise ValueError(
            f"sign mismatch: gamma={gamma} needs an interaction of the same sign, "
            f"got {strength}"
        )
    scales = derive_scales(setup)
    if setup.dimension is Dimension.D3:
        return gamma * scales.length_aho / strength
    return gamma * scales.length_aho * scales.energy_hw / strength


# --- key=value config surface ------------------------------------------------

CONFIG_KEYS = frozenset(
    {"mass_amu", "freq_hz", "scattering_a_m", "coupling_1d_jm", "dim", "n_atoms"}
)


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines into a dict.

    Blank lines and ``#`` comments are ignored; unknown keys are an error.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(
                f"config line {lineno}: unknown key {key!r} "
                f"(known: {', '.join(sorted(CONFIG_KEYS))})"
            )
        entries[key] = value
    return entries


def setup_from_mapping(entries: Mapping[str, object]) -> PhysicalSetup:
    """Build a :class:`PhysicalSetup` from config/CLI entries.

    Required keys: ``mass_amu``, ``freq_hz``, ``dim`` and the interaction
    key matching ``dim`` (``scattering_a_m`` for 3, ``coupling_1d_jm`` for 1).
    ``n_atoms`` defaults to 0.  Values may be strings or numbers.
    """

    def need(key: str) -> float:
        if key not in entries:
            raise ValueError(f"missing required setup key {key!r}")
        return float(entries[key])  # type: ignore[arg-type]

    dim_raw = str(entries.get("dim", "")).strip()
    if dim_raw not in {"1", "3"}:
        raise ValueError(f"dim must be 1 or 3, got {dim_raw!r}")
    dimension = Dimension.D1 if dim_raw == "1" else Dimension.D3

    kwargs: dict[str, object] = {
        "mass": need("mass_amu") * ATOMIC_MASS,
        "omega": 2.0 * math.pi * need("freq_hz"),
        "dimension": dimension,
        "n_atoms": float(entries.get("n_atoms", 0.0)),  # type: ignore[arg-type]
    }
    if dimension is Dimension.D3:
        if "coupling_1d_jm" in entries:
            raise ValueError("coupling_1d_jm given for a 3D setup; use scattering_a_m")
        kwargs["scattering_length"] = need("scattering_a_m")
    else:
        if "scattering_a_m" in entries:
            raise ValueError("scattering_a_m given for a 1D setup; use coupling_1d_jm")
        kwargs["coupling_1d"] = need("coupling_1d_jm")
    return PhysicalSetup(**kwargs)  # type: ignore[arg-type]
