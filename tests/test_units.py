"""Unit-system reduction: scales, couplings, round trips, config parsing."""

import math

import numpy as np
import pytest

from becstab import (
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

LI7_MASS = 7.016 * ATOMIC_MASS
LI7_A = -14.5e-10           # m
OMEGA_120 = 2.0 * math.pi * 120.0


def li7_setup(n_atoms=0.0, freq_hz=120.0):
    return PhysicalSetup(
        mass=LI7_MASS,
        omega=2.0 * math.pi * freq_hz,
        dimension=Dimension.D3,
        n_atoms=n_atoms,
        scattering_length=LI7_A,
    )


# --- PhysicalSetup validation ---------------------------------------------------

def test_rejects_nonpositive_mass_and_omega():
    with pytest.raises(ValueError):
        PhysicalSetup(mass=0.0, omega=1.0, dimension=Dimension.D1, coupling_1d=1e-40)
    with pytest.raises(ValueError):
        PhysicalSetup(mass=1e-26, omega=-1.0, dimension=Dimension.D1, coupling_1d=1e-40)
    with pytest.raises(ValueError):
        PhysicalSetup(mass=1e-26, omega=1.0, dimension=Dimension.D1,
                      coupling_1d=1e-40, n_atoms=-5.0)


def test_interaction_field_must_match_dimension():
    with pytest.raises(ValueError):
        PhysicalSetup(mass=1e-26, omega=1.0, dimension=Dimension.D3)
    with pytest.raises(ValueError):
        PhysicalSetup(mass=1e-26, omega=1.0, dimension=Dimension.D1)
    with pytest.raises(ValueError):
        PhysicalSetup(mass=1e-26, omega=1.0, dimension=Dimension.D3,
                      scattering_length=1e-9, coupling_1d=1e-40)
    with pytest.raises(ValueError):
        PhysicalSetup(mass=1e-26, omega=1.0, dimension=Dimension.D1,
                      coupling_1d=1e-40, scattering_length=1e-9)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_dimensionless_problem_rejects_non_finite_coupling(gamma):
    for dim in (Dimension.D1, Dimension.D3):
        with pytest.raises(ValueError, match="finite"):
            DimensionlessProblem(dim, gamma)


def test_reduce_rejects_infinite_atom_number():
    setup = li7_setup(n_atoms=math.inf)    # N >= 0 holds, so the setup itself is accepted
    with pytest.raises(ValueError, match="finite"):
        reduce(setup)


def test_coupling_3d_definition():
    setup = li7_setup()
    expected = 2.0 * math.pi * HBAR**2 * LI7_A / LI7_MASS
    assert setup.coupling == expected


# --- derive_scales ----------------------------------------------------------------

def test_oscillator_length_li7():
    scales = derive_scales(li7_setup())
    # hand-checkable: sqrt(hbar / (7.016 u * 2 pi 120 Hz)) ~ 3.465 um
    assert scales.length_aho == pytest.approx(3.465e-6, rel=5e-4)
    assert scales.length_aho == pytest.approx(3.4648798891356886e-06, rel=1e-12)
    assert scales.energy_hw == pytest.approx(HBAR * OMEGA_120, rel=1e-15)


def test_oscillator_length_identity_case():
    # mass*omega = hbar makes the oscillator length exactly one meter
    setup = PhysicalSetup(mass=HBAR, omega=1.0, dimension=Dimension.D1, coupling_1d=1e-40)
    assert derive_scales(setup).length_aho == 1.0


def test_oscillator_length_scaling_in_omega():
    base = li7_setup(freq_hz=120.0)
    doubled = li7_setup(freq_hz=240.0)
    ratio = derive_scales(doubled).length_aho / derive_scales(base).length_aho
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_oscillator_length_decreasing_in_omega_and_mass():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mass = rng.uniform(1e-27, 1e-25)
        omega = rng.uniform(10.0, 1e4)
        factor = rng.uniform(1.001, 10.0)
        base = PhysicalSetup(mass=mass, omega=omega, dimension=Dimension.D1,
                             coupling_1d=1e-40)
        heavier = PhysicalSetup(mass=mass * factor, omega=omega,
                                dimension=Dimension.D1, coupling_1d=1e-40)
        stiffer = PhysicalSetup(mass=mass, omega=omega * factor,
                                dimension=Dimension.D1, coupling_1d=1e-40)
        aho = derive_scales(base).length_aho
        assert derive_scales(heavier).length_aho < aho
        assert derive_scales(stiffer).length_aho < aho


# --- reduce -----------------------------------------------------------------------

def test_reduce_zero_atoms_gives_zero_gamma():
    assert reduce(li7_setup(n_atoms=0.0)).gamma_total == 0.0


def test_reduce_definition_3d():
    aho = derive_scales(li7_setup()).length_aho
    setup = PhysicalSetup(
        mass=LI7_MASS, omega=OMEGA_120, dimension=Dimension.D3,
        n_atoms=2389.6, scattering_length=-aho / 2389.6,
    )
    assert reduce(setup).gamma_total == pytest.approx(-1.0, rel=1e-12)


def test_reduce_li7_thousand_atoms():
    problem = reduce(li7_setup(n_atoms=1000.0))
    assert problem.dimension is Dimension.D3
    assert problem.gamma_total == pytest.approx(-0.4185, abs=5e-5)
    assert problem.gamma_total == pytest.approx(-0.41848492484445143, rel=1e-12)


def test_reduce_definition_1d():
    setup = PhysicalSetup(mass=LI7_MASS, omega=OMEGA_120, dimension=Dimension.D1,
                          n_atoms=100.0, coupling_1d=-2e-41)
    scales = derive_scales(setup)
    expected = 100.0 * -2e-41 / (scales.length_aho * scales.energy_hw)
    assert reduce(setup).gamma_total == expected


# --- n_from_gamma ------------------------------------------------------------------

def test_n_from_gamma_round_trip_value():
    setup = li7_setup(n_atoms=500.0)
    gamma = reduce(setup).gamma_total
    assert n_from_gamma(gamma, setup) == pytest.approx(500.0, rel=1e-12)


def test_n_from_gamma_li7_critical_scale():
    n = n_from_gamma(-0.67051, li7_setup())
    assert round(n) == 1602
    assert n == pytest.approx(1602.2321479064626, rel=1e-12)


def test_n_from_gamma_degenerate_and_mismatched():
    setup = li7_setup()
    with pytest.raises(ValueError):
        n_from_gamma(0.0, setup)
    with pytest.raises(ValueError):
        n_from_gamma(+0.5, setup)     # attractive setup, repulsive gamma
    setup_1d = PhysicalSetup(mass=LI7_MASS, omega=OMEGA_120, dimension=Dimension.D1,
                             coupling_1d=0.0)
    with pytest.raises(ValueError):
        n_from_gamma(-0.5, setup_1d)  # zero interaction


def test_round_trip_property_random_setups():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dimension = Dimension.D3 if rng.random() < 0.5 else Dimension.D1
        n_atoms = rng.uniform(1e-3, 1e7)
        sign = -1.0 if rng.random() < 0.5 else 1.0
        kwargs = dict(
            mass=rng.uniform(1e-27, 3e-25),
            omega=rng.uniform(1.0, 1e5),
            dimension=dimension,
            n_atoms=n_atoms,
        )
        if dimension is Dimension.D3:
            kwargs["scattering_length"] = sign * 10 ** rng.uniform(-11, -8)
        else:
            kwargs["coupling_1d"] = sign * 10 ** rng.uniform(-45, -38)
        setup = PhysicalSetup(**kwargs)
        gamma = reduce(setup).gamma_total
        assert n_from_gamma(gamma, setup) == pytest.approx(n_atoms, rel=1e-12)


def test_scale_covariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = rng.uniform(0.01, 100.0)
        n = rng.uniform(1.0, 1e6)
        a = -10 ** rng.uniform(-11, -8)
        base = PhysicalSetup(mass=LI7_MASS, omega=OMEGA_120, dimension=Dimension.D3,
                             n_atoms=n, scattering_length=a)
        scaled = PhysicalSetup(mass=LI7_MASS, omega=OMEGA_120, dimension=Dimension.D3,
                               n_atoms=n * k, scattering_length=a / k)
        g0 = reduce(base).gamma_total
        g1 = reduce(scaled).gamma_total
        assert g1 == pytest.approx(g0, rel=1e-14)


# --- config surface -----------------------------------------------------------------

CONFIG_TEXT = """\
# lithium-7 in a 120 Hz spherical trap
mass_amu = 7.016
freq_hz = 120
scattering_a_m = -1.45e-9
dim = 3
n_atoms = 1000
"""


def test_parse_config_and_build():
    entries = parse_config(CONFIG_TEXT)
    assert entries["mass_amu"] == "7.016"
    setup = setup_from_mapping(entries)
    assert setup.dimension is Dimension.D3
    assert setup.mass == pytest.approx(LI7_MASS, rel=1e-15)
    assert setup.omega == pytest.approx(OMEGA_120, rel=1e-15)
    assert setup.scattering_length == -1.45e-9
    assert setup.n_atoms == 1000.0


def test_parse_config_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ValueError):
        parse_config("masss_amu = 7\n")
    with pytest.raises(ValueError):
        parse_config("just a line without equals\n")


def test_setup_from_mapping_requires_matching_interaction():
    with pytest.raises(ValueError):
        setup_from_mapping({"mass_amu": 7.0, "freq_hz": 100, "dim": "3",
                            "coupling_1d_jm": -1e-40})
    with pytest.raises(ValueError):
        setup_from_mapping({"mass_amu": 7.0, "freq_hz": 100, "dim": "1",
                            "scattering_a_m": -1e-9})
    with pytest.raises(ValueError):
        setup_from_mapping({"mass_amu": 7.0, "freq_hz": 100, "dim": "2",
                            "scattering_a_m": -1e-9})
    with pytest.raises(ValueError):
        setup_from_mapping({"freq_hz": 100, "dim": "3", "scattering_a_m": -1e-9})


def test_with_n_helper():
    setup = li7_setup(n_atoms=10.0)
    assert setup.with_n(77.0).n_atoms == 77.0
    assert setup.with_n(77.0).scattering_length == setup.scattering_length
