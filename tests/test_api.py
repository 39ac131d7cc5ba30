"""Package surface: every exported name resolves once, and folded wrappers stay gone."""

import sys

import becstab
import becstab.gpe  # noqa: F401  (loaded on first use; the sys.modules lookups need it)
from becstab import CriticalNumber

FOLDED = ("GaussianAnsatz", "CriticalPoint", "critical_3d", "energy_1d", "energy_3d",
          "n_of_sigma", "total_energy_si")


def test_every_exported_name_resolves_once():
    assert len(becstab.__all__) == len(set(becstab.__all__))
    for name in becstab.__all__:
        assert hasattr(becstab, name), name


def test_folded_wrappers_are_gone():
    variational = sys.modules["becstab.variational"]
    for name in FOLDED:
        assert name not in becstab.__all__
        assert not hasattr(becstab, name)
        assert not hasattr(variational, name)
    assert not hasattr(CriticalNumber, "n_max")


def test_oscillator_scales_is_not_exported():
    # derive_scales still returns it; the class lives in units only
    assert "OscillatorScales" not in becstab.__all__
    assert not hasattr(becstab, "OscillatorScales")


def test_dump_profile_lives_with_the_other_csv_writer():
    assert becstab.dump_profile is sys.modules["becstab.sweep"].dump_profile
    assert not hasattr(sys.modules["becstab.gpe"], "dump_profile")
