"""Package surface: every exported name resolves once, and folded wrappers stay gone."""

import sys

import becstab
from becstab import CriticalNumber

FOLDED = ("GaussianAnsatz", "CriticalPoint", "critical_3d", "energy_1d", "energy_3d")


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
