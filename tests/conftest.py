"""Shared fixtures."""

import pytest

from curvedual import spectral


@pytest.fixture
def basis_ops_builds(monkeypatch):
    """List that gains the L_max of every dense operator build."""
    builds = []
    init = spectral._BasisOps.__init__

    def counting(self, L_max, theta, phi):
        builds.append(L_max)
        init(self, L_max, theta, phi)

    monkeypatch.setattr(spectral._BasisOps, "__init__", counting)
    return builds
