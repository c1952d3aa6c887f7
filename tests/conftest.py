"""Shared fixtures."""

import pytest

from curvedual import spectral


@pytest.fixture
def grid_table_builds(monkeypatch):
    """List that gains the L_max of every grid factor-table build."""
    builds = []
    ops = spectral.QuadratureGrid.ops

    def counting(grid):
        if grid._ops is None:
            builds.append(grid.L_max)
        return ops.fget(grid)

    monkeypatch.setattr(spectral.QuadratureGrid, "ops", property(counting))
    return builds
