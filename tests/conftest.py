"""Shared fixtures."""

import pytest

from curvedual import geometry, polar, spectral


@pytest.fixture(autouse=True)
def _cold_grid_memo():
    """Start each test without memoized grids, pole frames or support
    pairs, as in a fresh process."""
    spectral._product_grid.cache_clear()
    geometry._pole_frame.cache_clear()
    polar._support_pairs.cache_clear()


def _record_table_builds(monkeypatch, key):
    builds = []
    ops = spectral.QuadratureGrid.ops

    def counting(grid):
        if grid._ops is None:
            builds.append(key(grid))
        return ops.fget(grid)

    monkeypatch.setattr(spectral.QuadratureGrid, "ops", property(counting))
    return builds


@pytest.fixture
def grid_table_builds(monkeypatch):
    """List that gains the L_max of every grid factor-table build."""
    return _record_table_builds(monkeypatch, lambda grid: grid.L_max)


@pytest.fixture
def grid_shape_builds(monkeypatch):
    """List that gains (L_max, n_theta, n_phi) of every factor-table build."""
    return _record_table_builds(
        monkeypatch, lambda grid: (grid.L_max, grid.n_theta, grid.n_phi))
