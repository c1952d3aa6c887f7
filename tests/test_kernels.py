import numpy as np

from curvedual import _kernels
from curvedual.spectral import HarmonicCoeffs, build_grid, chart_jets


def _fields(L_max=12, nb=3, seed=2):
    grid = build_grid(L_max)
    rng = np.random.default_rng(seed)
    R = np.empty((grid.n_nodes, nb))
    RT = np.empty_like(R)
    RP = np.empty_like(R)
    RTT = np.empty_like(R)
    RTP = np.empty_like(R)
    RPP = np.empty_like(R)
    for j in range(nb):
        c = HarmonicCoeffs.zeros(L_max)
        c[0, 0] = (np.pi / 4) * np.sqrt(4 * np.pi)
        for l in range(1, 5):
            for m in range(-l, l + 1):
                c[l, m] = 0.01 * rng.standard_normal()
        (R[:, j], RT[:, j], RP[:, j],
         RTT[:, j], RTP[:, j], RPP[:, j]) = chart_jets(grid, c)
    return grid, (R, RT, RP, RTT, RTP, RPP)


def test_backend_name_reported():
    assert _kernels.backend_name() == "numpy"


def test_numpy_path_matches_full_pipeline():
    grid, fields = _fields()
    k1, k2 = _kernels.kappa_batch(grid.theta, grid.phi, *fields)
    out = _kernels.fundamental_forms(grid.theta[:, None], grid.phi[:, None], *fields)
    assert np.max(np.abs(k1 - out["kappa"][..., 0])) == 0.0
    assert np.max(np.abs(k2 - out["kappa"][..., 1])) == 0.0


def test_selected_backend_sphere_curvature():
    grid, _ = _fields(nb=1)
    r0 = np.pi / 3
    N = grid.n_nodes
    const = np.full((N, 1), r0)
    zero = np.zeros((N, 1))
    k1, k2 = _kernels.kappa_batch(grid.theta, grid.phi, const, zero, zero,
                                  zero, zero, zero)
    assert np.max(np.abs(k1 - 1 / np.tan(r0))) <= 1e-12
    assert np.max(np.abs(k2 - 1 / np.tan(r0))) <= 1e-12


def test_newton_iteration_makes_one_kernel_call_of_width_12(monkeypatch):
    from curvedual.curvature import make_curvature_function
    from curvedual.solver import (NewtonWorkspace, PrescribedData,
                                  initial_sphere, invariant_projector,
                                  newton_solve)

    widths = []
    kappa_batch = _kernels.kappa_batch

    def recording(theta, phi, R, *rest):
        widths.append(R.shape[1])
        return kappa_batch(theta, phi, R, *rest)

    monkeypatch.setattr(_kernels, "kappa_batch", recording)
    F = make_curvature_function("gauss_power")
    data = PrescribedData(a_poly=[np.log(2.0)], b=HarmonicCoeffs.zeros(2),
                          c=2.0)
    start = initial_sphere(F, 2.0, L_max=8)
    start.radial[2, 0] += 0.02
    basis = invariant_projector(True, 8)
    ws = NewtonWorkspace(build_grid(8), basis, data, F)
    _, iters, _ = newton_solve(ws, 0.0, start.radial.values[basis.index])
    # the start state, one assembly of the Newton matrix, then one state
    # per iteration: its inverse is reused with Broyden updates
    assert iters == 7 and ws.refreshes == 1
    assert widths == [1, 12] + [1] * iters
