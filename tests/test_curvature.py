import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedual.curvature import (
    class_K_check,
    make_curvature_function,
)

finite_kappa = st.lists(
    st.floats(min_value=0.05, max_value=50.0, allow_nan=False),
    min_size=2, max_size=2).map(np.array)


def test_catalog_values():
    mean = make_curvature_function("mean")
    assert mean(np.array([1.0, 2.0])) == pytest.approx(3.0, abs=1e-15)
    gp = make_curvature_function("gauss_power")
    assert gp(np.array([1.0, 4.0])) == pytest.approx(4.0, rel=1e-14)
    na = make_curvature_function("norm_A")
    assert na(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(2) * 5.0, rel=1e-14)
    s2 = make_curvature_function("sigma_2")
    assert s2(np.array([1.0, 4.0])) == pytest.approx(4.0, rel=1e-14)


def test_normalization_at_unit_vector():
    for name in ("mean", "gauss_power", "norm_A", "sigma_1", "sigma_2"):
        F = make_curvature_function(name)
        assert F(np.ones(2)) == pytest.approx(2.0, rel=1e-14), name


def test_inverse_of_mean_raw_value():
    # dual of the sum: 1 / sum(1/kappa); no rescaling, so the value at
    # (1, 2) is 1 / (1 + 1/2) = 2/3 and at (1, 1) it is 1/2
    Fi = make_curvature_function("inverse_of(mean)")
    assert Fi(np.array([1.0, 2.0])) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert Fi(np.array([1.0, 1.0])) == pytest.approx(0.5, rel=1e-14)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_curvature_function("scalar_curvature")
    # only two principal curvatures: sigma_1 and sigma_2 are the orders
    for name in ("sigma_0", "sigma_3", "sigma_5"):
        with pytest.raises(ValueError, match="unknown curvature function"):
            make_curvature_function(name)


@settings(max_examples=60, deadline=None)
@given(finite_kappa, st.sampled_from([0.5, 2.0, 10.0]))
def test_homogeneity_degree_one(kappa, lam):
    for name in ("mean", "gauss_power", "norm_A", "sigma_2",
                 "inverse_of(mean)", "inverse_of(gauss_power)"):
        F = make_curvature_function(name)
        v1 = float(F(lam * kappa))
        v0 = float(F(kappa))
        assert abs(v1 - lam * v0) <= 1e-12 * max(1.0, abs(lam * v0)), name


@settings(max_examples=60, deadline=None)
@given(finite_kappa)
def test_symmetry_under_permutation(kappa):
    for name in ("mean", "gauss_power", "norm_A", "inverse_of(norm_A)"):
        F = make_curvature_function(name)
        assert float(F(kappa)) == pytest.approx(float(F(kappa[::-1].copy())),
                                                rel=1e-13), name


@settings(max_examples=40, deadline=None)
@given(finite_kappa)
def test_euler_relation(kappa):
    # degree-one homogeneity: sum_i F_i kappa_i = F
    for name in ("mean", "gauss_power", "norm_A", "sigma_2",
                 "inverse_of(mean)"):
        F = make_curvature_function(name)
        lhs = float(np.sum(F.gradient(kappa) * kappa))
        assert lhs == pytest.approx(float(F(kappa)), rel=1e-12), name


def test_gradient_positive_on_cone():
    rng = np.random.default_rng(1)
    kappa = 10.0 ** rng.uniform(-2, 2, size=(500, 2))
    for name in ("mean", "gauss_power", "norm_A", "inverse_of(mean)"):
        F = make_curvature_function(name)
        assert np.all(F.gradient(kappa) > 0), name


def _fd_gradient(F, kappa, h=1e-6):
    g = np.zeros_like(kappa)
    for i in range(len(kappa)):
        e = np.zeros_like(kappa)
        e[i] = h
        g[i] = (F(kappa + e) - F(kappa - e)) / (2 * h)
    return g


def _fd_hessian(F, kappa, h=1e-5):
    n = len(kappa)
    H = np.zeros((n, n))
    for j in range(n):
        e = np.zeros_like(kappa)
        e[j] = h
        H[:, j] = (F.gradient(kappa + e) - F.gradient(kappa - e)) / (2 * h)
    return H


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for name in ("mean", "gauss_power", "norm_A", "sigma_2",
                 "inverse_of(mean)", "inverse_of(gauss_power)",
                 "inverse_of(norm_A)"):
        F = make_curvature_function(name)
        for _ in range(5):
            kappa = 10.0 ** rng.uniform(-1, 1, size=2)
            g = F.gradient(kappa)
            fd = _fd_gradient(F, kappa)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(g - fd)) <= 1e-6 * scale, name


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(8)
    for name in ("gauss_power", "norm_A", "sigma_2", "inverse_of(mean)",
                 "inverse_of(gauss_power)"):
        F = make_curvature_function(name)
        for _ in range(5):
            kappa = 10.0 ** rng.uniform(-1, 1, size=2)
            H = F.hessian(kappa)
            fd = _fd_hessian(F, kappa)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(H - fd)) <= 1e-5 * scale, name


def test_inverse_involution():
    rng = np.random.default_rng(2)
    kappa = 10.0 ** rng.uniform(-2, 2, size=(100, 2))
    for name in ("mean", "gauss_power", "norm_A"):
        F = make_curvature_function(name)
        FF = F.inverse().inverse()
        assert np.max(np.abs(FF(kappa) - F(kappa))) <= 1e-12 * np.max(F(kappa))
        assert FF is F  # the wrapper unwraps instead of stacking


@pytest.mark.parametrize("sigma, alias", [("sigma_1", "mean"),
                                          ("sigma_2", "gauss_power")])
def test_sigma_roots_are_the_mean_and_the_gauss_power(sigma, alias):
    # with two curvatures sigma_1 = kappa_1 + kappa_2 and
    # sigma_2 = 2 sqrt(kappa_1 kappa_2)
    rng = np.random.default_rng(6)
    kappa = 10.0 ** rng.uniform(-2, 2, size=(1000, 2))
    F, G = make_curvature_function(sigma), make_curvature_function(alias)
    assert F.name == sigma and G.name == alias
    assert F.inverse().name == f"inverse_of({sigma})"
    assert np.array_equal(F(kappa), G(kappa))
    assert np.array_equal(F.gradient(kappa), G.gradient(kappa))
    assert np.array_equal(F.hessian(kappa), G.hessian(kappa))


def test_catalog_takes_no_dimension():
    # a dimension other than 2 used to build a function of three
    # curvatures that the two-dimensional solver then silently misused
    with pytest.raises(TypeError):
        make_curvature_function("gauss_power", n=3)


# ---------------------------------------------------- weighted curvatures

def test_apply_gauss_power_weighted_curvatures():
    # for the product root the weighted curvatures F_i kappa_i are equal
    F = make_curvature_function("gauss_power")
    kappa = np.array([1.0, 4.0])
    w = F.gradient(kappa) * kappa
    assert w[0] == pytest.approx(w[1], rel=1e-13)
    assert w[0] == pytest.approx(float(F(kappa)) / 2, rel=1e-13)


# ----------------------------------------------------- structural checks

def test_class_K_gauss_power_passes():
    rep = class_K_check(make_curvature_function("gauss_power"))
    assert rep.monotone and rep.weight_ordering
    assert rep.boundary_vanish and rep.concave_if_deg1
    assert rep.passed


def test_class_K_inverse_mean_passes():
    rep = class_K_check(make_curvature_function("inverse_of(mean)"))
    assert rep.passed


def test_class_K_mean_fails_weight_ordering():
    rep = class_K_check(make_curvature_function("mean"))
    assert not rep.weight_ordering
    # the canonical counterexample: at (1, 2) the weights are (1, 2) and
    # the larger curvature carries the larger weight
    F = make_curvature_function("mean")
    kappa = np.array([1.0, 2.0])
    w = F.gradient(kappa) * kappa
    assert w[1] > w[0]


def test_class_K_mean_fails_boundary():
    rep = class_K_check(make_curvature_function("mean"))
    assert not rep.boundary_vanish


def test_class_K_norm_A_not_concave():
    rep = class_K_check(make_curvature_function("norm_A"))
    assert not rep.concave_if_deg1


# (monotone, weight_ordering, boundary_vanish, concave_if_deg1)
CLASS_K_VERDICTS = {
    "mean": (True, False, False, True),
    "gauss_power": (True, True, True, True),
    "norm_A": (True, False, False, False),
    "inverse_of(mean)": (True, True, True, True),
    "inverse_of(gauss_power)": (True, True, True, True),
    "inverse_of(norm_A)": (True, True, True, True),
}


@pytest.mark.parametrize("n_samples", [2000, 10_000])
@pytest.mark.parametrize("name", sorted(CLASS_K_VERDICTS))
def test_class_K_verdicts_per_catalog_name(name, n_samples):
    # the Hessian eigenvalues come from the closed-form 2 x 2 helper;
    # gauss_power sits on the concavity boundary, with a zero eigenvalue
    rep = class_K_check(make_curvature_function(name), n_samples=n_samples,
                        seed=0)
    assert (rep.monotone, rep.weight_ordering, rep.boundary_vanish,
            rep.concave_if_deg1) == CLASS_K_VERDICTS[name]


def test_weighted_curvature_bound_for_admissible_functions():
    # F = sum_i F_i kappa_i <= n F_1 kappa_1 with kappa_1 the smallest,
    # valid exactly when the weight ordering holds
    rng = np.random.default_rng(12)
    kappa = np.sort(10.0 ** rng.uniform(-2, 2, size=(2000, 2)), axis=1)
    for name in ("gauss_power", "inverse_of(mean)"):
        F = make_curvature_function(name)
        vals = F(kappa)
        w1 = F.gradient(kappa)[:, 0] * kappa[:, 0]
        assert np.all(vals <= 2 * w1 + 1e-10 * np.maximum(vals, 1.0)), name
    # the sum itself violates the bound: at (1, 2) it gives 3 > 2
    F = make_curvature_function("mean")
    kappa_bad = np.array([1.0, 2.0])
    assert float(F(kappa_bad)) > 2 * F.gradient(kappa_bad)[0] * kappa_bad[0]
