"""Curvature functions of two principal curvatures.

The surfaces are two-dimensional, so every function here takes the pair
(kappa_1, kappa_2).  The catalog functions are symmetric, monotone and
degree-one homogeneous, normalized to take the value 2 at the unit
vector (1, 1), so on a geodesic sphere of radius r they all equal
2 cot r.  The normalized elementary-symmetric roots are sigma_1 =
kappa_1 + kappa_2, the mean, and sigma_2 = 2 sqrt(kappa_1 kappa_2), the
Gauss power.  The ``inverse_of`` construction is the un-rescaled dual

    F~(kappa) = 1 / F(1/kappa_1, 1/kappa_2),

which is what makes curvature transfer under polar duality exact:
if F = f on a surface then F~ = 1/f on its polar dual.  Inverse functions
therefore take the value 1/2 at the unit vector; rescaling them to 2
would break the transfer identity, so they are left alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import eig2_ascending

__all__ = [
    "CurvatureFunction",
    "make_curvature_function",
    "class_K_check",
    "ClassKReport",
]


class CurvatureFunction:
    """Symmetric function of the two principal curvatures.

    Subclasses implement ``value``, ``gradient`` and ``hessian`` on arrays
    of shape (..., 2) over the positive cone.  All three are vectorized
    over leading axes.
    """

    name: str

    def value(self, kappa: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, kappa: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, kappa: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self) -> "CurvatureFunction":
        """The dual curvature function kappa -> 1 / F(1/kappa)."""
        return _InverseFunction(self)

    def __call__(self, kappa) -> np.ndarray:
        return self.value(np.asarray(kappa, dtype=float))


@dataclass
class _Mean(CurvatureFunction):
    """Sum of the curvatures, sigma_1."""

    name: str = "mean"

    def value(self, kappa):
        return np.sum(kappa, axis=-1)

    def gradient(self, kappa):
        return np.ones_like(kappa)

    def hessian(self, kappa):
        return np.zeros(kappa.shape + (2,))


@dataclass
class _GaussPower(CurvatureFunction):
    """Root of the product of the curvatures scaled to 2 at unity, sigma_2."""

    name: str = "gauss_power"

    def value(self, kappa):
        return 2.0 * np.exp(np.mean(np.log(kappa), axis=-1))

    def gradient(self, kappa):
        F = self.value(kappa)
        return F[..., None] / (2.0 * kappa)

    def hessian(self, kappa):
        F = self.value(kappa)
        outer = np.einsum("...i,...j->...ij", 1.0 / kappa, 1.0 / kappa)
        H = (F[..., None, None] / 4.0) * outer
        idx = np.arange(2)
        H[..., idx, idx] -= F[..., None] / (2.0 * kappa**2)
        return H


@dataclass
class _NormA(CurvatureFunction):
    """Euclidean norm of the curvature vector, scaled to 2 at unity."""

    name: str = "norm_A"

    def value(self, kappa):
        return np.sqrt(2.0) * np.linalg.norm(kappa, axis=-1)

    def gradient(self, kappa):
        nrm = np.linalg.norm(kappa, axis=-1, keepdims=True)
        return np.sqrt(2.0) * kappa / nrm

    def hessian(self, kappa):
        nrm = np.linalg.norm(kappa, axis=-1)
        outer = np.einsum("...i,...j->...ij", kappa, kappa)
        H = -np.sqrt(2.0) * outer / nrm[..., None, None] ** 3
        idx = np.arange(2)
        H[..., idx, idx] += np.sqrt(2.0) / nrm[..., None]
        return H


class _InverseFunction(CurvatureFunction):
    """Dual function kappa -> 1 / base(1/kappa), degree-one homogeneous."""

    def __init__(self, base: CurvatureFunction):
        self.base = base
        self.name = f"inverse_of({base.name})"

    def inverse(self) -> CurvatureFunction:
        return self.base

    def value(self, kappa):
        return 1.0 / self.base.value(1.0 / np.asarray(kappa, dtype=float))

    def gradient(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        y = 1.0 / kappa
        Fv = self.base.value(y)
        Gv = self.base.gradient(y)
        return Gv * y**2 / Fv[..., None] ** 2

    def hessian(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        y = 1.0 / kappa
        Fv = self.base.value(y)[..., None, None]
        Gv = self.base.gradient(y)
        Hv = self.base.hessian(y)
        y2 = y**2
        outer_g = np.einsum("...i,...j->...ij", Gv * y2, Gv * y2)
        H = 2.0 * outer_g / Fv**3 - Hv * np.einsum("...i,...j->...ij", y2, y2) / Fv**2
        idx = np.arange(2)
        H[..., idx, idx] -= 2.0 * Gv * y**3 / Fv[..., 0] ** 2
        return H


_CATALOG = {
    "mean": _Mean, "sigma_1": _Mean,
    "gauss_power": _GaussPower, "sigma_2": _GaussPower,
    "norm_A": _NormA,
}


def make_curvature_function(name: str) -> CurvatureFunction:
    """Build a curvature function from its catalog name.

    Supported names: ``mean``, ``gauss_power``, ``norm_A``, ``sigma_1``
    and ``sigma_2`` (the mean and the Gauss power under the names of the
    normalized elementary-symmetric roots), and ``inverse_of(<name>)``.
    """
    name = name.strip()
    if name.startswith("inverse_of(") and name.endswith(")"):
        return make_curvature_function(name[len("inverse_of("):-1]).inverse()
    if name not in _CATALOG:
        raise ValueError(f"unknown curvature function {name!r}")
    return _CATALOG[name](name=name)


@dataclass
class ClassKReport:
    """Outcome of the structural checks for inverse-solvable functions."""

    name: str
    n_samples: int
    monotone: bool
    weight_ordering: bool
    boundary_vanish: bool
    concave_if_deg1: bool
    failures: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (self.monotone and self.weight_ordering
                and self.boundary_vanish and self.concave_if_deg1)

    def as_dict(self) -> dict:
        return {
            "name": self.name, "n_samples": self.n_samples,
            "monotone": self.monotone, "weight_ordering": self.weight_ordering,
            "boundary_vanish": self.boundary_vanish,
            "concave_if_deg1": self.concave_if_deg1,
            "passed": self.passed, "failures": self.failures,
        }


def class_K_check(F: CurvatureFunction, n_samples: int = 10_000,
                  seed: int = 0) -> ClassKReport:
    """Sample-based structural check of the inverse-solvability conditions.

    * monotone: all partial derivatives positive on the sampled cone;
    * weight_ordering: weighted curvatures F_i kappa_i are ordered opposite
      to the curvatures themselves (tolerance 1e-12);
    * boundary_vanish: F decays toward zero as one curvature is sent to
      the cone boundary through 1e-3, 1e-6, 1e-9 (a finite-sample trend
      check: strictly decreasing and dropping at least a factor of 100);
    * concave_if_deg1: the eigenvalues of the Hessian stay below 1e-10.

    Samples are log-uniform over [1e-2, 1e2]^2 with a fixed seed.
    """
    rng = np.random.default_rng(seed)
    kappa = 10.0 ** rng.uniform(-2, 2, size=(n_samples, 2))
    failures: dict = {}

    grad = F.gradient(kappa)
    monotone = bool(np.all(grad > 0))
    if not monotone:
        bad = np.argwhere(grad <= 0)[0]
        failures["monotone"] = {"kappa": kappa[bad[0]].tolist()}

    weighted = grad * kappa
    ok = True
    for i, j in ((0, 1), (1, 0)):
        # wherever kappa_j <= kappa_i the weight F_j kappa_j must majorize
        mask = kappa[:, j] <= kappa[:, i]
        viol = weighted[mask, i] > weighted[mask, j] + 1e-12
        if np.any(viol):
            ok = False
            k_bad = kappa[mask][viol][0]
            failures.setdefault("weight_ordering", {"kappa": k_bad.tolist()})
    weight_ordering = ok

    base = np.ones(2)
    eps_ladder = [1e-3, 1e-6, 1e-9]
    vals = []
    for eps in eps_ladder:
        probe = base.copy()
        probe[0] = eps
        vals.append(float(F.value(probe)))
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    vanishing = vals[-1] <= 1e-2 * vals[0]
    boundary_vanish = bool(decreasing and vanishing)
    if not boundary_vanish:
        failures["boundary_vanish"] = {"values": vals}

    hess = F.hessian(kappa)
    sym = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    eigs = eig2_ascending(sym[:, 0, 0], sym[:, 0, 1], sym[:, 1, 0],
                          sym[:, 1, 1])
    concave = bool(np.max(eigs) <= 1e-10)
    if not concave:
        bad = int(np.argmax(eigs.max(axis=-1)))
        failures["concave_if_deg1"] = {
            "kappa": kappa[bad].tolist(), "max_eig": float(np.max(eigs))}

    return ClassKReport(name=F.name, n_samples=n_samples,
                        monotone=monotone, weight_ordering=weight_ordering,
                        boundary_vanish=boundary_vanish,
                        concave_if_deg1=concave, failures=failures)
