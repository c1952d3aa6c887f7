"""Curvature functions: symmetric, monotone, degree-one homogeneous maps.

The catalog functions are normalized to take the value n at the unit
vector (1, ..., 1), so on a geodesic sphere of radius r they all equal
n cot r.  The ``inverse_of`` construction is the un-rescaled dual

    F~(kappa) = 1 / F(1/kappa_1, ..., 1/kappa_n),

which is what makes curvature transfer under polar duality exact:
if F = f on a surface then F~ = 1/f on its polar dual.  Inverse functions
therefore take the value 1/n at the unit vector; rescaling them to n
would break the transfer identity, so they are left alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = [
    "CurvatureFunction",
    "make_curvature_function",
    "class_K_check",
    "ClassKReport",
]


class CurvatureFunction:
    """Symmetric function of the principal curvatures.

    Subclasses implement ``value``, ``gradient`` and ``hessian`` on arrays
    of shape (..., n) over the positive cone.  All three are vectorized
    over leading axes.
    """

    name: str
    n: int

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
    n: int
    name: str = "mean"

    def value(self, kappa):
        return np.sum(kappa, axis=-1)

    def gradient(self, kappa):
        return np.ones_like(kappa)

    def hessian(self, kappa):
        return np.zeros(kappa.shape + (self.n,))


def _elementary_symmetric(kappa: np.ndarray, k_max: int) -> np.ndarray:
    """e_0..e_k_max of the last axis; output shape (..., k_max + 1)."""
    n = kappa.shape[-1]
    es = np.zeros(kappa.shape[:-1] + (k_max + 1,))
    es[..., 0] = 1.0
    for i in range(n):
        top = min(k_max, i + 1)
        for j in range(top, 0, -1):
            es[..., j] += es[..., j - 1] * kappa[..., i]
    return es


def _exclude(kappa: np.ndarray, drop: tuple[int, ...]) -> np.ndarray:
    keep = [i for i in range(kappa.shape[-1]) if i not in drop]
    return kappa[..., keep]


@dataclass
class _SigmaK(CurvatureFunction):
    """Normalized k-th root of the k-th elementary symmetric polynomial."""

    n: int
    k: int
    name: str = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"sigma order k={self.k} outside 1..{self.n}")
        self.name = f"sigma_{self.k}"
        self._scale = comb(self.n, self.k)

    def value(self, kappa):
        E = _elementary_symmetric(kappa, self.k)[..., self.k]
        return self.n * (E / self._scale) ** (1.0 / self.k)

    def gradient(self, kappa):
        F = self.value(kappa)
        E = _elementary_symmetric(kappa, self.k)[..., self.k]
        grad = np.empty_like(kappa)
        for i in range(self.n):
            Ei = _elementary_symmetric(_exclude(kappa, (i,)), self.k - 1)[..., self.k - 1]
            grad[..., i] = F * Ei / (self.k * E)
        return grad

    def hessian(self, kappa):
        F = self.value(kappa)
        E = _elementary_symmetric(kappa, self.k)[..., self.k]
        Ei = np.empty_like(kappa)
        for i in range(self.n):
            Ei[..., i] = _elementary_symmetric(
                _exclude(kappa, (i,)), self.k - 1)[..., self.k - 1]
        H = np.empty(kappa.shape + (self.n,))
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    Eij = np.zeros_like(E)
                elif self.k >= 2:
                    Eij = _elementary_symmetric(
                        _exclude(kappa, (i, j)), self.k - 2)[..., self.k - 2]
                else:
                    Eij = np.zeros_like(E)
                H[..., i, j] = (F / (self.k * E)) * (
                    Eij + (1.0 / self.k - 1.0) * Ei[..., i] * Ei[..., j] / E)
        return H


@dataclass
class _GaussPower(CurvatureFunction):
    """n-th root of the product of the curvatures, scaled to n at unity."""

    n: int
    name: str = "gauss_power"

    def value(self, kappa):
        return self.n * np.exp(np.mean(np.log(kappa), axis=-1))

    def gradient(self, kappa):
        F = self.value(kappa)
        return F[..., None] / (self.n * kappa)

    def hessian(self, kappa):
        F = self.value(kappa)
        outer = np.einsum("...i,...j->...ij", 1.0 / kappa, 1.0 / kappa)
        H = (F[..., None, None] / self.n**2) * outer
        idx = np.arange(self.n)
        H[..., idx, idx] -= F[..., None] / (self.n * kappa**2)
        return H


@dataclass
class _NormA(CurvatureFunction):
    """Euclidean norm of the curvature vector, scaled to n at unity."""

    n: int
    name: str = "norm_A"

    def value(self, kappa):
        return np.sqrt(self.n) * np.linalg.norm(kappa, axis=-1)

    def gradient(self, kappa):
        nrm = np.linalg.norm(kappa, axis=-1, keepdims=True)
        return np.sqrt(self.n) * kappa / nrm

    def hessian(self, kappa):
        nrm = np.linalg.norm(kappa, axis=-1)
        outer = np.einsum("...i,...j->...ij", kappa, kappa)
        H = -np.sqrt(self.n) * outer / nrm[..., None, None] ** 3
        idx = np.arange(self.n)
        H[..., idx, idx] += np.sqrt(self.n) / nrm[..., None]
        return H


class _InverseFunction(CurvatureFunction):
    """Dual function kappa -> 1 / base(1/kappa), degree-one homogeneous."""

    def __init__(self, base: CurvatureFunction):
        self.base = base
        self.n = base.n
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
        idx = np.arange(self.n)
        H[..., idx, idx] -= 2.0 * Gv * y**3 / Fv[..., 0] ** 2
        return H


def make_curvature_function(name: str, n: int = 2) -> CurvatureFunction:
    """Build a curvature function from its catalog name.

    Supported names: ``mean``, ``sigma_k`` for 1 <= k <= n (e.g.
    ``sigma_2``), ``gauss_power``, ``norm_A``, and ``inverse_of(<name>)``.
    """
    name = name.strip()
    if name.startswith("inverse_of(") and name.endswith(")"):
        return make_curvature_function(name[len("inverse_of("):-1], n).inverse()
    if name == "mean":
        return _Mean(n=n)
    if name == "gauss_power":
        return _GaussPower(n=n)
    if name == "norm_A":
        return _NormA(n=n)
    if name.startswith("sigma_"):
        try:
            k = int(name[len("sigma_"):])
        except ValueError:
            raise ValueError(f"unknown curvature function {name!r}") from None
        return _SigmaK(n=n, k=k)
    raise ValueError(f"unknown curvature function {name!r}")


@dataclass
class ClassKReport:
    """Outcome of the structural checks for inverse-solvable functions."""

    name: str
    n: int
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
            "name": self.name, "n": self.n, "n_samples": self.n_samples,
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

    Samples are log-uniform over [1e-2, 1e2]^n with a fixed seed.
    """
    rng = np.random.default_rng(seed)
    kappa = 10.0 ** rng.uniform(-2, 2, size=(n_samples, F.n))
    failures: dict = {}

    grad = F.gradient(kappa)
    monotone = bool(np.all(grad > 0))
    if not monotone:
        bad = np.argwhere(grad <= 0)[0]
        failures["monotone"] = {"kappa": kappa[bad[0]].tolist()}

    weighted = grad * kappa
    ok = True
    for i in range(F.n):
        for j in range(F.n):
            if i == j:
                continue
            # wherever kappa_j <= kappa_i the weight F_j kappa_j must majorize
            mask = kappa[:, j] <= kappa[:, i]
            viol = weighted[mask, i] > weighted[mask, j] + 1e-12
            if np.any(viol):
                ok = False
                k_bad = kappa[mask][viol][0]
                failures.setdefault("weight_ordering", {"kappa": k_bad.tolist()})
    weight_ordering = ok

    base = np.array([1.0] * F.n)
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
    eigs = np.linalg.eigvalsh(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    concave = bool(np.max(eigs) <= 1e-10)
    if not concave:
        bad = int(np.argmax(eigs.max(axis=-1)))
        failures["concave_if_deg1"] = {
            "kappa": kappa[bad].tolist(), "max_eig": float(np.max(eigs))}

    return ClassKReport(name=F.name, n=F.n, n_samples=n_samples,
                        monotone=monotone, weight_ordering=weight_ordering,
                        boundary_vanish=boundary_vanish,
                        concave_if_deg1=concave, failures=failures)
