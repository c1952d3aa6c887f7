"""Per-node kernels: embedding, fundamental forms, principal curvatures.

Everything is vectorized numpy over arbitrary leading axes.  The solver
evaluates curvatures through :func:`kappa_batch`, which takes a batch of
radial fields and returns their principal curvatures; the full geometric
record of a surface comes from :func:`fundamental_forms`.

All angles are chart coordinates (theta, phi) on the parameter sphere; the
radial inputs are the chart partial derivatives of the radial function.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the principal-curvature implementation (always 'numpy')."""
    return "numpy"


def eig2_ascending(s11, s12, s21, s22):
    """Real eigenvalues of batched 2 x 2 operators, ascending, on axis -1.

    The operators are metric-symmetrizable so the discriminant is
    nonnegative up to rounding; it is written in the cancellation-safe
    form (s11 - s22)^2 + 4 s12 s21.
    """
    tr = s11 + s22
    disc = np.maximum((s11 - s22) ** 2 + 4 * s12 * s21, 0.0)
    sq = np.sqrt(disc)
    return np.stack([0.5 * (tr - sq), 0.5 * (tr + sq)], axis=-1)


def inv2(a: np.ndarray) -> np.ndarray:
    """Batched inverse of 2 x 2 matrices, shape (..., 2, 2)."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out / det[..., None, None]


def _frame_fields(theta, phi):
    """Direction field and chart derivatives, each shaped (..., 3)."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    zero = np.zeros_like(st)
    w = np.stack([st * cp, st * sp, ct], axis=-1)
    wt = np.stack([ct * cp, ct * sp, -st], axis=-1)
    wp = np.stack([-st * sp, st * cp, zero], axis=-1)
    wtp = np.stack([-ct * sp, ct * cp, zero], axis=-1)
    wpp = np.stack([-st * cp, -st * sp, zero], axis=-1)
    return w, wt, wp, wtp, wpp


def embedding_derivatives(theta, phi, r, rt, rp, rtt, rtp, rpp):
    """Embedding of the radial graph and its chart derivatives in R^4.

    Inputs broadcast together; outputs gain a trailing axis of length 4.
    The pole sits at the fourth coordinate axis.
    """
    w, wt, wp, wtp, wpp = _frame_fields(theta, phi)
    sr = np.sin(r)[..., None]
    cr = np.cos(r)[..., None]
    rt_ = np.asarray(rt)[..., None]
    rp_ = np.asarray(rp)[..., None]
    rtt_ = np.asarray(rtt)[..., None]
    rtp_ = np.asarray(rtp)[..., None]
    rpp_ = np.asarray(rpp)[..., None]

    def four(vec3, last):
        return np.concatenate([vec3, last], axis=-1)

    x = four(sr * w, cr)
    xt = four(cr * rt_ * w + sr * wt, -sr * rt_)
    xp = four(cr * rp_ * w + sr * wp, -sr * rp_)
    xtt = four((cr * rtt_ - sr * rt_**2) * w + 2 * cr * rt_ * wt + sr * (-w),
               -(sr * rtt_ + cr * rt_**2))
    xtp = four((cr * rtp_ - sr * rt_ * rp_) * w + cr * (rt_ * wp + rp_ * wt) + sr * wtp,
               -(sr * rtp_ + cr * rt_ * rp_))
    xpp = four((cr * rpp_ - sr * rp_**2) * w + 2 * cr * rp_ * wp + sr * wpp,
               -(sr * rpp_ + cr * rp_**2))
    return x, xt, xp, xtt, xtp, xpp


def cross4(u, v, w):
    """Generalized cross product in R^4, orthogonal to u, v, w (..., 4)."""
    out = np.empty_like(u)
    idx = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    sign = 1.0
    for a, (i, j, k) in enumerate(idx):
        det = (u[..., i] * (v[..., j] * w[..., k] - v[..., k] * w[..., j])
               - u[..., j] * (v[..., i] * w[..., k] - v[..., k] * w[..., i])
               + u[..., k] * (v[..., i] * w[..., j] - v[..., j] * w[..., i]))
        out[..., a] = sign * det
        sign = -sign
    return out


def fundamental_forms(theta, phi, r, rt, rp, rtt, rtp, rpp):
    """Full geometric data at each node.

    Returns a dict with the embedding, tangents, outward unit normal,
    metric, second fundamental form, shape operator, and principal
    curvatures (ascending).
    """
    x, xt, xp, xtt, xtp, xpp = embedding_derivatives(
        theta, phi, r, rt, rp, rtt, rtp, rpp)
    g11 = np.einsum("...i,...i->...", xt, xt)
    g12 = np.einsum("...i,...i->...", xt, xp)
    g22 = np.einsum("...i,...i->...", xp, xp)
    nrm = cross4(x, xt, xp)
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    w, _, _, _, _ = _frame_fields(theta, phi)
    radial = np.concatenate([np.cos(r)[..., None] * w,
                             -np.sin(r)[..., None]], axis=-1)
    flip = np.einsum("...i,...i->...", nrm, radial) < 0
    nrm[flip] *= -1.0
    h11 = -np.einsum("...i,...i->...", xtt, nrm)
    h12 = -np.einsum("...i,...i->...", xtp, nrm)
    h22 = -np.einsum("...i,...i->...", xpp, nrm)
    detg = g11 * g22 - g12**2
    s11 = (g22 * h11 - g12 * h12) / detg
    s12 = (g22 * h12 - g12 * h22) / detg
    s21 = (g11 * h12 - g12 * h11) / detg
    s22 = (g11 * h22 - g12 * h12) / detg
    kappa = eig2_ascending(s11, s12, s21, s22)
    g = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
    hh = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
    shape_op = np.stack([np.stack([s11, s12], -1), np.stack([s21, s22], -1)], -2)
    return {
        "x": x, "x_theta": xt, "x_phi": xp, "normal": nrm,
        "g": g, "h": hh, "shape_operator": shape_op, "kappa": kappa,
    }


def kappa_batch(theta, phi, R, RT, RP, RTT, RTP, RPP):
    """Principal curvatures for a batch of radial fields.

    ``theta``/``phi`` have shape (N,); the six field arrays (N, nb).
    Returns (kappa_min, kappa_max) arrays of shape (N, nb).
    """
    out = fundamental_forms(theta[:, None], phi[:, None],
                            R, RT, RP, RTT, RTP, RPP)
    kap = out["kappa"]
    return kap[..., 0], kap[..., 1]
