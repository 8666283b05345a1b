"""Admissible perturbations of standard double bubbles and their expansions.

A perturbation displaces each sheet point x to x + w(x) N(x) + Y(x) with a
scalar normal amplitude w and a tangential field Y.  Admissibility means the
three sheets keep a common boundary:

  w1 = w0 + w2 on the neck, the conormal components u_s = <Y_s, nu_s> obey
  u0 = (w0 + 2 w2)/sqrt3, u1 = (w0 - w2)/sqrt3, u2 = -(2 w0 + w2)/sqrt3,

and the neck-tangential parts of the Y_s agree.  Fields are represented by
closed-form callables (polar, dirs) -> values per sheet, so they can be
sampled on any grid and differentiated by parameter stencils.

Sheet data live in the flat parameters z = (polar, angles) of
geometry.flat_rule: the flat metric and Christoffels there are closed form
(geometry.flat_metric), tangents and field derivatives come from the
4th-order stencils of charts._stencil.

The perturbed first/second fundamental form, mean curvature, area and volume
expansions below are the closed forms the numerical oracle is checked
against; curvature enters through frame components of the ambient Riemann
tensor at the center point (charts.CurvatureAtPoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import CurvatureAtPoint, _stencil
from .geometry import (
    BubbleParams,
    StandardBubble,
    flat_metric,
    flat_rule,
    sample_sheet,
    sheet_normal,
    sheet_point,
)

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# junction data


@dataclass(frozen=True)
class CouplingData:
    """Junction coupling constants q_s = (H-combination)/sqrt3.

    q0 = (h1 + h2)/sqrt3, q1 = (h0 - h2)/sqrt3, q2 = -(h1 + h0)/sqrt3 in the
    trace normalization of the mean curvatures.  The Robin coefficients of
    the equiangularity system use the per-sheet principal curvature 1/R_s,
    i.e. the same combinations divided by m (see `robin`).
    """

    q0: float
    q1: float
    q2: float
    m: int

    @property
    def robin(self) -> tuple[float, float, float]:
        return (self.q0 / self.m, self.q1 / self.m, self.q2 / self.m)


def coupling_constants(params: BubbleParams) -> CouplingData:
    return CouplingData(
        q0=(params.h1 + params.h2) / SQRT3,
        q1=(params.h0 - params.h2) / SQRT3,
        q2=-(params.h1 + params.h0) / SQRT3,
        m=params.m,
    )


def admissible_closure(w0_trace, w2_trace):
    """Boundary data completing (w0, w2) traces to an admissible junction.

    Returns a dict with w1 and the conormal components u0, u1, u2 on the same
    neck grid.  The reconstructed displacements w_s N_s + u_s nu_s agree
    across the three sheets; see junction_residual.
    """
    w0 = np.asarray(w0_trace, dtype=float)
    w2 = np.asarray(w2_trace, dtype=float)
    if w0.shape != w2.shape:
        raise ValueError("w0 and w2 traces must share a grid")
    return {
        "w0": w0,
        "w1": w0 + w2,
        "w2": w2,
        "u0": (w0 + 2.0 * w2) / SQRT3,
        "u1": (w0 - w2) / SQRT3,
        "u2": -(2.0 * w0 + w2) / SQRT3,
    }


def junction_residual(bubble: StandardBubble, closure: dict) -> float:
    """Max norm of the pairwise differences of the reconstructed neck
    displacements w_s N_s + u_s nu_s in the (radial, axial) plane."""
    from .geometry import conormals_at_neck

    nu = conormals_at_neck(bubble)
    phi = bubble.phi
    if bubble.symmetric:
        nvec = np.array([[0.0, 1.0]])
    else:
        nvec = np.array([[-math.sin(phi[0]), math.cos(phi[0])]])
    normals = np.vstack(
        [
            nvec,
            [[-math.sin(phi[1]), -math.cos(phi[1])]],
            [[-math.sin(phi[2]), math.cos(phi[2])]],
        ]
    )
    disp = [
        closure[f"w{s}"][..., None] * normals[s] + closure[f"u{s}"][..., None] * nu[s]
        for s in range(3)
    ]
    return float(
        max(np.abs(disp[1] - disp[0]).max(), np.abs(disp[1] - disp[2]).max())
    )


# ---------------------------------------------------------------------------
# perturbation fields


def _zero_w(polar, dirs):
    return np.zeros(np.shape(np.asarray(polar)))


@dataclass(frozen=True)
class PerturbationField:
    """Per-sheet normal amplitudes w_s and tangential fields Y_s as callables.

    w callables map (polar, dirs) -> (N,); y callables map (polar, dirs) ->
    (N, m+1) ambient vectors tangent to the sheet, or None for zero.  `scale`
    multiplies both on evaluation, so rho-dependent sweeps reuse one field.
    """

    bubble: StandardBubble
    w_funcs: tuple
    y_funcs: tuple = (None, None, None)
    scale: float = 1.0
    name: str = ""

    def w(self, sheet: int, polar, dirs):
        fn = self.w_funcs[sheet]
        if fn is None:
            return np.zeros(np.shape(np.asarray(polar)))
        return self.scale * np.asarray(fn(polar, dirs), dtype=float)

    def y(self, sheet: int, polar, dirs):
        dirs = np.asarray(dirs, dtype=float)
        fn = self.y_funcs[sheet]
        n = self.bubble.m + 1
        if fn is None:
            return np.zeros(np.shape(np.asarray(polar)) + (n,))
        return self.scale * np.asarray(fn(polar, dirs), dtype=float)

    def scaled(self, factor: float) -> "PerturbationField":
        return PerturbationField(
            bubble=self.bubble,
            w_funcs=self.w_funcs,
            y_funcs=self.y_funcs,
            scale=self.scale * factor,
            name=self.name,
        )

    def sup_amplitude(self, n_check: int = 12) -> float:
        sup = 0.0
        for s in range(3):
            z, dirs, _ = flat_rule(self.bubble.m, self.bubble.polar_limit(s), (n_check, 2 * n_check))
            sup = max(sup, float(np.abs(self.w(s, z[:, 0], dirs)).max()))
            sup = max(sup, float(np.abs(self.y(s, z[:, 0], dirs)).max()))
        return sup


def admissibility_bound(bubble: StandardBubble) -> float:
    """Default ceiling 0.1 * min R_s; the expansions are asymptotic and larger
    fields would leave their regime."""
    return 0.1 * min(r for r in bubble.radii if math.isfinite(r))


def check_admissible(field: PerturbationField) -> None:
    sup = field.sup_amplitude()
    delta = admissibility_bound(field.bubble)
    if sup > delta:
        raise ValueError(f"field amplitude {sup:.3e} exceeds admissibility bound {delta:.3e}")


# ---------------------------------------------------------------------------
# flat sheet parametrization and derivatives in parameters z = (polar, angles)


def angles_to_dirs(m: int, angles: np.ndarray) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    if m == 2:
        th = angles[..., 0]
        return np.stack([np.cos(th), np.sin(th)], axis=-1)
    if m == 3:
        al, be = angles[..., 0], angles[..., 1]
        return np.stack(
            [np.sin(al) * np.cos(be), np.sin(al) * np.sin(be), np.cos(al)], axis=-1
        )
    raise ValueError(f"angle parametrization requires m in (2, 3), got m={m}")


def flat_point_z(bubble: StandardBubble, sheet: int, z: np.ndarray) -> np.ndarray:
    """Sheet point at full parameter vectors z = (polar, angles), shape (N, m)."""
    z = np.asarray(z, dtype=float)
    dirs = angles_to_dirs(bubble.m, z[..., 1:])
    return sheet_point(bubble, sheet, z[..., 0], dirs)


def flat_normal_z(bubble: StandardBubble, sheet: int, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    dirs = angles_to_dirs(bubble.m, z[..., 1:])
    nrm = sheet_normal(bubble, sheet, z[..., 0], dirs)
    if nrm.shape != z.shape[:-1] + (bubble.m + 1,):
        nrm = np.broadcast_to(nrm, z.shape[:-1] + (bubble.m + 1,)).copy()
    return nrm


def displaced_point_z(
    bubble: StandardBubble, sheet: int, z: np.ndarray, field: PerturbationField | None
) -> np.ndarray:
    x = flat_point_z(bubble, sheet, z)
    if field is None:
        return x
    dirs = angles_to_dirs(bubble.m, z[..., 1:])
    w = field.w(sheet, z[..., 0], dirs)
    y = field.y(sheet, z[..., 0], dirs)
    return x + w[..., None] * flat_normal_z(bubble, sheet, z) + y


def _param_steps(bubble: StandardBubble, sheet: int, rel: float = 1e-4) -> np.ndarray:
    scales = [bubble.polar_limit(sheet)] + [math.pi] * (bubble.m - 1)
    return rel * np.asarray(scales)


@dataclass
class SheetPointData:
    """Flat geometry and field data at parameter points of one sheet."""

    x: np.ndarray  # (N, n) positions
    normal: np.ndarray  # (N, n)
    tangents: np.ndarray  # (N, m, n) d x / d z_i
    g: np.ndarray  # (N, m, m) flat first form
    ginv: np.ndarray
    gamma: np.ndarray  # (N, k, i, j) flat sheet Christoffels in z coordinates
    w: np.ndarray  # (N,)
    dw: np.ndarray  # (N, m)
    d2w: np.ndarray  # (N, m, m)
    yvec: np.ndarray  # (N, n)
    dy: np.ndarray  # (N, m, n)


def sheet_point_data(
    bubble: StandardBubble,
    sheet: int,
    z: np.ndarray,
    field: PerturbationField | None = None,
) -> SheetPointData:
    """Flat positions, normals and tangents (4th-order stencils), the
    closed-form flat metric and Christoffels (geometry.flat_metric) and the
    field values with their stencil derivatives at parameters z (N, m)."""
    z = np.asarray(z, dtype=float)
    h = _param_steps(bubble, sheet)
    x, tangents = _stencil(lambda zz: flat_point_z(bubble, sheet, zz), z, h)
    normal = flat_normal_z(bubble, sheet, z)
    g, gamma = flat_metric(bubble, sheet, z)
    ginv = np.linalg.inv(g)
    if field is None:
        nshape = z.shape[:-1]
        w = np.zeros(nshape)
        dw = np.zeros(nshape + (bubble.m,))
        d2w = np.zeros(nshape + (bubble.m, bubble.m))
        yvec = np.zeros(nshape + (bubble.m + 1,))
        dy = np.zeros(nshape + (bubble.m, bubble.m + 1))
    else:
        def wfun(zz):
            return field.w(sheet, zz[..., 0], angles_to_dirs(bubble.m, zz[..., 1:]))

        def yfun(zz):
            return field.y(sheet, zz[..., 0], angles_to_dirs(bubble.m, zz[..., 1:]))

        w, dw, d2w = _stencil(wfun, z, h, order=2)
        yvec, dy = _stencil(yfun, z, h)
    return SheetPointData(
        x=x, normal=normal, tangents=tangents, g=g, ginv=ginv, gamma=gamma,
        w=w, dw=dw, d2w=d2w, yvec=yvec, dy=dy,
    )


def laplace_beltrami(data: SheetPointData) -> np.ndarray:
    """Delta_Sigma w at the data points from the covariant Hessian."""
    hess = data.d2w - np.einsum("...kij,...k->...ij", data.gamma, data.dw)
    return np.einsum("...ij,...ij->...", data.ginv, hess)


def covariant_hessian(data: SheetPointData) -> np.ndarray:
    return data.d2w - np.einsum("...kij,...k->...ij", data.gamma, data.dw)


def tangential_divergence(data: SheetPointData) -> np.ndarray:
    """div_Sigma Y = g^ij <d_i Y, Theta_j> for a tangential field Y."""
    return np.einsum("...ij,...ik,...jk->...", data.ginv, data.dy, data.tangents)


# ---------------------------------------------------------------------------
# perturbed fundamental forms and mean curvature (closed-form expansions)


def _rm2(curv: CurvatureAtPoint, a, b, c, d):
    """Rm(a, b, c, d) batched over leading axes of the vector arrays."""
    return np.einsum("...i,...j,...k,...l,ijkl->...", a, b, c, d, curv.riemann)


def _nabla_rm(curv: CurvatureAtPoint, v, a, b, c, d):
    return np.einsum("...q,...i,...j,...k,...l,qijkl->...", v, a, b, c, d, curv.nabla_riemann)


def perturbed_first_form(
    bubble: StandardBubble,
    sheet: int,
    curv: CurvatureAtPoint,
    rho: float,
    z: np.ndarray,
    field: PerturbationField | None = None,
) -> np.ndarray:
    """Closed-form expansion of the pulled-back first fundamental form at z.

    Returns the (N, m, m) matrices in the sheet's parameter coordinates,
    directly comparable with the pullback Gram matrices the oracle measures.
    """
    d = sheet_point_data(bubble, sheet, z, field)
    m = bubble.m
    x = d.x
    th = d.tangents
    n = d.normal
    w = d.w[..., None, None]
    wi = d.dw[..., :, None]
    wj = d.dw[..., None, :]
    yi = d.dy  # (N, m, n) full parameter derivatives of Y
    y = d.yvec
    g = d.g
    lie = np.einsum("...ik,...jk->...ij", yi, th)
    lie = lie + np.swapaxes(lie, -1, -2)
    yn = np.einsum("...ik,...k->...i", yi, n)
    proj_yi = yi - yn[..., None] * n[..., None, :]
    yy = np.einsum("...ik,...jk->...ij", proj_yi, proj_yi)
    ydot = np.einsum("...ik,...k->...i", th, y)

    disk = sheet == 0 and bubble.symmetric
    thi = th
    rm_tt = np.einsum(
        "...ia,...jb,...c,...d,cadb->...ij", thi, thi, x, x, curv.riemann
    )
    cubic = 0.0
    if curv.nabla_riemann is not None:
        cubic = np.einsum(
            "...q,...c,...d,...ia,...jb,qcadb->...ij", x, x, x, thi, thi, curv.nabla_riemann
        )
    if disk:
        nvec = d.normal
        quad = rm_tt.copy()
        # w (Rm(N,Ti,x,Tj) + Rm(x,Ti,N,Tj))
        t1 = np.einsum("...ia,...jb,...c,...d,cadb->...ij", thi, thi, nvec, x, curv.riemann)
        t2 = np.einsum("...ia,...jb,...c,...d,cadb->...ij", thi, thi, x, nvec, curv.riemann)
        quad = quad + d.w[..., None, None] * (t1 + t2)
        # Rm(x,Ti,Y,Tj) + transpose
        ty = np.einsum("...c,...ia,...d,...jb,cadb->...ij", x, thi, y, thi, curv.riemann)
        quad = quad + ty + np.swapaxes(ty, -1, -2)
        # w_i Rm(x,N,x,Tj) + w_j Rm(x,N,x,Ti)
        twn = np.einsum("...c,...a,...d,...jb,cadb->...j", x, nvec, x, thi, curv.riemann)
        quad = quad + d.dw[..., :, None] * twn[..., None, :] + d.dw[..., None, :] * twn[..., :, None]
        # Rm(x,Ti,x,grad_j Y) + transpose
        tdy = np.einsum("...c,...ia,...d,...jb,cadb->...ij", x, thi, x, proj_yi, curv.riemann)
        quad = quad + tdy + np.swapaxes(tdy, -1, -2)
        base = g + lie + wi * wj + yy
        out = base + (rho**2 / 3.0) * quad + (rho**3 / 6.0) * cubic
        return rho**2 * out
    r_s = bubble.radii[sheet]
    cvec = np.zeros(m + 1)
    cvec[-1] = bubble.centers[sheet]
    fac = 1.0 - d.w / r_s
    # Q(w, Y): the quadratic block of the cap expansion
    q_block = (
        wi * wj
        + yy
        + ydot[..., :, None] * ydot[..., None, :] / r_s**2
        + (d.w[..., None, None] / r_s) * lie
        + (wi * ydot[..., None, :] + wj * ydot[..., :, None]) / r_s
    ) / fac[..., None, None] ** 2
    quad = fac[..., None, None] ** 4 * rm_tt
    rm_tc = np.einsum("...c,...ia,...d,e,cade->...i", x, thi, x, cvec, curv.riemann)
    quad = quad + (wj * rm_tc[..., :, None] + wi * rm_tc[..., None, :]) / r_s
    rm_ty = np.einsum("...c,...ia,...d,...je,cade->...ij", x, thi, x, yi, curv.riemann)
    quad = quad + rm_ty + np.swapaxes(rm_ty, -1, -2)
    rm_cx = np.einsum("...ia,...jb,...d,c,cadb->...ij", thi, thi, x, cvec, curv.riemann)
    quad = quad + (d.w[..., None, None] / r_s) * (rm_cx + np.swapaxes(rm_cx, -1, -2))
    rm_y = np.einsum("...ia,...jb,...c,...d,cadb->...ij", thi, thi, x, y, curv.riemann)
    quad = quad + rm_y + np.swapaxes(rm_y, -1, -2)
    out = (
        g
        + lie
        + q_block
        + (rho**2 / 3.0) * quad
        + (rho**3 / 6.0) * cubic
    )
    return rho**2 * fac[..., None, None] ** 2 * out


def perturbed_second_form(
    bubble: StandardBubble,
    sheet: int,
    curv: CurvatureAtPoint,
    rho: float,
    z: np.ndarray,
    field: PerturbationField | None = None,
) -> np.ndarray:
    """Closed-form expansion of the second fundamental form at z, oriented
    along the sheet normal convention (N into B1 on sheets 0 and 1)."""
    d = sheet_point_data(bubble, sheet, z, field)
    m = bubble.m
    x, th = d.x, d.tangents
    hessw = covariant_hessian(d)
    disk = sheet == 0 and bubble.symmetric
    if disk:
        rm_nt = np.einsum("...c,...ia,...d,...jb,cadb->...ij", d.normal, th, x, th, curv.riemann)
        rm_tn = np.einsum("...c,...ia,...d,...jb,cadb->...ij", x, th, d.normal, th, curv.riemann)
        return rho * hessw - (rho**3 / 3.0) * (rm_nt + rm_tn)
    r_s = bubble.radii[sheet]
    cvec = np.zeros(m + 1)
    cvec[-1] = bubble.centers[sheet]
    lie = np.einsum("...ik,...jk->...ij", d.dy, th)
    lie = lie + np.swapaxes(lie, -1, -2)
    s_tt = np.einsum("...c,...ia,...d,...jb,cadb->...ij", x, th, x, th, curv.riemann)
    s_ct = np.einsum("c,...ia,...d,...jb,cadb->...ij", cvec, th, x, th, curv.riemann)
    s_tc = np.einsum("...c,...ia,d,...jb,cadb->...ij", x, th, cvec, th, curv.riemann)
    w_xc = np.einsum("...c,d,...e,f,cdef->...", x, cvec, x, cvec, curv.riemann)
    s_tensor = 4.0 * s_tt - 2.0 * s_ct - 2.0 * s_tc + (w_xc / r_s**2)[..., None, None] * d.g
    fac = 1.0 - d.w / r_s
    return (
        (rho / r_s) * fac[..., None, None] * d.g
        + (rho / r_s) * lie
        + rho * hessw
        + (rho**3 / (6.0 * r_s)) * s_tensor
    )


def perturbed_mean_curvature(
    bubble: StandardBubble,
    sheet: int,
    curv: CurvatureAtPoint,
    rho: float,
    z: np.ndarray,
    field: PerturbationField | None = None,
) -> np.ndarray:
    """Closed-form scaled mean curvature: rho R H (caps) or rho H (disk).

    Cap:  m + (R Delta w + (m/R) w) - (rho^2/3) Ric(x,x) + (2 rho^2/3) Ric(C,x)
            + ((m+2) rho^2 / (6 R^2)) Rm(x,C,x,C),
    Disk: Delta w + (2 rho^2/3) Ric(x, N),

    with x the absolute sheet position in frame components.  The curvature
    terms are the trace of the printed fundamental-form expansions; note the
    tangential field Y drops out at these orders.
    """
    d = sheet_point_data(bubble, sheet, z, field)
    m = bubble.m
    x = d.x
    lap = laplace_beltrami(d)
    ric_xx = np.einsum("...i,...j,ij->...", x, x, curv.ricci)
    if sheet == 0 and bubble.symmetric:
        ric_xn = np.einsum("...i,...j,ij->...", x, d.normal, curv.ricci)
        return lap + (2.0 * rho**2 / 3.0) * ric_xn
    r_s = bubble.radii[sheet]
    cvec = np.zeros(m + 1)
    cvec[-1] = bubble.centers[sheet]
    ric_cx = np.einsum("i,...j,ij->...", cvec, x, curv.ricci)
    w_xc = np.einsum("...a,b,...c,d,abcd->...", x, cvec, x, cvec, curv.riemann)
    return (
        m
        + r_s * lap
        + (m / r_s) * d.w
        - (rho**2 / 3.0) * ric_xx
        + (2.0 * rho**2 / 3.0) * ric_cx
        + ((m + 2) * rho**2 / (6.0 * r_s**2)) * w_xc
    )


# ---------------------------------------------------------------------------
# first-order area and volume corrections


def first_order_area_corrections(
    bubble: StandardBubble, field: PerturbationField, grid=(32, 64)
) -> np.ndarray:
    """Per-sheet first-order area shifts (rho^-m normalization):

    caps: -int (m w/R - div Y) dmu;  disk: +int div Y dmu.
    """
    out = np.zeros(3)
    for s in range(3):
        z, _, w = flat_rule(bubble.m, bubble.polar_limit(s), grid)
        d = sheet_point_data(bubble, s, z, field)
        dmu = w * np.sqrt(np.linalg.det(d.g))
        div = tangential_divergence(d)
        if s == 0 and bubble.symmetric:
            out[s] = float(np.sum(dmu * div))
        else:
            out[s] = -float(np.sum(dmu * (bubble.m * d.w / bubble.radii[s] - div)))
    return out


def perturbed_area_expansion(
    bubble: StandardBubble,
    field: PerturbationField,
    sc: float,
    ric_ss: float,
    rho: float,
    grid=(32, 64),
) -> np.ndarray:
    """Per-sheet rho^-m areas of the perturbed bubble through first field order."""
    from .expansions import sheet_area_expansion

    corr = first_order_area_corrections(bubble, field, grid)
    return np.array(
        [sheet_area_expansion(bubble, s).value(sc, ric_ss, rho) + corr[s] for s in range(3)]
    )


def first_order_volume_corrections(
    bubble: StandardBubble, field: PerturbationField, grid=(32, 64)
) -> tuple[float, float]:
    """First-order shifts of rho^-(m+1) (V1, V2) under the displacement field.

    The enclosed volumes respond only to the normal component of a continuous
    displacement of the chamber boundary:

        dV1 = -int_S1 w1 - int_S0 w0,   dV2 = -int_S2 w2 + int_S0 w0,

    the signs following the normal conventions (N into B1 on sheets 0, 1 and
    into B2 on sheet 2).  Tangential fields move the neck but not the volume
    at first order; the per-sheet sector shifts do carry div(Y) terms, but
    those cancel against the neck-ring flux once the chambers are closed.
    """
    ints = np.zeros(3)
    for s in range(3):
        ss = sample_sheet(bubble, s, grid)
        ints[s] = float(np.sum(ss.weights * field.w(s, ss.polar, ss.dirs)))
    dv1 = -ints[1] - ints[0]
    dv2 = -ints[2] + ints[0]
    return dv1, dv2


def perturbed_volume_expansion(
    bubble: StandardBubble,
    field: PerturbationField,
    sc: float,
    ric_ss: float,
    rho: float,
    grid=(32, 64),
) -> tuple[float, float]:
    """rho^-(m+1) (V1, V2) of the perturbed bubble through first field order."""
    from .expansions import geodesic_volumes_expansion

    t1, t2 = geodesic_volumes_expansion(bubble)
    dv1, dv2 = first_order_volume_corrections(bubble, field, grid)
    return t1.value(sc, ric_ss, rho) + dv1, t2.value(sc, ric_ss, rho) + dv2


# ---------------------------------------------------------------------------
# linearized equiangularity and the Jacobi operator


def neck_angle_grid(m: int, n_angle: int) -> np.ndarray:
    if m == 2:
        return (2.0 * math.pi * np.arange(n_angle) / n_angle)[:, None]
    raise ValueError("neck grids are implemented for m = 2")


def _neck_z(bubble: StandardBubble, sheet: int, angles: np.ndarray) -> np.ndarray:
    return np.concatenate([np.full((len(angles), 1), bubble.polar_limit(sheet)), angles], axis=-1)


def conormal_derivative(
    bubble: StandardBubble, sheet: int, field: PerturbationField, angles: np.ndarray
) -> np.ndarray:
    """dw/dnu at the neck: the derivative along the inward unit conormal.

    Inward means decreasing polar parameter, with arclength R dphi on caps
    and dy on the disk.
    """
    def wfun(zz):
        return field.w(sheet, zz[..., 0], angles_to_dirs(bubble.m, zz[..., 1:]))

    _, d1 = _stencil(wfun, _neck_z(bubble, sheet, angles), _param_steps(bubble, sheet), neck=True)
    dpol = d1[:, 0]
    scale = 1.0 if (sheet == 0 and bubble.symmetric) else bubble.radii[sheet]
    return -dpol / scale


def linearized_equiangularity_residual(
    bubble: StandardBubble,
    field: PerturbationField,
    coupling: CouplingData,
    n_angle: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """The two junction balance fields on the neck angle grid:

      e0 = dw0/dnu0 + r0 w0 + dw1/dnu1 + r1 w1,
      e2 = dw1/dnu1 + r1 w1 + dw2/dnu2 + r2 w2,

    with (r0, r1, r2) the Robin coefficients of `coupling`; both vanish for
    displacements that keep the junction equiangular to first order.
    """
    angles = neck_angle_grid(bubble.m, n_angle)
    rob = coupling.robin
    terms = []
    for s in range(3):
        z = _neck_z(bubble, s, angles)
        dirs = angles_to_dirs(bubble.m, z[..., 1:])
        w = field.w(s, z[..., 0], dirs)
        dn = conormal_derivative(bubble, s, field, angles)
        terms.append(dn + rob[s] * w)
    return terms[0] + terms[1], terms[1] + terms[2]


def fornberg_weights(xs: np.ndarray, x0: float, der: int) -> np.ndarray:
    """Finite-difference weights for the der-th derivative at x0 on arbitrary
    nodes xs (Fornberg's recursion)."""
    n = len(xs)
    c = np.zeros((n, der + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, der)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                c[i, 1 : mn + 1] = c1 * (
                    np.arange(1, mn + 1) * c[i - 1, 0:mn] - c5 * c[i - 1, 1 : mn + 1]
                ) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            c[j, 1 : mn + 1] = (c4 * c[j, 1 : mn + 1] - np.arange(1, mn + 1) * c[j, 0:mn]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, der]


_GHOSTS = 3
_WINDOW = 7


@dataclass(frozen=True)
class SheetGrid:
    """Half-offset uniform polar x angle grid of one sheet (m = 2).

    polar nodes sit at (j + 1/2) upper / n, so the pole is excluded and smooth
    fields extend across it by the reflection w(-y, theta) = w(y, theta + pi);
    polar differentiation uses 7-point Fornberg stencils on the ghost-extended
    grid (one-sided only at the neck end) and the angle factor is spectral.
    """

    bubble: StandardBubble
    sheet: int
    polar: np.ndarray
    theta: np.ndarray

    @property
    def upper(self) -> float:
        return self.bubble.polar_limit(self.sheet)

    def mesh(self):
        pol, th = np.meshgrid(self.polar, self.theta, indexing="ij")
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return pol, dirs

    def _ext_matrix(self, order: int) -> np.ndarray:
        """(n, n + ghosts) differentiation matrix on the ghost-extended grid."""
        n = len(self.polar)
        h = self.polar[1] - self.polar[0]
        ext = np.concatenate([-self.polar[:_GHOSTS][::-1], self.polar])
        d = np.zeros((n, n + _GHOSTS))
        for i in range(n):
            row = i + _GHOSTS
            lo = min(max(0, row - _WINDOW // 2), n + _GHOSTS - _WINDOW)
            win = slice(lo, lo + _WINDOW)
            d[i, win] = fornberg_weights(ext[win], ext[row], order)
        return d

    def extend(self, w: np.ndarray) -> np.ndarray:
        """Prepend the pole-reflection ghost rows (needs an even angle count)."""
        n_theta = w.shape[1]
        ghost = np.roll(w[:_GHOSTS][::-1], n_theta // 2, axis=1)
        return np.concatenate([ghost, w], axis=0)


def sheet_grid(bubble: StandardBubble, sheet: int, n_polar: int = 64, n_angle: int = 128) -> SheetGrid:
    if bubble.m != 2:
        raise ValueError("grid operators are implemented for m = 2")
    if n_angle % 2 != 0:
        raise ValueError("the angle count must be even for pole reflection")
    polar = bubble.polar_limit(sheet) * (np.arange(n_polar) + 0.5) / n_polar
    theta = 2.0 * math.pi * np.arange(n_angle) / n_angle
    return SheetGrid(bubble=bubble, sheet=sheet, polar=polar, theta=theta)


_D_CACHE: dict = {}


def _grid_derivative_matrices(grid: SheetGrid):
    key = (grid.sheet, grid.upper, len(grid.polar))
    if key not in _D_CACHE:
        _D_CACHE[key] = (grid._ext_matrix(1), grid._ext_matrix(2))
    return _D_CACHE[key]


def jacobi_apply(grid: SheetGrid, w: np.ndarray) -> np.ndarray:
    """Jacobi operator on a sheet grid: R Delta w + (m/R) w on caps, Delta w
    on the symmetric disk (plain Laplace-Beltrami; kernel membership is
    unaffected by the disk scaling)."""
    b = grid.bubble
    m = b.m
    pol = grid.polar[:, None]
    n_theta = len(grid.theta)
    k = np.fft.rfftfreq(n_theta, d=1.0 / n_theta)
    w_hat = np.fft.rfft(w, axis=1)
    d2_theta = np.fft.irfft(-(k**2) * w_hat, n=n_theta, axis=1)
    d1, d2 = _grid_derivative_matrices(grid)
    wext = grid.extend(w)
    w_p = d1 @ wext
    w_pp = d2 @ wext
    disk = grid.sheet == 0 and b.symmetric
    if disk:
        return w_pp + (m - 1) / pol * w_p + d2_theta / pol**2
    r_s = b.radii[grid.sheet]
    lap = (w_pp + (m - 1) / np.tan(pol) * w_p + d2_theta / np.sin(pol) ** 2) / r_s**2
    return r_s * lap + (m / r_s) * w


# ---------------------------------------------------------------------------
# Killing kernel fields


def _ambient_killing(bubble: StandardBubble, generator) -> tuple:
    """Returns (vector field Xi(x), trivial flag) for a generator descriptor.

    Generators: ("translation", vector) or ("rotation", i) rotating the axis
    toward coordinate i < m.  Rotations fixing the axis act trivially on the
    bubble and give the zero field.
    """
    kind, data = generator
    n = bubble.m + 1
    if kind == "translation":
        e = np.asarray(data, dtype=float)
        if e.shape != (n,):
            raise ValueError(f"translation vector must have length {n}")
        return (lambda x: np.broadcast_to(e, np.shape(x)).copy()), False
    if kind == "rotation":
        i = int(data)
        if not 0 <= i < bubble.m:
            raise ValueError(f"rotation index must lie in [0, {bubble.m})")
        jmat = np.zeros((n, n))
        jmat[i, -1] = 1.0
        jmat[-1, i] = -1.0
        return (lambda x: np.asarray(x) @ jmat.T), False
    if kind == "rotation_fixing_axis":
        return (lambda x: np.zeros(np.shape(x))), True
    raise ValueError(f"unknown generator kind {kind!r}")


def killing_kernel_field(bubble: StandardBubble, generator) -> PerturbationField:
    """Normal parts w_s = <Xi, N_s> of an ambient Killing field Xi.

    These satisfy the Jacobi equation, the junction condition w1 = w0 + w2
    (because N1 = N0 + N2 on the neck) and the linearized equiangularity
    system; axis-fixing rotations give the zero field.
    """
    xi, trivial = _ambient_killing(bubble, generator)
    if trivial:
        return PerturbationField(bubble, (None, None, None), name="trivial")

    def make_w(sheet):
        def w(polar, dirs):
            x = sheet_point(bubble, sheet, polar, dirs)
            nrm = sheet_normal(bubble, sheet, polar, dirs)
            if nrm.shape != x.shape:
                nrm = np.broadcast_to(nrm, x.shape)
            return np.einsum("...k,...k->...", xi(x), nrm)

        return w

    kind, data = generator
    return PerturbationField(
        bubble, tuple(make_w(s) for s in range(3)), name=f"killing-{kind}-{data}"
    )


def killing_basis(bubble: StandardBubble) -> list[PerturbationField]:
    """The 2m+1 kernel generators: m+1 translations plus the m rotations that
    move the axis."""
    n = bubble.m + 1
    gens = [("translation", np.eye(n)[k]) for k in range(n)]
    gens += [("rotation", i) for i in range(bubble.m)]
    return [killing_kernel_field(bubble, g) for g in gens]


def random_smooth_field(
    bubble: StandardBubble, rng: np.random.Generator, amplitude: float = 1.0
) -> PerturbationField:
    """Random smooth normal fields (not admissible in general); used as the
    negative control against the Killing kernel."""
    coefs = rng.normal(size=(3, 3, 3))

    def make_w(sheet):
        c = coefs[sheet]

        def w(polar, dirs):
            polar = np.asarray(polar, dtype=float)
            th = np.arctan2(np.asarray(dirs)[..., 1], np.asarray(dirs)[..., 0])
            u = polar / bubble.polar_limit(sheet)
            out = np.zeros(polar.shape)
            for p in range(3):
                out += c[p, 0] * u ** (p + 1)
                out += c[p, 1] * u ** (p + 1) * np.cos((p + 1) * th)
                out += c[p, 2] * u ** (p + 1) * np.sin((p + 1) * th)
            return amplitude * out

        return w

    return PerturbationField(bubble, tuple(make_w(s) for s in range(3)), name="random")


def sheet_unit_tangents(bubble: StandardBubble, sheet: int, polar, dirs):
    """Closed-form unit tangents (e_polar, e_angle) of a sheet for m = 2."""
    if bubble.m != 2:
        raise ValueError("unit tangents are implemented for m = 2")
    polar = np.asarray(polar, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    ct, st = dirs[..., 0], dirs[..., 1]
    e_th = np.stack([-st, ct, np.zeros(np.shape(ct))], axis=-1)
    if sheet == 0 and bubble.symmetric:
        e_pol = np.stack([ct, st, np.zeros(np.shape(ct))], axis=-1)
        return e_pol, e_th
    sign = 1.0 if sheet == 1 else -1.0
    cp, sp = np.cos(polar), np.sin(polar)
    e_pol = np.stack([cp * ct, cp * st, -sign * sp], axis=-1)
    return e_pol, e_th


def random_admissible_field(
    bubble: StandardBubble, rng: np.random.Generator, amplitude: float = 1.0
) -> PerturbationField:
    """A smooth admissible field from random low-order profiles (m = 2).

    Normal parts: w0, w2 are free smooth fields; w1 interpolates to the trace
    w0 + w2 on the neck.  Tangential parts carry the conormal components u_s
    required by the junction relations plus a common neck-tangential trace,
    all built from polynomials in the normalized polar parameter times low
    trigonometric modes (mode k enters with a factor u^k, keeping the fields
    smooth across the pole).
    """
    if bubble.m != 2:
        raise ValueError("random admissible fields are implemented for m = 2")

    def trig(c):
        def t(th):
            return c[0] + c[1] * np.cos(th) + c[2] * np.sin(th) + c[3] * np.cos(2 * th) + c[4] * np.sin(2 * th)

        return t

    def smooth_scalar(c):
        # c: (3, 5); smooth field on a sheet in (u, theta)
        def f(u, th):
            return (
                c[0, 0] + c[0, 1] * u**2 + c[0, 2] * u**4
                + u * (c[1, 0] * np.cos(th) + c[1, 1] * np.sin(th)) * (1.0 + c[1, 2] * u**2)
                + u**2 * (c[2, 0] * np.cos(2 * th) + c[2, 1] * np.sin(2 * th))
            )

        return f

    uppers = [bubble.polar_limit(s) for s in range(3)]
    w0f = smooth_scalar(rng.normal(size=(3, 5)) * amplitude)
    w2f = smooth_scalar(rng.normal(size=(3, 5)) * amplitude)
    w1_int = smooth_scalar(rng.normal(size=(3, 5)) * amplitude)

    def theta_of(dirs):
        d = np.asarray(dirs, dtype=float)
        return np.arctan2(d[..., 1], d[..., 0])

    def make_w(sheet):
        if sheet == 0:
            return lambda polar, dirs: w0f(np.asarray(polar) / uppers[0], theta_of(dirs))
        if sheet == 2:
            return lambda polar, dirs: w2f(np.asarray(polar) / uppers[2], theta_of(dirs))

        def w1(polar, dirs):
            u = np.asarray(polar, dtype=float) / uppers[1]
            th = theta_of(dirs)
            trace = w0f(1.0, th) + w2f(1.0, th)
            return u**2 * trace + (1.0 - u**2) * w1_int(u, th)

        return w1

    w_funcs = tuple(make_w(s) for s in range(3))

    # conormal components on the neck required by the junction relations
    def u_trace(sheet):
        def u_s(th):
            w0 = w0f(1.0, th)
            w2 = w2f(1.0, th)
            if sheet == 0:
                return (w0 + 2.0 * w2) / SQRT3
            if sheet == 1:
                return (w0 - w2) / SQRT3
            return -(2.0 * w0 + w2) / SQRT3

        return u_s

    b_gamma = trig(rng.normal(size=5) * amplitude)
    noise = [
        (trig(rng.normal(size=5) * amplitude), trig(rng.normal(size=5) * amplitude))
        for _ in range(3)
    ]

    def make_y(sheet):
        u_s = u_trace(sheet)
        na, nb = noise[sheet]

        def y(polar, dirs):
            u = np.asarray(polar, dtype=float) / uppers[sheet]
            th = theta_of(dirs)
            fade = u**2 * (1.0 - u**2)
            a = -(u**2) * u_s(th) + fade * na(th)
            bcomp = u**2 * b_gamma(th) + fade * nb(th)
            e_pol, e_th = sheet_unit_tangents(bubble, sheet, polar, dirs)
            # the inward conormal is -e_pol, so <Y, nu> = -a at the neck
            return a[..., None] * e_pol + bcomp[..., None] * e_th

        return y

    y_funcs = tuple(make_y(s) for s in range(3))
    raw = PerturbationField(bubble, w_funcs, y_funcs, name="random-admissible")
    # normalize so `amplitude` is the actual sup norm (the junction relations
    # are linear, so a global rescale stays admissible)
    return raw.scaled(amplitude / max(raw.sup_amplitude(), 1e-300))
