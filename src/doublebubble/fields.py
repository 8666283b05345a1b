"""Admissible perturbations of standard double bubbles and their expansions.

A perturbation displaces each sheet point x to x + w(x) N(x) + Y(x) with a
scalar normal amplitude w and a tangential field Y.  Admissibility means the
three sheets keep a common boundary:

  w1 = w0 + w2 on the neck, the conormal components u_s = <Y_s, nu_s> obey
  u0 = (w0 + 2 w2)/sqrt3, u1 = (w0 - w2)/sqrt3, u2 = -(2 w0 + w2)/sqrt3,

and the neck-tangential parts of the Y_s agree.  Fields are represented by
closed-form callables (polar, dirs) -> values per sheet, so they can be
sampled on any grid and differentiated in their parameters.

Sheet data live in the flat parameters z = (polar, angles) of
geometry.flat_rule: the flat tangents, metric and Christoffels there are
closed form (geometry.sheet_tangents and flat_metric).  The field's first
derivatives are complex-step jets (field_jet): d_b f = Im f(z + i h e_b) / h,
exact to roundoff, which asks the field's callables to be analytic in
complex parameters (PerturbationField).  The same analyticity gives the
Hessian of w (field_hessian): the trapezoid rule of Cauchy's integral on
small circles in the complex parameter plane, again with no step to tune.
displaced_point_z is the flat point x alone: a field displaces it
linearly, as x + s D with the jets of _sheet_jet at the oracle's
quadrature nodes (measure._embed).

The perturbed first/second fundamental form, mean curvature, area and volume
expansions below are the closed forms the numerical oracle is checked
against; curvature enters through frame components of the ambient Riemann
tensor at the center point (charts.CurvatureAtPoint).  The first-order area
and volume responses are the first variations along D = w N + Y, sums over
the jets (x, d_z x, D, d_z D) of _sheet_jet, the package's one jet
builder, at flat_rule nodes: a FlatModel's, so verify_many evaluates its
field once per sheet, or the field's own on RESPONSE_GRID.

The linearized junction problem (Jacobi operator, neck trace and
equiangularity rows) decouples by spherical-harmonic degree k: jacobi_block
is its matrix per k at any m on flat_rule's polar nodes, by spectral
collocation in the Lagrange basis that the grid interpolant uses
(geometry._lagrange), field_modes an m = 2 field's amplitudes per k on the
flat_rule grid, and the Killing fields (killing_basis) span the kernel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .charts import CurvatureAtPoint
from .geometry import (
    BubbleParams,
    StandardBubble,
    _inexact,
    _lagrange,
    _normal_at,
    _tangent_rows,
    angles_to_dirs,
    flat_metric,
    flat_rule,
    gauss_legendre,
    sheet_normal,
    sheet_point,
    sheet_tangents,
)

SQRT3 = math.sqrt(3.0)
# polar x sphere grid of the first-order area and volume responses of a
# field given alone (verify_many passes the jets of its own grid)
RESPONSE_GRID = (32, 64)
# polar nodes of the grid on which sup_amplitude samples a field
SUP_NODES = 12
# angles per turn on which field_modes samples a field
MODE_ANGLES = 64
# nodes and radius of the field Hessian's Cauchy contour: 16 nodes put the
# aliased Taylor term below roundoff (8 leave 2e-8), and radii from 0.05 to
# 0.3 give the same Hessian to 5e-14
CONTOUR_NODES = 16
CONTOUR_RADIUS = 0.1
# imaginary step of the complex-step field jets: the O(h^2) change of a
# shifted value's real part lies far below its ulp, and its O(h) imaginary
# part far above the smallest normal double
CSTEP = 1e-30


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
    neck grid, so that the reconstructed displacements w_s N_s + u_s nu_s
    agree across the three sheets.
    """
    w0 = _inexact(w0_trace)
    w2 = _inexact(w2_trace)
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


# ---------------------------------------------------------------------------
# perturbation fields


@dataclass(frozen=True)
class PerturbationField:
    """Per-sheet normal amplitudes w_s and tangential fields Y_s as callables.

    w callables map (polar, dirs) -> (N,); y callables map (polar, dirs) ->
    (N, m+1) ambient vectors tangent to the sheet, or None for zero.  `scale`
    multiplies both on evaluation, so rho-dependent sweeps reuse one field.

    The callables must take complex parameters and be analytic in them: the
    field's first derivatives are complex-step jets (field_jet), and the
    Hessian of w a Cauchy contour (field_hessian), which evaluates w up to
    CONTOUR_RADIUS sqrt2 off each real parameter point, so w must be
    analytic in that disc around every sample (the random admissible fields
    and the Killing fields are entire).  So they use no arctan2, abs,
    np.linalg.norm or cast to float; the angle's modes come from the
    directions themselves (cos th = dirs[0], sin th = dirs[1]).  A cast that
    drops the imaginary part raises ValueError naming the sheet.

    unit_sup, when known, is the sup_amplitude of the callables at scale 1
    (random_admissible_field records the one it normalizes by); scaled and
    dataclasses.replace keep it, so the field is sampled once.
    """

    bubble: StandardBubble
    w_funcs: tuple
    y_funcs: tuple = (None, None, None)
    scale: float = 1.0
    name: str = ""
    unit_sup: float | None = None

    def w(self, sheet: int, polar, dirs):
        fn = self.w_funcs[sheet]
        if fn is None:
            return np.zeros(np.shape(np.asarray(polar)))
        return _inexact(fn(polar, dirs)) * self.scale

    def y(self, sheet: int, polar, dirs):
        fn = self.y_funcs[sheet]
        n = self.bubble.m + 1
        if fn is None:
            return np.zeros(np.shape(np.asarray(polar)) + (n,))
        return _inexact(fn(polar, dirs)) * self.scale

    def scaled(self, factor: float) -> "PerturbationField":
        return replace(self, scale=self.scale * factor)

    def sup_amplitude(self) -> float:
        """sup of |w| and |Y| over the sheets, sampled on a flat_rule grid of
        SUP_NODES polar nodes; with unit_sup known, |scale| times it, bit for
        bit the sampled value, rounding being monotone."""
        if self.unit_sup is not None:
            return abs(self.scale) * self.unit_sup
        sup = 0.0
        for s in range(3):
            z, dirs, _ = flat_rule(self.bubble.m, self.bubble.polar_limit(s), (SUP_NODES, 2 * SUP_NODES))
            sup = max(sup, float(np.abs(self.w(s, z[:, 0], dirs)).max()))
            sup = max(sup, float(np.abs(self.y(s, z[:, 0], dirs)).max()))
        return sup


def admissibility_bound(bubble: StandardBubble) -> float:
    """Default ceiling 0.1 * min R_s; the expansions are asymptotic and larger
    fields would leave their regime."""
    return 0.1 * min(r for r in bubble.radii if math.isfinite(r))


def check_admissible(field: PerturbationField) -> None:
    """Raise ValueError when the field's sup amplitude exceeds
    admissibility_bound."""
    sup = field.sup_amplitude()
    delta = admissibility_bound(field.bubble)
    if sup > delta:
        raise ValueError(f"field amplitude {sup:.3e} exceeds admissibility bound {delta:.3e}")


# ---------------------------------------------------------------------------
# flat sheet parametrization and derivatives in parameters z = (polar, angles)


def displaced_point_z(bubble: StandardBubble, sheet: int, z: np.ndarray) -> np.ndarray:
    """The flat sheet point x at parameters z = (polar, angles) (..., m);
    a field displaces it linearly, as x + s D from _sheet_jet."""
    z = np.asarray(z, dtype=float)
    return sheet_point(bubble, sheet, z[..., 0], angles_to_dirs(bubble.m, z[..., 1:]))


def _analytic(fun, z: np.ndarray, sheet: int) -> np.ndarray:
    """fun at complex parameters z of a sheet.  A ComplexWarning, a cast
    that dropped the imaginary part and would leave wrong derivatives,
    raises ValueError naming the sheet."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            return np.asarray(fun(z))
        except np.exceptions.ComplexWarning as exc:
            raise ValueError(f"field on sheet {sheet} is not analytic in its parameters: {exc}") from None


def field_jet(fun, z: np.ndarray, sheet: int) -> tuple:
    """(f, d_z f) of a field function fun at real parameters z (..., m) of a
    sheet by complex step: d_b f = Im f(z + i h e_b) / h with h = CSTEP,
    exact to roundoff with no step to tune, and f the real part of the b = 0
    value.  fun sees the m shifted points in one call, stacked on a new
    leading axis; the derivative axis follows the batch axes of z.  fun must
    be analytic (see PerturbationField and _analytic)."""
    z = np.asarray(z, dtype=float)
    m = z.shape[-1]
    shifts = (1j * CSTEP * np.eye(m)).reshape((m,) + (1,) * (z.ndim - 1) + (m,))
    f = _analytic(fun, z + shifts, sheet)
    return f[0].real.copy(), np.moveaxis(f.imag, 0, z.ndim - 1) / CSTEP


def field_hessian(fun, z: np.ndarray, sheet: int) -> np.ndarray:
    """d_a d_b f (..., m, m) of a field function fun at real parameters z
    (..., m) of a sheet by Cauchy contours (Lyness and Moler 1967): along a
    direction v, d_v d_v f = (2 / (N r^2)) Re sum_k f(z + r om^k v) om^(-2k)
    with om = exp(2 pi i / N), N = CONTOUR_NODES and r = CONTOUR_RADIUS,
    the trapezoid rule of Cauchy's integral for the second Taylor
    coefficient, whose error is r^N times the coefficient of order N + 2.
    The directions are the axes e_a and, for the mixed entries by
    polarization, e_a + e_b.  fun is real at real parameters, so the nodes
    k = 0 .. N/2 suffice, the inner ones counted twice for their conjugates.
    fun sees every node and direction in one call, stacked on two new
    leading axes, and must be analytic within r sqrt2 of each point (see
    PerturbationField and _analytic); the derivative axes follow the batch
    axes of z."""
    z = np.asarray(z, dtype=float)
    m = z.shape[-1]
    eye = np.eye(m)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    dirs = np.array(list(eye) + [eye[a] + eye[b] for a, b in pairs])
    k = np.arange(CONTOUR_NODES // 2 + 1)
    angle = 2.0 * math.pi * k / CONTOUR_NODES
    weights = np.where((k == 0) | (k == CONTOUR_NODES // 2), 1.0, 2.0) * np.exp(-2j * angle)
    shifts = CONTOUR_RADIUS * np.exp(1j * angle)[:, None, None] * dirs
    f = _analytic(fun, z + shifts.reshape(shifts.shape[:2] + (1,) * (z.ndim - 1) + (m,)), sheet)
    second = np.tensordot(weights, f, axes=(0, 0)).real * (2.0 / (CONTOUR_NODES * CONTOUR_RADIUS**2))
    hess = np.empty((m, m) + second.shape[1:])
    for a in range(m):
        hess[a, a] = second[a]
    for (a, b), along in zip(pairs, second[m:]):
        hess[a, b] = hess[b, a] = 0.5 * (along - second[a] - second[b])
    return np.moveaxis(hess, (0, 1), (z.ndim - 1, z.ndim))


def _sheet_jet(bubble: StandardBubble, sheet: int, z: np.ndarray, field) -> tuple:
    """(x, d_z x, D, d_z D) of a sheet at parameters z (N, m): the flat points
    (N, n) and their closed-form tangents (N, m, n), and the displacement
    D = w N + Y of the field with its derivatives, one complex-step jet
    (field_jet; None, None without a field)."""
    x, dx = displaced_point_z(bubble, sheet, z), sheet_tangents(bubble, sheet, z)
    if field is None:
        return x, dx, None, None

    def displacement(zz):
        polar, dirs = zz[..., 0], angles_to_dirs(bubble.m, zz[..., 1:])
        normal = sheet_normal(bubble, sheet, polar, dirs)
        return field.w(sheet, polar, dirs)[..., None] * normal + field.y(sheet, polar, dirs)

    return (x, dx) + field_jet(displacement, z, sheet)


class SheetPointData:
    """Flat geometry and field data at parameter points z (N, m) of one sheet.

    The flat positions x, normals, tangents d_z x (geometry.sheet_tangents),
    first form g, its inverse and the Christoffels gamma[k, i, j] in z
    (flat_metric) are closed form; g is diagonal, so its inverse is the
    reciprocal of the diagonal.  The field's data are evaluated on first
    use, so each caller pays only for what it reads: w (N,) by one real
    evaluation, dw (N, m) and (yvec (N, n), dy (N, m, n)) by complex-step
    jets (field_jet), and the Hessian d2w (N, m, m) by Cauchy contours
    (field_hessian).  Without a field all of them are zero.
    """

    def __init__(self, bubble: StandardBubble, sheet: int, z: np.ndarray, field=None):
        self.bubble, self.sheet, self.z = bubble, sheet, np.asarray(z, dtype=float)
        self.field = PerturbationField(bubble, (None, None, None)) if field is None else field
        self.x = displaced_point_z(bubble, sheet, self.z)
        self.normal = _normal_at(bubble, sheet, self.x)
        self.tangents = sheet_tangents(bubble, sheet, self.z)
        self.g, self.gamma = flat_metric(bubble, sheet, self.z)
        diag = np.arange(bubble.m)
        self.ginv = np.zeros_like(self.g)
        self.ginv[..., diag, diag] = 1.0 / self.g[..., diag, diag]

    def _w(self, zz):
        return self.field.w(self.sheet, zz[..., 0], angles_to_dirs(self.bubble.m, zz[..., 1:]))

    def _y(self, zz):
        return self.field.y(self.sheet, zz[..., 0], angles_to_dirs(self.bubble.m, zz[..., 1:]))

    @cached_property
    def w(self) -> np.ndarray:
        return self._w(self.z)

    @cached_property
    def dw(self) -> np.ndarray:
        return field_jet(self._w, self.z, self.sheet)[1]

    @cached_property
    def d2w(self) -> np.ndarray:
        return field_hessian(self._w, self.z, self.sheet)

    @cached_property
    def _y_jet(self) -> tuple:
        return field_jet(self._y, self.z, self.sheet)

    @property
    def yvec(self) -> np.ndarray:
        return self._y_jet[0]

    @property
    def dy(self) -> np.ndarray:
        return self._y_jet[1]


def covariant_hessian(data: SheetPointData) -> np.ndarray:
    return data.d2w - np.einsum("...kij,...k->...ij", data.gamma, data.dw)


def laplace_beltrami(data: SheetPointData) -> np.ndarray:
    """Delta_Sigma w at the data points: the trace of the covariant Hessian."""
    return np.einsum("...ij,...ij->...", data.ginv, covariant_hessian(data))


# ---------------------------------------------------------------------------
# perturbed fundamental forms and mean curvature (closed-form expansions)


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
    d = SheetPointData(bubble, sheet, z, field)
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
    d = SheetPointData(bubble, sheet, z, field)
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


def mean_curvature_terms(
    bubble: StandardBubble,
    sheet: int,
    curv: CurvatureAtPoint,
    z: np.ndarray,
    field: PerturbationField | None = None,
) -> tuple:
    """The closed-form scaled mean curvature at z in three parts, (const,
    curvature, field), that perturbed_mean_curvature combines at rho as
    const + rho^2 curvature + field:

    Cap:  m,  -Ric(x,x)/3 + (2/3) Ric(C,x) + ((m+2)/(6 R^2)) Rm(x,C,x,C),
          R Delta w + (m/R) w;
    Disk: 0,  (2/3) Ric(x, N),  Delta w.

    None of them depends on rho, and the field part is linear in the field:
    perturbed_mean_curvature and verify_many take it of the field at scale
    1 and add s times it at field scale s, so a sweep computes all three
    once.
    """
    d = SheetPointData(bubble, sheet, z, field)
    m = bubble.m
    x = d.x
    lap = laplace_beltrami(d)
    if sheet == 0 and bubble.symmetric:
        return 0.0, (2.0 / 3.0) * np.einsum("...i,...j,ij->...", x, d.normal, curv.ricci), lap
    r_s = bubble.radii[sheet]
    cvec = np.zeros(m + 1)
    cvec[-1] = bubble.centers[sheet]
    ric_xx = np.einsum("...i,...j,ij->...", x, x, curv.ricci)
    ric_cx = np.einsum("i,...j,ij->...", cvec, x, curv.ricci)
    w_xc = np.einsum("...a,b,...c,d,abcd->...", x, cvec, x, cvec, curv.riemann)
    quad = -ric_xx / 3.0 + (2.0 / 3.0) * ric_cx + ((m + 2) / (6.0 * r_s**2)) * w_xc
    return float(m), quad, r_s * lap + (m / r_s) * d.w


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
    tangential field Y drops out at these orders.  The parts come from
    mean_curvature_terms, the field part of the field at scale 1 times the
    field's scale.
    """
    unit = None if field is None else replace(field, scale=1.0)
    const, quad, lin = mean_curvature_terms(bubble, sheet, curv, z, unit)
    return const + rho**2 * quad + (0.0 if field is None else field.scale) * lin


# ---------------------------------------------------------------------------
# first-order area and volume corrections


def _first_variation_densities(bubble: StandardBubble, field: PerturbationField, jets) -> list:
    """Per sheet (dmu, g_ii, x, d_z x, D, d_z D) at flat_rule nodes: the
    field's jets with the nodes' measure dmu = w sqrt(det g) and the
    diagonal g_ii of the flat first form g_ij = <d_i x, d_j x>, which the
    orthogonal parameters z make diagonal, so g^ij = delta_ij / g_ii.  jets
    gives per sheet (flat_rule weights w, _sheet_jet of the field at those
    nodes), as verify_many takes them from its FlatModel's sheets; without
    it the jets are the field's own on RESPONSE_GRID."""
    if jets is None:
        jets = []
        for s in range(3):
            z, _, weights = flat_rule(bubble.m, bubble.polar_limit(s), RESPONSE_GRID)
            jets.append((weights, _sheet_jet(bubble, s, z, field)))
    out = []
    for weights, (x, dx, d, dd) in jets:
        gii = np.einsum("...ik,...ik->...i", dx, dx)
        out.append((weights * np.sqrt(np.prod(gii, axis=-1)), gii, x, dx, d, dd))
    return out


def first_order_area_corrections(bubble: StandardBubble, field: PerturbationField, jets=None) -> np.ndarray:
    """Per-sheet first-order area shifts (rho^-m normalization): the first
    variation of area along the displacement D = w N + Y,

        int div_Sigma D dmu = int g^ij <d_i D, d_j x> dmu

    (Simon, Lectures on Geometric Measure Theory, 9; Maggi, Sets of Finite
    Perimeter, 17) over the field's jets (_first_variation_densities).
    Since d_i N = -d_i x / R on a cap and 0 on the flat disk, this is
    -int (m w/R - div Y) dmu on caps and int div Y dmu on the disk.
    """
    out = np.zeros(3)
    for s, (dmu, gii, _, dx, _, dd) in enumerate(_first_variation_densities(bubble, field, jets)):
        out[s] = float(np.sum(dmu * np.sum(np.einsum("...ik,...ik->...i", dd, dx) / gii, axis=-1)))
    return out


def perturbed_area_expansion(
    bubble: StandardBubble,
    field: PerturbationField,
    sc: float,
    ric_ss: float,
    rho: float,
) -> np.ndarray:
    """Per-sheet rho^-m areas of the perturbed bubble through first field order."""
    from .expansions import sheet_area_expansion

    corr = first_order_area_corrections(bubble, field)
    return np.array(
        [sheet_area_expansion(bubble, s).value(sc, ric_ss, rho) + corr[s] for s in range(3)]
    )


def first_order_volume_corrections(
    bubble: StandardBubble, field: PerturbationField, jets=None
) -> tuple[float, float]:
    """First-order shifts of rho^-(m+1) (V1, V2) under the displacement field.

    The first variation of a chamber's volume is the flux int <D, N> dmu of
    the displacement through its boundary; with I_s = int_S_s <D, N_s> dmu,

        dV1 = -I1 - I0,   dV2 = -I2 + I0,

    the signs following the normal conventions (N into B1 on sheets 0, 1 and
    into B2 on sheet 2).  Only the normal part w = <D, N> enters: tangential
    fields move the neck but not the volume at first order.  The sums run
    over the same jets as first_order_area_corrections.
    """
    ints = np.zeros(3)
    for s, (dmu, _, x, _, d, _) in enumerate(_first_variation_densities(bubble, field, jets)):
        ints[s] = float(np.sum(dmu * np.einsum("...k,...k->...", d, _normal_at(bubble, s, x))))
    dv1 = -ints[1] - ints[0]
    dv2 = -ints[2] + ints[0]
    return dv1, dv2


def perturbed_volume_expansion(
    bubble: StandardBubble,
    field: PerturbationField,
    sc: float,
    ric_ss: float,
    rho: float,
) -> tuple[float, float]:
    """rho^-(m+1) (V1, V2) of the perturbed bubble through first field order."""
    from .expansions import geodesic_volumes_expansion

    t1, t2 = geodesic_volumes_expansion(bubble)
    dv1, dv2 = first_order_volume_corrections(bubble, field)
    return t1.value(sc, ric_ss, rho) + dv1, t2.value(sc, ric_ss, rho) + dv2


# ---------------------------------------------------------------------------
# the linearized junction problem, one block per harmonic degree


def jacobi_block(bubble: StandardBubble, k: int, n_polar: int) -> np.ndarray:
    """The linearized junction problem in spherical-harmonic degree k.

    Acts on one degree-k harmonic's amplitudes at the three sheets' polar
    nodes of flat_rule, 0.5 polar_limit(s) (t + 1) at the n_polar
    Gauss-Legendre nodes t, sheet after sheet.  The (3n + 3, 3n) matrix has
    the rows

      R Delta w + (m/R) w on caps, Delta w on the symmetric disk, with the
        angular part of Delta -k(k+m-2)/sin^2(polar) (/polar^2 on the disk);
      the neck trace w1 - w0 - w2;
      the equiangularity balances e0 = dw0/dnu0 + r0 w0 + dw1/dnu1 + r1 w1
        and e2 = dw1/dnu1 + r1 w1 + dw2/dnu2 + r2 w2,

    nu_s the inward unit conormal (arclength R dpolar on caps, dpolar on the
    disk) and r_s the Robin coefficients of coupling_constants.  The
    derivatives are spectral collocation on the nodes, the differentiation
    matrix of their Lagrange basis (geometry._lagrange) and its square, and
    the neck rows the basis and its derivative at the neck.  The pole is no
    node and needs no condition: the polynomial basis keeps only the
    solution bounded there (Boyd, Chebyshev and Fourier Spectral Methods,
    2001, ch. 6).  Its kernel holds the degree-k parts of the Killing
    fields: one axial translation at k = 0, a translation and a tilt at
    k = 1.
    """
    if k < 0 or n_polar < 1:
        raise ValueError(f"need degree k >= 0 and n_polar >= 1, got {k}, {n_polar}")
    m, n = bubble.m, n_polar
    angular = k * (k + m - 2)
    robin = coupling_constants(bubble.params).robin
    t, _ = gauss_legendre(n)
    dt = _lagrange(n, t)[1]
    (value,), (dvalue,) = _lagrange(n, [1.0])
    out = np.zeros((3 * n + 3, 3 * n))
    for s in range(3):
        upper = bubble.polar_limit(s)
        pol = 0.5 * upper * (t + 1.0)
        d1 = dt * (2.0 / upper)
        d2 = d1 @ d1
        cols = slice(s * n, (s + 1) * n)
        if s == 0 and bubble.symmetric:
            scale = 1.0
            out[cols, cols] = d2 + ((m - 1) / pol)[:, None] * d1 - np.diag(angular / pol**2)
        else:
            scale = bubble.radii[s]
            lap = d2 + ((m - 1) / np.tan(pol))[:, None] * d1 - np.diag(angular / np.sin(pol) ** 2)
            out[cols, cols] = lap / scale + np.diag(np.full(n, m / scale))
        balance = -dvalue * (2.0 / upper) / scale + robin[s] * value
        out[3 * n, cols] = value if s == 1 else -value
        if s < 2:
            out[3 * n + 1, cols] += balance
        if s > 0:
            out[3 * n + 2, cols] += balance
    return out


def field_modes(field: PerturbationField, n_polar: int) -> np.ndarray:
    """Degree-k cos and sin amplitudes of an m = 2 field's w_s on the nodes of
    jacobi_block: (MODE_ANGLES // 2, 3 n_polar, 2), from a real FFT over the
    MODE_ANGLES equispaced angles of flat_rule(2, polar_limit(s), (n_polar,
    MODE_ANGLES)).  jacobi_block(bubble, k, n_polar) @ field_modes(field,
    n_polar)[k] are the field's residuals in degree k."""
    b = field.bubble
    if b.m != 2:
        raise ValueError("field modes are implemented for m = 2")
    w = []
    for s in range(3):
        z, dirs, _ = flat_rule(2, b.polar_limit(s), (n_polar, MODE_ANGLES))
        w.append(field.w(s, z[:, 0], dirs).reshape(n_polar, MODE_ANGLES))
    c = np.fft.rfft(np.concatenate(w), axis=1)[:, : MODE_ANGLES // 2] * (2.0 / MODE_ANGLES)
    c[:, 0] /= 2.0
    return np.stack([c.real, -c.imag], axis=-1).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Killing kernel fields


def _ambient_killing(bubble: StandardBubble, generator):
    """The vector field Xi(x) of a generator descriptor: ("translation",
    vector) or ("rotation", i) rotating the axis toward coordinate i < m."""
    kind, data = generator
    n = bubble.m + 1
    if kind == "translation":
        e = np.asarray(data, dtype=float)
        if e.shape != (n,):
            raise ValueError(f"translation vector must have length {n}")
        return lambda x: np.broadcast_to(e, np.shape(x)).copy()
    if kind == "rotation":
        i = int(data)
        if not 0 <= i < bubble.m:
            raise ValueError(f"rotation index must lie in [0, {bubble.m})")
        jmat = np.zeros((n, n))
        jmat[i, -1] = 1.0
        jmat[-1, i] = -1.0
        return lambda x: np.asarray(x) @ jmat.T
    raise ValueError(f"unknown generator kind {kind!r}")


def killing_kernel_field(bubble: StandardBubble, generator) -> PerturbationField:
    """Normal parts w_s = <Xi, N_s> of an ambient Killing field Xi.

    These satisfy the Jacobi equation, the junction condition w1 = w0 + w2
    (because N1 = N0 + N2 on the neck) and the linearized equiangularity
    system.
    """
    xi = _ambient_killing(bubble, generator)

    def make_w(sheet):
        def w(polar, dirs):
            x = sheet_point(bubble, sheet, polar, dirs)
            return np.einsum("...k,...k->...", xi(x), sheet_normal(bubble, sheet, polar, dirs))

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


def sheet_unit_tangents(bubble: StandardBubble, sheet: int, polar, dirs):
    """Unit tangents (e_polar, e_angle) of a sheet for m = 2: the rows of
    geometry.sheet_tangents at the directions with their lengths factored
    out in closed form (geometry._tangent_rows, unit=True), so complex
    parameters pass without a square root."""
    if bubble.m != 2:
        raise ValueError("unit tangents are implemented for m = 2")
    dirs = _inexact(dirs)
    polar = np.broadcast_to(_inexact(polar), dirs.shape[:-1])
    rows = _tangent_rows(bubble, sheet, polar, dirs, unit=True)
    return rows[..., 0, :], rows[..., 1, :]


def random_admissible_field(
    bubble: StandardBubble, rng: np.random.Generator, amplitude: float = 1.0
) -> PerturbationField:
    """A smooth admissible field from random low-order profiles (m = 2).

    Normal parts: w0, w2 are free smooth fields; w1 interpolates to the trace
    w0 + w2 on the neck.  Tangential parts carry the conormal components u_s
    that admissible_closure assigns to the neck traces of w0 and w2, plus a
    common neck-tangential trace,
    all built from polynomials in the normalized polar parameter times low
    trigonometric modes (mode k enters with a factor u^k, keeping the fields
    smooth across the pole).
    """
    if bubble.m != 2:
        raise ValueError("random admissible fields are implemented for m = 2")

    def modes(dirs):
        # cos th, sin th, cos 2th, sin 2th of the directions' angle th, from
        # the directions (d0, d1) = (cos th, sin th), once per field
        # evaluation for every profile that reads them
        d0, d1 = np.moveaxis(_inexact(dirs), -1, 0)
        return d0, d1, d0 * d0 - d1 * d1, 2.0 * d0 * d1

    def trig(c):
        def t(md):
            c1, s1, c2, s2 = md
            return c[0] + c[1] * c1 + c[2] * s1 + c[3] * c2 + c[4] * s2

        return t

    def smooth_scalar(c):
        # c: (3, 5); smooth field on a sheet in (u, theta), theta by its modes
        def f(u, md):
            c1, s1, c2, s2 = md
            return (
                c[0, 0] + c[0, 1] * u**2 + c[0, 2] * u**4
                + u * (c[1, 0] * c1 + c[1, 1] * s1) * (1.0 + c[1, 2] * u**2)
                + u**2 * (c[2, 0] * c2 + c[2, 1] * s2)
            )

        return f

    uppers = [bubble.polar_limit(s) for s in range(3)]
    w0f = smooth_scalar(rng.normal(size=(3, 5)) * amplitude)
    w2f = smooth_scalar(rng.normal(size=(3, 5)) * amplitude)
    w1_int = smooth_scalar(rng.normal(size=(3, 5)) * amplitude)

    def make_w(sheet):
        if sheet == 0:
            return lambda polar, dirs: w0f(np.asarray(polar) / uppers[0], modes(dirs))
        if sheet == 2:
            return lambda polar, dirs: w2f(np.asarray(polar) / uppers[2], modes(dirs))

        def w1(polar, dirs):
            u = np.asarray(polar) / uppers[1]
            md = modes(dirs)
            trace = w0f(1.0, md) + w2f(1.0, md)
            return u**2 * trace + (1.0 - u**2) * w1_int(u, md)

        return w1

    w_funcs = tuple(make_w(s) for s in range(3))

    b_gamma = trig(rng.normal(size=5) * amplitude)
    noise = [
        (trig(rng.normal(size=5) * amplitude), trig(rng.normal(size=5) * amplitude))
        for _ in range(3)
    ]

    def make_y(sheet):
        na, nb = noise[sheet]

        def y(polar, dirs):
            u = np.asarray(polar) / uppers[sheet]
            md = modes(dirs)
            # the conormal component the junction relations require on the neck
            u_s = admissible_closure(w0f(1.0, md), w2f(1.0, md))[f"u{sheet}"]
            fade = u**2 * (1.0 - u**2)
            a = -(u**2) * u_s + fade * na(md)
            bcomp = u**2 * b_gamma(md) + fade * nb(md)
            e_pol, e_th = sheet_unit_tangents(bubble, sheet, polar, dirs)
            # the inward conormal is -e_pol, so <Y, nu> = -a at the neck
            return a[..., None] * e_pol + bcomp[..., None] * e_th

        return y

    y_funcs = tuple(make_y(s) for s in range(3))
    raw = PerturbationField(bubble, w_funcs, y_funcs, name="random-admissible")
    # normalize so `amplitude` is the actual sup norm (the junction relations
    # are linear, so a global rescale stays admissible); the field keeps the
    # sup, so no later check samples it again
    sup = raw.sup_amplitude()
    return replace(raw, unit_sup=sup).scaled(amplitude / max(sup, 1e-300))
