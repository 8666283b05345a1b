"""Brute-force measurement of embedded geodesic double bubbles.

The oracle takes a chart, a base point with an orthonormal frame, a standard
bubble and a scale rho, maps the (possibly perturbed) flat model through the
exponential map and measures areas, enclosed volumes, mean curvature samples,
the junction conormal defect and the two-volume energy by quadrature of the
pushforward tangents and, for mean curvature and the conormals, their
interpolant on the quadrature grid.  Nothing here uses the closed-form
curvature expansions; those are *checked against* these numbers.

Sheets are sampled on the geometry.flat_rule grid of their parameters
z = (polar, angles).  The rho-independent half of the oracle, the flat
side, is a FlatModel: per sheet the node values of the flat points x, their
closed-form tangents d_z x (geometry.sheet_tangents), the field's
displacement D = w N + Y at scale 1 with d_z D from one complex-step jet of
the field alone (fields._sheet_jet, exact to roundoff), and the sheet's
orientation sign, constant on a flat sheet.  A bubble at field scale s
displaces its sheets linearly, y = x + s D with tangents d_z y = d_z x +
s d_z D, and every quantity reads one
primitive, _embed: it maps y through the exponential map, one geodesic per
node carrying one Jacobi field, and returns Y = Exp_p(rho E y) and T = d_z
Y: the polar column the Jacobi field rho dExp_p(rho E y) E d_polar y, and
the angle columns the straight chart ray's tangents rho E d_angle y plus
the angle derivative of the geodesic's bend Y - p - rho E y off that ray,
by the grid interpolant at the grid's own angles (trigonometric
differentiation along the equispaced angles, Trefethen, Spectral Methods
in MATLAB, 2000, ch. 3).  The bend is O(rho^2) against the ray's O(rho),
so the grid's rounding and truncation reach T that much smaller than they
would through d_z Y.
One such ray pass embeds the sheets (_embedded_sheets); the areas and the
volumes sum over its nodes, the mean curvature reads [Y, T] and d_z [Y, T]
anywhere on the sheets, the neck included, through the grid interpolant
(geometry.grid_interpolant: barycentric Lagrange in the polar parameter,
trigonometric in the angles), and the conormal defect reads [Y, T] at the
grid's own angles on the neck, through the polar factor alone.  The h rows'
unit normal is the cofactor of the tangents and takes its side from the
flat model, sign det[nu, T] = sign(det E) sign det[N, d_z x].  The ray pass
takes one bubble or a sequence of bubbles on one chart, frame and
FlatModel, at their own rho and field scale (verify_many's sweep), and
stacks the rays of every bubble on a new leading axis of one exp_map call:
every ray takes geodesic_steps steps to t = 1 whatever its rho, and the
interpolant is contracted one bubble at a time, so each bubble gets the
bits it gets alone.

Enclosed volumes are signed straight chart cones from the base point over
the embedded sheets; they integrate no geodesic.  sqrt(det G) is the
coordinate divergence of F(x) = (x - p) int_0^1 t^(n-1) sqrt(det G)(p + t
(x - p)) dt, so a chamber's volume is the flux of F through its boundary,
and through sheet s that flux is the cone (t, z) -> p + t (Y(z) - p), t in
[0, 1], with Jacobian t^m det[Y - p, T] sqrt(det G): the chart's
volume_element at sector_nodes Gauss-Legendre nodes in t (the chart box is
convex, so the segments stay in the domain).  Signed by the sheet's flat
orientation (normal N_s first) and by sign(det E), the cone is C_s, and the
chambers are V1 = -(C1 + C0) and V2 = C0 - C2, for the symmetric,
asymmetric and perturbed bubble alike (N_s points into B1 on sheets 0 and
1 and into B2 on sheet 2).

verify_many sweeps rho once.  It builds one FlatModel and on it the
EmbeddedBubble of every rho, measuring only the requested quantities: one
exp_map call embeds the sheets of every rho, each bubble's cache keeping its
slice, which every quantity reads; one mean-curvature pass and one conormal
pass interpolate them for every rho, and the volume cones stay per rho, so
that peak memory does not grow with the number of scales.  The expansions it compares with are built
once per sweep, and each quantity's claim (CLAIMS: its exact floor and
claimed remainder order, the areas' and volumes' read from those expansions)
turns the fit into a threshold and a verdict; the first-order field
responses are the first variations of area and volume along the FlatModel's
own unit-scale jets (fields.first_order_area_corrections and
first_order_volume_corrections), so the field is evaluated once per sheet.
They are linear in the rho^2-scaled field, so they are computed once for the
unscaled field and enter at rho as rho^2 * response, and so is the field
part of the closed-form mean curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expansions
from .charts import (
    DomainExit,
    MetricChart,
    OrthoFrame,
    _component_major,
    _det,
    _dot,
    christoffel,
    curvature_at,
    exp_map,
)
from .fields import (
    PerturbationField,
    check_admissible,
    first_order_area_corrections,
    first_order_volume_corrections,
    mean_curvature_terms,
    _sheet_jet,
)
from .geometry import (
    StandardBubble,
    _lagrange,
    _normal_at,
    flat_rule,
    gauss_legendre,
    grid_interpolant,
    node_angle_derivative,
)

# parameter points per sheet at which verify_many samples mean curvature
H_SAMPLES = 4


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares slope of log(error) against log(rho).

    threshold is the slope that verify_many's claim asks for (NaN from
    fit_order alone), and passed the verdict: an exact expansion, or a slope
    at or above the threshold.
    """

    rhos: tuple
    errors: tuple
    slope: float
    r_squared: float
    exact: bool = False
    threshold: float = math.nan

    @property
    def passed(self) -> bool:
        return self.exact or self.slope >= self.threshold


def fit_order(rhos, errors, floor: float = 0.0) -> ConvergenceFit:
    """Fit the convergence order of an error sweep.

    Requires at least 3 strictly decreasing rhos.  Errors all at or below
    `floor` signal an exact expansion and are reported with an infinite
    slope sentinel rather than fitted.  Otherwise the sweep is not exact,
    and the fit takes the errors above the floor, which alone carry an
    order: with fewer than 3 of them its slope and r^2 are NaN, so it fails.
    """
    rhos = [float(r) for r in rhos]
    errors = [float(e) for e in errors]
    if len(rhos) < 3 or len(rhos) != len(errors):
        raise ValueError("need at least 3 (rho, error) pairs")
    if any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])):
        raise ValueError("rhos must be strictly decreasing")
    above = [(r, e) for r, e in zip(rhos, errors) if e > floor]
    if not above:
        return ConvergenceFit(tuple(rhos), tuple(errors), math.inf, 1.0, exact=True)
    if len(above) < 3:
        return ConvergenceFit(tuple(rhos), tuple(errors), math.nan, math.nan)
    lx, ly = np.log(np.array(above)).T
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ConvergenceFit(tuple(rhos), tuple(errors), float(slope), r2)


# ---------------------------------------------------------------------------
# embedded bubbles


def _model_spec(bubble, perturbation, grid, geodesic_steps, sector_nodes) -> tuple:
    funcs = None if perturbation is None else (perturbation.w_funcs, perturbation.y_funcs)
    return bubble, funcs, tuple(grid), geodesic_steps, sector_nodes


class _FlatSheet(NamedTuple):
    """One sheet of a FlatModel."""

    z: np.ndarray  # flat_rule nodes (N, m)
    w: np.ndarray  # and weights (N,)
    jet: tuple  # the _sheet_jet at the nodes
    orient: float  # sign of the flat-model determinant [N, d_z x], one per sheet


class FlatModel:
    """The rho-independent half of the oracle: the flat model of a bubble and
    a field at one resolution, which every EmbeddedBubble built on it maps
    through the exponential map at its own rho and field scale.

    sheets holds one _FlatSheet per sheet: as node values the flat_rule
    nodes and weights, the flat points with their closed-form tangents
    (geometry.sheet_tangents) and the field's displacement w N + Y at scale
    1 with its complex-step derivatives, and the sheet's one orientation
    sign, which signs its volume cone and its h-row normals;
    angle_derivative the angle derivative at those nodes, which the three
    sheets share.  They are built on first use, and every
    rho of a verify_many sweep reads one model, as do the sweep's first-order
    responses (the sheets' weights and jets).  Every quantity reads the
    sheets embedded at these nodes; the mean curvature reads them off the
    nodes through the grid interpolant, the conormal defect at the neck.
    """

    def __init__(self, bubble, perturbation, grid, geodesic_steps, sector_nodes):
        self.spec = _model_spec(bubble, perturbation, grid, geodesic_steps, sector_nodes)
        self.bubble, _, self.grid, self.geodesic_steps, self.sector_nodes = self.spec
        # the field at scale 1, carrying its sup_amplitude for check_admissible
        self.field = None
        if perturbation is not None:
            field = replace(perturbation, scale=1.0)
            self.field = replace(field, unit_sup=field.sup_amplitude())

    @cached_property
    def sheets(self) -> list:
        return [self._sheet(s) for s in range(3)]

    @cached_property
    def angle_derivative(self):
        """geometry.node_angle_derivative of the sheets' shared angles."""
        return node_angle_derivative(self.bubble.m, self.grid[1])

    def _sheet(self, sheet: int) -> _FlatSheet:
        b = self.bubble
        z, _, w = flat_rule(b.m, b.polar_limit(sheet), self.grid)
        jet = _sheet_jet(b, sheet, z, self.field)
        # the sign is constant on a sheet, so one node gives it
        return _FlatSheet(z, w, jet, float(_orientation(b, sheet, jet[0][:1], jet[1][:1])[0]))


def _orientation(bubble: StandardBubble, sheet: int, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """sign det[N, d_z x] (N,) of a flat sheet at its points x (N, n) with
    the tangents d_z x (N, m, n): the orientation that signs the volume
    cones and the normals of the second fundamental form, one sign on each
    sheet (FlatModel)."""
    nrm = _normal_at(bubble, sheet, x)
    return np.sign(_det(np.concatenate([nrm.T[:, None], np.transpose(dx)], axis=1)))


class EmbeddedBubble:
    """Geodesic image of a (possibly perturbed) standard bubble in a chart.

    grid = (n_polar, n_sphere) controls the quadrature resolution of the
    sheets, which the areas and the volume cones share; sector_nodes the
    Gauss-Legendre order of the cones along their straight chart segments;
    geodesic_steps the RK4 steps of one geodesic of the exponential map.
    The field's first derivatives take no step (FlatModel).

    The flat side comes from a FlatModel of the bubble, the field and these
    settings, `model` when given (verify_many shares one over its sweep),
    else the bubble's own; the settings are read from the model, which
    checks them.  With the field scale s, the displaced sheet is x + s D and
    its tangents d_z x + s d_z D, from the model's flat sheet x and unit-scale
    displacement D (_displaced).
    """

    def __init__(
        self,
        chart: MetricChart,
        frame: OrthoFrame,
        bubble: StandardBubble,
        rho: float,
        perturbation: PerturbationField | None = None,
        grid: tuple[int, int] = (64, 128),
        geodesic_steps: int = 200,
        sector_nodes: int = 16,
        model: FlatModel | None = None,
    ):
        if rho <= 0.0:
            raise ValueError("rho must be positive")
        extent = max(abs(c) + r for c, r in zip(bubble.centers[1:], bubble.radii[1:]))
        lo = np.min(frame.base - chart.domain.lo)
        hi = np.min(chart.domain.hi - frame.base)
        # crude clearance bound: chart displacement is comparable to rho * extent
        if rho * extent * 1.5 > min(lo, hi):
            raise DomainExit(
                f"bubble of extent {extent:.3f} at rho={rho} does not fit the chart domain"
            )
        if model is None:
            model = FlatModel(bubble, perturbation, grid, geodesic_steps, sector_nodes)
        elif model.spec != _model_spec(bubble, perturbation, grid, geodesic_steps, sector_nodes):
            raise ValueError("the flat model belongs to another bubble, field or resolution")
        if perturbation is not None:
            check_admissible(model.field.scaled(perturbation.scale))
        self.chart = chart
        self.frame = frame
        self.bubble = bubble
        self.rho = float(rho)
        self.perturbation = perturbation
        self.model = model
        self._sheet_cache: dict = {}


# ---------------------------------------------------------------------------
# measurements


def _displaced(eb: EmbeddedBubble, jet: tuple):
    """(y (N, n), d_z y (N, m, n)) of the displaced sheet x + s D of a
    _sheet_jet at the bubble's field scale s."""
    x, dx, d, dd = jet
    if d is None:
        return x, dx
    s = eb.perturbation.scale
    return x + s * d, dx + s * dd


def _in_frame(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The rows of a stack a (..., n) in the frame's chart components, a @
    e.T, as one (N, n) @ (n, n) product on the flattened stack rather than
    one small product per matrix of the stack."""
    return (a.reshape(-1, a.shape[-1]) @ e.T).reshape(a.shape)


def _stack(eb) -> list:
    """The bubbles of a ray pass: [eb] for one EmbeddedBubble, else the
    sequence, whose bubbles must share one chart, frame and FlatModel."""
    ebs = [eb] if isinstance(eb, EmbeddedBubble) else list(eb)
    if not ebs:
        raise ValueError("a ray pass needs at least one bubble")
    first = ebs[0]
    if any(b.chart is not first.chart or b.frame is not first.frame or b.model is not first.model for b in ebs):
        raise ValueError("stacked bubbles must share one chart, frame and flat model")
    return ebs


def _embed(ebs: list) -> list:
    """The oracle's one primitive: [(Y (N, n), T (n, m, N))] of each bubble
    of a ray pass (see _stack) at the concatenated flat_rule nodes of the
    model's three sheets, T component-major with the nodes last.

    Each bubble's displaced sheet y and d_z y (_displaced) give the rays v =
    rho E y and their directions rho E d_z y, the tangents of the straight
    chart ray p + v.  One exp_map call for every bubble pushes the rays with
    their polar direction only: Y = Exp_p(v) and the polar tangent, the
    Jacobi field rho dExp_p(v) E d_polar y.  The angle tangents are the
    straight ray's plus the angle derivative of the geodesic's bend off it,
    Y - p - v, by the grid interpolant at the grid's own angles
    (FlatModel.angle_derivative): the bend is O(rho^2) against the ray's
    O(rho), so the grid's error is that much smaller than on Y itself.
    Each bubble is differentiated alone, so it gets the bits it gets
    alone."""
    first = ebs[0]
    model = first.model
    e = first.frame.matrix
    # the three sheets' concatenated _sheet_jet; the field parts stay None without a field
    parts = zip(*[sh.jet for sh in model.sheets])
    jet = tuple(None if p[0] is None else np.concatenate(p) for p in parts)
    # the rays rho E y and their directions rho E d_z y (..., n, m), filled
    # per bubble so that no second copy is alive during the ray pass
    v = np.empty((len(ebs),) + jet[0].shape)
    w = np.empty(v.shape + jet[1].shape[-2:-1])
    for k, b in enumerate(ebs):
        y, dy = _displaced(b, jet)
        v[k] = _in_frame(b.rho * y, e)
        w[k] = b.rho * np.swapaxes(_in_frame(dy, e), -1, -2)
    pos, push = exp_map(first.chart, first.frame.base, v, steps=model.geodesic_steps, directions=w[..., :1])
    n, m = w.shape[-2:]
    # (n, sheets x polar nodes, angle nodes) of the bend of each bubble
    rows = (n, 3 * model.grid[0], -1)
    out = []
    for k in range(len(ebs)):
        bend = (pos[k].T - first.frame.base[:, None]) - v[k].T
        dbend = np.moveaxis(model.angle_derivative(bend.reshape(rows)), -2, 1).reshape(n, m - 1, -1)
        tangents = np.concatenate([np.moveaxis(push[k], 0, -1), np.moveaxis(w[k, ..., 1:], 0, -1) + dbend], axis=1)
        out.append((pos[k], tangents))
    return out


def _embedded_sheets(eb) -> list:
    """[(Y (N, n), T (n, m, N))] of the three embedded sheets of each bubble
    (one EmbeddedBubble or a sequence, see _stack) at their concatenated
    flat_rule nodes, T component-major with the nodes last: one _embed call
    for every bubble whose cache lacks its sheets; each cache keeps its own
    slice."""
    ebs = _stack(eb)
    todo = [b for b in ebs if "sheets" not in b._sheet_cache]
    if todo:
        for b, sheets in zip(todo, _embed(todo)):
            b._sheet_cache["sheets"] = sheets
    return [b._sheet_cache["sheets"] for b in ebs]


def _sheet_sums(eb: EmbeddedBubble, densities: np.ndarray) -> np.ndarray:
    """Per-sheet flat_rule sums of node densities (N,) on the concatenated sheets."""
    sheets = eb.model.sheets
    parts = np.split(densities, np.cumsum([len(sh.w) for sh in sheets])[:-1])
    return np.array([float(np.sum(sh.w * part)) for sh, part in zip(sheets, parts)])


def measure_area(eb: EmbeddedBubble) -> np.ndarray:
    """Per-sheet m-areas by quadrature of sqrt(det Gram) over the embedded
    sheets, the Gram matrix T^T G T contracted component-major."""
    cached = eb._sheet_cache.get("areas")
    if cached is not None:
        return cached.copy()
    pos, tangents = _embedded_sheets(eb)[0]
    gmat = _component_major(eb.chart.metric(pos), 2)
    # (G T)[i, b] = sum_j G[i, j] T[j, b], then gram[a, b] = sum_i T[i, a] (G T)[i, b]
    gt = _dot(np.swapaxes(gmat, 0, 1)[:, :, None], tangents[:, None], axis=0)
    out = _sheet_sums(eb, np.sqrt(_det(_dot(tangents[:, :, None], gt[:, None], axis=0))))
    eb._sheet_cache["areas"] = out
    return out.copy()


def measure_volumes(eb: EmbeddedBubble) -> tuple[float, float]:
    """(V1, V2) from the signed straight chart cones over the embedded
    sheets, the segments p + t (Y - p) at the sector_nodes Gauss-Legendre
    nodes t in [0, 1]; see the module docstring."""
    cached = eb._sheet_cache.get("volumes")
    if cached is not None:
        return cached
    pos, tangents = _embedded_sheets(eb)[0]
    t, wt = gauss_legendre(eb.model.sector_nodes)
    t = 0.5 * (t + 1.0)
    base = eb.frame.base[:, None]
    chord = pos.T - base
    segments = base[..., None] + chord[..., None] * t
    radial = eb.chart.volume_element(segments) @ (0.5 * wt * t**eb.bubble.m)
    jacobian = _det(np.concatenate([chord[:, None], tangents], axis=1)) * radial
    orient = np.array([sh.orient for sh in eb.model.sheets])
    c0, c1, c2 = np.sign(_det(eb.frame.matrix)) * orient * _sheet_sums(eb, jacobian)
    out = (float(-(c1 + c0)), float(c0 - c2))
    eb._sheet_cache["volumes"] = out
    return out


def _on_sheets(ebs: list, sheets: np.ndarray, z: np.ndarray):
    """[Y, T] (bubbles, P, n, 1 + m) and its parameter derivatives d_z [Y, T]
    (bubbles, P, m, n, 1 + m) at parameters z (P, m) of the embedded sheets
    of each bubble of a ray pass (see _stack), a sheet per point.

    They come from the flat_rule grid interpolant (geometry.grid_interpolant)
    of the sheets' own embedding, _embedded_sheets, whose one ray pass the
    areas and volumes share; at m = 3 the alpha tangent takes the
    interpolant of parity -1.  The weights are built once for every bubble
    and contracted separably, the polar factor first, one point and one
    bubble at a time, so that each point of each bubble gets the bits it
    gets alone.
    """
    model = ebs[0].model
    b, (n_polar, _) = model.bubble, model.grid
    m = b.m
    embedded = _embedded_sheets(ebs)
    n = embedded[0][0].shape[-1]
    bounds = np.cumsum([0] + [len(sh.w) for sh in model.sheets])
    vals = np.empty((len(ebs), len(z), n, 1 + m))
    ders = np.empty((len(ebs), len(z), m, n, 1 + m))
    for s in np.unique(sheets):
        idx = np.flatnonzero(sheets == s)
        polar, angles = grid_interpolant(m, b.polar_limit(s), model.grid, z[idx])
        odd = None if m == 2 else grid_interpolant(m, b.polar_limit(s), model.grid, z[idx], parity=-1.0)[1]
        nodes = slice(bounds[s], bounds[s + 1])
        for k, (pos, tangents) in enumerate(embedded):
            grid = np.concatenate([pos[nodes, :, None], np.moveaxis(tangents[..., nodes], -1, 0)], axis=-1)
            # (points, polar value and derivative, angles, n, 1 + m)
            part = (polar @ grid.reshape(n_polar, -1)).reshape((len(idx), 2, -1, n, 1 + m))
            # (points, polar row, angle row, n, 1 + m) for the angle rows of angles
            out = (angles[:, None] @ part.reshape(part.shape[:3] + (-1,))).reshape(part.shape[:2] + (m, n, 1 + m))
            if odd is not None:
                out[..., 2] = odd[:, None] @ part[..., 2]
            vals[k, idx] = out[:, 0, 0]
            ders[k, idx] = np.concatenate([out[:, 1, :1], out[:, 0, 1:]], axis=1)
    return vals, ders


def measure_fundamental_forms(eb, sheet, z: np.ndarray):
    """(first form, second form) matrices of the embedded sheets at
    parameters z (N, m) on the sheets, up to the neck, in sheet parameter
    coordinates.

    sheet is one sheet for every point or a sheet per point (N,), so one
    call measures samples of all three sheets; eb is one EmbeddedBubble, or
    a sequence of them (see _stack) whose forms are stacked on a new leading
    axis.  The embedded points and tangents [Y, T] and their parameter
    derivatives come from the grid interpolant of the sheets' own embedding
    (_on_sheets), with no ray pass of their own, and each point's forms are
    those of its sheet measured alone.  The first form is T^T G T, and the
    second form the covariant derivative of the tangents, sym(d_p T_q) +
    Gamma(T_p, T_q), along the unit normal.  That normal is the G-raised
    cofactor covector c_i = det[e_i, T], which annihilates T and has
    det[G^-1 c, T] > 0; it is oriented along the flat-model normal
    convention (N into B1 on sheets 0 and 1): the embedding maps the flat
    frame [N, d_z x] by rho dExp_p E, whose determinant has the sign of
    det E, so the unit normal nu is the one with sign det[nu, T] = sign(det
    E) sign det[N, d_z x] (_orientation).  A polar parameter outside (0,
    polar_limit] raises an error: past the neck it would extrapolate, and at
    the pole the angle tangents vanish.
    """
    ebs = _stack(eb)
    b = ebs[0].bubble
    z = np.atleast_2d(np.asarray(z, dtype=float))
    sheets = np.broadcast_to(np.asarray(sheet), z.shape[:1])
    upper = np.array([b.polar_limit(s) for s in range(3)])[sheets]
    # the pole, polar = 0, is where the polar parametrization degenerates
    if np.any(z[:, 0] <= 0.0) or np.any(z[:, 0] > upper):
        raise ValueError("mean-curvature samples must lie on the sheet, polar in (0, polar_limit]")
    # sign(det E) sign det[N, d_z x] of each point's flat sheet
    orient = np.sign(_det(ebs[0].frame.matrix)) * np.array([sh.orient for sh in ebs[0].model.sheets])[sheets]
    vals, ders = _on_sheets(ebs, sheets, z)
    pos, tangents = vals[..., 0], vals[..., 1:]  # (bubbles, N, n), (bubbles, N, n, m)
    chart = ebs[0].chart
    gmat = chart.metric(pos)
    gram = np.einsum("...ip,...ij,...jq->...pq", tangents, gmat, tangents)
    # symmetrised covariant derivatives of the tangents, d_p T_q + Gamma(T_p, T_q)
    dt = ders[..., 1:]  # d_p T^a_q (bubbles, N, p, a, q)
    cov = 0.5 * (dt + np.swapaxes(dt, -3, -1))
    cov = cov + np.einsum("...aij,...ip,...jq->...paq", christoffel(chart, pos), tangents, tangents)
    # the cofactor covector c_a = det[e_a, T] and its G-norm
    n = pos.shape[-1]
    cols = np.broadcast_to(tangents[..., None, :, :], tangents.shape[:-2] + (n,) + tangents.shape[-2:])
    eye = np.broadcast_to(np.eye(n)[:, :, None], cols.shape[:-1] + (1,))
    cof = _det(_component_major(np.concatenate([eye, cols], axis=-1), 2))
    norm = np.sqrt(np.einsum("...a,...a->...", cof, np.linalg.solve(gmat, cof[..., None])[..., 0]))
    hmat = np.einsum("...paq,...a->...pq", cov, cof) * (orient / norm)[..., None, None]
    if isinstance(eb, EmbeddedBubble):
        return gram[0], hmat[0]
    return gram, hmat


def measure_mean_curvature(eb, sheet, z: np.ndarray) -> np.ndarray:
    """Mean curvature H = g^ij h_ij at interior parameters z (N, m) of one
    sheet or of a sheet per point, of one bubble or, stacked on a leading
    axis, of each of a sequence of bubbles; see measure_fundamental_forms."""
    gram, hmat = measure_fundamental_forms(eb, sheet, z)
    return np.einsum("...ij,...ij->...", np.linalg.inv(gram), hmat)


def measure_conormal_defect(eb):
    """sup over the neck samples of || sum_s conormal_s ||_G, a float for one
    EmbeddedBubble and an array (one per bubble) for a sequence of them (see
    _stack).

    The neck samples are the grid's own angles at polar_limit, which the
    three sheets share.  There each sheet's [Y, T] is its embedding at the
    polar nodes (_embedded_sheets) extrapolated to the neck by the one row
    of their Lagrange basis (geometry._lagrange), the polar factor of the
    grid interpolant; the angles need none.  Each sheet's inward unit
    conormal is minus its polar tangent, G-projected off the span of its
    m - 1 angle tangents (one Gram solve per point), G-normalized.  The norm
    of the sum takes the metric at sheet 2's neck points.
    """
    ebs = _stack(eb)
    n_polar = ebs[0].model.grid[0]
    (row,), _ = _lagrange(n_polar, [1.0])
    necks = []
    for pos, tangents in _embedded_sheets(ebs):
        grid = np.concatenate([pos[..., None], np.moveaxis(tangents, -1, 0)], axis=-1)
        # [Y, T] (sheets, neck points, n, 1 + m), one product per sheet
        rows = [row @ sheet.reshape(n_polar, -1) for sheet in np.split(grid, 3)]
        necks.append(np.reshape(rows, (3, -1) + grid.shape[1:]))
    vals = np.array(necks)
    pos, polar, angle = vals[..., 0], vals[..., 1], vals[..., 2:]
    gmat = ebs[0].chart.metric(pos)
    g_angle = gmat @ angle
    gram = np.swapaxes(angle, -1, -2) @ g_angle
    coef = np.linalg.solve(gram, np.swapaxes(g_angle, -1, -2) @ polar[..., None])
    nu = (angle @ coef)[..., 0] - polar
    nu = nu / np.sqrt(np.einsum("...i,...ij,...j->...", nu, gmat, nu))[..., None]
    gsum = nu[:, 0] + nu[:, 1] + nu[:, 2]
    defect = np.max(np.sqrt(np.einsum("...i,...ij,...j->...", gsum, gmat[:, 2], gsum)), axis=1)
    return float(defect[0]) if isinstance(eb, EmbeddedBubble) else defect


def measure_energy(eb: EmbeddedBubble) -> float:
    """Two-volume energy: sum of sheet areas - (h1/rho) V1 - (h2/rho) V2."""
    p = eb.bubble.params
    areas = measure_area(eb)
    v1, v2 = measure_volumes(eb)
    return float(np.sum(areas)) - (p.h1 / eb.rho) * v1 - (p.h2 / eb.rho) * v2


def default_h_params(bubble: StandardBubble, sheet: int) -> np.ndarray:
    """H_SAMPLES interior parameters spread over the sheet for curvature sampling."""
    n = H_SAMPLES
    polar = bubble.polar_limit(sheet) * np.linspace(0.25, 0.75, n)
    if bubble.m == 2:
        ang = np.linspace(0.3, 2.0 * math.pi * 0.9, n)[:, None]
    else:
        ang = np.stack([np.linspace(0.4, 2.4, n), np.linspace(0.3, 5.8, n)], axis=1)
    return np.concatenate([polar[:, None], ang], axis=1)


# ---------------------------------------------------------------------------
# expansion verification harness


class Claim(NamedTuple):
    """What verify_many claims of one quantity: errors at or below floor
    read as an exact expansion, and otherwise the error falls as rho^order,
    with order (symmetric bubble, asymmetric bubble), or the remainder_order
    of the quantity's ExpansionTerms where order is None.  A fitted slope
    passes within 0.3 of the claimed order."""

    floor: float
    order: tuple[int, int] | None = None


# the quantities verify_many measures, in their report order
CLAIMS = {
    "area": Claim(1e-11),
    "v1": Claim(1e-11),
    "v2": Claim(1e-11),
    "vtot": Claim(1e-11),
    "h0": Claim(1e-10, (3, 3)),
    "h1": Claim(1e-10, (3, 3)),
    "h2": Claim(1e-10, (3, 3)),
    "conormal": Claim(1e-9, (2, 2)),
    # a symmetric bubble's central symmetry cancels the rho^1 term of phi
    "phi": Claim(1e-8, (2, 1)),
}


def verify_many(
    chart: MetricChart,
    p,
    seed_axis,
    bubble: StandardBubble,
    quantities,
    rhos,
    grid=(48, 96),
    geodesic_steps: int = 200,
    sector_nodes: int = 12,
    perturbation: PerturbationField | None = None,
) -> dict:
    """Sweep rho once, measuring every quantity from one EmbeddedBubble per rho.

    Returns {quantity: (ConvergenceFit, rows)} with rows carrying
    (rho, oracle, formula, error, slope so far) and the fit carrying the
    threshold of the quantity's claim (CLAIMS) and its verdict.
    Perturbations are scaled by rho^2 per sweep point, matching the
    smallness regime of the closed forms.  The expansion side is evaluated
    once per sweep: the ExpansionTerms of the requested areas and volumes,
    whose remainder_order is also their claim, the curvature terms, the
    parts of the closed-form mean curvature (fields.mean_curvature_terms),
    and for a perturbed sweep the first-order responses of the unscaled
    field, which are linear in the field and so enter at rho as rho^2 *
    response.  The bubbles of every rho are built first, on one FlatModel;
    then one exp_map call embeds the sheets of all of them, whatever the
    quantities (each bubble's cache keeps its slice, from which its areas,
    volumes and energy are measured per rho), one measure_mean_curvature
    pass interpolates the h rows of every sheet and every rho from it, and
    one measure_conormal_defect pass the conormals of every rho.
    """
    quantities = list(quantities)
    for q in quantities:
        if q not in CLAIMS:
            raise ValueError(f"unknown quantity {q!r}; options {tuple(CLAIMS)}")
    curv = curvature_at(chart, np.asarray(p, dtype=float), seed_axis, nabla=False)
    sc = curv.scalar
    axis = np.zeros(chart.dim)
    axis[-1] = 1.0
    ric_ss = curv.ric(axis, axis)
    rhos = [float(r) for r in rhos]
    m = bubble.m
    volumes_wanted = any(q in ("v1", "v2", "vtot") for q in quantities)

    terms = {}
    if "area" in quantities:
        terms["area"] = expansions.geodesic_area_expansion(bubble)[1]
    if volumes_wanted:
        chambers = expansions.geodesic_volumes_expansion(bubble)
        terms["v1"], terms["v2"] = chambers
        terms["vtot"] = expansions.total_volume_expansion(bubble, chambers)
    # one flat side for every rho; the first-order responses are the first
    # variations along its unit-scale field's jets, times the field's scale
    model = FlatModel(bubble, perturbation, grid, geodesic_steps, sector_nodes)
    response = dict.fromkeys(terms, 0.0)
    if perturbation is not None and ("area" in quantities or volumes_wanted):
        jets = [(sh.w, sh.jet) for sh in model.sheets]
        if "area" in quantities:
            area = np.sum(first_order_area_corrections(bubble, model.field, jets))
            response["area"] = perturbation.scale * float(area)
        if volumes_wanted:
            dv1, dv2 = (perturbation.scale * dv for dv in first_order_volume_corrections(bubble, model.field, jets))
            response.update(v1=dv1, v2=dv2, vtot=dv1 + dv2)
    phi_leading = None
    if "phi" in quantities:
        consts = expansions.phi_limit_constants(bubble)
        phi_leading = expansions.reduced_functional_leading(sc, ric_ss, consts)

    def formula(q, rho):
        if q in terms:
            return terms[q].value(sc, ric_ss, rho) + rho**2 * response[q]
        return phi_leading if q == "phi" else 0.0

    # one bubble per rho, the field scaled by rho^2
    ebs = [
        EmbeddedBubble(
            chart,
            curv.frame,
            bubble,
            rho,
            perturbation=None if perturbation is None else perturbation.scaled(rho**2),
            grid=grid,
            geodesic_steps=geodesic_steps,
            sector_nodes=sector_nodes,
            model=model,
        )
        for rho in rhos
    ]
    # oracle values per rho; for h* and conormal the residual itself.  Every
    # quantity reads the embedded sheets of every rho, from one exp_map call
    records = [{} for _ in rhos]
    _embedded_sheets(ebs)
    for eb, record in zip(ebs, records):
        rho = eb.rho
        if "area" in quantities:
            record["area"] = float(np.sum(measure_area(eb))) / rho**m
        if volumes_wanted:
            v1, v2 = measure_volumes(eb)
            norm = rho ** (m + 1)
            record.update(v1=v1 / norm, v2=v2 / norm, vtot=(v1 + v2) / norm)
        if "phi" in quantities:
            record["phi"] = expansions.phi_from_energy(measure_energy(eb), bubble, rho)
    # the h rows: the samples of every requested sheet and every rho in one
    # measure_mean_curvature pass, and the parts of the closed-form mean
    # curvature of the unit-scale field (fields.mean_curvature_terms)
    h_sheets = [s for s in range(3) if f"h{s}" in quantities]
    if h_sheets:
        h_params = [default_h_params(bubble, s) for s in h_sheets]
        h_labels = np.repeat(h_sheets, [len(z) for z in h_params])
        h_terms = [mean_curvature_terms(bubble, s, curv, z, model.field) for s, z in zip(h_sheets, h_params)]
        hvals = measure_mean_curvature(ebs, h_labels, np.concatenate(h_params))
        for eb, record, hval in zip(ebs, records, hvals):
            rho = eb.rho
            s_field = 0.0 if eb.perturbation is None else eb.perturbation.scale
            for s, (const, quad, lin) in zip(h_sheets, h_terms):
                scale = rho if (s == 0 and bubble.symmetric) else rho * bubble.radii[s]
                fvals = const + rho**2 * quad + s_field * lin
                record[f"h{s}"] = float(np.max(np.abs(scale * hval[h_labels == s] - fvals)))
    if "conormal" in quantities:
        for record, defect in zip(records, measure_conormal_defect(ebs)):
            record["conormal"] = float(defect)
    out = {}
    for q in quantities:
        floor, order = CLAIMS[q]
        order = terms[q].remainder_order if order is None else order[0 if bubble.symmetric else 1]
        rows = []
        errors = []
        for rho, record in zip(rhos, records):
            oracle, expected = record[q], formula(q, rho)
            errors.append(abs(oracle - expected))
            rows.append(
                {"quantity": q, "rho": rho, "oracle": oracle, "formula": expected,
                 "error": errors[-1]}
            )
        fit = replace(fit_order(rhos, errors, floor=floor), threshold=order - 0.3)
        for i, row in enumerate(rows):
            row["slope_so_far"] = (
                fit_order(rhos[: i + 1], errors[: i + 1], floor=floor).slope
                if i >= 2
                else float("nan")
            )
        out[q] = (fit, rows)
    return out
