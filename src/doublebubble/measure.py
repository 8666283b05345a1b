"""Brute-force measurement of embedded geodesic double bubbles.

The oracle takes a chart, a base point with an orthonormal frame, a standard
bubble and a scale rho, maps the (possibly perturbed) flat model through the
exponential map and measures areas, enclosed volumes, mean curvature samples,
the junction conormal defect and the two-volume energy by quadrature and
parameter-space finite differences.  Nothing here uses the closed-form
curvature expansions; those are *checked against* these numbers.

Enclosed volumes are ray integrals from the base point, which sits at the
centre of the flat neck disk and so inside every ball of the bubble.  Each
chamber is a union of radial intervals: along a unit direction theta (frame
components, theta_z its axial part) the ray leaves ball s at

  r_s(theta) = c_s theta_z + sqrt(R_s^2 - c_s^2 (1 - theta_z^2)),

so V1 integrates [0, r1] over theta_z > 0 and [0, r0] over theta_z < 0, and
V2 integrates [r0, r2] over theta_z < 0 (the symmetric case has no r0: V1 and
V2 are the two half-balls [0, r1] and [0, r2]).  The volume density at the
flat point t theta is

  rho^n |det(dExp_p(t rho E theta) E)| sqrt(det G) t^(n-1),

with dExp from charts.exp_rays.  Perturbed volumes add the swept-prism
volume of each sheet, which is closure independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import expansions
from .charts import DomainExit, MetricChart, OrthoFrame, curvature_at, exp_map, exp_rays
from .fields import (
    PerturbationField,
    check_admissible,
    displaced_point_z,
    flat_point_z,
    flat_normal_z,
    perturbed_mean_curvature,
    _param_steps,
)
from .geometry import StandardBubble, polar_rule, sphere_rule


@dataclass(frozen=True)
class MeasureReport:
    """Oracle measurements of one embedded bubble."""

    areas: tuple[float, float, float]
    v1: float
    v2: float
    mean_curvature_samples: tuple
    conormal_defect: float
    energy: float
    rho: float
    bubble_fingerprint: tuple

    @property
    def total_area(self) -> float:
        return float(sum(self.areas))


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares slope of log(error) against log(rho)."""

    rhos: tuple
    errors: tuple
    slope: float
    r_squared: float
    exact: bool = False


def fit_order(rhos, errors, floor: float = 0.0) -> ConvergenceFit:
    """Fit the convergence order of an error sweep.

    Requires at least 3 strictly decreasing rhos.  Errors at or below `floor`
    signal an exact expansion and are reported with an infinite slope
    sentinel rather than fitted.
    """
    rhos = [float(r) for r in rhos]
    errors = [float(e) for e in errors]
    if len(rhos) < 3 or len(rhos) != len(errors):
        raise ValueError("need at least 3 (rho, error) pairs")
    if any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])):
        raise ValueError("rhos must be strictly decreasing")
    if any(e <= floor for e in errors):
        return ConvergenceFit(tuple(rhos), tuple(errors), math.inf, 1.0, exact=True)
    lx, ly = np.log(rhos), np.log(errors)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ConvergenceFit(tuple(rhos), tuple(errors), float(slope), r2)


# ---------------------------------------------------------------------------
# embedded bubbles


def _fd4(values, h):
    """4th-order first derivative from values at offsets (-2,-1,+1,+2)h."""
    fm2, fm1, fp1, fp2 = values
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)


class EmbeddedBubble:
    """Geodesic image of a (possibly perturbed) standard bubble in a chart.

    grid = (n_polar, n_sphere) controls the quadrature resolution of the
    sheets and of each half-sphere of volume rays; h_rel the relative
    parameter step of the embedding stencils; sector_nodes the Gauss-Legendre
    order of the radial ray rule; geodesic_steps the RK4 steps of one
    geodesic (of one radial segment, for volume rays).
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
        h_rel: float = 1e-4,
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
        if perturbation is not None:
            check_admissible(perturbation)
        self.chart = chart
        self.frame = frame
        self.bubble = bubble
        self.rho = float(rho)
        self.perturbation = perturbation
        self.grid = grid
        self.geodesic_steps = geodesic_steps
        self.sector_nodes = sector_nodes
        self.h_rel = h_rel
        self._sheet_cache: dict = {}

    # -- embedding ----------------------------------------------------------

    def embed_flat(self, flat_pts: np.ndarray) -> np.ndarray:
        """Map flat-model points (frame components) through Exp_p(rho . )."""
        v = self.rho * np.asarray(flat_pts, dtype=float) @ self.frame.matrix.T
        return exp_map(self.chart, self.frame.base, v, steps=self.geodesic_steps)

    def embed_params(self, sheet: int, z: np.ndarray) -> np.ndarray:
        return self.embed_flat(displaced_point_z(self.bubble, sheet, z, self.perturbation))

    def _quad_nodes(self, sheet: int):
        n_polar, n_sphere = self.grid
        b = self.bubble
        pol, wpol = polar_rule(b, sheet, n_polar)
        m = b.m
        if m == 2:
            theta = 2.0 * math.pi * np.arange(n_sphere) / n_sphere
            ang = theta[:, None]
            wang = np.full(n_sphere, 2.0 * math.pi / n_sphere)
        elif m == 3:
            n_pol_s = max(4, n_sphere // 2)
            t, wt = np.polynomial.legendre.leggauss(n_pol_s)
            alpha = np.arccos(t)
            beta = 2.0 * math.pi * np.arange(n_sphere) / n_sphere
            ang = np.stack(
                [np.repeat(alpha, n_sphere), np.tile(beta, n_pol_s)], axis=1
            )
            # rule weights are for the cos(alpha) measure; convert to d(alpha)
            wang = np.repeat(wt / np.sin(alpha), n_sphere) * (2.0 * math.pi / n_sphere)
            # the sin(alpha) of the sphere measure is part of the Gram factor
        else:
            raise ValueError(f"oracle grids support m in (2, 3), got m={m}")
        n_ang = ang.shape[0]
        z = np.concatenate(
            [
                np.repeat(pol, n_ang)[:, None],
                np.tile(ang, (n_polar, 1)),
            ],
            axis=1,
        )
        w = np.repeat(wpol, n_ang) * np.tile(wang, n_polar)
        return z, w

    def sheet_tangent_data(self, sheet: int):
        """Embedded positions, tangents and Gram matrices on the quadrature grid."""
        key = ("tangent", sheet)
        if key in self._sheet_cache:
            return self._sheet_cache[key]
        z, w = self._quad_nodes(sheet)
        m = self.bubble.m
        n_pts = z.shape[0]
        h = _param_steps(self.bubble, sheet, self.h_rel)
        # one batched embedding of the center grid and all stencil shifts
        batches = [displaced_point_z(self.bubble, sheet, z, self.perturbation)]
        for i in range(m):
            dz = np.zeros(m)
            dz[i] = h[i]
            for c in (-2, -1, 1, 2):
                batches.append(
                    displaced_point_z(self.bubble, sheet, z + c * dz, self.perturbation)
                )
        emb = self.embed_flat(np.concatenate(batches, axis=0))
        pos = emb[:n_pts]
        tangents = []
        for i in range(m):
            off = n_pts * (1 + 4 * i)
            vals = [emb[off + k * n_pts : off + (k + 1) * n_pts] for k in range(4)]
            tangents.append(_fd4(vals, h[i]))
        tangents = np.stack(tangents, axis=1)  # (N, m, n)
        gmat = self.chart.metric(pos)
        gram = np.einsum("...ik,...kl,...jl->...ij", tangents, gmat, tangents)
        data = {"z": z, "w": w, "pos": pos, "tangents": tangents, "gram": gram, "G": gmat}
        self._sheet_cache[key] = data
        return data


def embed(
    chart: MetricChart,
    frame: OrthoFrame,
    bubble: StandardBubble,
    rho: float,
    perturbation: PerturbationField | None = None,
    **options,
) -> EmbeddedBubble:
    """Construct an embedded geodesic double bubble (see EmbeddedBubble)."""
    return EmbeddedBubble(chart, frame, bubble, rho, perturbation, **options)


# ---------------------------------------------------------------------------
# measurements


def measure_area(eb: EmbeddedBubble) -> np.ndarray:
    """Per-sheet m-areas by quadrature of sqrt(det Gram)."""
    cached = eb._sheet_cache.get("areas")
    if cached is not None:
        return cached.copy()
    out = np.zeros(3)
    for s in range(3):
        d = eb.sheet_tangent_data(s)
        out[s] = float(np.sum(d["w"] * np.sqrt(np.linalg.det(d["gram"]))))
    eb._sheet_cache["areas"] = out
    return out.copy()


def _prism_volume(eb: EmbeddedBubble, sheet: int) -> float:
    """Signed volume swept between a sheet and its perturbed image.

    Parametrized by (tau, z) -> Exp(rho E y), y = x(z) + tau (w N + Y)(z) in
    the flat model; the signed coordinate Jacobian times sqrt(det G)
    integrates to the exact region change, positive when the sheet moves
    along its own normal N_s.  The Jacobian is rho dExp_p(rho E y) E
    [d_tau y, d_z y]: dExp comes from charts.exp_rays (closed form, or RK4 on
    the Jacobi equation with geodesic_steps steps) at each of 6 Gauss-Legendre
    tau levels, and the flat columns d_z y from 4-point stencils of the flat
    and displaced sheets, which are linear in tau.
    """
    b = eb.bubble
    m = b.m
    z, w = eb._quad_nodes(sheet)
    steps = _param_steps(b, sheet, eb.h_rel)
    flat = flat_point_z(b, sheet, z)
    displ = displaced_point_z(b, sheet, z, eb.perturbation) - flat
    tang_flat = []
    tang_displ = []
    for i in range(m):
        dz = np.zeros(m)
        dz[i] = steps[i]
        fl = [flat_point_z(b, sheet, z + c * dz) for c in (-2, -1, 1, 2)]
        dp = [
            displaced_point_z(b, sheet, z + c * dz, eb.perturbation) - fl[k]
            for k, c in enumerate((-2, -1, 1, 2))
        ]
        tang_flat.append(_fd4(fl, steps[i]))
        tang_displ.append(_fd4(dp, steps[i]))
    tang_flat = np.stack(tang_flat, axis=-1)  # (N, n, m)
    tang_displ = np.stack(tang_displ, axis=-1)
    # orientation factor: sign of the flat-model determinant with a unit
    # normal displacement
    nrm = flat_normal_z(b, sheet, z)
    orient = np.sign(np.linalg.det(np.concatenate([nrm[..., None], tang_flat], axis=-1)))
    e = eb.frame.matrix
    t, wt = np.polynomial.legendre.leggauss(6)
    total = 0.0
    for tv, tw in zip(0.5 * (t + 1.0), 0.5 * wt):
        y = flat + tv * displ
        points, dexp = exp_rays(
            eb.chart, eb.frame.base, eb.rho * y @ e.T, np.ones((len(y), 1)), [eb.geodesic_steps]
        )
        flat_cols = np.concatenate([displ[..., None], tang_flat + tv * tang_displ], axis=-1)
        jac = eb.rho * dexp[:, 0] @ e @ flat_cols  # columns (d tau, d z_i)
        gmat = eb.chart.metric(points[:, 0])
        dets = np.linalg.det(jac) * np.sqrt(np.linalg.det(gmat)) * orient
        total += tw * float(np.sum(w * dets))
    return total


def _half_sphere_rule(m: int, n_polar: int, n_sphere: int):
    """Unit directions (N, m + 1) of the upper half of S^m and their weights:
    Gauss-Legendre in the polar angle from the axis (weight sin^(m-1)) times
    sphere_rule(m, n_sphere) on S^(m-1)."""
    t, w = np.polynomial.legendre.leggauss(n_polar)
    alpha = 0.25 * math.pi * (t + 1.0)
    w_alpha = 0.25 * math.pi * w * np.sin(alpha) ** (m - 1)
    dirs, w_dirs = sphere_rule(m, n_sphere)
    radial = np.sin(alpha)[:, None, None] * dirs
    axial = np.broadcast_to(np.cos(alpha)[:, None, None], radial.shape[:-1] + (1,))
    theta = np.concatenate([radial, axial], axis=-1).reshape(-1, m + 1)
    return theta, np.outer(w_alpha, w_dirs).ravel()


def _ball_exit(bubble: StandardBubble, sheet: int, theta_z) -> np.ndarray:
    """Flat distance from the neck centre to sphere `sheet` along unit
    directions with axial component theta_z."""
    c, r = bubble.centers[sheet], bubble.radii[sheet]
    return c * theta_z + np.sqrt(r**2 - c**2 * (1.0 - theta_z**2))


def _ray_volumes(eb: EmbeddedBubble, theta, weights, ends) -> list[float]:
    """Volumes of Exp_p(rho E {t theta : ends[j-1] < t < ends[j]}) for each
    segment j, integrated over the direction rule; the first segment starts
    at t = 0.

    Each segment carries sector_nodes Gauss-Legendre nodes and about
    geodesic_steps RK4 steps, split over the node gaps in proportion.
    """
    q = eb.sector_nodes
    t, w = np.polynomial.legendre.leggauss(q)
    frac = 0.5 * (t + 1.0)
    gaps = np.diff(np.concatenate([[0.0], frac, [1.0]]))
    counts = np.maximum(1, np.ceil(eb.geodesic_steps * gaps)).astype(int)
    starts = [np.zeros(len(theta))] + list(ends[:-1])
    t_nodes = np.concatenate(
        [a[:, None] + (e - a)[:, None] * frac for a, e in zip(starts, ends)], axis=1
    )
    substeps = []
    for j in range(len(ends)):
        # the gap after a segment's last node opens the next segment
        substeps += [counts[0] + (counts[-1] if j else 0), *counts[1:-1]]
    e = eb.frame.matrix
    points, dexp = exp_rays(eb.chart, eb.frame.base, eb.rho * theta @ e.T, t_nodes, substeps)
    n = theta.shape[1]
    density = (
        eb.rho**n
        * abs(np.linalg.det(e))
        * np.abs(np.linalg.det(dexp))
        * np.sqrt(np.linalg.det(eb.chart.metric(points)))
        * t_nodes ** (n - 1)
    )
    out = []
    for j, (a, b) in enumerate(zip(starts, ends)):
        radial = density[:, j * q : (j + 1) * q] @ (0.5 * w) * (b - a)
        out.append(float(weights @ radial))
    return out


def measure_volumes(eb: EmbeddedBubble) -> tuple[float, float]:
    """(V1, V2) as ray integrals from the neck centre; see the module docstring.

    Perturbation corrections are exact swept-prism volumes per sheet, which
    coincide with the per-sheet sector differences once the chambers are
    closed (the neck faces cancel by admissibility)."""
    cached = eb._sheet_cache.get("volumes")
    if cached is not None:
        return cached
    b = eb.bubble
    up, weights = _half_sphere_rule(b.m, *eb.grid)
    down = up * np.append(np.ones(b.m), -1.0)
    (v1,) = _ray_volumes(eb, up, weights, [_ball_exit(b, 1, up[:, -1])])
    if b.symmetric:
        (v2,) = _ray_volumes(eb, down, weights, [_ball_exit(b, 2, down[:, -1])])
    else:
        ends = [_ball_exit(b, 0, down[:, -1]), _ball_exit(b, 2, down[:, -1])]
        p0, v2 = _ray_volumes(eb, down, weights, ends)
        v1 += p0
    if eb.perturbation is not None:
        prisms = [_prism_volume(eb, s) for s in range(3)]
        v1 += -prisms[1] - prisms[0]
        v2 += -prisms[2] + prisms[0]
    out = (float(v1), float(v2))
    eb._sheet_cache["volumes"] = out
    return out


def _orthonormal_normal(gmat, tangents, ref_dir):
    """G-unit vector orthogonal to the tangent rows, oriented along ref_dir."""
    n = gmat.shape[-1]
    a = np.einsum("...ik,...kl->...il", tangents, gmat)  # (..., m, n)
    _, _, vh = np.linalg.svd(a)
    cand = vh[..., -1, :]
    norm = np.sqrt(np.einsum("...i,...ij,...j->...", cand, gmat, cand))
    cand = cand / norm[..., None]
    sign = np.sign(np.einsum("...i,...ij,...j->...", cand, gmat, ref_dir))
    return cand * np.where(sign == 0.0, 1.0, sign)[..., None]


def measure_fundamental_forms(eb: EmbeddedBubble, sheet: int, z: np.ndarray):
    """(first form, second form) matrices of the embedded sheet at interior
    parameters z (N, m), in sheet parameter coordinates.

    The second form is oriented along the flat-model normal convention (N
    into B1 on sheets 0 and 1).  Parameters too close to the neck for the
    second-derivative stencil raise an error rather than extrapolating.
    """
    b = eb.bubble
    m = b.m
    z = np.atleast_2d(np.asarray(z, dtype=float))
    upper = b.neck_radius if (sheet == 0 and b.symmetric) else b.phi[sheet]
    h = _param_steps(b, sheet, max(eb.h_rel, 1e-4) * 10.0)
    if np.any(z[:, 0] + 2.5 * h[0] > upper) or np.any(z[:, 0] - 2.5 * h[0] < 0.0):
        raise ValueError("mean-curvature stencil leaves the sheet interior")

    def emb(zz):
        return eb.embed_params(sheet, zz)

    pos = emb(z)
    first = []
    second = {}
    cache = {}
    for i in range(m):
        dz = np.zeros(m)
        dz[i] = h[i]
        vals = [emb(z + c * dz) for c in (-2, -1, 1, 2)]
        cache[i] = vals
        first.append(_fd4(vals, h[i]))
        fm2, fm1, fp1, fp2 = vals
        second[(i, i)] = (-30.0 * pos + 16.0 * (fp1 + fm1) - (fp2 + fm2)) / (12.0 * h[i] ** 2)
    for i in range(m):
        for j in range(i + 1, m):
            dzi = np.zeros(m)
            dzi[i] = h[i]
            dzj = np.zeros(m)
            dzj[j] = h[j]
            mixed = (
                emb(z + dzi + dzj) - emb(z + dzi - dzj) - emb(z - dzi + dzj) + emb(z - dzi - dzj)
            ) / (4.0 * h[i] * h[j])
            second[(i, j)] = second[(j, i)] = mixed
    tangents = np.stack(first, axis=1)
    gmat = eb.chart.metric(pos)
    gram = np.einsum("...ik,...kl,...jl->...ij", tangents, gmat, tangents)
    from .charts import christoffel

    gamma = christoffel(eb.chart, pos)
    # reference normal direction: push the flat normal through the embedding
    eps = 1e-5 * min(r for r in b.radii if math.isfinite(r))
    flat = displaced_point_z(b, sheet, z, eb.perturbation)
    nflat = flat_normal_z(b, sheet, z)
    ref = (eb.embed_flat(flat + eps * nflat) - pos) / eps
    normal = _orthonormal_normal(gmat, tangents, ref)
    hmat = np.zeros(gram.shape)
    for i in range(m):
        for j in range(m):
            cov = second[(i, j)] + np.einsum(
                "...aij,...i,...j->...a", gamma, tangents[:, i], tangents[:, j]
            )
            hmat[..., i, j] = np.einsum("...k,...kl,...l->...", cov, gmat, normal)
    return gram, hmat


def measure_mean_curvature(eb: EmbeddedBubble, sheet: int, z: np.ndarray) -> np.ndarray:
    """Mean curvature H = g^ij h_ij at interior parameters z (N, m); see
    measure_fundamental_forms for conventions."""
    gram, hmat = measure_fundamental_forms(eb, sheet, z)
    return np.einsum("...ij,...ij->...", np.linalg.inv(gram), hmat)


def measure_conormal_defect(eb: EmbeddedBubble, n_samples: int = 32) -> float:
    """sup over neck samples of || sum_s conormal_s ||_G.

    Each sheet's inward unit conormal is the G-normalized boundary-inward
    tangent orthogonal to the neck directions, built from one-sided polar
    stencils of the embedding.
    """
    b = eb.bubble
    if b.m != 2:
        raise ValueError("conormal defect sampling implemented for m = 2")
    ang = (2.0 * math.pi * np.arange(n_samples) / n_samples)[:, None]
    gsum = None
    gmat_at = None
    for s in range(3):
        upper = b.neck_radius if (s == 0 and b.symmetric) else b.phi[s]
        z = np.concatenate([np.full((n_samples, 1), upper), ang], axis=1)
        h = _param_steps(b, s, eb.h_rel)[0]
        vals = [eb.embed_params(s, z - np.array([k * h, 0.0])) for k in range(5)]
        dpol = (
            25.0 * vals[0] - 48.0 * vals[1] + 36.0 * vals[2] - 16.0 * vals[3] + 3.0 * vals[4]
        ) / (12.0 * h)
        # neck tangents (angle directions)
        hth = _param_steps(b, s, eb.h_rel)[1]
        dz = np.array([0.0, hth])
        tvals = [eb.embed_params(s, z + c * dz) for c in (-2, -1, 1, 2)]
        dth = _fd4(tvals, hth)
        pos = vals[0]
        gmat = eb.chart.metric(pos)
        # G-orthogonalize the inward polar tangent against the neck tangent
        inward = -dpol
        proj = np.einsum("...i,...ij,...j->...", inward, gmat, dth) / np.einsum(
            "...i,...ij,...j->...", dth, gmat, dth
        )
        nu = inward - proj[..., None] * dth
        nu = nu / np.sqrt(np.einsum("...i,...ij,...j->...", nu, gmat, nu))[..., None]
        gsum = nu if gsum is None else gsum + nu
        gmat_at = gmat
    norms = np.sqrt(np.einsum("...i,...ij,...j->...", gsum, gmat_at, gsum))
    return float(np.max(norms))


def measure_energy(eb: EmbeddedBubble, areas=None, volumes=None) -> float:
    """Two-volume energy: sum of sheet areas - (h1/rho) V1 - (h2/rho) V2."""
    p = eb.bubble.params
    if areas is None:
        areas = measure_area(eb)
    if volumes is None:
        volumes = measure_volumes(eb)
    v1, v2 = volumes
    return float(np.sum(areas)) - (p.h1 / eb.rho) * v1 - (p.h2 / eb.rho) * v2


def default_h_params(bubble: StandardBubble, sheet: int, n: int = 5) -> np.ndarray:
    """A few interior parameters spread over the sheet for curvature sampling."""
    upper = bubble.neck_radius if (sheet == 0 and bubble.symmetric) else bubble.phi[sheet]
    polar = upper * np.linspace(0.25, 0.75, n)
    if bubble.m == 2:
        ang = np.linspace(0.3, 2.0 * math.pi * 0.9, n)[:, None]
    else:
        ang = np.stack([np.linspace(0.4, 2.4, n), np.linspace(0.3, 5.8, n)], axis=1)
    return np.concatenate([polar[:, None], ang], axis=1)


def measure_report(eb: EmbeddedBubble, h_samples: int = 4) -> MeasureReport:
    """Full oracle report for one embedded bubble."""
    areas = measure_area(eb)
    volumes = measure_volumes(eb)
    hs = []
    for s in range(3):
        z = default_h_params(eb.bubble, s, h_samples)
        vals = measure_mean_curvature(eb, s, z)
        hs.extend((s, tuple(zz), float(v)) for zz, v in zip(z, vals))
    defect = measure_conormal_defect(eb)
    energy = measure_energy(eb, areas=areas, volumes=volumes)
    return MeasureReport(
        areas=tuple(areas),
        v1=volumes[0],
        v2=volumes[1],
        mean_curvature_samples=tuple(hs),
        conormal_defect=defect,
        energy=energy,
        rho=eb.rho,
        bubble_fingerprint=eb.bubble.fingerprint(),
    )


# ---------------------------------------------------------------------------
# expansion verification harness


QUANTITIES = ("area", "v1", "v2", "vtot", "h0", "h1", "h2", "conormal", "phi")

DEFAULT_FLOORS = {
    "area": 1e-11,
    "v1": 1e-11,
    "v2": 1e-11,
    "vtot": 1e-11,
    "h0": 2e-9,
    "h1": 2e-9,
    "h2": 2e-9,
    "conormal": 1e-9,
    "phi": 1e-8,
}


def _measure_quantity(eb, bubble, quantity, sc, ric_ss, curv, field):
    """(oracle value, formula value) for one quantity; for h*/conormal the
    'oracle' is already the residual and the formula is zero."""
    m = bubble.m
    rho = eb.rho
    if quantity == "area":
        oracle = float(np.sum(measure_area(eb))) / rho**m
        if field is None:
            _, total = expansions.geodesic_area_expansion(bubble)
            formula = total.value(sc, ric_ss, rho)
        else:
            from .fields import perturbed_area_expansion

            formula = float(np.sum(perturbed_area_expansion(bubble, field, sc, ric_ss, rho)))
        return oracle, formula
    if quantity in ("v1", "v2", "vtot"):
        v1, v2 = measure_volumes(eb)
        picked = {"v1": v1, "v2": v2, "vtot": v1 + v2}[quantity]
        oracle = picked / rho ** (m + 1)
        if field is None:
            t1, t2 = expansions.geodesic_volumes_expansion(bubble)
            terms = {"v1": t1, "v2": t2, "vtot": expansions.total_volume_expansion(bubble)}
            formula = terms[quantity].value(sc, ric_ss, rho)
        else:
            from .fields import perturbed_volume_expansion

            fv1, fv2 = perturbed_volume_expansion(bubble, field, sc, ric_ss, rho)
            formula = {"v1": fv1, "v2": fv2, "vtot": fv1 + fv2}[quantity]
        return oracle, formula
    if quantity in ("h0", "h1", "h2"):
        s = int(quantity[1])
        z = default_h_params(bubble, s, 4)
        hvals = measure_mean_curvature(eb, s, z)
        scale = rho if (s == 0 and bubble.symmetric) else rho * bubble.radii[s]
        fvals = perturbed_mean_curvature(bubble, s, curv, rho, z, field)
        return float(np.max(np.abs(scale * hvals - fvals))), 0.0
    if quantity == "conormal":
        return measure_conormal_defect(eb), 0.0
    if quantity == "phi":
        report = measure_report_for_phi(eb)
        oracle = expansions.phi_from_energy(report, bubble, rho)
        consts = expansions.phi_limit_constants(bubble)
        formula = expansions.reduced_functional_leading(sc, ric_ss, consts)
        return oracle, formula
    raise ValueError(f"unknown quantity {quantity!r}; options {QUANTITIES}")


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
    floors: dict | None = None,
    jobs: int = 1,
) -> dict:
    """Sweep rho once, measuring every quantity from one EmbeddedBubble per rho.

    Returns {quantity: (ConvergenceFit, rows)} with rows carrying
    (rho, oracle, formula, error, slope so far).  Perturbations are scaled by
    rho^2 per sweep point, matching the smallness regime of the closed forms.
    With jobs > 1 the rho points are measured on that many threads (so at
    most len(rhos) are busy) and merged in rho order before the fits, so the
    result does not depend on jobs.
    """
    quantities = list(quantities)
    for q in quantities:
        if q not in QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; options {QUANTITIES}")
    curv = curvature_at(chart, np.asarray(p, dtype=float), seed_axis, nabla=False)
    sc = curv.scalar
    axis = np.zeros(chart.dim)
    axis[-1] = 1.0
    ric_ss = curv.ric(axis, axis)
    rhos = [float(r) for r in rhos]

    def measure_at(rho):
        field = None if perturbation is None else perturbation.scaled(rho**2)
        eb = EmbeddedBubble(
            chart,
            curv.frame,
            bubble,
            rho,
            perturbation=field,
            grid=grid,
            geodesic_steps=geodesic_steps,
            sector_nodes=sector_nodes,
        )
        return [_measure_quantity(eb, bubble, q, sc, ric_ss, curv, field) for q in quantities]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(measure_at, rhos))
    else:
        values = [measure_at(rho) for rho in rhos]
    out = {}
    floors = floors or {}
    for k, q in enumerate(quantities):
        floor = floors.get(q, DEFAULT_FLOORS[q])
        rows = []
        errors = []
        for rho, at_rho in zip(rhos, values):
            oracle, formula = at_rho[k]
            errors.append(abs(oracle - formula))
            rows.append(
                {"quantity": q, "rho": rho, "oracle": oracle, "formula": formula,
                 "error": errors[-1]}
            )
        fit = fit_order(rhos, errors, floor=floor)
        for i, row in enumerate(rows):
            row["slope_so_far"] = (
                fit_order(rhos[: i + 1], errors[: i + 1], floor=floor).slope
                if i >= 2
                else float("nan")
            )
        out[q] = (fit, rows)
    return out


def measure_report_for_phi(eb: EmbeddedBubble) -> MeasureReport:
    """Areas, volumes and energy only (skips curvature sampling)."""
    areas = measure_area(eb)
    volumes = measure_volumes(eb)
    energy = measure_energy(eb, areas=areas, volumes=volumes)
    return MeasureReport(
        areas=tuple(areas),
        v1=volumes[0],
        v2=volumes[1],
        mean_curvature_samples=(),
        conormal_defect=float("nan"),
        energy=energy,
        rho=eb.rho,
        bubble_fingerprint=eb.bubble.fingerprint(),
    )


def expansion_threshold(claimed_order: int) -> float:
    """Pass threshold for fitted remainder slopes."""
    return claimed_order - 0.3


def monte_carlo_volumes(
    bubble: StandardBubble, n_samples: int = 10**7, seed: int = 0
) -> tuple[float, float]:
    """Rejection-sampling (V1, V2) of the flat model, with a tight bounding
    box per chamber; the independent check of the sector decomposition."""
    rng = np.random.default_rng(seed)
    n = bubble.m + 1
    c = np.array(bubble.centers)
    r = np.array([0.0 if not math.isfinite(x) else x for x in bubble.radii])

    def membership(pts, which):
        ax = pts[:, -1]
        p0 = None
        if not bubble.symmetric:
            d0 = np.sum((pts - np.array([0.0] * bubble.m + [c[0]])) ** 2, axis=1)
            p0 = (ax <= 0.0) & (d0 <= r[0] ** 2)
        if which == 1:
            d1 = np.sum((pts - np.array([0.0] * bubble.m + [c[1]])) ** 2, axis=1)
            p1 = (ax >= 0.0) & (d1 <= r[1] ** 2)
            return p1 if p0 is None else (p1 | p0)
        d2 = np.sum((pts - np.array([0.0] * bubble.m + [c[2]])) ** 2, axis=1)
        p2 = (ax <= 0.0) & (d2 <= r[2] ** 2)
        return p2 if p0 is None else (p2 & ~p0)

    bulge = 0.0 if bubble.symmetric else min(0.0, c[0] - r[0])
    boxes = {
        1: (max(bubble.neck_radius, r[1]), bulge, c[1] + r[1]),
        2: (max(bubble.neck_radius, r[2]), c[2] - r[2], 0.0),
    }
    out = []
    for which in (1, 2):
        half, lo, hi = boxes[which]
        vol_box = (2.0 * half) ** bubble.m * (hi - lo)
        inside = 0
        done = 0
        while done < n_samples:
            k = min(10**6, n_samples - done)
            pts = rng.uniform(-half, half, size=(k, n))
            pts[:, -1] = rng.uniform(lo, hi, size=k)
            inside += int(np.count_nonzero(membership(pts, which)))
            done += k
        out.append(vol_box * inside / n_samples)
    return out[0], out[1]
