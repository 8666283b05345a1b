"""Independent models and checks that the tests hold the package against.

* Exact geometry of the unit 3-sphere embedded in R^4: the exponential map is
  the great-circle formula and all first fundamental forms are computed with
  the ambient Euclidean metric of R^4.
* Monte-Carlo chamber volumes of the flat model.
* Chamber volumes of an EmbeddedBubble from signed geodesic cones over its
  sheets, the reference for the package's straight chart cones.  The rays
  come from the ray kernel the caller passes in, so this check shares the
  chart's geodesics and judges the straight-cone identity alone.
* The fundamental forms of an EmbeddedBubble's sheets by first differences
  of its embedded points and tangents on a stencil of rays around each
  sample, and its conormal defect from rays of its own at the neck, the
  references for the package's grid interpolant of the sheets' embedding.
  The exponential map and the connection come from the caller as well.
* The rho^2 coefficients of the cap volumes and sheet areas by direct
  quadrature of their moment integrands, and the per-sheet assembly of the
  symmetric reduced-energy constants.
* The exact scalar curvature of the conformal bump, junction residuals of
  admissible closures and random smooth fields (the negative control of the
  Jacobi kernel).

The package modules these checks judge (charts, measure, expansions) are not
imported: only the flat model of geometry and fields.PerturbationField, the
container of a field, are.  Agreement between these numbers and the
package's is therefore a genuine two-implementation check.
"""

import math

import numpy as np

from doublebubble.fields import PerturbationField
from doublebubble.geometry import (
    TWO_THIRDS_PI,
    angles_to_dirs,
    conormals_at_neck,
    gauss_legendre,
    sheet_normal,
    sheet_point,
    sheet_tangents,
    sine_power_integral,
    unit_ball_volume,
)

P4 = np.array([0.0, 0.0, 0.0, -1.0])  # base point (image of the chart origin)


def exp_s3(v3):
    """Exp at P4 of tangent vectors given in the 3 flat frame directions."""
    v3 = np.asarray(v3, dtype=float)
    v4 = np.concatenate([v3, np.zeros(v3.shape[:-1] + (1,))], axis=-1)
    norm = np.linalg.norm(v4, axis=-1, keepdims=True)
    small = norm < 1e-300
    direction = v4 / np.where(small, 1.0, norm)
    return np.cos(norm) * P4 + np.sin(norm) * direction


def surface_area(points_fn, z_nodes, z_weights, steps):
    """Area of the image of a parametrized surface under exp_s3.

    points_fn maps (N, m) parameters to (N, 3) flat tangent points; the Gram
    matrices use finite differences of the R^4 embedding.
    """
    m = z_nodes.shape[1]
    pos = exp_s3(points_fn(z_nodes))
    tangents = []
    for i in range(m):
        dz = np.zeros(m)
        dz[i] = steps[i]
        vals = [exp_s3(points_fn(z_nodes + c * dz)) for c in (-2, -1, 1, 2)]
        tangents.append((8.0 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12.0 * steps[i]))
    tang = np.stack(tangents, axis=1)
    gram = np.einsum("nik,njk->nij", tang, tang)
    return float(np.sum(z_weights * np.sqrt(np.linalg.det(gram))))


def cone_volume(apex3, surf_fn, z_nodes, z_weights, steps, n_s=12):
    """Volume of exp_s3 of the cone from apex3 over the parametrized surface."""
    t, wt = np.polynomial.legendre.leggauss(n_s)
    s_nodes = 0.5 * (t + 1.0)
    s_weights = 0.5 * wt
    m = z_nodes.shape[1]
    apex3 = np.asarray(apex3, dtype=float)
    surf0 = surf_fn(z_nodes)
    total = 0.0
    hs = 1e-4
    for sv, sw in zip(s_nodes, s_weights):
        pos = exp_s3(apex3 + sv * (surf0 - apex3))
        cols = []
        vals = [exp_s3(apex3 + (sv + c * hs) * (surf0 - apex3)) for c in (-2, -1, 1, 2)]
        cols.append((8.0 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12.0 * hs))
        for i in range(m):
            dz = np.zeros(m)
            dz[i] = steps[i]
            vals = [exp_s3(apex3 + sv * (surf_fn(z_nodes + c * dz) - apex3)) for c in (-2, -1, 1, 2)]
            cols.append((8.0 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12.0 * steps[i]))
        tang = np.stack(cols, axis=1)
        gram = np.einsum("nik,njk->nij", tang, tang)
        total += sw * float(np.sum(z_weights * np.sqrt(np.linalg.det(gram))))
    return total


def chamber_volumes(rho, centers, radii, symmetric, n_nodes=200):
    """(V1, V2) of the exp_s3 image of rho times a flat standard double bubble
    whose neck centre is the origin, by the exact S^3 density sin^2 along
    rays: the image of [0, R] along a unit ray has volume
    rho R / 2 - sin(2 rho R) / 4 per unit solid angle.  The chambers are
    axisymmetric, so the solid angle reduces to 2 pi d(theta_z).
    """
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    tz = 0.5 * (t + 1.0)
    w = np.pi * w  # 2 pi times the half-length of [0, 1]

    def ray(sheet, cz):
        c, r = centers[sheet], radii[sheet]
        big_r = c * cz + np.sqrt(r**2 - c**2 * (1.0 - cz**2))
        return rho * big_r / 2.0 - np.sin(2.0 * rho * big_r) / 4.0

    v1 = float(w @ ray(1, tz))
    v2 = float(w @ ray(2, -tz))
    if not symmetric:
        p0 = float(w @ ray(0, -tz))
        v1 += p0
        v2 -= p0
    return v1, v2


def geodesic_cone_volumes(eb, exp_rays):
    """(V1, V2) of an EmbeddedBubble from the signed geodesic cones over its
    sheets, where measure_volumes takes straight chart cones.

    Sheet s is the cone (t, z) -> Exp_p(t rho E y(z)), t in [0, 1], over the
    displaced flat sheet y = x + s D of the bubble's flat model, whose
    Jacobian is t^m det(dExp_p(t rho E y) W) sqrt(det G) with W = rho E [y,
    d_z y] (do Carmo, Riemannian Geometry, ch. 5).  exp_rays is the ray
    kernel charts._exp_rays, passed in so that this module imports no judged
    module: one call per sheet gives the points and dExp W at sector_nodes
    Gauss-Legendre nodes in t, geodesic_steps RK4 steps split over the node
    gaps.  The cones carry the sheets' orientation signs and sign(det E);
    V1 = -(C1 + C0) and V2 = C0 - C2.
    """
    model = eb.model
    t, wt = np.polynomial.legendre.leggauss(model.sector_nodes)
    t = 0.5 * (t + 1.0)
    gaps = np.diff(np.concatenate([[0.0], t]))
    substeps = np.maximum(1, np.ceil(model.geodesic_steps * gaps)).astype(int)
    radial = 0.5 * wt * t**eb.bubble.m
    e = eb.frame.matrix
    scale = 0.0 if eb.perturbation is None else eb.perturbation.scale
    cones = []
    for sheet in model.sheets:
        x, dx, d, dd = sheet.jet
        y, dy = (x, dx) if d is None else (x + scale * d, dx + scale * dd)
        # columns [y, d_z y] (N, n, n) mapped to W = rho E [y, d_z y] (n, n, N)
        cols = np.concatenate([y[:, None], dy], axis=1)
        w = eb.rho * np.einsum("ij,nkj->ikn", e, cols)
        points, push = exp_rays(eb.chart, eb.frame.base, w[:, 0], t, substeps, directions=w)
        jacobian = np.linalg.det(np.moveaxis(push, (0, 1), (-2, -1))) * eb.chart.volume_element(points)
        cones.append(float(np.sum(sheet.w * sheet.orient * (jacobian @ radial))))
    c0, c1, c2 = np.sign(np.linalg.det(e)) * np.array(cones)
    return float(-(c1 + c0)), float(c0 - c2)


def embedded_sheet(eb, sheet, z, exp_map):
    """(Y (..., n), T (..., n, m)) of an EmbeddedBubble's sheet at parameters
    z (..., m): Y = Exp_p(rho E y) and T = rho dExp_p(rho E y) E d_z y
    through the package's exp_map, passed in, of the displaced flat sheet
    y = x + w N + Y of the bubble's field, d_z y by complex step."""
    b, field = eb.bubble, eb.perturbation
    z = np.asarray(z, dtype=float)

    def displaced(zz):
        polar, dirs = zz[..., 0], angles_to_dirs(b.m, zz[..., 1:])
        x = sheet_point(b, sheet, polar, dirs)
        if field is None:
            return x
        return x + field.w(sheet, polar, dirs)[..., None] * sheet_normal(b, sheet, polar, dirs) + field.y(
            sheet, polar, dirs)

    y = displaced(z)
    if field is None:
        dy = sheet_tangents(b, sheet, z)
    else:
        dy = np.stack([displaced(z + 1e-30j * e).imag / 1e-30 for e in np.eye(b.m)], axis=-2)
    e = eb.frame.matrix
    v, w = eb.rho * y @ e.T, eb.rho * np.einsum("ij,...kj->...ik", e, dy)
    return exp_map(eb.chart, eb.frame.base, v, steps=eb.model.geodesic_steps, directions=w)


def stencil_fundamental_forms(eb, sheet, z, exp_map, christoffel, rel=1e-3):
    """(first form, second form) (N, m, m) of an EmbeddedBubble's sheet at
    parameters z (N, m), the samples at least 2.5 steps inside the sheet.

    The embedded points and tangents [Y, T] (embedded_sheet) at the 5-point
    stencils z + c h e_i, c = +-1, +-2, with h rel times the polar range and
    rel pi for each angle, give the 4th-order first differences d_p T_q.
    The first form is T^T G T, the second the covariant derivative
    sym(d_p T_q) + Gamma(T_p, T_q) along the G-unit normal of the cofactor
    covector c_a = det[e_a, T], on the side sign(det E) sign det[N, d_z x]
    of the flat sheet.  christoffel(chart, x) gives Gamma^a_ij (..., a, i, j).
    """
    b = eb.bubble
    m = b.m
    z = np.asarray(z, dtype=float)
    h = rel * np.array([b.polar_limit(sheet)] + [math.pi] * (m - 1))
    if np.any(z[:, 0] - 2.5 * h[0] < 0.0) or np.any(z[:, 0] + 2.5 * h[0] > b.polar_limit(sheet)):
        raise ValueError("stencil leaves the sheet")
    shifts = np.array([c * h[i] * np.eye(m)[i] for i in range(m) for c in (1, -1, 2, -2)])
    pos, push = embedded_sheet(eb, sheet, np.concatenate([z[None], z + shifts[:, None]]), exp_map)
    pos, tangents = pos[0], push[0]
    ts = push[1:].reshape((m, 4) + push.shape[1:])
    dt = np.stack([(8.0 * (t[0] - t[1]) - (t[2] - t[3])) / (12.0 * hi) for t, hi in zip(ts, h)], axis=1)
    gmat = eb.chart.metric(pos)
    gram = np.einsum("nap,nab,nbq->npq", tangents, gmat, tangents)
    cov = 0.5 * (dt + np.swapaxes(dt, 1, 3))
    cov = cov + np.einsum("naij,nip,njq->npaq", christoffel(eb.chart, pos), tangents, tangents)
    n = pos.shape[-1]
    cof = np.stack([np.linalg.det(np.concatenate(
        [np.broadcast_to(np.eye(n)[a][:, None], (len(z), n, 1)), tangents], axis=2)) for a in range(n)], axis=1)
    norm = np.sqrt(np.einsum("na,na->n", cof, np.linalg.solve(gmat, cof[..., None])[..., 0]))
    polar, dirs = z[:, 0], angles_to_dirs(m, z[:, 1:])
    flat = np.concatenate([sheet_normal(b, sheet, polar, dirs)[:, :, None],
                           np.swapaxes(sheet_tangents(b, sheet, z), 1, 2)], axis=2)
    side = np.sign(np.linalg.det(eb.frame.matrix)) * np.sign(np.linalg.det(flat))
    return gram, np.einsum("npaq,na->npq", cov, cof) * (side / norm)[:, None, None]


def neck_conormal_defect(eb, exp_map, n_angles=32):
    """sup over n_angles equispaced neck angles of || sum_s nu_s ||_G for an
    EmbeddedBubble at m = 2, from rays of its own at the neck points
    (polar_limit, angle) of each sheet (embedded_sheet): nu_s is the
    G-unit inward tangent G-orthogonal to the neck tangent, and the norm
    takes the metric at sheet 2's neck points."""
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    nus = []
    for s in range(3):
        z = np.stack([np.full(n_angles, eb.bubble.polar_limit(s)), angles], axis=1)
        pos, push = embedded_sheet(eb, s, z, exp_map)
        gmat = eb.chart.metric(pos)
        dpol, dth = push[..., 0], push[..., 1]

        def dot(a, c):
            return np.einsum("na,nab,nb->n", a, gmat, c)[:, None]

        nu = (dot(dpol, dth) / dot(dth, dth)) * dth - dpol
        nus.append(nu / np.sqrt(dot(nu, nu)))
    total = nus[0] + nus[1] + nus[2]
    return float(np.max(np.sqrt(np.einsum("na,nab,nb->n", total, gmat, total))))


def geodesic_ball_volume(t):
    """Exact volume of a geodesic ball of radius t in the unit S^3."""
    return float(2.0 * np.pi * (t - np.sin(t) * np.cos(t)))


def geodesic_sphere_area(t):
    """Exact area of a geodesic sphere of radius t in the unit S^3."""
    return float(4.0 * np.pi * np.sin(t) ** 2)


# ---------------------------------------------------------------------------
# flat model


def monte_carlo_volumes(bubble, n_samples=10**7, seed=0):
    """Rejection-sampling (V1, V2) of the flat model, with a tight bounding
    box per chamber; the independent check of the chamber volumes.

    Squared distances to the sphere centres on the axis are summed over the
    coordinates one by one, in the order np.sum(..., axis=1) adds a short
    row, so the counts are those of that sum without its reduction call."""
    rng = np.random.default_rng(seed)
    n = bubble.m + 1
    c = np.array(bubble.centers)
    r = np.array([0.0 if not math.isfinite(x) else x for x in bubble.radii])

    def membership(pts, which):
        ax = pts[:, -1]
        perp = pts[:, 0] ** 2
        for i in range(1, bubble.m):
            perp = perp + pts[:, i] ** 2

        def in_ball(s):
            return perp + (ax - c[s]) ** 2 <= r[s] ** 2

        p0 = None
        if not bubble.symmetric:
            p0 = (ax <= 0.0) & in_ball(0)
        if which == 1:
            p1 = (ax >= 0.0) & in_ball(1)
            return p1 if p0 is None else (p1 | p0)
        p2 = (ax <= 0.0) & in_ball(2)
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


def junction_residual(bubble, closure):
    """Max norm of the pairwise differences of the reconstructed neck
    displacements w_s N_s + u_s nu_s in the (radial, axial) plane."""
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
    return float(max(np.abs(disp[1] - disp[0]).max(), np.abs(disp[1] - disp[2]).max()))


def random_smooth_field(bubble, rng):
    """Random smooth normal fields (not admissible in general); the negative
    control against the Killing kernel."""
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
            return out

        return w

    return PerturbationField(bubble, tuple(make_w(s) for s in range(3)), name="random")


# ---------------------------------------------------------------------------
# rho^2 coefficients by direct quadrature of the moment integrands


def _quad(fun, a, b):
    """60-node Gauss-Legendre quadrature of fun over [a, b]."""
    t, w = gauss_legendre(60)
    x = 0.5 * (b - a) * (t + 1.0) + a
    return 0.5 * (b - a) * float(np.sum(w * fun(x)))


def cap_volume_coefficients_quad(bubble, sheet):
    """(sc_coeff, ric_coeff) of the rho^-(m+1) volume of the region between
    cap `sheet` and the neck disk, by direct quadrature.

    Slices the region into slabs at polar angle t (cross-section radius
    a = R sin t, height above the neck plane z = R (cos t - cos phi)) and
    integrates the second moments of -(1/6) Ric(x, x) directly, with no use
    of the sine-power recursion.
    """
    if sheet == 0 and bubble.symmetric:
        raise ValueError("the symmetric interface encloses no region")
    m = bubble.m
    om = unit_ball_volume(m)
    r_s = bubble.radii[sheet]
    phi = bubble.phi[sheet]

    def slab(t):
        # slab volume density in t: omega_m a(t)^m * |dz/dt|
        return om * (r_s * np.sin(t)) ** m * r_s * np.sin(t)

    def perp1(t):
        # per-direction transverse moment of a ball of radius a(t)
        return (r_s * np.sin(t)) ** 2 / (m + 2)

    def axial(t):
        return r_s * (np.cos(t) - math.cos(phi))

    sc = -(1.0 / 6.0) * _quad(lambda t: slab(t) * perp1(t), 0.0, phi)
    ric = -(1.0 / 6.0) * _quad(lambda t: slab(t) * (axial(t) ** 2 - perp1(t)), 0.0, phi)
    return sc, ric


def cap_area_coefficients_quad(bubble, sheet):
    """(sc_coeff, ric_coeff) of the rho^-m area of `sheet` by direct quadrature.

    Integrates -(1/6) [Ric(x,x) + Rm(x,n,x,n)] over the sheet, with x the
    absolute position and n its unit normal, reduced to latitude moments.
    """
    m = bubble.m
    om = unit_ball_volume(m)
    if sheet == 0 and bubble.symmetric:
        r = bubble.neck_radius

        def ddens(y):
            return m * om * y ** (m - 1)

        # per-direction in-plane moment y^2/m; the normal term contributes
        # -Ric(s,s) times the same moment
        sc = -(1.0 / 6.0) * _quad(lambda y: ddens(y) * y**2 / m, 0.0, r)
        ric = -(1.0 / 6.0) * _quad(lambda y: ddens(y) * (-2.0) * y**2 / m, 0.0, r)
        return sc, ric
    r_s = bubble.radii[sheet]
    phi = bubble.phi[sheet]

    def dens(t):
        return m * om * r_s**m * np.sin(t) ** (m - 1)

    def perp1(t):
        # per-direction moment of the latitude sphere of radius R sin t
        return (r_s * np.sin(t)) ** 2 / m

    def axial(t):
        return r_s * (np.cos(t) - math.cos(phi))

    # Ric(x,x) -> Sc perp1 + Ric(s,s) (axial^2 - perp1);
    # Rm(x,n,x,n) = cos^2(phi) R^2 Rm(s, n, s, n) -> -Ric(s,s) cos^2(phi) perp1
    sc = -(1.0 / 6.0) * _quad(lambda t: dens(t) * perp1(t), 0.0, phi)
    ric = -(1.0 / 6.0) * _quad(
        lambda t: dens(t) * (axial(t) ** 2 - (1.0 + math.cos(phi) ** 2) * perp1(t)),
        0.0,
        phi,
    )
    return sc, ric


def assembled_constants(bubble):
    """(A, B) of a symmetric bubble assembled sheet by sheet: R^(m+2) (a, b)
    of each cap at opening angle 2 pi / 3, with a = I_(m+1) + m I_(m+3)/(m+2)
    and b = (2m+1) I_(m+1) - (2m+2)/(m+2) sin^(m+2) cos, plus the disk pair
    (r^(m+2)/(m+2), -r^(m+2)/(m+2)); the H0 -> 0 limit of the asymmetric
    constants."""
    if not bubble.symmetric:
        raise ValueError("the assembly is of the symmetric bubble")
    m = bubble.m
    phi = TWO_THIRDS_PI
    i_m1 = sine_power_integral(m + 1, phi)
    i_m3 = sine_power_integral(m + 3, phi)
    a_cap = i_m1 + m * i_m3 / (m + 2)
    b_cap = (2 * m + 1) * i_m1 - (2 * m + 2) / (m + 2) * math.sin(phi) ** (m + 2) * math.cos(phi)
    caps = 2.0 * bubble.radii[1] ** (m + 2)
    disk = bubble.neck_radius ** (m + 2) / (m + 2)
    return caps * a_cap + disk, caps * b_cap - disk


# ---------------------------------------------------------------------------
# conformal bump


def bump_scalar_curvature(chart, x):
    """Exact scalar curvature of the conformal bump chart at points x (..., n),
    in plain numpy from the chart's settings eps, s and x0: for g = e^(2f)
    delta with f = eps exp(-|x - x0|^2 / s^2),

      Sc = -(n-1) e^(-2f) (2 Laplacian f + (n-2) |grad f|^2),
      grad f = -2 f (x - x0) / s^2,  Laplacian f = f (4 |x - x0|^2 / s^4 - 2 n / s^2).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    dist2 = np.sum((x - chart.x0) ** 2, axis=-1)
    f = chart.eps * np.exp(-dist2 / chart.s**2)
    grad2 = 4.0 * f**2 * dist2 / chart.s**4
    lap = f * (4.0 * dist2 / chart.s**4 - 2.0 * n / chart.s**2)
    return -(n - 1) * np.exp(-2.0 * f) * (2.0 * lap + (n - 2) * grad2)
