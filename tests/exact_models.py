"""Independent exact geometry of the unit 3-sphere, used to cross-check the
package oracle.

Everything here works with the round S^3 embedded in R^4: the exponential
map is the great-circle formula and all first fundamental forms are computed
with the ambient Euclidean metric of R^4.  Nothing imports charts or measure,
so agreement between these numbers and the package oracle is a genuine
two-implementation check.
"""

import numpy as np

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


def geodesic_ball_volume(t):
    """Exact volume of a geodesic ball of radius t in the unit S^3."""
    return float(2.0 * np.pi * (t - np.sin(t) * np.cos(t)))


def geodesic_sphere_area(t):
    """Exact area of a geodesic sphere of radius t in the unit S^3."""
    return float(4.0 * np.pi * np.sin(t) ** 2)
