"""Exact Euclidean geometry of centered standard double bubbles.

A standard double bubble with sheet dimension m lives in R^(m+1), is aligned
along the last coordinate axis and consists of three sheets meeting along an
(m-1)-sphere (the neck) of radius r in the hyperplane {x_last = 0}:

  sheet 1  cap of the sphere S(c1*axis, R1), outer boundary of the chamber B1
           (B1 sits on the positive side of the axis),
  sheet 2  cap of S(c2*axis, R2), outer boundary of B2,
  sheet 0  interface between B1 and B2; a cap of S(c0*axis, R0) bulging into
           B2, or a flat disk of radius r when the two chambers balance
           (H0 = 0, the "symmetric" case).

Mean curvatures use the trace convention H = m/R.  Opening angles phi_s
measure each cap from its pole to the neck; the neck relations are

  R_s sin(phi_s) = r,   phi0 + phi1 = 2*pi/3,   phi1 + phi2 = 4*pi/3,

which encode the 120 degree junction.  Axial centers are

  c1 = -R1 cos(phi1),   c2 = +R2 cos(phi2),   c0 = +R0 cos(phi0),

fixed by requiring the neck at height 0 with B1 on the positive side; in the
symmetric case this gives c1 = R/2 = -c2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
FOUR_THIRDS_PI = 4.0 * math.pi / 3.0

BALANCE_RTOL = 1e-12


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m (omega_m); omega_0 = 1 by convention."""
    if m < 0:
        raise ValueError(f"dimension must be >= 0, got {m}")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


_SMALL_ANGLE = 0.5
_GL64 = np.polynomial.legendre.leggauss(64)


def sine_power_integral(k: int, x):
    """I_k(x) = integral of sin(t)^k over [0, x].

    Upward recursion I_k = ((k-1) I_(k-2) - sin(x)^(k-1) cos(x)) / k from
    I_0 = x, I_1 = 2 sin^2(x/2); below x = 0.5 the recursion cancels
    catastrophically for k >= 2 (I_k ~ x^(k+1)/(k+1) while both recursion
    terms are O(x^(k-1))), so small angles use Gauss-Legendre directly.
    Accepts scalar or ndarray x in [0, pi].
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < -1e-15) or np.any(x_arr > math.pi + 1e-15):
        raise ValueError("argument must lie in [0, pi]")
    s, c = np.sin(x_arr), np.cos(x_arr)
    even, odd = x_arr.astype(float), 2.0 * np.sin(0.5 * x_arr) ** 2
    if k == 0:
        out = even
    elif k == 1:
        out = odd
    else:
        out = None
        for j in range(2, k + 1):
            prev = even if j % 2 == 0 else odd
            val = ((j - 1) * prev - s ** (j - 1) * c) / j
            if j % 2 == 0:
                even = val
            else:
                odd = val
        out = val
        small = x_arr < _SMALL_ANGLE
        if np.any(small):
            xs = np.atleast_1d(x_arr)[np.atleast_1d(small)]
            t, w = _GL64
            nodes = 0.5 * xs[:, None] * (t[None, :] + 1.0)
            vals = 0.5 * xs * np.sum(w[None, :] * np.sin(nodes) ** k, axis=1)
            if np.ndim(out) == 0:
                out = vals[0]
            else:
                out = out.copy()
                out[small] = vals
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass(frozen=True)
class BubbleParams:
    """Mean-curvature triple (trace convention) of a standard double bubble.

    Requires h1 = h0 + h2 (the junction balance), h1, h2 > 0 and h0 >= 0;
    h0 = 0 flags the symmetric (flat interface) case.
    """

    m: int
    h0: float
    h1: float
    h2: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"sheet dimension must be >= 1, got {self.m}")
        if self.h2 <= 0.0 or self.h1 <= 0.0:
            raise ValueError("h1 and h2 must be positive")
        if self.h0 < 0.0:
            raise ValueError("h0 must be nonnegative")
        scale = max(self.h1, self.h2, abs(self.h0))
        if abs(self.h1 - (self.h0 + self.h2)) > BALANCE_RTOL * scale:
            raise ValueError(
                f"balance equation violated: h1={self.h1} != h0+h2={self.h0 + self.h2}"
            )

    @property
    def symmetric(self) -> bool:
        return self.h0 == 0.0

    @property
    def dim(self) -> int:
        """Ambient dimension m + 1."""
        return self.m + 1


@dataclass(frozen=True)
class StandardBubble:
    """Solved geometry of a centered standard double bubble.

    radii[0] is math.inf in the symmetric case (flat disk); `symmetric` is the
    authoritative flag, never a radius comparison.  centers are the signed
    axial positions of the three sphere centers (centers[0] = 0.0 for the
    disk).  v1 <= v2 always.
    """

    params: BubbleParams
    radii: tuple[float, float, float]
    phi: tuple[float, float, float]
    neck_radius: float
    centers: tuple[float, float, float]
    v1: float
    v2: float
    sheet_areas: tuple[float, float, float]

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def symmetric(self) -> bool:
        return self.params.symmetric

    def polar_limit(self, sheet: int) -> float:
        """Upper end of the polar parameter of a sheet: the neck radius on the
        symmetric disk, the opening angle phi_s on a cap."""
        if sheet == 0 and self.symmetric:
            return self.neck_radius
        return self.phi[sheet]

    def fingerprint(self) -> tuple:
        """Provenance key used to match measurements with formulas."""
        p = self.params
        return (p.m, p.h0, p.h1, p.h2)


def _polish_phi1(phi1: float, r1: float, r2: float) -> float:
    # Newton on f(phi) = r1 sin(phi) - r2 sin(4pi/3 - phi); robust near phi1 = pi/2.
    for _ in range(60):
        f = r1 * math.sin(phi1) - r2 * math.sin(FOUR_THIRDS_PI - phi1)
        df = r1 * math.cos(phi1) + r2 * math.cos(FOUR_THIRDS_PI - phi1)
        step = f / df
        phi1 -= step
        if abs(step) < 1e-16:
            break
    return phi1


def solve_standard_bubble(params: BubbleParams) -> StandardBubble:
    """Solve the neck relations for the given curvature triple.

    Asymmetric branch: phi1 satisfies tan(phi1) = sqrt(3) R2 / (R2 - 2 R1) on
    (pi/3, 2pi/3), then phi0 = 2pi/3 - phi1 and phi2 = 4pi/3 - phi1.  The
    root is polished until the sine-law residual drops below 1e-14.
    Symmetric branch: phi1 = phi2 = 2pi/3, flat disk of radius sqrt(3)/2 * R.
    """
    m = params.m
    r1 = m / params.h1
    r2 = m / params.h2
    if params.symmetric:
        r = 0.5 * math.sqrt(3.0) * r1
        radii = (math.inf, r1, r1)
        phi = (0.0, TWO_THIRDS_PI, TWO_THIRDS_PI)
        centers = (0.0, 0.5 * r1, -0.5 * r1)
    else:
        r0 = m / params.h0
        phi1 = math.atan2(math.sqrt(3.0) * r2, r2 - 2.0 * r1)
        phi1 = _polish_phi1(phi1, r1, r2)
        phi = (TWO_THIRDS_PI - phi1, phi1, FOUR_THIRDS_PI - phi1)
        r = r1 * math.sin(phi1)
        radii = (r0, r1, r2)
        centers = (r0 * math.cos(phi[0]), -r1 * math.cos(phi1), r2 * math.cos(phi[2]))
    bubble = StandardBubble(
        params=params,
        radii=radii,
        phi=phi,
        neck_radius=r,
        centers=centers,
        v1=0.0,
        v2=0.0,
        sheet_areas=(0.0, 0.0, 0.0),
    )
    v1, v2 = enclosed_volumes(bubble)
    areas = tuple(sheet_area(bubble, s) for s in range(3))
    return StandardBubble(
        params=params,
        radii=radii,
        phi=phi,
        neck_radius=r,
        centers=centers,
        v1=v1,
        v2=v2,
        sheet_areas=areas,
    )


def region_volume(bubble: StandardBubble, sheet: int) -> float:
    """|P_s|: volume enclosed between cap `sheet` and the neck disk.

    |P_s| = omega_m R_s^(m+1) I_(m+1)(phi_s); zero for the symmetric disk.
    """
    if sheet == 0 and bubble.symmetric:
        return 0.0
    m = bubble.m
    r_s = bubble.radii[sheet]
    return unit_ball_volume(m) * r_s ** (m + 1) * sine_power_integral(m + 1, bubble.phi[sheet])


def enclosed_volumes(bubble: StandardBubble) -> tuple[float, float]:
    """(V1, V2) from the signed region decomposition V1 = |P1| + |P0|, V2 = |P2| - |P0|."""
    p0 = region_volume(bubble, 0)
    p1 = region_volume(bubble, 1)
    p2 = region_volume(bubble, 2)
    return p1 + p0, p2 - p0


def sheet_area(bubble: StandardBubble, sheet: int) -> float:
    """m-area of one sheet: cap m omega_m R^m I_(m-1)(phi), disk omega_m r^m."""
    m = bubble.m
    if sheet == 0 and bubble.symmetric:
        return unit_ball_volume(m) * bubble.neck_radius**m
    r_s = bubble.radii[sheet]
    return m * unit_ball_volume(m) * r_s**m * sine_power_integral(m - 1, bubble.phi[sheet])


def conormals_at_neck(bubble: StandardBubble) -> np.ndarray:
    """Inward unit conormals of the three sheets at the neck, rows (radial, axial).

    The axial component is measured along the alignment axis; equiangularity
    is the vanishing of the row sum.
    """
    phi0, phi1, phi2 = bubble.phi
    if bubble.symmetric:
        nu0 = (-1.0, 0.0)
    else:
        nu0 = (-math.cos(phi0), -math.sin(phi0))
    return np.array(
        [nu0, (-math.cos(phi1), math.sin(phi1)), (-math.cos(phi2), -math.sin(phi2))]
    )


def sheet_point(bubble: StandardBubble, sheet: int, polar, dirs) -> np.ndarray:
    """Point of a sheet in R^(m+1) at parameters (polar, unit direction).

    Caps take polar = angle in [0, phi_s] from the pole; the symmetric disk
    takes polar = radius in [0, r].  `dirs` has shape (..., m) with unit rows;
    `polar` broadcasts against its leading shape.
    """
    polar = np.asarray(polar, dtype=float)[..., None]
    dirs = np.asarray(dirs, dtype=float)
    axis_is_disk = sheet == 0 and bubble.symmetric
    if axis_is_disk:
        radial = polar * dirs
        axial = np.zeros(radial.shape[:-1] + (1,))
        return np.concatenate([radial, axial], axis=-1)
    r_s = bubble.radii[sheet]
    c_s = bubble.centers[sheet]
    radial = r_s * np.sin(polar) * dirs
    sign = 1.0 if sheet == 1 else -1.0
    axial = c_s + sign * r_s * np.cos(polar)
    return np.concatenate([radial, axial], axis=-1)


def sheet_normal(bubble: StandardBubble, sheet: int, polar, dirs) -> np.ndarray:
    """Unit normal at the given parameters, oriented so that N1 = N0 + N2 on the neck.

    N points into B1 along sheets 0 and 1 and into B2 along sheet 2; for the
    spherical sheets this is (C_s - X)/R_s, for the flat disk the positive
    axis direction.
    """
    dirs = np.asarray(dirs, dtype=float)
    if sheet == 0 and bubble.symmetric:
        out = np.zeros(dirs.shape[:-1] + (dirs.shape[-1] + 1,))
        out[..., -1] = 1.0
        return out
    x = sheet_point(bubble, sheet, polar, dirs)
    center = np.zeros(x.shape[-1])
    center[-1] = bubble.centers[sheet]
    return (center - x) / bubble.radii[sheet]


def sphere_rule(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature rule on the unit sphere S^(m-1) in angle coordinates.

    Returns the angles (N, m-1), the unit nodes (N, m) and the weights (N,)
    of the angle measure d(angles); the round measure is sqrt(det h) times
    it, with h from round_metric.  m = 1: the two points of S^0 (no angles);
    m = 2: n equally spaced angles theta, nodes (cos, sin); m = 3: product
    Gauss-Legendre in cos(alpha) times n azimuths beta, nodes
    (sin alpha cos beta, sin alpha sin beta, cos alpha).
    """
    if m == 1:
        return np.zeros((2, 0)), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    theta = 2.0 * math.pi * np.arange(n) / n
    if m == 2:
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return theta[:, None], nodes, np.full(n, 2.0 * math.pi / n)
    if m == 3:
        n_pol = max(4, n // 2)
        t, wt = np.polynomial.legendre.leggauss(n_pol)
        alpha = np.arccos(t)
        ct, st = np.cos(theta), np.sin(theta)
        sin_pol = np.sqrt(1.0 - t**2)
        nodes = np.stack(
            [
                np.outer(sin_pol, ct).ravel(),
                np.outer(sin_pol, st).ravel(),
                np.repeat(t, n),
            ],
            axis=1,
        )
        angles = np.stack([np.repeat(alpha, n), np.tile(theta, n_pol)], axis=1)
        # the Gauss-Legendre weights are for d(cos alpha) = sin(alpha) d(alpha)
        weights = np.repeat(wt / np.sin(alpha), n) * (2.0 * math.pi / n)
        return angles, nodes, weights
    raise ValueError(f"no sphere rule for m = {m} (supported: 1, 2, 3)")


def flat_rule(m: int, upper: float, grid: tuple[int, int], density=None):
    """Tensor-product rule on the flat parameter domain [0, upper] x S^(m-1).

    Gauss-Legendre nodes in the polar parameter times sphere_rule(m, n_sphere),
    grid = (n_polar, n_sphere).  Returns the nodes z = (polar, angles) (N, m),
    their unit directions (N, m) and the weights (N,) of d(polar) d(angles),
    each polar weight first multiplied by density(polar) when given.  Sheet
    s of a bubble takes upper = bubble.polar_limit(s); its area weights are
    these weights times the flat area element sqrt(det g) of flat_metric.
    """
    n_polar, n_sphere = grid
    t, w = np.polynomial.legendre.leggauss(n_polar)
    polar = 0.5 * upper * (t + 1.0)
    w_polar = 0.5 * upper * w
    if density is not None:
        w_polar = w_polar * density(polar)
    angles, dirs, w_angles = sphere_rule(m, n_sphere)
    k = len(w_angles)
    z = np.concatenate([np.repeat(polar, k)[:, None], np.tile(angles, (n_polar, 1))], axis=1)
    return z, np.tile(dirs, (n_polar, 1)), np.outer(w_polar, w_angles).ravel()


def round_metric(angles) -> tuple[np.ndarray, np.ndarray]:
    """Round metric h of S^(m-1) in the angles of sphere_rule, (..., m-1, m-1),
    and its Christoffel symbols (..., k, i, j): h = d theta^2 for m = 2 and
    d alpha^2 + sin^2(alpha) d beta^2 for m = 3."""
    angles = np.asarray(angles, dtype=float)
    k = angles.shape[-1]
    if k > 2:
        raise ValueError(f"no angle parametrization of S^{k}")
    h = np.zeros(angles.shape + (k,))
    gamma = np.zeros(angles.shape + (k, k))
    idx = np.arange(k)
    h[..., idx, idx] = 1.0
    if k == 2:
        sa, ca = np.sin(angles[..., 0]), np.cos(angles[..., 0])
        h[..., 1, 1] = sa * sa
        gamma[..., 0, 1, 1] = -sa * ca
        gamma[..., 1, 0, 1] = gamma[..., 1, 1, 0] = ca / sa
    return h, gamma


def flat_metric(bubble: StandardBubble, sheet: int, z) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form first fundamental form g (..., m, m) and Christoffel
    symbols gamma[..., k, i, j] = Gamma^k_ij of a flat sheet in its
    parameters z = (polar, angles).

    Caps carry R^2 (d polar^2 + sin^2(polar) h), the symmetric disk
    d polar^2 + polar^2 h, with h the round metric of the angles.
    """
    z = np.asarray(z, dtype=float)
    m = bubble.m
    polar = z[..., 0]
    if sheet == 0 and bubble.symmetric:
        # g = a2 d polar^2 + b^2 h with b = polar
        a2, b, db = np.ones(polar.shape), polar, np.ones(polar.shape)
    else:
        r_s = bubble.radii[sheet]
        a2, b, db = np.full(polar.shape, r_s * r_s), r_s * np.sin(polar), r_s * np.cos(polar)
    h, h_gamma = round_metric(z[..., 1:])
    g = np.zeros(z.shape + (m,))
    g[..., 0, 0] = a2
    g[..., 1:, 1:] = (b * b)[..., None, None] * h
    gamma = np.zeros(z.shape + (m, m))
    gamma[..., 0, 1:, 1:] = -(b * db / a2)[..., None, None] * h
    gamma[..., 1:, 0, 1:] = (db / b)[..., None, None] * np.eye(m - 1)
    gamma[..., 1:, 1:, 0] = gamma[..., 1:, 0, 1:]
    gamma[..., 1:, 1:, 1:] = h_gamma
    return g, gamma


@dataclass(frozen=True)
class SheetSamples:
    """Quadrature samples of one sheet: parameter nodes, points, normals, weights.

    `polar` and `dirs` are the parameter nodes, `weights` the full m-area
    weights (they include the geometric factor, so weights.sum() equals the
    sheet area up to quadrature error).
    """

    sheet: int
    polar: np.ndarray
    dirs: np.ndarray
    positions: np.ndarray
    normals: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.weights.size


def sample_sheet(bubble: StandardBubble, sheet: int, grid: tuple[int, int]) -> SheetSamples:
    """Tensor-product quadrature samples of one sheet (flat_rule).

    grid = (n_polar, n_sphere) with both >= 4.  The weight of a node is the
    flat m-area element, R^m sin^(m-1)(polar) (cap) or polar^(m-1) (disk)
    times the round measure of S^(m-1), times the parameter weights.
    """
    n_polar, n_sphere = grid
    if n_polar < 4 or n_sphere < 4:
        raise ValueError(f"grid sizes must be >= 4, got {grid}")
    z, dirs, w = flat_rule(bubble.m, bubble.polar_limit(sheet), grid)
    g, _ = flat_metric(bubble, sheet, z)
    polar = z[:, 0]
    positions = sheet_point(bubble, sheet, polar, dirs)
    normals = sheet_normal(bubble, sheet, polar, dirs)
    if normals.ndim == 1 or normals.shape[0] != positions.shape[0]:
        normals = np.broadcast_to(normals, positions.shape).copy()
    return SheetSamples(
        sheet=sheet,
        polar=polar,
        dirs=dirs,
        positions=positions,
        normals=normals,
        weights=w * np.sqrt(np.linalg.det(g)),
    )
