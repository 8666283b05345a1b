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

Every sheet is parametrized by z = (polar, angles).  flat_rule is the one
quadrature rule on these parameters, grid_interpolant the interpolant of
values on its grid, and flat_metric the closed-form sheet metric; a sheet's
area weights are flat_rule's weights times sqrt(det g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
FOUR_THIRDS_PI = 4.0 * math.pi / 3.0

BALANCE_RTOL = 1e-12


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m (omega_m); omega_0 = 1 by convention."""
    if m < 0:
        raise ValueError(f"dimension must be >= 0, got {m}")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], computed once
    per n and returned read-only."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


_SMALL_ANGLE = 0.5


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
            t, w = gauss_legendre(64)
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
    disk).  sheet_areas are the sheet areas |S_s| (sheet_area) and
    region_volumes the |P_s| (region_volume), from which the chambers
    assemble as v1 = |P1| + |P0| and v2 = |P2| - |P0|; v1 <= v2 always.
    """

    params: BubbleParams
    radii: tuple[float, float, float]
    phi: tuple[float, float, float]
    neck_radius: float
    centers: tuple[float, float, float]
    v1: float
    v2: float
    sheet_areas: tuple[float, float, float]
    region_volumes: tuple[float, float, float]

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
        region_volumes=(0.0, 0.0, 0.0),
    )
    p0, p1, p2 = (region_volume(bubble, s) for s in range(3))
    return replace(
        bubble,
        v1=p1 + p0,
        v2=p2 - p0,
        sheet_areas=tuple(sheet_area(bubble, s) for s in range(3)),
        region_volumes=(p0, p1, p2),
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


def _inexact(a) -> np.ndarray:
    """a as a float64 array, or complex128 when it is complex: the sheet
    parametrization is analytic, so it accepts the complex parameters of the
    field jets (fields.field_jet)."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, np.float64), copy=False)


def sheet_point(bubble: StandardBubble, sheet: int, polar, dirs) -> np.ndarray:
    """Point of a sheet in R^(m+1) at parameters (polar, unit direction).

    Caps take polar = angle in [0, phi_s] from the pole; the symmetric disk
    takes polar = radius in [0, r].  `dirs` has shape (..., m) with unit rows;
    `polar` broadcasts against its leading shape.
    """
    polar = _inexact(polar)[..., None]
    dirs = _inexact(dirs)
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


def angles_to_dirs(m: int, angles: np.ndarray) -> np.ndarray:
    """Unit directions (..., m) of the angles (..., m - 1) of sphere_rule."""
    angles = _inexact(angles)
    if m == 2:
        th = angles[..., 0]
        return np.stack([np.cos(th), np.sin(th)], axis=-1)
    if m == 3:
        al, be = angles[..., 0], angles[..., 1]
        return np.stack(
            [np.sin(al) * np.cos(be), np.sin(al) * np.sin(be), np.cos(al)], axis=-1
        )
    raise ValueError(f"angle parametrization requires m in (2, 3), got m={m}")


def sheet_tangents(bubble: StandardBubble, sheet: int, z) -> np.ndarray:
    """Closed-form parameter derivatives d_z x (..., m, m + 1) of sheet_point
    at z = (polar, angles) (..., m), row i the derivative along z_i.

    The polar row is (R cos(polar) dirs, -sign R sin(polar)) on a cap and
    (dirs, 0) on the symmetric disk; the angle rows are the radius
    (R sin(polar), or polar on the disk) times the angle derivatives of the
    directions, with no axial part.
    """
    z = _inexact(z)
    return _tangent_rows(bubble, sheet, z[..., 0], angles_to_dirs(bubble.m, z[..., 1:]), z[..., 1:])


def _tangent_rows(bubble: StandardBubble, sheet: int, polar, dirs, angles=None, unit: bool = False) -> np.ndarray:
    """sheet_tangents at the polar parameters (...) and the directions
    (..., m) of the angles (..., m - 1); at m = 2 the directions alone give
    their angle derivative, and angles may be None.  unit=True factors the
    row lengths out (m = 2): the unit tangents (cos(polar) dirs, -sign
    sin(polar)) and the turn (-d1, d0, 0) on a cap, (dirs, 0) and the turn
    on the symmetric disk."""
    m = bubble.m
    # d dirs / d angles (..., m - 1, m); the last angle turns the first two axes
    turn = np.stack([-dirs[..., 1], dirs[..., 0]] + [np.zeros(polar.shape)] * (m - 2), axis=-1)
    if m == 2:
        ddirs = turn[..., None, :]
    else:
        al, be = angles[..., 0], angles[..., 1]
        d_al = np.stack([np.cos(al) * np.cos(be), np.cos(al) * np.sin(be), -np.sin(al)], axis=-1)
        ddirs = np.stack([d_al, turn], axis=-2)
    # the radius of sheet_point, its polar derivative and the axial one
    if sheet == 0 and bubble.symmetric:
        radius, d_radius, d_axial = polar, np.ones(polar.shape), 0.0
    else:
        r_s = bubble.radii[sheet]
        sign = 1.0 if sheet == 1 else -1.0
        sin, cos = np.sin(polar), np.cos(polar)
        radius, d_radius = (sin, cos) if unit else (r_s * sin, r_s * cos)
        d_axial = -sign * radius
    out = np.zeros(polar.shape + (m, m + 1), dtype=np.result_type(polar, dirs))
    out[..., 0, :m] = d_radius[..., None] * dirs
    out[..., 0, m] = d_axial
    out[..., 1:, :m] = ddirs if unit else radius[..., None, None] * ddirs
    return out


def sheet_normal(bubble: StandardBubble, sheet: int, polar, dirs) -> np.ndarray:
    """Unit normal at the given parameters, oriented so that N1 = N0 + N2 on the neck.

    N points into B1 along sheets 0 and 1 and into B2 along sheet 2; for the
    spherical sheets this is (C_s - X)/R_s, for the flat disk the positive
    axis direction.  The shape is that of sheet_point, (..., m + 1) over the
    broadcast of polar and the leading shape of dirs.
    """
    return _normal_at(bubble, sheet, sheet_point(bubble, sheet, polar, dirs))


def _normal_at(bubble: StandardBubble, sheet: int, x: np.ndarray) -> np.ndarray:
    """sheet_normal at the points x (..., m + 1) of the sheet."""
    if sheet == 0 and bubble.symmetric:
        out = np.zeros(x.shape)
        out[..., -1] = 1.0
        return out
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
        t, wt = gauss_legendre(n_pol)
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


def flat_rule(m: int, upper: float, grid: tuple[int, int]):
    """Tensor-product rule on the flat parameter domain [0, upper] x S^(m-1).

    Gauss-Legendre nodes in the polar parameter times sphere_rule(m, n_sphere),
    grid = (n_polar, n_sphere).  Returns the nodes z = (polar, angles) (N, m),
    their unit directions (N, m) and the weights (N,) of d(polar) d(angles).
    Sheet s of a bubble takes upper = bubble.polar_limit(s); its area weights
    are these weights times the flat area element sqrt(det g) of flat_metric.
    """
    n_polar, n_sphere = grid
    t, w = gauss_legendre(n_polar)
    polar = 0.5 * upper * (t + 1.0)
    w_polar = 0.5 * upper * w
    angles, dirs, w_angles = sphere_rule(m, n_sphere)
    k = len(w_angles)
    z = np.concatenate([np.repeat(polar, k)[:, None], np.tile(angles, (n_polar, 1))], axis=1)
    return z, np.tile(dirs, (n_polar, 1)), np.outer(w_polar, w_angles).ravel()


def _lagrange(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """The Lagrange basis of the n Gauss-Legendre nodes t on [-1, 1] and its
    derivative at the points x (P,), both (P, n): barycentric, with the
    weights (-1)^j sqrt((1 - t_j^2) w_j) of the nodes, and the derivative the
    basis times the nodes' differentiation matrix, exact for polynomials of
    degree below n."""
    t, w = gauss_legendre(n)
    bary = (-1.0) ** np.arange(n) * np.sqrt((1.0 - t * t) * w)
    diff = np.asarray(x, dtype=float)[:, None] - t
    hit = diff == 0.0
    frac = bary / np.where(hit, 1.0, diff)
    basis = frac / np.sum(frac, axis=1, keepdims=True)
    on_node = np.any(hit, axis=1)
    basis[on_node] = hit[on_node]
    gap = t[:, None] - t + np.eye(n)
    dmat = bary / bary[:, None] / gap
    np.fill_diagonal(dmat, 0.0)
    np.fill_diagonal(dmat, -np.sum(dmat, axis=1))
    # one small product per point, whose bits do not depend on the others
    return basis, (basis[:, None] @ dmat)[:, 0]


def _cardinal(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """The periodic cardinal functions of the n equispaced angles 2 pi k / n
    and their derivatives at the angles x (P,), both (P, n): the
    trigonometric interpolant, its top mode cos(n u / 2) halved for even n,
    with cos(l (x - angle_k)) expanded so that the modes of the nodes form
    one table."""
    modes = np.arange(1, n // 2 + 1, dtype=float)
    coef = np.full(len(modes), 2.0 / n)
    if n % 2 == 0:
        coef[-1] = 1.0 / n
    phase = np.outer(modes, 2.0 * math.pi * np.arange(n) / n)
    table = np.concatenate([np.cos(phase), np.sin(phase)])
    lx = np.outer(np.asarray(x, dtype=float), modes)
    cos, sin = coef * np.cos(lx), coef * np.sin(lx)
    # one small product per point, whose bits do not depend on the others
    value = 1.0 / n + (np.concatenate([cos, sin], axis=1)[:, None] @ table)[:, 0]
    return value, (np.concatenate([-modes * sin, modes * cos], axis=1)[:, None] @ table)[:, 0]


def grid_interpolant(m: int, upper: float, grid: tuple[int, int], z, parity: float = 1.0):
    """Separable weights of the interpolant of node values on the flat_rule
    grid of a sheet with the polar range [0, upper], at parameters z (P, m).

    The polar factor is barycentric Lagrange interpolation on the
    Gauss-Legendre nodes, which also extrapolates to the ends of [0, upper],
    the neck at upper; the angle factor the periodic cardinal functions of
    the equispaced angles (Berrut & Trefethen, SIAM Review 46, 2004).  At
    m = 3 a smooth function of the sphere_rule angles (alpha, beta) obeys
    f(-alpha, beta) = parity f(alpha, beta + pi) with parity +1, and its
    alpha derivative with parity -1: so the alpha direction pairs beta with
    beta + pi, and of the two parts (f(beta) +- f(beta + pi)) / 2 the one even
    in alpha is a polynomial in t = cos(alpha) and the odd one sin(alpha)
    times a polynomial in t, each interpolated on sphere_rule's
    Gauss-Legendre nodes in t.  (A polynomial in alpha itself, on those
    nearly equispaced alpha, diverges as the grid grows.)

    Returns (polar (P, 2, n_polar), angles (P, m, K)) on the n_polar polar
    nodes and the K sphere_rule angles: for node values F (n_polar, K) in
    flat_rule's order, the interpolant at z[p] is polar[p, 0] @ F @ angles[p,
    0], its polar derivative polar[p, 1] @ F @ angles[p, 0] and its
    derivative along angle i polar[p, 0] @ F @ angles[p, i].
    """
    n_polar, n_sphere = grid
    z = np.asarray(z, dtype=float)
    polar = np.stack(_lagrange(n_polar, 2.0 * z[:, 0] / upper - 1.0), axis=1)
    polar[:, 1] *= 2.0 / upper
    if m == 2:
        return polar, np.stack(_cardinal(n_sphere, z[:, 1]), axis=1)
    if m != 3:
        raise ValueError(f"grid interpolant requires m in (2, 3), got m={m}")
    alpha, beta = z[:, 1], z[:, 2]
    angles = 0.0
    # the nodes (alpha_j, beta) and (alpha_j, beta + pi): their weights in
    # alpha and the alpha derivatives, times the cardinal functions in beta
    for (a, da), shift in zip(_alpha_factors(n_sphere, np.cos(alpha), np.sin(alpha), parity), (0.0, math.pi)):
        b, db = _cardinal(n_sphere, beta + shift)
        angles = angles + np.stack([a[:, :, None] * b[:, None], da[:, :, None] * b[:, None],
                                    a[:, :, None] * db[:, None]], axis=1)
    return polar, angles.reshape(len(z), m, -1)


def _alpha_factors(n_sphere: int, cos, sin, parity: float) -> list:
    """The alpha factors of grid_interpolant at m = 3, at points of cos(alpha)
    and sin(alpha) (P,): per side, the nodes (alpha_j, beta) and then (alpha_j,
    beta + pi), the weights a (P, n) of sphere_rule's n alpha nodes and the
    alpha derivatives da (P, n)."""
    t, _ = gauss_legendre(max(4, n_sphere // 2))
    ell, dell = _lagrange(len(t), cos)
    sin, cos, inv = sin[:, None], cos[:, None], 1.0 / np.sqrt(1.0 - t * t)
    out = []
    for side, half in ((1.0, 0.5), (-1.0, 0.5 * parity)):
        a = half * ell * (1.0 + side * sin * inv)
        out.append((a, half * (-sin * dell * (1.0 + side * sin * inv) + side * ell * cos * inv)))
    return out


def node_angle_derivative(m: int, n_sphere: int):
    """The angle derivatives of grid_interpolant at the grid's own angles,
    as a function of node values F (..., K) in sphere_rule's order that
    returns (..., m - 1, K), one row per angle.

    At its nodes the interpolant's value weights are the identity, in t =
    cos(alpha) and in beta, and those of the m = 3 beta + pi side vanish, so
    the derivatives are separable products that never form a K x K matrix
    at m = 3: F @ D^T along beta (the cardinal derivatives D of the
    equispaced angles), and along alpha the two sides' derivative factors
    (parity +1) on F and on F moved by pi in beta.
    """
    theta = 2.0 * math.pi * np.arange(n_sphere) / n_sphere
    dbeta = np.ascontiguousarray(_cardinal(n_sphere, theta)[1].T)
    if m == 2:
        return lambda f: (f @ dbeta)[..., None, :]
    if m != 3:
        raise ValueError(f"node angle derivatives require m in (2, 3), got m={m}")
    t, _ = gauss_legendre(max(4, n_sphere // 2))
    (_, same), (_, opposite) = _alpha_factors(n_sphere, t, np.sqrt(1.0 - t * t), 1.0)
    shift = np.ascontiguousarray(_cardinal(n_sphere, theta + math.pi)[0].T)

    def derivative(f):
        f = f.reshape(f.shape[:-1] + (len(t), n_sphere))
        out = np.stack([same @ f + opposite @ (f @ shift), f @ dbeta], axis=-3)
        return out.reshape(out.shape[:-2] + (-1,))

    return derivative


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
