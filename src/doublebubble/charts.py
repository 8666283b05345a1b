"""Riemannian metrics in coordinate charts: curvature, frames, geodesics.

Conventions (fixed throughout the package):

  R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  Rm(a,b,c,d) = <R(a,b)c, d>,    Ric(Y,Z) = tr(X -> R(X,Y)Z),

so that round spheres have positive sectional curvature, Ric = (n-1)/a^2 * g
and Sc = n(n-1)/a^2.  Index layout of derivative tensors: dg[..., k, i, j]
is d_k g_ij and d2g[..., l, k, i, j] is d_l d_k g_ij.  Curvature arrays are
returned with Rm[..., i, j, k, l] = Rm(e_i, e_j, e_k, e_l).

Chart hooks (MetricChart): metric, christoffel_closed and geodesic_acc are
required; metric_d1, metric_d2, exp_closed and dexp_closed, which returns
(points, dexp), are optional and return None without a closed form;
geodesic_acc_jacobi has a finite-difference default.

Geodesics take a chart's closed-form exponential where it has one, and
otherwise one fixed-step RK4 integrator (_rk4): exp_map runs it on position
and velocity, exp_rays on the same state together with the Jacobi fields
that give the differential of the exponential map.

Layout: the public functions take and return points (..., n), but the RK4
state and the geodesic hooks are component-major, components first and the
batch axes last and contiguous: geodesic_acc(x, v) maps positions and
velocities (n, ...) to -Gamma(v, v) (n, ...), and geodesic_acc_jacobi(x, v,
jac, jac_dot) returns it together with A_x J + A_v J' (n, k, ...) for k
columns J, J' (n, k, ...), where A_x and A_v are the derivatives of the
acceleration in x and v.  No Jacobian matrix is built: the conformal charts
apply their Hessian of f, alpha d d^T + beta I, to J directly.  Every kernel
operation then runs over the whole batch at once instead of over a
length-n axis per point.

The kernels run on stacks of short vectors and small matrices: _dot unrolls
dot products and norms over the component axis (bit for bit np.sum(a * b,
axis)) and _det takes the package's determinants by cofactor expansion,
so no numpy reduction over a length-3 axis and no LAPACK call per small
matrix sits on a hot path.

Charts are local by design; leaving the domain box is an error, never a
clamp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class DomainExit(ValueError):
    """A geodesic or stencil left the chart domain."""

    def __init__(self, message: str, exit_fraction: float | None = None):
        super().__init__(message)
        self.exit_fraction = exit_fraction


def _dot(a, b, axis: int = -1) -> np.ndarray:
    """sum_i a[..., i] * b[..., i] over the short last axis of points (..., n),
    or with axis=0 sum_i a[i] * b[i] over the first of component-major arrays
    (n, ...), unrolled.

    Bit for bit np.sum(a * b, axis=axis) for up to 8 components (numpy adds
    so few in sequence), without a reduction call per stack."""
    if axis == 0:
        out = a[0] * b[0]
        for i in range(1, len(a)):
            out = out + a[i] * b[i]
        return out
    if axis != -1:
        raise ValueError(f"_dot sums over axis 0 or -1, not {axis}")
    out = a[..., 0] * b[..., 0]
    for i in range(1, np.shape(a)[-1]):
        out = out + a[..., i] * b[..., i]
    return out


def _det(a) -> np.ndarray:
    """Determinants of a stack of small matrices (..., n, n) by cofactor
    expansion along the rows, every minor of the trailing rows built once."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    # minors[cols]: determinant of the last len(cols) rows in the columns cols
    minors = {(): np.ones(a.shape[:-2])}
    for k in range(1, n + 1):
        row = a[..., n - k, :]
        level = {}
        for cols in itertools.combinations(range(n), k):
            det = row[..., cols[0]] * minors[cols[1:]]
            for i in range(1, k):
                term = row[..., cols[i]] * minors[cols[:i] + cols[i + 1 :]]
                det = det - term if i % 2 else det + term
            level[cols] = det
        minors = level
    return minors[tuple(range(n))]


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def contains(self, x, clearance: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.lo + clearance - 1e-15) and np.all(x <= self.hi - clearance + 1e-15)
        )

    def inside_mask(self, x) -> np.ndarray:
        """Points of x (..., n) inside the closed box; NaN is outside.
        Unrolled over the coordinates, as _dot."""
        x = np.asarray(x, dtype=float)
        mask = (x[..., 0] >= self.lo[0]) & (x[..., 0] <= self.hi[0])
        for i in range(1, x.shape[-1]):
            mask &= (x[..., i] >= self.lo[i]) & (x[..., i] <= self.hi[i])
        return mask


class MetricChart:
    """Base chart: a metric on an axis-aligned box in R^n.

    Subclasses implement the required hooks metric(x), christoffel_closed(x)
    = Gamma[..., a, i, j] and geodesic_acc(x, v) = -Gamma(v, v), the latter
    component-major (x, v and the result (n, ...)); the optional closed forms
    metric_d1, metric_d2, exp_closed and dexp_closed, which returns
    (Exp_p(v), dExp_p(v)) from one evaluation, return None here.  fd_step is
    the central-difference step of geodesic_acc_jacobi's default and of every
    other missing analytic derivative.
    """

    def __init__(self, dim: int, name: str, domain: Box, fd_step: float = 1e-3):
        self.dim = dim
        self.name = name
        self.domain = domain
        self.fd_step = fd_step

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def christoffel_closed(self, x):
        raise NotImplementedError

    def geodesic_acc(self, x, v):
        raise NotImplementedError

    # analytic fast paths; return None when unavailable
    def metric_d1(self, x):
        return None

    def metric_d2(self, x):
        return None

    def exp_closed(self, p, v):
        return None

    def dexp_closed(self, p, v):
        """(points, dexp): Exp_p(v) (..., n) and its differential in v (..., n, n)
        at a single base point p; None when unavailable."""
        return None

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        """(acc, A_x J + A_v J') for the geodesic acceleration acc = -Gamma(v, v)
        at x, v (n, ...) and the k columns of J, J' (n, k, ...), component-major.

        Column c of A_x J + A_v J' is the derivative of acc along (J_c, J'_c),
        taken here by 4th-order central differences in one batched
        geodesic_acc call; subclasses override it with the analytic form."""
        n, k, *batch = jac.shape
        h = self.fd_step * np.array([1.0, -1.0, 2.0, -2.0]).reshape((4, 1) + (1,) * len(batch))

        def shifted(y, dy):
            # slot 0 is y itself, then the 4 shifts along each of the k columns
            shifts = (y[:, None, None] + h * dy[:, None]).reshape((n, 4 * k, *batch))
            return np.concatenate([y[:, None], shifts], axis=1)

        acc = self.geodesic_acc(shifted(x, jac), shifted(v, jac_dot))
        f = acc[:, 1:].reshape((n, 4, k, *batch))
        return acc[:, 0], (8.0 * (f[:, 0] - f[:, 1]) - (f[:, 2] - f[:, 3])) / (12.0 * self.fd_step)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} dim={self.dim}>"


# ---------------------------------------------------------------------------
# builtin chart families


class EuclideanChart(MetricChart):
    def __init__(self, dim: int, half_width: float = 5.0):
        box = Box(lo=np.full(dim, -half_width), hi=np.full(dim, half_width))
        super().__init__(dim, f"euclidean({dim})", box)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = 1.0
        return out

    def metric_d1(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.dim,) * 3)

    def metric_d2(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.dim,) * 4)

    def christoffel_closed(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.dim,) * 3)

    def geodesic_acc(self, x, v):
        return np.zeros(np.shape(v))

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        return np.zeros(np.shape(v)), np.zeros(np.shape(jac))

    def exp_closed(self, p, v):
        return np.asarray(p, dtype=float) + np.asarray(v, dtype=float)

    def dexp_closed(self, p, v):
        dexp = np.broadcast_to(np.eye(self.dim), np.shape(v) + (self.dim,)).copy()
        return self.exp_closed(p, v), dexp


def _component_major(x) -> np.ndarray:
    """The points x (..., n) as a component-major view (n, ...)."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


def _conformal_christoffel(grad_f: np.ndarray, dim: int) -> np.ndarray:
    # Gamma^k_ij = delta_ik f_j + delta_jk f_i - delta_ij f_k for g = e^(2f) delta,
    # from a component-major grad_f (n, ...) to Gamma[..., k, i, j]
    grad_f = np.moveaxis(grad_f, 0, -1)
    shape = grad_f.shape[:-1]
    eye = np.eye(dim)
    gamma = np.zeros(shape + (dim, dim, dim))
    gamma += eye[:, None, :] * grad_f[..., None, :, None]
    gamma += eye[:, :, None] * grad_f[..., None, None, :]
    gamma -= eye[None, :, :] * grad_f[..., :, None, None]
    return gamma


def _conformal_acc(grad_f: np.ndarray, v: np.ndarray) -> np.ndarray:
    # -Gamma(v, v) = -2 (grad_f . v) v + |v|^2 grad_f, component-major
    fv = _dot(grad_f, v, axis=0)
    vv = _dot(v, v, axis=0)
    return -2.0 * fv * v + vv * grad_f


def _conformal_acc_jacobi(grad_f, d, alpha, beta, v, jac, jac_dot):
    """(acc, A_x J + A_v J') of _conformal_acc when Hess f = alpha d d^T + beta I,
    component-major: grad_f, d, v (n, ...), alpha, beta (...), J, J' (n, k, ...).

    The derivatives of -2 (grad_f . v) v + |v|^2 grad_f along the columns
    (J_c, J'_c), with d grad_f = H J = alpha d (d . J) + beta J:
      -2 (H J . v + grad_f . J') v + |v|^2 H J - 2 (grad_f . v) J' + 2 (v . J') grad_f.
    """
    fv = _dot(grad_f, v, axis=0)
    vv = _dot(v, v, axis=0)
    acc = -2.0 * fv * v + vv * grad_f
    g, v, d = grad_f[:, None], v[:, None], d[:, None]
    hj = alpha * _dot(d, jac, axis=0) * d + beta * jac
    s = -2.0 * (_dot(hj, v, axis=0) + _dot(g, jac_dot, axis=0))
    return acc, s * v + vv * hj - (2.0 * fv) * jac_dot + 2.0 * _dot(v, jac_dot, axis=0) * g


class RoundSphereChart(MetricChart):
    """Stereographic chart of the round sphere of radius a.

    g = lam(x)^2 delta with lam = 2 a^2 / (a^2 + |x|^2); G(0) = 4 Identity.
    Carries analytic derivatives and a closed-form exponential map.
    """

    def __init__(self, a: float, dim: int = 3):
        if a <= 0.0:
            raise ValueError(f"sphere radius must be positive, got {a}")
        self.a = a
        box = Box(lo=np.full(dim, -a), hi=np.full(dim, a))
        super().__init__(dim, f"round_sphere(a={a}, dim={dim})", box)

    # lam^2 = E(s) with s = |x|^2, E(s) = 4 a^4 / (a^2 + s)^2
    def _e(self, s, order=0):
        u = self.a**2 + s
        c = 4.0 * self.a**4
        if order == 0:
            return c / u**2
        if order == 1:
            return -2.0 * c / u**3
        if order == 2:
            return 6.0 * c / u**4
        raise ValueError(order)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        s = _dot(x, x)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = self._e(s)[..., None]
        return out

    def metric_d1(self, x):
        x = np.asarray(x, dtype=float)
        s = _dot(x, x)
        e1 = self._e(s, 1)
        eye = np.eye(self.dim)
        # d_k (E delta_ij) = E'(s) 2 x_k delta_ij
        return 2.0 * e1[..., None, None, None] * x[..., :, None, None] * eye

    def metric_d2(self, x):
        x = np.asarray(x, dtype=float)
        s = _dot(x, x)
        e1 = self._e(s, 1)
        e2 = self._e(s, 2)
        eye = np.eye(self.dim)
        xx = x[..., :, None] * x[..., None, :]
        radial = 4.0 * e2[..., None, None] * xx + 2.0 * e1[..., None, None] * eye
        return radial[..., :, :, None, None] * eye

    def _grad_f(self, x):
        # f = log(2 a^2 / (a^2 + |x|^2)) at component-major x (n, ...); also
        # returns u = a^2 + |x|^2
        u = self.a**2 + _dot(x, x, axis=0)
        return -2.0 * x / u, u

    def christoffel_closed(self, x):
        return _conformal_christoffel(self._grad_f(_component_major(x))[0], self.dim)

    def geodesic_acc(self, x, v):
        return _conformal_acc(self._grad_f(x)[0], v)

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        # Hess f = (4 / u^2) x x^T - (2 / u) I
        grad_f, u = self._grad_f(x)
        return _conformal_acc_jacobi(grad_f, x, 4.0 / u**2, -2.0 / u, v, jac, jac_dot)

    # stereographic embedding of the sphere of radius a in R^(n+1)
    def embed(self, x):
        x = np.asarray(x, dtype=float)
        s = _dot(x, x)[..., None]
        denom = self.a**2 + s
        return np.concatenate(
            [2.0 * self.a**2 * x / denom, self.a * (s - self.a**2) / denom], axis=-1
        )

    def _great_circle(self, p, v):
        """Exp_p(v) along the great circle of the embedded sphere, for a single
        base point p: returns the embedding differential at p (n + 1, n), the
        embedded p, the unit direction and angle (..., 1) of the pushed v, the
        great circle's endpoint in R^(n + 1) and its projection back to the
        chart, which is p itself at zero speed."""
        a = self.a
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        den = a**2 + p @ p
        push = np.vstack(
            [(2.0 * a**2 / den) * (np.eye(self.dim) - 2.0 * np.outer(p, p) / den), 4.0 * a**3 * p / den**2]
        )
        w = v @ push.T
        speed = np.sqrt(_dot(w, w))[..., None]  # = |v|_G by conformality
        still = speed == 0.0
        theta = speed / a
        wdir = w / np.where(still, 1.0, speed)
        u0 = self.embed(p)
        u1 = np.cos(theta) * u0 + a * np.sin(theta) * wdir
        points = np.where(still, p, a * u1[..., :-1] / (a - u1[..., -1:]))
        return push, u0, wdir, theta, u1, points

    def exp_closed(self, p, v):
        return self._great_circle(p, v)[-1]

    def dexp_closed(self, p, v):
        """(Exp_p(v), its differential in v (..., n, n)) at a single base point p."""
        a = self.a
        push, u0, wdir, theta, u1, points = self._great_circle(p, v)
        sinc = np.sinc(theta / math.pi)
        # d u1 = k (wdir . dw) + sinc dw, then the stereographic projection back
        k = -np.sin(theta) / a * u0 + (np.cos(theta) - sinc) * wdir
        du1 = k[..., :, None] * (wdir @ push)[..., None, :] + sinc[..., None] * push
        z = a - u1[..., -1:]
        head = (a / z)[..., None] * du1[..., :-1, :]
        return points, head + (a * u1[..., :-1] / z**2)[..., :, None] * du1[..., -1:, :]


class ConformalBumpChart(MetricChart):
    """g = e^(2f) delta with a Gaussian bump f = eps exp(-|x - x0|^2 / s^2).

    Metric derivatives go through the finite-difference pipeline; only the
    Christoffel symbols (needed inside the geodesic integrator) use the exact
    conformal identity with the analytic gradient of f.
    """

    def __init__(self, eps: float, x0=None, s: float = 0.5, dim: int = 3, half_width: float = 1.5):
        if s <= 0.0:
            raise ValueError(f"bump width must be positive, got {s}")
        self.eps = eps
        self.s = s
        self.x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
        box = Box(lo=np.full(dim, -half_width), hi=np.full(dim, half_width))
        super().__init__(dim, f"conformal_bump(eps={eps}, s={s})", box)

    def _f(self, x, axis: int = -1):
        # f and d = x - x0 at points x (..., n), or at component-major x (n, ...)
        # with axis=0
        x0 = self.x0 if axis == -1 else self.x0.reshape((-1,) + (1,) * (np.ndim(x) - 1))
        d = x - x0
        return self.eps * np.exp(_dot(d, d, axis) / -self.s**2), d

    def _grad_f(self, x):
        # -2 f d / s^2 at component-major x, with the factor 2 (exact in
        # floating point) on f
        f, d = self._f(x, axis=0)
        return (-2.0 * f) * (d / self.s**2), f, d

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        e2f = np.exp(2.0 * self._f(x)[0])
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = e2f[..., None]
        return out

    def christoffel_closed(self, x):
        return _conformal_christoffel(self._grad_f(_component_major(x))[0], self.dim)

    def geodesic_acc(self, x, v):
        return _conformal_acc(self._grad_f(x)[0], v)

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        # Hess f = (4 f / s^4) d d^T - (2 f / s^2) I
        grad_f, f, d = self._grad_f(x)
        return _conformal_acc_jacobi(grad_f, d, 4.0 * f / self.s**4, -2.0 * f / self.s**2, v, jac, jac_dot)

    def scalar_curvature_exact(self, x):
        """Closed-form Sc of a conformal metric, for cross-checks.

        Sc = -(n-1) e^(-2f) (2 Laplacian f + (n-2) |grad f|^2) in flat
        background coordinates.
        """
        n = self.dim
        grad, f, d = self._grad_f(_component_major(x))
        lap = f * (4.0 * _dot(d, d, axis=0) / self.s**4 - 2.0 * n / self.s**2)
        return -(n - 1) * np.exp(-2.0 * f) * (2.0 * lap + (n - 2) * _dot(grad, grad, axis=0))


class ProductRoundChart(MetricChart):
    """Product of round-sphere factors (radius math.inf means a flat factor)."""

    def __init__(self, factors: list[tuple[int, float]]):
        self.factors = list(factors)
        dim = sum(d for d, _ in factors)
        self._charts = []
        offset = 0
        for d, a in factors:
            sub = EuclideanChart(d) if math.isinf(a) else RoundSphereChart(a, dim=d)
            self._charts.append((offset, d, sub))
            offset += d
        half = min(
            min(float(c.domain.hi[0]) for _, _, c in self._charts), 5.0
        )
        box = Box(lo=np.full(dim, -half), hi=np.full(dim, half))
        super().__init__(dim, f"product({factors})", box)

    def _blocks(self, x):
        x = np.asarray(x, dtype=float)
        for off, d, sub in self._charts:
            yield off, d, sub, x[..., off : off + d]

    def _block_diagonal(self, x, method: str, rank: int):
        """Tensor of the given rank whose diagonal blocks are the factors'
        `method` at their coordinates of x; mixed blocks are zero."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,) * rank)
        for off, d, sub, xb in self._blocks(x):
            out[(...,) + (slice(off, off + d),) * rank] = getattr(sub, method)(xb)
        return out

    def metric(self, x):
        return self._block_diagonal(x, "metric", 2)

    def metric_d1(self, x):
        return self._block_diagonal(x, "metric_d1", 3)

    def metric_d2(self, x):
        return self._block_diagonal(x, "metric_d2", 4)

    def christoffel_closed(self, x):
        return self._block_diagonal(x, "christoffel_closed", 3)

    # the geodesic hooks, component-major, factor by factor on their rows

    def geodesic_acc(self, x, v):
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)))
        for off, d, sub in self._charts:
            sl = slice(off, off + d)
            out[sl] = sub.geodesic_acc(x[sl], v[sl])
        return out

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        acc = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)))
        var = np.zeros(np.broadcast_shapes(np.shape(jac), np.shape(jac_dot)))
        for off, d, sub in self._charts:
            sl = slice(off, off + d)
            acc[sl], var[sl] = sub.geodesic_acc_jacobi(x[sl], v[sl], jac[sl], jac_dot[sl])
        return acc, var

    def exp_closed(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.empty(np.broadcast_shapes(p.shape, v.shape))
        for off, d, sub, _ in self._blocks(p):
            sl = slice(off, off + d)
            out[..., sl] = sub.exp_closed(p[..., sl], v[..., sl])
        return out

    def dexp_closed(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        points = np.empty(v.shape)
        dexp = np.zeros(v.shape + (self.dim,))
        for off, d, sub, _ in self._blocks(p):
            sl = slice(off, off + d)
            points[..., sl], dexp[..., sl, sl] = sub.dexp_closed(p[..., sl], v[..., sl])
        return points, dexp


def builtin_chart(family: str, **params) -> MetricChart:
    """Construct a builtin chart family by name.

    Families: euclidean(dim), round_sphere(a, dim), conformal_bump(eps, x0,
    s, dim), product(factors=[(dim, radius), ...]).
    """
    if family == "euclidean":
        return EuclideanChart(int(params.get("dim", 3)), float(params.get("half_width", 5.0)))
    if family == "round_sphere":
        return RoundSphereChart(float(params.get("a", 1.0)), int(params.get("dim", 3)))
    if family == "conformal_bump":
        return ConformalBumpChart(
            float(params.get("eps", 0.1)),
            params.get("x0"),
            float(params.get("s", 0.5)),
            int(params.get("dim", 3)),
            float(params.get("half_width", 1.5)),
        )
    if family == "product":
        return ProductRoundChart(params["factors"])
    raise ValueError(f"unknown chart family {family!r}")


# ---------------------------------------------------------------------------
# derivative stacks (analytic when the chart has them, else central FD)


def _fd_d1(fun, x, h, depth=2):
    """4th-order central difference of an array-valued fun with `depth`
    trailing tensor axes; the new derivative axis is inserted first.

    One call of fun per shifted point.  Batching the shifts as _stencil does
    makes the locator's curvature tensors several times faster; ROADMAP item
    4 defers that until the benchmark's peak-RSS metric stops growing with
    the number of operations it completes."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    rows = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        rows.append(
            (8.0 * (fun(x + e) - fun(x - e)) - (fun(x + 2 * e) - fun(x - 2 * e))) / (12.0 * h)
        )
    return np.stack(rows, axis=-(depth + 1))


def _stencil(fun, x, h, order: int = 1, neck: bool = False):
    """4th-order finite differences of an array-valued fun at points x (..., n).

    h is the step of each coordinate (a scalar applies to all of them).
    Returns (f, d1), or (f, d1, d2) with order=2, where f = fun(x) and the
    derivative axes follow the batch axes of x: d1[..., i, *out] = d_i f and
    d2[..., i, j, *out] = d_i d_j f.  First derivatives and the diagonal of
    d2 use the central 5-point stencils, the mixed entries of d2 the 4-point
    cross.  With neck=True the derivative along x_0 is the one-sided 5-point
    stencil on x_0, x_0 - h, ..., x_0 - 4h instead, for points on the neck
    end x_0 = upper of a sheet (first derivatives only).  fun sees every
    shifted point in one call, stacked on a new leading axis.
    """
    if neck and order != 1:
        raise ValueError("the one-sided neck stencil gives first derivatives only")
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = np.broadcast_to(np.asarray(h, dtype=float), (n,))
    # a shift is a tuple of (axis, multiple of that axis' step); () is the centre
    keys = [()]
    for i in range(n):
        keys += [((i, c),) for c in ((-1, -2, -3, -4) if neck and i == 0 else (1, -1, 2, -2))]
    if order == 2:
        keys += [
            ((i, ci), (j, cj))
            for i in range(n)
            for j in range(i + 1, n)
            for ci in (1, -1)
            for cj in (1, -1)
        ]
    shifts = np.zeros((len(keys), n))
    for row, key in enumerate(keys):
        for i, c in key:
            shifts[row, i] = c * h[i]
    f = dict(zip(keys, fun(x + shifts.reshape((len(keys),) + (1,) * (x.ndim - 1) + (n,)))))
    f0 = f[()]

    def at(i, c):
        return f[((i, c),)]

    axis = x.ndim - 1
    d1 = []
    for i in range(n):
        if neck and i == 0:
            d1.append(
                (25.0 * f0 - 48.0 * at(0, -1) + 36.0 * at(0, -2) - 16.0 * at(0, -3) + 3.0 * at(0, -4))
                / (12.0 * h[0])
            )
        else:
            d1.append((8.0 * (at(i, 1) - at(i, -1)) - (at(i, 2) - at(i, -2))) / (12.0 * h[i]))
    d1 = np.stack(d1, axis=axis)
    if order == 1:
        return f0, d1
    d2 = [[None] * n for _ in range(n)]
    for i in range(n):
        d2[i][i] = (-30.0 * f0 + 16.0 * (at(i, 1) + at(i, -1)) - (at(i, 2) + at(i, -2))) / (
            12.0 * h[i] ** 2
        )
        for j in range(i + 1, n):
            d2[i][j] = d2[j][i] = (
                f[((i, 1), (j, 1))] - f[((i, 1), (j, -1))] - f[((i, -1), (j, 1))] + f[((i, -1), (j, -1))]
            ) / (4.0 * h[i] * h[j])
    return f0, d1, np.stack([np.stack(row, axis=axis) for row in d2], axis=axis)


def metric_d1(chart: MetricChart, x) -> np.ndarray:
    d1 = chart.metric_d1(x)
    if d1 is not None:
        return d1
    return _fd_d1(chart.metric, x, chart.fd_step, depth=2)


def metric_d2(chart: MetricChart, x) -> np.ndarray:
    d2 = chart.metric_d2(x)
    if d2 is not None:
        return d2
    # d_l of dg, one 4th-order stencil per direction
    return _fd_d1(lambda y: metric_d1(chart, y), x, chart.fd_step, depth=3)


def christoffel(chart: MetricChart, x) -> np.ndarray:
    """Christoffel symbols Gamma[..., a, i, j] = Gamma^a_ij."""
    return chart.christoffel_closed(x)


def _christoffel_from_stack(g, dg):
    return 0.5 * np.einsum("...ak,...kij->...aij", np.linalg.inv(g), _bracket(dg))


def _bracket(dg):
    # bracket[..., k, i, j] = d_i g_jk + d_j g_ik - d_k g_ij
    return np.einsum("...ijk->...kij", dg) + np.einsum("...jik->...kij", dg) - dg


def riemann(chart: MetricChart, x) -> np.ndarray:
    """Lowered Riemann tensor Rm[..., i, j, k, l] = <R(d_i, d_j) d_k, d_l>."""
    g = chart.metric(x)
    dg = metric_d1(chart, x)
    d2g = metric_d2(chart, x)
    ginv = np.linalg.inv(g)
    gamma = _christoffel_from_stack(g, dg)
    br = _bracket(dg)
    # d_m bracket_{kij} = d_m d_i g_jk + d_m d_j g_ik - d_m d_k g_ij
    dbr = (
        np.einsum("...mijk->...mkij", d2g)
        + np.einsum("...mjik->...mkij", d2g)
        - d2g
    )
    dginv = -np.einsum("...ab,...mbc,...ck->...mak", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("...mak,...kij->...maij", dginv, br)
        + np.einsum("...ak,...mkij->...maij", ginv, dbr)
    )
    # R^a_{ijk} = d_i Gamma^a_jk - d_j Gamma^a_ik + Gamma^a_im Gamma^m_jk - Gamma^a_jm Gamma^m_ik
    r_up = (
        dgamma
        - np.einsum("...jaik->...iajk", dgamma)
        + np.einsum("...aim,...mjk->...iajk", gamma, gamma)
        - np.einsum("...ajm,...mik->...iajk", gamma, gamma)
    )
    return np.einsum("...al,...iajk->...ijkl", g, r_up)


def _ricci(ginv, rm) -> np.ndarray:
    # Ric(Y,Z) = tr(X -> R(X,Y)Z), contracted with the inverse metric
    return np.einsum("...al,...ajkl->...jk", ginv, rm)


def ricci(chart: MetricChart, x) -> np.ndarray:
    """Ricci tensor in chart coordinates, Ric(Y,Z) = tr(X -> R(X,Y)Z)."""
    return _ricci(np.linalg.inv(chart.metric(x)), riemann(chart, x))


def scalar_curvature(chart: MetricChart, x):
    """Sc from one Riemann tensor and one inverse metric."""
    ginv = np.linalg.inv(chart.metric(x))
    sc = np.einsum("...jk,...jk->...", ginv, _ricci(ginv, riemann(chart, x)))
    return float(sc) if np.ndim(sc) == 0 else sc


# ---------------------------------------------------------------------------
# orthonormal frames and curvature data at a point


@dataclass(frozen=True)
class OrthoFrame:
    """G(p)-orthonormal basis; columns of E are the frame vectors, the seeded
    axis direction is the last column."""

    base: np.ndarray
    matrix: np.ndarray

    @property
    def axis(self) -> np.ndarray:
        return self.matrix[:, -1]


def orthonormal_frame(chart: MetricChart, p, seed_axis) -> OrthoFrame:
    """Gram-Schmidt of [seed_axis, e_1, ..., e_n] against G(p).

    The seed direction is orthonormalized first (so the chosen axis is exactly
    representable) and stored as the last frame vector.
    """
    p = np.asarray(p, dtype=float)
    seed = np.asarray(seed_axis, dtype=float)
    if np.linalg.norm(seed) < 1e-10:
        raise ValueError("degenerate seed axis")
    g = chart.metric(p)
    n = chart.dim

    def gdot(u, v):
        return float(u @ g @ v)

    basis = []
    for cand in [seed] + [np.eye(n)[k] for k in range(n)]:
        u = cand.astype(float).copy()
        for b in basis:
            u -= gdot(b, u) * b
        norm2 = gdot(u, u)
        if norm2 > 1e-20:
            basis.append(u / math.sqrt(norm2))
        if len(basis) == n:
            break
    matrix = np.stack(basis[1:] + [basis[0]], axis=1)
    return OrthoFrame(base=p, matrix=matrix)


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature data of a chart at a point, in orthonormal-frame components.

    nabla_riemann[a, b, c, d, e] = (nabla_{E_a} Rm)(E_b, E_c, E_d, E_e); it is
    None unless requested (the rank-5 array is the cost hotspot).
    """

    frame: OrthoFrame
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    nabla_riemann: np.ndarray | None = None

    def rm(self, a, b, c, d) -> float:
        """Rm(a,b,c,d) for frame-component vectors a..d."""
        return float(np.einsum("i,j,k,l,ijkl->", a, b, c, d, self.riemann))

    def ric(self, a, b) -> float:
        return float(a @ self.ricci @ b)


def nabla_riemann(chart: MetricChart, x) -> np.ndarray:
    """Covariant derivative of Rm in chart coordinates, index (a; i j k l).

    The partial d_a Rm is a 4th-order finite difference of riemann(); the four
    Christoffel correction terms are exact in the chart's Gamma.
    """
    x = np.asarray(x, dtype=float)
    h = chart.fd_step
    drm = _fd_d1(lambda y: riemann(chart, y), x, h, depth=4)
    gamma = christoffel(chart, x)
    rm = riemann(chart, x)
    corr = (
        np.einsum("...mai,...mjkl->...aijkl", gamma, rm)
        + np.einsum("...maj,...imkl->...aijkl", gamma, rm)
        + np.einsum("...mak,...ijml->...aijkl", gamma, rm)
        + np.einsum("...mal,...ijkm->...aijkl", gamma, rm)
    )
    return drm - corr


def curvature_at(chart: MetricChart, p, seed_axis, nabla: bool = True) -> CurvatureAtPoint:
    """Curvature tensors at p converted to the orthonormal frame seeded by seed_axis."""
    p = np.asarray(p, dtype=float)
    clearance = 2.5 * chart.fd_step
    if not chart.domain.contains(p, clearance):
        raise DomainExit(f"point {p} lacks fd clearance in {chart.name}")
    frame = orthonormal_frame(chart, p, seed_axis)
    e = frame.matrix
    g = chart.metric(p)
    resid = np.abs(e.T @ g @ e - np.eye(chart.dim)).max()
    if resid > 1e-10:
        raise ValueError(f"frame orthonormality failed, residual {resid:.2e}")
    rm_coord = riemann(chart, p)
    rm = np.einsum("ia,jb,kc,ld,ijkl->abcd", e, e, e, e, rm_coord)
    ric_coord = _ricci(np.linalg.inv(g), rm_coord)
    ric = np.einsum("ia,jb,ij->ab", e, e, ric_coord)
    sc = float(np.trace(ric))
    nrm = None
    if nabla:
        nrm_coord = nabla_riemann(chart, p)
        nrm = np.einsum("qa,ib,jc,kd,le,qijkl->abcde", e, e, e, e, e, nrm_coord)
    return CurvatureAtPoint(frame=frame, riemann=rm, ricci=ric, scalar=sc, nabla_riemann=nrm)


# ---------------------------------------------------------------------------
# geodesics


def _rk4(chart: MetricChart, y, deriv, t_nodes, substeps):
    """Fixed-step RK4 from t = 0 of a state y, a tuple of component-major
    arrays led by the positions (n, ...), under y' = deriv(y); yields the
    state at each node of t_nodes (..., k), which substeps[j] steps reach
    from node j - 1 (or from t = 0).  The batch axes of t_nodes broadcast
    against the trailing batch axes of every state array: nodes shared by
    every geodesic, shape (k,), keep the steps scalar.

    The one geodesic integrator of the package: exp_map runs it on (position,
    velocity), exp_rays adds the Jacobi fields.  A position outside the domain
    raises DomainExit with the fraction of all steps done.
    """
    total = int(sum(substeps))
    done = 0
    t_prev = 0.0
    for j, count in enumerate(substeps):
        h = (t_nodes[..., j] - t_prev) / count
        for _ in range(count):
            k1 = deriv(y)
            k2 = deriv(tuple(c + 0.5 * h * k for c, k in zip(y, k1)))
            k3 = deriv(tuple(c + 0.5 * h * k for c, k in zip(y, k2)))
            k4 = deriv(tuple(c + h * k for c, k in zip(y, k3)))
            y = tuple(
                c + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                for c, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
            )
            done += 1
            if not np.all(chart.domain.inside_mask(np.moveaxis(y[0], 0, -1))):
                raise DomainExit(
                    f"geodesic left {chart.name} at step {done}/{total}", exit_fraction=done / total
                )
        yield y
        t_prev = t_nodes[..., j]


def exp_map(chart: MetricChart, p, v, steps: int = 200, force_rk4: bool = False) -> np.ndarray:
    """Geodesic endpoint Exp_p(v) in chart coordinates; v may be batched (..., n).

    Fixed-step RK4 on the geodesic equation, `steps` steps to t = 1; charts
    with a closed-form exponential (euclidean, round spheres, products of
    those) use it unless force_rk4 is set.  Exiting the domain raises
    DomainExit with the fraction of the parameter interval that stayed inside.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not force_rk4:
        closed = chart.exp_closed(p, v)
        if closed is not None:
            if not np.all(chart.domain.inside_mask(closed)):
                raise DomainExit(f"geodesic endpoint left {chart.name}", exit_fraction=1.0)
            return closed

    def deriv(y):
        x, u = y
        return u, chart.geodesic_acc(x, u)

    # contiguous copies: every RK4 stage then runs over the batch at once
    y = (_component_major(np.broadcast_to(p, v.shape)).copy(), _component_major(v).copy())
    ((x, _),) = _rk4(chart, y, deriv, np.ones(1), [steps])
    return np.moveaxis(x, 0, -1).copy()


def exp_rays(chart: MetricChart, p, u, t_nodes, substeps, force_rk4: bool = False):
    """Exp_p(t u) and its differential dExp_p(t u) at the nodes t_nodes (..., k)
    of the rays u (..., n); returns (points (..., k, n), dexp (..., k, n, n)).

    Nodes must be positive and increasing along each ray, and substeps has
    one entry per node; ValueError otherwise.  Charts with a closed-form
    exponential answer both from one dexp_closed call unless force_rk4 is
    set.  Otherwise the RK4 of exp_map integrates each geodesic with its
    variational equation J'' = A_x J + A_v J', J(0) = 0, J'(0) = I, whose
    solution is J(t) = t dExp_p(t u); substeps[j] RK4 steps lead from node
    j - 1 (or from t = 0) to node j, so every node is hit exactly.  A ray
    point outside the domain raises DomainExit, as in exp_map.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    n = chart.dim
    if len(substeps) != t_nodes.shape[-1]:
        raise ValueError(f"{len(substeps)} substep counts for {t_nodes.shape[-1]} nodes per ray")
    if not (np.all(t_nodes[..., :1] > 0.0) and np.all(np.diff(t_nodes, axis=-1) > 0.0)):
        raise ValueError("ray nodes must be positive and increasing")
    if not force_rk4:
        closed = chart.dexp_closed(p, t_nodes[..., None] * u[..., None, :])
        if closed is not None:
            points, dexp = closed
            if not np.all(chart.domain.inside_mask(points)):
                raise DomainExit(f"ray left {chart.name}", exit_fraction=1.0)
            return points, dexp

    # state: the positions (n, ...), and one array (n, 2n + 1, ...) of the
    # columns velocity, J (n columns) and J' (n columns), which each RK4
    # stage updates at once
    def deriv(y):
        x, cols = y
        v, jac, jac_dot = cols[:, 0], cols[:, 1 : 1 + n], cols[:, 1 + n :]
        acc, var = chart.geodesic_acc_jacobi(x, v, jac, jac_dot)
        return v, np.concatenate([acc[:, None], jac_dot, var], axis=1)

    batch = u.shape[:-1]
    cols = np.zeros((n, 2 * n + 1) + batch)
    cols[:, 0] = _component_major(u)
    cols[:, 1 + n :] = np.eye(n).reshape((n, n) + (1,) * len(batch))
    x = _component_major(np.broadcast_to(p, u.shape)).copy()
    states = _rk4(chart, (x, cols), deriv, t_nodes, substeps)
    points = np.empty(t_nodes.shape + (n,))
    dexp = np.empty(t_nodes.shape + (n, n))
    for j, (x, cols) in enumerate(states):
        points[..., j, :] = np.moveaxis(x, 0, -1)
        dexp[..., j, :, :] = np.moveaxis(cols[:, 1 : 1 + n] / t_nodes[..., j], (0, 1), (-2, -1))
    return points, dexp


# ---------------------------------------------------------------------------
# normal-coordinate metric expansion and scalar-curvature derivatives


def normal_metric_expansion(curv: CurvatureAtPoint, xi) -> np.ndarray:
    """Second-plus-third order normal-coordinate metric at frame vector xi:

      g_(mu nu)(xi) = delta + (1/3) Rm(xi, E_mu, xi, E_nu)
                            + (1/6) (nabla_xi Rm)(xi, E_mu, xi, E_nu),

    which shrinks tangentially on positively curved charts.  The cubic term
    is skipped when nabla_riemann was not computed.
    """
    xi = np.asarray(xi, dtype=float)
    n = curv.riemann.shape[0]
    quad = np.einsum("i,k,imkn->mn", xi, xi, curv.riemann)
    out = np.eye(n) + quad / 3.0
    if curv.nabla_riemann is not None:
        cubic = np.einsum("q,i,k,qimkn->mn", xi, xi, xi, curv.nabla_riemann)
        out += cubic / 6.0
    return out


def scalar_gradient(chart: MetricChart, p) -> np.ndarray:
    """Central-difference gradient of the scalar curvature in chart coordinates."""
    p = np.asarray(p, dtype=float)
    h = chart.fd_step
    if not chart.domain.contains(p, 4.0 * h):
        raise DomainExit(f"point {p} lacks fd clearance for scalar_gradient")
    n = chart.dim
    out = np.zeros(n)
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        out[k] = (scalar_curvature(chart, p + e) - scalar_curvature(chart, p - e)) / (2.0 * h)
    return out


def scalar_hessian(chart: MetricChart, p) -> np.ndarray:
    """Symmetrized central-difference Hessian of the scalar curvature."""
    p = np.asarray(p, dtype=float)
    h = chart.fd_step * 10.0
    if not chart.domain.contains(p, 4.0 * h):
        raise DomainExit(f"point {p} lacks fd clearance for scalar_hessian")
    n = chart.dim
    sc0 = scalar_curvature(chart, p)
    out = np.zeros((n, n))
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = h
        out[k, k] = (scalar_curvature(chart, p + ek) - 2.0 * sc0 + scalar_curvature(chart, p - ek)) / h**2
        for l in range(k + 1, n):
            el = np.zeros(n)
            el[l] = h
            mixed = (
                scalar_curvature(chart, p + ek + el)
                - scalar_curvature(chart, p + ek - el)
                - scalar_curvature(chart, p - ek + el)
                + scalar_curvature(chart, p - ek - el)
            ) / (4.0 * h**2)
            out[k, l] = out[l, k] = mixed
    return 0.5 * (out + out.T)
