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
geodesic_acc_jacobian has a finite-difference default.

Geodesics take a chart's closed-form exponential where it has one, and
otherwise one fixed-step RK4 integrator (_rk4): exp_map runs it on position
and velocity, exp_rays on the same state together with the Jacobi fields
that give the differential of the exponential map.

The kernels run on stacks of short vectors and small matrices: _dot unrolls
dot products and norms over the last axis (bit for bit np.sum(a * b,
axis=-1)) and _det takes the package's determinants by cofactor expansion,
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


def _dot(a, b) -> np.ndarray:
    """sum_i a[..., i] * b[..., i], unrolled over the short last axis.

    Bit for bit np.sum(a * b, axis=-1) for up to 8 components (numpy adds
    so few in sequence), without a reduction call per stack."""
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
    = Gamma[..., a, i, j] and geodesic_acc(x, v) = -Gamma(v, v); the optional
    closed forms metric_d1, metric_d2, exp_closed and dexp_closed, which
    returns (Exp_p(v), dExp_p(v)) from one evaluation, return None here.
    fd_step is the central-difference step of geodesic_acc_jacobian's default
    and of every other missing analytic derivative.
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

    def geodesic_acc_jacobian(self, x, v):
        """(A_x, A_v), A[..., a, b] = d acc_a / d x_b (resp. d v_b) of the geodesic
        acceleration acc = -Gamma(v, v), by 4th-order central differences;
        subclasses override it with the analytic form."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        h = self.fd_step
        a_x = _fd_d1(lambda y: self.geodesic_acc(y, v), x, h, depth=1)
        a_v = _fd_d1(lambda w: self.geodesic_acc(x, w), v, h, depth=1)
        return np.swapaxes(a_x, -1, -2), np.swapaxes(a_v, -1, -2)

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

    def exp_closed(self, p, v):
        return np.asarray(p, dtype=float) + np.asarray(v, dtype=float)

    def dexp_closed(self, p, v):
        dexp = np.broadcast_to(np.eye(self.dim), np.shape(v) + (self.dim,)).copy()
        return self.exp_closed(p, v), dexp


def _conformal_christoffel(grad_f: np.ndarray, dim: int) -> np.ndarray:
    # Gamma^k_ij = delta_ik f_j + delta_jk f_i - delta_ij f_k for g = e^(2f) delta
    shape = grad_f.shape[:-1]
    eye = np.eye(dim)
    gamma = np.zeros(shape + (dim, dim, dim))
    gamma += eye[:, None, :] * grad_f[..., None, :, None]
    gamma += eye[:, :, None] * grad_f[..., None, None, :]
    gamma -= eye[None, :, :] * grad_f[..., :, None, None]
    return gamma


def _conformal_acc(grad_f: np.ndarray, v: np.ndarray) -> np.ndarray:
    # -Gamma(v, v) = -2 (grad_f . v) v + |v|^2 grad_f, allocation-light
    fv = _dot(grad_f, v)[..., None]
    vv = _dot(v, v)[..., None]
    return -2.0 * fv * v + vv * grad_f


def _conformal_acc_jacobian(grad_f, hess_f, v):
    # d/dv and d/dx of -2 (grad_f . v) v + |v|^2 grad_f, with d grad_f / dx = hess_f
    fv2 = 2.0 * _dot(grad_f, v)
    vv = _dot(v, v)[..., None, None]
    hv = np.einsum("...ab,...b->...a", hess_f, v)
    a_x = -2.0 * v[..., :, None] * hv[..., None, :] + vv * hess_f
    a_v = 2.0 * (grad_f[..., :, None] * v[..., None, :] - v[..., :, None] * grad_f[..., None, :])
    for i in range(v.shape[-1]):
        a_v[..., i, i] -= fv2
    return a_x, a_v


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
        # f = log(2 a^2 / (a^2 + |x|^2)); also returns u = a^2 + |x|^2
        x = np.asarray(x, dtype=float)
        u = self.a**2 + _dot(x, x)
        return -2.0 * x / u[..., None], u

    def christoffel_closed(self, x):
        return _conformal_christoffel(self._grad_f(x)[0], self.dim)

    def geodesic_acc(self, x, v):
        return _conformal_acc(self._grad_f(x)[0], v)

    def geodesic_acc_jacobian(self, x, v):
        x = np.asarray(x, dtype=float)
        grad_f, u = self._grad_f(x)
        hess_f = 4.0 * x[..., :, None] * x[..., None, :] / (u**2)[..., None, None]
        diag = 2.0 / u
        for i in range(self.dim):
            hess_f[..., i, i] -= diag
        return _conformal_acc_jacobian(grad_f, hess_f, v)

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

    def _f(self, x):
        d = np.asarray(x, dtype=float) - self.x0
        return self.eps * np.exp(-_dot(d, d) / self.s**2)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        e2f = np.exp(2.0 * self._f(x))
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = e2f[..., None]
        return out

    def _grad_f(self, x):
        # grad f, with f (..., 1) and d = x - x0
        x = np.asarray(x, dtype=float)
        d = x - self.x0
        f = self._f(x)[..., None]
        return f * (-2.0 * d / self.s**2), f, d

    def christoffel_closed(self, x):
        return _conformal_christoffel(self._grad_f(x)[0], self.dim)

    def geodesic_acc(self, x, v):
        return _conformal_acc(self._grad_f(x)[0], v)

    def geodesic_acc_jacobian(self, x, v):
        grad_f, f, d = self._grad_f(x)
        dd = d[..., :, None] * d[..., None, :]
        hess_f = 4.0 * dd / self.s**4
        for i in range(self.dim):
            hess_f[..., i, i] -= 2.0 / self.s**2
        hess_f *= f[..., None]
        return _conformal_acc_jacobian(grad_f, hess_f, v)

    def scalar_curvature_exact(self, x):
        """Closed-form Sc of a conformal metric, for cross-checks.

        Sc = -(n-1) e^(-2f) (2 Laplacian f + (n-2) |grad f|^2) in flat
        background coordinates.
        """
        n = self.dim
        grad, f, d = self._grad_f(x)
        f = f[..., 0]
        lap = f * (4.0 * _dot(d, d) / self.s**4 - 2.0 * n / self.s**2)
        return -(n - 1) * np.exp(-2.0 * f) * (2.0 * lap + (n - 2) * _dot(grad, grad))


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

    def geodesic_acc(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, v.shape))
        for off, d, sub, xb in self._blocks(x):
            sl = slice(off, off + d)
            out[..., sl] = sub.geodesic_acc(xb, v[..., sl])
        return out

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
    """Fixed-step RK4 from t = 0 of a state y, a tuple of arrays led by the
    positions (..., n), under y' = deriv(y); yields the state at each node of
    t_nodes (..., k), which substeps[j] steps reach from node j - 1 (or from
    t = 0).  The leading axes of t_nodes broadcast against those of the
    state: nodes shared by every geodesic, shape (k,), keep the steps scalar.

    The one geodesic integrator of the package: exp_map runs it on (position,
    velocity), exp_rays adds the Jacobi fields.  A position outside the domain
    raises DomainExit with the fraction of all steps done.
    """
    total = int(sum(substeps))
    done = 0
    t_prev = 0.0
    for j, count in enumerate(substeps):
        dt = (t_nodes[..., j] - t_prev) / count
        # the step of each geodesic, broadcast over each component's own axes
        dt = [dt.reshape(dt.shape + (1,) * (c.ndim - dt.ndim)) for c in y]
        for _ in range(count):
            k1 = deriv(y)
            k2 = deriv(tuple(c + 0.5 * h * k for c, h, k in zip(y, dt, k1)))
            k3 = deriv(tuple(c + 0.5 * h * k for c, h, k in zip(y, dt, k2)))
            k4 = deriv(tuple(c + h * k for c, h, k in zip(y, dt, k3)))
            y = tuple(
                c + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                for c, h, a1, a2, a3, a4 in zip(y, dt, k1, k2, k3, k4)
            )
            done += 1
            if not np.all(chart.domain.inside_mask(y[0])):
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

    ((x, _),) = _rk4(chart, (np.broadcast_to(p, v.shape), v), deriv, np.ones(1), [steps])
    return x


def exp_rays(chart: MetricChart, p, u, t_nodes, substeps, force_rk4: bool = False):
    """Exp_p(t u) and its differential dExp_p(t u) at the nodes t_nodes (N, k) of
    the rays u (N, n); returns (points (N, k, n), dexp (N, k, n, n)).

    Nodes must be positive and increasing along each ray.  Charts with a
    closed-form exponential answer both from one dexp_closed call unless
    force_rk4 is set.  Otherwise the RK4 of exp_map integrates each geodesic
    with its variational equation J'' = A_x J + A_v J', J(0) = 0, J'(0) = I,
    whose solution is J(t) = t dExp_p(t u); substeps[j] RK4 steps lead from
    node j - 1 (or from t = 0) to node j, so every node is hit exactly.  A ray
    point outside the domain raises DomainExit, as in exp_map.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    n = chart.dim
    if not force_rk4:
        closed = chart.dexp_closed(p, t_nodes[..., None] * u[:, None, :])
        if closed is not None:
            points, dexp = closed
            if not np.all(chart.domain.inside_mask(points)):
                raise DomainExit(f"ray left {chart.name}", exit_fraction=1.0)
            return points, dexp

    # state: the positions, and one array of the columns velocity, J
    # (n columns) and J' (n columns), which each RK4 stage updates at once
    def deriv(y):
        x, cols = y
        v, jac, jac_dot = cols[..., 0], cols[..., 1 : 1 + n], cols[..., 1 + n :]
        a_x, a_v = chart.geodesic_acc_jacobian(x, v)
        # acc is quadratic in v, so A_v v = 2 acc
        acc = 0.5 * np.einsum("...ab,...b->...a", a_v, v)
        return v, np.concatenate([acc[..., None], jac_dot, a_x @ jac + a_v @ jac_dot], axis=-1)

    cols = np.zeros(u.shape + (2 * n + 1,))
    cols[..., 0] = u
    cols[..., 1 + n :] = np.eye(n)
    states = _rk4(chart, (np.broadcast_to(p, u.shape), cols), deriv, t_nodes, substeps)
    points = np.empty(t_nodes.shape + (n,))
    dexp = np.empty(t_nodes.shape + (n, n))
    for j, (x, cols) in enumerate(states):
        points[:, j] = x
        dexp[:, j] = cols[..., 1 : 1 + n] / t_nodes[:, j, None, None]
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
