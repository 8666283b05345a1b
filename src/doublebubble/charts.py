"""Riemannian metrics in coordinate charts: curvature, frames, geodesics.

Conventions (fixed throughout the package):

  R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  Rm(a,b,c,d) = <R(a,b)c, d>,    Ric(Y,Z) = tr(X -> R(X,Y)Z),

so that round spheres have positive sectional curvature, Ric = (n-1)/a^2 * g
and Sc = n(n-1)/a^2.  Index layout of derivative tensors: dg[..., k, i, j]
is d_k g_ij and d2g[..., l, k, i, j] is d_l d_k g_ij.  Curvature arrays are
returned with Rm[..., i, j, k, l] = Rm(e_i, e_j, e_k, e_l).

Charts are local by design; leaving the domain box is an error, never a
clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainExit(ValueError):
    """A geodesic or stencil left the chart domain."""

    def __init__(self, message: str, exit_fraction: float | None = None):
        super().__init__(message)
        self.exit_fraction = exit_fraction


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
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo) & (x <= self.hi), axis=-1)


class MetricChart:
    """Base chart: a metric on an axis-aligned box in R^n.

    Subclasses implement metric(); analytic derivative stacks and closed-form
    Christoffels/exponentials are optional fast paths.  fd_step is the
    central-difference step used whenever an analytic derivative is missing.
    """

    def __init__(self, dim: int, name: str, domain: Box, fd_step: float = 1e-3):
        self.dim = dim
        self.name = name
        self.domain = domain
        self.fd_step = fd_step

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # analytic fast paths; return None when unavailable
    def metric_d1(self, x):
        return None

    def metric_d2(self, x):
        return None

    def christoffel_closed(self, x):
        return None

    def geodesic_acc(self, x, v):
        """Closed-form -Gamma(v, v) when available; None to use christoffel."""
        return None

    def exp_closed(self, p, v):
        return None

    def dexp_closed(self, p, v):
        """Closed-form differential of exp_closed in v, (..., n, n); None when unavailable."""
        return None

    def geodesic_acc_jacobian(self, x, v):
        """(A_x, A_v), A[..., a, b] = d acc_a / d x_b (resp. d v_b) of the geodesic
        acceleration acc = -Gamma(v, v), by 4th-order central differences;
        subclasses override it with the analytic form."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        h = self.fd_step
        a_x = _fd_d1(lambda y: geodesic_acceleration(self, y, v), x, h, depth=1)
        a_v = _fd_d1(lambda w: geodesic_acceleration(self, x, w), v, h, depth=1)
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
        return np.broadcast_to(np.eye(self.dim), np.shape(v) + (self.dim,)).copy()


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
    fv = np.sum(grad_f * v, axis=-1, keepdims=True)
    vv = np.sum(v * v, axis=-1, keepdims=True)
    return -2.0 * fv * v + vv * grad_f


def _conformal_acc_jacobian(grad_f, hess_f, v):
    # d/dv and d/dx of -2 (grad_f . v) v + |v|^2 grad_f, with d grad_f / dx = hess_f
    eye = np.eye(v.shape[-1])
    fv = np.sum(grad_f * v, axis=-1)[..., None, None]
    vv = np.sum(v * v, axis=-1)[..., None, None]
    hv = np.einsum("...ab,...b->...a", hess_f, v)
    a_x = -2.0 * v[..., :, None] * hv[..., None, :] + vv * hess_f
    a_v = 2.0 * (grad_f[..., :, None] * v[..., None, :] - v[..., :, None] * grad_f[..., None, :])
    a_v -= 2.0 * fv * eye
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
        s = np.sum(x * x, axis=-1)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = self._e(s)[..., None]
        return out

    def metric_d1(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(x * x, axis=-1)
        e1 = self._e(s, 1)
        eye = np.eye(self.dim)
        # d_k (E delta_ij) = E'(s) 2 x_k delta_ij
        return 2.0 * e1[..., None, None, None] * x[..., :, None, None] * eye

    def metric_d2(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(x * x, axis=-1)
        e1 = self._e(s, 1)
        e2 = self._e(s, 2)
        eye = np.eye(self.dim)
        xx = x[..., :, None] * x[..., None, :]
        radial = 4.0 * e2[..., None, None] * xx + 2.0 * e1[..., None, None] * eye
        return radial[..., :, :, None, None] * eye

    def christoffel_closed(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(x * x, axis=-1)
        grad_f = -2.0 * x / (self.a**2 + s)[..., None]
        return _conformal_christoffel(grad_f, self.dim)

    def geodesic_acc(self, x, v):
        x = np.asarray(x, dtype=float)
        s = np.sum(x * x, axis=-1)
        grad_f = -2.0 * x / (self.a**2 + s)[..., None]
        return _conformal_acc(grad_f, v)

    def geodesic_acc_jacobian(self, x, v):
        # f = log(2 a^2 / (a^2 + |x|^2))
        x = np.asarray(x, dtype=float)
        u = (self.a**2 + np.sum(x * x, axis=-1))[..., None, None]
        grad_f = -2.0 * x / u[..., 0]
        hess_f = -2.0 * np.eye(self.dim) / u + 4.0 * x[..., :, None] * x[..., None, :] / u**2
        return _conformal_acc_jacobian(grad_f, hess_f, v)

    # stereographic embedding of the sphere of radius a in R^(n+1)
    def embed(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(x * x, axis=-1)[..., None]
        denom = self.a**2 + s
        return np.concatenate(
            [2.0 * self.a**2 * x / denom, self.a * (s - self.a**2) / denom], axis=-1
        )

    def embed_push(self, p, v):
        """Analytic differential of the stereographic embedding at p applied to v."""
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        s = np.sum(p * p, axis=-1, keepdims=True)
        denom = self.a**2 + s
        pv = np.sum(p * v, axis=-1, keepdims=True)
        head = (2.0 * self.a**2 / denom) * (v - 2.0 * p * pv / denom)
        tail = 4.0 * self.a**3 * pv / denom**2
        return np.concatenate([head, tail], axis=-1)

    def exp_closed(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        # push (p, v) to the embedded sphere, follow the great circle, project back
        u0 = self.embed(p)
        du = self.embed_push(np.broadcast_to(p, v.shape), v)
        speed = np.linalg.norm(du, axis=-1, keepdims=True)  # = |v|_G by conformality
        small = speed < 1e-300
        theta = speed / self.a
        udir = du / np.where(small, 1.0, speed)
        u1 = np.cos(theta) * u0 + np.sin(theta) * self.a * udir
        w = u1[..., -1:]
        out = self.a * u1[..., :-1] / (self.a - w)
        return np.where(small, np.broadcast_to(p, v.shape), out)

    def dexp_closed(self, p, v):
        """Differential of exp_closed in v at a single base point p, (..., n, n)."""
        a = self.a
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        den = a**2 + p @ p
        # differential of the embedding at p, (n + 1, n)
        push = np.vstack(
            [(2.0 * a**2 / den) * (np.eye(self.dim) - 2.0 * np.outer(p, p) / den), 4.0 * a**3 * p / den**2]
        )
        w = v @ push.T
        speed = np.linalg.norm(w, axis=-1, keepdims=True)
        theta = speed / a
        wdir = w / np.where(speed == 0.0, 1.0, speed)
        sinc = np.sinc(theta / math.pi)
        u0 = self.embed(p)
        u1 = np.cos(theta) * u0 + a * np.sin(theta) * wdir
        # d u1 = k (wdir . dw) + sinc dw, then the stereographic projection back
        k = -np.sin(theta) / a * u0 + (np.cos(theta) - sinc) * wdir
        du1 = k[..., :, None] * (wdir @ push)[..., None, :] + sinc[..., None] * push
        z = a - u1[..., -1:]
        head = (a / z)[..., None] * du1[..., :-1, :]
        return head + (a * u1[..., :-1] / z**2)[..., :, None] * du1[..., -1:, :]


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
        return self.eps * np.exp(-np.sum(d * d, axis=-1) / self.s**2)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        e2f = np.exp(2.0 * self._f(x))
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = e2f[..., None]
        return out

    def christoffel_closed(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.x0
        grad_f = self._f(x)[..., None] * (-2.0 * d / self.s**2)
        return _conformal_christoffel(grad_f, self.dim)

    def geodesic_acc(self, x, v):
        x = np.asarray(x, dtype=float)
        d = x - self.x0
        grad_f = self._f(x)[..., None] * (-2.0 * d / self.s**2)
        return _conformal_acc(grad_f, v)

    def geodesic_acc_jacobian(self, x, v):
        x = np.asarray(x, dtype=float)
        d = x - self.x0
        f = self._f(x)[..., None, None]
        grad_f = f[..., 0] * (-2.0 * d / self.s**2)
        dd = d[..., :, None] * d[..., None, :]
        hess_f = f * (4.0 * dd / self.s**4 - 2.0 * np.eye(self.dim) / self.s**2)
        return _conformal_acc_jacobian(grad_f, hess_f, v)

    def scalar_curvature_exact(self, x):
        """Closed-form Sc of a conformal metric, for cross-checks.

        Sc = -(n-1) e^(-2f) (2 Laplacian f + (n-2) |grad f|^2) in flat
        background coordinates.
        """
        x = np.asarray(x, dtype=float)
        n = self.dim
        d = x - self.x0
        f = self._f(x)
        grad = f[..., None] * (-2.0 * d / self.s**2)
        lap = f * (4.0 * np.sum(d * d, axis=-1) / self.s**4 - 2.0 * n / self.s**2)
        return -(n - 1) * np.exp(-2.0 * f) * (2.0 * lap + (n - 2) * np.sum(grad * grad, axis=-1))


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

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        for off, d, sub, xb in self._blocks(x):
            out[..., off : off + d, off : off + d] = sub.metric(xb)
        return out

    def metric_d1(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,) * 3)
        for off, d, sub, xb in self._blocks(x):
            sl = slice(off, off + d)
            out[..., sl, sl, sl] = sub.metric_d1(xb)
        return out

    def metric_d2(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,) * 4)
        for off, d, sub, xb in self._blocks(x):
            sl = slice(off, off + d)
            out[..., sl, sl, sl, sl] = sub.metric_d2(xb)
        return out

    def christoffel_closed(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,) * 3)
        for off, d, sub, xb in self._blocks(x):
            sl = slice(off, off + d)
            out[..., sl, sl, sl] = sub.christoffel_closed(xb)
        return out

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
        out = np.zeros(v.shape + (self.dim,))
        for off, d, sub, _ in self._blocks(p):
            sl = slice(off, off + d)
            out[..., sl, sl] = sub.dexp_closed(p[..., sl], v[..., sl])
        return out


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
    closed = chart.christoffel_closed(x)
    if closed is not None:
        return closed
    return _christoffel_from_stack(chart.metric(x), metric_d1(chart, x))


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


def ricci(chart: MetricChart, x) -> np.ndarray:
    """Ricci tensor in chart coordinates, Ric(Y,Z) = tr(X -> R(X,Y)Z)."""
    g = chart.metric(x)
    rm = riemann(chart, x)
    ginv = np.linalg.inv(g)
    return np.einsum("...al,...ajkl->...jk", ginv, rm)


def scalar_curvature(chart: MetricChart, x):
    g = chart.metric(x)
    ric = ricci(chart, x)
    sc = np.einsum("...jk,...jk->...", np.linalg.inv(g), ric)
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

    def nabla_rm(self, v, a, b, c, d) -> float:
        if self.nabla_riemann is None:
            raise ValueError("nabla_riemann was not computed for this point")
        return float(np.einsum("q,i,j,k,l,qijkl->", v, a, b, c, d, self.nabla_riemann))


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
    ric_coord = ricci(chart, p)
    ric = np.einsum("ia,jb,ij->ab", e, e, ric_coord)
    sc = float(np.trace(ric))
    nrm = None
    if nabla:
        nrm_coord = nabla_riemann(chart, p)
        nrm = np.einsum("qa,ib,jc,kd,le,qijkl->abcde", e, e, e, e, e, nrm_coord)
    return CurvatureAtPoint(frame=frame, riemann=rm, ricci=ric, scalar=sc, nabla_riemann=nrm)


# ---------------------------------------------------------------------------
# geodesics


def geodesic_acceleration(chart: MetricChart, x, v) -> np.ndarray:
    """-Gamma(v, v) at x: the chart's closed form when it has one, else from christoffel()."""
    acc = chart.geodesic_acc(x, v)
    if acc is None:
        acc = -np.einsum("...aij,...i,...j->...a", christoffel(chart, x), v, v)
    return acc


def exp_map(chart: MetricChart, p, v, steps: int = 200, force_rk4: bool = False) -> np.ndarray:
    """Geodesic endpoint Exp_p(v) in chart coordinates; v may be batched (..., n).

    Fixed-step RK4 on the geodesic equation; charts with a closed-form
    exponential (euclidean, round spheres, products of those) use it unless
    force_rk4 is set.  Exiting the domain raises DomainExit with the fraction
    of the parameter interval that stayed inside.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not force_rk4:
        closed = chart.exp_closed(p, v)
        if closed is not None:
            if not np.all(chart.domain.inside_mask(closed)):
                raise DomainExit(f"geodesic endpoint left {chart.name}", exit_fraction=1.0)
            return closed

    x = np.broadcast_to(p, v.shape).astype(float).copy()
    u = v.copy()
    dt = 1.0 / steps

    def acc(pos, vel):
        return geodesic_acceleration(chart, pos, vel)

    for k in range(steps):
        k1x, k1u = u, acc(x, u)
        k2x, k2u = u + 0.5 * dt * k1u, acc(x + 0.5 * dt * k1x, u + 0.5 * dt * k1u)
        k3x, k3u = u + 0.5 * dt * k2u, acc(x + 0.5 * dt * k2x, u + 0.5 * dt * k2u)
        k4x, k4u = u + dt * k3u, acc(x + dt * k3x, u + dt * k3u)
        x = x + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        u = u + (dt / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        if not np.all(chart.domain.inside_mask(x)):
            raise DomainExit(
                f"geodesic left {chart.name} at step {k + 1}/{steps}",
                exit_fraction=(k + 1) / steps,
            )
    return x


def exp_rays(chart: MetricChart, p, u, t_nodes, substeps, force_rk4: bool = False):
    """Exp_p(t u) and its differential dExp_p(t u) at the nodes t_nodes (N, k) of
    the rays u (N, n); returns (points (N, k, n), dexp (N, k, n, n)).

    Nodes must be positive and increasing along each ray.  Charts with a
    closed-form differential use it unless force_rk4 is set.  Otherwise RK4
    integrates each geodesic with its variational equation
    J'' = A_x J + A_v J', J(0) = 0, J'(0) = I, whose solution is
    J(t) = t dExp_p(t u); substeps[j] RK4 steps lead from node j - 1 (or from
    t = 0) to node j, so every node is hit exactly.  A ray point outside the
    domain raises DomainExit, as in exp_map.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    n = chart.dim
    if not force_rk4:
        v = t_nodes[..., None] * u[:, None, :]
        dexp = chart.dexp_closed(p, v)
        if dexp is not None:
            points = chart.exp_closed(p, v)
            if not np.all(chart.domain.inside_mask(points)):
                raise DomainExit(f"ray left {chart.name}", exit_fraction=1.0)
            return points, dexp

    # state columns: position, velocity, J (n columns), J' (n columns)
    y = np.zeros(u.shape + (2 * n + 2,))
    y[..., 0] = p
    y[..., 1] = u
    y[..., 2 + n :] = np.eye(n)

    def deriv(y):
        x, v = y[..., 0], y[..., 1]
        a_x, a_v = chart.geodesic_acc_jacobian(x, v)
        jdot = a_x @ y[..., 2 : 2 + n] + a_v @ y[..., 2 + n :]
        # acc is quadratic in v, so A_v v = 2 acc
        acc = 0.5 * np.einsum("...ab,...b->...a", a_v, v)
        return np.concatenate([v[..., None], acc[..., None], y[..., 2 + n :], jdot], axis=-1)

    points = np.empty(t_nodes.shape + (n,))
    dexp = np.empty(t_nodes.shape + (n, n))
    total = int(sum(substeps))
    done = 0
    t_prev = np.zeros(len(u))
    for j, count in enumerate(substeps):
        dt = ((t_nodes[:, j] - t_prev) / count)[:, None, None]
        for _ in range(count):
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * dt * k1)
            k3 = deriv(y + 0.5 * dt * k2)
            k4 = deriv(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            done += 1
            if not np.all(chart.domain.inside_mask(y[..., 0])):
                raise DomainExit(
                    f"ray left {chart.name} at step {done}/{total}", exit_fraction=done / total
                )
        points[:, j] = y[..., 0]
        dexp[:, j] = y[..., 2 : 2 + n] / t_nodes[:, j, None, None]
        t_prev = t_nodes[:, j]
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
