"""Riemannian metrics in coordinate charts: curvature, frames, geodesics.

Conventions (fixed throughout the package):

  R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  Rm(a,b,c,d) = <R(a,b)c, d>,    Ric(Y,Z) = tr(X -> R(X,Y)Z),

so that round spheres have positive sectional curvature, Ric = (n-1)/a^2 * g
and Sc = n(n-1)/a^2.  Index layout of derivative tensors: dg[..., k, i, j]
is d_k g_ij and d2g[..., l, k, i, j] is d_l d_k g_ij.  Curvature arrays are
returned with Rm[..., i, j, k, l] = Rm(e_i, e_j, e_k, e_l).

Chart hooks (MetricChart): metric and geodesic_acc_jacobi, the chart's one
statement of its connection, are required, the second with no
finite-difference default (christoffel polarizes its A(v) = -Gamma(v, v));
metric_d1, metric_d2 and dexp_closed, which returns (points, dExp W), are
optional and return None without a closed form; exp_closed is dexp_closed
without columns; volume_element (sqrt(det G) at component-major points)
defaults to the metric's cofactor determinant, which the builtin charts
replace by closed forms.  Every central difference in chart coordinates
takes the one step FD_STEP.

Every exponential map of the package runs through one function, the private
ray core _exp_rays: a chart's closed-form exponential where it has one, and
otherwise one fixed-step RK4 integrator (_rk4), which updates its state in
place on preallocated stage, slope-sum and scratch buffers, on position,
velocity and k Jacobi fields, J(0) = 0 and J'(0) = W, whose values give the
pushforward dExp W of the directions W.  Jacobi fields are linear in J'(0),
so both push only the k columns given (the identity for the whole
differential), and a ray without columns carries no Jacobi state.  exp_map
is the core's one-node call: it returns the endpoints, and with
directions=W also dExp_p(v) W.  The oracle's sheets (measure._embed) push
one column per ray, the polar derivative of the sheet, whose push is the
embedded sheet's polar tangent; their angle tangents come from the rays'
endpoints.

Layout: the public functions take and return points (..., n), but the RK4
state, the geodesic hook and the closed-form ray kernel are component-major,
components first and the batch axes last and contiguous:
geodesic_acc_jacobi(x, v, jac, jac_dot) maps positions and velocities (n,
...) and k columns J, J' (n, k, ...) to the acceleration -Gamma(v, v) (n,
...) and A_x J + A_v J' (n, k, ...), where A_x and A_v are the derivatives
of the acceleration in x and v, and dexp_closed(p, v, w) maps v (n, ...)
and k columns w (n, k, ...) to points (n, ...) and dExp_p(v) w (n, k, ...).
No Jacobian matrix is built: the conformal charts apply their Hessian of f,
alpha d d^T + beta I, to J directly, and the round sphere pushes w one
column at a time.  _exp_rays takes rays (n, ...) and directions (n, k, ...)
and returns points (n, ..., K) and dExp W (n, k, ..., K) at the K nodes of
each ray.  Every kernel operation then runs over a block of rays at once
instead of over a length-n axis per point: _exp_rays takes the rays in
blocks of at most RAY_BLOCK, in both branches, so their temporaries stay
in cache.

The kernels run on stacks of short vectors and small matrices: _dot unrolls
dot products and norms over the component axis (bit for bit np.sum(a * b,
axis)), the conformal geodesic kernels reduce the component axis of the
contiguous RK4 state in one einsum per dot product (_batch_dot) and form
their terms in place, and _det takes the package's determinants by
cofactor expansion of component-major stacks (n, n, ...), so no numpy
reduction over a length-3 axis and no LAPACK call per small matrix sits on
a hot path.

Charts are local by design; leaving the domain box is an error, never a
clamp.  Box.inside_mask is the one box test: Box.contains shrinks the box
by a clearance and asks it of every point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class DomainExit(ValueError):
    """A geodesic or stencil left the chart domain."""


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


def _batch_dot(a, b) -> np.ndarray:
    """_dot(a, b, axis=0) of the geodesic kernels, as one einsum reduction
    without a temporary per component: bit for bit the unrolled sum when the
    batch axes, last in memory, hold more than one point, as in the RK4
    state; in the last bit otherwise (einsum then sums along the component
    axis in another order)."""
    return np.einsum("i...,i...->...", a, b)


def _det(a) -> np.ndarray:
    """Determinants of a component-major stack of small matrices (n, n, ...)
    by cofactor expansion along the rows, every minor of the trailing rows
    built once.  A point-major stack (..., n, n) goes in as the view
    _component_major(a, 2)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    # minors[cols]: determinant of the last len(cols) rows in the columns cols
    minors = {(): np.ones(a.shape[2:])}
    for k in range(1, n + 1):
        row = a[n - k]
        level = {}
        for cols in itertools.combinations(range(n), k):
            det = row[cols[0]] * minors[cols[1:]]
            for i in range(1, k):
                term = row[cols[i]] * minors[cols[:i] + cols[i + 1 :]]
                if i % 2:
                    det -= term
                else:
                    det += term
            level[cols] = det
        minors = level
    return minors[tuple(range(n))]


def _component_major(x, rank: int = 1) -> np.ndarray:
    """The points x (..., n), or with rank=2 the matrices x (..., n, n), as a
    component-major view (n, ...) or (n, n, ...)."""
    return np.moveaxis(np.asarray(x, dtype=float), range(-rank, 0), range(rank))


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def contains(self, x, clearance: float = 0.0) -> bool:
        """Every point of x (..., n) in the closed box shrunk by clearance."""
        return bool(np.all(Box(self.lo + clearance, self.hi - clearance).inside_mask(x)))

    def inside_mask(self, x, axis: int = -1) -> np.ndarray:
        """Points of x (..., n), or with axis=0 of component-major x (n, ...),
        inside the closed box; NaN is outside.  Unrolled over the
        coordinates, as _dot, and indexed in place on either axis."""
        if axis not in (0, -1):
            raise ValueError(f"inside_mask takes the components on axis 0 or -1, not {axis}")
        x = np.asarray(x, dtype=float)
        lead = () if axis == 0 else (Ellipsis,)
        mask = (x[lead + (0,)] >= self.lo[0]) & (x[lead + (0,)] <= self.hi[0])
        for i in range(1, x.shape[axis]):
            mask &= (x[lead + (i,)] >= self.lo[i]) & (x[lead + (i,)] <= self.hi[i])
        return mask


# central-difference step in chart coordinates: of every missing analytic
# metric derivative, of nabla Rm and of the scalar-curvature gradient (ten
# times it for the Hessian)
FD_STEP = 1e-3
# most rays per block of _exp_rays, whose RK4 state and stages or closed-form
# temporaries stay in cache
RAY_BLOCK = 4096


class MetricChart:
    """Base chart: a metric on an axis-aligned box in R^n.

    Subclasses implement the two required hooks, metric(x) and the
    component-major geodesic_acc_jacobi, which has no finite-difference
    default; the optional closed forms metric_d1, metric_d2 and dexp_closed,
    which returns (Exp_p(v) (n, ...), dExp_p(v) W (n, k, ...)) from one
    evaluation, return None here.  exp_closed is dexp_closed without columns.
    Missing analytic metric derivatives are central differences with step
    FD_STEP.
    """

    def __init__(self, dim: int, name: str, domain: Box):
        self.dim = dim
        self.name = name
        self.domain = domain

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # analytic fast paths; return None when unavailable
    def metric_d1(self, x):
        return None

    def metric_d2(self, x):
        return None

    def dexp_closed(self, p, v, w):
        """(Exp_p(v) (n, ...), dExp_p(v) w (n, k, ...)) at a single base point p,
        component-major v (n, ...) and k columns w (n, k, ...) broadcasting
        against v, the pushed array new; None when unavailable."""
        return None

    def exp_closed(self, p, v):
        """Exp_p(v) (..., n) at points v (..., n), dexp_closed without columns;
        None when unavailable."""
        v = _component_major(v)
        closed = self.dexp_closed(p, v, np.empty((self.dim, 0) + v.shape[1:]))
        return None if closed is None else np.moveaxis(closed[0], 0, -1)

    def volume_element(self, x):
        """sqrt(det G) at component-major points x (n, ...), shape (...)."""
        return np.sqrt(_det(_component_major(self.metric(np.moveaxis(x, 0, -1)), 2)))

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        """(acc, A_x J + A_v J') for the geodesic acceleration acc = -Gamma(v, v)
        at x, v (n, ...) and the k columns of J, J' (n, k, ...), component-major:
        column c of A_x J + A_v J' is the derivative of acc along (J_c, J'_c)."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} dim={self.dim}>"


# ---------------------------------------------------------------------------
# builtin chart families


class EuclideanChart(MetricChart):
    def __init__(self, dim: int = 3, half_width: float = 5.0):
        if half_width <= 0.0:
            raise ValueError(f"domain half-width must be positive, got {half_width}")
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

    def volume_element(self, x):
        return np.ones(np.shape(x)[1:])

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        return np.zeros(np.shape(v)), np.zeros(np.shape(jac))

    def dexp_closed(self, p, v, w):
        v = np.asarray(v, dtype=float)
        pushed = np.broadcast_to(w, np.shape(w)[:2] + v.shape[1:]).copy()
        return np.reshape(p, (-1,) + (1,) * (v.ndim - 1)) + v, pushed


def _conformal_acc_jacobi(grad_f, d, alpha, beta, v, jac, jac_dot):
    """(acc, A_x J + A_v J') of a conformal metric g = e^(2f) delta when Hess f =
    alpha d d^T + beta I, component-major: grad_f, d, v (n, ...), alpha, beta
    (...), J, J' (n, k, ...).

    The acceleration is -Gamma(v, v) = -2 (grad_f . v) v + |v|^2 grad_f, and
    A_x J + A_v J' its derivatives along the columns (J_c, J'_c), with d grad_f
    = H J = alpha d (d . J) + beta J:
      -2 (H J . v + grad_f . J') v + |v|^2 H J - 2 (grad_f . v) J' + 2 (v . J') grad_f.
    Every term is formed in place, in this order, so the bits are those of
    the formula as written; without columns (k = 0) only acc is formed.
    """
    fv = _batch_dot(grad_f, v)
    fv *= -2.0
    vv = _batch_dot(v, v)
    acc = np.multiply(fv, v)
    acc += vv * grad_f
    if jac.shape[1] == 0:
        return acc, np.empty(jac.shape)
    g, v, d = grad_f[:, None], v[:, None], d[:, None]
    # H J, then |v|^2 H J in its place
    dj = _batch_dot(d, jac)
    dj *= alpha
    var = np.multiply(dj, d)
    tmp = np.multiply(beta, jac)
    var += tmp
    s = _batch_dot(var, v)
    s += _batch_dot(g, jac_dot)
    s *= -2.0
    var *= vv
    var += np.multiply(s, v, out=tmp)
    # - (2 fv) J' is + (-2 fv) J' exactly
    var += np.multiply(fv, jac_dot, out=tmp)
    vj = _batch_dot(v, jac_dot)
    vj *= 2.0
    var += np.multiply(vj, g, out=tmp)
    return acc, var


class RoundSphereChart(MetricChart):
    """Stereographic chart of the round sphere of radius a.

    g = lam(x)^2 delta with lam = 2 a^2 / (a^2 + |x|^2); G(0) = 4 Identity.
    Carries analytic derivatives and a closed-form exponential map.
    """

    def __init__(self, a: float = 1.0, dim: int = 3):
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

    def volume_element(self, x):
        # lam^n with lam = 2 a^2 / (a^2 + |x|^2)
        return (2.0 * self.a**2 / (self.a**2 + _dot(x, x, axis=0))) ** self.dim

    def _grad_f(self, x):
        # f = log(2 a^2 / (a^2 + |x|^2)) at component-major x (n, ...); also
        # returns u = a^2 + |x|^2
        u = _batch_dot(x, x)
        u += self.a**2
        grad = np.multiply(x, -2.0)
        grad /= u
        return grad, u

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

    def dexp_closed(self, p, v, w):
        """(Exp_p(v) (n, ...), dExp_p(v) w (n, k, ...)) at a single base point p,
        component-major v (n, ...) and directions w (n, k, ...), along the
        great circle of the embedded sphere: v is pushed into R^(n + 1) by
        the embedding differential at p and the circle's endpoint projected
        back to the chart (p itself at zero speed); each column of w takes
        the same steps, du = push dw once per ray, d u1 = k (vdir . du) +
        sinc du and the differential of the projection, row by row in place."""
        a = self.a
        n = self.dim
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        batch = v.shape[1:]
        column = (-1,) + (1,) * len(batch)
        den = a**2 + p @ p
        push = np.vstack(
            [(2.0 * a**2 / den) * (np.eye(n) - 2.0 * np.outer(p, p) / den), 4.0 * a**3 * p / den**2]
        )
        # one matrix product over the whole batch, bit for bit the rows of v @ push.T
        vdir = (push @ v.reshape(n, -1)).reshape((n + 1,) + batch)
        speed = np.sqrt(_dot(vdir, vdir, axis=0))  # = |v|_G by conformality
        still = speed == 0.0
        theta = speed / a
        vdir /= np.where(still, 1.0, speed)
        cos, sin = np.cos(theta), np.sin(theta)
        u0 = self.embed(p).reshape(column)
        u1 = cos * u0
        u1 += (a * sin) * vdir
        points = a * u1[:-1]
        points /= a - u1[-1]
        np.copyto(points, p.reshape(column), where=still)
        if w.shape[1] == 0:
            return points, np.empty((n, 0) + batch)
        sinc = np.sinc(theta / math.pi)
        k = (-sin / a) * u0
        k += (cos - sinc) * vdir
        # the stereographic projection back: scale d u1[:-1] + tail d u1[-1]
        z = a - u1[-1]
        scale = a / z
        tail = a * u1[:-1]
        tail /= z**2
        # vdir . du = vpush . dw: at the identity's columns the rows of vdir @ push
        vpush = (push.T @ vdir.reshape(n + 1, -1)).reshape((n,) + batch)
        # the great circle's own arrays are spent: free them before the
        # pushes, at the peak of a ray batch's memory
        del vdir, speed, still, theta, cos, sin, u1, z
        pushed = np.empty((n, w.shape[1]) + batch)
        tmp = np.empty(batch)
        for c in range(w.shape[1]):
            du = (push @ w[:, c].reshape(n, -1)).reshape((n + 1,) + w.shape[2:])
            s = _batch_dot(vpush, w[:, c])
            last = k[n] * s
            last += np.multiply(sinc, du[n], out=tmp)
            for r in range(n):
                out = np.multiply(k[r], s, out=pushed[r, c])
                out += np.multiply(sinc, du[r], out=tmp)
                out *= scale
                out += np.multiply(tail[r], last, out=tmp)
        return points, pushed


class ConformalBumpChart(MetricChart):
    """g = e^(2f) delta with a Gaussian bump f = eps exp(-|x - x0|^2 / s^2).

    Metric derivatives go through the finite-difference pipeline; the
    geodesic kernel, and with it the Christoffel symbols, is the exact
    conformal identity with the analytic gradient and Hessian of f.
    """

    def __init__(self, eps: float = -0.1, x0=None, s: float = 0.5, dim: int = 3, half_width: float = 1.5):
        if s <= 0.0 or half_width <= 0.0:
            raise ValueError(f"bump width and domain half-width must be positive, got {s}, {half_width}")
        self.eps = eps
        self.s = s
        self.x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
        if self.x0.shape != (dim,):
            raise ValueError(f"bump centre {self.x0} has {self.x0.size} coordinates, the chart has {dim}")
        box = Box(lo=np.full(dim, -half_width), hi=np.full(dim, half_width))
        super().__init__(dim, f"conformal_bump(eps={eps}, s={s})", box)

    def _f(self, x, axis: int = -1):
        # f and d = x - x0 at points x (..., n), or at component-major x (n, ...)
        # with axis=0
        x0 = self.x0 if axis == -1 else self.x0.reshape((-1,) + (1,) * (np.ndim(x) - 1))
        d = x - x0
        f = np.exp((_batch_dot(d, d) if axis == 0 else _dot(d, d)) / -self.s**2)
        f *= self.eps
        return f, d

    def _grad_f(self, x):
        # -2 f d / s^2 at component-major x, with the factor 2 (exact in
        # floating point) on f
        f, d = self._f(x, axis=0)
        grad = np.divide(d, self.s**2)
        grad *= -2.0 * f
        return grad, f, d

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        e2f = np.exp(2.0 * self._f(x)[0])
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = e2f[..., None]
        return out

    def volume_element(self, x):
        return np.exp(self.dim * self._f(x, axis=0)[0])

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        # Hess f = (4 f / s^4) d d^T - (2 f / s^2) I
        grad_f, f, d = self._grad_f(x)
        return _conformal_acc_jacobi(grad_f, d, 4.0 * f / self.s**4, -2.0 * f / self.s**2, v, jac, jac_dot)


class ProductRoundChart(MetricChart):
    """Product of round-sphere factors (radius math.inf means a flat factor)."""

    def __init__(self, factors=((2, 1.0), (1, math.inf))):
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
        super().__init__(dim, f"product({self.factors})", box)

    def _block_diagonal(self, x, method: str, rank: int):
        """Tensor of the given rank whose diagonal blocks are the factors'
        `method` at their coordinates of x; mixed blocks are zero."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,) * rank)
        for off, d, sub in self._charts:
            sl = slice(off, off + d)
            out[(...,) + (sl,) * rank] = getattr(sub, method)(x[..., sl])
        return out

    def metric(self, x):
        return self._block_diagonal(x, "metric", 2)

    def metric_d1(self, x):
        return self._block_diagonal(x, "metric_d1", 3)

    def metric_d2(self, x):
        return self._block_diagonal(x, "metric_d2", 4)

    def volume_element(self, x):
        out = np.ones(np.shape(x)[1:])
        for off, d, sub in self._charts:
            out = out * sub.volume_element(x[off : off + d])
        return out

    # the geodesic hooks, component-major, factor by factor on their rows

    def geodesic_acc_jacobi(self, x, v, jac, jac_dot):
        acc = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)))
        var = np.zeros(np.broadcast_shapes(np.shape(jac), np.shape(jac_dot)))
        for off, d, sub in self._charts:
            sl = slice(off, off + d)
            acc[sl], var[sl] = sub.geodesic_acc_jacobi(x[sl], v[sl], jac[sl], jac_dot[sl])
        return acc, var

    def dexp_closed(self, p, v, w):
        # dExp is block diagonal: the rows of a factor push that factor's rows of w
        points = np.empty(v.shape)
        pushed = np.empty((self.dim, w.shape[1]) + v.shape[1:])
        for off, d, sub in self._charts:
            sl = slice(off, off + d)
            points[sl], pushed[sl] = sub.dexp_closed(p[sl], v[sl], w[sl])
        return points, pushed


_FAMILIES = {
    "euclidean": EuclideanChart,
    "round_sphere": RoundSphereChart,
    "conformal_bump": ConformalBumpChart,
    "product": ProductRoundChart,
}


def builtin_chart(family: str, **params) -> MetricChart:
    """Construct a builtin chart family by name (the keys of _FAMILIES); its
    constructor takes the settings and holds their defaults."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown chart family {family!r}")
    return _FAMILIES[family](**params)


# ---------------------------------------------------------------------------
# derivative stacks (analytic when the chart has them, else central FD)


def _fd_d1(fun, x, h, depth=2):
    """4th-order central difference of an array-valued fun with `depth`
    trailing tensor axes; the new derivative axis is inserted first.

    One call of fun per shifted point.  Batching the shifts on a leading
    axis, as fields.field_jet does, makes the locator's curvature tensors
    several times faster; ROADMAP items 1 and 2 defer that: the benchmark's
    peak-RSS metric grows with the number of operations it completes until
    item 1 lands, and item 2 replaces these differences with closed-form
    curvature."""
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


def metric_d1(chart: MetricChart, x) -> np.ndarray:
    d1 = chart.metric_d1(x)
    if d1 is not None:
        return d1
    return _fd_d1(chart.metric, x, FD_STEP, depth=2)


def metric_d2(chart: MetricChart, x) -> np.ndarray:
    d2 = chart.metric_d2(x)
    if d2 is not None:
        return d2
    # d_l of dg, one 4th-order stencil per direction
    return _fd_d1(lambda y: metric_d1(chart, y), x, FD_STEP, depth=3)


def christoffel(chart: MetricChart, x) -> np.ndarray:
    """Christoffel symbols Gamma[..., a, i, j] = Gamma^a_ij at points x (..., n),
    by polarization of the geodesic acceleration A(v) = -Gamma(v, v), from
    one geodesic_acc_jacobi call without columns at the directions e_i + e_j,
    i <= j: Gamma(e_i, e_j) = (A(e_i) + A(e_j) - A(e_i + e_j)) / 2 with A(e_i)
    = A(2 e_i) / 4, stored as Gamma^a_ij and Gamma^a_ji."""
    x = _component_major(x)
    n = len(x)
    i, j = np.triu_indices(n)
    # positions and the velocities e_i + e_j, component-major (n, pairs, ...)
    shape = (n, len(i)) + x.shape[1:]
    dirs = (np.eye(n)[:, i] + np.eye(n)[:, j]).reshape(shape[:2] + (1,) * (x.ndim - 1))
    xs, v = (np.broadcast_to(a, shape).copy() for a in (x[:, None], dirs))
    acc = chart.geodesic_acc_jacobi(xs, v, *[np.empty((n, 0) + shape[1:])] * 2)[0]
    unit = acc[:, i == j] / 4.0
    gamma = np.empty((n, n, n) + x.shape[1:])
    gamma[:, i, j] = gamma[:, j, i] = (unit[:, i] + unit[:, j] - acc) / 2.0
    return np.moveaxis(gamma, (0, 1, 2), (-3, -2, -1))


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
    h = FD_STEP
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
    clearance = 2.5 * FD_STEP
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
    """Fixed-step RK4 from t = 0 of a state y, a tuple of C-contiguous
    component-major arrays led by the positions (n, ...), under y' =
    deriv(y); yields y at each node of t_nodes (..., k), which substeps[j]
    steps reach from node j - 1 (or from t = 0).  The batch axes of t_nodes
    broadcast against the trailing batch axes of every state array: nodes
    shared by every geodesic, shape (k,), keep the steps scalar.

    y is updated in place, with the stages, the weighted sum of the slopes
    and one scratch array per state array allocated once; each update runs
    in the order of y + h/6 (k1 + 2 k2 + 2 k3 + k4) with stages y + (h/2) k,
    so the bits are those of the formulas as written.  deriv returns one
    slope per state array, fresh or a later state array of its argument
    itself (the velocities for the positions, J' for J): each stage is
    formed in tuple order, so such a slope is read before it is overwritten.

    The one geodesic integrator of the package: _exp_rays runs it on
    position and velocity, and the Jacobi fields when it has columns.  A
    position outside the domain raises DomainExit naming the step.
    """
    stage = tuple(np.empty_like(c) for c in y)
    total_k = tuple(np.empty_like(c) for c in y)
    scratch = tuple(np.empty_like(c) for c in y)
    total = int(sum(substeps))
    done = 0
    t_prev = 0.0
    for j, count in enumerate(substeps):
        h = (t_nodes[..., j] - t_prev) / count
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(count):
            for c, k, st, tk in zip(y, deriv(y), stage, total_k):
                np.copyto(tk, k)
                np.multiply(k, half, out=st)
                st += c
            for weight, step in ((2.0, half), (2.0, h), (1.0, None)):
                for c, k, st, tk, tmp in zip(y, deriv(stage), stage, total_k, scratch):
                    tk += k if weight == 1.0 else np.multiply(k, weight, out=tmp)
                    if step is not None:
                        np.multiply(k, step, out=st)
                        st += c
            for c, tk in zip(y, total_k):
                tk *= sixth
                c += tk
            done += 1
            if not np.all(chart.domain.inside_mask(y[0], axis=0)):
                raise DomainExit(f"geodesic left {chart.name} at step {done}/{total}")
        yield y
        t_prev = t_nodes[..., j]


def exp_map(chart: MetricChart, p, v, steps: int = 200, force_rk4: bool = False, directions=None):
    """Geodesic endpoints Exp_p(v) (..., n) in chart coordinates at a single
    base point p; v may be batched (..., n).

    The one-node call of the ray core _exp_rays at t = 1: charts with a
    closed-form exponential (euclidean, round spheres, products of those)
    use it unless force_rk4 is set, the others fixed-step RK4 with `steps`
    steps.  steps < 1 raises ValueError and exiting the domain DomainExit.

    With directions W (..., n, k), k columns per geodesic, returns (points,
    pushforward), the pushforward dExp_p(v) W (..., n, k): the Jacobi fields
    J(1) along each geodesic with J(0) = 0 and J'(0) = W, or the closed
    form's push of the same columns.  Without directions the rays carry no
    Jacobi state and only the points come back, the same bits as with them.
    """
    if steps < 1:
        raise ValueError(f"exp_map needs a positive step count, got {steps}")
    w = None if directions is None else np.moveaxis(np.asarray(directions, dtype=float), (-2, -1), (0, 1))
    points, push = _exp_rays(chart, p, _component_major(v), np.ones(1), [steps], force_rk4, w)
    points = np.moveaxis(points[..., 0], 0, -1)
    if directions is None:
        return points
    return points, np.moveaxis(push[..., 0], (0, 1), (-2, -1))


def _exp_rays(chart: MetricChart, p, u, t_nodes, substeps, force_rk4: bool = False, directions=None):
    """Exp_p(t u) and its differential dExp_p(t u) W at the nodes t_nodes (..., K)
    of the component-major rays u (n, ...); returns points (n, ..., K) and
    the pushed directions (n, k, ..., K).  The directions W (n, k, ...), k
    per ray (the identity for the whole differential; none for k = 0),
    broadcast against the rays.

    Nodes must be positive and increasing along each ray, and substeps has
    one positive entry per node; ValueError otherwise.  One loop runs the
    rays in near-equal blocks of at most RAY_BLOCK, whose temporaries stay
    in cache.  Charts with a closed-form exponential answer a block from one
    dexp_closed call unless force_rk4 is set.  Otherwise _rk4 integrates
    each geodesic of the block and, for k > 0, its variational equation J''
    = A_x J + A_v J', J(0) = 0, J'(0) = W, whose solution is J(t) = t
    dExp_p(t u) W; substeps[j] RK4 steps lead from node j - 1 (or from t =
    0) to node j, so every node is hit exactly.  A ray's bits do not depend
    on its block unless it is alone in it, which only a batch of one ray
    is (_batch_dot sums a lone point in another order).  A ray point
    outside the domain raises DomainExit.  The caller's u and W are read,
    never written.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    n = chart.dim
    if len(substeps) != t_nodes.shape[-1]:
        raise ValueError(f"{len(substeps)} substep counts for {t_nodes.shape[-1]} nodes per ray")
    if any(count < 1 for count in substeps):
        raise ValueError(f"substep counts must be positive, got {list(substeps)}")
    if not (np.all(t_nodes[..., :1] > 0.0) and np.all(np.diff(t_nodes, axis=-1) > 0.0)):
        raise ValueError("ray nodes must be positive and increasing")
    batch = np.broadcast_shapes(u.shape[1:], t_nodes.shape[:-1])
    w = np.empty((n, 0) + batch) if directions is None else directions
    w = np.broadcast_to(np.asarray(w, dtype=float), np.shape(w)[:2] + batch)
    k = w.shape[1]

    # state: positions, velocities and, with columns, J and J' (n, k, rays),
    # contiguous copies of one block of rays, so the caller's arrays stay as
    # they are; without columns the hook gets empty columns as J and J'
    def deriv(y):
        if k == 0:
            none = np.empty((n, 0) + y[0].shape[1:])
            return y[1], chart.geodesic_acc_jacobi(*y, none, none)[0]
        x, v, jac, jac_dot = y
        acc, var = chart.geodesic_acc_jacobi(x, v, jac, jac_dot)
        return v, acc, jac_dot, var

    rays = math.prod(batch)
    u = np.broadcast_to(u, (n,) + batch).reshape(n, rays)
    w = w.reshape(n, k, rays)
    # nodes shared by every ray stay (K,), so the RK4 steps stay scalar
    nodes = t_nodes if t_nodes.ndim == 1 else np.broadcast_to(t_nodes, batch + t_nodes.shape[-1:]).reshape(rays, -1)
    points = np.empty((n, rays, len(substeps)))
    pushed = np.empty((n, k, rays, len(substeps)))
    # at most RAY_BLOCK rays at a time, in blocks of near-equal size: at
    # RAY_BLOCK >= 4 none holds a single ray unless the batch does (_batch_dot)
    blocks = max(1, -(-rays // RAY_BLOCK))
    edges = [rays * b // blocks for b in range(blocks + 1)]
    closed = not force_rk4
    for lo, hi in zip(edges, edges[1:]):
        block_nodes = nodes if nodes.ndim == 1 else nodes[lo:hi]
        if closed:
            # a chart without a closed form says so (None) at the first block
            out = chart.dexp_closed(p, u[:, lo:hi, None] * block_nodes, w[:, :, lo:hi, None])
            closed = out is not None
            if closed:
                if not np.all(chart.domain.inside_mask(out[0], axis=0)):
                    raise DomainExit(f"ray left {chart.name}")
                points[:, lo:hi], pushed[:, :, lo:hi] = out
                continue
        x = np.repeat(p[:, None], hi - lo, axis=1)
        v = u[:, lo:hi].copy()
        state = (x, v) if k == 0 else (x, v, np.zeros((n, k, hi - lo)), w[..., lo:hi].copy())
        for j, y in enumerate(_rk4(chart, state, deriv, block_nodes, substeps)):
            points[:, lo:hi, j] = y[0]
            if k:
                np.divide(y[2], block_nodes[..., j], out=pushed[:, :, lo:hi, j])
    shape = batch + (len(substeps),)
    return points.reshape((n,) + shape), pushed.reshape((n, k) + shape)


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
    h = FD_STEP
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
    return _scalar_hessian(chart, p)[1]


def _scalar_hessian(chart: MetricChart, p):
    """(Sc(p), scalar_hessian(chart, p)), from the one Sc evaluation at p that
    the Hessian's diagonal takes."""
    p = np.asarray(p, dtype=float)
    h = FD_STEP * 10.0
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
    return sc0, 0.5 * (out + out.T)
