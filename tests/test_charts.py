import math

import numpy as np
import pytest

from doublebubble import charts, locate
from doublebubble.charts import (
    Box,
    DomainExit,
    MetricChart,
    _det,
    _dot,
    _exp_rays,
    builtin_chart,
    christoffel,
    curvature_at,
    exp_map,
    nabla_riemann,
    normal_metric_expansion,
    orthonormal_frame,
    ricci,
    riemann,
    scalar_curvature,
    scalar_gradient,
    scalar_hessian,
)
from doublebubble.geometry import BubbleParams

import exact_models


def riemann_symmetry_residual(rm):
    anti1 = np.abs(rm + rm.transpose(1, 0, 2, 3)).max()
    anti2 = np.abs(rm + rm.transpose(0, 1, 3, 2)).max()
    pair = np.abs(rm - rm.transpose(2, 3, 0, 1)).max()
    bianchi = np.abs(
        rm + np.einsum("ijkl->kijl", rm) + np.einsum("ijkl->jkil", rm)
    ).max()
    return max(anti1, anti2, pair, bianchi)


def test_builtin_families_and_errors():
    assert builtin_chart("euclidean", dim=3).metric(np.zeros(3))[0, 0] == 1.0
    sp = builtin_chart("round_sphere", a=1.0)
    assert np.allclose(sp.metric(np.zeros(3)), 4.0 * np.eye(3))
    bump0 = builtin_chart("conformal_bump", eps=0.0)
    x = np.array([0.3, -0.2, 0.1])
    assert np.allclose(bump0.metric(x), np.eye(3))
    with pytest.raises(ValueError):
        builtin_chart("round_sphere", a=-1.0)
    with pytest.raises(ValueError):
        builtin_chart("nope")


def test_euclidean_curvature_vanishes():
    ch = builtin_chart("euclidean", dim=3)
    assert np.abs(riemann(ch, np.array([0.3, 0.1, -0.2]))).max() == 0.0
    assert scalar_curvature(ch, np.zeros(3)) == 0.0
    assert np.abs(scalar_gradient(ch, np.zeros(3))).max() == 0.0


def test_round_sphere_curvature():
    sp = builtin_chart("round_sphere", a=1.0)
    p = np.array([0.2, -0.1, 0.15])
    cv = curvature_at(sp, p, np.array([0.0, 0.0, 1.0]))
    assert cv.scalar == pytest.approx(6.0, abs=1e-9)
    assert np.abs(cv.ricci - 2.0 * np.eye(3)).max() <= 1e-9
    assert np.abs(cv.nabla_riemann).max() <= 1e-6  # symmetric space
    u, v = np.eye(3)[0], np.eye(3)[1]
    assert cv.rm(u, v, v, u) == pytest.approx(1.0, abs=1e-9)  # positive sectional


@pytest.mark.parametrize(
    "family,kw,n_points,tol",
    [
        ("round_sphere", dict(a=1.3), 100, 1e-10),
        ("product", dict(factors=[(2, 1.5), (1, math.inf)]), 100, 1e-10),
        ("conformal_bump", dict(eps=-0.1, s=0.5), 10, 1e-6),
    ],
)
def test_riemann_symmetries_random_points(family, kw, n_points, tol):
    ch = builtin_chart(family, **kw)
    rng = np.random.default_rng(0)
    lo, hi = ch.domain.lo, ch.domain.hi
    pts = rng.uniform(lo + 0.2, hi - 0.2, size=(n_points, ch.dim))
    rms = riemann(ch, pts)
    for k in range(n_points):
        assert riemann_symmetry_residual(rms[k]) <= tol


def test_frame_orthonormal_and_seed_last():
    sp = builtin_chart("round_sphere", a=1.0)
    p = np.array([0.1, 0.2, -0.3])
    seed = np.array([0.3, -0.5, 0.8])
    fr = orthonormal_frame(sp, p, seed)
    g = sp.metric(p)
    assert np.abs(fr.matrix.T @ g @ fr.matrix - np.eye(3)).max() <= 1e-12
    # last frame vector is parallel to the seed
    cross = np.cross(fr.axis, seed)
    assert np.linalg.norm(cross) <= 1e-12 * np.linalg.norm(seed)
    with pytest.raises(ValueError):
        orthonormal_frame(sp, p, np.zeros(3))
    # euclidean frame is a permutation of identity columns
    eu = builtin_chart("euclidean", dim=3)
    fre = orthonormal_frame(eu, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    assert np.abs(np.abs(fre.matrix) - np.eye(3)[:, [0, 1, 2]]).max() <= 1e-15


def test_frame_covariance_of_invariants():
    bp = builtin_chart("conformal_bump", eps=-0.15, s=0.6)
    p = np.array([0.1, -0.2, 0.05])
    rng = np.random.default_rng(1)
    ref = None
    for _ in range(4):
        seed = rng.normal(size=3)
        cv = curvature_at(bp, p, seed, nabla=False)
        eigs = np.sort(np.linalg.eigvalsh(cv.ricci))
        cur = (cv.scalar, eigs)
        if ref is not None:
            assert abs(cur[0] - ref[0]) <= 1e-9 * max(1.0, abs(ref[0]))
            assert np.abs(cur[1] - ref[1]).max() <= 1e-9 * max(1.0, np.abs(ref[1]).max())
        ref = cur


def test_exp_map_euclidean_exact_and_domain_exit():
    eu = builtin_chart("euclidean", dim=3)
    p = np.zeros(3)
    v = np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(exp_map(eu, p, v), v)
    with pytest.raises(DomainExit):
        exp_map(eu, p, np.array([[20.0, 0.0, 0.0]]), force_rk4=True)


def test_exp_map_great_circle_distance():
    sp = builtin_chart("round_sphere", a=1.0)
    p = np.array([0.15, -0.1, 0.2])
    v = np.array([[0.2, 0.25, -0.1]])
    g = sp.metric(p)
    t_expected = math.sqrt(float(v[0] @ g @ v[0]))
    q = exp_map(sp, p, v, steps=200, force_rk4=True)[0]
    e0, e1 = sp.embed(p), sp.embed(q)
    dist = math.acos(np.clip(float(e0 @ e1), -1.0, 1.0))
    assert abs(dist - t_expected) <= 1e-9


def test_exp_rays_rk4_jacobi_matches_closed_form_differential():
    p = np.array([0.15, -0.1, 0.2])
    u = np.random.default_rng(3).normal(size=(6, 3)) * 0.05
    t_nodes = np.array([0.4, 1.0, 1.7, 2.5]) * np.linspace(0.8, 1.2, 6)[:, None]
    # the identity directions give the whole differential
    eye = np.eye(3)[:, :, None]
    for chart in (
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("euclidean", dim=3),
        builtin_chart("product", factors=[(2, 1.0), (1, math.inf)]),
    ):
        pts_c, dexp_c = _exp_rays(chart, p, u.T, t_nodes, [50] * 4, directions=eye)
        pts_r, dexp_r = _exp_rays(chart, p, u.T, t_nodes, [50] * 4, force_rk4=True, directions=eye)
        assert pts_c.shape == (3, 6, 4) and dexp_c.shape == (3, 3, 6, 4)
        # one closed form: the rays' points are exp_map's, bit for bit
        ends = exp_map(chart, p, t_nodes[..., None] * u[:, None])
        assert np.array_equal(pts_c, np.moveaxis(ends, -1, 0))
        assert np.abs(pts_r - pts_c).max() <= 1e-10, chart.name
        assert np.abs(dexp_r - dexp_c).max() <= 1e-10, chart.name


def test_acc_jacobi_hook_matches_directional_differences():
    # A_x J + A_v J' of every family (the analytic forms, and the product's
    # from its factors) against 4th-order differences of the hook's own
    # component-major acceleration along each column (J_c, J'_c), taken
    # with no Jacobi columns, as exp_map takes it without directions
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.6, 0.6, size=(3, 8))
    v = rng.normal(size=(3, 8))
    jac = rng.normal(size=(3, 4, 8))
    jac_dot = rng.normal(size=(3, 4, 8))
    none = np.zeros((3, 0, 4, 8))
    h = 1e-3
    for chart in (
        builtin_chart("euclidean", dim=3),
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("conformal_bump", eps=-0.1, s=0.5),
        builtin_chart("product", factors=[(2, 1.0), (1, math.inf)]),
    ):
        acc, var = chart.geodesic_acc_jacobi(x, v, jac, jac_dot)
        assert acc.shape == (3, 8) and var.shape == (3, 4, 8)
        acc_alone, var_alone = chart.geodesic_acc_jacobi(x, v, none[:, :, 0], none[:, :, 0])
        assert np.array_equal(acc_alone, acc) and var_alone.shape == (3, 0, 8), chart.name

        def along(c):
            shifted = (x[:, None] + c * h * jac, v[:, None] + c * h * jac_dot)
            return chart.geodesic_acc_jacobi(*shifted, none, none)[0]

        fd = (8.0 * (along(1) - along(-1)) - (along(2) - along(-2))) / (12.0 * h)
        assert np.abs(var - fd).max() <= 1e-7, chart.name


def test_builtin_families_define_the_geodesic_hooks():
    # every family defines the two required hooks itself, the metric and one
    # geodesic kernel, the Jacobi hook, which states the connection once (no
    # family has a Christoffel hook beside it); exp_closed is MetricChart's
    # alone, the points of dexp_closed without columns, and MetricChart has
    # no finite-difference fallback for the Jacobi hook
    p = np.array([0.15, -0.1, 0.2])
    v = np.random.default_rng(6).normal(size=(2, 5, 3)) * 0.1
    for family, cls in charts._FAMILIES.items():
        for hook in ("metric", "geodesic_acc_jacobi"):
            assert hook in vars(cls), (cls.__name__, hook)
        assert not hasattr(cls, "christoffel_closed"), cls.__name__
        assert not hasattr(cls, "geodesic_acc") and "exp_closed" not in vars(cls), cls.__name__
        chart = builtin_chart(family)
        closed = chart.dexp_closed(p, np.moveaxis(v, -1, 0), np.empty((3, 0, 2, 5)))
        if family == "conformal_bump":
            assert closed is None and chart.exp_closed(p, v) is None
        else:
            assert np.array_equal(chart.exp_closed(p, v), np.moveaxis(closed[0], 0, -1)), family

    class MetricOnly(MetricChart):
        def metric(self, x):
            return np.broadcast_to(np.eye(3), np.shape(x) + (3,))

    chart = MetricOnly(3, "metric only", Box(lo=np.full(3, -1.0), hi=np.full(3, 1.0)))
    x = np.zeros((3, 2))
    with pytest.raises(NotImplementedError):
        chart.geodesic_acc_jacobi(x, x, np.zeros((3, 1, 2)), np.zeros((3, 1, 2)))
    with pytest.raises(NotImplementedError):
        exp_map(chart, np.zeros(3), x.T)


def test_dot_is_numpy_sum_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in range(1, 5):
        # magnitudes spread over six decades, so that the order of the sum shows
        a = rng.normal(size=(7, 5, n)) * 10.0 ** rng.uniform(-3, 3, size=(7, 5, n))
        b = rng.normal(size=(7, 5, n)) * 10.0 ** rng.uniform(-3, 3, size=(7, 5, n))
        p = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        assert np.array_equal(_dot(a, b), np.sum(a * b, axis=-1))
        assert np.array_equal(np.sqrt(_dot(a, a)), np.linalg.norm(a, axis=-1))
        # a 1-D base point, alone and against a stack
        assert np.array_equal(_dot(p, p), np.sum(p * p, axis=-1))
        assert np.array_equal(_dot(p, b), np.sum(p * b, axis=-1))
        # component-major arrays (n, ...), summed over the first axis
        ac, bc = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
        assert np.array_equal(_dot(ac, bc, axis=0), np.sum(ac * bc, axis=0))
    with pytest.raises(ValueError):
        _dot(np.ones((3, 3)), np.ones((3, 3)), axis=1)


def test_det_matches_lapack():
    rng = np.random.default_rng(22)
    for n in range(0, 5):
        a = rng.normal(size=(40, 5, n, n)) + 3.0 * np.eye(n)  # well conditioned
        ref = np.linalg.det(a) if n else np.ones((40, 5))
        # point-major stacks go in as component-major views (n, n, ...)
        dets = _det(charts._component_major(a, 2))
        assert dets.shape == (40, 5)
        assert np.all(np.abs(dets - ref) <= 1e-13 * np.abs(ref))
        # a contiguous component-major copy gives the same bits
        assert np.array_equal(_det(np.ascontiguousarray(charts._component_major(a, 2))), dets)
        # one matrix alone
        if n:
            assert np.abs(_det(a[0, 0]) - ref[0, 0]) <= 1e-13 * abs(ref[0, 0])
    # the closed-form exp-map differentials behind the chamber volumes,
    # component-major (n, n, ...)
    sp = builtin_chart("round_sphere", a=1.0)
    v = rng.normal(size=(3, 50, 4)) * 0.5
    _, dexp = sp.dexp_closed(np.array([0.15, -0.1, 0.2]), v, np.eye(3)[:, :, None, None])
    ref = np.linalg.det(np.moveaxis(dexp, (0, 1), (-2, -1)))
    assert np.all(np.abs(_det(dexp) - ref) <= 1e-13 * np.abs(ref))


def _point_major_great_circle(chart, p, v):
    """Reference: the round sphere's closed-form Exp_p(v) (..., n) and dExp_p(v)
    (..., n, n) in the point-major layout, one (n + 1, n) differential of
    the embedded great circle per ray."""
    a = chart.a
    den = a**2 + p @ p
    push = np.vstack(
        [(2.0 * a**2 / den) * (np.eye(chart.dim) - 2.0 * np.outer(p, p) / den), 4.0 * a**3 * p / den**2]
    )
    w = v @ push.T
    speed = np.sqrt(_dot(w, w))[..., None]
    still = speed == 0.0
    theta = speed / a
    wdir = w / np.where(still, 1.0, speed)
    u0 = chart.embed(p)
    u1 = np.cos(theta) * u0 + a * np.sin(theta) * wdir
    points = np.where(still, p, a * u1[..., :-1] / (a - u1[..., -1:]))
    sinc = np.sinc(theta / math.pi)
    k = -np.sin(theta) / a * u0 + (np.cos(theta) - sinc) * wdir
    du1 = k[..., :, None] * (wdir @ push)[..., None, :] + sinc[..., None] * push
    z = a - u1[..., -1:]
    head = (a / z)[..., None] * du1[..., :-1, :]
    return points, head + (a * u1[..., :-1] / z**2)[..., :, None] * du1[..., -1:, :]


def _point_major_closed_form(chart, p, v):
    """Reference Exp_p(v) and dExp_p(v), point-major, of the charts with a
    closed-form exponential."""
    if isinstance(chart, charts.RoundSphereChart):
        return _point_major_great_circle(chart, p, v)
    points = np.empty(v.shape)
    dexp = np.zeros(v.shape + (chart.dim,))
    blocks = chart._charts if isinstance(chart, charts.ProductRoundChart) else [(0, chart.dim, chart)]
    for off, d, sub in blocks:
        sl = slice(off, off + d)
        if isinstance(sub, charts.RoundSphereChart):
            points[..., sl], dexp[..., sl, sl] = _point_major_great_circle(sub, p[sl], v[..., sl])
        else:
            points[..., sl] = p[sl] + v[..., sl]
            dexp[..., sl, sl] = np.eye(d)
    return points, dexp


@pytest.mark.parametrize(
    "family,kw",
    [
        ("round_sphere", dict(a=1.0)),
        ("round_sphere", dict(a=2.0)),
        ("round_sphere", dict(a=1.0, dim=4)),
        ("product", dict(factors=[(3, 1.0), (1, math.inf)])),
        ("euclidean", dict(dim=3)),
    ],
)
def test_component_major_closed_form_is_the_point_major_formula(family, kw):
    # the component-major closed form against the point-major formula: bit
    # for bit for rays with several nodes and for exp_map, zero-speed rays
    # included, where the identity directions give the whole differential;
    # at one node per ray the point-major products were one matrix-vector
    # product per ray, which rounds differently.  General directions W match
    # the point-major dExp W to roundoff, and without columns the points are
    # the same bits
    chart = builtin_chart(family, **kw)
    rng = np.random.default_rng(13)
    n = chart.dim
    p = rng.uniform(-0.2, 0.2, size=n)
    u = rng.normal(size=(40, n)) * 0.1
    u[[3, 17]] = 0.0
    w = np.random.default_rng(14).normal(size=(40, n, 2))
    for k in (3, 1):
        t_nodes = np.sort(rng.uniform(0.3, 1.5, size=(40, k)), axis=1)
        points, dexp = _exp_rays(chart, p, u.T, t_nodes, [4] * k, directions=np.eye(n)[:, :, None])
        ref_points, ref_dexp = _point_major_closed_form(chart, p, t_nodes[..., None] * u[:, None])
        ref_push = np.moveaxis(ref_dexp @ w[:, None], (-2, -1), (0, 1))
        ref_points, ref_dexp = np.moveaxis(ref_points, -1, 0), np.moveaxis(ref_dexp, (-2, -1), (0, 1))
        assert points.shape == (n, 40, k) and dexp.shape == (n, n, 40, k)
        if k > 1:
            assert np.array_equal(points, ref_points), chart.name
            assert np.array_equal(dexp, ref_dexp), chart.name
        else:
            assert np.abs(points - ref_points).max() <= 1e-15 * np.abs(ref_points).max(), chart.name
            assert np.abs(dexp - ref_dexp).max() <= 1e-15 * np.abs(ref_dexp).max(), chart.name
        _, push = _exp_rays(chart, p, u.T, t_nodes, [4] * k, directions=np.moveaxis(w, 0, -1))
        assert push.shape == (n, 2, 40, k)
        assert np.abs(push - ref_push).max() <= 1e-15 * np.abs(ref_push).max(), chart.name
        bare, none = _exp_rays(chart, p, u.T, t_nodes, [4] * k)
        assert np.array_equal(bare, points) and none.shape == (n, 0, 40, k), chart.name
        # zero speed: the base point itself
        assert np.array_equal(points[:, [3, 17]], np.broadcast_to(p[:, None, None], (n, 2, k)))
    assert np.array_equal(exp_map(chart, p, u), _point_major_closed_form(chart, p, u)[0]), chart.name


@pytest.mark.parametrize(
    "family,kw",
    [
        ("euclidean", dict(dim=3)),
        ("round_sphere", dict(a=2.0)),
        ("round_sphere", dict(a=1.0, dim=4)),
        ("conformal_bump", dict(eps=-0.1, s=0.5)),
        ("product", dict(factors=[(3, 1.0), (1, math.inf)])),
    ],
)
def test_volume_element_closed_form_is_sqrt_det_metric(family, kw):
    # each builtin closed form against the default, the square root of the
    # metric's cofactor determinant, at component-major points
    chart = builtin_chart(family, **kw)
    x = np.random.default_rng(5).uniform(-0.4, 0.4, size=(chart.dim, 7, 3))
    ref = charts.MetricChart.volume_element(chart, x)
    vol = chart.volume_element(x)
    assert vol.shape == (7, 3)
    assert np.abs(vol / ref - 1.0).max() <= 4 * np.finfo(float).eps, chart.name


def test_inside_mask_closed_box_and_nan():
    box = Box(lo=np.array([-1.0, -2.0, 0.5]), hi=np.array([1.0, 2.0, 1.5]))
    inside = np.array([0.0, 0.0, 1.0])
    pts = [inside]
    for i in range(3):
        for bound, away in ((box.lo[i], -np.inf), (box.hi[i], np.inf)):
            for value in (bound, np.nextafter(bound, away), np.nan, away):
                x = inside.copy()
                x[i] = value
                pts.append(x)
    pts = np.array(pts).reshape(5, 5, 3)
    mask = box.inside_mask(pts)
    assert np.array_equal(mask, np.all((pts >= box.lo) & (pts <= box.hi), axis=-1))
    # the centre and the six points on the faces
    assert mask.sum() == 7
    assert box.inside_mask(inside) and not box.inside_mask(np.full(3, np.nan))
    # the same test on component-major points (n, ...), copies and views
    for cm in (np.moveaxis(pts, -1, 0), np.moveaxis(pts, -1, 0).copy()):
        assert np.array_equal(box.inside_mask(cm, axis=0), mask)
    assert box.inside_mask(inside, axis=0) and not box.inside_mask(np.full(3, np.nan), axis=0)
    with pytest.raises(ValueError):
        box.inside_mask(pts, axis=1)


def test_box_contains_exactly_at_the_clearance():
    # the box shrunk by the clearance is closed, and one ulp beyond it is out
    box = Box(lo=np.array([-1.0, -2.0, 0.5]), hi=np.array([1.0, 2.0, 1.5]))
    c = 0.25
    inside = np.array([0.0, 0.0, 1.0])
    for i in range(3):
        for edge, outward in ((box.lo[i] + c, -np.inf), (box.hi[i] - c, np.inf)):
            x = inside.copy()
            x[i] = edge
            assert box.contains(x, c)
            x[i] = np.nextafter(edge, outward)
            assert not box.contains(x, c)
            assert box.contains(x)
    assert box.contains(np.stack([inside, box.lo + c, box.hi - c]), c)
    assert not box.contains(np.stack([inside, box.lo]), c)
    assert not box.contains(np.full(3, np.nan))
    # the component-major call of the RK4 domain test: the same shrunk box,
    # the same mask on its faces, one ulp beyond them and at NaN
    shrunk = Box(box.lo + c, box.hi - c)
    pts = [inside]
    for i in range(3):
        for edge, outward in ((box.lo[i] + c, -np.inf), (box.hi[i] - c, np.inf)):
            for value in (edge, np.nextafter(edge, outward), np.nan):
                x = inside.copy()
                x[i] = value
                pts.append(x)
    pts = np.array(pts)
    mask = shrunk.inside_mask(pts.T.copy(), axis=0)
    assert np.array_equal(mask, [box.contains(x, c) for x in pts])
    assert mask.sum() == 7


def test_stencil_exact_on_batched_polynomials():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, size=(4, 5, 3))  # batch (4, 5), n = 3
    h = np.array([0.01, 0.02, 0.015])

    def quartic(y):
        a, b, c = y[..., 0], y[..., 1], y[..., 2]
        return np.stack([a**4 - 2.0 * b**3 * c + c**2, a * b**2 * c + 3.0 * b**4], axis=-1)

    def quartic_d1(y):
        a, b, c = y[..., 0], y[..., 1], y[..., 2]
        rows = [
            [4.0 * a**3, -6.0 * b**2 * c, -2.0 * b**3 + 2.0 * c],
            [b**2 * c, 2.0 * a * b * c + 12.0 * b**3, a * b**2],
        ]
        # (..., n, out): derivative axis right after the batch axes
        return np.stack([np.stack(col, axis=-1) for col in zip(*rows)], axis=-2)

    f, d1, _ = exact_models.stencil(quartic, x, h)
    assert f.shape == (4, 5, 2) and d1.shape == (4, 5, 3, 2)
    assert np.array_equal(f, quartic(x))
    assert np.abs(d1 - quartic_d1(x)).max() <= 1e-10

    def cubic(y):
        a, b, c = y[..., 0], y[..., 1], y[..., 2]
        return a**3 + a * b * c - 2.0 * b**2 * c

    a, b, c = x[..., 0], x[..., 1], x[..., 2]
    hess = np.stack(
        [
            np.stack([6.0 * a, c, b], axis=-1),
            np.stack([c, -4.0 * c, a - 4.0 * b], axis=-1),
            np.stack([b, a - 4.0 * b, np.zeros_like(a)], axis=-1),
        ],
        axis=-2,
    )
    _, d1, d2 = exact_models.stencil(cubic, x, h)
    assert d1.shape == (4, 5, 3) and d2.shape == (4, 5, 3, 3)
    assert np.abs(d2 - hess).max() <= 1e-8

    # steps per point: each point's derivatives are those of a call with its
    # own steps alone, bit for bit, for vector and scalar values
    steps = rng.uniform(0.005, 0.02, size=x.shape)
    for fun in (quartic, cubic):
        batched = exact_models.stencil(fun, x, steps)
        for idx in np.ndindex(x.shape[:-1]):
            alone = exact_models.stencil(fun, x[idx], steps[idx])
            for got, want in zip(batched, alone):
                assert np.array_equal(got[idx], want)


def test_exp_rays_domain_exit():
    u = np.array([[1.0, 0.0, 0.0], [0.0, 0.3, 0.0]])
    t_nodes = np.array([[0.5, 1.0, 2.5], [0.5, 1.0, 2.5]])
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        with pytest.raises(DomainExit):
            _exp_rays(chart, np.zeros(3), u.T, t_nodes, [10, 10, 10])


def test_exp_rays_rejects_bad_nodes():
    u = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    good = np.array([[0.5, 1.0], [0.4, 0.9]])
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        _exp_rays(chart, np.zeros(3), u.T, good, [5, 5])
        for t_nodes, substeps in (
            (np.array([[0.0, 1.0], [0.4, 0.9]]), [5, 5]),  # a zero node
            (np.array([[-0.5, 1.0], [0.4, 0.9]]), [5, 5]),  # a negative node
            (np.array([[0.5, 1.0], [0.9, 0.4]]), [5, 5]),  # decreasing
            (np.array([[0.5, 0.5], [0.4, 0.9]]), [5, 5]),  # repeated
            (good, [5]),  # one substep count for two nodes
            (good, [5, 5, 5]),
            (good, [0, 5]),  # a zero substep count
            (good, [5, -1]),  # a negative one
        ):
            for force_rk4 in (False, True):
                with pytest.raises(ValueError):
                    _exp_rays(chart, np.zeros(3), u.T, t_nodes, substeps, force_rk4=force_rk4)


def test_exp_map_rejects_non_positive_steps():
    # on every chart, closed forms included
    v = np.array([[0.1, 0.0, 0.0]])
    for chart in (
        builtin_chart("euclidean", dim=3),
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("conformal_bump", eps=-0.1, s=0.5),
        builtin_chart("product", factors=[(2, 1.0), (1, math.inf)]),
    ):
        for force_rk4 in (False, True):
            for steps in (0, -3):
                with pytest.raises(ValueError):
                    exp_map(chart, np.zeros(3), v, steps=steps, force_rk4=force_rk4)


def test_geodesics_couple_no_rays():
    # each geodesic depends on its own ray alone: the whole batch, its two
    # halves and the batch with an extra axis give the same bits
    rng = np.random.default_rng(11)
    p = np.array([0.12, -0.05, 0.08])
    u = rng.normal(size=(12, 3)) * 0.2
    t_nodes = np.sort(rng.uniform(0.2, 1.0, size=(12, 3)), axis=1)
    eye = np.eye(3)[:, :, None]
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        ends = exp_map(chart, p, u, steps=20)
        halves = [exp_map(chart, p, u[:6], steps=20), exp_map(chart, p, u[6:], steps=20)]
        assert np.array_equal(np.concatenate(halves), ends), chart.name
        assert np.array_equal(exp_map(chart, p, u.reshape(3, 4, 3), steps=20).reshape(12, 3), ends), chart.name
        rays = _exp_rays(chart, p, u.T, t_nodes, [4, 4, 4], directions=eye)
        first = _exp_rays(chart, p, u[:6].T, t_nodes[:6], [4, 4, 4], directions=eye)
        second = _exp_rays(chart, p, u[6:].T, t_nodes[6:], [4, 4, 4], directions=eye)
        stacked = _exp_rays(
            chart, p, u.T.reshape(3, 3, 4), t_nodes.reshape(3, 4, 3), [4, 4, 4], directions=eye[..., None]
        )
        for whole, a, b, c in zip(rays, first, second, stacked):
            # the batch axis is the one before the nodes
            assert np.array_equal(np.concatenate([a, b], axis=-2), whole), chart.name
            assert np.array_equal(c.reshape(whole.shape), whole), chart.name


def test_rk4_exp_map_is_exp_rays_at_one_node():
    # one integrator: exp_map's RK4 is _exp_rays' without the Jacobi fields,
    # stepped to the single node t = 1
    p = np.array([0.12, -0.05, 0.08])
    v = np.random.default_rng(5).normal(size=(64, 3)) * 0.15
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        ends = exp_map(chart, p, v, steps=50, force_rk4=True)
        points, _ = _exp_rays(chart, p, v.T, np.ones((len(v), 1)), [50], force_rk4=True)
        assert np.array_equal(ends, points[..., 0].T), chart.name
    bump = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    with pytest.raises(DomainExit):
        exp_map(bump, p, np.array([[0.2, 0.0, 0.0], [3.0, 0.0, 0.0]]), steps=20, force_rk4=True)


def test_rk4_blocks_keep_each_rays_bits(monkeypatch):
    # _exp_rays takes RAY_BLOCK rays at a time, in RK4 and in the closed
    # form alike: blocks of any size give every ray, its Jacobi columns and
    # its per-ray nodes the bits of one block; the blocks are near-equal, 9
    # rays in blocks of 8 as 4 and 5
    p = np.array([0.12, -0.05, 0.08])
    rng = np.random.default_rng(6)
    v = rng.normal(size=(3, 3, 3)) * 0.15
    w = rng.normal(size=(3, 3, 3, 2))
    t_nodes = np.sort(rng.uniform(0.3, 1.2, size=(9, 2)), axis=1)
    sizes = []
    rk4 = charts._rk4

    def recorded(chart, y, *args):
        sizes.append(y[0].shape[-1])
        return rk4(chart, y, *args)

    monkeypatch.setattr(charts, "_rk4", recorded)
    for chart in (
        builtin_chart("conformal_bump", eps=-0.1, s=0.5),
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("product", factors=[(2, 1.0), (1, math.inf)]),
        builtin_chart("euclidean", dim=3),
    ):
        if chart.exp_closed(p, v) is not None:
            closed = chart.dexp_closed

            def block(p, vv, ww, closed=closed):
                sizes.append(vv.shape[1])
                return closed(p, vv, ww)

            monkeypatch.setattr(chart, "dexp_closed", block)

        def run(chart=chart):
            return exp_map(chart, p, v, steps=20, directions=w), _exp_rays(
                chart, p, v.reshape(9, 3).T, t_nodes, [5, 5], directions=w.reshape(9, 3, 2).transpose(1, 2, 0)
            )

        monkeypatch.setattr(charts, "RAY_BLOCK", 4096)
        whole = run()
        for block_size in (8, 4):
            monkeypatch.setattr(charts, "RAY_BLOCK", block_size)
            sizes.clear()
            (ends, push), (points, pushed) = run()
            assert np.array_equal(ends, whole[0][0]) and np.array_equal(push, whole[0][1]), chart.name
            assert np.array_equal(points, whole[1][0]) and np.array_equal(pushed, whole[1][1]), chart.name
            assert sizes == ([4, 5] * 2 if block_size == 8 else [3, 3, 3] * 2), chart.name


def test_exp_map_directions_push_forward_by_the_differential():
    # exp_map(..., directions=W) returns the endpoints and dExp_p(v) W: on
    # closed-form charts the RK4 Jacobi fields match the closed form's
    # differential (dexp_closed of the identity) contracted with W, and on
    # the bump central differences of exp_map along W
    p = np.array([0.15, -0.1, 0.2])
    rng = np.random.default_rng(8)
    v = rng.normal(size=(2, 5, 3)) * 0.1
    w = rng.normal(size=(2, 5, 3, 2))
    for chart in (
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("euclidean", dim=3),
        builtin_chart("product", factors=[(2, 1.0), (1, math.inf)]),
    ):
        points, push = exp_map(chart, p, v, directions=w)
        assert points.shape == (2, 5, 3) and push.shape == (2, 5, 3, 2)
        # the points are those of the call without directions, bit for bit
        assert np.array_equal(points, exp_map(chart, p, v)), chart.name
        _, dexp = chart.dexp_closed(p, np.moveaxis(v, -1, 0), np.eye(3)[:, :, None, None])
        closed = np.einsum("ij...,...jc->...ic", dexp, w)
        assert np.abs(push - closed).max() <= 1e-14, chart.name
        points_r, push_r = exp_map(chart, p, v, steps=100, force_rk4=True, directions=w)
        assert np.abs(points_r - points).max() <= 1e-10, chart.name
        assert np.abs(push_r - closed).max() <= 1e-10, chart.name
    bump = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    points, push = exp_map(bump, p, v, steps=50, directions=w)
    assert np.array_equal(points, exp_map(bump, p, v, steps=50))
    h = 1e-3
    for c in range(2):
        def at(k):
            return exp_map(bump, p, v + k * h * w[..., c], steps=50)

        fd = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)
        assert np.abs(push[..., c] - fd).max() <= 1e-9


def _textbook_rk4(deriv, y, t_nodes, substeps):
    """Out-of-place RK4 of the textbook, node by node from t = 0."""
    out = []
    t_prev = 0.0
    for t, count in zip(t_nodes, substeps):
        h = (t - t_prev) / count
        for _ in range(count):
            k1 = deriv(y)
            k2 = deriv(tuple(c + 0.5 * h * k for c, k in zip(y, k1)))
            k3 = deriv(tuple(c + 0.5 * h * k for c, k in zip(y, k2)))
            k4 = deriv(tuple(c + h * k for c, k in zip(y, k3)))
            y = tuple(
                c + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                for c, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
            )
        out.append(y)
        t_prev = t
    return out


def test_in_place_rk4_is_the_textbook_rk4_bit_for_bit():
    # the in-place stages of _rk4 give the bits of the out-of-place formula
    # over geodesic_acc_jacobi, for exp_map without directions (no Jacobi
    # columns) and for _exp_rays with them, and leave the caller's v, u and
    # W as they were
    bump = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    p = np.array([0.12, -0.05, 0.08])
    rng = np.random.default_rng(13)
    v = rng.normal(size=(40, 3)) * 0.15
    w = rng.normal(size=(3, 2, 40))
    v_before, w_before = v.copy(), w.copy()
    x0 = np.broadcast_to(p[:, None], (3, 40)).copy()

    none = np.zeros((3, 0, 40))
    (ref,) = _textbook_rk4(
        lambda y: (y[1], bump.geodesic_acc_jacobi(*y, none, none)[0]), (x0, v.T.copy()), [1.0], [30]
    )
    assert np.array_equal(exp_map(bump, p, v, steps=30, force_rk4=True), ref[0].T)

    def jacobi(y):
        x, u, jac, jac_dot = y
        acc, var = bump.geodesic_acc_jacobi(x, u, jac, jac_dot)
        return u, acc, jac_dot, var

    t_nodes, substeps = [0.4, 1.0, 1.3], [8, 12, 5]
    refs = _textbook_rk4(jacobi, (x0, v.T.copy(), np.zeros_like(w), w.copy()), t_nodes, substeps)
    points, pushed = _exp_rays(bump, p, v.T, np.array(t_nodes), substeps, directions=w)
    assert points.shape == (3, 40, 3) and pushed.shape == (3, 2, 40, 3)
    for j, (x, _, jac, _) in enumerate(refs):
        assert np.array_equal(points[..., j], x)
        assert np.array_equal(pushed[..., j], jac / t_nodes[j])
    # exp_map with directions is the one-node case
    points, push = exp_map(bump, p, v, steps=30, force_rk4=True, directions=np.moveaxis(w, -1, 0))
    (ref,) = _textbook_rk4(jacobi, (x0, v.T.copy(), np.zeros_like(w), w.copy()), [1.0], [30])
    assert np.array_equal(points, ref[0].T) and np.array_equal(push, np.moveaxis(ref[2], -1, 0))
    assert np.array_equal(v, v_before) and np.array_equal(w, w_before)


def test_exp_map_rk4_order():
    # halving the step count scales the error by about 2^4
    bp = builtin_chart("conformal_bump", eps=-0.2, s=0.5)
    p = np.array([0.1, 0.0, -0.1])
    v = np.array([[0.4, -0.3, 0.5]])
    ref = exp_map(bp, p, v, steps=400)
    e1 = np.abs(exp_map(bp, p, v, steps=25) - ref).max()
    e2 = np.abs(exp_map(bp, p, v, steps=50) - ref).max()
    order = math.log2(e1 / e2)
    assert order >= 3.5


def test_exp_map_small_step_linearization():
    sp = builtin_chart("round_sphere", a=1.0)
    p = np.array([0.1, 0.05, -0.1])
    fr = orthonormal_frame(sp, p, np.array([0.0, 0.0, 1.0]))
    v_frame = np.array([0.3, -0.7, 0.2])
    v = v_frame @ fr.matrix.T
    errs = []
    ts = [0.1, 0.05, 0.025]
    for t in ts:
        q = exp_map(sp, p, (t * v)[None])[0]
        errs.append(np.linalg.norm(q - (p + t * v)))
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_normal_metric_expansion_fourth_order_sphere():
    sp = builtin_chart("round_sphere", a=1.0)
    p = np.array([0.1, -0.2, 0.05])
    cv = curvature_at(sp, p, np.array([0.0, 0.0, 1.0]))
    fr = cv.frame

    def pullback(tv):
        # the normal-coordinate metric from the exact differential dExp E
        q, jac = exp_map(sp, fr.base, tv @ fr.matrix.T, directions=fr.matrix)
        return jac.T @ sp.metric(q) @ jac

    xi = np.array([0.4, -0.5, 0.77])
    xi /= np.linalg.norm(xi)
    ts = [0.2, 0.1, 0.05, 0.025]
    errs = [np.abs(pullback(t * xi) - normal_metric_expansion(cv, t * xi)).max() for t in ts]
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert slope >= 3.7
    assert np.allclose(normal_metric_expansion(cv, np.zeros(3)), np.eye(3))


def test_normal_metric_expansion_cubic_term_on_bump():
    # with nabla Rm nonzero, dropping the cubic term costs one order
    bp = builtin_chart("conformal_bump", eps=-0.2, s=0.5)
    p = np.array([0.12, -0.05, 0.08])
    cv = curvature_at(bp, p, np.array([0.25, -0.4, 0.88]), nabla=True)
    cv_quad = curvature_at(bp, p, np.array([0.25, -0.4, 0.88]), nabla=False)
    fr = cv.frame

    def pullback(tv):
        # the normal-coordinate metric from the exact differential dExp E
        q, jac = exp_map(bp, fr.base, tv @ fr.matrix.T, steps=100, directions=fr.matrix)
        return jac.T @ bp.metric(q) @ jac

    xi = np.array([0.3, -0.6, 0.74])
    xi /= np.linalg.norm(xi)
    ts = [0.2, 0.1, 0.05]
    errs_full = [np.abs(pullback(t * xi) - normal_metric_expansion(cv, t * xi)).max() for t in ts]
    errs_quad = [np.abs(pullback(t * xi) - normal_metric_expansion(cv_quad, t * xi)).max() for t in ts]
    slope_full = np.polyfit(np.log(ts), np.log(errs_full), 1)[0]
    slope_quad = np.polyfit(np.log(ts), np.log(errs_quad), 1)[0]
    assert slope_full >= 3.6
    assert slope_quad <= 3.3


def test_bump_scalar_curvature_formula():
    bp = builtin_chart("conformal_bump", eps=0.1, s=0.5)
    for x in (np.zeros(3), np.array([0.2, -0.1, 0.15])):
        assert scalar_curvature(bp, x) == pytest.approx(
            float(exact_models.bump_scalar_curvature(bp, x)), abs=1e-5
        )
    # center value from the closed conformal identity
    n = 3
    eps, s = 0.1, 0.5
    center = 4.0 * n * (n - 1) * (-eps) * math.exp(-2.0 * eps) / s**2
    assert exact_models.bump_scalar_curvature(bp, np.zeros(3)) == pytest.approx(-center, rel=1e-12)


def test_scalar_gradient_and_hessian():
    sp = builtin_chart("round_sphere", a=1.0)
    assert np.abs(scalar_gradient(sp, np.array([0.2, 0.1, -0.1]))).max() <= 1e-7
    bp = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    g = scalar_gradient(bp, np.zeros(3))
    assert np.abs(g).max() <= 1e-6  # bump center is critical
    h = scalar_hessian(bp, np.zeros(3))
    assert np.abs(h - h.T).max() == 0.0
    assert np.abs(np.diag(h) - h[0, 0]).max() <= 1e-4 * abs(h[0, 0])  # isotropy
    with pytest.raises(DomainExit):
        scalar_gradient(bp, bp.domain.hi)


def test_product_chart_block_structure():
    pr = builtin_chart("product", factors=[(2, 2.0), (1, math.inf)])
    p = np.array([0.1, 0.2, 0.3])
    ric = ricci(pr, p)
    g = pr.metric(p)
    eigs = np.sort(np.linalg.eigvalsh(np.linalg.solve(g, ric)))
    assert np.abs(eigs - np.array([0.0, 0.25, 0.25])).max() <= 1e-9
    assert scalar_curvature(pr, p) == pytest.approx(0.5, abs=1e-9)


def test_nabla_riemann_bianchi_consistency():
    # second Bianchi contracted: the computation stays finite and small
    # on the sphere where nabla Rm vanishes identically
    sp = builtin_chart("round_sphere", a=2.0)
    nr = nabla_riemann(sp, np.array([0.3, -0.2, 0.4]))
    assert np.abs(nr).max() <= 1e-6


def test_christoffel_matches_conformal_identity():
    # Christoffels by polarization of the Jacobi hook against the metric:
    # against the metric derivative stack (finite differences on the bump)
    # on every family, beyond n = 3 too, and on the conformal charts against
    # the identity Gamma^k_ij = delta_ik f_j + delta_jk f_i - delta_ij f_k
    # for g = e^(2f) delta; symmetric in i, j exactly, and -Gamma(v, v) is
    # the hook's acceleration
    from doublebubble.charts import _christoffel_from_stack, metric_d1

    rng = np.random.default_rng(8)
    for chart in (
        builtin_chart("conformal_bump", eps=0.2, s=0.7),
        builtin_chart("euclidean", dim=3),
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("round_sphere", a=1.0, dim=4),
        builtin_chart("product", factors=[(2, 2.0), (1, math.inf)]),
        builtin_chart("product", factors=[(3, 1.0), (1, math.inf)]),
    ):
        n = chart.dim
        x = np.array([0.2, -0.3, 0.1, 0.15])[:n]
        v = rng.normal(size=(5, n))
        gamma = christoffel(chart, x)
        assert gamma.shape == (n, n, n) and np.array_equal(gamma, np.swapaxes(gamma, -1, -2)), chart.name
        gamma_fd = _christoffel_from_stack(chart.metric(x), metric_d1(chart, x))
        assert np.abs(gamma - gamma_fd).max() <= 1e-9, chart.name
        if isinstance(chart, (charts.RoundSphereChart, charts.ConformalBumpChart)):
            df = chart._grad_f(x[:, None])[0][:, 0]
            eye = np.eye(n)
            ref = eye[:, :, None] * df[None, None, :] + eye[:, None, :] * df[None, :, None]
            ref -= eye[None] * df[:, None, None]
            assert np.abs(gamma - ref).max() <= 1e-15 * np.abs(ref).max(), chart.name
        xs = np.broadcast_to(x, v.shape)
        acc = -np.einsum("...aij,...i,...j->...a", christoffel(chart, xs), v, v)
        # the Jacobi hook is component-major: (n, batch) in and out
        none = np.zeros((n, 0, len(v)))
        acc_hook = chart.geodesic_acc_jacobi(xs.T, v.T, none, none)[0].T
        assert np.abs(acc_hook - acc).max() <= 1e-14, chart.name


def test_charts_evaluate_each_kernel_once(monkeypatch):
    seen = {"closed": [], "riemann": [], "curvature_at": []}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            seen[key].append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(charts.RoundSphereChart, "exp_closed", "closed")
    counting(charts.RoundSphereChart, "dexp_closed", "closed")
    counting(charts, "riemann", "riemann")
    counting(locate, "curvature_at", "curvature_at")
    # one closed-form call gives a ray's points and differentials
    sp = builtin_chart("round_sphere", a=1.0)
    u = np.random.default_rng(4).normal(size=(5, 3)) * 0.1
    _exp_rays(sp, np.array([0.1, 0.0, -0.2]), u.T, np.array([[0.5, 1.0]] * 5), [1, 1])
    assert len(seen["closed"]) == 1
    # one Riemann tensor per curvature evaluation
    bp = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    cv = curvature_at(bp, np.array([0.1, -0.2, 0.05]), np.array([0.0, 0.0, 1.0]), nabla=False)
    assert len(seen["riemann"]) == 1
    # predict_full reads frame and Sc from the Ricci eigendecomposition's curvature
    preds, points = locate.predict_full(bp, [np.array([0.02, 0.01, -0.01])], 0.05, BubbleParams(2, 1.0, 3.0, 2.0))
    nondegenerate = sum(cp.nondegenerate for cp in points)
    assert nondegenerate == 1 and len(preds) == 1
    assert len(seen["curvature_at"]) == nondegenerate
    # two Riemann tensors at the converged point: one Sc, shared by the final
    # Hessian and the point's sc, and the Ricci eigendecomposition's
    assert sum(np.array_equal(args[1], points[0].coords) for args in seen["riemann"]) == 2
