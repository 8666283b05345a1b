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
    _stencil,
    builtin_chart,
    christoffel,
    curvature_at,
    exp_map,
    exp_rays,
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
    with pytest.raises(DomainExit) as err:
        exp_map(eu, p, np.array([[20.0, 0.0, 0.0]]), force_rk4=True)
    assert err.value.exit_fraction is not None and 0.0 < err.value.exit_fraction <= 1.0


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
    for chart in (
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("euclidean", dim=3),
        builtin_chart("product", factors=[(2, 1.0), (1, math.inf)]),
    ):
        pts_c, dexp_c = exp_rays(chart, p, u, t_nodes, [50] * 4)
        pts_r, dexp_r = exp_rays(chart, p, u, t_nodes, [50] * 4, force_rk4=True)
        # one closed form: the rays' points are exp_map's, bit for bit
        assert np.array_equal(pts_c, exp_map(chart, p, t_nodes[..., None] * u[:, None]))
        assert np.abs(pts_r - pts_c).max() <= 1e-10, chart.name
        assert np.abs(dexp_r - dexp_c).max() <= 1e-10, chart.name


def test_acc_jacobi_hook_matches_directional_differences():
    # A_x J + A_v J' of every family (the analytic forms, and the product's
    # from its factors) against 4th-order differences of the component-major
    # geodesic_acc along each column (J_c, J'_c); also MetricChart's
    # finite-difference default on the bump
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.6, 0.6, size=(3, 8))
    v = rng.normal(size=(3, 8))
    jac = rng.normal(size=(3, 4, 8))
    jac_dot = rng.normal(size=(3, 4, 8))
    h = 1e-3
    bump = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    for chart in (
        builtin_chart("euclidean", dim=3),
        builtin_chart("round_sphere", a=1.0),
        bump,
        builtin_chart("product", factors=[(2, 1.0), (1, math.inf)]),
    ):
        acc, var = chart.geodesic_acc_jacobi(x, v, jac, jac_dot)
        assert acc.shape == (3, 8) and var.shape == (3, 4, 8)
        assert np.array_equal(acc, chart.geodesic_acc(x, v)), chart.name

        def along(c):
            return chart.geodesic_acc(x[:, None] + c * h * jac, v[:, None] + c * h * jac_dot)

        fd = (8.0 * (along(1) - along(-1)) - (along(2) - along(-2))) / (12.0 * h)
        assert np.abs(var - fd).max() <= 1e-7, chart.name
    acc, var = MetricChart.geodesic_acc_jacobi(bump, x, v, jac, jac_dot)
    assert np.array_equal(acc, bump.geodesic_acc(x, v))
    assert np.abs(var - bump.geodesic_acc_jacobi(x, v, jac, jac_dot)[1]).max() <= 1e-7


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
    for n in range(1, 5):
        a = rng.normal(size=(200, n, n)) + 3.0 * np.eye(n)  # well conditioned
        ref = np.linalg.det(a)
        assert np.all(np.abs(_det(a) - ref) <= 1e-13 * np.abs(ref))
        assert np.abs(_det(a[0]) - ref[0]) <= 1e-13 * abs(ref[0])
    # the closed-form exp-map differentials behind the chamber volumes
    sp = builtin_chart("round_sphere", a=1.0)
    _, dexp = sp.dexp_closed(np.array([0.15, -0.1, 0.2]), rng.normal(size=(50, 4, 3)) * 0.5)
    ref = np.linalg.det(dexp)
    assert np.all(np.abs(_det(dexp) - ref) <= 1e-13 * np.abs(ref))
    # the empty matrices of the round metric of S^0 (m = 1)
    assert np.array_equal(_det(np.zeros((5, 0, 0))), np.ones(5))


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

    for neck in (False, True):
        f, d1 = _stencil(quartic, x, h, neck=neck)
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
    _, d1, d2 = _stencil(cubic, x, h, order=2)
    assert d1.shape == (4, 5, 3) and d2.shape == (4, 5, 3, 3)
    assert np.abs(d2 - hess).max() <= 1e-8
    with pytest.raises(ValueError):
        _stencil(cubic, x, h, order=2, neck=True)


def test_exp_rays_domain_exit():
    u = np.array([[1.0, 0.0, 0.0], [0.0, 0.3, 0.0]])
    t_nodes = np.array([[0.5, 1.0, 2.5], [0.5, 1.0, 2.5]])
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        with pytest.raises(DomainExit) as err:
            exp_rays(chart, np.zeros(3), u, t_nodes, [10, 10, 10])
        assert 0.0 < err.value.exit_fraction <= 1.0


def test_exp_rays_rejects_bad_nodes():
    u = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    good = np.array([[0.5, 1.0], [0.4, 0.9]])
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        exp_rays(chart, np.zeros(3), u, good, [5, 5])
        for t_nodes, substeps in (
            (np.array([[0.0, 1.0], [0.4, 0.9]]), [5, 5]),  # a zero node
            (np.array([[-0.5, 1.0], [0.4, 0.9]]), [5, 5]),  # a negative node
            (np.array([[0.5, 1.0], [0.9, 0.4]]), [5, 5]),  # decreasing
            (np.array([[0.5, 0.5], [0.4, 0.9]]), [5, 5]),  # repeated
            (good, [5]),  # one substep count for two nodes
            (good, [5, 5, 5]),
        ):
            for force_rk4 in (False, True):
                with pytest.raises(ValueError):
                    exp_rays(chart, np.zeros(3), u, t_nodes, substeps, force_rk4=force_rk4)


def test_geodesics_couple_no_rays():
    # each geodesic depends on its own ray alone: the whole batch, its two
    # halves and the batch with an extra axis give the same bits
    rng = np.random.default_rng(11)
    p = np.array([0.12, -0.05, 0.08])
    u = rng.normal(size=(12, 3)) * 0.2
    t_nodes = np.sort(rng.uniform(0.2, 1.0, size=(12, 3)), axis=1)
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        ends = exp_map(chart, p, u, steps=20)
        halves = [exp_map(chart, p, u[:6], steps=20), exp_map(chart, p, u[6:], steps=20)]
        assert np.array_equal(np.concatenate(halves), ends), chart.name
        assert np.array_equal(exp_map(chart, p, u.reshape(3, 4, 3), steps=20).reshape(12, 3), ends), chart.name
        rays = exp_rays(chart, p, u, t_nodes, [4, 4, 4])
        first = exp_rays(chart, p, u[:6], t_nodes[:6], [4, 4, 4])
        second = exp_rays(chart, p, u[6:], t_nodes[6:], [4, 4, 4])
        stacked = exp_rays(chart, p, u.reshape(3, 4, 3), t_nodes.reshape(3, 4, 3), [4, 4, 4])
        for whole, a, b, c in zip(rays, first, second, stacked):
            assert np.array_equal(np.concatenate([a, b]), whole), chart.name
            assert np.array_equal(c.reshape(whole.shape), whole), chart.name


def test_rk4_exp_map_is_exp_rays_at_one_node():
    # one integrator: exp_map's RK4 is exp_rays' without the Jacobi fields,
    # stepped to the single node t = 1
    p = np.array([0.12, -0.05, 0.08])
    v = np.random.default_rng(5).normal(size=(64, 3)) * 0.15
    for chart in (builtin_chart("conformal_bump", eps=-0.1, s=0.5), builtin_chart("round_sphere", a=1.0)):
        ends = exp_map(chart, p, v, steps=50, force_rk4=True)
        points, _ = exp_rays(chart, p, v, np.ones((len(v), 1)), [50], force_rk4=True)
        assert np.array_equal(ends, points[:, 0]), chart.name
    bump = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    with pytest.raises(DomainExit) as err:
        exp_map(bump, p, np.array([[0.2, 0.0, 0.0], [3.0, 0.0, 0.0]]), steps=20, force_rk4=True)
    assert 0.0 < err.value.exit_fraction <= 1.0


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
        h = 1e-4 * max(np.linalg.norm(tv), 0.05)
        jac = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            vals = [exp_map(sp, fr.base, ((tv + c * e) @ fr.matrix.T)[None])[0] for c in (-2, -1, 1, 2)]
            jac[:, k] = (8.0 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12.0 * h)
        q = exp_map(sp, fr.base, (tv @ fr.matrix.T)[None])[0]
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
        h = 1e-4 * max(np.linalg.norm(tv), 0.05)
        jac = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            vals = [
                exp_map(bp, fr.base, ((tv + c * e) @ fr.matrix.T)[None], steps=100)[0]
                for c in (-2, -1, 1, 2)
            ]
            jac[:, k] = (8.0 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12.0 * h)
        q = exp_map(bp, fr.base, (tv @ fr.matrix.T)[None], steps=100)[0]
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
            float(bp.scalar_curvature_exact(x)), abs=1e-5
        )
    # center value from the closed conformal identity
    n = 3
    eps, s = 0.1, 0.5
    center = 4.0 * n * (n - 1) * (-eps) * math.exp(-2.0 * eps) / s**2
    assert bp.scalar_curvature_exact(np.zeros(3)) == pytest.approx(-center, rel=1e-12)


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
    # the required hooks of every family against the metric: Christoffels
    # from the metric derivative stack (finite differences on the bump), and
    # geodesic_acc(x, v) = -Gamma(v, v)
    from doublebubble.charts import _christoffel_from_stack, metric_d1

    rng = np.random.default_rng(8)
    x = np.array([0.2, -0.3, 0.1])
    v = rng.normal(size=(5, 3))
    for chart in (
        builtin_chart("conformal_bump", eps=0.2, s=0.7),
        builtin_chart("euclidean", dim=3),
        builtin_chart("round_sphere", a=1.0),
        builtin_chart("product", factors=[(2, 2.0), (1, math.inf)]),
    ):
        gamma = christoffel(chart, x)
        gamma_fd = _christoffel_from_stack(chart.metric(x), metric_d1(chart, x))
        assert np.abs(gamma - gamma_fd).max() <= 1e-9, chart.name
        xs = np.broadcast_to(x, v.shape)
        acc = -np.einsum("...aij,...i,...j->...a", christoffel(chart, xs), v, v)
        # geodesic_acc is component-major: (n, batch) in and out
        assert np.abs(chart.geodesic_acc(xs.T, v.T).T - acc).max() <= 1e-14, chart.name


def test_charts_evaluate_each_kernel_once(monkeypatch):
    calls = {"closed": 0, "riemann": 0, "curvature_at": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(charts.RoundSphereChart, "exp_closed", "closed")
    counting(charts.RoundSphereChart, "dexp_closed", "closed")
    counting(charts, "riemann", "riemann")
    counting(locate, "curvature_at", "curvature_at")
    # one closed-form call gives a ray's points and differentials
    sp = builtin_chart("round_sphere", a=1.0)
    u = np.random.default_rng(4).normal(size=(5, 3)) * 0.1
    exp_rays(sp, np.array([0.1, 0.0, -0.2]), u, np.array([[0.5, 1.0]] * 5), [1, 1])
    assert calls["closed"] == 1
    # one Riemann tensor per curvature evaluation
    bp = builtin_chart("conformal_bump", eps=-0.1, s=0.5)
    cv = curvature_at(bp, np.array([0.1, -0.2, 0.05]), np.array([0.0, 0.0, 1.0]), nabla=False)
    assert calls["riemann"] == 1
    # predict_full reads frame and Sc from the Ricci eigendecomposition's curvature
    preds, points = locate.predict_full(bp, [np.array([0.02, 0.01, -0.01])], 0.05, BubbleParams(2, 1.0, 3.0, 2.0))
    nondegenerate = sum(cp.nondegenerate for cp in points)
    assert nondegenerate == 1 and len(preds) == 1
    assert calls["curvature_at"] == nondegenerate
