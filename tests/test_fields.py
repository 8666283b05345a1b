import math

import numpy as np
import pytest

from doublebubble.fields import (
    admissible_closure,
    admissibility_bound,
    check_admissible,
    conormal_derivative,
    coupling_constants,
    first_order_area_corrections,
    first_order_volume_corrections,
    jacobi_apply,
    junction_residual,
    killing_basis,
    killing_kernel_field,
    linearized_equiangularity_residual,
    neck_angle_grid,
    perturbed_mean_curvature,
    random_admissible_field,
    random_smooth_field,
    sheet_grid,
    _neck_z,
    angles_to_dirs,
)
from doublebubble.fields import flat_point_z
from doublebubble.geometry import BubbleParams, flat_metric, sample_sheet, sheet_area, solve_standard_bubble

SYM = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
ASYM = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
SQ3 = math.sqrt(3.0)


@pytest.mark.parametrize("m", [2, 3])
def test_flat_metric_matches_finite_differences(m):
    # the closed-form metric and Christoffels of caps and of the symmetric
    # disk against 4th-order differences of the parametrization itself
    step = 1e-3

    def d4(fun, z, i):
        e = np.zeros(m)
        e[i] = step
        return (8.0 * (fun(z + e) - fun(z - e)) - (fun(z + 2 * e) - fun(z - 2 * e))) / (12.0 * step)

    for h in ((0.0, 3.0, 3.0), (1.0, 3.0, 2.0)):
        b = solve_standard_bubble(BubbleParams(m, *h))
        for s in range(3):
            upper = b.polar_limit(s)
            z = np.array([[0.3 * upper, 0.7, 2.1], [0.8 * upper, 2.0, 4.4]])[:, :m]

            def metric(zz, s=s):
                t = np.stack([d4(lambda y: flat_point_z(b, s, y), zz, i) for i in range(m)], axis=-2)
                return np.einsum("...ik,...jk->...ij", t, t)

            g_fd = metric(z)
            dg = np.stack([d4(metric, z, k) for k in range(m)], axis=-3)  # [..., k, i, j]
            bracket = np.einsum("...ijk->...kij", dg) + np.einsum("...jik->...kij", dg) - dg
            gamma_fd = 0.5 * np.einsum("...ak,...kij->...aij", np.linalg.inv(g_fd), bracket)
            g, gamma = flat_metric(b, s, z)
            assert np.abs(g - g_fd).max() <= 1e-10 * np.abs(g).max()
            assert np.abs(gamma - gamma_fd).max() <= 1e-8


def test_coupling_constants_values():
    c = coupling_constants(BubbleParams(2, 0.0, 3.0, 3.0))
    h = 3.0
    assert (c.q0, c.q1, c.q2) == pytest.approx((2 * h / SQ3, -h / SQ3, -h / SQ3))
    c = coupling_constants(BubbleParams(2, 1.0, 3.0, 2.0))
    assert (c.q0, c.q1, c.q2) == pytest.approx((5 / SQ3, -1 / SQ3, -4 / SQ3))
    assert c.q0 > 0.0
    # the Robin normalization divides by m
    assert c.robin == pytest.approx((c.q0 / 2, c.q1 / 2, c.q2 / 2))


def test_admissible_closure_relations():
    th = np.linspace(0.0, 2 * math.pi, 9)[:-1]
    w0 = np.ones_like(th)
    w2 = np.zeros_like(th)
    cl = admissible_closure(w0, w2)
    assert np.allclose(cl["w1"], 1.0)
    assert np.allclose(cl["u0"], 1 / SQ3)
    assert np.allclose(cl["u1"], 1 / SQ3)
    assert np.allclose(cl["u2"], -2 / SQ3)
    for b in (SYM, ASYM):
        assert junction_residual(b, cl) <= 1e-14
    rng = np.random.default_rng(0)
    cl = admissible_closure(rng.normal(size=8), rng.normal(size=8))
    for b in (SYM, ASYM):
        assert junction_residual(b, cl) <= 1e-12
    with pytest.raises(ValueError):
        admissible_closure(np.ones(4), np.ones(5))


def test_killing_fields_pass_all_residuals():
    for b in (SYM, ASYM):
        coup = coupling_constants(b.params)
        fields = killing_basis(b)
        assert len(fields) == 2 * b.m + 1
        for f in fields:
            worst_jacobi = 0.0
            for s in range(3):
                g = sheet_grid(b, s, 64, 128)
                pol, dirs = g.mesh()
                worst_jacobi = max(worst_jacobi, float(np.abs(jacobi_apply(g, f.w(s, pol, dirs))).max()))
            assert worst_jacobi <= 1e-6
            ang = neck_angle_grid(2, 64)
            traces = []
            for s in range(3):
                z = _neck_z(b, s, ang)
                traces.append(f.w(s, z[:, 0], angles_to_dirs(2, z[:, 1:])))
            assert np.abs(traces[1] - traces[0] - traces[2]).max() <= 1e-6
            e0, e2 = linearized_equiangularity_residual(b, f, coup)
            assert max(np.abs(e0).max(), np.abs(e2).max()) <= 1e-6


def test_killing_fields_linearly_independent():
    for b in (SYM, ASYM):
        fields = killing_basis(b)
        gram = np.zeros((5, 5))
        for s in range(3):
            ss = sample_sheet(b, s, (24, 48))
            vals = np.stack([f.w(s, ss.polar, ss.dirs) for f in fields])
            gram += np.einsum("aq,bq,q->ab", vals, vals, ss.weights)
        assert np.linalg.matrix_rank(gram) == 5
        assert np.linalg.cond(gram) < 1e6


def test_axis_fixing_rotation_is_trivial():
    f = killing_kernel_field(SYM, ("rotation_fixing_axis", None))
    pol = np.array([0.3, 0.8])
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    for s in range(3):
        assert np.abs(f.w(s, pol, dirs)).max() == 0.0


def test_random_fields_fail_residuals():
    rng = np.random.default_rng(123)
    for b in (SYM, ASYM):
        coup = coupling_constants(b.params)
        for _ in range(20):
            f = random_smooth_field(b, rng)
            res = 0.0
            for s in range(3):
                g = sheet_grid(b, s, 32, 64)
                pol, dirs = g.mesh()
                res = max(res, float(np.abs(jacobi_apply(g, f.w(s, pol, dirs))).max()))
            e0, e2 = linearized_equiangularity_residual(b, f, coup)
            res = max(res, float(np.abs(e0).max()), float(np.abs(e2).max()))
            assert res >= 1e-2


def test_jacobi_grid_operator_spot_values():
    # w = cos(polar) on a cap solves R lap w + (m/R) w = 0 exactly
    b = SYM
    g = sheet_grid(b, 1, 64, 128)
    pol, dirs = g.mesh()
    w = np.cos(pol)
    assert np.abs(jacobi_apply(g, w)).max() <= 1e-7
    # disk: harmonics of the flat laplacian
    g0 = sheet_grid(b, 0, 64, 128)
    pol0, dirs0 = g0.mesh()
    w0 = pol0 * dirs0[..., 0]  # the linear function x
    assert np.abs(jacobi_apply(g0, w0)).max() <= 1e-7
    w_rand = np.sin(3 * pol0)
    assert np.abs(jacobi_apply(g0, w_rand)).max() > 1e-2


def test_random_admissible_field_junction_and_bound():
    rng = np.random.default_rng(5)
    for b in (SYM, ASYM):
        f = random_admissible_field(b, rng, amplitude=0.05)
        check_admissible(f)
        # displacement agreement at the neck across sheets
        th = np.linspace(0, 2 * math.pi, 13)[:-1]
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        disp = []
        from doublebubble.geometry import sheet_normal, sheet_point

        for s in range(3):
            pol = np.full(len(th), b.polar_limit(s))
            n = sheet_normal(b, s, pol, dirs)
            x = sheet_point(b, s, pol, dirs)
            if n.shape != x.shape:
                n = np.broadcast_to(n, x.shape)
            disp.append(f.w(s, pol, dirs)[:, None] * n + f.y(s, pol, dirs))
        assert np.abs(disp[1] - disp[0]).max() <= 1e-13
        assert np.abs(disp[1] - disp[2]).max() <= 1e-13
    big = random_admissible_field(ASYM, rng, amplitude=50.0)
    with pytest.raises(ValueError):
        check_admissible(big)


def test_admissibility_bound_value():
    assert admissibility_bound(ASYM) == pytest.approx(0.1 * (2.0 / 3.0))


def test_first_order_area_exact_sphere_family():
    # constant w on one cap shifts its area by -m eps |S| / R at first order
    b = ASYM
    from doublebubble.fields import PerturbationField

    f = PerturbationField(b, (None, lambda pol, dirs: np.ones(np.shape(pol)), None))
    corr = first_order_area_corrections(b, f)
    expected = -2.0 * b.sheet_areas[1] / b.radii[1]
    assert corr[1] == pytest.approx(expected, rel=1e-10)
    assert corr[0] == corr[2] == 0.0


def test_first_order_volume_signs_and_sum_rule():
    b = ASYM
    from doublebubble.fields import PerturbationField

    f0 = PerturbationField(b, (lambda pol, dirs: np.ones(np.shape(pol)), None, None))
    dv1, dv2 = first_order_volume_corrections(b, f0)
    # interface moves into B1: V1 shrinks, V2 grows, total conserved
    assert dv1 == pytest.approx(-b.sheet_areas[0], rel=1e-10)
    assert dv2 == pytest.approx(+b.sheet_areas[0], rel=1e-10)
    assert dv1 + dv2 == pytest.approx(0.0, abs=1e-12)
    f1 = PerturbationField(b, (None, lambda pol, dirs: np.ones(np.shape(pol)), None))
    dv1, dv2 = first_order_volume_corrections(b, f1)
    assert dv1 == pytest.approx(-b.sheet_areas[1], rel=1e-10)
    assert dv2 == 0.0


def test_divergence_free_tangential_field_keeps_area():
    # a rotational field around the axis is divergence free and tangent
    b = SYM
    from doublebubble.fields import PerturbationField, sheet_unit_tangents

    def make_y(sheet):
        def y(pol, dirs):
            _, e_th = sheet_unit_tangents(b, sheet, pol, dirs)
            u = np.asarray(pol) / b.polar_limit(sheet)
            return (u**2)[..., None] * e_th

        return y

    f = PerturbationField(b, (None, None, None), tuple(make_y(s) for s in range(3)))
    corr = first_order_area_corrections(b, f)
    assert np.abs(corr).max() <= 1e-10


def test_perturbed_mean_curvature_flat_values():
    from doublebubble.charts import builtin_chart, curvature_at

    eu = builtin_chart("euclidean", dim=3)
    cv = curvature_at(eu, np.zeros(3), np.array([0, 0, 1.0]), nabla=False)
    z = np.array([[0.7, 1.3]])
    for b in (SYM, ASYM):
        for s in range(3):
            val = perturbed_mean_curvature(b, s, cv, 0.1, z)
            if s == 0 and b.symmetric:
                assert val[0] == pytest.approx(0.0, abs=1e-12)
            else:
                assert val[0] == pytest.approx(2.0, abs=1e-10)


def test_perturbed_mean_curvature_concentric_shift():
    # constant w = eps on a flat cap: the exact sphere family gives
    # rho R H = m R / (R - eps) = m + m eps / R + O(eps^2)
    from doublebubble.charts import builtin_chart, curvature_at

    eu = builtin_chart("euclidean", dim=3)
    cv = curvature_at(eu, np.zeros(3), np.array([0, 0, 1.0]), nabla=False)
    from doublebubble.fields import PerturbationField

    b = ASYM
    errs = []
    for eps in (1e-2, 1e-3):
        f = PerturbationField(b, (None, lambda pol, dirs: np.full(np.shape(pol), 1.0), None)).scaled(eps)
        val = perturbed_mean_curvature(b, 1, cv, 0.1, np.array([[0.8, 0.4]]), f)[0]
        exact = 2.0 * b.radii[1] / (b.radii[1] - eps)
        errs.append(abs(val - exact))
    # formula is first order in the field: error drops quadratically
    assert errs[1] <= errs[0] * 1e-2 * 1.5
    assert errs[0] <= 5e-4


def test_conormal_derivative_sign():
    # w increasing toward the neck has negative inward derivative
    b = SYM
    from doublebubble.fields import PerturbationField

    f = PerturbationField(b, tuple(lambda pol, dirs: np.asarray(pol) ** 2 for _ in range(3)))
    ang = neck_angle_grid(2, 8)
    d1 = conormal_derivative(b, 1, f, ang)
    assert np.all(d1 < 0.0)
    assert d1[0] == pytest.approx(-2.0 * b.phi[1] / b.radii[1], rel=1e-8)
