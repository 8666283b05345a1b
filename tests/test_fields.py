import math
import warnings

import numpy as np
import pytest

from doublebubble.charts import _stencil
from doublebubble.fields import (
    admissible_closure,
    admissibility_bound,
    check_admissible,
    coupling_constants,
    field_jet,
    field_modes,
    first_order_area_corrections,
    first_order_volume_corrections,
    jacobi_block,
    killing_basis,
    laplace_beltrami,
    mean_curvature_terms,
    neck_angle_grid,
    perturbed_mean_curvature,
    random_admissible_field,
    sheet_unit_tangents,
    MODE_ANGLES,
    RESPONSE_GRID,
    PerturbationField,
    SheetPointData,
    displaced_point_z,
    _param_steps,
    _sheet_jet,
)
from doublebubble.geometry import (
    BubbleParams,
    angles_to_dirs,
    flat_metric,
    flat_rule,
    sheet_normal,
    sheet_tangents,
    solve_standard_bubble,
)

from exact_models import junction_residual, random_smooth_field

SYM = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
ASYM = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
SQ3 = math.sqrt(3.0)


def rotational_field(b):
    """The rotation about the axis, faded in from the pole: tangent and
    divergence free on every sheet."""

    def make_y(sheet):
        def y(pol, dirs):
            _, e_th = sheet_unit_tangents(b, sheet, pol, dirs)
            u = np.asarray(pol) / b.polar_limit(sheet)
            return (u**2)[..., None] * e_th

        return y

    return PerturbationField(b, (None, None, None), tuple(make_y(s) for s in range(3)))


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
                t = np.stack([d4(lambda y: displaced_point_z(b, s, y), zz, i) for i in range(m)], axis=-2)
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


def junction_blocks(b, n_polar):
    """jacobi_block for every degree field_modes resolves: (degrees, 3n + 3, 3n)."""
    return np.stack([jacobi_block(b, k, n_polar) for k in range(MODE_ANGLES // 2)])


def test_killing_fields_pass_all_residuals():
    n = 64
    for b in (SYM, ASYM):
        blocks = junction_blocks(b, n)
        fields = killing_basis(b)
        assert len(fields) == 2 * b.m + 1
        for f in fields:
            res = blocks @ field_modes(f, n)
            # Jacobi rows, neck trace w1 - w0 - w2, equiangularity e0 and e2
            assert np.abs(res[:, : 3 * n]).max() <= 1e-6
            assert np.abs(res[:, 3 * n]).max() <= 1e-6
            assert np.abs(res[:, 3 * n + 1 :]).max() <= 1e-6


def test_killing_fields_linearly_independent():
    for b in (SYM, ASYM):
        fields = killing_basis(b)
        gram = np.zeros((5, 5))
        for s in range(3):
            z, dirs, w = flat_rule(b.m, b.polar_limit(s), (24, 48))
            g, _ = flat_metric(b, s, z)
            vals = np.stack([f.w(s, z[:, 0], dirs) for f in fields])
            gram += np.einsum("aq,bq,q->ab", vals, vals, w * np.sqrt(np.linalg.det(g)))
        assert np.linalg.matrix_rank(gram) == 5
        assert np.linalg.cond(gram) < 1e6


def test_random_fields_fail_residuals():
    rng = np.random.default_rng(123)
    for b in (SYM, ASYM):
        blocks = junction_blocks(b, 32)
        for _ in range(20):
            f = random_smooth_field(b, rng)
            assert np.abs(blocks @ field_modes(f, 32)).max() >= 1e-2


def test_jacobi_grid_operator_spot_values():
    # the Jacobi rows of one sheet, at its polar nodes (j + 1/2) upper / n
    n = 64
    b = SYM

    def jacobi_rows(sheet, k, w):
        amps = np.zeros(3 * n)
        amps[sheet * n : (sheet + 1) * n] = w(b.polar_limit(sheet) * (np.arange(n) + 0.5) / n)
        return (jacobi_block(b, k, n) @ amps)[sheet * n : (sheet + 1) * n]

    # w = cos(polar) on a cap solves R lap w + (m/R) w = 0 exactly
    assert np.abs(jacobi_rows(1, 0, np.cos)).max() <= 1e-7
    # disk: the linear function x = y cos(theta), degree 1 with amplitude y
    assert np.abs(jacobi_rows(0, 1, lambda y: y)).max() <= 1e-7
    assert np.abs(jacobi_rows(0, 0, lambda y: np.sin(3 * y))).max() > 1e-2
    # the neck rows need a full Fornberg window; field_modes samples m = 2
    with pytest.raises(ValueError):
        jacobi_block(b, 0, 6)
    with pytest.raises(ValueError):
        jacobi_block(b, -1, n)
    b3 = solve_standard_bubble(BubbleParams(3, 0.0, 3.0, 3.0))
    with pytest.raises(ValueError):
        field_modes(PerturbationField(b3, (None, None, None)), n)


@pytest.mark.parametrize("h", [(2, 0.0, 3.0, 3.0), (2, 1.0, 3.0, 2.0), (3, 0.0, 3.0, 3.0), (3, 1.0, 3.0, 2.0)])
def test_jacobi_block_kernel_is_the_killing_fields(h):
    # nullity 1 (axial translation) at k = 0, 2 (translation and tilt) per
    # degree-1 harmonic, none above: 2m+1 over the harmonics, at m = 2 and 3
    b = solve_standard_bubble(BubbleParams(*h))
    for k, nullity in enumerate((1, 2, 0, 0)):
        sv = np.linalg.svd(jacobi_block(b, k, 64), compute_uv=False)
        assert int(np.sum(sv < 1e-6)) == nullity, k
        assert sv[sv >= 1e-6].min() >= 0.1, k


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
    corr = first_order_area_corrections(SYM, rotational_field(SYM))
    assert np.abs(corr).max() <= 1e-10


def wny_corrections(b, field, grid):
    """The first-order area and volume shifts in the w/N/Y form on the
    flat_rule nodes of grid, the independent reference of the first
    variations: -int (m w/R - div Y) dmu on caps and int div Y dmu on the
    disk, div Y = g^ij <d_i Y, d_j x> with the closed-form flat metric, and
    dV1 = -I1 - I0, dV2 = -I2 + I0 with I_s = int w_s dmu.  Also returns the
    scale sum_s int |d_i D| |d_i x| / g_ii dmu + int |D| dmu that bounds
    the integrands' terms, D = w N + Y."""
    area, ints, scale = np.zeros(3), np.zeros(3), 0.0
    for s in range(3):
        z, _, w = flat_rule(b.m, b.polar_limit(s), grid)
        d = SheetPointData(b, s, z, field)
        dmu = w * np.sqrt(np.linalg.det(d.g))
        div = np.einsum("...ij,...ik,...jk->...", d.ginv, d.dy, d.tangents)
        cap = 0.0 if (s == 0 and b.symmetric) else b.m / b.radii[s]
        area[s] = -np.sum(dmu * (cap * d.w - div))
        ints[s] = np.sum(dmu * d.w)
        _, _, disp, ddisp = _sheet_jet(b, s, z, field)
        lengths = np.sqrt(np.diagonal(d.g, axis1=-2, axis2=-1))
        scale += np.sum(dmu * (np.sum(np.linalg.norm(ddisp, axis=-1) / lengths, axis=-1)
                               + np.linalg.norm(disp, axis=-1)))
    return area, np.array([-ints[1] - ints[0], -ints[2] + ints[0]]), scale


VARIATION_FIELDS = {
    **{f"random{k}": (lambda b, k=k: random_admissible_field(b, np.random.default_rng(k), 0.25)) for k in (0, 1, 3, 5)},
    "killing": lambda b: killing_basis(b)[3],
    "rotational": rotational_field,
}


def assert_first_variations_are_the_wny_form(b, field, grids):
    # the responses are the first variations int div_Sigma D dmu and
    # int <D, N> dmu of the jets (x, d_z x, D, d_z D): on RESPONSE_GRID when
    # called with the field alone, and on the nodes of the jets given (those
    # of a FlatModel), they are the w/N/Y form on the same grid to 1e-15 of
    # the integrands' scale
    for grid in grids:
        area, volume, scale = wny_corrections(b, field, grid)
        jets = None
        if grid != RESPONSE_GRID:
            rules = [flat_rule(b.m, b.polar_limit(s), grid) for s in range(3)]
            jets = [(w, _sheet_jet(b, s, z, field)) for s, (z, _, w) in enumerate(rules)]
        assert np.abs(first_order_area_corrections(b, field, jets) - area).max() <= 1e-15 * scale
        assert np.abs(np.array(first_order_volume_corrections(b, field, jets)) - volume).max() <= 1e-15 * scale


@pytest.mark.parametrize("kind", sorted(VARIATION_FIELDS))
@pytest.mark.parametrize("b", [SYM, ASYM], ids=["sym", "asym"])
def test_first_variations_are_the_wny_form(b, kind):
    assert_first_variations_are_the_wny_form(b, VARIATION_FIELDS[kind](b), (RESPONSE_GRID, (16, 32)))


@pytest.mark.parametrize("params", [(3, 0.0, 3.0, 3.0), (3, 1.0, 3.0, 2.0)], ids=["sym", "asym"])
def test_first_variations_are_the_wny_form_at_m3(params):
    # every Killing field of an m = 3 bubble; the axial translation moves
    # the areas of the caps
    b = solve_standard_bubble(BubbleParams(*params))
    for field in killing_basis(b):
        assert_first_variations_are_the_wny_form(b, field, ((8, 16),))


@pytest.mark.parametrize("b", [SYM, ASYM], ids=["sym", "asym"])
def test_unit_tangents_are_the_normalized_sheet_tangents(b):
    # the closed-form unit rows: unit length, orthogonal to the normal and
    # to each other, and the rows of sheet_tangents divided by their lengths
    for s in range(3):
        z, dirs, _ = flat_rule(2, b.polar_limit(s), (8, 16))
        e_pol, e_th = sheet_unit_tangents(b, s, z[:, 0], dirs)
        rows = sheet_tangents(b, s, z)
        ref = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
        normal = sheet_normal(b, s, z[:, 0], dirs)
        for e, r in ((e_pol, ref[:, 0]), (e_th, ref[:, 1])):
            assert np.abs(np.linalg.norm(e, axis=-1) - 1.0).max() <= 1e-15
            assert np.abs(np.sum(e * normal, axis=-1)).max() <= 1e-15
            assert np.abs(e - r).max() <= 1e-15
        assert np.abs(np.sum(e_pol * e_th, axis=-1)).max() <= 1e-15


JET_FIELDS = {
    "random0": lambda b: random_admissible_field(b, np.random.default_rng(0), 0.25),
    "random1": lambda b: random_admissible_field(b, np.random.default_rng(1), 0.25),
    "random2": lambda b: random_admissible_field(b, np.random.default_rng(2), 0.25),
    "killing": lambda b: killing_basis(b)[3],
    "rotational": rotational_field,
}


@pytest.mark.parametrize("kind", sorted(JET_FIELDS))
@pytest.mark.parametrize("b", [SYM, ASYM], ids=["sym", "asym"])
def test_field_jets_match_stencils(b, kind):
    # the complex-step jets against 4th-order central stencils at the field
    # steps: the flat model's displacement D = w N + Y at the flat nodes and
    # the neck points, and the dw and dy of SheetPointData; the jets' values
    # are a real evaluation's to roundoff
    field = JET_FIELDS[kind](b)
    for s in range(3):
        h = _param_steps(b, s)

        def real(fn, zz, s=s):
            return fn(s, zz[..., 0], angles_to_dirs(2, zz[..., 1:]))

        def displacement(zz, s=s):
            normal = sheet_normal(b, s, zz[..., 0], angles_to_dirs(2, zz[..., 1:]))
            return real(field.w, zz)[..., None] * normal + real(field.y, zz)

        nodes = flat_rule(2, b.polar_limit(s), (8, 16))[0]
        neck = np.column_stack([np.full(32, b.polar_limit(s)), neck_angle_grid(2, 32)])
        for z in (nodes, neck):
            _, _, d, dd = _sheet_jet(b, s, z, field)
            ref, dref, _ = _stencil(displacement, z, h)
            assert np.abs(dd - dref).max() <= 1e-10
            assert np.abs(d - ref).max() <= 1e-15 * np.abs(ref).max()
        data = SheetPointData(b, s, nodes, field)
        for value, deriv, fn in ((data.w, data.dw, field.w), (data.yvec, data.dy, field.y)):
            ref, dref, _ = _stencil(lambda zz: real(fn, zz), nodes, h)
            assert np.abs(deriv - dref).max() <= 1e-10
            assert np.abs(value - ref).max() <= 1e-15 * np.abs(ref).max()
        assert np.array_equal(data.w, real(field.w, nodes))


def test_field_jets_refuse_casts_and_keep_constants():
    # a field that casts its parameters to float would get zero derivatives
    # silently: the jet raises, naming the sheet; a constant field whose
    # callable returns real ones gets exactly zero derivatives
    z = flat_rule(2, ASYM.polar_limit(1), (4, 8))[0]
    cast = PerturbationField(ASYM, (None, lambda pol, dirs: np.asarray(pol, dtype=float), None))
    with pytest.raises(ValueError, match="sheet 1"):
        SheetPointData(ASYM, 1, z, cast).dw
    with pytest.raises(ValueError, match="sheet 1"):
        _sheet_jet(ASYM, 1, z, cast)
    ones = PerturbationField(
        ASYM, (None, lambda pol, dirs: np.ones(np.shape(pol)), None),
        (None, lambda pol, dirs: np.ones(np.shape(pol) + (3,)), None),
    )
    data = SheetPointData(ASYM, 1, z, ones)
    assert np.all(data.dw == 0.0) and np.all(data.dy == 0.0)
    assert np.all(data.w == 1.0) and np.all(data.yvec == 1.0)
    value, deriv = field_jet(lambda zz: np.ones(zz.shape[:-1]), z, 1)
    assert value.shape == (len(z),) and deriv.shape == z.shape and not np.any(deriv)


def test_field_jets_keep_the_warning_filters():
    # a jet swaps the process-wide warning filters for its call only: after
    # a jet and after a cast that raised, the filters are as they were, and a
    # ComplexWarning outside a jet is a warning again, not an error
    z = flat_rule(2, ASYM.polar_limit(1), (4, 8))[0]
    f = random_admissible_field(ASYM, np.random.default_rng(0), 0.25)
    cast = PerturbationField(ASYM, (None, lambda pol, dirs: np.asarray(pol, dtype=float), None))
    filters = list(warnings.filters)
    first = SheetPointData(ASYM, 1, z, f).dy
    assert warnings.filters == filters
    with pytest.raises(ValueError, match="sheet 1"):
        SheetPointData(ASYM, 1, z, cast).dw
    assert warnings.filters == filters
    assert np.array_equal(SheetPointData(ASYM, 1, z, f).dy, first)
    with pytest.warns(np.exceptions.ComplexWarning):
        np.asarray(np.array([1.0 + 1.0j]), dtype=float)


def test_field_path_keeps_real_input_float():
    # integer and real parameters evaluate to float; complex ones stay complex
    f = random_admissible_field(ASYM, np.random.default_rng(0), 0.25)
    polar, dirs = np.array([1, 2]), np.array([[1, 0], [0, 1]])
    for s in range(3):
        assert f.w(s, polar, dirs).dtype == f.y(s, polar, dirs).dtype == np.float64
        assert f.w(s, polar + 0j, dirs + 0j).dtype == np.complex128
    assert admissible_closure([1, 2], [3, 4])["u0"].dtype == np.float64


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


def test_mean_curvature_terms_are_the_formula_at_every_rho():
    # the parts of a sweep, computed once for the unscaled field and
    # combined at rho as const + rho^2 curvature + s field with the field
    # scale s, are perturbed_mean_curvature with the rho^2-scaled field, bit
    # for bit.  Against the printed formula with the scaled field inside its
    # callables, as summed before the split: the curvature side moves by
    # the regrouping alone, and the field part by the roundoff of the
    # Hessian's stencil, eps / h^2 with h = H_REL times the ranges
    from doublebubble.charts import builtin_chart, curvature_at
    from doublebubble.measure import default_h_params

    sphere = builtin_chart("round_sphere", a=1.0)
    cv = curvature_at(sphere, np.zeros(3), np.array([0.3, -0.2, 0.9]), nabla=False)
    worst_curv = worst_field = 0.0
    for b in (SYM, ASYM):
        field = random_admissible_field(b, np.random.default_rng(3), 0.3)
        unit = field.scaled(1.0 / field.scale)
        assert unit.scale == 1.0
        for s in range(3):
            z = default_h_params(b, s)
            const, quad, lin = mean_curvature_terms(b, s, cv, z, unit)
            disk = s == 0 and b.symmetric
            for rho in (0.2, 0.1, 0.05):
                scaled = field.scaled(rho**2)
                got = const + rho**2 * quad + scaled.scale * lin
                assert np.array_equal(got, perturbed_mean_curvature(b, s, cv, rho, z, scaled))
                d = SheetPointData(b, s, z, scaled)
                x, ric, r_s = d.x, cv.ricci, b.radii[s]
                c = np.array([0.0, 0.0, b.centers[s]])
                if disk:
                    printed = (2.0 * rho**2 / 3.0) * np.einsum("...i,...j,ij->...", x, d.normal, ric)
                    field_part = laplace_beltrami(d)
                else:
                    printed = (
                        2
                        - (rho**2 / 3.0) * np.einsum("...i,...j,ij->...", x, x, ric)
                        + (2.0 * rho**2 / 3.0) * np.einsum("i,...j,ij->...", c, x, ric)
                        + (4 * rho**2 / (6.0 * r_s**2))
                        * np.einsum("...a,b,...c,d,abcd->...", x, c, x, c, cv.riemann)
                    )
                    field_part = r_s * laplace_beltrami(d) + (2 / r_s) * d.w
                curv_side = const + rho**2 * quad
                worst_curv = max(worst_curv, float(np.max(np.abs(curv_side - printed) / np.abs(got))))
                worst_field = max(
                    worst_field, float(np.max(np.abs(scaled.scale * lin - field_part)) / np.max(np.abs(field_part)))
                )
    assert worst_curv <= 1e-14, worst_curv
    assert worst_field <= 1e-7, worst_field


def test_mean_curvature_terms_take_w_from_the_hessian_stencil():
    # the field part reads w at the centre of the Hessian's stencil, which is
    # the real evaluation bit for bit: one stencil and one jet per sheet
    from doublebubble.charts import builtin_chart, curvature_at

    cv = curvature_at(builtin_chart("euclidean", dim=3), np.zeros(3), np.array([0, 0, 1.0]), nabla=False)
    field = random_admissible_field(ASYM, np.random.default_rng(2), 0.25)
    calls = [0, 0, 0]

    def counted(fn, sheet):
        def f(polar, dirs):
            calls[sheet] += 1
            return fn(polar, dirs)

        return f

    counting = PerturbationField(ASYM, tuple(counted(fn, s) for s, fn in enumerate(field.w_funcs)),
                                 field.y_funcs, field.scale)
    z = flat_rule(2, ASYM.polar_limit(1), (4, 8))[0]
    for s in range(3):
        mean_curvature_terms(ASYM, s, cv, z, counting)
    assert calls == [2, 2, 2]
    data = SheetPointData(ASYM, 1, z, field)
    data.d2w
    assert np.array_equal(data.w, field.w(1, z[:, 0], angles_to_dirs(2, z[:, 1:])))


@pytest.mark.parametrize("m", [2, 3])
def test_flat_metric_is_diagonal_so_its_inverse_is_the_reciprocal(m):
    # SheetPointData inverts the flat first form by the reciprocal of its
    # diagonal: the metric has no off-diagonal entry on any sheet, and the
    # inverse is LAPACK's bit for bit
    for h in ((0.0, 3.0, 3.0), (1.0, 3.0, 2.0)):
        b = solve_standard_bubble(BubbleParams(m, *h))
        for s in range(3):
            data = SheetPointData(b, s, flat_rule(m, b.polar_limit(s), (8, 16))[0])
            assert not np.any(data.g * (1.0 - np.eye(m)))
            assert np.array_equal(data.ginv, np.linalg.inv(data.g))


def test_conormal_derivative_sign():
    # w = polar^2 on sheet 1 alone increases toward the neck, so its inward
    # conormal derivative -2 phi1 / R1 is negative; e0 adds r1 phi1^2
    b = SYM
    n = 64
    f = PerturbationField(b, (None, lambda pol, dirs: np.asarray(pol) ** 2, None))
    e0 = (jacobi_block(b, 0, n) @ field_modes(f, n)[0, :, 0])[3 * n + 1]
    r1 = coupling_constants(b.params).robin[1]
    assert e0 < 0.0
    assert e0 == pytest.approx(-2.0 * b.phi[1] / b.radii[1] + r1 * b.phi[1] ** 2, rel=1e-8)
