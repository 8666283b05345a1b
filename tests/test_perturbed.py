import math

import numpy as np
import pytest

from doublebubble.charts import builtin_chart, curvature_at
from doublebubble.fields import (
    PerturbationField,
    perturbed_area_expansion,
    perturbed_first_form,
    perturbed_mean_curvature,
    perturbed_second_form,
    perturbed_volume_expansion,
    random_admissible_field,
)
from doublebubble.geometry import BubbleParams, solve_standard_bubble
from doublebubble.measure import EmbeddedBubble, measure_fundamental_forms, verify_many

SYM = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
ASYM = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
SPHERE = builtin_chart("round_sphere", a=1.0, dim=3)
CV = curvature_at(SPHERE, np.zeros(3), np.array([0.3, -0.2, 0.9]), nabla=True)


def interior_params(bubble, sheet):
    upper = bubble.polar_limit(sheet)
    return np.array([[0.5 * upper, 1.1], [0.3 * upper, 2.7]])


@pytest.mark.parametrize("bubble", [SYM, ASYM], ids=["sym", "asym"])
@pytest.mark.parametrize("sheet", [0, 1, 2])
def test_unperturbed_forms_match_oracle(bubble, sheet):
    zs = interior_params(bubble, sheet)
    ts = [0.2, 0.1, 0.05]
    errs_g, errs_h = [], []
    for rho in ts:
        eb = EmbeddedBubble(SPHERE, CV.frame, bubble, rho, grid=(16, 32))
        gram, hmat = measure_fundamental_forms(eb, sheet, zs)
        errs_g.append(np.abs(gram - perturbed_first_form(bubble, sheet, CV, rho, zs)).max() / rho**2)
        errs_h.append(np.abs(hmat - perturbed_second_form(bubble, sheet, CV, rho, zs)).max() / rho)
    slope_g = float(np.polyfit(np.log(ts), np.log(errs_g), 1)[0])
    assert slope_g >= 3.7
    if max(errs_h) <= 1e-9:
        return  # totally geodesic disk in the isotropic chart; exact
    slope_h = float(np.polyfit(np.log(ts), np.log(errs_h), 1)[0])
    assert slope_h >= 3.7


def test_disk_forms_on_anisotropic_chart():
    pr = builtin_chart("product", factors=[(2, 1.0), (1, math.inf)])
    cv = curvature_at(pr, np.zeros(3), np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0), nabla=True)
    zs = interior_params(SYM, 0)
    ts = [0.2, 0.1, 0.05]
    errs_h, errs_curv = [], []
    for rho in ts:
        eb = EmbeddedBubble(pr, cv.frame, SYM, rho, grid=(16, 32))
        _, hmat = measure_fundamental_forms(eb, 0, zs)
        errs_h.append(np.abs(hmat - perturbed_second_form(SYM, 0, cv, rho, zs)).max() / rho)
        from doublebubble.measure import measure_mean_curvature

        hval = measure_mean_curvature(eb, 0, zs)
        errs_curv.append(np.abs(rho * hval - perturbed_mean_curvature(SYM, 0, cv, rho, zs)).max())
    assert float(np.polyfit(np.log(ts), np.log(errs_h), 1)[0]) >= 3.7
    assert float(np.polyfit(np.log(ts), np.log(errs_curv), 1)[0]) >= 2.7


def test_first_form_flat_field_quadratic_error():
    # in the flat chart the expansion is exact through first field order; the
    # defect shrinks quadratically with the field scale
    eu = builtin_chart("euclidean", dim=3)
    cv = curvature_at(eu, np.zeros(3), np.array([0.0, 0.0, 1.0]), nabla=False)
    frame = cv.frame
    rng = np.random.default_rng(12)
    bubble = ASYM
    field = random_admissible_field(bubble, rng, amplitude=0.05)
    rho = 0.1
    errs = []
    for scale in (1.0, 0.1):
        f = field.scaled(scale)
        eb = EmbeddedBubble(eu, frame, bubble, rho, perturbation=f, grid=(16, 32))
        zs = interior_params(bubble, 1)
        gram, hmat = measure_fundamental_forms(eb, 1, zs)
        errs.append(np.abs(gram - perturbed_first_form(bubble, 1, cv, rho, zs, f)).max())
    assert errs[1] <= errs[0] * 1e-2 * 2.0


def test_perturbed_mean_curvature_field_slope():
    rng = np.random.default_rng(21)
    field = random_admissible_field(ASYM, rng, amplitude=0.3)
    res = verify_many(
        SPHERE,
        np.zeros(3),
        np.array([0.3, -0.2, 0.9]),
        ASYM,
        ["h0", "h1", "h2"],
        [0.2, 0.14, 0.1, 0.07],
        grid=(16, 32),
        perturbation=field,
    )
    for q, (fit, _) in res.items():
        assert fit.exact or fit.slope >= 2.7, (q, fit)


def test_perturbed_area_volume_sweeps():
    rng = np.random.default_rng(22)
    field = random_admissible_field(SYM, rng, amplitude=0.3)
    res = verify_many(
        SPHERE,
        np.zeros(3),
        np.array([0.3, -0.2, 0.9]),
        SYM,
        ["area", "v1", "v2"],
        [0.2, 0.14, 0.1, 0.07],
        grid=(24, 48),
        sector_nodes=8,
        perturbation=field,
    )
    for q, (fit, _) in res.items():
        assert fit.slope >= 2.7, (q, fit)


def test_perturbed_expansion_values_reduce_to_unperturbed():
    zero = PerturbationField(SYM, (None, None, None))
    sc, ric = 6.0, 2.0
    rho = 0.1
    from doublebubble.expansions import geodesic_area_expansion, geodesic_volumes_expansion

    per_sheet, _ = geodesic_area_expansion(SYM)
    vals = perturbed_area_expansion(SYM, zero, sc, ric, rho)
    for s in range(3):
        assert vals[s] == pytest.approx(per_sheet[s].value(sc, ric, rho), rel=1e-12)
    t1, t2 = geodesic_volumes_expansion(SYM)
    v1, v2 = perturbed_volume_expansion(SYM, zero, sc, ric, rho)
    assert v1 == pytest.approx(t1.value(sc, ric, rho), rel=1e-12)
    assert v2 == pytest.approx(t2.value(sc, ric, rho), rel=1e-12)


def test_sweep_expansions_match_scaled_field_expansions():
    # verify_many computes the first-order responses once, for the unscaled
    # field; at each rho they must equal the expansions of the rho^2-scaled one
    product = builtin_chart("product", factors=[(2, 1.0), (1, math.inf)])
    seed_axis = np.array([0.25, -0.4, 0.88])
    field = random_admissible_field(ASYM, np.random.default_rng(3), amplitude=0.25)
    rhos = [0.2, 0.14, 0.1]
    res = verify_many(
        product,
        np.zeros(3),
        seed_axis,
        ASYM,
        ["area", "v1", "v2", "vtot"],
        rhos,
        grid=(8, 16),
        sector_nodes=4,
        perturbation=field,
    )
    curv = curvature_at(product, np.zeros(3), seed_axis, nabla=False)
    axis = np.array([0.0, 0.0, 1.0])
    sc, ric_ss = curv.scalar, curv.ric(axis, axis)
    assert abs(ric_ss - sc / 3.0) > 0.1  # the Ric(s,s) coefficients matter
    for k, rho in enumerate(rhos):
        scaled = field.scaled(rho**2)
        v1, v2 = perturbed_volume_expansion(ASYM, scaled, sc, ric_ss, rho)
        expected = {
            "area": float(np.sum(perturbed_area_expansion(ASYM, scaled, sc, ric_ss, rho))),
            "v1": v1,
            "v2": v2,
            "vtot": v1 + v2,
        }
        for q, value in expected.items():
            row = res[q][1][k]
            assert row["rho"] == rho
            assert row["formula"] == pytest.approx(value, rel=1e-14, abs=0.0), (q, rho)
