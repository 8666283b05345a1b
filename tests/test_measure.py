import math

import numpy as np
import pytest

from doublebubble.charts import DomainExit, builtin_chart, curvature_at, orthonormal_frame
from doublebubble.fields import random_admissible_field, _param_steps
from doublebubble.geometry import BubbleParams, flat_rule, solve_standard_bubble
from doublebubble.measure import (
    QUANTITIES,
    EmbeddedBubble,
    _prism_volume,
    fit_order,
    measure_area,
    measure_conormal_defect,
    measure_energy,
    measure_mean_curvature,
    measure_report,
    measure_volumes,
    monte_carlo_volumes,
    verify_many,
)

import exact_models

SYM = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
ASYM = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
EU = builtin_chart("euclidean", dim=3)
SP = builtin_chart("round_sphere", a=1.0, dim=3)
FRAME_EU = orthonormal_frame(EU, np.zeros(3), np.array([0.0, 0.0, 1.0]))
FRAME_SP = orthonormal_frame(SP, np.zeros(3), np.array([0.0, 0.0, 1.0]))


def test_flat_measurements_exact():
    rho = 0.1
    for b in (SYM, ASYM):
        eb = EmbeddedBubble(EU, FRAME_EU, b, rho, grid=(32, 64), sector_nodes=10)
        areas = measure_area(eb)
        assert np.abs(areas / (rho**2 * np.array(b.sheet_areas)) - 1.0).max() <= 1e-10
        v1, v2 = measure_volumes(eb)
        assert abs(v1 / (rho**3 * b.v1) - 1.0) <= 1e-10
        assert abs(v2 / (rho**3 * b.v2) - 1.0) <= 1e-10
        assert measure_conormal_defect(eb, 16) <= 1e-10
        for s in range(3):
            upper = b.polar_limit(s)
            h = measure_mean_curvature(eb, s, np.array([[0.5 * upper, 1.0]]))[0]
            if s == 0 and b.symmetric:
                assert abs(h) <= 1e-8
            else:
                assert abs(h - 2.0 / (rho * b.radii[s])) <= 1e-8


def test_flat_ray_volumes_exact_in_dims_3_and_4():
    rho = 0.1
    for dim in (3, 4):
        eu = builtin_chart("euclidean", dim=dim)
        frame = orthonormal_frame(eu, np.zeros(dim), np.eye(dim)[-1])
        for h in ((0.0, 3.0, 3.0), (1.0, 3.0, 2.0)):
            b = solve_standard_bubble(BubbleParams(dim - 1, *h))
            eb = EmbeddedBubble(eu, frame, b, rho, grid=(32, 16), sector_nodes=10)
            v1, v2 = measure_volumes(eb)
            assert v1 == pytest.approx(rho**dim * b.v1, rel=1e-12, abs=0)
            assert v2 == pytest.approx(rho**dim * b.v2, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "h,v1_ref,v2_ref",
    [
        ((1.0, 3.0, 2.0), 0.869605365900108, 3.948951533396914),
        ((0.0, 3.0, 3.0), 1.047779822502455, 1.047817296278144),
    ],
    ids=["asym", "sym"],
)
def test_ray_volumes_reproduce_cone_oracle_on_bump(h, v1_ref, v2_ref):
    # V / rho^3 from the exp-image cone oracle this ray oracle replaced, at the same settings
    bump = builtin_chart("conformal_bump", eps=-0.1, s=0.5, dim=3)
    p = np.array([0.12, -0.05, 0.08])
    frame = orthonormal_frame(bump, p, np.array([0.25, -0.4, 0.88]))
    rho = 0.05
    b = solve_standard_bubble(BubbleParams(2, *h))
    eb = EmbeddedBubble(bump, frame, b, rho, grid=(16, 32), sector_nodes=8, geodesic_steps=50)
    v1, v2 = measure_volumes(eb)
    assert v1 / rho**3 == pytest.approx(v1_ref, rel=1e-10, abs=0)
    assert v2 / rho**3 == pytest.approx(v2_ref, rel=1e-10, abs=0)



@pytest.mark.parametrize(
    "family,kw,rho,options,refs",
    [
        (
            "round_sphere",
            {"a": 1.0},
            0.1,
            {"grid": (32, 64), "sector_nodes": 10, "geodesic_steps": 200},
            (6.439308903820903e-04, 3.171266753052356e-03, 3.223375741055464e-03),
        ),
        (
            "conformal_bump",
            {"eps": -0.1, "s": 0.5},
            0.05,
            {"grid": (16, 32), "sector_nodes": 8, "geodesic_steps": 50},
            (1.613479322911809e-04, 7.963169184203626e-04, 8.139866395653791e-04),
        ),
    ],
    ids=["sphere", "bump"],
)
def test_prisms_reproduce_stencil_oracle(family, kw, rho, options, refs):
    # prism volume / rho^3 per sheet from the finite-difference stencils
    # through exp_map that the exp-map differential replaced, same settings
    chart = builtin_chart(family, dim=3, **kw)
    frame = orthonormal_frame(chart, np.array([0.12, -0.05, 0.08]), np.array([0.25, -0.4, 0.88]))
    field = random_admissible_field(ASYM, np.random.default_rng(1), 0.25).scaled(rho**2)
    eb = EmbeddedBubble(chart, frame, ASYM, rho, perturbation=field, **options)
    for s, ref in enumerate(refs):
        assert _prism_volume(eb, s) / rho**3 == pytest.approx(ref, rel=5e-9, abs=0)

def test_flat_energy_matches_closed_form():
    rho = 0.1
    from doublebubble.expansions import flat_energy_reference

    for b in (SYM, ASYM):
        eb = EmbeddedBubble(EU, FRAME_EU, b, rho, grid=(32, 64), sector_nodes=10)
        psi = measure_energy(eb)
        assert psi == pytest.approx(rho**2 * flat_energy_reference(b), rel=1e-10)


def test_energy_invariant_under_frame_rotation_flat():
    rho = 0.12
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(3):
        seed = rng.normal(size=3)
        frame = orthonormal_frame(EU, rng.normal(size=3) * 0.1, seed)
        eb = EmbeddedBubble(EU, frame, ASYM, rho, grid=(24, 48), sector_nodes=8)
        vals.append(measure_energy(eb))
    assert max(vals) - min(vals) <= 1e-10 * max(1.0, abs(vals[0]))


def test_oracle_against_independent_sphere_model():
    # same geometry, measured by the package oracle in the stereographic
    # chart and by the R^4 great-circle model
    rho = 0.15
    b = ASYM
    eb = EmbeddedBubble(SP, FRAME_SP, b, rho, grid=(24, 48), sector_nodes=10)
    areas = measure_area(eb)
    from doublebubble.fields import flat_point_z

    for s in range(3):
        z, _, w = flat_rule(b.m, b.polar_limit(s), eb.grid)
        steps = _param_steps(b, s, 1e-4)
        area_ref = exact_models.surface_area(
            lambda zz, ss=s: rho * flat_point_z(b, ss, zz), z, w, steps
        )
        assert areas[s] == pytest.approx(area_ref, rel=1e-9)
    v1, v2 = measure_volumes(eb)
    v1_ref, v2_ref = exact_models.chamber_volumes(rho, b.centers, b.radii, b.symmetric)
    assert v1 == pytest.approx(v1_ref, rel=1e-9)
    assert v2 == pytest.approx(v2_ref, rel=1e-9)


def test_exact_models_self_check():
    # the micro-oracle reproduces closed-form geodesic balls and spheres
    t_ball = 0.3

    def ball_surface(z):
        dirs = np.stack([np.sin(z[:, 0]) * np.cos(z[:, 1]), np.sin(z[:, 0]) * np.sin(z[:, 1]), np.cos(z[:, 0])], axis=1)
        return t_ball * dirs

    tq, wq = np.polynomial.legendre.leggauss(24)
    al = 0.5 * math.pi * (tq + 1.0)
    wal = 0.5 * math.pi * wq
    be = 2.0 * math.pi * np.arange(48) / 48
    z = np.stack([np.repeat(al, 48), np.tile(be, 24)], axis=1)
    w = np.repeat(wal * np.sin(al), 48) * (2.0 * math.pi / 48) / np.repeat(np.sin(al), 48)
    w = np.repeat(wal, 48) * (2.0 * math.pi / 48)
    # surface measure in (alpha, beta) for the parametrization above carries
    # sin(alpha) inside the Gram factor, so parameter weights suffice
    area = exact_models.surface_area(ball_surface, z, w, np.array([1e-4 * math.pi, 1e-4 * math.pi]))
    assert area == pytest.approx(exact_models.geodesic_sphere_area(t_ball), rel=1e-9)
    vol = exact_models.cone_volume(np.zeros(3), ball_surface, z, w, np.array([1e-4 * math.pi] * 2))
    assert vol == pytest.approx(exact_models.geodesic_ball_volume(t_ball), rel=1e-8)


def test_volumes_match_monte_carlo():
    rng = np.random.default_rng(0)
    for b in (ASYM, SYM):
        v1, v2 = monte_carlo_volumes(b, n_samples=10**6, seed=3)
        assert v1 == pytest.approx(b.v1, rel=4e-3)
        assert v2 == pytest.approx(b.v2, rel=4e-3)


def test_grid_doubling_self_consistency():
    rho = 0.1
    eb1 = EmbeddedBubble(SP, FRAME_SP, ASYM, rho, grid=(32, 64), sector_nodes=10)
    eb2 = EmbeddedBubble(SP, FRAME_SP, ASYM, rho, grid=(64, 128), sector_nodes=20)
    a1, a2 = measure_area(eb1), measure_area(eb2)
    assert np.abs(a1 / a2 - 1.0).max() <= 1e-8
    v1 = measure_volumes(eb1)
    v2 = measure_volumes(eb2)
    assert abs(v1[0] / v2[0] - 1.0) <= 1e-8
    assert abs(v1[1] / v2[1] - 1.0) <= 1e-8


def test_measurements_smooth_in_rho():
    # finite-difference d/drho of the total area against the secant
    rhos = [0.105, 0.1, 0.095]
    vals = []
    for r in rhos:
        eb = EmbeddedBubble(SP, FRAME_SP, SYM, r, grid=(16, 32), sector_nodes=6)
        vals.append(float(np.sum(measure_area(eb))))
    secant = (vals[0] - vals[2]) / (rhos[0] - rhos[2])
    inner = (vals[0] - vals[1]) / (rhos[0] - rhos[1])
    assert abs(inner - secant) <= 0.05 * abs(secant)


def test_perturbed_embedding_consistency():
    rho = 0.1
    rng = np.random.default_rng(4)
    f = random_admissible_field(ASYM, rng, amplitude=0.0)
    eb0 = EmbeddedBubble(SP, FRAME_SP, ASYM, rho, grid=(16, 32), sector_nodes=6)
    ebz = EmbeddedBubble(SP, FRAME_SP, ASYM, rho, perturbation=f, grid=(16, 32), sector_nodes=6)
    assert np.abs(measure_area(eb0) - measure_area(ebz)).max() <= 1e-13
    v0, vz = measure_volumes(eb0), measure_volumes(ebz)
    assert abs(v0[0] - vz[0]) <= 1e-12 and abs(v0[1] - vz[1]) <= 1e-12


def test_mean_curvature_boundary_guard():
    eb = EmbeddedBubble(EU, FRAME_EU, ASYM, 0.1, grid=(16, 32))
    with pytest.raises(ValueError):
        measure_mean_curvature(eb, 1, np.array([[ASYM.phi[1], 1.0]]))


def test_embedded_bubble_domain_guard():
    with pytest.raises(DomainExit):
        EmbeddedBubble(SP, FRAME_SP, ASYM, 3.0, grid=(16, 32))
    with pytest.raises(ValueError):
        EmbeddedBubble(SP, FRAME_SP, ASYM, -0.1)


def test_measure_report_fields():
    eb = EmbeddedBubble(SP, FRAME_SP, SYM, 0.1, grid=(16, 32), sector_nodes=6)
    rep = measure_report(eb, h_samples=2)
    assert rep.rho == 0.1
    assert rep.bubble_fingerprint == SYM.fingerprint()
    assert all(a > 0 for a in rep.areas)
    assert rep.v1 > 0 and rep.v2 > 0
    assert len(rep.mean_curvature_samples) == 6
    assert rep.total_area == pytest.approx(sum(rep.areas))


def test_fit_order_basics():
    rhos = [0.2, 0.1, 0.05]
    errs = [7.0 * r**3 for r in rhos]
    fit = fit_order(rhos, errs)
    assert fit.slope == pytest.approx(3.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_order([0.2, 0.1], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_order([0.1, 0.2, 0.3], [1, 1, 1])
    exact = fit_order(rhos, [0.0, 0.0, 0.0])
    assert exact.exact and math.isinf(exact.slope)
    rng = np.random.default_rng(1)
    noisy = [5.0 * r**2 * (1.0 + 0.02 * rng.normal()) for r in rhos]
    assert fit_order(rhos, noisy).slope == pytest.approx(2.0, abs=0.1)


def test_verify_many_flat_exact_sentinels():
    res = verify_many(
        EU,
        np.zeros(3),
        np.array([0.0, 0.0, 1.0]),
        SYM,
        ["area", "v1", "phi"],
        [0.2, 0.14, 0.1],
        grid=(16, 32),
        sector_nodes=6,
        floors={"area": 1e-9, "v1": 1e-9, "phi": 1e-7},
    )
    for q, (fit, rows) in res.items():
        assert fit.exact, (q, fit)
    with pytest.raises(ValueError):
        verify_many(EU, np.zeros(3), np.array([0, 0, 1.0]), SYM, ["nope"], [0.2, 0.1, 0.05])


def test_phi_depends_on_axis_only_through_ricci():
    # on a product metric, axes with equal Ric(s,s) give equal measured phi
    pr = builtin_chart("product", factors=[(2, 1.0), (1, math.inf)])
    rho = 0.1
    vals = []
    for seed in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        curv = curvature_at(pr, np.zeros(3), seed, nabla=False)
        eb = EmbeddedBubble(pr, curv.frame, SYM, rho, grid=(24, 48), sector_nodes=8)
        from doublebubble.expansions import phi_from_energy
        from doublebubble.measure import measure_report_for_phi

        vals.append(phi_from_energy(measure_report_for_phi(eb), SYM, rho))
    assert abs(vals[0] - vals[1]) <= 1e-6


def _perturbed_sphere_sweep(quantities, **options):
    field = random_admissible_field(ASYM, np.random.default_rng(2), 0.25)
    result = verify_many(
        SP,
        np.zeros(3),
        np.array([0.25, -0.4, 0.88]),
        ASYM,
        quantities,
        [0.2, 0.14, 0.1],
        grid=(8, 16),
        sector_nodes=4,
        perturbation=field,
        **options,
    )
    keys = ("rho", "oracle", "formula", "error", "slope_so_far")
    return {
        q: [float(v).hex() for v in (fit.slope, fit.r_squared)]
        + [float(row[k]).hex() for row in rows for k in keys]
        for q, (fit, rows) in result.items()
    }


def test_shared_sweep_matches_single_quantity_sweeps():
    quantities = [q for q in QUANTITIES if q != "vtot"]
    shared = _perturbed_sphere_sweep(quantities)
    assert list(shared) == quantities
    for q in quantities:
        assert shared[q] == _perturbed_sphere_sweep([q])[q], q
    assert _perturbed_sphere_sweep(quantities, jobs=2) == shared
