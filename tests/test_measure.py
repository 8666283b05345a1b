import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doublebubble.charts import (
    DomainExit,
    _exp_rays,
    builtin_chart,
    christoffel,
    curvature_at,
    exp_map,
    orthonormal_frame,
)
from doublebubble.expansions import phi_from_energy
from doublebubble.fields import random_admissible_field
from doublebubble.geometry import BubbleParams, flat_rule, solve_standard_bubble
from doublebubble import expansions, fields, measure
from doublebubble.measure import (
    CLAIMS,
    EmbeddedBubble,
    fit_order,
    measure_area,
    measure_conormal_defect,
    measure_energy,
    measure_mean_curvature,
    measure_volumes,
    verify_many,
)

import exact_models

SYM = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
ASYM = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
EU = builtin_chart("euclidean", dim=3)
SP = builtin_chart("round_sphere", a=1.0, dim=3)
FRAME_EU = orthonormal_frame(EU, np.zeros(3), np.array([0.0, 0.0, 1.0]))
FRAME_SP = orthonormal_frame(SP, np.zeros(3), np.array([0.0, 0.0, 1.0]))


def test_areas_and_volumes_share_one_field_jet_per_sheet():
    # a perturbed sweep evaluates each sheet's field for the jets of the
    # areas and of the volume cones once, not once per scale: 3 and 5 scales
    # make the same calls, and every scale measures what a bubble with its
    # own flat model measures
    field = random_admissible_field(ASYM, np.random.default_rng(4), 0.25)
    axis = np.array([0.25, -0.4, 0.88])
    quantities = ["area", "v1", "v2", "vtot", "phi"]
    counts = []
    for rhos in ([0.2, 0.14, 0.1], [0.2, 0.14, 0.1, 0.07, 0.05]):
        calls = [0, 0, 0]

        def counted(fn, sheet):
            def f(polar, dirs):
                calls[sheet] += 1
                return fn(polar, dirs)

            return f

        counting = replace(
            field,
            w_funcs=tuple(counted(fn, s) for s, fn in enumerate(field.w_funcs)),
            y_funcs=tuple(counted(fn, s) for s, fn in enumerate(field.y_funcs)),
        )
        res = verify_many(SP, np.zeros(3), axis, ASYM, quantities, rhos, grid=(8, 16),
                          sector_nodes=4, perturbation=counting)
        counts.append(calls)
    assert counts[0] == counts[1] and min(counts[0]) > 0, counts
    frame = curvature_at(SP, np.zeros(3), axis, nabla=False).frame
    for k, rho in enumerate(rhos):
        eb = EmbeddedBubble(SP, frame, ASYM, rho, perturbation=field.scaled(rho**2), grid=(8, 16),
                            sector_nodes=4)
        v1, v2 = measure_volumes(eb)
        assert res["area"][1][k]["oracle"] == float(np.sum(measure_area(eb))) / rho**2
        assert res["v1"][1][k]["oracle"] == v1 / rho**3
        assert res["v2"][1][k]["oracle"] == v2 / rho**3


def test_conormal_sweep_builds_the_sheet_jets_once(monkeypatch):
    # the conormal defect reads the neck off the sheets' own embedding: a
    # perturbed sweep makes one _sheet_jet call per sheet, at its flat_rule
    # nodes and none at the neck, whatever the number of scales, and every
    # scale measures what a bubble with its own flat model measures
    field = random_admissible_field(ASYM, np.random.default_rng(4), 0.25)
    axis = np.array([0.25, -0.4, 0.88])
    calls = []
    sheet_jet = fields._sheet_jet

    def counted(bubble, sheet, z, fld):
        calls.append((sheet, len(z), bool(np.any(z[:, 0] == bubble.polar_limit(sheet)))))
        return sheet_jet(bubble, sheet, z, fld)

    for module in (fields, measure):
        monkeypatch.setattr(module, "_sheet_jet", counted)
    for rhos in ([0.2, 0.14, 0.1], [0.2, 0.14, 0.1, 0.07, 0.05]):
        calls.clear()
        res = verify_many(SP, np.zeros(3), axis, ASYM, ["conormal"], rhos, grid=(8, 16),
                          sector_nodes=4, perturbation=field)
        assert sorted(calls) == [(0, 8 * 16, False), (1, 8 * 16, False), (2, 8 * 16, False)], calls
    frame = curvature_at(SP, np.zeros(3), axis, nabla=False).frame
    for k, rho in enumerate(rhos):
        eb = EmbeddedBubble(SP, frame, ASYM, rho, perturbation=field.scaled(rho**2), grid=(8, 16),
                            sector_nodes=4)
        assert res["conormal"][1][k]["oracle"] == measure_conormal_defect(eb)


def test_areas_and_volumes_share_one_exp_map_call(monkeypatch):
    # the embedded sheets of one exp_map call serve the areas and the volume
    # cones, whichever is measured first, and volumes alone make that call
    field = random_admissible_field(ASYM, np.random.default_rng(4), 0.25).scaled(0.01)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("directions") is not None)
        return exp_map(*args, **kwargs)

    monkeypatch.setattr(measure, "exp_map", counted)
    results = []
    for order in ((measure_area, measure_volumes), (measure_volumes, measure_area), (measure_volumes,)):
        calls.clear()
        eb = EmbeddedBubble(SP, FRAME_SP, ASYM, 0.1, perturbation=field, grid=(8, 16), sector_nodes=4)
        results.append({fn.__name__: fn(eb) for fn in order})
        assert calls == [True], (order, calls)
    assert np.array_equal(results[0]["measure_area"], results[1]["measure_area"])
    assert results[0]["measure_volumes"] == results[1]["measure_volumes"] == results[2]["measure_volumes"]


def _held_to_the_full_column_reference(eb):
    # Y and T of the sheets' one ray pass against exact_models' rays with all
    # m Jacobi columns at the same flat_rule nodes, relative to their sup
    pos, tangents = measure._embedded_sheets(eb)[0]
    refs = [exact_models.embedded_sheet(eb, s, sh.z, exp_map) for s, sh in enumerate(eb.model.sheets)]
    pos_ref = np.concatenate([r[0] for r in refs])
    tangents_ref = np.moveaxis(np.concatenate([r[1] for r in refs]), 0, -1)
    return (np.abs(pos - pos_ref).max() / np.abs(pos_ref).max(),
            np.abs(tangents - tangents_ref).max() / np.abs(tangents_ref).max())


@pytest.mark.parametrize(
    "family, kw, point, steps",
    [("round_sphere", {"a": 1.0}, (0.0, 0.0, 0.0), 200),
     ("conformal_bump", {"eps": -0.1, "s": 0.5}, (0.12, -0.05, 0.08), 20)],
    ids=["sphere", "bump-rk4"],
)
def test_sheet_tangents_match_the_full_column_reference(family, kw, point, steps):
    # the rays push only the polar Jacobi column; the angle tangents are the
    # straight chart ray's plus the grid's angle derivative of the bend Y -
    # p - v: Y and T match every column pushed by its own Jacobi field to
    # 1e-12 relative (5e-14 measured), symmetric and asymmetric, with and
    # without a field, from CI's grid to the CLI default
    chart = builtin_chart(family, **kw)
    frame = curvature_at(chart, np.array(point), np.array([0.25, -0.4, 0.88]), nabla=False).frame
    for b in (SYM, ASYM):
        for field in (None, random_admissible_field(b, np.random.default_rng(3), 0.25)):
            for grid in ((16, 32), (32, 64), (48, 96)):
                eb = EmbeddedBubble(chart, frame, b, 0.07, perturbation=field and field.scaled(0.07**2),
                                    grid=grid, geodesic_steps=steps)
                gaps = _held_to_the_full_column_reference(eb)
                assert max(gaps) <= 1e-12, (b.params, field is None, grid, gaps)


@pytest.mark.parametrize(
    "family, kw, point, steps",
    [("round_sphere", {"a": 1.0, "dim": 4}, (0.0, 0.0, 0.0, 0.0), 200),
     ("conformal_bump", {"eps": -0.1, "s": 0.5, "dim": 4}, (0.12, -0.05, 0.08, 0.03), 20)],
    ids=["S4", "bump-rk4"],
)
def test_m3_sheet_tangents_match_the_full_column_reference(family, kw, point, steps):
    # at m = 3 the alpha derivative of the bend pairs beta with beta + pi
    chart = builtin_chart(family, **kw)
    frame = curvature_at(chart, np.array(point), np.array([0.3, -0.2, 0.5, 0.8]), nabla=False).frame
    for h in ((0.0, 4.0, 4.0), (1.0, 4.0, 3.0)):
        b = solve_standard_bubble(BubbleParams(3, *h))
        gaps = _held_to_the_full_column_reference(EmbeddedBubble(chart, frame, b, 0.07, grid=(16, 32),
                                                                  geodesic_steps=steps))
        assert max(gaps) <= 1e-12, (h, gaps)


@pytest.mark.parametrize("m", [2, 3])
def test_sheet_rays_carry_one_direction_column(monkeypatch, m):
    # the sheets' one exp_map call pushes the polar direction alone
    columns = []

    def counted(*args, **kwargs):
        columns.append(np.shape(kwargs["directions"])[-1])
        return exp_map(*args, **kwargs)

    monkeypatch.setattr(measure, "exp_map", counted)
    chart = builtin_chart("conformal_bump", eps=-0.1, s=0.5, dim=m + 1)
    frame = orthonormal_frame(chart, np.zeros(m + 1), np.eye(m + 1)[-1])
    b = SYM if m == 2 else solve_standard_bubble(BubbleParams(3, 0.0, 4.0, 4.0))
    eb = EmbeddedBubble(chart, frame, b, 0.07, grid=(8, 16), geodesic_steps=5, sector_nodes=4)
    measure_area(eb)
    measure_volumes(eb)
    measure_mean_curvature(eb, 0, measure.default_h_params(b, 0))
    assert columns == [1]


_CONE_CHARTS = {
    "euclidean": lambda dim: builtin_chart("euclidean", dim=dim),
    "sphere": lambda dim: builtin_chart("round_sphere", a=1.0, dim=dim),
    "product": lambda dim: builtin_chart("product", factors=[(dim - 1, 1.0), (1, math.inf)]),
    "bump": lambda dim: builtin_chart("conformal_bump", eps=-0.1, s=0.5, dim=dim),
}


@pytest.mark.parametrize("family", list(_CONE_CHARTS))
def test_straight_cones_match_geodesic_cones(family):
    # measure_volumes' straight chart cones against the signed geodesic cones
    # over the same sheets: the closed-form charts agree to rounding, the
    # bump to the 50-step RK4 error of the geodesic cones
    bound = 1e-9 if family == "bump" else 1e-14
    m3 = solve_standard_bubble(BubbleParams(3, 1.0, 3.0, 2.0))
    field = random_admissible_field(ASYM, np.random.default_rng(4), 0.25)
    tilted, left = (0.25, -0.4, 0.88), (0.0, 0.0, -1.0)
    cases = [
        (SYM, None, tilted, (12, 24), (0.2, 0.07)),
        (ASYM, None, tilted, (12, 24), (0.2, 0.07)),
        (ASYM, field, tilted, (12, 24), (0.2, 0.07)),
        (ASYM, field, left, (12, 24), (0.2, 0.07)),
        (m3, None, (0.1, 0.25, -0.4, -0.88), (16, 16), (0.2,)),
    ]
    for b, f, axis, grid, rhos in cases:
        dim = b.m + 1
        chart = _CONE_CHARTS[family](dim)
        frame = orthonormal_frame(chart, np.array([0.03, 0.12, -0.05, 0.08][-dim:]), np.array(axis))
        assert np.sign(np.linalg.det(frame.matrix)) == np.sign(axis[-1])
        for rho in rhos:
            eb = EmbeddedBubble(chart, frame, b, rho, perturbation=None if f is None else f.scaled(rho**2),
                                grid=grid, sector_nodes=8, geodesic_steps=50)
            ref = exact_models.geodesic_cone_volumes(eb, _exp_rays)
            for got, want in zip(measure_volumes(eb), ref):
                assert abs(got / want - 1.0) <= bound, (b.params, f is None, axis, rho, got, want)


def test_flat_measurements_exact():
    rho = 0.1
    for b in (SYM, ASYM):
        eb = EmbeddedBubble(EU, FRAME_EU, b, rho, grid=(32, 64), sector_nodes=10)
        areas = measure_area(eb)
        assert np.abs(areas / (rho**2 * np.array(b.sheet_areas)) - 1.0).max() <= 1e-10
        v1, v2 = measure_volumes(eb)
        assert abs(v1 / (rho**3 * b.v1) - 1.0) <= 1e-10
        assert abs(v2 / (rho**3 * b.v2) - 1.0) <= 1e-10
        assert measure_conormal_defect(eb) <= 1e-10
        for s in range(3):
            upper = b.polar_limit(s)
            h = measure_mean_curvature(eb, s, np.array([[0.5 * upper, 1.0]]))[0]
            if s == 0 and b.symmetric:
                assert abs(h) <= 1e-8
            else:
                assert abs(h - 2.0 / (rho * b.radii[s])) <= 1e-8


def test_flat_cone_volumes_exact_in_dims_3_and_4():
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
            # the neck's conormals at the grid's own angles, m = 2 and 3 alike
            assert measure_conormal_defect(eb) <= 1e-10


@pytest.mark.parametrize(
    "h,v1_ref,v2_ref",
    [
        ((1.0, 3.0, 2.0), 0.869605365900108, 3.948951533396914),
        ((0.0, 3.0, 3.0), 1.047779822502455, 1.047817296278144),
    ],
    ids=["asym", "sym"],
)
def test_cone_volumes_reproduce_stencil_cone_oracle_on_bump(h, v1_ref, v2_ref):
    # V / rho^3 from the exp-image cone oracle on finite-difference stencils
    # that the hemisphere rays replaced, at the same settings
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
            (0.8645555058023531, 3.923223030464151),
        ),
        (
            "conformal_bump",
            {"eps": -0.1, "s": 0.5},
            0.05,
            {"grid": (16, 32), "sector_nodes": 8, "geodesic_steps": 50},
            (0.8686477010510221, 3.948298894687936),
        ),
    ],
    ids=["sphere", "bump"],
)
def test_perturbed_cone_volumes_reproduce_prism_oracle(family, kw, rho, options, refs):
    # perturbed (V1, V2) / rho^3 from the hemisphere rays plus swept prisms
    # that the signed cones over the displaced sheets replaced, same settings
    chart = builtin_chart(family, dim=3, **kw)
    frame = orthonormal_frame(chart, np.array([0.12, -0.05, 0.08]), np.array([0.25, -0.4, 0.88]))
    field = random_admissible_field(ASYM, np.random.default_rng(1), 0.25).scaled(rho**2)
    eb = EmbeddedBubble(chart, frame, ASYM, rho, perturbation=field, **options)
    v1, v2 = measure_volumes(eb)
    assert v1 / rho**3 == pytest.approx(refs[0], rel=1e-10, abs=0)
    assert v2 / rho**3 == pytest.approx(refs[1], rel=1e-10, abs=0)


def test_left_handed_frame_gives_the_same_volumes():
    # the cones carry sign(det E): seed axes (0,0,1) and (0,0,-1) give frames
    # of opposite handedness and one and the same perturbed bubble
    field = random_admissible_field(ASYM, np.random.default_rng(4), 0.25).scaled(0.01)
    volumes = []
    for seed in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
        frame = orthonormal_frame(EU, np.zeros(3), np.array(seed))
        volumes.append(measure_volumes(
            EmbeddedBubble(EU, frame, ASYM, 0.1, perturbation=field, grid=(16, 32), sector_nodes=6)
        ))
    assert np.linalg.det(frame.matrix) < 0.0
    for right, left in zip(*volumes):
        assert left == pytest.approx(right, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "family,kw,perturbed,options,refs",
    [
        (
            "conformal_bump",
            {"eps": -0.1, "s": 0.5},
            False,
            {"grid": (16, 32), "sector_nodes": 8, "geodesic_steps": 50},
            {
                0.07: (1.3850048341522674, 3.3247291042470883, 11.081494350395685),
                0.05: (1.384773993323281, 3.3225737522454315, 11.057368907851346),
                0.035: (1.3846511299011532, 3.321406890976128, 11.044707287192594),
                0.025: (1.3845932707716921, 3.3208509356418787, 11.038829789480177),
            },
        ),
        (
            "conformal_bump",
            {"eps": -0.1, "s": 0.5},
            True,
            {"grid": (16, 32), "sector_nodes": 8, "geodesic_steps": 50},
            {0.05: (1.3839122220175042, 3.3198142624980083, 11.056808380866713)},
        ),
        (
            "round_sphere",
            {"a": 1.0},
            True,
            {"grid": (32, 64), "sector_nodes": 10, "geodesic_steps": 200},
            {0.1: (1.380526791680546, 3.303507400826327, 10.97390281828966)},
        ),
    ],
    ids=["bump", "perturbed-bump", "perturbed-sphere"],
)
def test_areas_reproduce_stencil_oracle(family, kw, perturbed, options, refs):
    # area / rho^2 per sheet from the 9-point stencils of the embedded sheet
    # through exp_map that the pushforward tangents replaced, same settings
    # (the bump's are the volumes_bump benchmark's, at its four rhos)
    chart = builtin_chart(family, dim=3, **kw)
    frame = orthonormal_frame(chart, np.array([0.12, -0.05, 0.08]), np.array([0.25, -0.4, 0.88]))
    for rho, ref in refs.items():
        field = None
        if perturbed:
            field = random_admissible_field(ASYM, np.random.default_rng(1), 0.25).scaled(rho**2)
        eb = EmbeddedBubble(chart, frame, ASYM, rho, perturbation=field, **options)
        assert measure_area(eb) / rho**2 == pytest.approx(ref, rel=1e-11, abs=0)


@pytest.mark.parametrize(
    "family,kw,steps,refs",
    [
        (
            "conformal_bump",
            {"eps": -0.1, "s": 0.5},
            50,
            {
                0.07: 0.003538051919988135,
                0.05: 0.0018050238449467508,
                0.035: 0.0008843553498804325,
                0.025: 0.00045114911313277433,
            },
        ),
        (
            "round_sphere",
            {"a": 1.0},
            200,
            {0.2: 0.02559731665186498, 0.1: 0.006422035500936658, 0.05: 0.0016069371415918187},
        ),
    ],
    ids=["perturbed-bump", "perturbed-sphere"],
)
def test_conormal_defect_reproduces_stencil_oracle(family, kw, steps, refs):
    # the perturbed conormal defect from one-sided stencils of the embedded
    # neck through exp_map that the pushforward tangents replaced, same
    # settings; the tolerance covers the stencils' eps/h roundoff
    chart = builtin_chart(family, dim=3, **kw)
    frame = orthonormal_frame(chart, np.array([0.12, -0.05, 0.08]), np.array([0.25, -0.4, 0.88]))
    for rho, ref in refs.items():
        field = random_admissible_field(ASYM, np.random.default_rng(5), 0.25).scaled(rho**2)
        eb = EmbeddedBubble(chart, frame, ASYM, rho, perturbation=field, grid=(16, 32), geodesic_steps=steps)
        assert measure_conormal_defect(eb) == pytest.approx(ref, rel=1e-6, abs=0)


def test_flat_pushforward_areas_exact_at_m3():
    # the pushforward tangents at m = 3 (n = 4): three Jacobi columns per
    # node, against the flat closed-form sheet areas
    rho = 0.1
    eu = builtin_chart("euclidean", dim=4)
    frame = orthonormal_frame(eu, np.zeros(4), np.eye(4)[-1])
    for h in ((0.0, 3.0, 3.0), (1.0, 3.0, 2.0)):
        b = solve_standard_bubble(BubbleParams(3, *h))
        eb = EmbeddedBubble(eu, frame, b, rho, grid=(16, 8), sector_nodes=4)
        areas = measure_area(eb)
        assert np.abs(areas / (rho**3 * np.array(b.sheet_areas)) - 1.0).max() <= 1e-10


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
    from doublebubble.fields import displaced_point_z

    for s in range(3):
        z, _, w = flat_rule(b.m, b.polar_limit(s), eb.model.grid)
        steps = exact_models.param_steps(b, s, 1e-4)
        area_ref = exact_models.surface_area(
            lambda zz, ss=s: rho * displaced_point_z(b, ss, zz), z, w, steps
        )
        assert areas[s] == pytest.approx(area_ref, rel=1e-9)
    v1, v2 = measure_volumes(eb)
    v1_ref, v2_ref = exact_models.chamber_volumes(rho, b.centers, b.radii, b.symmetric)
    assert v1 == pytest.approx(v1_ref, rel=1e-9)
    assert v2 == pytest.approx(v2_ref, rel=1e-9)


def test_exact_models_import_no_judged_module():
    # the independent checks may use the flat model (geometry) and the field
    # container, never the package modules whose numbers they judge
    imported = set()
    for node in ast.walk(ast.parse(Path(exact_models.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", alias.name) for alias in node.names}
    package = {(mod, name) for mod, name in imported if mod.split(".")[0] == "doublebubble"}
    allowed = {("doublebubble.fields", "PerturbationField"), ("doublebubble", "geometry")}
    for mod, name in package:
        assert mod == "doublebubble.geometry" or (mod, name) in allowed, (mod, name)


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
        v1, v2 = exact_models.monte_carlo_volumes(b, n_samples=10**6, seed=3)
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
    # samples must lie on the sheet, polar in (0, polar_limit]: the neck
    # itself is a sample; a point past it, the pole, where the angle
    # tangents vanish, and a point before it are refused
    eb = EmbeddedBubble(EU, FRAME_EU, ASYM, 0.1, grid=(16, 32))
    limit = ASYM.phi[1]
    assert np.isfinite(measure_mean_curvature(eb, 1, np.array([[limit, 1.0]]))).all()
    for polar in (np.nextafter(limit, 4.0), 0.0, -1e-12):
        with pytest.raises(ValueError):
            measure_mean_curvature(eb, 1, np.array([[polar, 1.0]]))
    # a sheet per point: the guard reads each point's own sheet
    z = np.array([[ASYM.polar_limit(0), 1.0], [np.nextafter(limit, 4.0), 1.0]])
    with pytest.raises(ValueError):
        measure_mean_curvature(eb, [0, 1], z)
    z[1, 0] = limit
    assert np.isfinite(measure_mean_curvature(eb, [0, 1], z)).all()


@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "field"])
@pytest.mark.parametrize(
    "family, kw, point, axis, steps",
    [
        ("round_sphere", {"a": 1.0}, (0.0, 0.0, 0.0), (0.3, -0.2, 0.9), 200),
        ("round_sphere", {"a": 1.0}, (0.0, 0.0, 0.0), (0.0, 0.0, -1.0), 200),
        ("conformal_bump", {"eps": -0.1, "s": 0.5}, (0.12, -0.05, 0.08), (0.25, -0.4, 0.88), 50),
        ("product", {}, (0.0, 0.0, 0.0), (0.3, -0.5, 0.81), 200),
    ],
    ids=["sphere", "sphere-left-handed", "bump-rk4", "product"],
)
def test_batched_h_rows_are_the_per_sheet_bits(family, kw, point, axis, steps, perturbed):
    # one call over the samples of all three sheets, each point with its own
    # sheet's stencil steps, in one exp_map call: every sheet's forms and
    # mean curvatures are those of a call for that sheet alone, bit for bit,
    # and interleaving the sheets changes nothing
    chart = builtin_chart(family, **kw)
    frame = curvature_at(chart, np.array(point), np.array(axis), nabla=False).frame
    assert (np.linalg.det(frame.matrix) < 0.0) == (axis == (0.0, 0.0, -1.0))
    for b in (SYM, ASYM):
        field = random_admissible_field(b, np.random.default_rng(5), 0.25) if perturbed else None
        eb = EmbeddedBubble(chart, frame, b, 0.07, perturbation=field and field.scaled(0.07**2),
                            grid=(8, 16), geodesic_steps=steps)
        zs = [measure.default_h_params(b, s) for s in range(3)]
        labels = np.repeat([0, 1, 2], [len(z) for z in zs])
        z = np.concatenate(zs)
        batched = measure_mean_curvature(eb, labels, z)
        gram, hmat = measure.measure_fundamental_forms(eb, labels, z)
        for s in range(3):
            assert np.array_equal(batched[labels == s], measure_mean_curvature(eb, s, zs[s]))
            alone = measure.measure_fundamental_forms(eb, s, zs[s])
            assert np.array_equal(gram[labels == s], alone[0])
            assert np.array_equal(hmat[labels == s], alone[1])
        order = np.random.default_rng(0).permutation(len(z))
        assert np.array_equal(measure_mean_curvature(eb, labels[order], z[order]), batched[order])


@pytest.mark.parametrize(
    "m, symmetric, perturbed",
    [(2, True, False), (2, True, True), (2, False, False), (2, False, True), (3, True, False), (3, False, False)],
    ids=["sym-plain", "sym-field", "asym-plain", "asym-field", "m3-sym-plain", "m3-asym-plain"],
)
def test_h_rows_on_a_left_handed_frame_pass(m, symmetric, perturbed):
    # the h-row normals take their side from sign(det E) and the flat
    # orientation sign det[N, d_z x]: on a frame with det E < 0 the measured
    # mean curvature keeps the closed form's sign, so every h fit passes
    # (with the det E factor dropped, the slopes read about 0), on round S^3
    # and, with the cofactor normal of three tangents, on round S^4
    chart = builtin_chart("round_sphere", a=1.0, dim=m + 1)
    axis = np.array([0.3, -0.2, -0.9] if m == 2 else [0.1, 0.2, -0.3, -0.9])
    assert np.linalg.det(curvature_at(chart, np.zeros(m + 1), axis, nabla=False).frame.matrix) < 0.0
    h1 = m + 1.0
    b = solve_standard_bubble(BubbleParams(m, *((0.0, h1, h1) if symmetric else (1.0, h1, h1 - 1.0))))
    field = random_admissible_field(b, np.random.default_rng(3), 0.25) if perturbed else None
    res = verify_many(chart, np.zeros(m + 1), axis, b, ["h0", "h1", "h2"], [0.2, 0.14, 0.1], grid=(8, 16),
                      perturbation=field)
    for q, (fit, _) in res.items():
        assert fit.passed, (q, fit.slope, fit.threshold)


def _held_to_the_stencil_reference(chart, frame, b, grid, rho, field, steps=200):
    # the h rows rho R_s H of every sheet at its default samples, and the
    # conormal defect, of the grid interpolant and of the stencil and neck
    # references of exact_models: the largest differences
    eb = EmbeddedBubble(chart, frame, b, rho, perturbation=field and field.scaled(rho**2), grid=grid,
                        geodesic_steps=steps)
    h_gap = 0.0
    for s in range(3):
        z = measure.default_h_params(b, s)
        gram, hmat = exact_models.stencil_fundamental_forms(eb, s, z, exp_map, christoffel)
        ref = np.einsum("nij,nij->n", np.linalg.inv(gram), hmat)
        scale = rho if (s == 0 and b.symmetric) else rho * b.radii[s]
        h_gap = max(h_gap, float(np.abs(scale * (measure_mean_curvature(eb, s, z) - ref)).max()))
    return h_gap, abs(measure_conormal_defect(eb) - exact_models.neck_conormal_defect(eb, exp_map, n_angles=grid[1]))


@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "field"])
@pytest.mark.parametrize("bubble", [SYM, ASYM], ids=["sym", "asym"])
@pytest.mark.parametrize(
    "family, kw, point, steps",
    [("round_sphere", {"a": 1.0}, (0.0, 0.0, 0.0), 200),
     ("conformal_bump", {"eps": -0.1, "s": 0.5}, (0.12, -0.05, 0.08), 20)],
    ids=["sphere", "bump-rk4"],
)
def test_h_rows_and_conormal_match_the_stencil_reference(family, kw, point, steps, bubble, perturbed):
    # the grid interpolant of the sheets' embedding against first
    # differences of rays around each sample, and the conormal defect at the
    # grid's own angles against rays of their own at those angles on the
    # neck: rho R_s H to 1e-10 and the conormal defect to 2e-12 absolute
    # (1.5e-12 on the asymmetric bump at 16 x 32, the polar nodes
    # extrapolated to the neck; <= 4e-15 at 32 x 64 and 48 x 96), at the
    # grids from CI's to the CLI default and the largest rho of the CI bump
    # sweeps, where the gaps are largest
    chart = builtin_chart(family, **kw)
    frame = curvature_at(chart, np.array(point), np.array([0.25, -0.4, 0.88]), nabla=False).frame
    field = random_admissible_field(bubble, np.random.default_rng(3), 0.05) if perturbed else None
    for grid in ((16, 32), (32, 64), (48, 96)):
        h_gap, conormal_gap = _held_to_the_stencil_reference(chart, frame, bubble, grid, 0.07, field, steps)
        assert h_gap <= 1e-10, (grid, h_gap)
        assert conormal_gap <= 2e-12, (grid, conormal_gap)


@pytest.mark.parametrize(
    "family, kw, point, grids, steps",
    [("round_sphere", {"a": 1.0, "dim": 4}, (0.0,) * 4, ((16, 32), (32, 64)), 200),
     ("product", {"factors": [(3, 1.0), (1, math.inf)]}, (0.0,) * 4, ((16, 32), (32, 64)), 200),
     ("product", {"factors": [(2, 1.0), (2, 1.0)]}, (0.0,) * 4, ((16, 32), (32, 64)), 200),
     ("conformal_bump", {"eps": -0.1, "s": 0.5, "dim": 4}, (0.12, -0.05, 0.08, 0.03), ((16, 32),), 20)],
    ids=["S4", "S3xR", "S2xS2", "bump-rk4"],
)
def test_m3_h_rows_match_the_stencil_reference(family, kw, point, grids, steps):
    # at m = 3 the interpolant pairs the azimuths beta and beta + pi across
    # the poles of the alpha direction, the alpha tangent with parity -1:
    # rho R_s H to 1e-10 of the stencil reference, on the RK4 bump at CI's
    # grid alone (8.6e-12 there; 5.0e-11 at 32 x 64, about 3 s per bubble);
    # the conormal defect at the grid's neck angles to 2e-12 of the neck
    # reference (6.2e-13 on the asymmetric bump)
    chart = builtin_chart(family, **kw)
    frame = curvature_at(chart, np.array(point), np.array([0.3, -0.2, 0.5, 0.8]), nabla=False).frame
    for h in ((0.0, 4.0, 4.0), (1.0, 4.0, 3.0)):
        b = solve_standard_bubble(BubbleParams(3, *h))
        for grid in grids:
            h_gap, conormal_gap = _held_to_the_stencil_reference(chart, frame, b, grid, 0.07, None, steps)
            assert h_gap <= 1e-10, (h, grid, h_gap)
            assert conormal_gap <= 2e-12, (h, grid, conormal_gap)


def test_h_rows_reach_the_neck():
    # the interpolant extrapolates the polar nodes to the neck, so samples at
    # polar_limit and within 2.5 steps of 1e-3 times the polar range of it
    # are measured: exact on the flat chart, and on the round sphere
    # following mean_curvature_terms at order rho^3
    rhos = [0.2, 0.14, 0.1, 0.07, 0.05]
    for b in (SYM, ASYM):
        samples = []
        for s in range(3):
            limit = b.polar_limit(s)
            polar = limit - limit * 2.5 * 10 * 1e-4 * np.array([0.0, 0.4, 0.8])
            samples.append(np.column_stack([polar, [0.3, 2.0, 4.5]]))
        labels = np.repeat([0, 1, 2], 3)
        z = np.concatenate(samples)
        flat = measure_mean_curvature(EmbeddedBubble(EU, FRAME_EU, b, 0.1, grid=(16, 32)), labels, z)
        target = np.array([0.0 if (s == 0 and b.symmetric) else 2.0 / (0.1 * b.radii[s]) for s in labels])
        assert np.abs(flat - target).max() <= 1e-8, b.params
        curv = curvature_at(SP, np.zeros(3), np.array([0.3, -0.2, 0.9]), nabla=False)
        model = measure.FlatModel(b, None, (16, 32), 200, 16)
        ebs = [EmbeddedBubble(SP, curv.frame, b, rho, grid=(16, 32), model=model) for rho in rhos]
        hvals = measure_mean_curvature(ebs, labels, z)
        for s in range(3):
            const, quad, _ = fields.mean_curvature_terms(b, s, curv, samples[s])
            scale = 1.0 if (s == 0 and b.symmetric) else b.radii[s]
            errors = [np.abs(rho * scale * h[labels == s] - const - rho**2 * quad).max()
                      for rho, h in zip(rhos, hvals)]
            fit = fit_order(rhos, errors, floor=CLAIMS[f"h{s}"].floor)
            assert fit.exact or fit.slope >= 2.7, (b.params, s, fit.slope)


@pytest.mark.parametrize("m", [2, 3])
def test_claims_pin_floors_and_orders(m):
    # the claims behind every verdict: the floors of an exact expansion, and
    # the claimed remainder orders, which the areas and volumes take from
    # their ExpansionTerms; a fit passes within 0.3 of its order
    assert {q: claim.floor for q, claim in CLAIMS.items()} == {
        "area": 1e-11, "v1": 1e-11, "v2": 1e-11, "vtot": 1e-11,
        "h0": 1e-10, "h1": 1e-10, "h2": 1e-10, "conormal": 1e-9, "phi": 1e-8,
    }
    orders = {
        "sym": {"area": 4, "v1": 3, "v2": 3, "vtot": 4, "h0": 3, "h1": 3, "h2": 3, "conormal": 2, "phi": 2},
        "asym": {"area": 3, "v1": 3, "v2": 3, "vtot": 3, "h0": 3, "h1": 3, "h2": 3, "conormal": 2, "phi": 1},
    }
    h1 = m + 1.0
    chart = builtin_chart("euclidean", dim=m + 1)
    axis = np.eye(m + 1)[-1]
    quantities = list(CLAIMS)
    for name, h in (("sym", (0.0, h1, h1)), ("asym", (1.0, h1, h1 - 1.0))):
        b = solve_standard_bubble(BubbleParams(m, *h))
        res = verify_many(chart, np.zeros(m + 1), axis, b, quantities, [0.2, 0.14, 0.1], grid=(8, 16),
                          sector_nodes=4)
        thresholds = {q: fit.threshold for q, (fit, _) in res.items()}
        assert thresholds == {q: orders[name][q] - 0.3 for q in quantities}, (m, name)


def _s3xr_h0_sweep(rhos):
    # the symmetric disk's h0 on S^3 x R, whose genuine errors fall from
    # 4.7e-9 at rho 0.07 to 7.7e-11 at 0.025 at order 4
    chart = builtin_chart("product", factors=[(3, 1.0), (1, math.inf)])
    b = solve_standard_bubble(BubbleParams(3, 0.0, 3.0, 3.0))
    return verify_many(chart, np.zeros(4), np.array([0.3, -0.2, 0.5, 0.8]), b, ["h0"], rhos, grid=(16, 32))["h0"][0]


def test_h_floor_lies_below_genuine_errors():
    # rho 0.07 to 0.035: every error lies above the h floor, so the sweep is
    # fitted at its order
    fit = _s3xr_h0_sweep([0.07, 0.05, 0.035])
    assert not fit.exact and fit.passed and fit.slope == pytest.approx(4.0, abs=0.1), fit.slope


def test_genuine_h_errors_below_2e9_do_not_read_exact():
    # rho 0.05 to 0.025: errors 1.2e-9 to 7.7e-11, two above the floor, so
    # no exact expansion, and too few errors above it to fit: NaN, a failure
    fit = _s3xr_h0_sweep([0.05, 0.035, 0.025])
    assert not fit.exact and not fit.passed and math.isnan(fit.slope)


def test_embedded_bubble_domain_guard():
    with pytest.raises(DomainExit):
        EmbeddedBubble(SP, FRAME_SP, ASYM, 3.0, grid=(16, 32))
    with pytest.raises(ValueError):
        EmbeddedBubble(SP, FRAME_SP, ASYM, -0.1)
    # a flat model serves only the bubble, field and resolution it was built for
    model = measure.FlatModel(ASYM, None, (16, 32), 200, 16)
    assert EmbeddedBubble(SP, FRAME_SP, ASYM, 0.1, grid=(16, 32), model=model).model is model
    with pytest.raises(ValueError):
        EmbeddedBubble(SP, FRAME_SP, SYM, 0.1, grid=(16, 32), model=model)
    with pytest.raises(ValueError):
        EmbeddedBubble(SP, FRAME_SP, ASYM, 0.1, grid=(8, 16), model=model)


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


def test_fit_order_is_exact_only_when_every_error_is_at_the_floor():
    # one error at the floor among larger ones is no exact expansion: the
    # fit takes the errors above the floor, and with fewer than 3 of them
    # its slope and r^2 are NaN and it fails whatever its threshold; a
    # sweep that converges into the floor is fitted on the errors above
    # it; every error at the floor is exact
    rhos = [0.2, 0.1, 0.05]
    mixed = fit_order(rhos, [1e-3, 0.0, 1e-5], floor=1e-11)
    assert not mixed.exact and not mixed.passed
    assert math.isnan(mixed.slope) and math.isnan(mixed.r_squared)
    assert not replace(mixed, threshold=1.7).passed
    tail = fit_order(rhos + [0.025], [7.0 * r**3 for r in rhos] + [1e-12], floor=1e-11)
    assert not tail.exact and tail.errors[-1] == 1e-12
    assert tail.slope == pytest.approx(3.0, abs=1e-10) and tail.r_squared == pytest.approx(1.0, abs=1e-12)
    exact = replace(fit_order(rhos, [1e-12, 0.0, 1e-11], floor=1e-11), threshold=2.7)
    assert exact.exact and exact.passed and math.isinf(exact.slope)


@pytest.mark.parametrize("m", [2, 3])
def test_sheet_orientation_is_one_sign_per_sheet(m):
    # sign det[N, d_z x] is constant on each flat sheet, so the FlatModel's
    # one sign per sheet, taken at one node, is _orientation's at every
    # flat_rule node and every default h sample: +, -, + at m = 2 and -, +,
    # - at m = 3, for both bubbles
    for h in ((0.0, m + 1.0, m + 1.0), (1.0, m + 1.0, float(m))):
        b = solve_standard_bubble(BubbleParams(m, *h))
        model = measure.FlatModel(b, None, (8, 16), 20, 4)
        assert [sh.orient for sh in model.sheets] == ([1.0, -1.0, 1.0] if m == 2 else [-1.0, 1.0, -1.0])
        for s, sh in enumerate(model.sheets):
            assert np.all(measure._orientation(b, s, *sh.jet[:2]) == sh.orient)
            x, dx = fields._sheet_jet(b, s, measure.default_h_params(b, s), None)[:2]
            assert np.all(measure._orientation(b, s, x, dx) == sh.orient)


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
        vals.append(phi_from_energy(measure_energy(eb), SYM, rho))
    assert abs(vals[0] - vals[1]) <= 1e-6


def _perturbed_sphere_sweep(quantities):
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
    )
    keys = ("rho", "oracle", "formula", "error", "slope_so_far")
    return {
        q: [float(v).hex() for v in (fit.slope, fit.r_squared)]
        + [float(row[k]).hex() for row in rows for k in keys]
        for q, (fit, rows) in result.items()
    }


def test_shared_sweep_matches_single_quantity_sweeps():
    quantities = [q for q in CLAIMS if q != "vtot"]
    shared = _perturbed_sphere_sweep(quantities)
    assert list(shared) == quantities
    for q in quantities:
        assert shared[q] == _perturbed_sphere_sweep([q])[q], q


@pytest.mark.parametrize(
    "family, kw, point, steps",
    [
        ("round_sphere", {"a": 1.0}, (0.0, 0.0, 0.0), 200),
        ("conformal_bump", {"eps": -0.1, "s": 0.5}, (0.12, -0.05, 0.08), 10),
    ],
    ids=["sphere", "bump-rk4"],
)
def test_stacked_sweep_is_each_rho_measured_alone(monkeypatch, family, kw, point, steps):
    # a perturbed sweep of the eight default quantities stacks the rays of
    # every rho into one exp_map call, the sheets', which the h rows and the
    # conormals read too, for 3 or 5 scales, and at every rho the bits of a
    # fresh bubble measured alone
    chart = builtin_chart(family, **kw)
    axis = np.array([0.25, -0.4, 0.88])
    field = random_admissible_field(ASYM, np.random.default_rng(3), 0.25)
    frame = curvature_at(chart, np.array(point), axis, nabla=False).frame
    quantities = [q for q in CLAIMS if q != "vtot"]
    calls, h_rows = [], []
    exp, mean_curvature = measure.exp_map, measure.measure_mean_curvature

    def counted(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)

    def recorded(ebs, sheet, z):
        h_rows.append((sheet, z, mean_curvature(ebs, sheet, z)))
        return h_rows[-1][2]

    monkeypatch.setattr(measure, "exp_map", counted)
    monkeypatch.setattr(measure, "measure_mean_curvature", recorded)
    scales = 0.5 * np.array([0.14, 0.1, 0.07, 0.05, 0.035])
    for rhos in (scales[:3], scales):
        calls.clear()
        h_rows.clear()
        res = verify_many(chart, np.array(point), axis, ASYM, quantities, rhos, grid=(8, 16),
                          geodesic_steps=steps, sector_nodes=4, perturbation=field)
        assert len(calls) == 1
        (labels, z, hvals), = h_rows
        for k, rho in enumerate(rhos):
            eb = EmbeddedBubble(chart, frame, ASYM, rho, perturbation=field.scaled(rho**2),
                                grid=(8, 16), geodesic_steps=steps, sector_nodes=4)
            v1, v2 = measure_volumes(eb)
            alone = {
                "area": float(np.sum(measure_area(eb))) / rho**2,
                "v1": v1 / rho**3,
                "v2": v2 / rho**3,
                "conormal": measure_conormal_defect(eb),
                "phi": phi_from_energy(measure_energy(eb), ASYM, rho),
            }
            for q, value in alone.items():
                assert res[q][1][k]["oracle"].hex() == value.hex(), (q, rho)
            assert np.array_equal(hvals[k], measure_mean_curvature(eb, labels, z)), rho


def test_m3_sweeps_pass_claimed_orders():
    # m = 3 through the verify record: round S^4 chart, the product S^3 x R,
    # whose Ric(s,s) differs from Sc/4 so that both curvature coefficients
    # count, and the products S^2 x S^2, S^2 x R^2 and S^2(1) x S^2(0.5),
    # whose Weyl tensors, unlike theirs, are not zero, which the h rows'
    # Rm(x, C, x, C) term sees; the conormal at the grid's own neck angles,
    # as at m = 2.  On S^2(1) x S^2(0.5) the asymmetric bubble
    # starts at rho = 0.14: at 0.2 it fails EmbeddedBubble's crude clearance
    # bound rho * extent * 1.5 (ROADMAP item 10)
    charts = {
        "round": builtin_chart("round_sphere", a=1.0, dim=4),
        "product": builtin_chart("product", factors=[(3, 1.0), (1, math.inf)]),
        "s2xs2": builtin_chart("product", factors=[(2, 1.0), (2, 1.0)]),
        "s2xr2": builtin_chart("product", factors=[(2, 1.0), (2, math.inf)]),
        "s2xs2_half": builtin_chart("product", factors=[(2, 1.0), (2, 0.5)]),
    }
    bubbles = {
        "sym": solve_standard_bubble(BubbleParams(3, 0.0, 4.0, 4.0)),
        "asym": solve_standard_bubble(BubbleParams(3, 1.0, 4.0, 3.0)),
    }
    for chart_name, chart in charts.items():
        for bubble_name, bubble in bubbles.items():
            rhos = [0.2, 0.14, 0.1, 0.07, 0.05]
            if (chart_name, bubble_name) == ("s2xs2_half", "asym"):
                rhos = [0.14, 0.1, 0.07, 0.05, 0.035]
            res = verify_many(
                chart,
                np.zeros(4),
                np.array([0.3, -0.2, 0.5, 0.8]),
                bubble,
                ["area", "v1", "v2", "vtot", "h0", "h1", "h2", "conormal", "phi"],
                rhos,
                grid=(16, 32),
                sector_nodes=8,
            )
            for q, (fit, _) in res.items():
                assert fit.passed, (chart_name, bubble_name, q, fit.slope, fit.threshold)


def test_volume_sweep_builds_the_chamber_expansions_once(monkeypatch):
    # v1, v2 and vtot read one pair of chamber expansions: vtot sums the
    # pair that v1 and v2 take, and keeps the symmetric remainder order 4
    calls = []
    chambers = expansions.geodesic_volumes_expansion

    def counted(bubble):
        calls.append(bubble)
        return chambers(bubble)

    monkeypatch.setattr(expansions, "geodesic_volumes_expansion", counted)
    for b, vtot_order in ((SYM, 4), (ASYM, 3)):
        calls.clear()
        res = verify_many(SP, np.zeros(3), np.array([0.25, -0.4, 0.88]), b, ["v1", "v2", "vtot"],
                          [0.2, 0.14, 0.1], grid=(8, 16), sector_nodes=4)
        assert calls == [b]
        assert res["vtot"][0].threshold == vtot_order - 0.3
