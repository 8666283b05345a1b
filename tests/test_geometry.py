import math

import numpy as np
import pytest

from doublebubble.fields import displaced_point_z
from doublebubble.geometry import (
    BubbleParams,
    FOUR_THIRDS_PI,
    TWO_THIRDS_PI,
    angles_to_dirs,
    conormals_at_neck,
    flat_metric,
    flat_rule,
    sheet_area,
    sheet_normal,
    sheet_point,
    sheet_tangents,
    sine_power_integral,
    solve_standard_bubble,
    unit_ball_volume,
)

import exact_models


def random_params(rng, m=2):
    h0 = rng.uniform(0.0, 3.0)
    h2 = rng.uniform(0.3, 3.0)
    return BubbleParams(m, h0, h0 + h2, h2)


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-15)
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        unit_ball_volume(-1)


def test_sine_power_integral_values():
    assert sine_power_integral(0, 0.7) == pytest.approx(0.7, abs=1e-16)
    assert sine_power_integral(1, TWO_THIRDS_PI) == pytest.approx(1.5, abs=1e-14)
    # closed-form antiderivative cos^3/3 - cos at the endpoints
    assert sine_power_integral(3, TWO_THIRDS_PI) == pytest.approx(9.0 / 8.0, abs=1e-14)
    assert sine_power_integral(5, TWO_THIRDS_PI) == pytest.approx(153.0 / 160.0, abs=1e-14)
    with pytest.raises(ValueError):
        sine_power_integral(2, 4.0)
    with pytest.raises(ValueError):
        sine_power_integral(-1, 1.0)


def test_sine_power_integral_against_quadrature():
    t, w = np.polynomial.legendre.leggauss(200)
    for k in range(0, 8):
        for x in [1e-6, 1e-3, 0.05, 0.3, 0.9, 2.0, math.pi - 0.1]:
            nodes = 0.5 * x * (t + 1.0)
            ref = 0.5 * x * float(np.sum(w * np.sin(nodes) ** k))
            assert sine_power_integral(k, x) == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_sine_power_recursion_identity():
    # I_(m+1) = (1 + 1/(m+2)) I_(m+3) + sin^(m+2) cos / (m+2)
    for m in (1, 2, 3):
        for x in np.linspace(0.1, math.pi - 0.05, 9):
            lhs = sine_power_integral(m + 1, x)
            rhs = (1.0 + 1.0 / (m + 2)) * sine_power_integral(m + 3, x) + math.sin(x) ** (
                m + 2
            ) * math.cos(x) / (m + 2)
            assert abs(lhs - rhs) <= 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        BubbleParams(2, 1.0, 2.0, 2.0)  # balance violated
    with pytest.raises(ValueError):
        BubbleParams(2, 0.0, 3.0, -1.0)
    with pytest.raises(ValueError):
        BubbleParams(0, 0.0, 1.0, 1.0)
    assert BubbleParams(2, 0.0, 3.0, 3.0).symmetric
    assert not BubbleParams(2, 1.0, 3.0, 2.0).symmetric


def test_symmetric_solution_matches_closed_forms():
    b = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
    assert b.radii[0] == math.inf and b.symmetric
    assert b.radii[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert b.phi[1] == pytest.approx(TWO_THIRDS_PI, abs=1e-15)
    assert b.neck_radius == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-15)
    assert b.centers[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert b.centers[2] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert b.v1 == pytest.approx(math.pi / 3.0, rel=1e-14)
    assert b.v2 == b.v1
    assert b.sheet_areas[0] == pytest.approx(math.pi / 3.0, rel=1e-14)
    assert b.sheet_areas[1] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_asymmetric_example_triple():
    b = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
    assert b.radii == pytest.approx((2.0, 2.0 / 3.0, 1.0))
    assert b.phi[0] == pytest.approx(0.33347, abs=5e-5)
    assert b.phi[1] == pytest.approx(1.76088, abs=5e-5)
    assert b.phi[2] == pytest.approx(2.42787, abs=5e-5)
    assert b.neck_radius == pytest.approx(0.65465, abs=1e-5)
    assert b.v1 < b.v2


def test_invariants_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = random_params(rng)
        b = solve_standard_bubble(p)
        r = b.neck_radius
        for s in range(3):
            if s == 0 and b.symmetric:
                continue
            assert abs(b.radii[s] * math.sin(b.phi[s]) - r) <= 1e-12
        assert abs(b.phi[0] + b.phi[1] - TWO_THIRDS_PI) <= 1e-12
        assert abs(b.phi[1] + b.phi[2] - FOUR_THIRDS_PI) <= 1e-12
        assert abs(math.sin(b.phi[1]) - math.sin(b.phi[0]) - math.sin(b.phi[2])) <= 1e-12
        nu = conormals_at_neck(b)
        assert np.linalg.norm(nu.sum(axis=0)) <= 1e-12
        # pairwise angles 120 degrees
        for i in range(3):
            for j in range(i + 1, 3):
                assert nu[i] @ nu[j] == pytest.approx(-0.5, abs=1e-12)
        assert b.v1 <= b.v2 + 1e-12


def test_symmetric_limit_continuity():
    ref = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
    prev = None
    for h0 in (1e-2, 1e-3, 1e-4):
        b = solve_standard_bubble(BubbleParams(2, h0, 3.0 + h0, 3.0))
        gap = max(
            abs(b.phi[1] - ref.phi[1]),
            abs(b.neck_radius - ref.neck_radius),
            abs(b.v1 - ref.v1),
            abs(b.v2 - ref.v2),
        )
        if prev is not None:
            assert gap < prev  # Cauchy decrease toward the symmetric bubble
        prev = gap
    # the gap closes linearly in h0; at 1e-4 it sits just above 1e-4 absolute
    assert prev < 2e-4


def test_neck_normal_identity():
    # N1 = N0 + N2 at the neck, both branches
    for params in (BubbleParams(2, 0.0, 3.0, 3.0), BubbleParams(2, 1.0, 3.0, 2.0)):
        b = solve_standard_bubble(params)
        dirs = np.array([[math.cos(0.7), math.sin(0.7)]])
        n1 = sheet_normal(b, 1, np.array([b.phi[1]]), dirs)
        n2 = sheet_normal(b, 2, np.array([b.phi[2]]), dirs)
        pol0 = np.array([b.polar_limit(0)])
        n0 = sheet_normal(b, 0, pol0, dirs)
        assert np.abs(n1 - (n0 + n2)).max() <= 1e-12


def test_sheet_points_meet_at_neck():
    b = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
    dirs = np.array([[1.0, 0.0], [0.0, -1.0]])
    pts = [
        sheet_point(b, s, np.full(2, b.phi[s]), dirs) for s in range(3)
    ]
    assert np.abs(pts[0] - pts[1]).max() <= 1e-14
    assert np.abs(pts[2] - pts[1]).max() <= 1e-14


def test_flat_rule_weights_reproduce_area():
    # z-weights times the closed-form flat area element reproduce each sheet
    # area, caps and disk, and sheet_normal gives unit normals at the nodes
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        b = solve_standard_bubble(random_params(rng, m=m))
        for bb in (b, solve_standard_bubble(BubbleParams(m, 0.0, 3.0, 3.0))):
            for s in range(3):
                z, dirs, w = flat_rule(m, bb.polar_limit(s), (24, 48))
                g, _ = flat_metric(bb, s, z)
                exact = sheet_area(bb, s)
                assert abs(np.sum(w * np.sqrt(np.linalg.det(g))) - exact) <= 1e-10 * exact
                normals = sheet_normal(bb, s, z[:, 0], dirs)
                assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-12
                if m > 1:
                    # the angles of z and the directions name the same points
                    pts = sheet_point(bb, s, z[:, 0], dirs)
                    assert np.abs(displaced_point_z(bb, s, z) - pts).max() <= 1e-14
    # the symmetric disk's rule covers radius (0, r); no sphere rule past m = 3
    b = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
    z, _, _ = flat_rule(2, b.polar_limit(0), (16, 32))
    assert z[:, 0].min() > 0.0 and z[:, 0].max() < b.neck_radius
    with pytest.raises(ValueError):
        flat_rule(4, 1.0, (8, 8))


def test_sheet_normal_has_the_shape_of_sheet_point():
    b = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
    dirs = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
    polar = np.array([0.1, 0.2, 0.3])
    for s in range(3):
        nrm = sheet_normal(b, s, polar, dirs)
        assert nrm.shape == sheet_point(b, s, polar, dirs).shape == (3, 3)
        assert np.abs(np.linalg.norm(nrm, axis=-1) - 1.0).max() <= 1e-14
    # on the disk polar and dirs broadcast against each other either way
    for pol, d in ((0.3, dirs), (polar, dirs[0])):
        assert sheet_normal(b, 0, pol, d).shape == sheet_point(b, 0, pol, d).shape == (3, 3)


@pytest.mark.parametrize("m", [2, 3])
def test_sheet_tangents_are_the_closed_form_derivatives(m):
    # on every sheet of the symmetric and an asymmetric bubble: T T^T is the
    # flat metric, T is normal-free and matches the stencil of sheet_point
    for h in ((0.0, 3.0, 3.0), (1.0, 3.0, 2.0)):
        b = solve_standard_bubble(BubbleParams(m, *h))
        for s in range(3):
            z, dirs, _ = flat_rule(m, b.polar_limit(s), (8, 8))
            t = sheet_tangents(b, s, z)
            assert t.shape == (len(z), m, m + 1)
            g, _ = flat_metric(b, s, z)
            assert np.abs(np.einsum("...ik,...jk->...ij", t, t) - g).max() <= 1e-13
            normal = sheet_normal(b, s, z[:, 0], dirs)
            assert np.abs(np.einsum("...ik,...k->...i", t, normal)).max() <= 1e-13

            def point(zz, s=s):
                return sheet_point(b, s, zz[..., 0], angles_to_dirs(m, zz[..., 1:]))

            _, d1, _ = exact_models.stencil(point, z, exact_models.param_steps(b, s))
            assert np.abs(t - d1).max() <= 1e-10
