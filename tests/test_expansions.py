import dataclasses
import math

import numpy as np
import pytest

from doublebubble.expansions import (
    ExpansionTerms,
    cap_volume_expansion,
    flat_energy_reference,
    geodesic_area_expansion,
    geodesic_volumes_expansion,
    phi_from_energy,
    phi_limit_constants,
    reduced_constants,
    reduced_functional_leading,
    sheet_area_expansion,
    total_volume_expansion,
)
from doublebubble.geometry import BubbleParams, TWO_THIRDS_PI, sine_power_integral, solve_standard_bubble

from exact_models import assembled_constants, cap_area_coefficients_quad, cap_volume_coefficients_quad

SYM = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
ASYM = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
R4 = (2.0 / 3.0) ** 4


def test_flat_expansion_values():
    for b in (SYM, ASYM):
        t1, t2 = geodesic_volumes_expansion(b)
        assert t1.value(0.0, 0.0, 0.3) == pytest.approx(b.v1, rel=1e-14)
        assert t2.value(0.0, 0.0, 0.3) == pytest.approx(b.v2, rel=1e-14)
        per_sheet, total = geodesic_area_expansion(b)
        assert total.value(0.0, 0.0, 0.1) == pytest.approx(sum(b.sheet_areas), rel=1e-14)
        for s in range(3):
            assert per_sheet[s].value(0.0, 0.0, 0.5) == pytest.approx(b.sheet_areas[s], rel=1e-14)


def test_per_sheet_sums_equal_total():
    for b in (SYM, ASYM):
        per_sheet, total = geodesic_area_expansion(b)
        sc = sum(t.sc_coeff for t in per_sheet)
        ric = sum(t.ric_coeff for t in per_sheet)
        assert sc == pytest.approx(total.sc_coeff, abs=1e-14)
        assert ric == pytest.approx(total.ric_coeff, abs=1e-14)


def test_symmetric_volume_sheet_matches_cap_formula():
    # symmetric sheet 1 coefficients are the generic cap formula at 2 pi / 3
    t = cap_volume_expansion(SYM, 1)
    m, rr = 2, 2.0 / 3.0
    om = math.pi
    i5 = sine_power_integral(5, TWO_THIRDS_PI)
    i3 = sine_power_integral(3, TWO_THIRDS_PI)
    assert t.sc_coeff == pytest.approx(-(om / 6.0) * rr**5 * i5 / 4.0, rel=1e-14)
    beta = (5.0 / 4.0) * i5 - i3 * math.sin(TWO_THIRDS_PI) ** 2
    assert t.ric_coeff == pytest.approx(-(om / 6.0) * rr**5 * beta, rel=1e-14)
    with pytest.raises(ValueError):
        cap_volume_expansion(SYM, 0)


def test_remainder_orders():
    t1, t2 = geodesic_volumes_expansion(ASYM)
    assert t1.remainder_order == 3 and t2.remainder_order == 3
    assert total_volume_expansion(SYM).remainder_order == 4
    _, total_sym = geodesic_area_expansion(SYM)
    _, total_asym = geodesic_area_expansion(ASYM)
    assert total_sym.remainder_order == 4
    assert total_asym.remainder_order == 3


def test_coefficients_against_independent_quadrature():
    for b in (SYM, ASYM):
        for s in range(3):
            ta = sheet_area_expansion(b, s)
            qs, qr = cap_area_coefficients_quad(b, s)
            assert ta.sc_coeff == pytest.approx(qs, abs=1e-10)
            assert ta.ric_coeff == pytest.approx(qr, abs=1e-10)
            if s == 0 and b.symmetric:
                continue
            tv = cap_volume_expansion(b, s)
            qs, qr = cap_volume_coefficients_quad(b, s)
            assert tv.sc_coeff == pytest.approx(qs, abs=1e-10)
            assert tv.ric_coeff == pytest.approx(qr, abs=1e-10)


def test_reduced_constants_pinned_values():
    rc = reduced_constants(SYM)
    assert rc.a / R4 == pytest.approx(2.86875, abs=1e-12)
    assert rc.b / R4 == pytest.approx(0.984375, abs=1e-12)
    rq = reduced_constants(SYM, quadrature=True)
    assert abs(rc.a - rq.a) <= 1e-10
    assert abs(rc.b - rq.b) <= 1e-10


def test_reduced_constants_asymmetric_assembly():
    rc = reduced_constants(ASYM)
    total_a = sum(ASYM.radii[s] ** 4 * rc.per_sheet[s][0] for s in range(3))
    total_b = sum(ASYM.radii[s] ** 4 * rc.per_sheet[s][1] for s in range(3))
    assert rc.a == pytest.approx(total_a, rel=1e-14)
    assert rc.b == pytest.approx(total_b, rel=1e-14)
    assert rc.a > 0.0


def test_assembled_constants_continuity():
    target_a, target_b = assembled_constants(SYM)
    prev = None
    for h0 in (1e-2, 1e-3, 1e-4):
        rc = reduced_constants(solve_standard_bubble(BubbleParams(2, h0, 3.0 + h0, 3.0)))
        gap = max(abs(rc.a - target_a) / abs(target_a), abs(rc.b - target_b) / abs(target_b))
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev <= 1e-4


def test_phi_limit_constants_axis_weight_cancels():
    rng = np.random.default_rng(9)
    for _ in range(10):
        h0 = rng.uniform(0.0, 3.0)
        h2 = rng.uniform(0.3, 3.0)
        b = solve_standard_bubble(BubbleParams(2, h0, h0 + h2, h2))
        pl = phi_limit_constants(b)
        assert pl.b == 0.0
        assert pl.a < 0.0  # energy decreases where Sc grows
        assert abs(sum(p[1] for p in pl.per_sheet)) <= 1e-12 * abs(pl.a)
    # symmetric closed form: a = -6 I_(m+3)(2 pi/3) / (m+2) * R^(m+2)
    pl = phi_limit_constants(SYM)
    assert pl.a / R4 == pytest.approx(-6.0 * sine_power_integral(5, TWO_THIRDS_PI) / 4.0, rel=1e-13)


def test_phi_limit_constants_rejects_unbalanced_bubble():
    phi = (ASYM.phi[0] + 0.1, ASYM.phi[1], ASYM.phi[2])
    with pytest.raises(ValueError, match="conormal balance"):
        phi_limit_constants(dataclasses.replace(ASYM, phi=phi))


def test_reduced_functional_leading_arithmetic():
    consts = reduced_constants(SYM)
    val = reduced_functional_leading(6.0, 2.0, consts)
    assert val == pytest.approx(6.0 * R4 * 2.86875 - 2.0 * R4 * 0.984375, rel=1e-14)
    # isotropic Ricci makes the value axis independent
    pl = phi_limit_constants(SYM)
    assert reduced_functional_leading(6.0, 2.0, pl) == reduced_functional_leading(6.0, 2.0, pl)


def test_phi_from_energy_flat_reference_and_provenance():
    rho = 0.1
    ref = flat_energy_reference(SYM)
    assert phi_from_energy(ref * rho**2, SYM, rho) == pytest.approx(0.0, abs=1e-12)


def test_expansion_terms_algebra():
    a = ExpansionTerms(1.0, 2.0, 3.0, 3)
    b = ExpansionTerms(0.5, -1.0, 1.0, 4)
    c = a + b
    assert (c.leading, c.sc_coeff, c.ric_coeff, c.remainder_order) == (1.5, 1.0, 4.0, 3)
    d = a - b
    assert (d.leading, d.sc_coeff, d.ric_coeff) == (0.5, 3.0, 2.0)
    assert a.value(2.0, 1.0, 0.1) == pytest.approx(1.0 + 0.01 * (4.0 + 3.0))
