"""Closed-form small-scale expansions for geodesic double bubbles.

Every quantity refers to the geodesic double bubble Exp_p(rho * Sigma) built
from a standard bubble Sigma, a point p and a unit axis s (the last frame
vector).  Expansions are organized as

    leading + rho^2 (sc_coeff * Sc(p) + ric_coeff * Ric_p(s, s)) + remainder,

with the normalization rho^-(m+1) for enclosed volumes and rho^-m for areas.
The leading terms are the flat sheet areas |S_s| and region volumes |P_s|
that solve_standard_bubble stores on the bubble (sheet_areas,
region_volumes).  The curvature convention matches charts.py (Ric positive
on round spheres).

Two families of reduced-energy constants are provided:

  * reduced_constants: the classical closed forms (A, B) built from the
    sine-power integrals; these are the values the CLI `constants` command
    reports and that the documented identities pin down exactly
    (A_sym(2) = 2.86875, B_sym(2) = 0.984375).
  * phi_limit_constants: the constants the measured rescaled energy actually
    converges to.  The axis-dependent coefficient cancels identically: the
    per-sheet terms are proportional to r^(m+2) cos(phi_s) and the conormal
    balance makes their sum vanish, so B_limit = 0 and only the scalar
    curvature moves the leading energy.  See README for the discussion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    StandardBubble,
    TWO_THIRDS_PI,
    gauss_legendre,
    sine_power_integral,
    unit_ball_volume,
)


@dataclass(frozen=True)
class ExpansionTerms:
    """leading + rho^2 (sc_coeff Sc + ric_coeff Ric(s,s)), remainder O(rho^remainder_order)."""

    leading: float
    sc_coeff: float
    ric_coeff: float
    remainder_order: int

    def value(self, sc: float, ric_ss: float, rho: float) -> float:
        return self.leading + rho**2 * (self.sc_coeff * sc + self.ric_coeff * ric_ss)

    def __add__(self, other: "ExpansionTerms") -> "ExpansionTerms":
        return ExpansionTerms(
            self.leading + other.leading,
            self.sc_coeff + other.sc_coeff,
            self.ric_coeff + other.ric_coeff,
            min(self.remainder_order, other.remainder_order),
        )

    def __neg__(self) -> "ExpansionTerms":
        return ExpansionTerms(-self.leading, -self.sc_coeff, -self.ric_coeff, self.remainder_order)

    def __sub__(self, other: "ExpansionTerms") -> "ExpansionTerms":
        return self + (-other)


@dataclass(frozen=True)
class ReducedConstants:
    """Leading reduced-energy constants; per_sheet holds the (a_s, b_s) pairs
    normalized so that A = sum R_s^(m+2) a_s over finite-radius sheets."""

    a: float
    b: float
    per_sheet: tuple[tuple[float, float], ...]
    symmetric: bool


# ---------------------------------------------------------------------------
# enclosed-volume expansions


def cap_volume_expansion(bubble: StandardBubble, sheet: int) -> ExpansionTerms:
    """rho^-(m+1) vol of the region P_s between cap `sheet` and the neck disk:

      |P_s| - (rho^2/6) omega_m R^(m+3) [ I_(m+3)/(m+2) * Sc
              + ((m+3)/(m+2) I_(m+3) - I_(m+1) sin^2 phi) * Ric(s,s) ] + O(rho^3).
    """
    if sheet == 0 and bubble.symmetric:
        raise ValueError("sheet 0 of a symmetric bubble is the flat disk, not a cap")
    m = bubble.m
    om = unit_ball_volume(m)
    r_s = bubble.radii[sheet]
    phi = bubble.phi[sheet]
    i_m1 = sine_power_integral(m + 1, phi)
    i_m3 = sine_power_integral(m + 3, phi)
    pref = -(om / 6.0) * r_s ** (m + 3)
    return ExpansionTerms(
        leading=bubble.region_volumes[sheet],
        sc_coeff=pref * i_m3 / (m + 2),
        ric_coeff=pref * ((m + 3) / (m + 2) * i_m3 - i_m1 * math.sin(phi) ** 2),
        remainder_order=3,
    )


def geodesic_volumes_expansion(bubble: StandardBubble) -> tuple[ExpansionTerms, ExpansionTerms]:
    """Expansions of rho^-(m+1) (V1, V2) by signed region assembly.

    V1 = P1 + P0 and V2 = P2 - P0.  Each chamber individually has an O(rho^3)
    remainder; the central symmetry that kills the cubic term in the
    symmetric case applies to the full bubble, i.e. to V1 + V2 (see
    total_volume_expansion), not to either chamber alone.
    """
    t1 = cap_volume_expansion(bubble, 1)
    t2 = cap_volume_expansion(bubble, 2)
    if bubble.symmetric:
        return t1, t2
    t0 = cap_volume_expansion(bubble, 0)
    return t1 + t0, t2 - t0


def total_volume_expansion(bubble: StandardBubble, chambers=None) -> ExpansionTerms:
    """rho^-(m+1) (V1 + V2); remainder O(rho^4) in the symmetric case, where
    the cubic term integrates an odd function over a centrally symmetric
    bubble.  chambers is the pair of geodesic_volumes_expansion when the
    caller has built it already."""
    t1, t2 = geodesic_volumes_expansion(bubble) if chambers is None else chambers
    tot = t1 + t2
    if bubble.symmetric:
        return ExpansionTerms(tot.leading, tot.sc_coeff, tot.ric_coeff, 4)
    return tot


# ---------------------------------------------------------------------------
# area expansions


def sheet_area_expansion(bubble: StandardBubble, sheet: int) -> ExpansionTerms:
    """rho^-m area of one embedded sheet.

    Cap:   |S| - (rho^2/6) omega_m R^(m+2) [ I_(m+1) * Sc
               + (m cos^2 phi I_(m+1) - sin^(m+2) phi cos phi) * Ric(s,s) ].
    Disk:  omega_m r^m - rho^2 omega_m r^(m+2)/(6(m+2)) * (Sc - 2 Ric(s,s)).

    The Ric coefficient carries the tangential-trace correction (the ambient
    trace minus the normal-normal component).
    """
    m = bubble.m
    om = unit_ball_volume(m)
    if sheet == 0 and bubble.symmetric:
        r = bubble.neck_radius
        pref = -om * r ** (m + 2) / (6.0 * (m + 2))
        return ExpansionTerms(
            leading=bubble.sheet_areas[0],
            sc_coeff=pref,
            ric_coeff=-2.0 * pref,
            remainder_order=4,
        )
    r_s = bubble.radii[sheet]
    phi = bubble.phi[sheet]
    i_m1 = sine_power_integral(m + 1, phi)
    pref = -(om / 6.0) * r_s ** (m + 2)
    ric = m * math.cos(phi) ** 2 * i_m1 - math.sin(phi) ** (m + 2) * math.cos(phi)
    return ExpansionTerms(
        leading=bubble.sheet_areas[sheet],
        sc_coeff=pref * i_m1,
        ric_coeff=pref * ric,
        remainder_order=4 if bubble.symmetric else 3,
    )


def geodesic_area_expansion(bubble: StandardBubble) -> tuple[list[ExpansionTerms], ExpansionTerms]:
    """Per-sheet expansions and their total for rho^-m area of the bubble."""
    per_sheet = [sheet_area_expansion(bubble, s) for s in range(3)]
    total = per_sheet[0] + per_sheet[1] + per_sheet[2]
    return per_sheet, total


# ---------------------------------------------------------------------------
# reduced-energy constants


def _quad(fun, a: float, b: float, n: int) -> float:
    """Gauss-Legendre quadrature of fun over [a, b] with n nodes."""
    t, w = gauss_legendre(n)
    x = 0.5 * (b - a) * (t + 1.0) + a
    return 0.5 * (b - a) * float(np.sum(w * fun(x)))


def _cap_ab(m: int, phi: float, ik) -> tuple[float, float]:
    """Per-cap reduced-energy pair (a_s, b_s) at opening angle phi, with
    ik(k, x) the sine-power integral I_k(x)."""
    i_m1 = ik(m + 1, phi)
    i_m3 = ik(m + 3, phi)
    a = i_m1 + m * i_m3 / (m + 2)
    b = (2 * m + 1) * i_m1 - (2 * m + 2) / (m + 2) * math.sin(phi) ** (m + 2) * math.cos(phi)
    return a, b


def reduced_constants(bubble: StandardBubble, quadrature: bool = False) -> ReducedConstants:
    """Classical reduced-energy constants (A, B).

    Asymmetric: A = sum_s R_s^(m+2) a_s with a_s = I_(m+1) + m I_(m+3)/(m+2)
    and b_s = (2m+1) I_(m+1) - (2m+2)/(m+2) sin^(m+2) cos.  Symmetric: the
    dedicated closed forms

      A_sym = (1/(m+2)) (sqrt3/2)^(m+2) + 2 I_(m+1)(2pi/3) + m I_(m+3)(2pi/3)/(m+2)
      B_sym = (m/2) I_(m-1)(2pi/3) + (2m+1)/(2m+4) (sqrt3/2)^m
              - (3m/2) I_(m+1)(2pi/3) + m(m+3)/(m+2) I_(m+3)(2pi/3),

    returned scaled by R^(m+2).  With quadrature=True the sine-power integrals
    are evaluated by Gauss-Legendre instead of the closed-form recursion, as
    an independent route to the same numbers.
    """
    m = bubble.m

    def ik(k, x):
        if quadrature:
            return _quad(lambda t: np.sin(t) ** k, 0.0, x, n=80)
        return sine_power_integral(k, x)

    if bubble.symmetric:
        r = bubble.radii[1]
        x = TWO_THIRDS_PI
        half3 = math.sqrt(3.0) / 2.0
        a_sym = (1.0 / (m + 2)) * half3 ** (m + 2) + 2.0 * ik(m + 1, x) + m * ik(m + 3, x) / (m + 2)
        b_sym = (
            (m / 2.0) * ik(m - 1, x)
            + (2 * m + 1) / (2 * m + 4) * half3**m
            - (3 * m / 2.0) * ik(m + 1, x)
            + m * (m + 3) / (m + 2) * ik(m + 3, x)
        )
        a_cap, b_cap = _cap_ab(m, x, ik)
        disk = ((1.0 / (m + 2)) * half3 ** (m + 2), -(1.0 / (m + 2)) * half3 ** (m + 2))
        return ReducedConstants(
            a=r ** (m + 2) * a_sym,
            b=r ** (m + 2) * b_sym,
            per_sheet=(disk, (a_cap, b_cap), (a_cap, b_cap)),
            symmetric=True,
        )
    pairs = [_cap_ab(m, bubble.phi[s], ik) for s in range(3)]
    a_tot = b_tot = 0.0
    for s, (a_s, b_s) in enumerate(pairs):
        a_tot += bubble.radii[s] ** (m + 2) * a_s
        b_tot += bubble.radii[s] ** (m + 2) * b_s
    return ReducedConstants(a=a_tot, b=b_tot, per_sheet=tuple(pairs), symmetric=False)


def phi_limit_constants(bubble: StandardBubble) -> ReducedConstants:
    """Constants matching the measured limit of the rescaled energy.

    Per spherical sheet the scalar-curvature weight is
    R^(m+2) (m I_(m+3)/(m+2) - I_(m+1)) and the axis weight is
    (2/(m+2)) r^(m+2) cos(phi_s); the disk contributes
    (-r^(m+2)/(m+2), +2 r^(m+2)/(m+2)).  The axis weights sum to zero by the
    conormal balance (sum of cos(phi_s) vanishes), so b = 0 identically and
    the measured leading energy is Sc(p) * a.
    """
    m = bubble.m
    pairs = []
    a_tot = 0.0
    b_tot = 0.0
    r = bubble.neck_radius
    for s in range(3):
        if s == 0 and bubble.symmetric:
            a_s = -(r ** (m + 2)) / (m + 2)
            b_s = 2.0 * r ** (m + 2) / (m + 2)
        else:
            phi = bubble.phi[s]
            r_s = bubble.radii[s]
            a_s = r_s ** (m + 2) * (
                m * sine_power_integral(m + 3, phi) / (m + 2) - sine_power_integral(m + 1, phi)
            )
            b_s = (2.0 / (m + 2)) * r ** (m + 2) * math.cos(phi)
        pairs.append((a_s, b_s))
        a_tot += a_s
        b_tot += b_s
    # b_tot vanishes analytically; store the exact zero so predictions are clean
    if abs(b_tot) >= 1e-10 * max(1.0, abs(a_tot)):
        raise ValueError(
            f"axis weights sum to {b_tot:.3e}, not 0: the bubble's angles violate the conormal balance"
        )
    return ReducedConstants(a=a_tot, b=0.0, per_sheet=tuple(pairs), symmetric=bubble.symmetric)


def reduced_functional_leading(sc: float, ric_ss: float, consts: ReducedConstants) -> float:
    """Leading reduced energy Sc(p) A - Ric_p(s,s) B for the given constants."""
    return sc * consts.a - ric_ss * consts.b


# ---------------------------------------------------------------------------
# rescaled energy from oracle measurements


def flat_energy_reference(bubble: StandardBubble) -> float:
    """Flat-model value of rho^-m Psi: sum_s (|S_s| - (m/R_s) |P_s|), from
    the bubble's stored sheet_areas and region_volumes.

    The disk contributes its bare area (P0 = 0 in the symmetric case).
    """
    m = bubble.m
    total = 0.0
    for s in range(3):
        total += bubble.sheet_areas[s]
        if not (s == 0 and bubble.symmetric):
            total -= (m / bubble.radii[s]) * bubble.region_volumes[s]
    return total


def phi_from_energy(psi: float, bubble: StandardBubble, rho: float) -> float:
    """Rescaled two-volume energy 6/(omega_m rho^2) (rho^-m Psi - flat reference).

    `psi` is the two-volume energy of Exp_p(rho * bubble) as measured by
    measure.measure_energy; flat ambient gives zero up to quadrature error.
    """
    m = bubble.m
    return 6.0 / (unit_ball_volume(m) * rho**2) * (psi / rho**m - flat_energy_reference(bubble))
