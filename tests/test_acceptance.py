"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Desk scale throughout: m = 2, ambient dimension 3.

Convergence-order criteria compare the numerical oracle against the closed
forms over decreasing-scale sweeps and fit log-log slopes; fits on sweeps
whose errors sit at the quadrature floor count as exact.
"""

import math

import numpy as np

from doublebubble.charts import builtin_chart, curvature_at, exp_map, normal_metric_expansion, orthonormal_frame
from doublebubble.cli import main as cli_main
from doublebubble.expansions import reduced_constants
from doublebubble.fields import (
    MODE_ANGLES,
    field_modes,
    first_order_area_corrections,
    first_order_volume_corrections,
    jacobi_block,
    killing_basis,
    random_admissible_field,
)
from doublebubble.geometry import BubbleParams, TWO_THIRDS_PI, conormals_at_neck, solve_standard_bubble
from doublebubble.locate import find_critical_scalar, predict_full, ricci_eigendecomposition
from doublebubble.measure import (
    EmbeddedBubble,
    measure_area,
    measure_mean_curvature,
    measure_volumes,
    verify_many,
)

import exact_models

SYM = solve_standard_bubble(BubbleParams(2, 0.0, 3.0, 3.0))
ASYM = solve_standard_bubble(BubbleParams(2, 1.0, 3.0, 2.0))
SPHERE = builtin_chart("round_sphere", a=1.0, dim=3)
BUMP = builtin_chart("conformal_bump", eps=-0.1, s=0.5, dim=3)
AXIS = np.array([0.25, -0.4, 0.88])
RHOS = [0.2, 0.14, 0.1, 0.07, 0.05]
RHOS_BUMP_ASYM = [0.07, 0.05, 0.035, 0.025]

_cache = {}


def report(num, desc, ok):
    print(f"\nACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def sphere_sweep(bubble_key):
    key = ("sphere", bubble_key)
    if key not in _cache:
        bubble = SYM if bubble_key == "sym" else ASYM
        _cache[key] = verify_many(
            SPHERE,
            np.zeros(3),
            AXIS,
            bubble,
            ["area", "v1", "v2", "h0", "h1", "h2", "conormal", "phi"],
            RHOS,
            grid=(32, 64),
            sector_nodes=10,
        )
    return _cache[key]


def bump_sweep(bubble_key):
    key = ("bump", bubble_key)
    if key not in _cache:
        p = np.array([0.12, -0.05, 0.08])
        if bubble_key == "sym":
            # totals keep their fourth-order remainder on the wide window; the
            # individual chambers are third order and need smaller scales
            # before the quartic tail stops contaminating the fit
            res = verify_many(
                BUMP, p, AXIS, SYM, ["area", "vtot"], RHOS,
                grid=(24, 48), sector_nodes=8, geodesic_steps=50,
            )
            res.update(
                verify_many(
                    BUMP, p, AXIS, SYM, ["v1", "v2"], RHOS_BUMP_ASYM,
                    grid=(32, 64), sector_nodes=8, geodesic_steps=50,
                )
            )
            _cache[key] = res
        else:
            _cache[key] = verify_many(
                BUMP, p, AXIS, ASYM, ["area", "v1", "v2"], RHOS_BUMP_ASYM,
                grid=(32, 64), sector_nodes=8, geodesic_steps=50,
            )
    return _cache[key]


def passes(fit, threshold):
    return fit.exact or fit.slope >= threshold


def test_criterion_01_geometry_closure():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        h0 = rng.uniform(0.0, 3.0)
        h2 = rng.uniform(0.3, 3.0)
        b = solve_standard_bubble(BubbleParams(2, h0, h0 + h2, h2))
        r = b.neck_radius
        res = 0.0
        for s in range(3):
            if s == 0 and b.symmetric:
                continue
            res = max(res, abs(b.radii[s] * math.sin(b.phi[s]) - r))
        res = max(res, abs(b.phi[0] + b.phi[1] - TWO_THIRDS_PI))
        res = max(res, abs(b.phi[1] + b.phi[2] - 2.0 * TWO_THIRDS_PI))
        res = max(res, abs(math.sin(b.phi[1]) - math.sin(b.phi[0]) - math.sin(b.phi[2])))
        res = max(res, float(np.linalg.norm(conormals_at_neck(b).sum(axis=0))))
        worst = max(worst, res)
    mc_ok = True
    for seed, params in enumerate(
        [BubbleParams(2, 1.0, 3.0, 2.0), BubbleParams(2, 0.0, 3.0, 3.0), BubbleParams(2, 2.0, 3.5, 1.5)]
    ):
        b = solve_standard_bubble(params)
        v1, v2 = exact_models.monte_carlo_volumes(b, n_samples=10**7, seed=seed)
        mc_ok &= abs(v1 / b.v1 - 1.0) <= 1e-3 and abs(v2 / b.v2 - 1.0) <= 1e-3
    report(1, f"geometry invariants (worst residual {worst:.2e} <= 1e-12) "
              f"and Monte-Carlo volumes within 1e-3", worst <= 1e-12 and mc_ok)


def test_criterion_02_normal_coordinate_expansion():
    p = np.array([0.1, -0.2, 0.05])
    cv = curvature_at(SPHERE, p, AXIS)
    fr = cv.frame

    def pullback(tv):
        # the normal-coordinate metric from the exact differential dExp E
        q, jac = exp_map(SPHERE, fr.base, tv @ fr.matrix.T, directions=fr.matrix)
        return jac.T @ SPHERE.metric(q) @ jac

    xi = np.array([0.4, -0.5, 0.77])
    xi /= np.linalg.norm(xi)
    ts = [0.2, 0.1, 0.05, 0.025]
    errs = [np.abs(pullback(t * xi) - normal_metric_expansion(cv, t * xi)).max() for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    report(2, f"normal-coordinate metric expansion fit {slope:.2f} >= 3.7", slope >= 3.7)


def test_criterion_03_volume_expansions():
    checks = []
    for q in ("v1", "v2"):
        checks.append(("sphere sym " + q, sphere_sweep("sym")[q][0], 3.7))
        checks.append(("sphere asym " + q, sphere_sweep("asym")[q][0], 2.7))
        checks.append(("bump sym " + q, bump_sweep("sym")[q][0], 2.7))
        checks.append(("bump asym " + q, bump_sweep("asym")[q][0], 2.7))
    checks.append(("bump sym vtot", bump_sweep("sym")["vtot"][0], 3.7))
    ok = all(passes(fit, thr) for _, fit, thr in checks)
    detail = "; ".join(f"{name} {fit.slope:.2f}/{thr}" for name, fit, thr in checks)
    report(3, f"volume expansion slopes ({detail})", ok)


def test_criterion_04_area_expansions():
    checks = [
        ("sphere sym", sphere_sweep("sym")["area"][0], 3.7),
        ("sphere asym", sphere_sweep("asym")["area"][0], 2.7),
        ("bump sym", bump_sweep("sym")["area"][0], 3.7),
        ("bump asym", bump_sweep("asym")["area"][0], 2.7),
    ]
    ok = all(passes(fit, thr) for _, fit, thr in checks)
    detail = "; ".join(f"{name} {fit.slope:.2f}/{thr}" for name, fit, thr in checks)
    report(4, f"area expansion slopes ({detail})", ok)


def test_criterion_05_mean_curvature():
    checks = []
    for bubble_key in ("sym", "asym"):
        for q in ("h0", "h1", "h2"):
            checks.append((f"sphere {bubble_key} {q}", sphere_sweep(bubble_key)[q][0], 2.7))
    ok = all(passes(fit, thr) for _, fit, thr in checks)
    # flat chart reproduces the constant curvature exactly
    eu = builtin_chart("euclidean", dim=3)
    frame = orthonormal_frame(eu, np.zeros(3), AXIS)
    flat_ok = True
    for b in (SYM, ASYM):
        eb = EmbeddedBubble(eu, frame, b, 0.1, grid=(24, 48))
        for s in range(3):
            upper = b.polar_limit(s)
            h = measure_mean_curvature(eb, s, np.array([[0.5 * upper, 1.2]]))[0]
            target = 0.0 if (s == 0 and b.symmetric) else 2.0 / (0.1 * b.radii[s])
            flat_ok &= abs(h - target) * (0.1 * b.radii[s] if target else 1.0) <= 1e-8
    detail = "; ".join(
        f"{name} {'exact' if fit.exact else format(fit.slope, '.2f')}" for name, fit, _ in checks
    )
    report(5, f"mean-curvature slopes >= 2.7 ({detail}); flat chart exact to 1e-8",
           ok and flat_ok)


def test_criterion_06_equiangularity_defect():
    f_sym = sphere_sweep("sym")["conormal"][0]
    f_asym = sphere_sweep("asym")["conormal"][0]
    ok = passes(f_sym, 1.7) and passes(f_asym, 1.7)
    report(6, f"conormal defect decay (sym {f_sym.slope:.2f}, asym {f_asym.slope:.2f}) >= 1.7", ok)


def test_criterion_07_perturbed_first_order():
    eu = builtin_chart("euclidean", dim=3)
    frame = orthonormal_frame(eu, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    rho = 0.13
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(5):
        bubble = SYM if trial % 2 == 0 else ASYM
        field = random_admissible_field(bubble, rng, amplitude=0.02)

        def measure(scale):
            eb = EmbeddedBubble(eu, frame, bubble, rho, perturbation=field.scaled(scale),
                                grid=(32, 64), sector_nodes=10)
            areas = measure_area(eb) / rho**2
            v1, v2 = measure_volumes(eb)
            return np.array([*areas, v1 / rho**3, v2 / rho**3])

        d1 = (measure(1.0) - measure(-1.0)) / 2.0
        d2 = (measure(2.0) - measure(-2.0)) / 4.0
        deriv = (4.0 * d1 - d2) / 3.0  # Richardson in the field scale
        formula_a = first_order_area_corrections(bubble, field)
        formula_v = first_order_volume_corrections(bubble, field)
        expected = np.array([*formula_a, *formula_v])
        worst = max(worst, float(np.abs(deriv - expected).max()))
    report(7, f"first-order area/volume response matches formulas "
              f"(worst deviation {worst:.2e} <= 1e-6)", worst <= 1e-6)


def test_criterion_08_jacobi_kernel():
    # every field is checked degree by degree as blocks @ modes: the Jacobi
    # rows of the three sheets, the neck trace and the two equiangularity rows
    ok = True
    detail = []
    for bubble in (SYM, ASYM):
        fields = killing_basis(bubble)
        assert len(fields) == 5
        blocks = np.stack([jacobi_block(bubble, k, 64) for k in range(MODE_ANGLES // 2)])
        worst = max(float(np.abs(blocks @ field_modes(f, 64)).max()) for f in fields)
        ok &= worst <= 1e-6
        # negative control: no random field joins the kernel
        rng = np.random.default_rng(99)
        blocks = np.stack([jacobi_block(bubble, k, 32) for k in range(MODE_ANGLES // 2)])
        best_rand = min(
            float(np.abs(blocks @ field_modes(exact_models.random_smooth_field(bubble, rng), 32)).max())
            for _ in range(100)
        )
        ok &= best_rand >= 1e-2
        detail.append(f"kernel residual {worst:.1e}, random floor {best_rand:.1e}")
    report(8, f"2m+1 Killing fields in the kernel to 1e-6; 100 random fields fail "
              f"({'; '.join(detail)})", ok)


def test_criterion_09_reduced_functional():
    f_asym = sphere_sweep("asym")["phi"][0]
    f_sym = sphere_sweep("sym")["phi"][0]
    slopes_ok = passes(f_asym, 0.9) and passes(f_sym, 1.7)
    rc = reduced_constants(SYM)
    rq = reduced_constants(SYM, quadrature=True)
    r4 = (2.0 / 3.0) ** 4
    consts_ok = (
        abs(rc.a / r4 - 2.86875) <= 1e-10
        and abs(rc.b / r4 - 0.984375) <= 1e-10
        and abs(rc.a - rq.a) <= 1e-10
        and abs(rc.b - rq.b) <= 1e-10
    )
    report(9, f"rescaled energy converges to its leading form "
              f"(asym slope {f_asym.slope:.2f} >= 0.9, sym {f_sym.slope:.2f} >= 1.7); "
              f"A_sym(2) = 2.86875 and B_sym(2) = 0.984375 by two routes to 1e-10",
           slopes_ok and consts_ok)


def test_criterion_10_locator():
    cp = find_critical_scalar(BUMP, np.array([0.2, 0.0, 0.0]))
    # dense-lattice oracle: with a negative bump amplitude the interior
    # critical point of Sc is its minimum
    lin = np.linspace(-0.75, 0.75, 41)
    xg, yg, zg = np.meshgrid(lin, lin, lin, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel(), zg.ravel()], axis=1)
    sc = exact_models.bump_scalar_curvature(BUMP, pts)
    lattice_point = pts[int(np.argmin(sc))]
    dist = float(np.linalg.norm(cp.coords - lattice_point))
    eig = ricci_eigendecomposition(BUMP, cp.coords)
    curv = curvature_at(BUMP, cp.coords, AXIS, nabla=False)
    resid = max(
        float(np.linalg.norm(curv.ricci @ eig.eigenvectors[:, k] - eig.eigenvalues[k] * eig.eigenvectors[:, k]))
        for k in range(3)
    )
    preds_asym = predict_full(BUMP, [np.array([0.2, 0.0, 0.0])], 0.05, BubbleParams(2, 1.0, 3.0, 2.0))[0]
    preds_sym = predict_full(BUMP, [np.array([0.2, 0.0, 0.0])], 0.05, BubbleParams(2, 0.0, 3.0, 3.0))[0]
    counts_ok = (
        len(preds_asym) == 1 and preds_asym[0].count == 2
        and len(preds_sym) == 1 and preds_sym[0].count == 1
    )
    ok = dist <= 1e-4 and cp.nondegenerate and resid <= 1e-9 and counts_ok
    report(10, f"critical point within {dist:.1e} of the lattice oracle, "
               f"non-degenerate, Ricci eigen-residual {resid:.1e} <= 1e-9, "
               f"orientation counts 2 (asymmetric) / 1 (symmetric)", ok)


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "chart = round_sphere\nchart.a = 1.0\n"
        "bubble.m = 2\nbubble.h0 = 1\nbubble.h1 = 3\nbubble.h2 = 2\n"
        "rho_list = 0.2,0.14,0.1\ngrid = 16,32\nsector_nodes = 6\n"
        "quantities = area,v1,conormal\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["verify", "--config", str(cfg), "--out", str(out1)])
    code2 = cli_main(["verify", "--config", str(cfg), "--out", str(out2)])
    identical = (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()
    report(11, "two verify runs with identical config are byte-identical "
               f"(exit codes {code1}, {code2})", identical and code1 == 0 and code2 == 0)
