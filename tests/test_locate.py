import math
import warnings

import numpy as np
import pytest

from doublebubble.charts import builtin_chart
from doublebubble.geometry import BubbleParams
from doublebubble.locate import (
    find_critical_scalar,
    jacobi_eigh,
    predict_full,
    ricci_eigendecomposition,
)

import exact_models

BUMP = builtin_chart("conformal_bump", eps=-0.1, s=0.5, dim=3)


def test_newton_converges_to_bump_center():
    cp = find_critical_scalar(BUMP, np.array([0.2, 0.0, 0.0]))
    assert np.linalg.norm(cp.coords) <= 1e-6
    assert cp.grad_norm <= 1e-6
    assert cp.nondegenerate
    assert cp.sc == pytest.approx(float(exact_models.bump_scalar_curvature(BUMP, np.zeros(3))), abs=1e-4)


def test_newton_seed_independence():
    seeds = [np.array([0.2, 0.0, 0.0]), np.array([0.0, 0.15, -0.1]), np.array([-0.12, -0.08, 0.1])]
    points = [find_critical_scalar(BUMP, s).coords for s in seeds]
    for p in points[1:]:
        assert np.linalg.norm(p - points[0]) <= 1e-6


def test_degenerate_charts_flagged():
    sp = builtin_chart("round_sphere", a=1.0)
    cp = find_critical_scalar(sp, np.array([0.1, -0.05, 0.2]))
    assert not cp.nondegenerate
    eu = builtin_chart("euclidean", dim=3)
    cp = find_critical_scalar(eu, np.array([0.3, 0.1, 0.0]))
    assert not cp.nondegenerate


def test_jacobi_eigh_matches_reference():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        for _ in range(5):
            a = rng.normal(size=(n, n))
            a = a + a.T
            w, v = jacobi_eigh(a)
            assert np.abs(np.sort(w) - np.linalg.eigvalsh(a)).max() <= 1e-12
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12
            for k in range(n):
                assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) <= 1e-9


def test_jacobi_eigh_skips_underflowing_rotations():
    # an off-diagonal entry near 1e-160 beside O(1) diagonal gaps: theta^2
    # overflows while the rotation angle underflows to zero
    a = np.array([[1.0, 1e-160, 0.5], [1e-160, 2.0, 0.0], [0.5, 0.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = jacobi_eigh(a)
    ref_w, ref_v = np.linalg.eigh(a)
    assert np.abs(w - ref_w).max() <= 1e-14
    assert np.abs(np.abs(v.T @ ref_v) - np.eye(3)).max() <= 1e-14


def test_ricci_eigendecomposition_groups():
    sp = builtin_chart("round_sphere", a=1.0)
    eig = ricci_eigendecomposition(sp, np.array([0.15, 0.0, -0.1]))
    assert len(eig.groups) == 1 and eig.multiplicity(0) == 3
    assert np.abs(eig.eigenvalues - 2.0).max() <= 1e-9
    pr = builtin_chart("product", factors=[(2, 2.0), (1, math.inf)])
    eig = ricci_eigendecomposition(pr, np.array([0.1, 0.2, 0.3]))
    assert [len(g) for g in eig.groups] == [1, 2]
    assert eig.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
    assert eig.eigenvalues[1] == pytest.approx(0.25, abs=1e-9)


def test_predict_counts_follow_symmetry():
    seeds = [np.array([0.2, 0.0, 0.0])]
    asym = predict_full(BUMP, seeds, 0.05, BubbleParams(2, 1.0, 3.0, 2.0))[0]
    assert len(asym) == 1
    assert asym[0].count == 2
    assert asym[0].multiplicity == 3  # isotropic Ricci at the bump center
    assert asym[0].curvatures == pytest.approx((20.0, 60.0, 40.0))
    sym = predict_full(BUMP, seeds, 0.05, BubbleParams(2, 0.0, 3.0, 3.0))[0]
    assert len(sym) == 1 and sym[0].count == 1


def test_predict_requires_converged_seed():
    # out-of-domain seeds cannot converge at all
    with pytest.raises(RuntimeError):
        predict_full(BUMP, [np.array([2.0, 0.0, 0.0])], 0.05, BubbleParams(2, 0.0, 3.0, 3.0))[0]
    with pytest.raises(ValueError):
        predict_full(BUMP, [np.zeros(3)], -1.0, BubbleParams(2, 0.0, 3.0, 3.0))[0]


def test_predict_degenerate_chart_returns_diagnostics():
    sp = builtin_chart("round_sphere", a=1.0)
    preds, points = predict_full(sp, [np.array([0.1, 0.0, 0.05])], 0.05, BubbleParams(2, 0.0, 3.0, 3.0))
    assert preds == []
    assert len(points) == 1 and not points[0].nondegenerate


def test_grouping_stable_under_tiny_perturbation():
    pr = builtin_chart("product", factors=[(2, 2.0), (1, math.inf)])
    a = ricci_eigendecomposition(pr, np.array([0.1, 0.2, 0.3]))
    b = ricci_eigendecomposition(pr, np.array([0.1 + 1e-10, 0.2, 0.3]))
    assert [len(g) for g in a.groups] == [len(g) for g in b.groups]
