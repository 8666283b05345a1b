"""Locate predicted double-bubble configurations in a chart.

Large-curvature double bubbles concentrate at non-degenerate critical points
of the ambient scalar curvature, aligned along eigen-directions of the Ricci
tensor there.  This module finds the critical points by damped Newton on the
finite-difference gradient of Sc, groups the Ricci eigenvalues by gap
thresholds, and emits one prediction per (critical point, eigen-direction),
with the orientation count 2 for asymmetric curvature triples and 1 for
symmetric ones (opposite axes give the same symmetric bubble).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import FD_STEP, CurvatureAtPoint, DomainExit, MetricChart, curvature_at
from .charts import _scalar_hessian, scalar_gradient, scalar_hessian
from .expansions import phi_limit_constants, reduced_functional_leading
from .geometry import BubbleParams, solve_standard_bubble


@dataclass(frozen=True)
class CriticalPoint:
    coords: np.ndarray
    sc: float
    grad_norm: float
    hessian_eigs: np.ndarray
    nondegenerate: bool


@dataclass(frozen=True)
class RicciEigen:
    """Eigen-decomposition of the Ricci tensor in an orthonormal frame.

    eigenvalues are sorted ascending; groups partitions the indices by the
    gap thresholds (delta0, delta1): within a group eigenvalues differ by
    less than delta0, across groups by more than delta1.  curvature is the
    curvature data it was computed from, in the frame seeded by the last
    chart axis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    curvature: CurvatureAtPoint

    def multiplicity(self, group_index: int) -> int:
        return len(self.groups[group_index])


@dataclass(frozen=True)
class BubblePrediction:
    point: CriticalPoint
    axis: np.ndarray  # frame components, last frame vector convention
    axis_chart: np.ndarray  # same direction in chart coordinates
    eigenvalue: float
    multiplicity: int
    rho: float
    curvatures: tuple[float, float, float]  # (h0, h1, h2) / rho
    phi_leading: float
    count: int


NONDEG_RTOL = 1e-4
# Newton iterations of find_critical_scalar before it gives up
MAX_NEWTON_ITER = 60
# critical points closer than this are one point in predict_full
DEDUPE_TOL = 1e-4
# cyclic Jacobi: relative off-diagonal tolerance and sweep limit
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 40
# gap thresholds (delta0, delta1) of the Ricci eigenvalue groups, relative to
# the largest Ricci component
RICCI_GAPS = (1e-6, 1e-3)


def find_critical_scalar(chart: MetricChart, x0, tol: float = 1e-6) -> CriticalPoint:
    """Damped Newton search for a critical point of the scalar curvature.

    The Hessian is regularized toward gradient descent when it is singular or
    the step fails to decrease |grad Sc|.  Convergence means grad_norm <= tol;
    a singular Hessian at the solution flags the point degenerate instead of
    failing.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not chart.domain.contains(x, 4.0 * FD_STEP):
        raise DomainExit(f"seed {x} outside the chart domain")
    grad = scalar_gradient(chart, x)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(MAX_NEWTON_ITER):
        if gnorm <= tol:
            break
        hess = scalar_hessian(chart, x)
        step = None
        lam = 0.0
        scale = max(float(np.abs(hess).max()), 1e-12)
        for _ in range(8):
            try:
                step = np.linalg.solve(hess + lam * scale * np.eye(chart.dim), -grad)
                break
            except np.linalg.LinAlgError:
                lam = max(2.0 * lam, 1e-6)
        if step is None:
            step = -grad / scale
        # backtracking on |grad|
        t = 1.0
        for _ in range(12):
            cand = x + t * step
            if chart.domain.contains(cand, 4.0 * FD_STEP):
                cand_grad = scalar_gradient(chart, cand)
                if np.linalg.norm(cand_grad) < gnorm:
                    x, grad = cand, cand_grad
                    gnorm = float(np.linalg.norm(grad))
                    break
            t *= 0.5
        else:
            # fall back to a small descent step
            cand = x - (0.1 / scale) * grad
            if not chart.domain.contains(cand, 4.0 * FD_STEP):
                raise DomainExit(f"search left the domain near {x}")
            x = cand
            grad = scalar_gradient(chart, x)
            gnorm = float(np.linalg.norm(grad))
    else:
        raise RuntimeError(f"no critical point within {MAX_NEWTON_ITER} iterations (|grad|={gnorm:.2e})")
    sc_here, hess = _scalar_hessian(chart, x)
    eigs = np.linalg.eigvalsh(hess)
    # degenerate when the spectrum has a (relative) near-zero eigenvalue, or
    # when the whole Hessian sits at the finite-difference noise floor
    # (constant-curvature charts)
    scale = float(np.abs(eigs).max())
    floor = 1e-6 * max(1.0, abs(sc_here))
    nondeg = scale > floor and float(np.min(np.abs(eigs))) > NONDEG_RTOL * scale
    return CriticalPoint(
        coords=x,
        sc=sc_here,
        grad_norm=gnorm,
        hessian_eigs=eigs,
        nondegenerate=bool(nondeg),
    )


def jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Kept free of
    library eigensolvers so tests can cross-check it against them.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(sum(a[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= JACOBI_TOL * max(1.0, float(np.abs(np.diag(a)).max())):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * float(a[q, q] - a[p, p]) / float(a[p, q])
                theta2 = theta * theta
                if math.isinf(theta2):
                    # t = 1 / (|theta| + inf) = 0: the rotation is the identity
                    continue
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta2))
                c = 1.0 / math.sqrt(1.0 + t**2)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


def ricci_eigendecomposition(chart: MetricChart, p) -> RicciEigen:
    """Ricci eigen-structure at p in an orthonormal frame.

    The gap thresholds (delta0, delta1) are RICCI_GAPS times ||Ric||.
    Eigenvalues closer than delta0 share a group and a warning-free
    partition requires every cross-group gap to exceed delta1.
    """
    p = np.asarray(p, dtype=float)
    seed = np.zeros(chart.dim)
    seed[-1] = 1.0
    curv = curvature_at(chart, p, seed, nabla=False)
    norm = max(float(np.abs(curv.ricci).max()), 1e-300)
    gaps = (RICCI_GAPS[0] * norm, RICCI_GAPS[1] * norm)
    delta0, delta1 = gaps
    eigenvalues, eigenvectors = jacobi_eigh(curv.ricci)
    groups = []
    current = [0]
    for i in range(1, len(eigenvalues)):
        gap = eigenvalues[i] - eigenvalues[current[-1]]
        if gap < delta0:
            current.append(i)
        else:
            if gap <= delta1:
                raise ValueError(
                    f"eigenvalue gap {gap:.3e} falls between the thresholds {gaps}"
                )
            groups.append(tuple(current))
            current = [i]
    groups.append(tuple(current))
    return RicciEigen(
        eigenvalues=eigenvalues, eigenvectors=eigenvectors, groups=tuple(groups), curvature=curv
    )


def predict_full(
    chart: MetricChart,
    seeds,
    rho: float,
    params: BubbleParams,
    tol: float = 1e-6,
) -> tuple[list[BubblePrediction], list[CriticalPoint]]:
    """Predictions at every non-degenerate critical point found from `seeds`.

    One prediction per Ricci eigen-group, aligned along a representative
    eigenvector; count = 2 orientations when h0 != 0, else 1 (a symmetric
    bubble is invariant under axis reversal, so opposite axes merge).
    Results are sorted by the leading reduced energy and deduplicated by
    coordinates.  Degenerate points are excluded from predictions but
    returned as diagnostics.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    bubble = solve_standard_bubble(params)
    consts = phi_limit_constants(bubble)
    points: list[CriticalPoint] = []
    failures = 0
    for seed in seeds:
        try:
            cp = find_critical_scalar(chart, seed, tol=tol)
        except (RuntimeError, DomainExit):
            failures += 1
            continue
        if any(np.linalg.norm(cp.coords - q.coords) < DEDUPE_TOL for q in points):
            continue
        points.append(cp)
    if not points:
        raise RuntimeError(f"no converged critical points from {failures} failed seeds")
    points.sort(key=lambda q: tuple(q.coords))
    out: list[BubblePrediction] = []
    for cp in points:
        if not cp.nondegenerate:
            continue
        eig = ricci_eigendecomposition(chart, cp.coords)
        curv = eig.curvature
        for group in eig.groups:
            idx = group[0]
            axis_frame = eig.eigenvectors[:, idx]
            axis_chart = curv.frame.matrix @ axis_frame
            phi_lead = reduced_functional_leading(
                curv.scalar, float(eig.eigenvalues[idx]), consts
            )
            out.append(
                BubblePrediction(
                    point=cp,
                    axis=axis_frame,
                    axis_chart=axis_chart,
                    eigenvalue=float(eig.eigenvalues[idx]),
                    multiplicity=len(group),
                    rho=rho,
                    curvatures=(params.h0 / rho, params.h1 / rho, params.h2 / rho),
                    phi_leading=phi_lead,
                    count=1 if params.symmetric else 2,
                )
            )
    out.sort(key=lambda pr: (pr.phi_leading, tuple(pr.point.coords), pr.eigenvalue))
    return out, points


def prediction_record(pred: BubblePrediction) -> dict:
    """JSON-ready dict for one prediction (see README for the schema)."""
    return {
        "point": [float(v) for v in pred.point.coords],
        "sc": pred.point.sc,
        "grad_norm": pred.point.grad_norm,
        "hessian_eigs": [float(v) for v in pred.point.hessian_eigs],
        "nondegenerate": pred.point.nondegenerate,
        "mu": pred.eigenvalue,
        "multiplicity": pred.multiplicity,
        "axis": [float(v) for v in pred.axis_chart],
        "rho": pred.rho,
        "curvatures": [float(v) for v in pred.curvatures],
        "phi_leading": pred.phi_leading,
        "count": pred.count,
    }
