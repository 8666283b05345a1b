"""The three benchmark workloads and their correctness checks.

A workload is built from a freshly imported package (`db`, a namespace of
the doublebubble modules), the benchmark seed and a size (full or smoke).
`op(i)` is one timed operation on input i; `finish(results)` runs the
untimed post-window checks on the (input, result) pairs; `check(i, result)`
returns None or the failure reason; `note(i, result)` gives the few facts of
a result kept in the run summary.
Every call into the package goes through a module attribute, so the span
wrappers of a traced run see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

ASYM = (2, 1.0, 3.0, 2.0)  # (m, h0, h1, h2) of the asymmetric bubble
CRITERION_AXIS = (0.25, -0.4, 0.88)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

SIZES = {
    "full": {
        "verify_sphere": {"grid": "32,64", "sector_nodes": 10, "rho_list": "0.2,0.14,0.1,0.07,0.05"},
        "volumes_bump": {"grid": (16, 32), "sector_nodes": 8, "geodesic_steps": 50,
                         "rhos": (0.07, 0.05, 0.035, 0.025)},
        "locate_bump": {"radius": 0.2, "stall_radius": 0.22},
    },
    "smoke": {
        "verify_sphere": {"grid": "8,16", "sector_nodes": 4, "rho_list": "0.2,0.14,0.1"},
        "volumes_bump": {"grid": (8, 16), "sector_nodes": 4, "geodesic_steps": 10,
                         "rhos": (0.07, 0.05, 0.035)},
        "locate_bump": {"radius": 0.15, "stall_radius": None},
    },
}


class VerifySphere:
    """One `doublebubble verify --jobs 2` command on the round sphere with a
    seeded perturbation field; checked against a `--jobs 1` run."""

    name = "verify_sphere"

    def __init__(self, db, seed, size, spec, workdir):
        self.db = db
        self.workdir = workdir
        cfg = SIZES[size][self.name]
        m, h0, h1, h2 = ASYM
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "verify.cfg"
        self.config.write_text(
            "chart = round_sphere\nchart.a = 1.0\n"
            f"bubble.m = {m}\nbubble.h0 = {h0:g}\nbubble.h1 = {h1:g}\nbubble.h2 = {h2:g}\n"
            f"rho_list = {cfg['rho_list']}\ngrid = {cfg['grid']}\n"
            f"sector_nodes = {cfg['sector_nodes']}\n"
            "quantities = area,v1,v2,h0,h1,h2,conormal,phi\n"
            f"perturbed = true\nseed = {seed}\n"
        )
        self.chart_classes = (db.charts.RoundSphereChart,)
        self.reference = None

    def _command(self, out, jobs):
        argv = ["verify", "--config", str(self.config), "--out", str(out), "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.db.cli.main(argv)
        return code, (out / "verify.csv").read_bytes()

    def op(self, i):
        return self._command(self.workdir / f"op{i}", 2)

    def finish(self, results):
        self.reference = self._command(self.workdir / "serial", 1)[1]

    def note(self, i, result):
        return {"exit_code": result[0], "csv_bytes": len(result[1])}

    def check(self, i, result):
        code, data = result
        if code != 0:
            return f"exit code {code}"
        if data != self.reference:
            return "verify.csv differs from the --jobs 1 run"
        return None


class VolumesBump:
    """One RK4 oracle evaluation (areas and volumes) on conformal_bump,
    compared with the closed-form expansions by a remainder bound."""

    name = "volumes_bump"

    def __init__(self, db, seed, size, spec, workdir):
        self.db = db
        self.cfg = SIZES[size][self.name]
        self.bounds = spec["workloads"][self.name]["remainder_K"]
        self.chart = db.charts.builtin_chart("conformal_bump", eps=-0.1, s=0.5, dim=3)
        self.bubble = db.geometry.solve_standard_bubble(db.geometry.BubbleParams(*ASYM))
        self.point = np.array([0.12, -0.05, 0.08])
        if seed == 0:
            self.axis = np.array(CRITERION_AXIS)
        else:
            axis = np.random.default_rng(seed).normal(size=3)
            self.axis = axis / np.linalg.norm(axis)
        curv = db.charts.curvature_at(self.chart, self.point, self.axis, nabla=False)
        self.frame = curv.frame
        self.sc = curv.scalar
        last = np.zeros(3)
        last[-1] = 1.0
        self.ric_ss = curv.ric(last, last)
        self.chart_classes = (db.charts.ConformalBumpChart,)

    def op(self, i):
        db, b = self.db, self.bubble
        rho = self.cfg["rhos"][i % len(self.cfg["rhos"])]
        eb = db.measure.EmbeddedBubble(
            self.chart, self.frame, b, rho,
            grid=self.cfg["grid"],
            geodesic_steps=self.cfg["geodesic_steps"],
            sector_nodes=self.cfg["sector_nodes"],
        )
        areas = db.measure.measure_area(eb)
        v1, v2 = db.measure.measure_volumes(eb)
        _, area_terms = db.expansions.geodesic_area_expansion(b)
        v1_terms, v2_terms = db.expansions.geodesic_volumes_expansion(b)
        m = b.m
        rows = {}
        for q, oracle, terms in (
            ("area", float(np.sum(areas)) / rho**m, area_terms),
            ("v1", v1 / rho ** (m + 1), v1_terms),
            ("v2", v2 / rho ** (m + 1), v2_terms),
        ):
            formula = terms.value(self.sc, self.ric_ss, rho)
            rows[q] = (abs(oracle - formula), terms.remainder_order)
        bits = tuple(float(x).hex() for x in (*areas, v1, v2))
        return {"rho": rho, "bits": bits, "errors": rows}

    def finish(self, results):
        n = len(self.cfg["rhos"])
        self.first_bits = {}
        for i, result in results:
            self.first_bits.setdefault(i % n, result["bits"])
        # the oracle must repeat bit for bit: rerun the first rho unless the
        # window already ran some rho twice
        self.rerun_bits = None
        if not any(i >= n for i, _ in results) and 0 in self.first_bits:
            self.rerun_bits = self.op(0)["bits"]

    def note(self, i, result):
        return {"rho": result["rho"], "error_over_rho_order": {
            q: err / result["rho"] ** order for q, (err, order) in result["errors"].items()}}

    def check(self, i, result):
        rho = result["rho"]
        for q, (err, order) in result["errors"].items():
            bound = self.bounds[q] * rho**order
            if not err <= bound:
                return f"{q} at rho={rho}: |oracle - expansion| = {err:.3e} > {bound:.3e}"
        first = self.first_bits[i % len(self.cfg["rhos"])]
        if result["bits"] != first or (i == 0 and self.rerun_bits not in (None, first)):
            return f"oracle bits at rho={rho} differ between repeats"
        return None


class LocateBump:
    """predict_full from two seed points in the ball about the bump centre
    where Newton converges; every fourth operation adds a third seed from
    the shell where Newton stalls for all its iterations."""

    name = "locate_bump"
    # the run ends on whole periods, so every run has the same share of stalls
    period = 4
    n_ops = 512
    # a generic direction from which a seed at the stall radius runs all 60
    # Newton iterations (|grad Sc| stays near 1.5e-5); seeds along the axes
    # or diagonals instead reach the degenerate critical sphere |x| = 0.79
    STALL_DIRECTION = (0.18881712, -0.19839033, 0.96176368)

    def __init__(self, db, seed, size, spec, workdir):
        self.db = db
        self.spec = spec["workloads"][self.name]
        cfg = SIZES[size][self.name]
        self.chart = db.charts.builtin_chart("conformal_bump", eps=-0.1, s=0.5, dim=3)
        self.params = db.geometry.BubbleParams(*ASYM)
        self.centre = np.asarray(self.chart.x0, dtype=float)
        rng = np.random.default_rng(seed)
        # two converging seeds per operation, uniform in the ball: (r / R)^3
        # follows a fixed golden-ratio sequence, so every run meets the same
        # radii in the same slots, and the directions are drawn from the seed
        k = np.arange(2 * self.n_ops)
        radius = cfg["radius"] * np.cbrt((0.5 + k / GOLDEN) % 1.0)
        dirs = rng.normal(size=(k.size, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        self.points = (self.centre + radius[:, None] * dirs).reshape(self.n_ops, 2, 3)
        # the stalling seed: the stall direction with axis signs drawn from
        # the seed; a reflection is a symmetry of the chart, its box and the
        # central-difference stencils, so every variant stalls after the
        # same work (512 or 518 gradient evaluations; permuting the axes
        # instead changes it by rounding, e.g. to 478)
        self.stall = None
        if cfg["stall_radius"] is not None:
            signs = rng.choice((-1.0, 1.0), size=3)
            self.stall = self.centre + cfg["stall_radius"] * signs * np.asarray(self.STALL_DIRECTION)
        self.chart_classes = (db.charts.ConformalBumpChart,)

    def seeds(self, i):
        seeds = list(self.points[i % self.n_ops])
        if self.stall is not None and i % self.period == self.period - 1:
            seeds.append(self.stall)
        return seeds

    def op(self, i):
        preds, points = self.db.locate.predict_full(self.chart, self.seeds(i), 0.05, self.params)
        return {"preds": preds, "points": points}

    def finish(self, results):
        pass

    def note(self, i, result):
        return {"seed_radii": [float(np.linalg.norm(x - self.centre)) for x in self.seeds(i)]}

    def check(self, i, result):
        db = self.db
        last = np.zeros(3)
        last[-1] = 1.0
        for cp in result["points"]:
            if not cp.nondegenerate:
                continue
            dist = float(np.linalg.norm(cp.coords - self.centre))
            if dist > self.spec["centre_tol"]:
                return f"non-degenerate critical point {dist:.2e} from the bump centre"
            eig = db.locate.ricci_eigendecomposition(self.chart, cp.coords)
            ric = db.charts.curvature_at(self.chart, cp.coords, last, nabla=False).ricci
            resid = max(
                float(np.linalg.norm(ric @ eig.eigenvectors[:, k] - eig.eigenvalues[k] * eig.eigenvectors[:, k]))
                for k in range(3)
            )
            if resid > self.spec["ricci_residual_tol"]:
                return f"Ricci eigen-residual {resid:.2e} at the critical point"
            if not any(p.point is cp and p.count == 2 for p in result["preds"]):
                return "no two-orientation prediction at a non-degenerate critical point"
        return None


WORKLOADS = {w.name: w for w in (VerifySphere, VolumesBump, LocateBump)}
