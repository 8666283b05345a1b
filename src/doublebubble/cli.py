"""Command-line front end: config parsing, experiment orchestration, reports.

Commands
--------
  geometry    solved standard-bubble table (radii, angles, neck, volumes,
              areas, conormal residual)
  constants   reduced-energy constants with per-sheet breakdown, computed by
              the closed-form recursion and by quadrature
  curvature   Sc, Ricci eigenvalues and tensor-symmetry residuals at points
  verify      oracle-vs-expansion sweeps, one CSV row per (quantity, rho)
  predict     JSON bubble predictions (one record per line)

All commands read a flat key = value config file (see CONFIG_KEYS), write
their reports under --out and print a short summary.  Outputs are
deterministic: fixed seeds, stable ordering, floats at 17 significant
digits.  Exit codes: 0 success, 1 verification failure, 2 bad config,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import expansions
from .charts import DomainExit, builtin_chart, curvature_at
from .fields import random_admissible_field
from .geometry import BubbleParams, conormals_at_neck, solve_standard_bubble
from .locate import predict_full, prediction_record, ricci_eigendecomposition
from .measure import expansion_threshold, verify_many

CONFIG_KEYS = {
    "chart": "chart family: euclidean | round_sphere | conformal_bump | product",
    "chart.a": "round_sphere radius (default 1.0)",
    "chart.eps": "conformal_bump amplitude (default -0.1)",
    "chart.s": "conformal_bump width (default 0.5)",
    "chart.x0": "conformal_bump center, comma-separated (default origin)",
    "chart.dim": "chart dimension (default 3)",
    "chart.half_width": "half-width of the chart domain box",
    "chart.factors": "product factors as dim:radius pairs, e.g. 2:1.0,1:inf",
    "bubble.m": "sheet dimension m (default 2)",
    "bubble.h0": "interface mean curvature (0 = symmetric)",
    "bubble.h1": "first chamber mean curvature",
    "bubble.h2": "second chamber mean curvature",
    "point": "base point in chart coordinates, comma-separated",
    "axis": "seed axis in chart coordinates, comma-separated",
    "rho_list": "comma-separated decreasing scales",
    "rho": "single scale (predict)",
    "grid": "quadrature grid n_polar,n_sphere",
    "sector_nodes": "Gauss-Legendre nodes of the radial ray rule",
    "geodesic_steps": "RK4 steps of the exponential map",
    "quantities": "verify quantities, comma-separated (see measure.QUANTITIES)",
    "perturbed": "true to verify with a rho^2-scaled admissible field",
    "field_amplitude": "base amplitude of the perturbation field",
    "seed": "RNG seed for randomized pieces",
    "newton_tol": "gradient tolerance of the critical-point search",
    "seeds": "predict seeds, semicolon-separated points",
    "points": "curvature evaluation points, semicolon-separated",
}

_DEFAULTS = {
    "chart": "round_sphere",
    "bubble.m": "2",
    "bubble.h0": "0",
    "bubble.h1": "3",
    "bubble.h2": "3",
    "point": "0,0,0",
    "axis": "0,0,1",
    "rho_list": "0.2,0.14,0.1,0.07,0.05",
    "rho": "0.05",
    "grid": "48,96",
    "sector_nodes": "12",
    "geodesic_steps": "200",
    "quantities": "area,v1,v2,h0,h1,h2,conormal,phi",
    "perturbed": "false",
    "field_amplitude": "0.25",
    "seed": "0",
    "newton_tol": "1e-6",
    "seeds": "0.2,0,0",
    "points": "0,0,0",
}


class ConfigError(ValueError):
    pass


def parse_config(path: str | Path) -> dict:
    """Read a flat key = value file; '#' starts a comment, unknown keys are
    rejected, defaults fill the gaps."""
    cfg = dict(_DEFAULTS)
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _point_list(text: str) -> list[np.ndarray]:
    return [np.array(_floats(chunk)) for chunk in text.split(";") if chunk.strip()]


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def build_chart(cfg: dict):
    family = cfg["chart"]
    dim = int(cfg.get("chart.dim", "3"))
    if family == "euclidean":
        kw = {"dim": dim}
        if "chart.half_width" in cfg:
            kw["half_width"] = float(cfg["chart.half_width"])
        return builtin_chart("euclidean", **kw)
    if family == "round_sphere":
        return builtin_chart("round_sphere", a=float(cfg.get("chart.a", "1.0")), dim=dim)
    if family == "conformal_bump":
        kw = {
            "eps": float(cfg.get("chart.eps", "-0.1")),
            "s": float(cfg.get("chart.s", "0.5")),
            "dim": dim,
        }
        if "chart.x0" in cfg:
            kw["x0"] = np.array(_floats(cfg["chart.x0"]))
        if "chart.half_width" in cfg:
            kw["half_width"] = float(cfg["chart.half_width"])
        return builtin_chart("conformal_bump", **kw)
    if family == "product":
        factors = []
        for tok in cfg.get("chart.factors", "2:1.0,1:inf").split(","):
            d, a = tok.split(":")
            factors.append((int(d), math.inf if a.strip() in ("inf", "INF") else float(a)))
        return builtin_chart("product", factors=factors)
    raise ConfigError(f"unknown chart family {family!r}")


def build_params(cfg: dict) -> BubbleParams:
    try:
        return BubbleParams(
            m=int(cfg["bubble.m"]),
            h0=float(cfg["bubble.h0"]),
            h1=float(cfg["bubble.h1"]),
            h2=float(cfg["bubble.h2"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def fmt(x) -> str:
    """17-significant-digit decimal rendering used in every report."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return format(xf, ".17g")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(v) if not isinstance(v, str) else v for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_geometry(cfg: dict, outdir: Path) -> int:
    params = build_params(cfg)
    bubble = solve_standard_bubble(params)
    nu = conormals_at_neck(bubble)
    resid = float(np.linalg.norm(nu.sum(axis=0)))
    rows = []
    for s in range(3):
        rows.append(
            [
                str(s),
                fmt(bubble.radii[s]),
                fmt(bubble.phi[s]),
                fmt(bubble.centers[s]),
                fmt(bubble.sheet_areas[s]),
            ]
        )
    write_csv(outdir / "geometry.csv", ["sheet", "radius", "phi", "center", "area"], rows)
    summary = outdir / "geometry_summary.csv"
    write_csv(
        summary,
        ["neck_radius", "v1", "v2", "conormal_residual", "symmetric"],
        [[fmt(bubble.neck_radius), fmt(bubble.v1), fmt(bubble.v2), fmt(resid), fmt(bubble.symmetric)]],
    )
    print(f"geometry: r={fmt(bubble.neck_radius)} V1={fmt(bubble.v1)} V2={fmt(bubble.v2)} "
          f"conormal residual {fmt(resid)}")
    return 0


def cmd_constants(cfg: dict, outdir: Path) -> int:
    params = build_params(cfg)
    bubble = solve_standard_bubble(params)
    closed = expansions.reduced_constants(bubble)
    quad = expansions.reduced_constants(bubble, quadrature=True)
    limit = expansions.phi_limit_constants(bubble)
    rows = [
        ["A", fmt(closed.a), fmt(quad.a), fmt(abs(closed.a - quad.a))],
        ["B", fmt(closed.b), fmt(quad.b), fmt(abs(closed.b - quad.b))],
        ["A_limit", fmt(limit.a), fmt(limit.a), "0"],
        ["B_limit", fmt(limit.b), fmt(limit.b), "0"],
    ]
    write_csv(outdir / "constants.csv", ["name", "closed_form", "quadrature", "difference"], rows)
    sheet_rows = [
        [str(s), fmt(closed.per_sheet[s][0]), fmt(closed.per_sheet[s][1])] for s in range(3)
    ]
    write_csv(outdir / "constants_per_sheet.csv", ["sheet", "a", "b"], sheet_rows)
    print(f"constants: A={fmt(closed.a)} B={fmt(closed.b)} (quadrature agrees to "
          f"{fmt(max(abs(closed.a - quad.a), abs(closed.b - quad.b)))}); "
          f"measured-limit A={fmt(limit.a)} B={fmt(limit.b)}")
    return 0


def cmd_curvature(cfg: dict, outdir: Path) -> int:
    chart = build_chart(cfg)
    axis = np.array(_floats(cfg["axis"]))
    rows = []
    for p in _point_list(cfg["points"]):
        curv = curvature_at(chart, p, axis, nabla=False)
        rm = curv.riemann
        anti1 = float(np.abs(rm + rm.transpose(1, 0, 2, 3)).max())
        anti2 = float(np.abs(rm + rm.transpose(0, 1, 3, 2)).max())
        pair = float(np.abs(rm - rm.transpose(2, 3, 0, 1)).max())
        bianchi = float(
            np.abs(rm + np.einsum("ijkl->kijl", rm) + np.einsum("ijkl->jkil", rm)).max()
        )
        eig = ricci_eigendecomposition(chart, p)
        rows.append(
            [";".join(fmt(v) for v in p), fmt(curv.scalar)]
            + [fmt(v) for v in eig.eigenvalues]
            + [fmt(anti1), fmt(anti2), fmt(pair), fmt(bianchi)]
        )
    n = chart.dim
    header = (
        ["point", "scalar"]
        + [f"ric_eig_{k}" for k in range(n)]
        + ["antisym12", "antisym34", "pair_symmetry", "first_bianchi"]
    )
    write_csv(outdir / "curvature.csv", header, rows)
    print(f"curvature: {len(rows)} points on {chart.name}; see curvature.csv")
    return 0


def cmd_verify(cfg: dict, outdir: Path, jobs: int = 1) -> int:
    chart = build_chart(cfg)
    params = build_params(cfg)
    bubble = solve_standard_bubble(params)
    p = np.array(_floats(cfg["point"]))
    axis = np.array(_floats(cfg["axis"]))
    rhos = _floats(cfg["rho_list"])
    grid = tuple(int(v) for v in _floats(cfg["grid"]))
    quantities = [q.strip() for q in cfg["quantities"].split(",") if q.strip()]
    perturbation = None
    if _bool(cfg["perturbed"]):
        rng = np.random.default_rng(int(cfg["seed"]))
        perturbation = random_admissible_field(bubble, rng, float(cfg["field_amplitude"]))

    def run(quantity):
        return verify_many(
            chart,
            p,
            axis,
            bubble,
            [quantity],
            rhos,
            grid=grid,
            geodesic_steps=int(cfg["geodesic_steps"]),
            sector_nodes=int(cfg["sector_nodes"]),
            perturbation=perturbation,
        )[quantity]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = dict(zip(quantities, pool.map(run, quantities)))
    else:
        results = {q: run(q) for q in quantities}

    claimed = _claimed_orders(bubble)
    rows = []
    all_pass = True
    for q in quantities:  # fixed input order keeps the file stable
        fit, sweep = results[q]
        threshold = expansion_threshold(claimed[q])
        ok = fit.exact or fit.slope >= threshold
        all_pass &= ok
        for entry in sweep:
            rows.append(
                [
                    q,
                    fmt(entry["rho"]),
                    fmt(entry["oracle"]),
                    fmt(entry["formula"]),
                    fmt(entry["error"]),
                    fmt(entry["slope_so_far"]),
                ]
            )
        rows.append([q, "fit", fmt(fit.slope), fmt(fit.r_squared), fmt(threshold),
                     "pass" if ok else "fail"])
    write_csv(
        outdir / "verify.csv",
        ["quantity", "rho", "oracle", "expansion", "error", "slope_so_far"],
        rows,
    )
    for q in quantities:
        fit, _ = results[q]
        threshold = expansion_threshold(claimed[q])
        status = "exact" if fit.exact else f"slope {fit.slope:.3f} (>= {threshold:.2f})"
        ok = fit.exact or fit.slope >= threshold
        print(f"verify {q}: {status} {'PASS' if ok else 'FAIL'}")
    return 0 if all_pass else 1


def _claimed_orders(bubble) -> dict:
    """Claimed remainder orders per quantity for the fitted sweeps."""
    t1, _ = expansions.geodesic_volumes_expansion(bubble)
    _, total = expansions.geodesic_area_expansion(bubble)
    return {
        "area": total.remainder_order,
        "v1": t1.remainder_order,
        "v2": t1.remainder_order,
        "vtot": expansions.total_volume_expansion(bubble).remainder_order,
        "h0": 3,
        "h1": 3,
        "h2": 3,
        "conormal": 2,
        "phi": 2 if bubble.symmetric else 1,
    }


def cmd_predict(cfg: dict, outdir: Path) -> int:
    chart = build_chart(cfg)
    params = build_params(cfg)
    seeds = _point_list(cfg["seeds"])
    preds, points = predict_full(
        chart, seeds, float(cfg["rho"]), params, tol=float(cfg["newton_tol"])
    )
    path = outdir / "predictions.json"
    lines = [json.dumps(prediction_record(pr), sort_keys=True) for pr in preds]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    degenerate = sum(1 for q in points if not q.nondegenerate)
    print(
        f"predict: {len(preds)} predictions from {len(points)} critical points "
        f"({degenerate} degenerate); see predictions.json"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="doublebubble",
        description="double-bubble geometry, curvature expansions and verification",
    )
    parser.add_argument("command", choices=["geometry", "constants", "curvature", "verify", "predict"])
    parser.add_argument("--config", required=True, help="path to the key = value config file")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel verify cells")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "geometry":
            return cmd_geometry(cfg, outdir)
        if args.command == "constants":
            return cmd_constants(cfg, outdir)
        if args.command == "curvature":
            return cmd_curvature(cfg, outdir)
        if args.command == "verify":
            return cmd_verify(cfg, outdir, jobs=max(1, args.jobs))
        return cmd_predict(cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainExit, RuntimeError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
