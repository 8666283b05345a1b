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
from pathlib import Path

import numpy as np

from . import expansions
from .charts import DomainExit, builtin_chart, curvature_at
from .fields import check_admissible, random_admissible_field
from .geometry import BubbleParams, conormals_at_neck, solve_standard_bubble
from .locate import predict_full, prediction_record, ricci_eigendecomposition
from .measure import CLAIMS, verify_many

CONFIG_KEYS = {
    "chart": "chart family: euclidean | round_sphere | conformal_bump | product",
    "chart.a": "round_sphere radius",
    "chart.eps": "conformal_bump amplitude",
    "chart.s": "conformal_bump width",
    "chart.x0": "conformal_bump center, comma-separated",
    "chart.dim": "chart dimension",
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
    "sector_nodes": "Gauss-Legendre nodes along the straight chart segments of the volume cones",
    "geodesic_steps": "RK4 steps of the exponential map",
    "quantities": "verify quantities, comma-separated (see measure.CLAIMS)",
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


def _number(text: str, key: str, kind=float, positive: bool = False):
    """One float (or int) config value; positive ones must be > 0."""
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} = {text.strip()!r} is not {expected}") from None
    if positive and not value > 0:
        raise ConfigError(f"{key} must be positive, got {text.strip()!r}")
    return value


def _numbers(text: str, key: str, kind=float, positive: bool = False) -> list:
    return [_number(tok, key, kind, positive) for tok in text.split(",") if tok.strip()]


def _vector(text: str, key: str, dim: int) -> np.ndarray:
    """A comma-separated point or direction of the chart's dimension."""
    x = np.array(_numbers(text, key))
    if len(x) != dim:
        raise ConfigError(f"{key} {text.strip()!r} has {len(x)} coordinates, the chart has {dim}")
    return x


def _point_list(text: str, key: str, dim: int) -> list[np.ndarray]:
    points = [_vector(chunk, key, dim) for chunk in text.split(";") if chunk.strip()]
    if not points:
        raise ConfigError(f"{key} gives no point")
    return points


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _factors(text: str, key: str) -> list[tuple[int, float]]:
    factors = []
    for tok in text.split(","):
        d, sep, a = tok.partition(":")
        if not sep:
            raise ConfigError(f"{key} entry {tok.strip()!r} is not dim:radius")
        factors.append((_number(d, key, int, positive=True), _number(a, key, positive=True)))
    return factors


# parsers of the chart.* settings that are not one number
_PARSE_SETTING = {
    "dim": lambda text, key: _number(text, key, int, positive=True),
    "x0": lambda text, key: np.array(_numbers(text, key)),
    "factors": _factors,
}


def build_chart(cfg: dict):
    """The chart family with every chart.* setting the config gives."""
    family = cfg["chart"]
    settings = {}
    for key, text in cfg.items():
        name = key.removeprefix("chart.")
        if name != key:
            settings[name] = _PARSE_SETTING.get(name, _number)(text, key)
    try:
        return builtin_chart(family, **settings)
    except TypeError as exc:
        raise ConfigError(f"chart = {family}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _bubble_params(cfg: dict, chart) -> BubbleParams:
    """The bubble's parameters; its m-dimensional sheets are hypersurfaces of the chart."""
    params = build_params(cfg)
    if params.m + 1 != chart.dim:
        raise ConfigError(
            f"bubble.m = {params.m} needs chart.dim = {params.m + 1}, got {chart.dim}"
        )
    return params


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
    axis = _vector(cfg["axis"], "axis", chart.dim)
    rows = []
    for p in _point_list(cfg["points"], "points", chart.dim):
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


def cmd_verify(cfg: dict, outdir: Path) -> int:
    chart = build_chart(cfg)
    params = _bubble_params(cfg, chart)
    p = _vector(cfg["point"], "point", chart.dim)
    axis = _vector(cfg["axis"], "axis", chart.dim)
    rhos = _numbers(cfg["rho_list"], "rho_list", positive=True)
    grid = tuple(_numbers(cfg["grid"], "grid", int, positive=True))
    if len(grid) != 2:
        raise ConfigError(f"grid needs two positive integers n_polar,n_sphere, got {cfg['grid'].strip()!r}")
    sector_nodes = _number(cfg["sector_nodes"], "sector_nodes", int, positive=True)
    geodesic_steps = _number(cfg["geodesic_steps"], "geodesic_steps", int, positive=True)
    quantities = [q.strip() for q in cfg["quantities"].split(",") if q.strip()]
    unknown = [q for q in quantities if q not in CLAIMS]
    if unknown or not quantities or len(set(quantities)) < len(quantities):
        raise ConfigError(f"quantities needs distinct names from {tuple(CLAIMS)}, got {quantities}")
    if len(rhos) < 3 or any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])):
        raise ConfigError(f"rho_list needs at least 3 strictly decreasing scales, got {rhos}")
    if params.m not in (2, 3):
        raise ConfigError(f"verify measures bubbles with bubble.m = 2 or 3, got {params.m}")
    if "conormal" in quantities and params.m != 2:
        raise ConfigError(f"quantity conormal needs bubble.m = 2, got {params.m}")
    perturbed = _bool(cfg["perturbed"])
    if perturbed and params.m != 2:
        raise ConfigError(f"perturbed = true needs bubble.m = 2, got {params.m}")
    seed = _number(cfg["seed"], "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    amplitude = _number(cfg["field_amplitude"], "field_amplitude")
    bubble = solve_standard_bubble(params)
    perturbation = None
    if perturbed:
        perturbation = random_admissible_field(bubble, np.random.default_rng(seed), amplitude)
        # the sweep scales the field by rho^2, so its largest rho decides
        try:
            check_admissible(perturbation.scaled(max(rhos) ** 2))
        except ValueError as exc:
            raise ConfigError(f"field_amplitude = {amplitude:g} at rho = {max(rhos):g}: {exc}") from None

    results = verify_many(
        chart,
        p,
        axis,
        bubble,
        quantities,
        rhos,
        grid=grid,
        geodesic_steps=geodesic_steps,
        sector_nodes=sector_nodes,
        perturbation=perturbation,
    )

    rows = []
    for q in quantities:  # fixed input order keeps the file stable
        fit, sweep = results[q]
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
        rows.append([q, "fit", fmt(fit.slope), fmt(fit.r_squared), fmt(fit.threshold),
                     "pass" if fit.passed else "fail"])
    write_csv(
        outdir / "verify.csv",
        ["quantity", "rho", "oracle", "expansion", "error", "slope_so_far"],
        rows,
    )
    for q, (fit, _) in results.items():
        status = "exact" if fit.exact else f"slope {fit.slope:.3f} (>= {fit.threshold:.2f})"
        print(f"verify {q}: {status} {'PASS' if fit.passed else 'FAIL'}")
    return 0 if all(fit.passed for fit, _ in results.values()) else 1


def cmd_predict(cfg: dict, outdir: Path) -> int:
    chart = build_chart(cfg)
    params = _bubble_params(cfg, chart)
    seeds = _point_list(cfg["seeds"], "seeds", chart.dim)
    rho = _number(cfg["rho"], "rho", positive=True)
    tol = _number(cfg["newton_tol"], "newton_tol", positive=True)
    preds, points = predict_full(chart, seeds, rho, params, tol=tol)
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
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and ignored: verify measures every scale of rho_list in one pass",
    )
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
            return cmd_verify(cfg, outdir)
        return cmd_predict(cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainExit, RuntimeError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
