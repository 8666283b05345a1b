import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from doublebubble import expansions, fields, measure
from doublebubble.charts import builtin_chart
from doublebubble.cli import build_chart, main, parse_config, fmt, ConfigError


def write_cfg(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


BASE_CFG = """
chart = round_sphere
chart.a = 1.0
bubble.m = 2
bubble.h0 = 0
bubble.h1 = 3
bubble.h2 = 3
rho_list = 0.2,0.14,0.1
grid = 16,32
sector_nodes = 6
quantities = area,v1
"""


def test_parse_config_defaults_and_rejection(tmp_path):
    cfg = parse_config(write_cfg(tmp_path / "a.cfg", "chart = euclidean\n# comment\n"))
    assert cfg["chart"] == "euclidean"
    assert cfg["bubble.m"] == "2"
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path / "b.cfg", "unknown_key = 3\n"))
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path / "c.cfg", "just a line\n"))


def test_fmt_17_digits():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert fmt(True) == "true"
    assert fmt(float("nan")) == "nan"
    assert fmt(3) == "3"


def test_geometry_and_constants_commands(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", BASE_CFG)
    out = tmp_path / "out"
    assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "geometry.csv").read_text().splitlines()
    assert lines[0] == "sheet,radius,phi,center,area"
    assert len(lines) == 4
    assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
    body = (out / "constants.csv").read_text()
    assert "A," in body and "B," in body


def test_constants_symmetric_values(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["constants", "--config", str(cfg), "--out", str(out)])
    rows = {l.split(",")[0]: l.split(",") for l in (out / "constants.csv").read_text().splitlines()[1:]}
    r4 = (2.0 / 3.0) ** 4
    assert float(rows["A"][1]) / r4 == pytest.approx(2.86875, abs=1e-12)
    assert float(rows["B"][1]) / r4 == pytest.approx(0.984375, abs=1e-12)
    assert abs(float(rows["A"][3])) <= 1e-10
    assert abs(float(rows["B"][3])) <= 1e-10


def test_verify_flat_chart_exits_zero(tmp_path):
    cfg = write_cfg(
        tmp_path / "flat.cfg",
        BASE_CFG.replace("round_sphere", "euclidean").replace("chart.a = 1.0\n", ""),
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    body = (out / "verify.csv").read_text()
    assert body.splitlines()[0] == "quantity,rho,oracle,expansion,error,slope_so_far"
    assert ",inf," in body or "pass" in body


def test_verify_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", BASE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


def test_verify_parallel_matches_serial(tmp_path):
    # --jobs is accepted and changes nothing: verify measures every scale in one pass
    cfg = write_cfg(tmp_path / "run.cfg", BASE_CFG)
    out1, out2 = tmp_path / "s", tmp_path / "p"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


def test_predict_command_json_records(tmp_path):
    cfg = write_cfg(
        tmp_path / "p.cfg",
        """
chart = conformal_bump
chart.eps = -0.1
chart.s = 0.5
bubble.m = 2
bubble.h0 = 1
bubble.h1 = 3
bubble.h2 = 2
rho = 0.05
seeds = 0.2,0,0; -0.1,0.15,0
""",
    )
    out = tmp_path / "out"
    assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "predictions.json").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    for key in ("point", "sc", "hessian_eigs", "mu", "multiplicity", "axis",
                "rho", "curvatures", "phi_leading", "count"):
        assert key in rec
    assert rec["count"] == 2
    assert np.linalg.norm(np.array(rec["point"])) <= 1e-4


def test_curvature_command(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", BASE_CFG + "points = 0,0,0; 0.2,0.1,-0.1\n")
    out = tmp_path / "out"
    assert main(["curvature", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "curvature.csv").read_text().splitlines()
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(6.0, abs=1e-9)


def test_exit_codes(tmp_path):
    bad = write_cfg(tmp_path / "bad.cfg", "nope = 1\n")
    assert main(["geometry", "--config", str(bad), "--out", str(tmp_path)]) == 2
    unbalanced = write_cfg(tmp_path / "ub.cfg", "bubble.h0 = 1\nbubble.h1 = 3\nbubble.h2 = 3\n")
    assert main(["geometry", "--config", str(unbalanced), "--out", str(tmp_path)]) == 2
    # numerically impossible: bubble does not fit the chart at rho
    big = write_cfg(tmp_path / "big.cfg", BASE_CFG + "rho_list = 3.0,2.0,1.0\n")
    assert main(["verify", "--config", str(big), "--out", str(tmp_path)]) == 3
    # verify config errors are caught before any oracle work
    nope = write_cfg(tmp_path / "nope.cfg", BASE_CFG + "quantities = area,nope\n")
    assert main(["verify", "--config", str(nope), "--out", str(tmp_path)]) == 2
    rising = write_cfg(tmp_path / "rising.cfg", BASE_CFG + "rho_list = 0.1,0.2,0.05\n")
    assert main(["verify", "--config", str(rising), "--out", str(tmp_path)]) == 2
    short = write_cfg(tmp_path / "short.cfg", BASE_CFG + "rho_list = 0.2,0.1\n")
    assert main(["verify", "--config", str(short), "--out", str(tmp_path)]) == 2
    # coordinates of the wrong length for the 3-dimensional chart, m-sheets
    # outside an (m + 1)-dimensional chart, random admissible fields for m != 2,
    # sheet dimensions the oracle has no parametrization for (m = 1, m = 4)
    # and the conormal defect, whose neck grids exist for m = 2 only
    for command, text in (
        ("verify", "point = 0,0\n"),
        ("verify", "axis = 0,0,0,1\n"),
        ("verify", "chart = conformal_bump\nchart.x0 = 0,0\n"),
        ("curvature", "points = 0,0,0;0.1,0\n"),
        ("curvature", "axis = 0,1\n"),
        ("predict", "seeds = 0.1,0\n"),
        ("verify", "bubble.m = 3\n"),
        ("predict", "bubble.m = 3\n"),
        ("verify", "bubble.m = 3\nchart.dim = 4\npoint = 0,0,0,0\naxis = 0,0,0,1\nperturbed = true\n"),
        ("verify", "bubble.m = 1\nchart.dim = 2\npoint = 0,0\naxis = 0,1\n"),
        ("verify", "bubble.m = 4\nchart.dim = 5\npoint = 0,0,0,0,0\naxis = 0,0,0,0,1\n"),
        (
            "verify",
            "bubble.m = 3\nchart.dim = 4\npoint = 0,0,0,0\naxis = 0,0,0,1\n"
            "quantities = area,v1,v2,h0,h1,h2,conormal,phi\n",
        ),
        # malformed or out-of-range numbers, rejected before any numerics
        ("verify", "grid = 32\n"),
        ("verify", "grid = 32,64,8\n"),
        ("verify", "grid = 0,64\n"),
        ("verify", "grid = 16.5,32\n"),
        ("verify", "sector_nodes = ten\n"),
        ("verify", "geodesic_steps = 0\n"),
        ("verify", "rho_list = 0.2,abc,0.1\n"),
        ("verify", "rho_list = 0.2,0.1,-0.1\n"),
        ("verify", "seed = x\n"),
        ("verify", "seed = -1\nperturbed = true\n"),
        ("verify", "field_amplitude = big\n"),
        # admissible at scale 1 but not once scaled by the largest rho^2
        ("verify", "perturbed = true\nfield_amplitude = 100\n"),
        ("verify", "point = 0,zero,0\n"),
        ("verify", "chart.a = one\n"),
        ("verify", "chart.a = -1\n"),
        ("verify", "chart = conformal_bump\nchart.s = wide\n"),
        ("verify", "chart = euclidean\nchart.dim = 3.5\n"),
        ("verify", "chart = euclidean\nchart.half_width = -1\n"),
        ("verify", "chart = product\nchart.factors = 2-1.0,1:inf\n"),
        ("verify", "chart = torus\n"),
        ("predict", "rho = 0\n"),
        ("predict", "newton_tol = tight\n"),
    ):
        # a family other than the round sphere does not take BASE_CFG's chart.a
        base = BASE_CFG.replace("chart.a = 1.0\n", "") if "chart = " in text else BASE_CFG
        wrong = write_cfg(tmp_path / "wrong.cfg", base + text)
        assert main([command, "--config", str(wrong), "--out", str(tmp_path)]) == 2, text


@pytest.mark.parametrize(
    "command,text",
    [
        ("verify", "quantities =\n"),
        ("verify", "quantities = ,\n"),
        ("verify", "quantities = area,area\n"),
        ("verify", "quantities = v1,area,v1\n"),
        ("predict", "seeds =\n"),
        ("predict", "seeds = ;\n"),
        ("curvature", "points =\n"),
        ("curvature", "points = ;\n"),
    ],
)
def test_empty_and_repeated_inputs_are_config_errors(tmp_path, command, text):
    cfg = write_cfg(tmp_path / "run.cfg", BASE_CFG + text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not any((out / name).exists() for name in ("verify.csv", "predictions.json", "curvature.csv"))


def test_chart_setting_the_family_does_not_take_is_a_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", "chart = product\nchart.a = 2\n")
    assert main(["curvature", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    with pytest.raises(ConfigError, match="chart = product"):
        build_chart(parse_config(cfg))
    # every setting a config gives reaches the constructor
    cfg = write_cfg(tmp_path / "run.cfg", "chart = conformal_bump\nchart.eps = 0.2\nchart.dim = 4\n")
    chart = build_chart(parse_config(cfg))
    assert (chart.eps, chart.dim) == (0.2, 4)


def chart_settings(chart) -> dict:
    """Everything a chart was built with, as comparable values."""
    settings = {"type": type(chart), "name": chart.name, "dim": chart.dim,
                "domain": (tuple(chart.domain.lo), tuple(chart.domain.hi))}
    for key in ("a", "eps", "s", "factors"):
        if hasattr(chart, key):
            settings[key] = getattr(chart, key)
    if hasattr(chart, "x0"):
        settings["x0"] = tuple(chart.x0)
    return settings


@pytest.mark.parametrize("family", ["euclidean", "round_sphere", "conformal_bump", "product"])
def test_chart_defaults_are_the_constructors(tmp_path, family):
    # a config that names only the family builds the chart builtin_chart does
    cfg = parse_config(write_cfg(tmp_path / "c.cfg", f"chart = {family}\n"))
    assert chart_settings(build_chart(cfg)) == chart_settings(builtin_chart(family))


def test_verify_perturbed_path(tmp_path):
    cfg = write_cfg(
        tmp_path / "pert.cfg",
        BASE_CFG + "perturbed = true\nfield_amplitude = 0.02\nseed = 4\n",
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    body = (out / "verify.csv").read_text()
    assert body.count("pass") == 2


def test_verify_left_handed_axis_passes(tmp_path):
    # seed axis (0,0,-1) gives a left-handed frame; the volume cones carry
    # the sign of its determinant, so the perturbed volumes still converge
    cfg = write_cfg(
        tmp_path / "left.cfg",
        BASE_CFG + "quantities = v1,v2,vtot\nperturbed = true\naxis = 0,0,-1\n",
    )
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "verify.csv").read_text().count("pass") == 3


def test_verify_measures_each_rho_once(tmp_path, monkeypatch):
    embeds, volume_evals, h_passes, h_terms, conormal_passes, jets = [], [], [], [], [], []
    volume_terms = []
    init, measure_volumes = measure.EmbeddedBubble.__init__, measure.measure_volumes
    volumes_expansion = expansions.geodesic_volumes_expansion
    field_jet, displaced_point_z, points = fields.field_jet, fields.displaced_point_z, []
    mean_curvature, terms = measure.measure_mean_curvature, fields.mean_curvature_terms
    conormal = measure.measure_conormal_defect
    responses = {
        "first_order_area_corrections": 0,
        "first_order_volume_corrections": 0,
        "perturbed_mean_curvature": 0,
    }

    def counting_init(self, chart, frame, bubble, rho, *args, **kwargs):
        embeds.append(rho)
        init(self, chart, frame, bubble, rho, *args, **kwargs)

    def counting_volumes(eb):
        if "volumes" not in eb._sheet_cache:
            volume_evals.append(eb.rho)
        return measure_volumes(eb)

    def counting_h(ebs, sheet, z):
        h_passes.append((tuple(eb.rho for eb in ebs), tuple(np.unique(sheet))))
        return mean_curvature(ebs, sheet, z)

    def counting_conormal(ebs):
        conormal_passes.append(tuple(eb.rho for eb in ebs))
        return conormal(ebs)

    def counting_terms(bubble, sheet, *args, **kwargs):
        h_terms.append(sheet)
        return terms(bubble, sheet, *args, **kwargs)

    def counting(name):
        original = getattr(fields, name)

        def counted(*args, **kwargs):
            responses[name] += 1
            return original(*args, **kwargs)

        return counted

    def counting_jet(fun, z, sheet):
        jets.append((sheet, z.shape[:-1]))
        return field_jet(fun, z, sheet)

    def counting_points(bubble, sheet, z):
        # the flat points alone: the field displaces them through _sheet_jet
        points.append(sheet)
        return displaced_point_z(bubble, sheet, z)

    def counting_volume_terms(bubble):
        volume_terms.append(bubble)
        return volumes_expansion(bubble)

    monkeypatch.setattr(fields, "field_jet", counting_jet)
    monkeypatch.setattr(fields, "displaced_point_z", counting_points)
    monkeypatch.setattr(measure.EmbeddedBubble, "__init__", counting_init)
    monkeypatch.setattr(measure, "measure_volumes", counting_volumes)
    monkeypatch.setattr(measure, "measure_mean_curvature", counting_h)
    monkeypatch.setattr(measure, "measure_conormal_defect", counting_conormal)
    monkeypatch.setattr(measure, "mean_curvature_terms", counting_terms)
    monkeypatch.setattr(expansions, "geodesic_volumes_expansion", counting_volume_terms)
    # the first-order field responses, wherever the sweep reaches them from
    for name in responses:
        wrapper = counting(name)
        for module in (fields, measure):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    cfg = write_cfg(
        tmp_path / "all.cfg",
        BASE_CFG
        + "quantities = area,v1,v2,h0,h1,h2,conormal,phi\n"
        + "perturbed = true\nfield_amplitude = 0.02\nseed = 4\n",
    )
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # one bubble and one volume evaluation per rho
    assert sorted(embeds) == sorted(volume_evals) == [0.1, 0.14, 0.2]
    # one h-row pass and one conormal pass per sweep, each over every rho
    # (and the h rows over the three sheets), and the formula side's parts,
    # the field part among them, once per sheet and sweep
    assert h_passes == [((0.2, 0.14, 0.1), (0, 1, 2))]
    assert conormal_passes == [(0.2, 0.14, 0.1)]
    assert sorted(h_terms) == [0, 1, 2]
    # the field's jets: one per sheet at the 16 x 32 flat nodes, which the
    # first-order responses, the h rows and the conormals of every rho read
    # as well (none on RESPONSE_GRID), and one of w at its H_SAMPLES h-row
    # points for the closed form
    sizes = ((measure.H_SAMPLES,), (16 * 32,))
    assert sorted(jets) == sorted((s, n) for s in range(3) for n in sizes)
    assert sorted(set(points)) == [0, 1, 2]
    assert responses == {
        "first_order_area_corrections": 1,
        "first_order_volume_corrections": 1,
        "perturbed_mean_curvature": 0,
    }
    # the chambers' expansion terms are built once per command, for their
    # formula side and their claimed order alike
    assert len(volume_terms) == 1


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", BASE_CFG)
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "doublebubble", "geometry", "--config", str(cfg), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("geometry: r=")
    assert (out / "geometry.csv").read_text().startswith("sheet,radius,phi,center,area\n")
