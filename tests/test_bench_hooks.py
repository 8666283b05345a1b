"""The benchmark tracer (bench/spans.py) finds the functions it times by
module and name; renaming one must fail here, not only later under
`bench/run.py --trace 1`."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import doublebubble.cli  # noqa: F401  (imports every module the tracer patches)
from doublebubble import charts, geometry, measure

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read bench/, write nothing there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _package_attributes():
    mods = [m for name, m in sys.modules.items() if name.startswith("doublebubble.")]
    attrs = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    attrs["EmbeddedBubble.__init__"] = measure.EmbeddedBubble.__dict__["__init__"]
    attrs["EuclideanChart.metric"] = charts.EuclideanChart.__dict__["metric"]
    return attrs


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    before = _package_attributes()
    tracer = spans.Tracer()
    try:
        tracer.install((charts.EuclideanChart,))
        for name, (module, attr) in spans.TRACED.items():
            assert getattr(sys.modules[module], attr) is not before[(module, attr)], name
        # one small traced oracle call binds the arguments the span attributes read
        chart = charts.builtin_chart("euclidean", dim=3)
        frame = charts.orthonormal_frame(chart, np.zeros(3), np.array([0.0, 0.0, 1.0]))
        bubble = geometry.solve_standard_bubble(geometry.BubbleParams(2, 1.0, 3.0, 2.0))
        eb = measure.EmbeddedBubble(chart, frame, bubble, 0.1, grid=(4, 8), sector_nodes=2)
        measure.measure_area(eb)
        names = {rec[spans.NAME] for rec in tracer.spans}
        assert {"measure.embed", "measure.measure_area", "fields.displaced_point_z", "charts.exp_map"} <= names
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
