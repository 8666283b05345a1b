"""Span tracing of the doublebubble package from outside the package.

The tracer replaces public functions by wrappers in every module namespace
that holds them, so each caller's own lookup finds the wrapper.  A wrapper
records a span: a name, a start, an end, the span that caused it and the id
of the benchmark operation it belongs to.  Span stacks are thread-local,
because `doublebubble verify --jobs 2` runs its cells on pool threads; a span
that opens on an empty worker stack takes the main thread's open span as its
parent.  Chart metric evaluations are far too many to keep one by one, so
they are summed into their parent span instead.

Spans stay in memory; `op_counts` derives per-operation self times and
counts from them once the run has ended.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

# span record fields
SID, PARENT, NAME, OP, T0, T1, ATTRS = range(7)

# span name -> (module, attribute) of the traced original
TRACED = {
    "cli.cmd_verify": ("doublebubble.cli", "cmd_verify"),
    "cli.write_csv": ("doublebubble.cli", "write_csv"),
    "measure.verify_many": ("doublebubble.measure", "verify_many"),
    "measure.measure_area": ("doublebubble.measure", "measure_area"),
    "measure.measure_volumes": ("doublebubble.measure", "measure_volumes"),
    "measure.measure_mean_curvature": ("doublebubble.measure", "measure_mean_curvature"),
    "measure.measure_conormal_defect": ("doublebubble.measure", "measure_conormal_defect"),
    "charts.exp_map": ("doublebubble.charts", "exp_map"),
    "charts.christoffel": ("doublebubble.charts", "christoffel"),
    "charts.curvature_at": ("doublebubble.charts", "curvature_at"),
    "charts.scalar_curvature": ("doublebubble.charts", "scalar_curvature"),
    "charts.scalar_gradient": ("doublebubble.charts", "scalar_gradient"),
    "charts.scalar_hessian": ("doublebubble.charts", "scalar_hessian"),
    "fields.displaced_point_z": ("doublebubble.fields", "displaced_point_z"),
    "fields.perturbed_mean_curvature": ("doublebubble.fields", "perturbed_mean_curvature"),
    "fields.perturbed_area_expansion": ("doublebubble.fields", "perturbed_area_expansion"),
    "fields.perturbed_volume_expansion": ("doublebubble.fields", "perturbed_volume_expansion"),
    "locate.find_critical_scalar": ("doublebubble.locate", "find_critical_scalar"),
    "locate.ricci_eigendecomposition": ("doublebubble.locate", "ricci_eigendecomposition"),
}
# every public function of these modules is traced as "<layer>.<function>"
WHOLE_MODULES = ("expansions", "geometry")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.cmd_verify.self_s", "s"),
    ("cli.verify_many_calls", "count"),
    ("cli.write_csv.s", "s"),
    ("measure.embeds", "count"),
    ("measure.embeds_per_rho", "count"),
    ("measure.measure_volumes.s", "s"),
    ("measure.measure_volumes.evals", "count"),
    ("measure.geodesics_per_volume_eval", "count"),
    ("measure.measure_area.s", "s"),
    ("measure.measure_mean_curvature.s", "s"),
    ("measure.measure_conormal_defect.s", "s"),
    ("measure.verify_many.self_s", "s"),
    ("charts.exp_map.s", "s"),
    ("charts.exp_map.calls", "count"),
    ("charts.exp_map.geodesics", "count"),
    ("charts.exp_map.rk4_point_steps", "count"),
    ("charts.exp_map.rk4_point_steps_per_s", "1/s"),
    ("charts.exp_map.closed_geodesics_per_s", "1/s"),
    ("charts.metric.s", "s"),
    ("charts.metric.points", "count"),
    ("charts.christoffel.s", "s"),
    ("charts.christoffel.calls", "count"),
    ("charts.curvature_at.s", "s"),
    ("charts.scalar_curvature.s", "s"),
    ("charts.scalar_curvature.calls", "count"),
    ("fields.displaced_point_z.s", "s"),
    ("fields.displaced_point_z.points", "count"),
    ("fields.perturbed_mean_curvature.s", "s"),
    ("fields.perturbed_expansions.s", "s"),
    ("expansions.s", "s"),
    ("geometry.s", "s"),
    ("locate.find_critical_scalar.s", "s"),
    ("locate.newton_iters", "count"),
    ("locate.gradient_evals", "count"),
    ("locate.converged_ratio", "ratio"),
    ("locate.ricci_eigendecomposition.s", "s"),
    ("trace.spans", "count"),
    ("trace.op_s.p50", "s"),
    ("trace.overhead_s", "s"),
]


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _exp_map_attrs(fn):
    """Geodesics = rows of v; RK4 point-steps = geodesics x steps unless the
    chart's closed-form exponential answers (probed on one row)."""
    sig = inspect.signature(fn)

    def attrs(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        v = np.asarray(a["v"], dtype=float)
        geodesics = _rows(v)
        closed = False
        if not a["force_rk4"]:
            probe = v.reshape(-1, v.shape[-1])[:1]
            closed = a["chart"].exp_closed(np.asarray(a["p"], dtype=float), probe) is not None
        steps = 0 if closed else geodesics * int(a["steps"])
        return {"geodesics": geodesics, "closed": closed, "rk4_point_steps": steps}
    return attrs


def _arg_attrs(arg, key, measure):
    """Record measure(argument `arg`) under `key`."""
    def factory(fn):
        sig = inspect.signature(fn)

        def attrs(args, kwargs):
            return {key: measure(sig.bind(*args, **kwargs).arguments[arg])}
        return attrs
    return factory


def _cache_attrs(key):
    """Whether the EmbeddedBubble cache lacked `key`, i.e. the call computes."""
    def factory(fn):
        def attrs(args, kwargs):
            return {"eval": key not in args[0]._sheet_cache}
        return attrs
    return factory


# span name -> factory(original) of a function (args, kwargs) -> span attrs,
# evaluated before the call (cache state, arguments) or after it (probes)
_PRE_ATTRS = {
    "measure.measure_area": _cache_attrs("areas"),
    "measure.measure_volumes": _cache_attrs("volumes"),
    "measure.embed": _arg_attrs("rho", "rho", float),
    "fields.displaced_point_z": _arg_attrs("z", "points", _rows),
}
_POST_ATTRS = {
    "charts.exp_map": _exp_map_attrs,
}


class Tracer:
    """Installs span wrappers into the imported doublebubble modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # (op, parent span id) -> [calls, seconds, points] of chart.metric
        self.metric_calls: dict = {}
        self._metric_lock = threading.Lock()

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record one span around a block (the benchmark's operation root)."""
        rec = self._open(name, attrs or {})
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name, attrs):
        stack = self._stack()
        rec = [next(self._ids), self._parent(stack), name, self.op, time.perf_counter(), None, attrs]
        self.spans.append(rec)
        stack.append(rec[SID])
        return rec

    def _close(self, rec):
        rec[T1] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        pre = _PRE_ATTRS[name](fn) if name in _PRE_ATTRS else None
        post = _POST_ATTRS[name](fn) if name in _POST_ATTRS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, pre(args, kwargs) if pre else {})
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ATTRS]["raised"] = True
                raise
            finally:
                self._close(rec)
                if post:
                    rec[ATTRS].update(post(args, kwargs))
        return traced

    def _wrap_metric(self, fn):
        """Chart metric: summed into the caller's span as calls, seconds, points."""
        def traced(chart, x):
            t0 = time.perf_counter()
            try:
                return fn(chart, x)
            finally:
                dt = time.perf_counter() - t0
                key = (self.op, self._parent(self._stack()))
                with self._metric_lock:
                    entry = self.metric_calls.setdefault(key, [0, 0.0, 0])
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += _rows(x)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, chart_classes) -> None:
        mods = {k: v for k, v in sys.modules.items() if k.startswith("doublebubble.")}
        originals = {}
        for name, (modname, attr) in TRACED.items():
            originals[id(getattr(mods[modname], attr))] = name
        for layer in WHOLE_MODULES:
            mod = mods[f"doublebubble.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    originals[id(value)] = f"{layer}.{attr}"
        wrappers = {}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        embedded = mods["doublebubble.measure"].EmbeddedBubble
        self._patch(embedded, "__init__", self._wrap("measure.embed", embedded.__init__))
        for cls in chart_classes:
            self._patch(cls, "metric", self._wrap_metric(cls.metric))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------------------
# per-layer metrics


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def op_counts(spans: list, metric_calls: dict, op) -> dict:
    """Per-layer values of one traced operation (see PER_LAYER)."""
    spans = [r for r in spans if r[OP] == op]
    by_id = {r[SID]: r for r in spans}
    children: dict = {}
    for r in spans:
        children.setdefault(r[PARENT], []).append(r)
    metric_by_parent = {
        parent: entry for (o, parent), entry in metric_calls.items() if o == op
    }

    def dur(r):
        return r[T1] - r[T0]

    def self_time(r):
        kids = [(max(c[T0], r[T0]), min(c[T1], r[T1])) for c in children.get(r[SID], [])]
        own_metric = metric_by_parent.get(r[SID], (0, 0.0, 0))[1]
        return dur(r) - _union_length(kids) - own_metric

    def ancestors(r):
        parent = by_id.get(r[PARENT])
        while parent is not None:
            yield parent
            parent = by_id.get(parent[PARENT])

    def named(name):
        return [r for r in spans if r[NAME] == name]

    def outer_s(match):
        """Busy seconds of matching spans, counting nested matches once."""
        return sum(
            dur(r) for r in spans
            if match(r[NAME]) and not any(match(a[NAME]) for a in ancestors(r))
        )

    def seconds(name):
        return outer_s(lambda n: n == name)

    exp_spans = named("charts.exp_map")
    rk4 = [r for r in exp_spans if not r[ATTRS].get("closed")]
    closed = [r for r in exp_spans if r[ATTRS].get("closed")]
    volume_evals = [r for r in named("measure.measure_volumes") if r[ATTRS]["eval"]]
    volume_ids = {r[SID] for r in volume_evals}
    volume_geodesics = sum(
        r[ATTRS]["geodesics"] for r in exp_spans
        if any(a[SID] in volume_ids for a in ancestors(r))
    )
    embeds = named("measure.embed")
    rhos = {r[ATTRS]["rho"] for r in embeds}
    cmd = named("cli.cmd_verify")
    cmd_ids = {r[SID] for r in cmd}
    rk4_steps = sum(r[ATTRS]["rk4_point_steps"] for r in rk4)
    rk4_s = sum(dur(r) for r in rk4)
    closed_geodesics = sum(r[ATTRS]["geodesics"] for r in closed)
    closed_s = sum(dur(r) for r in closed)
    metric_calls_op = list(metric_by_parent.values())
    searches = named("locate.find_critical_scalar")
    return {
        "cli.cmd_verify.self_s": sum(self_time(r) for r in cmd),
        "cli.verify_many_calls": sum(
            1 for r in named("measure.verify_many") if r[PARENT] in cmd_ids
        ),
        "cli.write_csv.s": seconds("cli.write_csv"),
        "measure.embeds": len(embeds),
        "measure.embeds_per_rho": len(embeds) / len(rhos) if rhos else 0.0,
        "measure.measure_volumes.s": seconds("measure.measure_volumes"),
        "measure.measure_volumes.evals": len(volume_evals),
        "measure.geodesics_per_volume_eval": (
            volume_geodesics / len(volume_evals) if volume_evals else 0.0
        ),
        "measure.measure_area.s": seconds("measure.measure_area"),
        "measure.measure_mean_curvature.s": seconds("measure.measure_mean_curvature"),
        "measure.measure_conormal_defect.s": seconds("measure.measure_conormal_defect"),
        "measure.verify_many.self_s": sum(self_time(r) for r in named("measure.verify_many")),
        "charts.exp_map.s": seconds("charts.exp_map"),
        "charts.exp_map.calls": len(exp_spans),
        "charts.exp_map.geodesics": sum(r[ATTRS]["geodesics"] for r in exp_spans),
        "charts.exp_map.rk4_point_steps": rk4_steps,
        "charts.exp_map.rk4_point_steps_per_s": rk4_steps / rk4_s if rk4_s else 0.0,
        "charts.exp_map.closed_geodesics_per_s": (
            closed_geodesics / closed_s if closed_s else 0.0
        ),
        "charts.metric.s": sum(e[1] for e in metric_calls_op),
        "charts.metric.points": sum(e[2] for e in metric_calls_op),
        "charts.christoffel.s": seconds("charts.christoffel"),
        "charts.christoffel.calls": len(named("charts.christoffel")),
        "charts.curvature_at.s": seconds("charts.curvature_at"),
        "charts.scalar_curvature.s": seconds("charts.scalar_curvature"),
        "charts.scalar_curvature.calls": len(named("charts.scalar_curvature")),
        "fields.displaced_point_z.s": seconds("fields.displaced_point_z"),
        "fields.displaced_point_z.points": sum(
            r[ATTRS]["points"] for r in named("fields.displaced_point_z")
        ),
        "fields.perturbed_mean_curvature.s": seconds("fields.perturbed_mean_curvature"),
        "fields.perturbed_expansions.s": outer_s(
            lambda n: n in ("fields.perturbed_area_expansion", "fields.perturbed_volume_expansion")
        ),
        "expansions.s": outer_s(lambda n: n.startswith("expansions.")),
        "geometry.s": outer_s(lambda n: n.startswith("geometry.")),
        "locate.find_critical_scalar.s": seconds("locate.find_critical_scalar"),
        "locate.newton_iters": len(named("charts.scalar_hessian")),
        "locate.gradient_evals": len(named("charts.scalar_gradient")),
        "locate.converged_ratio": (
            sum(not r[ATTRS].get("raised") for r in searches) / len(searches) if searches else 0.0
        ),
        "locate.ricci_eigendecomposition.s": seconds("locate.ricci_eigendecomposition"),
        "trace.spans": len(spans),
    }
