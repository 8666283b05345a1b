"""Benchmark of the doublebubble oracle, locator and CLI.

Usage (from the repository root):

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke

Workloads (see bench/spec.json for why each was chosen and what each layer
metric is predicted to move):

  verify_sphere  `doublebubble verify --jobs 2` on the perturbed round sphere
  volumes_bump   one RK4 oracle evaluation (areas + volumes) on conformal_bump
  locate_bump    one predict_full from seed points near the bump centre, every
                 fourth operation with a seed from which Newton stalls

A run imports the package from ./src and runs operations one after another
(a closed loop with one client) until S seconds have passed; before every
operation it imports the package afresh and sets the workload up again (the
median of these is `setup_s`).  It then checks every result and prints the
metrics by name with units and sample counts.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; `failed`
counts operations that raised or returned a wrong output (fail_frac is
failed / attempted), `correct` is false when any output was wrong.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 each
input runs untraced and then traced, and the metrics are the per-layer ones
derived from the spans.  A summary with the environment, every operation
and (traced) every span is written to .bench_build/bench/.

--smoke runs all three workloads at a tiny size, untraced and traced, and
fails unless every check passes, no operation fails and every metric is
reported; it also reports whether the known locator defect recorded in
bench/spec.json still reproduces.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the only parallelism is verify's two pool threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import PER_LAYER, Tracer, op_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"
MODULES = ("cli", "charts", "expansions", "fields", "geometry", "locate", "measure")
END_TO_END = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]


def fresh_import():
    """Import doublebubble from ./src, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "doublebubble" or m.startswith("doublebubble.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("doublebubble")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"doublebubble imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"doublebubble.{m}") for m in MODULES}
    )


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment() -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail(samples):
    """(value, percentile, n): the highest nearest-rank percentile with ten
    samples beyond it, but never below p90, so runs with fewer than 100
    operations report their nearest-rank p90 (the maximum below 10)."""
    s = sorted(samples)
    n = len(s)
    if n >= 100:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[math.ceil(0.9 * n) - 1], 90.0, n


def run(name, seed, seconds, trace, size="full", min_ops=1):
    """Set up, run and check one workload; returns the result record."""
    spec = json.loads((BENCH / "spec.json").read_text())
    workdir = OUT / f"tmp-{name}-{seed}-{os.getpid()}"
    try:
        setups = []
        tracer = Tracer() if trace else None
        # {"input", "traced", "s", "result" | "error" (raised), "wrong" (failed check)}
        ops = []

        def set_up():
            gc.collect()  # the previous set-up's modules, outside any timing
            t0 = time.perf_counter()
            wl = WORKLOADS[name](fresh_import(), seed, size, spec, workdir)
            setups.append(time.perf_counter() - t0)
            return wl

        def attempt(wl, i, traced):
            rec = {"input": i, "traced": traced}
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.op = len(ops)
                    tracer.install(wl.chart_classes)
                    try:
                        with tracer.span("op", {"input": i}):
                            rec["result"] = wl.op(i)
                    finally:
                        tracer.uninstall()
                else:
                    rec["result"] = wl.op(i)
            except Exception:  # an operation that raises is a failed operation
                rec["error"] = traceback.format_exc(limit=3)
            rec["s"] = time.perf_counter() - t0
            ops.append(rec)

        # a fresh set-up before every input spreads the set-up samples over
        # the run, as the operations are, instead of bunching them at the
        # start; the run ends on a whole period of the workload's inputs
        period = getattr(WORKLOADS[name], "period", 1)
        start = time.perf_counter()
        i = 0
        while i < min_ops or i % period or time.perf_counter() - start < seconds:
            wl = set_up()
            attempt(wl, i, False)
            if trace:
                attempt(wl, i, True)
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.finish([(rec["input"], rec["result"]) for rec in ops if "result" in rec])
        for rec in ops:
            if "result" in rec:
                reason = wl.check(rec["input"], rec["result"])
                if reason:
                    rec["wrong"] = reason
        result = {"workload": name, "seed": seed, "seconds": seconds, "size": size,
                  "trace": trace, "env": environment(), "claim": None}
        if trace:
            result["metrics"], layers = traced_metrics(wl, spec, ops, tracer)
            result["spans"] = tracer.spans
            result["metric_calls"] = [[*k, *v] for k, v in tracer.metric_calls.items()]
            result["per_op_layers"] = layers
        else:
            times = [rec["s"] for rec in ops]
            t_value, t_pct, n = tail(times)
            result["metrics"] = {
                "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
                "op_s.p50": {"value": statistics.median(times), "unit": "s", "n": n},
                "op_s.tail": {"value": t_value, "unit": "s", "n": n, "percentile": t_pct},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
            }
        failed = [rec for rec in ops if "error" in rec or "wrong" in rec]
        result["metrics"]["fail_frac"] = {"value": len(failed) / len(ops), "unit": "ratio",
                                          "n": len(ops)}
        result["attempted"] = len(ops)
        result["failed"] = len(failed)
        result["correct"] = not any("wrong" in rec for rec in ops)
        result["ops"] = [
            {"input": r["input"], "traced": r["traced"], "s": r["s"], "error": r.get("error"),
             "wrong": r.get("wrong"),
             "note": wl.note(r["input"], r["result"]) if "result" in r else None}
            for r in ops
        ]
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_metrics(wl, spec, ops, tracer):
    """Per-layer metrics: means over traced operations, plus the guards.

    A traced operation that returned is wrong when a layer its workload
    exercised at the seed commit reads zero, or when an exact count differs
    between ops."""
    guards = spec["workloads"][wl.name]["guards"]
    traced = [(k, rec) for k, rec in enumerate(ops) if rec["traced"]]
    layers = []
    for k, rec in traced:
        counts = op_counts(tracer.spans, tracer.metric_calls, k)
        layers.append(counts)
        if "result" not in rec:
            continue
        for metric in guards["positive"]:
            if counts[metric] <= 0:
                rec["wrong"] = f"layer no longer exercised: {metric} = {counts[metric]}"
        for metric in guards["exact"]:
            if counts[metric] != layers[0][metric]:
                rec["wrong"] = f"count {metric} varies between ops: {counts[metric]} != {layers[0][metric]}"
    metrics = {}
    for metric, unit in PER_LAYER:
        values = [c[metric] for c in layers if metric in c]
        if values:
            metrics[metric] = {"value": float(np.mean(values)), "unit": unit, "n": len(values)}
    untraced = [rec["s"] for rec in ops if not rec["traced"]]
    traced_s = [rec["s"] for _, rec in traced]
    p50 = statistics.median(traced_s)
    metrics["trace.op_s.p50"] = {"value": p50, "unit": "s", "n": len(traced_s)}
    metrics["trace.overhead_s"] = {"value": p50 - statistics.median(untraced), "unit": "s",
                                   "n": len(traced_s)}
    for metric, seed_value in guards["exact"].items():
        metrics[metric]["seed_commit"] = seed_value
    return metrics, layers


def write_summary(result) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result))
    return path


def report(result) -> dict:
    """Print the human-readable lines; return the final JSON line's object."""
    env = result["env"]
    print(f"env: git {env['git_revision']} python {env['python']} numpy {env['numpy']} "
          f"nproc {env['nproc']} (usable {env['cpus_usable']}) blas threads {env['blas_threads']}")
    wanted = PER_LAYER if result["trace"] else END_TO_END
    out = {}
    for metric, unit in wanted + [("fail_frac", "ratio")]:
        m = result["metrics"][metric]
        extra = f" p{m['percentile']:.4g}" if "percentile" in m else ""
        if "seed_commit" in m:
            extra += f" (seed commit {m['seed_commit']})"
        print(f"{result['workload']} {metric} = {m['value']:.6g} {unit}{extra} (n={m['n']})")
        if metric != "fail_frac":
            out[metric] = {"value": m["value"], "unit": unit}
    raised = collections.Counter(
        rec["error"].strip().splitlines()[-1] for rec in result["ops"] if rec["error"]
    )
    for message, count in sorted(raised.items()):
        print(f"raised x{count}: {message}")
    for rec in result["ops"]:
        if rec["wrong"]:
            print(f"WRONG OUTPUT input {rec['input']} (traced={rec['traced']}): {rec['wrong']}")
    print("claim: null (this benchmark claims no gain)")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


def smoke() -> int:
    """Every workload at the smoke size, untraced and traced."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, 1, 0.0, trace, size="smoke", min_ops=2)
            line = report(result)
            wanted = {m for m, _ in (PER_LAYER if trace else END_TO_END)}
            good = line["correct"] and not line["failed"] and set(line["metrics"]) == wanted
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok &= good
    # the known locator defect, outside the workloads: reported, not failed
    spec = json.loads((BENCH / "spec.json").read_text())
    seed_point = spec["workloads"]["locate_bump"]["known_defect"]["seed_point"]
    wl = WORKLOADS["locate_bump"](fresh_import(), 1, "smoke", spec, OUT)
    try:
        preds, points = wl.db.locate.predict_full(wl.chart, [np.array(seed_point)], 0.05, wl.params)
        reason = wl.check(0, {"preds": preds, "points": points})
    except RuntimeError as exc:
        reason = None if "no converged" in str(exc) else repr(exc)
    print(f"known locate defect from seed {seed_point}: {reason or 'no longer reproduces'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_summary(result)
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
