"""One workload in one fresh process (started by run.py with BLAS pinned to one thread).

Modes:
  setup    import, build the inputs, run a tiny warm-up pass, then exit;
  measure  set up, then run untraced passes for --seconds;
  trace    set up, then alternate untraced and traced passes for --seconds.

The result is one JSON object on standard output.  Spans of the first traced
pass stay in memory and are written at the end to --out as
trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# One BLAS thread, set before numpy loads OpenBLAS (run.py sets the same).
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sympmor  # noqa: E402

if Path(sympmor.__file__).resolve().parent != SRC / "sympmor":
    sys.exit(f"error: imported sympmor from {sympmor.__file__}, not from {SRC}")

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def machine_record():
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
    }


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


# -- tracing ---------------------------------------------------------------------

def _track_residual(tracer, args, kwargs, result):
    key = "stiefel.ortho_residual_max"
    tracer.counters[key] = max(tracer.counters[key], float(result.ortho_residual()))


def _track_renorm(tracer, args, kwargs, result):
    if result is not args[0]:
        tracer.counters["stiefel.renorm_events"] += 1


def _track_newton_steps(tracer, args, kwargs, result):
    system = args[0]
    if system.linear_matrix is None:
        tracer.counters["integrators.newton_steps"] += result.K


HOOKS = {
    "optimizers.stiefel_psd_update": _track_residual,
    "optimizers.homogeneous_psd_update": _track_residual,
    "reduction.psd_cotangent_lift": _track_residual,
    "stiefel.StiefelPoint.renormalized": _track_renorm,
    "integrators.implicit_midpoint": _track_newton_steps,
}

# Spans that start an operation of their own even when called inside another.
OP_ROOTS = ("network.Trainer.train_batch",)


def make_tracer():
    return Tracer("sympmor", layers.TRACED, layers.FACTORIES, OP_ROOTS, HOOKS)


def layer_metrics(tracer, unit_wall):
    """Per-layer calls, self-time shares and counters of one traced unit."""
    summary = tracer.summary()
    out = {}
    for name in layers.span_names():
        calls, self_s = summary.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_pct"] = 100.0 * self_s / unit_wall
    jacobians = ("integrators._fd_jacobian", "models.sg_jacobian")
    fields = ("models.field", "reduction.reduced_field")
    iters = tracer.count_children(jacobians, ["integrators.implicit_midpoint"])
    steps = tracer.counters["integrators.newton_steps"]
    out["integrators.newton_iters"] = iters
    out["integrators.newton_iters_per_step"] = iters / steps if steps else 0.0
    out["integrators.field_calls"] = tracer.count_children(
        fields, ["integrators.implicit_midpoint", "integrators._fd_jacobian"])
    out["stiefel.renorm_events"] = int(tracer.counters["stiefel.renorm_events"])
    out["stiefel.ortho_residual_max"] = tracer.counters["stiefel.ortho_residual_max"]
    out["trace.spans"] = len(tracer.spans)
    return out


# -- main ------------------------------------------------------------------------------

def run(args, workdir):
    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES[args.workload]
    size = sizes["tiny" if args.tiny else "full"]

    warm = workloads.Recorder(memo={})
    run_pass(make_inputs(args.seed, sizes["tiny"], workdir / "warmup"), warm)
    inputs = make_inputs(args.seed, size, workdir / "run")
    if args.mode == "setup":
        host = workloads.HostSpeed()
        host.sample(8)
        return {"attempted": warm.attempted, "failed": warm.failed, "errors": warm.errors,
                "host_scale": host.scale(host.times[0], host.times[0]),
                "host_measure_s": host.spent}

    memo = {}
    host = workloads.HostSpeed()
    rec = workloads.Recorder(memo, host)
    passes, traced, units = [], [], []
    first_trace = None
    start = perf_counter()
    while True:
        host.sample(4)
        t0, spent = perf_counter(), host.spent
        run_pass(inputs, rec)
        t1, spent = perf_counter(), host.spent - spent
        host.sample(4)
        passes.append((t0, t1, t1 - t0 - spent))
        if args.mode == "trace":
            traced_rec = workloads.Recorder(memo)
            with make_tracer() as tracer:
                t0 = perf_counter()
                traced_inputs = make_inputs(args.seed, size, workdir / "traced")
                t1 = perf_counter()
                run_pass(traced_inputs, traced_rec)
                t2 = perf_counter()
            traced.append((t1, t2))
            units.append(layer_metrics(tracer, t2 - t0))
            rec.attempted += traced_rec.attempted
            rec.failed += traced_rec.failed
            rec.errors += traced_rec.errors
            first_trace = first_trace or tracer
        if perf_counter() - start >= args.seconds:
            break
    if first_trace is not None and args.out:
        first_trace.dump(Path(args.out) / f"trace-{args.workload}-seed{args.seed}.json")

    if units:
        # Same inputs, same work: call counts must repeat across traced passes.
        calls = [{k: v for k, v in u.items() if k.endswith(".calls")} for u in units]
        rec.check(all(c == calls[0] for c in calls),
                  "per-layer call counts differ between traced passes")
    attempted = warm.attempted + rec.attempted
    failed = warm.failed + rec.failed
    result = {"attempted": attempted, "failed": failed, "errors": warm.errors + rec.errors,
              "machine": machine_record(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    metrics, report = workloads.end_to_end(args.workload, rec, passes, host)
    report["fail_frac"] = (failed / max(attempted, 1), "1")
    if args.mode == "measure":
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        result["metrics"] = metrics
    else:
        per_layer = {}
        for name, unit in layers.per_layer_metrics():
            if name == "trace.overhead_s":
                # both sides at nominal host speed, as wall_s
                value = float(np.median([(b - a) * host.scale(a, b) for a, b in traced])
                              - np.median([w * host.scale(a, b) for a, b, w in passes]))
            elif name.endswith(".self_pct"):
                value = float(np.median([u[name] for u in units]))
            else:
                value = units[0][name]
            per_layer[name] = (value, unit)
        result["metrics"] = per_layer
        report["traced_passes"] = (len(units), "count")
        report["traced_wall_s.measured"] = (float(np.median([b - a for a, b in traced])), "s")
    result["report"] = report
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    parser.add_argument("--tiny", action="store_true", help="measure at the tiny size")
    parser.add_argument("--out", default=None, help="directory for the span file")
    args = parser.parse_args(argv)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
