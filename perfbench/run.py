"""sympmor benchmark: one workload, measured in fresh processes with BLAS pinned to one thread.

    python3 perfbench/run.py --workload sg-psd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root (any checkout with src/sympmor).  With --trace 0
it prints the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics of a traced run.  Human-readable lines come first; the last
line of standard output is the JSON result.  Records with the machine details
are written to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("wave-autoencoder", "sg-psd", "stiefel-adam")
SETUP_REPEATS = 3
DEADLINE_S = 170.0     # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    # Must be set before numpy is first imported in the child.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args, timeout):
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(WORKER)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, started):
    base = ["--workload", name, "--seed", str(seed)]
    attempted = failed = 0
    errors = []
    setup_times = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            res = run_worker(base + ["--mode", "setup"], DEADLINE_S - (perf_counter() - started))
            elapsed = perf_counter() - t0 - res["host_measure_s"]
            setup_times.append(elapsed * res["host_scale"])
            attempted += res["attempted"]
            failed += res["failed"]
            errors += res["errors"]
    mode = ["--mode", "trace", "--out", str(OUT)] if trace else ["--mode", "measure"]
    res = run_worker(base + mode + ["--seconds", str(seconds)],
                     DEADLINE_S - (perf_counter() - started))
    attempted += res["attempted"]
    failed += res["failed"]
    errors += res["errors"]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    report = {k: {"value": v, "unit": u} for k, (v, u) in res["report"].items()}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": res["machine"], "setup_times_s": setup_times,
              "report": report, "metrics": metrics, "errors": errors}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def print_record(record):
    head = f"{record['workload']} (seed {record['seed']}, trace {int(record['trace'])})"
    print(head)
    print("  machine: " + json.dumps(record["machine"], sort_keys=True))
    metrics = record["metrics"]
    idle = {key.rsplit(".", 1)[0] for key, m in metrics.items()
            if key.endswith(".calls") and m["value"] == 0}
    for section in ("report", "metrics"):
        for key, m in sorted(record[section].items()):
            if section == "metrics" and key.rsplit(".", 1)[0] in idle:
                continue
            print(f"  {section[:6]:6s} {key:44s} {m['value']:.6g} {m['unit']}")
    for err in record["errors"]:
        print(f"  FAILED {err}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "sympmor" / "__init__.py").is_file():
        print(f"error: no sympmor source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], record = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace), perf_counter())
            print_record(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
