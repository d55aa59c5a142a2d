"""Benchmark command for weakmeas.

    python3 wmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wmbench/run.py [--seed <n>] [--seconds <s>]

The first form runs one workload in a fresh worker process and prints, as
its last stdout line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1. The second form runs all four
workloads, untraced and then traced, and prints every metric with its unit
and the tracing overhead.

setup_s is the median over SETUP_SAMPLES fresh processes of the time from
process start to the first timed op (imports, inputs, one warm-up op).
Results and traces go to wmbench-out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "wmbench-out")
WORKLOADS = ("grid-simulate", "spectral", "sample-export", "sequential-pointers")
END_TO_END = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s")
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
# One client thread; BLAS may not add threads of its own beyond it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(argv, deadline):
    """Run worker.py; return its JSON result and the time it was started."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **THREAD_ENV}, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} ran past the deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def run_workload(name, seed, seconds, trace, deadline):
    workdir = os.path.join(OUT, "tmp", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                result, started = _worker(common + ["--seconds", "0", "--setup-only"],
                                          deadline)
                setups.append(result["ready_at"] - started)
        argv = common + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            argv += ["--trace-file", os.path.join(OUT, "traces", f"{name}-seed{seed}.tsv")]
        result, started = _worker(argv, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        setups.append(result["ready_at"] - started)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["record"]["setup_samples_s"] = setups
    result["record"]["trace"] = trace
    with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for text in result["problems"] + result["failures"]:
        print(f"{name}: {text}", file=sys.stderr)
    return result


def _print_metrics(name, result):
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all four, untraced then traced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0,
                    help="timed seconds per run; 0 runs one round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weakmeas", "__init__.py")):
        print(f"error: no weakmeas sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
            record = result["record"]
            print(f"# record = {json.dumps(record)}")
            _print_metrics(args.workload, result)
            print(json.dumps({key: result[key]
                              for key in ("correct", "attempted", "failed", "metrics")}))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                deadline = time.monotonic() + RUN_DEADLINE_S
                result = run_workload(name, args.seed, args.seconds, trace, deadline)
                _print_metrics(f"{name} (trace {trace})", result)
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                for metric, entry in result["metrics"].items():
                    summary["metrics"][f"{name}/{metric}"] = entry
            plain = summary["metrics"][f"{name}/ops_per_s"]["value"]
            traced = summary["metrics"][f"{name}/trace.ops_per_s"]["value"]
            print(f"  tracing overhead = {100.0 * (plain / traced - 1.0):.1f} % of op time")
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
