"""One workload in one fresh process: import, inputs, warm-up op, timed
loop, checks. run.py starts it; its last stdout line is one JSON object.

With --setup-only it stops after the warm-up op and reports when the first
timed op would have started, which run.py turns into a set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(ceil(p / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[idx], len(sorted_values) - idx - 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import numpy as np

    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.count_fft(np)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import weakmeas
    import weakmeas.cli  # noqa: F401  (ops call weakmeas.cli.main)

    workload = workloads.WORKLOADS[args.workload](weakmeas, args.seed, args.workdir)
    items = workload.items
    workload.run(items[0])
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    if tracer is not None:
        tracer.install(weakmeas)
    latencies = []
    attempted = failed = 0
    failures = []  # ops that raised: counted in "failed"
    problems = []  # wrong outputs: make "correct" false
    timed = 0.0
    rounds = 0
    while rounds == 0 or timed < args.seconds:
        for item in items:
            attempted += 1
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            error = None
            try:
                out = workload.run(item)
            except Exception:  # an op that raises counts as failed
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            timed += elapsed
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(error)
                continue
            latencies.append(elapsed)
            try:
                workload.check(item, out)
            except Exception as exc:  # a malformed output fails its check however it breaks
                if len(problems) < 5:
                    problems.append(f"check: {exc!r}")
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        workload.final_check()
    except Exception as exc:  # as above
        problems.append(f"final check: {exc!r}")

    lat = sorted(latencies)
    tail, beyond = percentile(lat, workload.tail_percentile) if lat else (0.0, 0)
    ops_per_s = len(lat) / timed if timed > 0 else 0.0
    if tracer is not None:
        metrics = tracer.per_op(getattr(workload, "trials", 0))
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        if args.trace_file:
            tracer.write(args.trace_file)
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "ready_at": ready_at,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "record": {
            "machine": machine(np),
            "workload": args.workload,
            "seed": args.seed,
            "sizes": workload.sizes,
            "rounds": rounds,
            "timed_s": timed,
            "tail": {"percentile": workload.tail_percentile, "samples": len(lat),
                     "beyond": beyond},
            "peak_rss_mb": peak_rss_mb,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
