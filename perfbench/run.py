"""Benchmark of the fuelspatial package: one workload, one seed, one process.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload select|chain|panel --seed N \\
        --seconds S --trace 0|1

The benchmark imports the package from ``src/`` of the checkout it sits in,
generates the workload's inputs from the seed, sets up several times, then
repeats whole passes of the timed body for about ``--seconds`` seconds and
checks every pass's outputs outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics (medians over passes).
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced passes, per pass, with the tracing overhead
(median traced pass minus median untraced pass). Spans are kept in memory
and written to ``.perfbench_work/spans-<workload>.jsonl`` (the last traced
run of each workload) when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the environment, the input sizes and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

# Set before numpy is imported, so every BLAS backend reads it.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2   # the byte-identity checks compare a pass with the first one

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def _commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree. The search
    for a repository stops at the checkout's root."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fuelspatial benchmark")
    parser.add_argument("--workload", required=True, choices=["select", "chain", "panel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def measure(wl, tally, seconds: float, trace: bool, tracer):
    """Whole passes for about ``seconds``: untraced, or alternating untraced
    and traced. Each pass is checked after it, outside the timed and traced
    region, and its outputs must equal the first pass's."""
    schedule = (False, True) if trace else (False,)
    plain, traced, first = [], [], None
    start = time.perf_counter()
    rounds = 0
    while True:
        for trace_on in schedule:
            if trace_on:
                with spans.Instrumentation(tracer):
                    result = wl.run_pass(tracer)
                traced.append(result)
            else:
                result = wl.run_pass(None)
                plain.append(result)
            outputs = wl.check(result, tally)
            if first is None:
                first = outputs
            else:
                tally.check_identical(first, outputs)
        rounds += 1
        elapsed = time.perf_counter() - start
        if (len(plain) + len(traced) >= MIN_PASSES
                and elapsed + elapsed / rounds > seconds):
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fuelspatial" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import fuelspatial
    import workloads
    import_s = time.perf_counter() - t0
    if Path(fuelspatial.__file__).resolve().parent != (src / "fuelspatial").resolve():
        print(f"error: imported fuelspatial from {fuelspatial.__file__}, not {src}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    max_in_flight = min(2, nproc)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, work, max_in_flight)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        env = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _commit(ROOT),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "blas_threads": BLAS_THREADS,
            "blas_env": {v: os.environ[v] for v in BLAS_VARS},
            "ingest_max_in_flight": max_in_flight, "machine": platform.machine(),
            "sizes": wl.sizes(),
        }
        print("env " + json.dumps(env, sort_keys=True), flush=True)

        tally = workloads.Tally()
        tracer = spans.Tracer()
        plain, traced = measure(wl, tally, args.seconds, bool(args.trace), tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = statistics.median(r.wall_s for r in plain)
        throughput = statistics.median(r.rate for r in plain)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall_s, "s"),
            "throughput_per_s": _metric(throughput, "1/s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        print(f"metric wall_s {wall_s:.6f} s (median of {len(plain)} untraced passes)")
        print(f"metric setup_s {setup_s:.6f} s (imports {import_s:.4f} s + median of "
              f"{SETUP_REPEATS} set-ups {statistics.median(setup_times):.4f} s)")
        print(f"metric throughput_per_s {throughput:.6f} 1/s (= {wl.throughput_name})")
        print(f"metric peak_rss_mb {rss_mb:.3f} MB")
        print(f"metric fail_ratio {tally.fail_ratio:.6g} ratio "
              f"({tally.failed}/{tally.attempted})")
        print("info pass_wall_s untraced " + " ".join(f"{r.wall_s:.4f}" for r in plain)
              + (" traced " + " ".join(f"{r.wall_s:.4f}" for r in traced) if traced else ""))
        print(f"info pass_{wl.throughput_name} "
              + " ".join(f"{r.rate:.1f}" for r in plain))
        if hasattr(wl, "moran_share"):
            print(f"info moran_share {wl.moran_share:.3f} of the last pass")
        for problem in tally.problems:
            print(f"check FAILED {problem}")

        if args.trace:
            layers = spans.layer_metrics(tracer, len(traced))
            overhead = statistics.median(r.wall_s for r in traced) - wall_s
            layers["trace.overhead_s"] = (overhead, spans.TRACE_METRICS["trace.overhead_s"])
            layers["trace.spans"] = (len(tracer.spans) / len(traced),
                                     spans.TRACE_METRICS["trace.spans"])
            for name, (value, unit) in sorted(layers.items()):
                print(f"metric {name} {value:.6g} {unit}")
            metrics = {k: _metric(v, u) for k, (v, u) in sorted(layers.items())}
            spans_path = WORK / f"spans-{args.workload}.jsonl"
            with open(spans_path, "w") as fh:
                fh.write(json.dumps({"env": env}, sort_keys=True) + "\n")
                for s in tracer.spans:
                    fh.write(json.dumps(s.as_dict()) + "\n")
            print(f"info spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
