"""Benchmark of the hyperapprox experiments, run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it times untraced passes and reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Either way it first runs one
untimed traced pass whose results feed the correctness checks and the
results fingerprint.  The second-to-last line of standard output is a
report (machine facts, checks, fingerprint, per-pass times); the last line
is {"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio",
                    "trial_p50_ms": "ms", "trial_p99_ms": "ms"}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.overhead_ratio": "ratio", "trace.spans": "count"}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import plus input generation once, print it and exit")
    return p.parse_args(argv)


def import_library():
    """Import hyperapprox from this checkout's src/ and nowhere else."""
    if not (SRC / "hyperapprox" / "__init__.py").is_file():
        print(f"error: no hyperapprox sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import hyperapprox

    if Path(hyperapprox.__file__).resolve().parent != SRC / "hyperapprox":
        print(f"error: imported hyperapprox from {hyperapprox.__file__}", file=sys.stderr)
        raise SystemExit(2)
    from bench import tracer, workloads

    return tracer, workloads


def machine_facts() -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        dll = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                threads[Path(path).name] = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def setup_probe_times(args) -> list:
    """Seconds of import plus input generation, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def one_pass(wl, prep) -> tuple:
    """(result, seconds, seconds of each timed call or None) of one pass."""
    calls = [] if wl.per_call_trials else None
    t0 = time.perf_counter()
    result = wl.run_pass(prep, calls)
    return result, time.perf_counter() - t0, calls


def trial_percentiles_ms(walls, call_times) -> tuple:
    """p50 and p99 of trial times: per pass over its timed calls, then the
    median over passes; over the pass times when a pass is one trial."""
    import numpy as np

    if call_times:
        return tuple(1e3 * statistics.median(float(np.percentile(c, q)) for c in call_times)
                     for q in (50.0, 99.0))
    return 1e3 * statistics.median(walls), 1e3 * float(np.percentile(walls, 99.0))


def main(argv=None) -> int:
    t_start = time.perf_counter()
    # on SIGTERM, unwind so that the work directory is removed and a running
    # set-up probe is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in BLAS_ENV:  # this process and the probes it starts only
        os.environ[var] = "1"
    # the CLI's serial forward path; the tracer's self times assume one thread
    os.environ.pop("HYPERAPPROX_THREADS", None)
    tracer_mod, workloads = import_library()
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    inputs = wl.inputs(args.seed)
    prep = wl.prepare(inputs, workdir)
    setup_inprocess = time.perf_counter() - t_start
    if args.setup_probe:
        print(repr(setup_inprocess))
        return 0
    try:
        return measure(args, wl, prep, setup_inprocess, tracer_mod, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, wl, prep, setup_inprocess, tracer_mod, workloads) -> int:
    Tracer = tracer_mod.Tracer
    setup_times = setup_probe_times(args) if args.trace == 0 else []

    # untimed checked pass: correctness checks and the reference fingerprint
    tr = Tracer(capture={"converse.converse_experiment"})
    with tr:
        result = wl.run_pass(prep, None)
    reference = wl.outputs(result, prep)
    lawson = tr.counters["lawson_iterations"]
    checks = wl.checks(result, prep, tr)
    del result, tr

    call_times: list = []
    walls: list = []
    same: list = []
    layer: list = []
    traced_walls: list = []
    # a traced run alternates untraced and traced passes; the next step
    # starts while at least half of a typical step fits before the deadline
    tr = Tracer() if args.trace else None
    passes_per_step = 2 if tr else 1
    deadline = time.perf_counter() + args.seconds
    while not walls or (time.perf_counter() + passes_per_step * statistics.median(walls) / 2
                        < deadline):
        result, wall, calls = one_pass(wl, prep)
        walls.append(wall)
        if calls is not None:
            call_times.append(calls)
        same.append(wl.outputs(result, prep) == reference)
        if tr is None:
            continue
        tr.reset()
        with tr:
            result, wall, _ = one_pass(wl, prep)
        traced_walls.append(wall)
        tr.counters["results_bytes"] = workloads.result_bytes(prep)
        same.append(wl.outputs(result, prep) == reference
                    and tr.counters["lawson_iterations"] == lawson)
        metrics = tracer_mod.layer_metrics(tr.spans, tr.counters)
        metrics["trace.spans"] = len(tr.spans)
        layer.append(metrics)
    if tr is not None:
        checks.append(("trace.wrappers_removed", not tracer_mod.installed_wrappers(), True))
    checks += [(f"fingerprint.pass[{i}]", ok, True) for i, ok in enumerate(same)]

    failed = [name for name, ok, _strict in checks if not ok]
    strict_failed = [name for name, ok, strict in checks if strict and not ok]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace == 0:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": 1.0 - len(failed) / len(checks),
        }
        values["trial_p50_ms"], values["trial_p99_ms"] = trial_percentiles_ms(walls, call_times)
        units = END_TO_END_UNITS
    else:
        units = {**tracer_mod.layer_metric_units(), **TRACE_UNITS}
        values = {name: statistics.median(m[name] for m in layer)
                  for name in units if name in layer[0]}
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / statistics.median(walls)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_facts(),
        "passes": len(walls),
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "trials": sum(map(len, call_times)) or len(walls),
        "setup_probe_s": setup_times,
        "setup_inprocess_s": setup_inprocess,
        "fail_ratio": len(failed) / len(checks),
        "failed_checks": failed,
        "strict_failed_checks": strict_failed,
        "fingerprint": {**reference, "lawson_iterations": lawson},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not strict_failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
