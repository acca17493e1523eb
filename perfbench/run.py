"""Benchmark command for gigmix.

    python3 perfbench/run.py --workload grid-small|fit-large \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout, never from an installed copy. The command sets up
the workload's inputs, makes an untimed warm-up pass, runs a fixed number of
whole rounds that take about S seconds here, checks
the outputs against independent computations, and prints every metric with
its unit; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
one untraced round is followed by one traced round, and the metrics are the
per-layer ones computed from the traced round's spans, plus the tracing
overhead (traced minus untraced round wall time). Outputs go to
``perfbench_out/<workload>/`` under the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gigmix; print(time.perf_counter() - t); print(gigmix.__file__)"
)


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read_first_line(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readline().strip()
    except OSError:
        return "?"


def environment(cpus: int) -> dict:
    import numpy
    import scipy

    model = "?"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "?")
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": cpus,
        "blas_threads": _blas_threads(),
        "cpu_model": model,
        "l2_per_core": _read_first_line(cache.format(2)),
        "l3_shared": _read_first_line(cache.format(3)),
    }


def time_import(src: str, root: str) -> float:
    """Median wall time of ``import gigmix`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, src],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, path = proc.stdout.split()
        if not os.path.abspath(path).startswith(root + os.sep):
            raise RuntimeError(f"import probe loaded gigmix from {path}, outside {root}")
        times.append(float(seconds))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid-small", "fit-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gigmix", "__init__.py")):
        return _fail(f"no gigmix sources under {src}; run from a source checkout")

    # Never more BLAS threads than usable CPUs; set before numpy loads.
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cpus) if current.isdigit() and int(current) > 0 else cpus)

    sys.path.insert(0, src)
    import gigmix

    if not os.path.abspath(gigmix.__file__).startswith(src + os.sep):
        return _fail(f"gigmix was imported from {gigmix.__file__}, not from {src}")
    import tracing
    import workloads

    env = environment(cpus)
    print("environment " + json.dumps(env, sort_keys=True))

    outdir = os.path.join(root, "perfbench_out", args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
    tracer = tracing.Tracer() if args.trace else None

    # Set-up: import (fresh interpreters), then the inputs, each several times.
    import_s = time_import(src, root)
    setup_times = []
    if tracer:
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = import_s + statistics.median(setup_times)

    wl.warmup()
    if tracer:
        wl.round(0)
        tracer.install()
        try:
            wl.round(1)
        finally:
            tracer.uninstall()
    else:
        for k in range(wl.rounds_for(args.seconds)):
            wl.round(k)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    try:
        wl.check()
    except Exception:  # a check that cannot run is a failed check, reported with its traceback
        traceback.print_exc(file=sys.stderr)
        wl.log.add("checks ran to completion", False, None, "exception, see stderr")
    for line in wl.log.report():
        print(line)
    print(f"checks: {time.perf_counter() - t0:.2f} s")

    if tracer:
        values, status = tracing.layer_metrics(tracer)
        values["trace.overhead_s"] = wl.round_walls[1] - wl.round_walls[0]
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        tracer.write_csv(os.path.join(outdir, "trace.csv"))
        print(f"trace rounds: untraced {wl.round_walls[0]:.4f} s, traced {wl.round_walls[1]:.4f} s, "
              f"overhead {values['trace.overhead_s']:+.4f} s")
        print(f"trace {'span':40s} {'count':>8s} {'total_s':>11s} {'self_s':>11s}")
        for name, (count, total, self_time) in sorted(tracer.table().items()):
            print(f"trace {name:40s} {count:8d} {total:11.4f} {self_time:11.4f}")
        for name in sorted(tracer.leaf_calls):
            print(f"trace leaf {name:35s} {tracer.leaf_calls[name]:8d} {tracer.leaf_time[name]:11.4f}")
        print("trace wrapped functions not found: " + (", ".join(tracer.not_found) or "none"))
        for name, why in status.items():
            print(f"trace metric {name}: {why} (reported as 0)")
    else:
        values = wl.metrics()
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        units = {"setup_s": "s", "wall_s": "s", "auc_mean": "1", "peak_rss_mb": "MB"}
        units.update({k: "s" for k in values if k.startswith(("fit_s.", "cli_s."))})
        print(f"setup: import {import_s:.4f} s (median of {IMPORT_REPEATS}), "
              f"inputs {statistics.median(setup_times):.4f} s (median of {SETUP_REPEATS})")
        print(f"rounds: {len(wl.round_walls)}, walls " + ", ".join(f"{w:.4f}" for w in wl.round_walls))
        for name, times in sorted(wl.samples.items()):
            print(f"samples {name}: {len(times)}, " + " ".join(f"{t:.4f}" for t in times))

    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"operations: attempted {wl.attempted}, failed {wl.failed}")
    result = {"correct": wl.log.ok, "attempted": wl.attempted, "failed": wl.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
