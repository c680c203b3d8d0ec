"""One benchmark process: import oilcast, set up a workload, optionally measure it.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``. Prints
``READY`` on stdout when set-up is done, so the parent can time set-up from
process start. With ``--seconds 0`` it exits there; otherwise it runs the
workload's closed loop (one client, each operation starting when the
previous one ends) until the time is up, and at least one pass (two when
traced), and writes its samples, checks, counts, spans and the time it
measured as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
from time import perf_counter


def blas_report() -> list[dict]:
    """Every OpenBLAS library loaded in this process, with its thread count."""
    paths = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        found.append(entry)
    return found


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--draw", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    start = perf_counter()
    import numpy
    import scipy

    import oilcast.cli  # noqa: F401  (the import a CLI user pays)

    import_s = perf_counter() - start

    from spans import Tracer
    from workloads import (COLD_RUNS, Context, Recorder, cold_run, reference_path, setup_ops,
                           workload_pass)

    with open(reference_path(args.workload), encoding="utf-8") as fh:
        reference = json.load(fh)["draws"][str(args.draw)]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rec = Recorder(tracer, reference)

    ok, ctx = rec.call(None, 1.0, Context, args.workload, args.draw, args.workdir)
    if ok:
        setup_ops(ctx, rec)  # the warm-up operation
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)

    passes = {"traced": [], "untraced": []}
    loop_start = perf_counter()
    if ok and args.seconds > 0:
        deadline = loop_start + args.seconds
        i = 0
        # trace mode alternates traced and untraced passes, so the recorder's
        # overhead is measured on the same run; it needs one of each
        min_passes = 2 if tracer is not None else 1
        while i < min_passes or perf_counter() < deadline:
            traced = tracer is not None and i % 2 == 0
            if traced:
                tracer.install()
            rec.traced = traced
            rec.group = f"pass-{i}"
            before = len(rec.samples["pass_s"])
            workload_pass(ctx, rec)
            if traced:
                tracer.uninstall()
            if len(rec.samples["pass_s"]) > before:
                passes["traced" if traced else "untraced"].append(rec.samples["pass_s"][-1])
            if tracer is None and ctx.workload.grid and i < COLD_RUNS:
                cold_run(ctx, rec)
            i += 1

    result = {
        "import_s": import_s,
        "measured_s": perf_counter() - loop_start,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "samples": dict(rec.samples),
        "mape_pct": rec.outputs.get("mape_pct", [None])[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_report(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        result["trace"] = {
            "seconds": {g: dict(v) for g, v in tracer.seconds.items()},
            "counts": {g: dict(v) for g, v in tracer.counts.items()},
            "pass_s": passes,
            **tracer.dump(),
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
