"""oilcast benchmark: one workload, one seed, timed end to end or traced per layer.

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory, never from an installed package. ``--trace 0`` times the
workload with no instrumentation and prints the end-to-end metrics;
``--trace 1`` wraps each layer's functions and prints the per-layer metrics.
Either way every operation's output is checked against the committed
reference, a human-readable report goes to stdout, and the last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A full record (provenance, every sample, spans) is written under
``perfbench/_results``. WHY.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from spans import SPANS
from workloads import SRC, WORKLOADS, reference_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 5  # fresh-process set-ups per untraced run; setup_s is their median
MIN_SHARE_S = 0.01  # every worker measures at least one pass
P90_MIN_SAMPLES = 100
WORKER_TIMEOUT_S = 170

# per-layer time metrics, one per span name: "<span>_s"
LAYER_TIMES = tuple(dict.fromkeys(metric for metric, _, _, span in SPANS if span))

# per-layer counts: (metric, unit, numerator counter, denominator counter or None)
LAYER_COUNTS = (
    ("panel.bytes_read", "B", "panel.bytes_read", None),
    ("panel.bytes_written", "B", "panel.bytes_written", None),
    ("pipeline.granger_tests", "count", "pipeline.granger_tests", None),
    ("pipeline.granger_retained_ratio", "ratio", "pipeline.granger_retained", "pipeline.granger_tests"),
    ("clustering.kmeans_fits", "count", "clustering.kmeans_fits", None),
    ("clustering.kmeans_iters", "count", "clustering.kmeans_iters", None),
    ("kpca.kernel_entries", "count", "kpca.kernel_entries", None),
    ("kpca.kept_ratio", "ratio", "kpca.kept", "numerics.eigenpairs"),
    ("numerics.eig_ops_computed", "count", "numerics.eig_ops_computed", None),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def median(values):
    return statistics.median(values) if values else None


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= P90_MIN_SAMPLES else None


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "oilcast")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def cpu_jiffies():
    """(steal, total) jiffies of the whole machine, or None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def start_worker(args, draw, seconds, workdir, out, log):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--draw", str(draw), "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out]
    env = dict(os.environ, PYTHONPATH=SRC)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env,
                            cwd=ROOT)
    try:
        ready = proc.stdout.readline().strip() == "READY"
        setup_s = perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        proc.stdout.close()
    if not ready or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode} (log: {log.name})")
    with open(out, encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def layer_metrics(trace: dict, import_s: float):
    """Per-layer values: the median over traced passes, or the set-up's value
    for a layer the passes never reach. Returns (metrics, sources, counts_repeat)."""
    groups = sorted(g for g in set(trace["seconds"]) | set(trace["counts"]) if g != "setup")
    metrics, sources = {}, {}
    present = {metric for metric, target, _, _ in SPANS if target not in trace["absent"]}

    def pick(table, key):
        per_pass = [table.get(g, {}).get(key, 0) for g in groups]
        if any(per_pass):
            return statistics.median(per_pass), "pass", per_pass
        value = table.get("setup", {}).get(key, 0)
        return value, ("set-up" if value else "not reached"), [value]

    for span in LAYER_TIMES:
        value, source, _ = pick(trace["seconds"], span)
        metrics[f"{span}_s"] = {"value": value, "unit": "s"}
        sources[f"{span}_s"] = source if span in present else "absent"
    repeat = True
    for metric, unit, num, den in LAYER_COUNTS:
        value, source, per_pass = pick(trace["counts"], num)
        repeat &= len(set(per_pass)) == 1
        if den is not None:
            _, _, below = pick(trace["counts"], den)
            repeat &= len(set(below)) == 1
            value = value / below[0] if below[0] else 0.0
        metrics[metric] = {"value": value, "unit": unit}
        sources[metric] = source
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    sources["cli.import_s"] = "set-up"
    traced, untraced = trace["pass_s"]["traced"], trace["pass_s"]["untraced"]
    overhead = (median(traced) / median(untraced) - 1.0) * 100.0 if traced and untraced else 0.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    sources["trace.overhead_pct"] = f"{len(traced)} traced / {len(untraced)} untraced passes"
    if trace["absent"]:
        sources["absent"] = sorted(trace["absent"])
    return metrics, sources, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "oilcast", "__init__.py")):
        raise BenchError(f"no oilcast source under {SRC}; run from the root of a checkout")
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)}")
    with open(reference_path(args.workload), encoding="utf-8") as fh:
        pool = json.load(fh)["pool"]
    draw = pool[args.seed % len(pool)]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(HERE, "_results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    setups, workers = [], []
    jiffies_before = cpu_jiffies()
    try:
        with open(os.path.join(results_dir, f"{tag}.log"), "w", encoding="utf-8") as log:
            # the measuring time is split over the set-up processes, so a state
            # that holds for one process's life (page placement, a busy core)
            # moves a fifth of the samples, not the median. A worker ends its
            # last pass past its share; the next shares shrink by that much, so
            # the run measures about --seconds however long a pass is
            n_setups = 1 if args.trace else SETUPS
            remaining = args.seconds
            for i in range(n_setups):
                seconds = max(remaining / (n_setups - i), MIN_SHARE_S)
                out = os.path.join(workdir, f"worker{i}.json")
                setup_s, result = start_worker(args, draw, seconds, os.path.join(workdir, f"w{i}"),
                                               out, log)
                setups.append(setup_s)
                workers.append(result)
                remaining -= result["measured_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jiffies_after = cpu_jiffies()
    steal_pct = None
    if jiffies_before and jiffies_after and jiffies_after[1] > jiffies_before[1]:
        steal_pct = 100.0 * (jiffies_after[0] - jiffies_before[0]) / (
            jiffies_after[1] - jiffies_before[1])
    last = workers[-1]
    samples = {}
    for worker in workers:
        for name, values in worker["samples"].items():
            samples.setdefault(name, []).extend(values)
    failures = [f for w in workers for f in w["failures"]]
    attempted = sum(w["attempted"] for w in workers)
    provenance = dict(last["provenance"], seed=args.seed, draw=draw, steal_pct=steal_pct,
                      commit=git_commit(),
                      source_sha256=source_digest(), blas_env={
                          k: v for k, v in os.environ.items()
                          if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")})

    print(f"oilcast benchmark: workload={args.workload} seed={args.seed} draw={draw} "
          f"seconds={args.seconds:g} trace={args.trace}")
    blas = "; ".join(f"{b['library']} ({b.get('config', '?')}) threads={b.get('threads', '?')}"
                     for b in provenance["blas"])
    print(f"provenance: python {provenance['python']}, numpy {provenance['numpy']}, "
          f"scipy {provenance['scipy']}, nproc {provenance['nproc']} "
          f"(affinity {provenance['affinity']}), commit {provenance['commit']}, "
          f"src sha256 {provenance['source_sha256']}")
    print(f"blas: {blas}; thread variables set: {provenance['blas_env'] or 'none'}")
    if steal_pct is not None:
        print(f"cpu time stolen by other guests during the run: {steal_pct:.2f}%")

    record = {"provenance": provenance, "setup_s": setups, "samples": samples,
              "failures": failures}
    correct = not failures
    if args.trace:
        metrics, sources, repeat = layer_metrics(last["trace"], last["import_s"])
        correct &= repeat
        print("per-layer metrics (traced run; self time per pass, median over traced passes):")
        for name, metric in metrics.items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:6s} {sources[name]}")
        if "absent" in sources:
            print(f"  absent spans (target no longer exists): {', '.join(sources['absent'])}")
        if not repeat:
            print("  counts differ between traced passes: the program is not deterministic")
        record.update(trace=last["trace"], sources=sources)
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "pass_s": {"value": median(samples.get("pass_s", [])), "unit": "s"},
            "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers), "unit": "MB"},
        }
        counts = {"setup_s": len(setups), "pass_s": len(samples.get("pass_s", [])),
                  "peak_rss_mb": len(workers)}
        # diagnostics: printed with their sample counts, not gated (WHY.md says why)
        extra = []
        for name, unit, key in (("run", "ms", "run_ms"), ("fit", "s", "fit_s"),
                                ("predict", "ms", "predict_ms")):
            if key in samples:
                values = samples[key]
                extra += [(f"{name}_p50_{unit}", unit, median(values), len(values)),
                          (f"{name}_p90_{unit}", unit, p90(values), len(values))]
        if "cold_s" in samples:
            extra.append(("cold_run_s", "s", median(samples["cold_s"]), len(samples["cold_s"])))
        extra.append(("mape_pct", "%", last["mape_pct"], 1))
        print("end-to-end metrics (untraced; closed loop, one client):")
        for name, metric in metrics.items():
            if metric["value"] is None:
                raise BenchError(f"no samples for {name}")
            print(f"  {name:18s} {metric['value']:>14.6g} {metric['unit']:3s} n={counts[name]}")
        print("diagnostics (not gated):")
        for name, unit, value, n in extra:
            shown = f"{value:>14.6g}" if value is not None else f"{'-':>14s}"
            note = f" (not reported: needs {P90_MIN_SAMPLES} samples)" if value is None else ""
            print(f"  {name:18s} {shown} {unit:3s} n={n}{note}")
        record["extra"] = {name: value for name, _, value, _ in extra}
    error_rate = len(failures) / attempted if attempted else 1.0
    print(f"  error_rate {len(failures)}/{attempted} = {error_rate:.6g}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    record["metrics"] = metrics
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
