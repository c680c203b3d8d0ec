"""Fingerprint the models fitted on the benchmark's library draws, to show a refactor moves none.

For each draw in the ``pool`` of ``perfbench/reference/long_panel.json`` and
``wide_panel.json``, the draw's synthetic panel is fitted with
``pipeline_fit(PipelineConfig(theta=0.95))`` on its first ``n_train`` rows,
and 12 one-origin predicts follow, as in the benchmark's library round. One
line per draw gives the sha256 over k, the cluster labels, each KPCA's sigma,
``alphas``, ``col_means`` and ``grand_mean``, the regressor's sigma and
``alpha``, and the 12 forecasts; the last line is one digest over all lines.

Usage, from each of two checkouts:

    python3 tools/model_digest.py > models.txt

then ``diff`` the two files. The models do not depend on the BLAS thread
count or on the number of fit workers: CI runs this at
``OPENBLAS_NUM_THREADS=1`` and ``=2`` and under ``taskset -c 0`` (one fit
worker) and diffs the three outputs; its numpy-only job diffs a run on every
CPU against one under ``taskset -c 0``.

A change that moves bits is measured instead by its tolerance report:

    python3 tools/model_digest.py --forecasts before.json   # in the parent checkout
    python3 tools/model_digest.py --against before.json     # in the changed one

``--forecasts FILE`` writes each draw's k, kernel widths (each KPCA's sigma,
then the regressor's) and 12 forecasts as JSON; ``--against FILE`` reads such
a file and, after the digest lines, prints every draw whose k (or number of
widths) differs, how many draws' widths moved, and the largest relative
width gap and forecast gap, each with where it is.

After the total, the process's peak resident set size is written to
stderr, ``peak_rss_mb 61.94``, in MB of 1024 KiB as ``perfbench`` reports
it, so a memory change shows on the 32 pool draws without the benchmark.
Then the first pool draw of each workload is fitted again, with its 12
predicts, under ``tracemalloc``, and one more stderr line per workload gives
that pass's traced peak, ``traced_peak_mb wide_panel draw=4 2.77``: the
memory of a pass alone, which a set-up that peaks higher hides from the
resident set size. stdout carries only the digests and the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("long_panel", "wide_panel")
ORIGINS = 12


def _update(digest, values, dtype=np.float64) -> None:
    digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())


def draw_panel(spec: dict, seed: int):
    """One draw's synthetic panel."""
    from oilcast.synth import SynthSpec, synth_generate

    return synth_generate(SynthSpec(seed=seed, **spec))[0]


def fit_draw(panel, n_train: int) -> tuple:
    """The model fitted on a draw's first ``n_train`` rows and its 12 one-origin forecasts."""
    from oilcast.pipeline import PipelineConfig, pipeline_fit, pipeline_predict

    config = PipelineConfig(theta=0.95)
    model = pipeline_fit(panel.row_slice(range(n_train)), config)
    start = n_train - config.lag
    forecasts = [pipeline_predict(model, panel.row_slice([start + i]))[0] for i in range(ORIGINS)]
    return model, forecasts


def model_digest(model, forecasts: list) -> str:
    """The sha256 of one draw's fitted model and forecasts."""
    digest = hashlib.sha256()
    _update(digest, [model.cluster.k], np.int64)
    _update(digest, model.cluster.labels, np.int64)
    for kmodel in model.kpca_models:
        _update(digest, [kmodel.kernel.sigma, kmodel.grand_mean])
        _update(digest, kmodel.alphas)
        _update(digest, kmodel.col_means)
    _update(digest, [model.regressor.kernel.sigma])
    _update(digest, model.regressor.alpha)
    _update(digest, forecasts)
    return digest.hexdigest()


def _largest_gap(now: list[float], then: list[float], where: str, worst: tuple) -> tuple:
    """``worst``, a (relative gap, place) pair, updated with the gaps of ``now`` to ``then``."""
    for i, (value, base) in enumerate(zip(now, then)):
        gap = abs(value - base) / abs(base) if base else abs(value)
        if gap > worst[0]:
            worst = (gap, f"{where} {i}")
    return worst


def tolerance_report(records: dict, baseline: dict) -> list[str]:
    """Lines comparing this checkout's ``records`` with a ``--forecasts`` file's:
    each draw whose k or width count differs, then the count of draws whose
    widths moved and the largest relative width and forecast gaps."""
    lines, moved = [], 0
    widths, forecasts = (0.0, "-"), (0.0, "-")
    for key, record in records.items():
        base = baseline.get(key)
        if base is None:
            lines.append(f"{key}: not in the baseline")
        elif record["k"] != base["k"] or len(record["widths"]) != len(base["widths"]):
            lines.append(f"{key}: k {base['k']} -> {record['k']}, "
                         f"{len(base['widths'])} -> {len(record['widths'])} widths")
        else:
            moved += record["widths"] != base["widths"]
            widths = _largest_gap(record["widths"], base["widths"], f"{key} width", widths)
            forecasts = _largest_gap(record["forecasts"], base["forecasts"], f"{key} origin",
                                     forecasts)
    lines.append(f"widths differ in {moved} of {len(records)} draws; "
                 f"largest relative width gap {widths[0]:.3g} ({widths[1]})")
    lines.append(f"largest relative forecast gap {forecasts[0]:.3g} ({forecasts[1]})")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--forecasts", metavar="FILE",
                        help="write each draw's k, widths and forecasts to FILE as JSON")
    parser.add_argument("--against", metavar="FILE",
                        help="report the forecast, k and width gaps to a --forecasts FILE")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    total = hashlib.sha256()
    records, firsts = {}, {}
    for workload in WORKLOADS:
        with open(os.path.join(ROOT, "perfbench", "reference", f"{workload}.json"),
                  encoding="utf-8") as fh:
            reference = json.load(fh)
        firsts[workload] = reference["spec"], reference["pool"][0], reference["n_train"]
        for seed in reference["pool"]:
            model, forecasts = fit_draw(draw_panel(reference["spec"], seed),
                                        reference["n_train"])
            line = f"{workload} draw={seed} {model_digest(model, forecasts)}"
            print(line, flush=True)
            total.update(line.encode() + b"\n")
            records[f"{workload} draw={seed}"] = {
                "k": int(model.cluster.k),
                "widths": [float(m.kernel.sigma) for m in model.kpca_models]
                + [float(model.regressor.kernel.sigma)],
                "forecasts": [float(value) for value in forecasts],
            }
    print(f"total {total.hexdigest()}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"peak_rss_mb {peak:.2f}", file=sys.stderr)
    for workload, (spec, seed, n_train) in firsts.items():
        panel = draw_panel(spec, seed)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit_draw(panel, n_train)
            traced = (tracemalloc.get_traced_memory()[1] - before) / 2**20
        finally:
            tracemalloc.stop()
        print(f"traced_peak_mb {workload} draw={seed} {traced:.2f}", file=sys.stderr)
    if args.forecasts:
        with open(args.forecasts, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            print("\n".join(tolerance_report(records, json.load(fh))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
