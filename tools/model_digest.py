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
count or on the number of KPCA fit workers: CI runs this at
``OPENBLAS_NUM_THREADS=1`` and ``=2`` and under ``taskset -c 0`` (one fit
worker) and diffs the three outputs; its numpy-only job diffs a run on every
CPU against one under ``taskset -c 0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("long_panel", "wide_panel")
ORIGINS = 12


def _update(digest, values, dtype=np.float64) -> None:
    digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())


def model_digest(spec: dict, seed: int, n_train: int) -> str:
    """The sha256 of one draw's fitted model and forecasts."""
    from oilcast.pipeline import PipelineConfig, pipeline_fit, pipeline_predict
    from oilcast.synth import SynthSpec, synth_generate

    panel, _, _ = synth_generate(SynthSpec(seed=seed, **spec))
    config = PipelineConfig(theta=0.95)
    model = pipeline_fit(panel.row_slice(range(n_train)), config)
    start = n_train - config.lag
    forecasts = [pipeline_predict(model, panel.row_slice([start + i]))[0] for i in range(ORIGINS)]

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


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    total = hashlib.sha256()
    for workload in WORKLOADS:
        with open(os.path.join(ROOT, "perfbench", "reference", f"{workload}.json"),
                  encoding="utf-8") as fh:
            reference = json.load(fh)
        for seed in reference["pool"]:
            line = (f"{workload} draw={seed} "
                    f"{model_digest(reference['spec'], seed, reference['n_train'])}")
            print(line, flush=True)
            total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
