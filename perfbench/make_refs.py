"""Write the reference outputs the benchmark checks every operation against.

For each workload it draws synthetic panels with seeds 0, 1, 2, ... and runs
the set-up operations and one pass on each. For a workload with a
``k_target``, a draw joins the pool only when its fit succeeds and the
elbow selects that k, so a draw whose fit raises is left out by
construction; every draw left out is listed with the reason (the error,
for a failing fit). On a workload without a ``k_target`` every draw is
kept, and an operation that fails has no reference, so the benchmark
reports it failed. The benchmark maps ``--seed`` to
``pool[seed % len(pool)]``.

Regenerate only when the program's outputs are meant to change:

    PYTHONPATH=src python3 perfbench/make_refs.py [workload ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import warnings

from workloads import (HERE, REL_TOL, WORKLOADS, Context, Recorder, reference_path, setup_ops,
                       workload_pass)

POOL_SIZE = 16


def build_pool(name: str) -> dict:
    workload = WORKLOADS[name]
    draws, excluded = {}, {}
    workdir = os.path.join(HERE, "_work", f"refs-{name}")
    draw = 0
    while len(draws) < POOL_SIZE:
        rec = Recorder()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ok, ctx = rec.call(None, 1.0, Context, name, draw, workdir)
            if ok:
                setup_ops(ctx, rec)
                workload_pass(ctx, rec)
        k = rec.outputs.get("library/k", [None])[0]
        if workload.k_target is not None and k is None:
            excluded[str(draw)] = "elbow selects no k: " + rec.failures[0]
        elif workload.k_target is not None and k != workload.k_target:
            excluded[str(draw)] = f"elbow selects k = {int(k)}, not {workload.k_target}"
        else:
            draws[str(draw)] = rec.outputs
            for failure in rec.failures:
                print(f"{name} draw {draw}: kept with a failure: {failure}", flush=True)
        print(f"{name} draw {draw}: {excluded.get(str(draw), 'kept')}", flush=True)
        draw += 1
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "spec": workload.spec,
        "n_train": workload.n_train,
        "k_target": workload.k_target,
        "rel_tol": REL_TOL,
        "pool": [int(d) for d in draws],
        "excluded": excluded,
        "draws": draws,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    for name in args.workloads:
        table = build_pool(name)
        path = reference_path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
