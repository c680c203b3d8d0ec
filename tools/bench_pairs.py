"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with the
same ``--seed`` and ``--seconds``; pair i uses seed ``first_seed + i``, and
the side that runs first alternates, the parent first in even pairs. The tool
only calls each checkout's own ``perfbench/run.py`` and reads the JSON object
on its last stdout line.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload wide_panel --pairs 10 --seconds 24

prints one line per run (seed, side, every end-to-end metric, ``correct`` and
``failed``), then, for each end-to-end metric that ``BENCHMARK.json`` of the
parent checkout names, each side's median and quartiles, the change's wins
(ties count for neither side) and whether a claimed gain would hold: the
change wins at least nine tenths of the pairs, and the medians differ, in the
metric's better direction, by more than the parent's interquartile range.
Quartiles are ``statistics.quantiles(..., n=4, method="inclusive")``.
Exits 1 when a run fails to produce its JSON line or reports ``correct``
false or a failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced ``perfbench/run.py`` run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = done.stderr.strip().splitlines()[-3:]
        raise SystemExit(f"{checkout}: run.py exited {done.returncode} with no result: "
                         + " | ".join(tail))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> tuple[int, bool]:
    """(change's wins, whether the claim rule holds) for paired values."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    gap = sign * (p2 - statistics.median(change))
    return wins, wins >= math.ceil(0.9 * len(parent)) and gap > p3 - p1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = json.load(fh)["end_to_end"]

    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    ok = True
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            shown = []
            for metric in gated:
                value = result["metrics"][metric["name"]]["value"]
                values[side].setdefault(metric["name"], []).append(value)
                shown.append(f"{metric['name']}={value:.6g}")
            ok &= result["correct"] is True and result["failed"] == 0
            print(f"pair {pair} seed {seed} {side:6s} {' '.join(shown)} "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs at {args.seconds:g} s")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change wins | claim holds |")
    print("|---|---|---|---:|---|")
    for metric in gated:
        name = metric["name"]
        parent, change = values["parent"][name], values["change"][name]
        wins, holds = verdict(parent, change, metric["better"] == "lower")
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        print(f"| `{name}` | {p2:.6g} [{p1:.6g}, {p3:.6g}] | {c2:.6g} [{c1:.6g}, {c3:.6g}] "
              f"| {wins}/{args.pairs} | {'yes' if holds else 'no'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
