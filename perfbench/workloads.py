"""The three benchmark workloads, shared by the worker and the reference generator.

Every workload draws its panel from ``oilcast.synth`` and hands the program
only that panel: as a CSV written during set-up for the command-line runs,
and as the in-memory ``FeaturePanel`` for the library calls. WHY.md says why
each workload exists and which layer each one stresses.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

HYBRID = "kmeans+kpca+kelm"
WARMUP = "kpca+kelm"
MODES = ("E", "G", "H")
TEST_MONTHS = 12
COLD_RUNS = 1  # per worker process

# A forecast matches its reference when |x - ref| <= REL_TOL * max(1, |ref|).
# Loose enough for the last-digit drift of a reordered or iterative solver,
# tight enough that any change of model (k, kept components, retained
# columns) fails.
REL_TOL = 1e-7


@dataclass(frozen=True)
class Workload:
    spec: dict  # SynthSpec keywords except the seed
    n_train: int
    grid: bool  # paper-scale CLI grid (True) or library fit/predict loop
    k_target: int | None  # pool rule: the draw's elbow must select this k


WORKLOADS = {
    "paper_grid": Workload(dict(months=180, factors=7, series_per_factor=10), 168, True, None),
    "long_panel": Workload(dict(months=1200, factors=10, series_per_factor=20), 1188, False, 6),
    "wide_panel": Workload(dict(months=180, factors=6, series_per_factor=250), 168, False, 6),
}


HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def reference_path(name: str) -> str:
    return os.path.join(HERE, "reference", f"{name}.json")


class Recorder:
    """Times operations, opens one trace request per operation, counts failures.

    With a reference, each output is compared against it; without one (the
    reference generator) the first value seen for each key is stored.
    """

    def __init__(self, tracer=None, reference: dict | None = None):
        self.tracer = tracer
        self.reference = reference
        self.outputs: dict = {}
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.group = "setup"
        self.traced = tracer is not None

    def call(self, sample: str | None, scale: float, fn, *args):
        """Run one operation; returns (ok, result) and records its wall time."""
        self.attempted += 1
        ctx = self.tracer.request(self.group) if self.traced else contextlib.nullcontext()
        try:
            with ctx:
                start = perf_counter()
                result = fn(*args)
                elapsed = perf_counter() - start
        except Exception as err:  # every failure is data for error_rate
            self.fail(f"{getattr(fn, '__name__', fn)}: {type(err).__name__}: {err}")
            return False, None
        if sample is not None:
            self.samples[sample].append(elapsed * scale)
        return True, result

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, key: str, values) -> bool:
        """Compare forecasts (or any floats) with the reference; record a failure."""
        values = [float(v) for v in values]
        if self.reference is None:
            self.outputs.setdefault(key, values)
            if not all(math.isfinite(v) for v in values):
                self.fail(f"{key}: non-finite output")
                return False
            return True
        expected = self.reference.get(key)
        if expected is None:
            self.fail(f"{key}: no reference value")
            return False
        if len(expected) != len(values):
            self.fail(f"{key}: {len(values)} values, reference has {len(expected)}")
            return False
        for i, (got, ref) in enumerate(zip(values, expected)):
            if not abs(got - ref) <= REL_TOL * max(1.0, abs(ref)):
                self.fail(f"{key}[{i}]: {got!r} differs from reference {ref!r}")
                return False
        return True


class Context:
    """Set-up product: the panel, its CSV, the run config and the library inputs."""

    def __init__(self, name: str, draw: int, workdir: str):
        from oilcast.panel import write_panel_csv, write_tags_csv
        from oilcast.pipeline import PipelineConfig
        from oilcast.synth import SynthSpec, synth_generate

        self.workload = WORKLOADS[name]
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        panel, _, _ = synth_generate(SynthSpec(seed=draw, **self.workload.spec))
        n_train = self.workload.n_train
        csv = os.path.join(workdir, "panel.csv")
        write_panel_csv(panel, csv)
        write_tags_csv(panel.tags, os.path.join(workdir, "panel.tags.csv"))
        self.config = os.path.join(workdir, "run.conf")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(f"panel = {csv}\nsplit = {panel.dates[n_train - 1]}\ngranger = true\n")
        self.train = panel.row_slice(range(n_train))
        self.pipeline_config = PipelineConfig(theta=0.95)
        lag = self.pipeline_config.lag
        self.origins = [panel.row_slice([n_train - lag + i]) for i in range(TEST_MONTHS)]
        self.actual = panel.columns[panel.target_name][n_train:n_train + TEST_MONTHS]


def _quiet_cli(argv):
    import oilcast.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oilcast.cli.main(argv)
    return code, err.getvalue().strip()


def _forecasts(out_dir: str) -> list[float]:
    with open(os.path.join(out_dir, "predictions.csv"), encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in fh if ln.strip() and not ln.startswith("#")]
    return [float(r[2]) for r in rows[1:]]


def _check_run(rec: Recorder, key: str, out_dir: str, code, err: str) -> None:
    """Exit code 0, a metrics.txt that parses with n = 12, forecasts as referenced."""
    from oilcast.evaluation import parse_report

    if code != 0:
        rec.fail(f"{key}: exit code {code}: {err}")
        return
    try:
        with open(os.path.join(out_dir, "metrics.txt"), encoding="utf-8") as fh:
            report = parse_report(fh.read())
        forecasts = _forecasts(out_dir)
    except (OSError, ValueError, IndexError) as error:
        rec.fail(f"{key}: unreadable output: {error}")
        return
    if report.n != TEST_MONTHS:
        rec.fail(f"{key}: metrics.txt has n = {report.n}, expected {TEST_MONTHS}")
        return
    if rec.check(key, forecasts) and key == f"grid/{HYBRID}:H":
        rec.outputs.setdefault("mape_pct", [report.mape_pct])


def _check_table(rec: Recorder, key: str, path: str, code, err: str) -> None:
    if code != 0:
        rec.fail(f"{key}: exit code {code}: {err}")
        return
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [ln.strip().split(",") for ln in fh if ln.strip()][1:]
        values = [float(v) for row in rows for v in row[1:]]
    except (OSError, ValueError) as error:
        rec.fail(f"{key}: unreadable output: {error}")
        return
    rec.check(key, values)


def _run_argv(ctx: Context, method: str, mode: str, out_dir: str) -> list[str]:
    return ["run", "--config", ctx.config, "--set", f"method={method}",
            "--set", f"mode={mode}", "--out-dir", out_dir]


def setup_ops(ctx: Context, rec: Recorder) -> None:
    """Warm-up: a KPCA and an AR run through the CLI, and their comparison.

    The single-cluster KPCA run (with the Granger screen) reaches every layer
    at a fraction of the hybrid's cost on the large panels.
    """
    base = os.path.join(ctx.workdir, "setup")
    dirs = []
    for method in (WARMUP, "ar"):
        out_dir = os.path.join(base, method)
        ok, result = rec.call(None, 1.0, _quiet_cli, _run_argv(ctx, method, "H", out_dir))
        if ok:
            _check_run(rec, f"setup/{method}:H", out_dir, *result)
        dirs.append(out_dir)
    table = os.path.join(base, "compare.csv")
    argv = ["compare", *[os.path.join(d, "metrics.txt") for d in dirs],
            "--pairing", "method-pairs", "--out", table]
    ok, result = rec.call(None, 1.0, _quiet_cli, argv)
    if ok:
        _check_table(rec, "setup/compare", table, *result)


def grid_pass(ctx: Context, rec: Recorder) -> None:
    """All 8 methods x modes E/G/H through the CLI, then the compare tables."""
    import oilcast.cli

    base = os.path.join(ctx.workdir, "grid")
    runs, tables = [], []
    start = perf_counter()
    for mode in MODES:
        for method in oilcast.cli.METHODS:
            out_dir = os.path.join(base, f"{method}_{mode}")
            ok, result = rec.call("run_ms", 1e3, _quiet_cli, _run_argv(ctx, method, mode, out_dir))
            if ok:
                runs.append((f"grid/{method}:{mode}", out_dir, result))
    report = lambda method, mode: os.path.join(base, f"{method}_{mode}", "metrics.txt")
    others = [m for m in oilcast.cli.METHODS if m != HYBRID]
    compares = [
        (f"compare/method_{mode}", "method-pairs",
         [p for m in others for p in (report(HYBRID, mode), report(m, mode))])
        for mode in MODES
    ]
    compares.append(("compare/dataset", "dataset-pairs",
                     [p for m in oilcast.cli.METHODS for other in ("E", "G")
                      for p in (report(m, "H"), report(m, other))]))
    for key, pairing, paths in compares:
        table = os.path.join(base, f"{key.split('/')[1]}.csv")
        argv = ["compare", *paths, "--pairing", pairing, "--out", table]
        ok, result = rec.call(None, 1.0, _quiet_cli, argv)
        if ok:
            tables.append((key, table, result))
    rec.samples["pass_s"].append(perf_counter() - start)
    for key, out_dir, (code, err) in runs:
        _check_run(rec, key, out_dir, code, err)
    for key, table, (code, err) in tables:
        _check_table(rec, key, table, code, err)


def library_round(ctx: Context, rec: Recorder) -> None:
    """One ``pipeline_fit`` on the training rows, then 12 one-origin predicts."""
    from oilcast.pipeline import pipeline_fit, pipeline_predict

    start = perf_counter()
    ok, model = rec.call("fit_s", 1.0, pipeline_fit, ctx.train, ctx.pipeline_config)
    if not ok:
        return
    forecasts = []
    for origin in ctx.origins:
        ok, value = rec.call("predict_ms", 1e3, pipeline_predict, model, origin)
        if not ok:
            return
        forecasts.append(value[0])
    rec.samples["pass_s"].append(perf_counter() - start)
    rec.check("library/k", [model.cluster.k])
    if rec.check("library", forecasts):
        rec.outputs.setdefault("mape_pct", [_mape(ctx.actual, forecasts)])


def _mape(actual, forecasts) -> float:
    return 100.0 * sum(abs(a - f) / abs(a) for a, f in zip(actual, forecasts)) / len(forecasts)


def workload_pass(ctx: Context, rec: Recorder) -> None:
    """One pass of the workload's closed loop."""
    if ctx.workload.grid:
        grid_pass(ctx, rec)
    else:
        library_round(ctx, rec)


def cold_run(ctx: Context, rec: Recorder) -> None:
    """The hybrid run as a fresh ``python -m oilcast.cli`` process."""
    out_dir = os.path.join(ctx.workdir, "cold")
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "oilcast.cli", *_run_argv(ctx, HYBRID, "H", out_dir)]
    rec.attempted += 1
    start = perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        rec.fail("cold run: no exit within 120 s")
        return
    rec.samples["cold_s"].append(perf_counter() - start)
    _check_run(rec, f"grid/{HYBRID}:H", out_dir, proc.returncode, proc.stderr.strip())
