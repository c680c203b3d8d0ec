"""In-memory span recorder that wraps oilcast functions from outside the package.

Each traced function is replaced, at every binding inside the loaded
``oilcast.*`` modules, by a wrapper that records a span (request id, span id,
parent span id, metric name, start, end) and optional counts taken from the
call's arguments and return value. Spans are kept in memory and aggregated
per group (``setup`` or ``pass-<i>``); the caller writes them out when the
run ends. A target that no longer exists is reported as absent instead of
failing, so the harness keeps working while functions move or disappear.

Self time is a span's duration minus the wall time its child spans cover,
wrapper bookkeeping included, so the recorder's own cost does not land in
any layer.

Work is charged to the layer whose code calls it. KELM builds its own
Gaussian Gram matrix with the ``oilcast.kpca`` helpers, so a kpca call made
while a regressors span is innermost records no span and no count: its time
stays in the regressors span's self time, and ``kpca.kernel_entries`` counts
only the entries KPCA computes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


def _count_read(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"panel.bytes_read": os.path.getsize(path)}


def _count_written(args, kwargs, result):
    return {"panel.bytes_written": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


def _count_granger(args, kwargs, result):
    return {"pipeline.granger_tests": len(list(_arg(args, kwargs, 1, "candidates"))),
            "pipeline.granger_retained": len(result.retained)}


def _count_kmeans(args, kwargs, result):
    return {"clustering.kmeans_fits": 1, "clustering.kmeans_iters": int(result.n_iter)}


def _count_median(args, kwargs, result):
    n = _rows(_arg(args, kwargs, 0, "x"))
    return {"kpca.kernel_entries": n * n}


def _count_kernel(args, kwargs, result):
    # GaussianKernel.__call__(self, x, z): one entry per row pair
    return {"kpca.kernel_entries": _rows(args[1]) * _rows(args[2])}


def _count_kpca_fit(args, kwargs, result):
    return {"kpca.kept": int(result.n_components)}


def _count_eig(args, kwargs, result):
    n = int(result[0].shape[0])
    return {"numerics.eigenpairs": n, "numerics.eig_ops_computed": n ** 3}


# (metric, "module:attribute", counter, records a span)
SPANS = (
    ("panel.read_csv", "oilcast.panel:read_panel_csv", _count_read, True),
    ("panel.read_csv", "oilcast.panel:read_tags_csv", _count_read, True),
    ("panel.split", "oilcast.panel:train_test_split", None, True),
    ("panel.normalize", "oilcast.panel:normalize_fit", None, True),
    ("panel.normalize", "oilcast.panel:normalize_apply", None, True),
    ("panel.select", "oilcast.panel:FeaturePanel.select", None, True),
    ("panel.select", "oilcast.panel:FeaturePanel.row_slice", None, True),
    ("panel.select", "oilcast.panel:FeaturePanel.matrix", None, True),
    ("panel.write", "oilcast.panel:atomic_write_text", _count_written, True),
    ("pipeline.granger", "oilcast.pipeline:granger_filter", _count_granger, True),
    ("pipeline.fit_self", "oilcast.pipeline:pipeline_fit", None, True),
    ("pipeline.predict_self", "oilcast.pipeline:pipeline_predict", None, True),
    ("clustering.elbow_self", "oilcast.clustering:elbow_select", None, True),
    ("clustering.kmeans", "oilcast.clustering:kmeans_fit", _count_kmeans, True),
    ("kpca.fit_self", "oilcast.kpca:kpca_fit", _count_kpca_fit, True),
    ("kpca.median_heuristic", "oilcast.kpca:median_heuristic", _count_median, True),
    ("kpca.kernel_matrix", "oilcast.kpca:kernel_matrix", None, True),
    ("kpca.center", "oilcast.kpca:center_kernel", None, True),
    ("kpca.transform", "oilcast.kpca:kpca_transform", None, True),
    ("kpca.kernel_eval", "oilcast.kpca:GaussianKernel.__call__", _count_kernel, False),
    ("numerics.sym_eig", "oilcast.numerics:sym_eig", _count_eig, True),
    ("numerics.solve_spd", "oilcast.numerics:solve_spd", None, True),
    ("regressors.fit", "oilcast.regressors:kelm_fit", None, True),
    ("regressors.fit", "oilcast.regressors:elm_fit", None, True),
    ("regressors.predict", "oilcast.regressors:kelm_predict", None, True),
    ("regressors.predict", "oilcast.regressors:elm_predict", None, True),
    ("baselines.ar_fit", "oilcast.baselines:ar_fit", None, True),
    ("evaluation.evaluate", "oilcast.evaluation:evaluate", None, True),
    ("evaluation.evaluate", "oilcast.evaluation:format_report", None, True),
    ("evaluation.compare", "oilcast.evaluation:parse_report", None, True),
    ("evaluation.compare", "oilcast.evaluation:improvement_rate", None, True),
    ("synth.generate", "oilcast.synth:synth_generate", None, True),
    ("cli.self", "oilcast.cli:main", None, True),
)


class Tracer:
    """Records spans for calls made while a request is open."""

    def __init__(self):
        self.spans: list[tuple] = []  # (request, span, parent, metric, start, end)
        self.seconds = defaultdict(lambda: defaultdict(float))  # group -> metric -> self s
        self.counts = defaultdict(lambda: defaultdict(int))  # group -> counter -> total
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._stack: list[list] = []  # open spans: [span id, covered seconds, metric]
        self._request = None
        self._group = None
        self._next_request = 0
        self._next_span = 0

    @contextlib.contextmanager
    def request(self, group: str):
        """One request (a run, fit or predict) inside ``group``."""
        self._request = self._next_request
        self._next_request += 1
        self._group = group
        self._stack = []
        try:
            yield
        finally:
            self._request = None
            self._group = None

    # --- patching ---------------------------------------------------------

    def install(self, specs=SPANS) -> None:
        """Wrap every target that exists; record the missing ones as absent."""
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "oilcast" or name.startswith("oilcast."))]
        for metric, target, counter, span in specs:
            owner, attr, original = _resolve(target)
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(metric, original, counter, span)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, metric, fn, counter, span):
        tracer = self
        # KELM's kernel work stays with regressors (see the module docstring)
        kernel_work = metric.startswith("kpca.")

        def wrapper(*args, **kwargs):
            if tracer._request is None or (
                    kernel_work and tracer._stack and tracer._stack[-1][2].startswith("regressors.")):
                return fn(*args, **kwargs)
            enter = perf_counter()
            frame = [tracer._next_span, 0.0, metric]
            tracer._next_span += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            if span:
                tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if span:
                    tracer._stack.pop()
                    tracer.spans.append((tracer._request, frame[0], parent, metric, start, end))
                    tracer.seconds[tracer._group][metric] += (end - start) - frame[1]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[tracer._group][key] += value
            if tracer._stack:
                # a span covers its whole wrapper; a count-only hook hides only
                # its bookkeeping, so the wrapped work stays with the caller
                covered = perf_counter() - enter
                tracer._stack[-1][1] += covered if span else covered - (end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def dump(self) -> dict:
        return {
            "absent": list(self.absent),
            "spans": [
                {"request": r, "span": s, "parent": p, "name": m, "start": a, "end": b}
                for r, s, p, m, a, b in self.spans
            ],
        }


def _resolve(target: str):
    """(owner, attribute, original) for 'module:attr[.attr]'; original None when gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    if inspect.isclass(owner):
        original = owner.__dict__.get(parts[-1])
    else:
        original = getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        return None, None, None
    return owner, parts[-1], original
