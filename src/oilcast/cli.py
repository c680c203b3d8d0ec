"""Batch command line: ingest CSVs, run forecasts, compare reports.

Four subcommands: ``ingest`` fuses provenance-tagged CSVs into one canonical
panel, ``synth`` draws a synthetic panel, ``run`` executes one forecasting
method end to end, and ``compare`` turns metric reports into an improvement
rate table. Run outputs embed the effective configuration so any file can be
reproduced from its own preamble; nothing here depends on wall-clock time.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import warnings
from dataclasses import fields

import numpy as np

from .baselines import RULES as BASELINE_RULES
from .baselines import (DEFAULT_CRITERION, DEFAULT_D, DEFAULT_LAGS, DEFAULT_MAX_P, ar_fit,
                        ar_forecast, naive_forecast, univariate_lag_features)
from .evaluation import evaluate, format_report, improvement_rate, parse_report
from .kpca import RULES as KPCA_RULES, DEFAULT_THETA
from .numerics import NumericalError, check_rules, one_blas_thread, one_of
from .panel import RULES as PANEL_RULES
from .panel import (FeaturePanel, _file_lines, _read_text, atomic_write_text, fuse,
                    read_panel_csv, read_tags_csv, train_test_split, write_panel_csv,
                    write_tags_csv)
from .pipeline import RULES as PIPELINE_RULES
from .pipeline import (DEFAULT_MAX_LAG, DEFAULT_P_THRESHOLD, PipelineConfig, check_k_range,
                       granger_filter, pipeline_fit, pipeline_predict)
from .regressors import RULES as REGRESSOR_RULES, regressor_fit, regressor_predict
from .synth import RULES as SYNTH_RULES, SynthSpec, synth_generate

METHODS = ("naive", "ar", "elm", "kelm", "kpca+elm", "kpca+kelm", "kmeans+kpca+elm",
           "kmeans+kpca+kelm")


class CliError(Exception):
    """Input or configuration problem; reported on stderr, exit code 1."""


def _require_utf8(text: str, message: str) -> None:
    """Raise ``CliError(message)`` when UTF-8 cannot encode ``text``: argv is
    decoded with surrogateescape, files strictly, so a byte that is not UTF-8
    reaches the program only from argv, as a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise CliError(message) from None


def _opt(parser):
    def parse(text: str):
        text = text.strip()
        return None if text == "" else parser(text)

    return parse


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_PIPELINE = PipelineConfig()  # the library's defaults for the model keys

# key -> (parser, default); declaration order is the echo order. Each
# SynthSpec field is a synth_<field> key parsed by the type of its default,
# except that synth_seed starts unset: setting it selects a synthetic draw.
CONFIG_KEYS = {
    "panel": (str, ""),
    "tags": (str, ""),
    **{f"synth_{f.name}": (_opt(int), None) if f.name == "seed" else (type(f.default), f.default)
       for f in fields(SynthSpec)},
    "split": (str, ""),
    "mode": (str, "H"),
    "method": (str, "kmeans+kpca+kelm"),
    "label": (str, ""),
    "k": (_opt(int), _PIPELINE.k),
    "k_lo": (int, _PIPELINE.k_range[0]),
    "k_hi": (int, _PIPELINE.k_range[1]),
    "n_components": (_opt(int), _PIPELINE.n_components),
    "theta": (_opt(float), DEFAULT_THETA),
    "sigma": (_opt(float), _PIPELINE.sigma),
    "c": (float, _PIPELINE.c),
    "n_hidden": (int, _PIPELINE.n_hidden),
    "lag": (int, _PIPELINE.lag),
    "granger": (_bool, False),
    "max_lag": (int, DEFAULT_MAX_LAG),
    "p_threshold": (float, DEFAULT_P_THRESHOLD),
    "ar_d": (int, DEFAULT_D),
    "ar_max_p": (int, DEFAULT_MAX_P),
    "ar_criterion": (str, DEFAULT_CRITERION),
    "uni_lags": (int, DEFAULT_LAGS),
    "seed": (int, _PIPELINE.seed),
}


# key -> the rule object of the module that uses its value. _set_key checks each
# value where it is set, naming its line or --set, whatever the method, so a
# key the method ignores cannot carry a bad value into the echo; rules that
# need the data (k up to the series count) stay where the data is.
KEY_RULES = {
    **{f"synth_{name}": rule for name, rule in SYNTH_RULES.items()},
    "split": PANEL_RULES["month"], "mode": PANEL_RULES["mode"], "method": one_of(METHODS),
    **PIPELINE_RULES, **KPCA_RULES, **{key: REGRESSOR_RULES[key] for key in ("c", "n_hidden")},
    **{f"ar_{name}": BASELINE_RULES[name] for name in ("max_p", "d", "criterion")},
    "uni_lags": BASELINE_RULES["lags"],
}


def _set_key(config: dict, key: str, raw: str, origin: str) -> None:
    if key not in CONFIG_KEYS:
        raise CliError(f"{origin}: unknown config key {key!r}")
    if "\n" in raw or "\r" in raw:  # the preamble holds each value on one line
        raise CliError(f"{origin}: value for {key!r} holds a line break")
    _require_utf8(raw, f"{origin}: value for {key!r} is not valid UTF-8")
    parser, _ = CONFIG_KEYS[key]
    try:
        value = parser(raw)
    except ValueError as err:
        raise CliError(f"{origin}: bad value for {key!r}: {err}") from None
    if key in KEY_RULES and value is not None:  # None: an optional key left unset
        try:
            check_rules(KEY_RULES, **{key: value})
        except ValueError as err:
            raise CliError(f"{origin}: {err}") from None
    config[key] = value


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Defaults, then the flat key = value file, then --set overrides."""
    config = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    if path:
        try:
            lines = list(_file_lines(path))
        except OSError as err:
            raise CliError(f"cannot read config {path}: {err}") from None
        for lineno, line in lines:
            stripped = line.strip()
            if "=" not in stripped:
                raise CliError(f"{path}: line {lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            _set_key(config, key.strip(), raw.strip(), f"{path}: line {lineno}")
    for item in overrides:
        if "=" not in item:
            raise CliError(f"--set {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        _set_key(config, key.strip(), raw.strip(), f"--set {key.strip()}")
    return config


def _echo_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_echo_string(config: dict, extras: dict) -> str:
    r"""``key=value`` for every key, joined by ``;``; a value's ``\`` is written
    ``\\`` and its ``;`` ``\;``, which ``_echo_fields`` undoes."""
    items = [*((key, config[key]) for key in CONFIG_KEYS), *extras.items()]
    return ";".join(key + "=" + _echo_value(value).replace("\\", "\\\\").replace(";", "\\;")
                    for key, value in items)


def _config_preamble(config: dict, extras: dict) -> list[str]:
    # stripping the '# ' prefix from the predictions file yields a valid
    # config file again; derived values are kept behind a second '#'
    lines = [f"# {key} = {_echo_value(config[key])}" for key in CONFIG_KEYS]
    lines.extend(f"# # {key} = {_echo_value(value)}" for key, value in extras.items())
    return lines


def _synth_spec(values, prefix: str = "") -> SynthSpec:
    """The spec whose fields are ``values[prefix + field]``."""
    return SynthSpec(**{f.name: values[prefix + f.name] for f in fields(SynthSpec)})


def _load_run_panel(config: dict) -> FeaturePanel:
    if config["panel"]:
        panel = read_panel_csv(config["panel"])
        tags_path = config["tags"] or f"{os.path.splitext(config['panel'])[0]}.tags.csv"
        tags = read_tags_csv(tags_path)
        untagged = [name for name in panel.columns if name not in tags]
        if untagged:
            raise CliError(f"{tags_path}: no tag for columns {untagged}")
        try:
            panel = panel.with_tags(tags)
        except ValueError as err:  # a tag for a column the panel lacks
            raise CliError(f"{tags_path}: {err}") from None
        if panel.target_name is None:
            raise CliError(f"{tags_path}: panel has no target column")
        return panel
    if config["synth_seed"] is not None:
        panel, _, _ = synth_generate(_synth_spec(config, "synth_"))
        return panel
    raise CliError("config needs either panel = <csv> or synth_seed = <int>")


def _run_forecast(config: dict, panel: FeaturePanel, y: np.ndarray, n_train: int,
                  mu: float, sd: float) -> tuple[np.ndarray, dict]:
    """Forecast the test rows of the target ``y``; returns raw-scale values plus echo extras.

    ``mu`` and ``sd`` are the training target's mean and (non-zero)
    standard deviation, which scale the univariate regressor baselines.
    """
    # "kmeans+kpca+kelm" -> stages ["kmeans", "kpca"], head "kelm"
    *stages, head = config["method"].split("+")
    y_train = y[:n_train]
    n_test = panel.n_rows - n_train
    extras: dict = {}

    if head == "naive":
        return naive_forecast(y_train, n_test), extras
    if head == "ar":
        model = ar_fit(
            y_train,
            max_p=config["ar_max_p"],
            d=config["ar_d"],
            criterion=config["ar_criterion"],
        )
        extras["ar_p_selected"] = model.p
        return ar_forecast(model, y_train, n_test), extras
    if not stages:
        lags = config["uni_lags"]
        if n_train <= lags + 1:
            raise CliError(f"uni_lags={lags} needs more than {lags + 1} training rows")
        y_norm = (y - mu) / sd
        x_tr, z_tr = univariate_lag_features(y_norm[:n_train], lags=lags)
        model = regressor_fit(head, x_tr, z_tr, c=config["c"], sigma=config["sigma"],
                              n_hidden=config["n_hidden"], seed=config["seed"])
        rows, _ = univariate_lag_features(y_norm[n_train - lags :], lags=lags)
        return regressor_predict(model, rows) * sd + mu, extras

    pipeline_config = PipelineConfig(
        k=(config["k"] if "kmeans" in stages else 1),
        k_range=(config["k_lo"], config["k_hi"]),
        n_components=config["n_components"],
        theta=(None if config["n_components"] is not None else config["theta"]),
        sigma=config["sigma"],
        c=config["c"],
        regressor=head,
        n_hidden=config["n_hidden"],
        lag=config["lag"],
        seed=config["seed"],
    )
    names = panel.indicator_names(config["mode"])
    if not names:
        raise CliError(f"no indicator columns for mode {config['mode']}")
    train = panel.row_slice(range(n_train))
    train.check_finite(names)
    if config["granger"]:
        result = granger_filter(
            train, names, max_lag=config["max_lag"], p_threshold=config["p_threshold"]
        )
        extras["granger_retained"] = "|".join(result.retained)
        if result.inconclusive:
            extras["granger_inconclusive"] = "|".join(result.inconclusive)
        if not result.retained:
            raise CliError("granger filter retained no indicator columns")
        names = result.retained
    # the fit reads tagged columns only, so the view tags just these
    view = panel.with_tags({name: panel.tags[name] for name in [*names, panel.target_name]})
    model = pipeline_fit(view.row_slice(range(n_train)), pipeline_config)
    extras["k_selected"] = model.cluster.k
    lag = pipeline_config.lag
    origins = view.row_slice(range(n_train - lag, view.n_rows - lag))
    return pipeline_predict(model, origins), extras


def cmd_run(args) -> int:
    config = load_config(args.config, args.set or [])
    check_k_range(config["k"], config["k_lo"], config["k_hi"])
    if not config["split"]:
        raise CliError("config needs split = YYYY-MM (last training month)")

    panel = _load_run_panel(config)
    gap = panel.calendar_gap()
    if gap is not None:
        raise CliError(f"months jump from {gap[0]} to {gap[1]}; run needs consecutive months")
    train, test = train_test_split(panel, config["split"])
    if test.n_rows < 2:
        raise CliError(f"split leaves {test.n_rows} test rows; need at least 2")
    y = panel.columns[panel.target_name]
    missing = np.flatnonzero(~np.isfinite(y))
    if missing.size:
        raise CliError(f"target column {panel.target_name!r} is not finite at "
                       f"{panel.dates[missing[0]]}")
    mu = float(y[: train.n_rows].mean())
    sd = float(y[: train.n_rows].std())
    if sd == 0.0:
        raise CliError("target is constant over the training window")

    forecast_raw, extras = _run_forecast(config, panel, y, train.n_rows, mu, sd)
    actual = y[train.n_rows :]
    forecast_norm = (forecast_raw - mu) / sd

    label = config["label"] or f"{config['method']}:{config['mode']}"
    extras = {"test_start": test.dates[0], "test_end": test.dates[-1], **extras}
    echo = config_echo_string(config, extras)
    report = evaluate(actual, forecast_raw, label=label, config_echo=echo)

    os.makedirs(args.out_dir, exist_ok=True)
    lines = _config_preamble(config, extras)
    lines.append("date,actual,forecast_raw,forecast_normalized")
    for date, a, fr, fn in zip(test.dates, actual, forecast_raw, forecast_norm):
        lines.append(f"{date},{float(a)!r},{float(fr)!r},{float(fn)!r}")
    atomic_write_text(
        os.path.join(args.out_dir, "predictions.csv"), "\n".join(lines) + "\n"
    )
    atomic_write_text(os.path.join(args.out_dir, "metrics.txt"), format_report(report))
    print(
        f"{label}: n={report.n} mape={report.mape_pct:.4f}% rmse={report.rmse:.6f} "
        f"mae={report.mae:.6f} da={report.da_pct:.4f}%"
    )
    return 0


def _read_fragment(path: str, tag: str) -> FeaturePanel:
    fragment = read_panel_csv(path)
    if tag == "target" and len(fragment.columns) != 1:
        raise CliError(f"{path}: target file must hold exactly one column, "
                       f"got {list(fragment.columns)}")
    return fragment.with_tags({name: tag for name in fragment.columns})


def cmd_ingest(args) -> int:
    _require_utf8(args.out, "--out: path is not valid UTF-8")
    sources = [(path, "economic") for path in args.economic or []]
    sources += [(path, "gsvi") for path in args.gsvi or []] + [(args.target, "target")]
    fragments = [_read_fragment(path, tag) for path, tag in sources]
    if len(fragments) < 2:
        raise CliError("ingest needs a target plus at least one indicator file")

    panel = fuse(fragments)
    write_panel_csv(panel, f"{args.out}.csv")
    write_tags_csv(panel.tags, f"{args.out}.tags.csv")
    for (path, _), fragment in zip(sources, fragments):
        dropped = fragment.n_rows - panel.n_rows
        print(f"{path}: {fragment.n_rows} rows, {len(fragment.columns)} columns, {dropped} dropped")
    print(
        f"panel: {panel.n_rows} rows x {len(panel.columns)} columns "
        f"({panel.dates[0]}..{panel.dates[-1]}) -> {args.out}.csv"
    )
    return 0


def cmd_synth(args) -> int:
    _require_utf8(args.out, "--out: path is not valid UTF-8")
    panel, _, labels = synth_generate(_synth_spec(vars(args)))
    write_panel_csv(panel, f"{args.out}.csv")
    write_tags_csv(panel.tags, f"{args.out}.tags.csv")
    names = panel.indicator_names("H")
    label_lines = ["name,factor"] + [f"{n},{f}" for n, f in zip(names, labels)]
    atomic_write_text(f"{args.out}.labels.csv", "\n".join(label_lines) + "\n")
    print(
        f"panel: {panel.n_rows} rows x {len(panel.columns)} columns "
        f"({panel.dates[0]}..{panel.dates[-1]}) -> {args.out}.csv"
    )
    return 0


# one config_echo field: key=value up to the next ';' that no '\' escapes
_ECHO_FIELD = re.compile(r"([^;=\\]*)=((?:[^;\\]+|\\.)*)")


def _echo_fields(report) -> dict:
    return {key: re.sub(r"\\(.)", r"\1", value) if "\\" in value else value
            for key, value in _ECHO_FIELD.findall(report.config_echo)}


# pairing -> (echo field a pair shares, echo field that differs within it)
PAIRINGS = {"dataset-pairs": ("method", "mode"), "method-pairs": ("mode", "method")}


def cmd_compare(args) -> int:
    if len(args.reports) < 2:
        raise CliError("compare needs at least two report files")
    if len(args.reports) % 2 != 0:
        raise CliError("compare pairs consecutive reports; give an even count")
    reports = []
    for path in args.reports:
        text = _read_text(path)
        try:
            reports.append(parse_report(text))
        except ValueError as err:
            raise CliError(f"{path}: {err}") from None

    rows = []
    for first, second in zip(reports[::2], reports[1::2]):
        fa, fb = _echo_fields(first), _echo_fields(second)
        window_a = (fa.get("test_start"), fa.get("test_end"), first.n)
        window_b = (fb.get("test_start"), fb.get("test_end"), second.n)
        if window_a != window_b:
            raise CliError(f"incompatible test windows for {first.label!r} vs "
                           f"{second.label!r}: {window_a} vs {window_b}")
        same, different = PAIRINGS[args.pairing]
        if "method" in fa and "method" in fb and (
            fa.get(same) != fb.get(same) or fa.get(different) == fb.get(different)
        ):
            raise CliError(f"{args.pairing} expects same {same}, different {different}; "
                           f"got {first.label!r} vs {second.label!r}")
        rates = improvement_rate(first, second)
        rows.append(
            f"{first.label} vs {second.label},{rates.ir_mape_pct!r},"
            f"{rates.ir_rmse_pct!r},{rates.ir_da_pct!r}"
        )

    table = "\n".join(["pair,ir_mape_pct,ir_rmse_pct,ir_da_pct"] + rows) + "\n"
    atomic_write_text(args.out, table)
    print(table, end="")
    return 0


def _synth_option(name: str, parse):
    """The argparse type of the synth option for ``SynthSpec`` field ``name``:
    ``parse``, then the field's rule, whose text the error keeps."""
    def convert(text: str):
        value = parse(text)
        try:
            check_rules(SYNTH_RULES, **{name: value})
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid int value: ..."
    return convert


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``oilcast`` parser, built once per process; ``main`` picks the
    subcommand's function by name when it runs."""
    parser = _Parser(prog="oilcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="fuse tagged CSVs into one panel")
    ingest.add_argument("--economic", action="append", metavar="CSV")
    ingest.add_argument("--gsvi", action="append", metavar="CSV")
    ingest.add_argument("--target", required=True, metavar="CSV")
    ingest.add_argument("--out", required=True, metavar="PREFIX")

    synth = sub.add_parser("synth", help="write a synthetic panel")
    for f in fields(SynthSpec):
        synth.add_argument(f"--{f.name.replace('_', '-')}", default=f.default,
                           type=_synth_option(f.name, type(f.default)))
    synth.add_argument("--out", required=True, metavar="PREFIX")

    run = sub.add_parser("run", help="run one forecasting method end to end")
    run.add_argument("--config", metavar="FILE")
    run.add_argument("--set", action="append", metavar="KEY=VALUE")
    run.add_argument("--out-dir", default=".", metavar="DIR")

    compare = sub.add_parser("compare", help="improvement-rate table from reports")
    compare.add_argument("reports", nargs="+", metavar="METRICS")
    compare.add_argument("--pairing", choices=tuple(PAIRINGS), default="method-pairs")
    compare.add_argument("--out", required=True, metavar="CSV")
    return parser


def _exit_code_for(err: BaseException) -> int:
    cause: BaseException | None = err
    while cause is not None:
        if isinstance(cause, NumericalError):
            return 2
        cause = cause.__cause__
    return 1


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


@one_blas_thread()
def main(argv=None) -> int:
    with warnings.catch_warnings():
        # a library warning is one line, without the source location
        warnings.showwarning = _print_warning
        try:
            args = build_parser().parse_args(argv)
            command = {"ingest": cmd_ingest, "synth": cmd_synth, "run": cmd_run,
                       "compare": cmd_compare}[args.command]
            return command(args)
        except (CliError, ValueError, OSError, NumericalError, RuntimeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return _exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
