"""End-to-end checks of the command line: ingest, synth, run, compare."""

import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oilcast import baselines, cli, kpca, pipeline, regressors
from oilcast.baselines import ar_fit, univariate_lag_features
from oilcast.cli import CONFIG_KEYS, load_config, main
from oilcast.evaluation import _POINTS_HEADER, evaluate, format_report, parse_report
from oilcast.kpca import kpca_fit
from oilcast.numerics import NumericalError
from oilcast.panel import RULES as PANEL_RULES
from oilcast.panel import (
    FeaturePanel,
    month_range,
    read_panel_csv,
    train_test_split,
    write_panel_csv,
    write_tags_csv,
)
from oilcast.pipeline import PipelineConfig, PipelineStageError, granger_filter
from oilcast.regressors import elm_fit, kelm_fit
from oilcast.synth import RULES as SYNTH_RULES
from oilcast.synth import SynthSpec, synth_generate


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **overrides):
    base = {"synth_seed": 0, "split": "2017-12", "method": "naive", "label": "base"}
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


class TestConfigHandling:
    def test_defaults_match_registry(self):
        config = load_config(None, [])
        assert config["method"] == "kmeans+kpca+kelm"
        assert config["theta"] == 0.95
        assert config["synth_seed"] is None
        assert set(config) == set(CONFIG_KEYS)

    def test_baseline_defaults_come_from_the_library(self):
        config = load_config(None, [])
        ar = inspect.signature(ar_fit).parameters
        lags = inspect.signature(univariate_lag_features).parameters["lags"]
        assert ((config["ar_max_p"], config["ar_d"], config["ar_criterion"], config["uni_lags"])
                == (ar["max_p"].default, ar["d"].default, ar["criterion"].default, lags.default)
                == (12, 1, "aic", 12))

    def test_file_then_set_precedence(self, tmp_path):
        path = write_config(tmp_path / "a.conf", c=7.0)
        config = load_config(path, ["c=9.5", "mode=G"])
        assert config["c"] == 9.5
        assert config["mode"] == "G"
        assert config["split"] == "2017-12"

    def test_unknown_key_in_file(self, tmp_path, capsys):
        path = tmp_path / "a.conf"
        path.write_text("split = 2017-12\nwibble = 3\n")
        code, _, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == 1
        assert "line 2" in err and "wibble" in err

    def test_bad_value_type(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.conf", k="three")
        code, _, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == 1
        assert "'k'" in err

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("# note\n\nsplit = 2010-06\n")
        assert load_config(str(path), [])["split"] == "2010-06"

    def test_empty_value_clears_optional(self):
        config = load_config(None, ["sigma=", "synth_seed=4"])
        assert config["sigma"] is None
        assert config["synth_seed"] == 4

    def test_missing_split_rejected(self, capsys):
        code, _, err = run_cli(["run", "--set", "synth_seed=0"], capsys)
        assert code == 1
        assert "split" in err

    def test_no_data_source_rejected(self, capsys):
        code, _, err = run_cli(["run", "--set", "split=2017-12"], capsys)
        assert code == 1
        assert "panel" in err and "synth_seed" in err


def run_out_not_utf8(args, prefix):
    """``oilcast`` in a fresh process with ``--out`` the prefix plus the raw
    byte 0xff, which argv decodes as the lone surrogate '\\udcff'."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "oilcast.cli", *args,
                           "--out", os.fsencode(prefix) + b"\xff"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)


@pytest.fixture()
def fragment_files(tmp_path):
    panel, _, _ = synth_generate(SynthSpec(seed=3, months=60, factors=2, series_per_factor=3))
    names = list(panel.columns)

    def dump(cols, path, rows):
        dates = [panel.dates[i] for i in rows]
        columns = {n: panel.columns[n][list(rows)] for n in cols}
        write_panel_csv(FeaturePanel(dates=dates, columns=columns), str(path))

    dump(names[:3], tmp_path / "econ.csv", range(60))
    dump(names[3:6], tmp_path / "gsvi.csv", range(4, 60))
    dump(["price"], tmp_path / "price.csv", range(58))
    return tmp_path


class TestIngest:
    def test_fuse_counts_and_tags(self, fragment_files, capsys):
        out = fragment_files / "fused"
        code, stdout, _ = run_cli(
            [
                "ingest",
                "--economic", str(fragment_files / "econ.csv"),
                "--gsvi", str(fragment_files / "gsvi.csv"),
                "--target", str(fragment_files / "price.csv"),
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        fused = read_panel_csv(str(out) + ".csv")
        assert fused.n_rows == 54  # intersection of 60, 56 (from row 4), 58
        assert len(fused.columns) == 7
        tags = (out.parent / "fused.tags.csv").read_text()
        assert tags.count("economic") == 3
        assert tags.count("gsvi") == 3
        assert tags.count("target") == 1
        assert "54 rows x 7 columns" in stdout
        assert "6 dropped" in stdout  # econ: 60 source rows vs 54 kept

    def test_line_numbered_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,a\n2004-01,1.0\n2004-02,oops\n")
        tgt = tmp_path / "t.csv"
        tgt.write_text("date,price\n2004-01,5.0\n2004-02,6.0\n")
        code, _, err = run_cli(
            ["ingest", "--economic", str(bad), "--target", str(tgt), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "line 3" in err and "'oops'" in err and "'a'" in err

    def test_empty_date_intersection(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("date,a\n2004-01,1.0\n2004-02,2.0\n")
        b = tmp_path / "b.csv"
        b.write_text("date,price\n2010-01,5.0\n2010-02,6.0\n")
        code, _, err = run_cli(
            ["ingest", "--economic", str(a), "--target", str(b), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "empty intersection" in err

    def test_multi_column_target_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("date,a\n2004-01,1.0\n")
        b = tmp_path / "b.csv"
        b.write_text("date,p,q\n2004-01,5.0,6.0\n")
        code, _, err = run_cli(
            ["ingest", "--economic", str(a), "--target", str(b), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "exactly one column" in err

    def test_calendar_gap_warning_is_one_line(self, tmp_path, capsys):
        panel, _, _ = synth_generate(SynthSpec(seed=3, months=48, factors=1, series_per_factor=2))
        rows = [i for i in range(48) if i != 20]  # the economic file skips one month
        for names, path, keep in ((["f0s0", "f0s1"], "econ.csv", rows),
                                  (["price"], "price.csv", range(48))):
            columns = {n: panel.columns[n][list(keep)] for n in names}
            write_panel_csv(FeaturePanel(dates=[panel.dates[i] for i in keep], columns=columns),
                            str(tmp_path / path))
        code, _, err = run_cli(
            ["ingest", "--economic", str(tmp_path / "econ.csv"),
             "--target", str(tmp_path / "price.csv"), "--out", str(tmp_path / "fused")],
            capsys,
        )
        assert code == 0
        assert err == ("warning: fused panel has calendar gaps; "
                       "lag alignment will treat rows as consecutive\n")

    def test_out_that_utf8_cannot_encode_rejected(self, fragment_files):
        before = sorted(fragment_files.iterdir())
        child = run_out_not_utf8(["ingest", "--economic", str(fragment_files / "econ.csv"),
                                  "--target", str(fragment_files / "price.csv")],
                                 fragment_files / "fused")
        assert (child.returncode, child.stdout) == (1, b"")
        assert child.stderr == b"error: --out: path is not valid UTF-8\n"
        assert sorted(fragment_files.iterdir()) == before

    def test_target_alone_rejected(self, tmp_path, capsys):
        b = tmp_path / "b.csv"
        b.write_text("date,price\n2004-01,5.0\n")
        code, _, err = run_cli(
            ["ingest", "--target", str(b), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "at least one indicator" in err


class TestSynthCommand:
    def test_writes_panel_tags_labels(self, tmp_path, capsys):
        out = tmp_path / "p"
        code, stdout, _ = run_cli(
            ["synth", "--seed", "2", "--months", "48", "--factors", "2",
             "--series-per-factor", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "48 rows x 9 columns" in stdout
        labels = (tmp_path / "p.labels.csv").read_text().splitlines()
        assert labels[0] == "name,factor"
        assert len(labels) == 9  # header + 8 indicators
        panel = read_panel_csv(str(out) + ".csv")
        direct, _, _ = synth_generate(
            SynthSpec(seed=2, months=48, factors=2, series_per_factor=4)
        )
        np.testing.assert_allclose(panel.columns["price"], direct.columns["price"])

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["synth", "--months", "10", "--out", str(tmp_path / "p")], capsys
        )
        assert code == 1
        assert "months" in err

    @pytest.mark.parametrize("option, value, message", [
        ("--noise", "nan", "noise must be >= 0 and finite, got nan"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--months", "10", "months must be >= 36, got 10"),
        ("--start", "2004-13", "start must be YYYY-MM with MM in 01..12, got '2004-13'"),
    ])
    def test_option_breaking_its_rule_names_it(self, option, value, message, tmp_path, capsys):
        code, stdout, err = run_cli(["synth", option, value, "--out", str(tmp_path / "p")], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: argument {option}: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_that_utf8_cannot_encode_rejected(self, tmp_path):
        child = run_out_not_utf8(["synth"], tmp_path / "p")
        assert (child.returncode, child.stdout) == (1, b"")
        assert child.stderr == b"error: --out: path is not valid UTF-8\n"
        assert list(tmp_path.iterdir()) == []

    def test_option_that_does_not_parse_names_its_type(self, tmp_path, capsys):
        code, _, err = run_cli(["synth", "--months", "ten", "--out", str(tmp_path / "p")], capsys)
        assert (code, err) == (1, "error: argument --months: invalid int value: 'ten'\n")


# a value other than the default for each SynthSpec field but the seed; with
# start 2004-06 or 170 months the draw still has test months after 2017-12
NON_DEFAULT_SYNTH = {"months": 170, "factors": 2, "series_per_factor": 4, "noise": 0.2,
                     "target_noise": 1.5, "lag": 3, "start": "2004-06"}


@pytest.mark.parametrize("name", [f.name for f in fields(SynthSpec) if f.name != "seed"])
def test_each_synth_field_reaches_the_draw(name, tmp_path, capsys):
    value = NON_DEFAULT_SYNTH[name]
    spec = SynthSpec(**{name: value})
    assert getattr(spec, name) != getattr(SynthSpec(), name)
    option = "--" + name.replace("_", "-")
    code, _, _ = run_cli(["synth", option, str(value), "--out", str(tmp_path / "p")], capsys)
    assert code == 0
    panel, _, _ = synth_generate(spec)
    write_panel_csv(panel, str(tmp_path / "direct.csv"))
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    run = ["run", "--set", "split=2017-12", "--set", "method=kpca+kelm"]
    code, _, _ = run_cli([*run, "--set", "synth_seed=0", "--set", f"synth_{name}={value}",
                          "--out-dir", str(tmp_path / "drawn")], capsys)
    assert code == 0
    code, _, _ = run_cli([*run, "--set", f"panel={tmp_path / 'p.csv'}",
                          "--out-dir", str(tmp_path / "read")], capsys)
    assert code == 0
    drawn = (tmp_path / "drawn" / "predictions.csv").read_text().splitlines()
    read = (tmp_path / "read" / "predictions.csv").read_text().splitlines()
    assert f"# synth_{name} = {value}" in drawn
    rows = lambda lines: [ln for ln in lines if not ln.startswith("#")]
    assert len(rows(drawn)) > 2 and rows(drawn) == rows(read)


class TestRunOutputs:
    def test_naive_predictions_file(self, tmp_path, capsys):
        conf = write_config(tmp_path / "c.conf", label="nv")
        code, stdout, _ = run_cli(
            ["run", "--config", conf, "--out-dir", str(tmp_path / "out")], capsys
        )
        assert code == 0
        assert "nv: n=12" in stdout
        lines = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
        header_at = lines.index("date,actual,forecast_raw,forecast_normalized")
        rows = [ln.split(",") for ln in lines[header_at + 1 :]]
        assert [r[0] for r in rows] == [f"2018-{m:02d}" for m in range(1, 13)]

        panel, _, _ = synth_generate(SynthSpec(seed=0))
        price = panel.columns["price"]
        raw = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(raw, price[167])  # last training value, repeated
        actual = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(actual, price[168:])
        mu, sd = price[:168].mean(), price[:168].std()
        normalized = np.array([float(r[3]) for r in rows])
        np.testing.assert_allclose(normalized, (raw - mu) / sd, atol=1e-12)

    def test_metrics_file_parses_back(self, tmp_path, capsys):
        conf = write_config(tmp_path / "c.conf", label="nv")
        run_cli(["run", "--config", conf, "--out-dir", str(tmp_path / "out")], capsys)
        report = parse_report((tmp_path / "out" / "metrics.txt").read_text())
        assert report.label == "nv"
        assert report.n == 12
        assert len(report.points) == 12
        echo = dict(p.split("=", 1) for p in report.config_echo.split(";"))
        assert echo["method"] == "naive"
        assert echo["test_start"] == "2018-01"
        assert echo["test_end"] == "2018-12"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        conf = write_config(
            tmp_path / "c.conf", method="kmeans+kpca+kelm", k=3, seed=5, label="h"
        )
        run_cli(["run", "--config", conf, "--out-dir", str(tmp_path / "a")], capsys)
        run_cli(["run", "--config", conf, "--out-dir", str(tmp_path / "b")], capsys)
        for name in ("predictions.csv", "metrics.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_preamble_roundtrip_reproduces_file(self, tmp_path, capsys):
        conf = write_config(tmp_path / "c.conf", method="kelm", label="kv")
        run_cli(["run", "--config", conf, "--out-dir", str(tmp_path / "a")], capsys)
        first = (tmp_path / "a" / "predictions.csv").read_text()
        embedded = [
            ln[2:] for ln in first.splitlines() if ln.startswith("# ")
        ]
        redo = tmp_path / "redo.conf"
        redo.write_text("\n".join(embedded) + "\n")
        code, _, _ = run_cli(
            ["run", "--config", str(redo), "--out-dir", str(tmp_path / "b")], capsys
        )
        assert code == 0
        assert (tmp_path / "b" / "predictions.csv").read_text() == first

    def test_panel_file_matches_synth_source(self, tmp_path, capsys):
        run_cli(["synth", "--seed", "0", "--out", str(tmp_path / "p")], capsys)
        conf_a = write_config(tmp_path / "a.conf", method="ar", label="x")
        conf_b = write_config(
            tmp_path / "b.conf", method="ar", label="x",
            synth_seed="", panel=str(tmp_path / "p.csv"),
        )
        run_cli(["run", "--config", conf_a, "--out-dir", str(tmp_path / "ra")], capsys)
        run_cli(["run", "--config", conf_b, "--out-dir", str(tmp_path / "rb")], capsys)
        strip = lambda p: [
            ln for ln in p.read_text().splitlines() if not ln.startswith("#")
        ]
        assert strip(tmp_path / "ra" / "predictions.csv") == strip(
            tmp_path / "rb" / "predictions.csv"
        )

    def test_every_method_runs(self, tmp_path, capsys):
        for mode in ("E", "G", "H"):
            for method in cli.METHODS:
                label = f"{method}:{mode}"
                conf = write_config(
                    tmp_path / "c.conf", method=method, mode=mode, k=3, seed=5, label=label
                )
                code, stdout, err = run_cli(
                    ["run", "--config", conf, "--out-dir", str(tmp_path / mode / method)],
                    capsys,
                )
                assert code == 0, f"{label}: {err}"
                assert f"{label}: n=12" in stdout

    def test_constant_target_rejected_for_every_method(self, tmp_path, capsys):
        run_cli(["synth", "--seed", "0", "--out", str(tmp_path / "p")], capsys)
        panel = read_panel_csv(str(tmp_path / "p.csv"))
        columns = {**panel.columns, "price": np.full(panel.n_rows, 60.0)}
        write_panel_csv(FeaturePanel(dates=panel.dates, columns=columns), str(tmp_path / "p.csv"))
        for method in cli.METHODS:
            conf = write_config(
                tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv"),
                method=method, k=3,
            )
            code, _, err = run_cli(
                ["run", "--config", conf, "--out-dir", str(tmp_path / "out")], capsys
            )
            assert code == 1, f"{method}: {err}"
            assert "target is constant" in err, f"{method}: {err}"

    def test_granger_extras_recorded(self, tmp_path, capsys):
        conf = write_config(
            tmp_path / "c.conf", method="kpca+kelm", granger="true",
            p_threshold=0.5, label="g",
        )
        code, _, _ = run_cli(
            ["run", "--config", conf, "--out-dir", str(tmp_path / "out")], capsys
        )
        assert code == 0
        text = (tmp_path / "out" / "predictions.csv").read_text()
        assert "# # granger_retained = " in text

    def test_missing_tags_file(self, tmp_path, capsys):
        run_cli(["synth", "--seed", "0", "--out", str(tmp_path / "p")], capsys)
        os.remove(tmp_path / "p.tags.csv")
        conf = write_config(
            tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv")
        )
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "p.tags.csv" in err

    def test_tag_for_unknown_column_names_the_tags_file(self, tmp_path, capsys):
        run_cli(["synth", "--seed", "0", "--out", str(tmp_path / "p")], capsys)
        tags = tmp_path / "p.tags.csv"
        tags.write_text(tags.read_text() + "zz,gsvi\n")
        conf = write_config(tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv"))
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert err == f"error: {tags}: tag given for unknown column 'zz'\n"

    def test_second_target_names_its_tags_line(self, tmp_path, capsys):
        # the first indicator becomes a target too; price's row (line 32) is the second
        run_cli(["synth", "--seed", "0", "--out", str(tmp_path / "p")], capsys)
        tags = tmp_path / "p.tags.csv"
        lines = tags.read_text().splitlines()
        assert lines[1] == "f0s0,economic" and lines[31] == "price,target"
        lines[1] = "f0s0,target"
        tags.write_text("\n".join(lines) + "\n")
        conf = write_config(tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv"))
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert err == (f"error: {tags}: line 32: second target column 'price'; "
                       f"'f0s0' is already the target\n")

    def test_short_test_window_rejected(self, tmp_path, capsys):
        conf = write_config(tmp_path / "c.conf", split="2018-11")
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "at least 2" in err

    def test_lag_beyond_training_rows_rejected(self, tmp_path, capsys):
        for method in ("kpca+kelm", "kmeans+kpca+elm"):
            conf = write_config(tmp_path / "c.conf", method=method, lag=200)
            code, _, err = run_cli(
                ["run", "--config", conf, "--out-dir", str(tmp_path)], capsys
            )
            assert code == 1, f"{method}: {err}"
            assert "lag 200" in err and "168 training rows" in err, f"{method}: {err}"
            assert "stage" not in err, f"{method}: {err}"

    def test_series_count_truncating_the_elbow_named(self, tmp_path, capsys):
        panel, _, _ = synth_generate(SynthSpec(seed=7))
        names = ["f0s0", "f1s0", "price"]
        pair = FeaturePanel(dates=panel.dates, columns={n: panel.columns[n] for n in names},
                            tags={n: panel.tags[n] for n in names})
        write_panel_csv(pair, str(tmp_path / "p.csv"))
        write_tags_csv(pair.tags, str(tmp_path / "p.tags.csv"))
        conf = write_config(tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv"),
                            method="kmeans+kpca+kelm")
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1, err
        assert err == ("error: 2 indicator series leave k in [1, 2]; "
                       "the elbow needs 3 candidates; pin k\n")

    def test_narrow_k_range_rejected_before_granger(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the Granger screen ran before the k_range check")

        monkeypatch.setattr(cli, "granger_filter", unreachable)
        conf = write_config(tmp_path / "c.conf", method="kmeans+kpca+kelm", granger="true",
                            k_lo=3, k_hi=4)
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1, err
        assert err == ("error: k_lo = 3 and k_hi = 4 leave 2 k values; "
                       "the elbow needs 3 candidates; widen them or pin k\n")

    @pytest.mark.parametrize("method", ["ar", "kpca+kelm", "kmeans+kpca+kelm"])
    @pytest.mark.parametrize("k_lo, k_hi, message", [
        ("3", "4", "k_lo = 3 and k_hi = 4 leave 2 k values; the elbow needs 3 candidates; "
                   "widen them or pin k"),
        ("5", "4", "k_hi must be >= k_lo = 5, got 4"),
    ])
    def test_k_range_checked_for_every_method_before_the_panel_is_read(
            self, method, k_lo, k_hi, message, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["run", "--set", f"panel={tmp_path / 'absent.csv'}", "--set", "split=2017-12",
             "--set", f"method={method}", "--set", f"k_lo={k_lo}", "--set", f"k_hi={k_hi}",
             "--out-dir", str(out)], capsys)
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_c_whose_inverse_overflows_named_where_it_is_set(self, tmp_path, capsys):
        # 1/c overflows: the regressors' rule, checked before the panel is read
        rule = "c must be positive, with 1/c finite, got 1e-310"
        out = tmp_path / "out"
        base = ["run", "--set", f"panel={tmp_path / 'absent.csv'}", "--set", "split=2017-12",
                "--out-dir", str(out)]
        code, stdout, err = run_cli([*base, "--set", "c=1e-310"], capsys)
        assert (code, stdout, err) == (1, "", f"error: --set c: {rule}\n")
        conf = tmp_path / "c.conf"
        conf.write_text("method = kelm\nc = 1e-310\n")
        code, stdout, err = run_cli([*base, "--config", str(conf)], capsys)
        assert (code, stdout, err) == (1, "", f"error: {conf}: line 2: {rule}\n")
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "synth_seed=-1", "synth_lag=0", "synth_noise=nan", "synth_target_noise=inf",
        "synth_start=2004-13", "split=2017-13", "method=kmeans+kpca+kelmm", "mode=X",
    ])  # and c=1e-310, in test_c_whose_inverse_overflows_named_where_it_is_set
    def test_bad_value_named_by_its_key(self, setting, tmp_path, capsys):
        key = setting.partition("=")[0]
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["run", "--set", "synth_seed=0", "--set", "split=2017-12", "--set", "method=naive",
             "--set", setting, "--out-dir", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert re.fullmatch(rf"error: --set {key}: {key} must be [^\n]+\n", err)
        assert not out.exists()

    def test_missing_test_target_named(self, tmp_path, capsys):
        run_cli(["synth", "--seed", "7", "--out", str(tmp_path / "p")], capsys)
        panel = read_panel_csv(str(tmp_path / "p.csv"))
        price = panel.columns["price"].copy()
        price[panel.dates.index("2018-05")] = np.nan
        columns = {**panel.columns, "price": price}
        write_panel_csv(FeaturePanel(dates=panel.dates, columns=columns), str(tmp_path / "p.csv"))
        for method in ("naive", "kmeans+kpca+kelm"):
            conf = write_config(
                tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv"),
                method=method,
            )
            code, _, err = run_cli(
                ["run", "--config", conf, "--out-dir", str(tmp_path / "out")], capsys
            )
            assert code == 1, f"{method}: {err}"
            assert "target column 'price' is not finite at 2018-05" in err, f"{method}: {err}"
            assert not (tmp_path / "out" / "predictions.csv").exists()

    @pytest.mark.parametrize("granger", ["true", "false"])
    def test_non_finite_training_indicator_named(self, granger, tmp_path, capsys):
        run_cli(["synth", "--seed", "7", "--out", str(tmp_path / "p")], capsys)
        panel = read_panel_csv(str(tmp_path / "p.csv"))
        series = panel.columns["f0s3"].copy()
        series[panel.dates.index("2007-04")] = np.nan
        columns = {**panel.columns, "f0s3": series}
        write_panel_csv(FeaturePanel(dates=panel.dates, columns=columns), str(tmp_path / "p.csv"))
        conf = write_config(
            tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv"),
            method="kmeans+kpca+kelm", granger=granger,
        )
        code, _, err = run_cli(
            ["run", "--config", conf, "--out-dir", str(tmp_path / "out")], capsys
        )
        assert code == 1, err
        assert err == "error: column 'f0s3' is not finite at 2007-04\n"

    def test_calendar_gap_rejected(self, tmp_path, capsys):
        run_cli(["synth", "--seed", "7", "--out", str(tmp_path / "p")], capsys)
        lines = (tmp_path / "p.csv").read_text().splitlines(keepends=True)
        (tmp_path / "p.csv").write_text(
            "".join(ln for ln in lines if not ln.startswith("2008-02,"))
        )
        conf = write_config(
            tmp_path / "c.conf", synth_seed="", panel=str(tmp_path / "p.csv"),
            method="kmeans+kpca+kelm",
        )
        code, _, err = run_cli(
            ["run", "--config", conf, "--out-dir", str(tmp_path / "out")], capsys
        )
        assert code == 1, err
        assert err == ("error: months jump from 2008-01 to 2008-03; "
                       "run needs consecutive months\n")
        assert not (tmp_path / "out" / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "method, key, value, rule",
        [
            ("ar", "k", "0", ">= 1"),
            ("ar", "c", "-1", "positive, with 1/c finite"),
            ("ar", "sigma", "nan", "positive, with 2 sigma^2 finite and non-zero"),
            ("ar", "theta", "nan", "in (0, 1]"),
            ("ar", "n_components", "0", ">= 1"),
            ("ar", "seed", "-1", ">= 0"),
            ("elm", "k", "0", ">= 1"),
            ("elm", "sigma", "-1", "positive, with 2 sigma^2 finite and non-zero"),
            ("elm", "lag", "0", ">= 1"),
        ],
    )
    def test_bad_value_of_an_unused_key_rejected(self, method, key, value, rule, tmp_path,
                                                 capsys):
        conf = write_config(tmp_path / "c.conf", method=method, **{key: value})
        out = tmp_path / "out"
        code, stdout, err = run_cli(["run", "--config", conf, "--out-dir", str(out)], capsys)
        shown = repr(float(value)) if key in ("c", "sigma", "theta") else value
        assert (code, stdout) == (1, "")
        # the file is written in key order: synth_seed, split, method, label, then the key
        assert err == f"error: {conf}: line 5: {key} must be {rule}, got {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method, value", [("kelm", "1e200"), ("kmeans+kpca+kelm", "1e200"),
                                               ("kelm", "1e-300")])
    def test_sigma_whose_kernel_scale_is_not_finite_rejected(self, method, value, tmp_path,
                                                             capsys):
        # 2 sigma^2 overflows to inf or underflows to 0; the panel named is
        # never read, because the rule is checked first
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["run", "--set", f"panel={tmp_path / 'absent.csv'}", "--set", "split=2017-12",
             "--set", f"method={method}", "--set", f"sigma={value}", "--out-dir", str(out)],
            capsys)
        assert (code, stdout) == (1, "")
        assert err == (f"error: --set sigma: sigma must be positive, with 2 sigma^2 finite and "
                       f"non-zero, got {float(value)!r}\n")
        assert not out.exists()

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        conf = write_config(tmp_path / "c.conf", mode="X")
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "mode" in err


# Runs three methods in-process and prints, as one JSON line, the OpenBLAS
# thread counts outside any call and the sha256 of each output file.
THREAD_CHILD = """
import hashlib, json, os, sys
from oilcast import cli, numerics
panel, out = sys.argv[1:]
report = {"threads": [get() for get, _ in numerics._openblas_controls()], "sha256": {}}
for method in ("kmeans+kpca+kelm", "kpca+elm", "kelm"):
    target = os.path.join(out, method)
    code = cli.main(["run", "--out-dir", target, "--set", f"panel={panel}",
                     "--set", "split=2017-12", "--set", "granger=true",
                     "--set", "p_threshold=0.3", "--set", f"method={method}"])
    for name in ("predictions.csv", "metrics.txt"):
        with open(os.path.join(target, name), "rb") as fh:
            report["sha256"][f"{method}/{name}"] = (code, hashlib.sha256(fh.read()).hexdigest())
print(json.dumps(report))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, capsys):
    assert run_cli(["synth", "--seed", "7", "--out", str(tmp_path / "panel")], capsys)[0] == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    children = {}
    for threads in ("1", "2"):  # never more than 2
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        children[threads] = subprocess.Popen(
            [sys.executable, "-c", THREAD_CHILD, str(tmp_path / "panel.csv"),
             str(tmp_path / f"out-{threads}")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    reports = {}
    try:
        for threads, child in children.items():
            stdout, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr
            reports[threads] = json.loads(stdout.splitlines()[-1])
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.communicate()
    if not reports["1"]["threads"]:
        pytest.skip("no OpenBLAS is loaded, so the thread count cannot be varied")
    if max(reports["2"]["threads"]) < 2:
        pytest.skip("OpenBLAS runs 1 thread even when asked for 2 (a 1-core host)")
    assert reports["1"]["sha256"] == reports["2"]["sha256"]
    assert {code for code, _ in reports["1"]["sha256"].values()} == {0}


def test_the_cli_runs_without_loading_scipy(tmp_path):
    # a fresh process: the hybrid (elbow, KPCA eigenpairs, KELM's Cholesky)
    # and kpca+elm (the ELM sigmoid), each behind the Granger screen's F tail
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = (
        "import contextlib, io, sys\n"
        "import oilcast.cli\n"
        "for method in ('kmeans+kpca+kelm', 'kpca+elm'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = oilcast.cli.main(['run', '--out-dir', sys.argv[1] + '/' + method,\n"
        "                                 '--set', 'synth_seed=0', '--set', 'split=2017-12',\n"
        "                                 '--set', 'granger=true', '--set', 'method=' + method])\n"
        "    assert code == 0, method\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    child = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
    assert (tmp_path / "kmeans+kpca+kelm" / "predictions.csv").exists()
    assert (tmp_path / "kpca+elm" / "predictions.csv").exists()


def test_importing_the_cli_loads_no_hashlib():
    # the kept parses are keyed by Python's own hash of the files' bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, oilcast.cli; print('hashlib' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", probe],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"


PANEL_ROWS = 30
PANEL_NAMES = ("a", "b", "price")
TAG_ROWS = ("a,economic", "b,gsvi", "price,target")


# corruption kind -> the first logical line it may hit (0 is the header, which
# a header corruption always hits)
PANEL_KINDS = {"header": 0, "cell_count": 1, "date": 1, "date_order": 2, "cell": 1}
TAG_KINDS = {"header": 0, "cell_count": 1, "tag": 1, "duplicate": 2}


def _panel_lines() -> list[str]:
    rng = np.random.default_rng(0)
    return [",".join(("date",) + PANEL_NAMES)] + [
        ",".join([date, *map(repr, rng.standard_normal(len(PANEL_NAMES)).tolist())])
        for date in month_range("2004-01", PANEL_ROWS)
    ]


def _corrupt_panel(lines: list[str], kind: str, row: int, data) -> None:
    """Make one logical line of a valid panel CSV malformed; row 0 is the header."""
    cells = lines[row].split(",")
    if kind == "header":  # a first column other than date, or a repeated name
        at, name = data.draw(st.sampled_from([(0, "month"), (2, "a")]))
        cells[at] = name
    elif kind == "cell_count":
        cells = cells[:-1] if data.draw(st.booleans()) else cells + ["1.0"]
    elif kind == "date":
        cells[0] = data.draw(st.sampled_from(["2004-13", "2004/01", "", "04-01", "2004-1"]))
    elif kind == "date_order":
        cells[0] = lines[row - 1].split(",")[0]
    else:  # a cell that is neither a number nor empty
        cells[data.draw(st.integers(1, len(PANEL_NAMES)))] = data.draw(
            st.sampled_from(["oops", "1.2.3", "--1", "1e", "0x10", "n a n"]))
    lines[row] = ",".join(cells)


def _corrupt_tags(lines: list[str], kind: str, row: int) -> None:
    """Make one logical line of a valid tags CSV malformed; row 0 is the header."""
    name = lines[row].split(",")[0]
    lines[row] = {"header": "name,kind", "cell_count": f"{name},gsvi,x",
                  "tag": f"{name},bogus", "duplicate": "a,gsvi"}[kind]


def _with_noise(lines: list[str], noise: dict[int, str]) -> tuple[str, list[int]]:
    """Put comment or blank lines before the logical lines in ``noise``; returns
    the text and each logical line's physical number."""
    out, numbers = [], []
    for i, line in enumerate(lines):
        if i in noise:
            out.append(noise[i])
        out.append(line)
        numbers.append(len(out))
    return "\n".join(out) + "\n", numbers


class TestMalformedInputProperty:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_line_error_naming_file_and_line(self, tmp_path_factory, data):
        """A malformed panel or tags line ends `run` with exit 1 and one
        `error: <path>: line N: ...` line, never a traceback or exit 2."""
        work = tmp_path_factory.mktemp("malformed")
        panel_lines, tag_lines = _panel_lines(), ["name,tag", *TAG_ROWS]
        in_tags = data.draw(st.booleans())
        kinds, last = (TAG_KINDS, len(TAG_ROWS)) if in_tags else (PANEL_KINDS, PANEL_ROWS)
        kind = data.draw(st.sampled_from(list(kinds)))
        row = 0 if kind == "header" else data.draw(st.integers(kinds[kind], last))
        if in_tags:
            _corrupt_tags(tag_lines, kind, row)
        else:
            _corrupt_panel(panel_lines, kind, row, data)
        noise = st.dictionaries(st.integers(0, PANEL_ROWS), st.sampled_from(["# note", "", "  "]),
                                max_size=4)
        panel_text, panel_numbers = _with_noise(panel_lines, data.draw(noise))
        tags_text, tag_numbers = _with_noise(tag_lines, data.draw(noise))
        panel_path, tags_path = str(work / "p.csv"), str(work / "p.tags.csv")
        with open(panel_path, "w", encoding="utf-8") as fh:
            fh.write(panel_text)
        with open(tags_path, "w", encoding="utf-8") as fh:
            fh.write(tags_text)

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--set", f"panel={panel_path}", "--set", "split=2005-06",
                         "--set", "method=naive", "--out-dir", str(work / "out")])
        path, line = (tags_path, tag_numbers[row]) if in_tags else (panel_path,
                                                                    panel_numbers[row])
        assert (code, out.getvalue()) == (1, "")
        assert re.fullmatch(rf"error: {re.escape(path)}: line {line}: [^\n]+\n", err.getvalue())
        assert not (work / "out").exists()



def quiet_main(argv):
    """``main(argv)`` with its stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_args(method, label, out_dir):
    return ["run", "--set", "synth_seed=0", "--set", "split=2017-12", "--set", f"method={method}",
            "--set", f"label={label}", "--out-dir", str(out_dir)]


BAD_MONTHS = st.sampled_from(["2004-13", "2004-00", "2004-1", "04-01", "2004/01", ""])
BAD_NOISE = st.sampled_from(["-0.1", "nan", "inf", "-inf"])

# key -> values that break its rule
BAD_RULE_VALUES = {
    **dict.fromkeys(("k", "k_lo", "k_hi", "n_components", "n_hidden", "lag", "max_lag",
                     "ar_max_p", "uni_lags", "synth_factors", "synth_lag"),
                    st.integers(-5, 0).map(str)),
    **dict.fromkeys(("seed", "synth_seed"), st.integers(-5, -1).map(str)),
    "synth_months": st.integers(-5, 35).map(str),
    "synth_series_per_factor": st.integers(-5, 1).map(str),
    **dict.fromkeys(("synth_noise", "synth_target_noise"), BAD_NOISE),
    **dict.fromkeys(("synth_start", "split"), BAD_MONTHS),
    "mode": st.sampled_from(["X", "h", "EG", ""]),
    "method": st.sampled_from(["kmeans+kpca+kelmm", "KELM", "svm", ""]),
    "theta": st.sampled_from(["0", "-0.5", "1.5", "nan", "inf"]),
    "sigma": st.sampled_from(["0", "-1", "1e200", "1e-300", "nan", "inf"]),
    "c": st.sampled_from(["0", "-1", "inf", "nan", "1e-310"]),
    "p_threshold": st.sampled_from(["0", "1", "-0.1", "nan"]),
    "ar_d": st.sampled_from(["2", "-1"]),
    "ar_criterion": st.sampled_from(["hqic", "x", ""]),
}

# one malformed config line of each kind, as bytes
MALFORMED_CONFIG_LINES = st.one_of(
    st.sampled_from([b"k 3", b"split", b"method: ar"]),  # no '='
    st.sampled_from([b"colour = red", b"K = 3", b"= 3"]),  # unknown key
    st.sampled_from([b"k = three", b"c = fast", b"granger = maybe", b"seed = 1.5"]),  # no parse
    st.sampled_from([b"label = caf\xe9", b"\xff = 1"]),  # not UTF-8
    st.sampled_from(sorted(BAD_RULE_VALUES)).flatmap(  # out of range
        lambda key: BAD_RULE_VALUES[key].map(lambda value: f"{key} = {value}".encode())),
)


class TestMalformedConfigProperty:
    def test_every_rule_has_bad_values(self):
        assert set(BAD_RULE_VALUES) == set(cli.KEY_RULES)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bad=MALFORMED_CONFIG_LINES, at=st.integers(0, 4),
           noise=st.dictionaries(st.integers(0, 4), st.sampled_from([b"# note", b"", b"  "]),
                                 max_size=3))
    def test_one_line_error_naming_file_and_line(self, tmp_path_factory, bad, at, noise):
        """A malformed config line ends `run` with exit 1 and one
        `error: <path>: line N: ...` line, never a traceback or exit 2."""
        lines = [b"synth_seed = 0", b"split = 2017-12", b"method = naive", b"label = base"]
        lines.insert(at, bad)
        text, numbers = [], []
        for i, line in enumerate(lines):
            if i in noise:
                text.append(noise[i])
            text.append(line)
            numbers.append(len(text))
        work = tmp_path_factory.mktemp("config")
        path = work / "c.conf"
        path.write_bytes(b"\n".join(text) + b"\n")
        code, out, err = quiet_main(["run", "--config", str(path), "--out-dir", str(work / "out")])
        assert (code, out) == (1, "")
        assert re.fullmatch(rf"error: {re.escape(str(path))}: line {numbers[at]}: [^\n]+\n", err)
        assert not (work / "out").exists()


PANEL_TEXT = "\n".join(_panel_lines()) + "\n"
RUN_PANEL = ["run", "--set", "panel={d}/p.csv", "--set", "split=2005-12", "--out-dir", "{d}/out"]


def _tags_text(*rows: str) -> str:
    return "\n".join(("name,tag",) + rows) + "\n"


def _report_text(header: str) -> str:
    """A valid report whose per-point header is ``header``."""
    text = format_report(evaluate([1.0, 2.0], [1.5, 2.5], label="x"))
    return text.replace(f"\n{_POINTS_HEADER}\n", f"\n{header}\n")


# case -> (files by name, arguments, the one stderr line after "error: ");
# "{d}" stands for the case's directory. Every case exits 1.
ONE_LINE_ERRORS = {
    "unreadable config": (
        {}, ["run", "--config", "{d}/none.conf"],
        "cannot read config {d}/none.conf: [Errno 2] No such file or directory: '{d}/none.conf'"),
    "--set without =": ({}, ["run", "--set", "split"], "--set 'split': expected key=value"),
    "untagged column": (
        {"p.csv": PANEL_TEXT, "p.tags.csv": _tags_text("a,economic", "price,target")}, RUN_PANEL,
        "{d}/p.tags.csv: no tag for columns ['b']"),
    "no target column": (
        {"p.csv": PANEL_TEXT, "p.tags.csv": _tags_text("a,economic", "b,gsvi", "price,gsvi")},
        RUN_PANEL, "{d}/p.tags.csv: panel has no target column"),
    "uni_lags beyond the training rows": (
        {"p.csv": PANEL_TEXT, "p.tags.csv": _tags_text(*TAG_ROWS)},
        [*RUN_PANEL, "--set", "split=2004-12", "--set", "method=kelm"],
        "uni_lags=12 needs more than 13 training rows"),
    "no indicator of the mode": (
        {"p.csv": PANEL_TEXT, "p.tags.csv": _tags_text("a,gsvi", "b,gsvi", "price,target")},
        [*RUN_PANEL, "--set", "mode=E"], "no indicator columns for mode E"),
    "granger retains nothing": (
        {"p.csv": PANEL_TEXT, "p.tags.csv": _tags_text(*TAG_ROWS)},
        [*RUN_PANEL, "--set", "granger=true", "--set", "p_threshold=1e-12"],
        "granger filter retained no indicator columns"),
    "empty panel file": ({"p.csv": "# only a comment\n"}, RUN_PANEL, "{d}/p.csv: empty file"),
    "panel without data columns": (
        {"p.csv": "date\n2004-01\n"}, RUN_PANEL, "{d}/p.csv: line 1: no data columns"),
    "panel without data rows": ({"p.csv": "date,a\n"}, RUN_PANEL, "{d}/p.csv: no data rows"),
    "ingest of rows all missing": (
        {"a.csv": "date,a\n2004-01,\n2004-02,\n",
         "t.csv": "date,price\n2004-01,1.0\n2004-02,2.0\n"},
        ["ingest", "--economic", "{d}/a.csv", "--target", "{d}/t.csv", "--out", "{d}/o"],
        "all joined rows contain missing values"),
    "compare of a malformed report line": (
        {"r1.txt": "junk\n", "r2.txt": _report_text(_POINTS_HEADER)},
        ["compare", "{d}/r1.txt", "{d}/r2.txt", "--out", "{d}/ir.csv"],
        "{d}/r1.txt: malformed report line 1: 'junk'"),
    "compare of a bad per-point header": (
        {"r1.txt": _report_text("t,y"), "r2.txt": _report_text(_POINTS_HEADER)},
        ["compare", "{d}/r1.txt", "{d}/r2.txt", "--out", "{d}/ir.csv"],
        f"{{d}}/r1.txt: expected per-point header {_POINTS_HEADER!r}, got 't,y'"),
}


@pytest.mark.parametrize("case", ONE_LINE_ERRORS)
def test_each_one_line_error(case, tmp_path, capsys):
    files, argv, message = ONE_LINE_ERRORS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli([arg.replace("{d}", str(tmp_path)) for arg in argv], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message.replace('{d}', str(tmp_path))}\n"


SERIES = np.sin(np.arange(60.0) / 3.0)
ROWS = np.column_stack([SERIES, np.cos(np.arange(60.0) / 3.0)])
SMALL_PANEL = FeaturePanel(dates=month_range("2004-01", 60),
                           columns={"x": ROWS[:, 1], "price": SERIES},
                           tags={"x": "economic", "price": "target"})

# key -> (the rule table of the module that uses the value, the value's name
# there, a library call that takes the value); `method` is the CLI's own
OWNERS = {
    **{f"synth_{name}": (SYNTH_RULES, name, lambda v, name=name: SynthSpec(**{name: v}))
       for name in SYNTH_RULES},
    "split": (PANEL_RULES, "month", lambda v: train_test_split(SMALL_PANEL, v)),
    "mode": (PANEL_RULES, "mode", SMALL_PANEL.indicator_names),
    "k": (pipeline.RULES, "k", lambda v: PipelineConfig(k=v)),
    "k_lo": (pipeline.RULES, "k_lo", lambda v: PipelineConfig(k_range=(v, 8))),
    "k_hi": (pipeline.RULES, "k_hi", lambda v: PipelineConfig(k_range=(1, v))),
    "lag": (pipeline.RULES, "lag", lambda v: PipelineConfig(lag=v)),
    "seed": (pipeline.RULES, "seed", lambda v: PipelineConfig(seed=v)),
    "max_lag": (pipeline.RULES, "max_lag", lambda v: granger_filter(SMALL_PANEL, ["x"], max_lag=v)),
    "p_threshold": (pipeline.RULES, "p_threshold",
                    lambda v: granger_filter(SMALL_PANEL, ["x"], p_threshold=v)),
    "n_components": (kpca.RULES, "n_components", lambda v: kpca_fit(ROWS, n_components=v)),
    "theta": (kpca.RULES, "theta", lambda v: kpca_fit(ROWS, theta=v)),
    "sigma": (kpca.RULES, "sigma",
              lambda v: kelm_fit(ROWS, SERIES, kernel=kpca.GaussianKernel(v))),
    "c": (regressors.RULES, "c", lambda v: elm_fit(ROWS, SERIES, c=v)),
    "n_hidden": (regressors.RULES, "n_hidden", lambda v: elm_fit(ROWS, SERIES, n_hidden=v)),
    "ar_max_p": (baselines.RULES, "max_p", lambda v: ar_fit(SERIES, max_p=v)),
    "ar_d": (baselines.RULES, "d", lambda v: ar_fit(SERIES, d=v)),
    "ar_criterion": (baselines.RULES, "criterion", lambda v: ar_fit(SERIES, criterion=v)),
    "uni_lags": (baselines.RULES, "lags", lambda v: univariate_lag_features(SERIES, lags=v)),
}


class TestOneRulePerKey:
    def test_each_key_checks_the_rule_of_the_module_that_uses_it(self):
        assert set(OWNERS) == set(cli.KEY_RULES) - {"method"}
        for key, (rules, name, _) in OWNERS.items():
            assert cli.KEY_RULES[key] is rules[name], key

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_library_and_cli_reject_a_bad_value_in_the_same_words(self, data):
        key = data.draw(st.sampled_from(sorted(OWNERS)))
        raw = data.draw(BAD_RULE_VALUES[key])
        rules, name, call = OWNERS[key]
        value = CONFIG_KEYS[key][0](raw)
        rule = rules[name][1]
        with pytest.raises(ValueError) as raised:
            call(value)
        assert str(raised.value) == f"{name} must be {rule}, got {value!r}"
        code, out, err = quiet_main(["run", "--set", f"{key}={raw}"])
        assert (code, out) == (1, "")
        assert err == f"error: --set {key}: {key} must be {rule}, got {value!r}\n"


class TestPreambleRoundTripProperty:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_valid_config_reruns_from_its_preamble(self, tmp_path_factory, data):
        """A run of any config whose values keep their rules writes a preamble
        that, stripped of '# ', re-runs to the same bytes."""
        def draw(key, values):  # the drawn values that the key's own rule accepts
            return data.draw(values.filter(cli.KEY_RULES[key][0]), label=key)

        pinned_k = st.integers(-1, 3).filter(cli.KEY_RULES["k"][0])
        config = {"synth_seed": 0, "split": "2017-12",
                  "method": data.draw(st.sampled_from(cli.METHODS), label="method"),
                  "mode": draw("mode", st.sampled_from(["E", "G", "H", "X"])),
                  "k": data.draw(st.none() | pinned_k, label="k")}
        if config["k"] is None:  # the elbow needs 3 candidates
            config["k_lo"] = draw("k_lo", st.integers(0, 3))
            config["k_hi"] = draw("k_hi", st.integers(config["k_lo"] + 2, 8))
        if data.draw(st.booleans(), label="fixed count"):
            config["n_components"] = draw("n_components", st.integers(0, 3))
        else:
            config["theta"] = draw("theta", st.floats(0.5, 1.0))
        config.update(
            sigma=data.draw(st.none() | st.sampled_from([0.3, 1.0, 3.0]), label="sigma"),
            c=draw("c", st.floats(0.0, 1e4)), n_hidden=draw("n_hidden", st.integers(-1, 60)),
            lag=draw("lag", st.integers(0, 3)), seed=draw("seed", st.integers(-1, 1000)),
            granger=data.draw(st.booleans(), label="granger"),
            max_lag=draw("max_lag", st.integers(0, 3)),
            p_threshold=draw("p_threshold", st.floats(0.3, 1.0)),
            ar_d=draw("ar_d", st.integers(-1, 2)), ar_max_p=draw("ar_max_p", st.integers(0, 12)),
            ar_criterion=draw("ar_criterion", st.sampled_from(["aic", "sc", "AIC", "bic"])),
            uni_lags=draw("uni_lags", st.integers(0, 12)))
        work = tmp_path_factory.mktemp("roundtrip")
        (work / "c.conf").write_text("".join(f"{key} = {cli._echo_value(value)}\n"
                                             for key, value in config.items()))
        first = quiet_main(["run", "--config", str(work / "c.conf"),
                            "--out-dir", str(work / "first")])
        assert first[0] == 0, first  # stderr may hold a warning, such as a flat elbow curve
        predictions = (work / "first" / "predictions.csv").read_bytes()
        (work / "redo.conf").write_bytes(
            b"".join(ln[2:] + b"\n" for ln in predictions.split(b"\n") if ln.startswith(b"# ")))
        redo = quiet_main(["run", "--config", str(work / "redo.conf"),
                           "--out-dir", str(work / "redo")])
        assert redo == first
        for name in ("predictions.csv", "metrics.txt"):
            assert (work / "redo" / name).read_bytes() == (work / "first" / name).read_bytes()


# what a --set value can hold: any text without a line break or a lone surrogate
LABELS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"),
                 max_size=12)


# the methods whose forecasts read no target of the test window; the
# univariate elm and kelm take their lags from it
LEAK_FREE_METHODS = tuple(method for method in cli.METHODS if method not in ("elm", "kelm"))


def forecast_columns(predictions):
    """The actual and forecast_raw cells of a predictions.csv, as written."""
    lines = predictions.read_text().splitlines()
    rows = [row.split(",") for row in
            lines[lines.index("date,actual,forecast_raw,forecast_normalized") + 1:]]
    return [row[1] for row in rows], [row[2] for row in rows]


class TestNoLeakageProperty:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), months=st.integers(48, 96), n_test=st.integers(2, 12),
           method=st.sampled_from(LEAK_FREE_METHODS), mode=st.sampled_from(["E", "G", "H"]),
           data=st.data())
    def test_other_test_window_targets_leave_the_forecasts_unchanged(
            self, tmp_path_factory, seed, months, n_test, method, mode, data):
        panel, _, _ = synth_generate(SynthSpec(seed=seed, months=months))
        n_train = months - n_test
        others = data.draw(st.lists(st.floats(-1e6, 1e6).filter(bool), min_size=n_test,
                                    max_size=n_test), label="test-window targets")
        y = np.array(panel.columns[panel.target_name])
        y[n_train:] = others
        changed = FeaturePanel(panel.dates, {**panel.columns, panel.target_name: y}, panel.tags)
        work = tmp_path_factory.mktemp("leakage")
        columns = []
        for name, source in (("same", panel), ("other", changed)):
            write_panel_csv(source, str(work / f"{name}.csv"))
            write_tags_csv(source.tags, str(work / f"{name}.tags.csv"))
            code, _, err = quiet_main(
                ["run", "--set", f"panel={work / name}.csv", "--set",
                 f"split={panel.dates[n_train - 1]}", "--set", f"method={method}",
                 "--set", f"mode={mode}", "--out-dir", str(work / name)])
            assert code == 0, err
            columns.append(forecast_columns(work / name / "predictions.csv"))
        (_, forecasts), (actual, other_forecasts) = columns
        assert actual == [repr(float(v)) for v in others]  # the run read the other targets
        assert other_forecasts == forecasts


class TestTextInput:
    """Config, panel, tags and report files are decoded by one rule."""

    @pytest.mark.parametrize("name", ["c.conf", "p.csv", "p.tags.csv"])
    def test_byte_order_mark_is_skipped(self, name, tmp_path, capsys):
        run_cli(["synth", "--seed", "0", "--out", str(tmp_path / "p")], capsys)
        (tmp_path / "c.conf").write_text(f"panel = {tmp_path / 'p.csv'}\nsplit = 2017-12\n"
                                         f"method = ar\n")
        argv = ["run", "--config", str(tmp_path / "c.conf"), "--out-dir", str(tmp_path / "plain")]
        assert run_cli(argv, capsys)[0] == 0
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        argv[-1] = str(tmp_path / "bom")
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        for output in ("predictions.csv", "metrics.txt"):
            assert (tmp_path / "bom" / output).read_bytes() == (tmp_path / "plain" / output).read_bytes()

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
    def test_line_break_in_a_set_value_rejected(self, brk, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run_cli(run_args("naive", f"a{brk}b", out), capsys)
        assert (code, stdout) == (1, "")
        assert err == "error: --set label: value for 'label' holds a line break\n"
        assert not out.exists()

    @pytest.mark.parametrize("item, error", [
        (b"label=a\xffb", b"--set label: value for 'label' is not valid UTF-8"),
        (b"la\xffbel=a", b"--set la\\udcffbel: unknown config key 'la\\udcffbel'"),
    ], ids=["value", "key"])
    def test_set_text_that_utf8_cannot_encode_rejected(self, item, error, tmp_path):
        # Python decodes argv with surrogateescape, so 0xff arrives as '\udcff';
        # the missing panel shows that the error comes before any data is read
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        out = tmp_path / "out"
        child = subprocess.run(
            [sys.executable, "-m", "oilcast.cli", "run", "--set", f"panel={tmp_path / 'none.csv'}",
             "--set", "split=2017-12", "--set", item, "--out-dir", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)
        assert (child.returncode, child.stdout) == (1, b"")
        assert child.stderr == b"error: " + error + b"\n"
        assert not out.exists()

    @pytest.mark.parametrize("mark", ["\u2028", "\x0c", "\x85"], ids=["U+2028", "FF", "NEL"])
    def test_label_holding_a_unicode_line_break_compares(self, mark, tmp_path, capsys):
        label = f"a{mark}b"
        for method in ("ar", "naive"):
            assert run_cli(run_args(method, label, tmp_path / method), capsys)[0] == 0
        code, stdout, err = run_cli(["compare", str(tmp_path / "ar" / "metrics.txt"),
                                     str(tmp_path / "naive" / "metrics.txt"),
                                     "--out", str(tmp_path / "ir.csv")], capsys)
        assert (code, err) == (0, "")
        assert stdout.split("\n")[1].startswith(f"{label} vs {label},")
        predictions = (tmp_path / "ar" / "predictions.csv").read_text(encoding="utf-8")
        assert f"\n# label = {label}\n# " in predictions  # one preamble line

    def test_non_utf8_report_named_by_file_and_line(self, tmp_path, capsys):
        good = write_report(tmp_path / "a.txt", "m1", 5.0, 2.0, 75.0)
        bad = tmp_path / "m.txt"
        write_report(bad, "m2", 5.0, 2.0, 75.0)
        bad.write_bytes(bad.read_bytes().replace(b"mae = 1.0", b"mae = 1.0\xff"))
        code, out, err = run_cli(["compare", good, str(bad), "--out", str(tmp_path / "o.csv")],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: line 5: not valid UTF-8\n"

    @settings(max_examples=10, deadline=None)
    @given(label=LABELS)
    @example(label="x;method=naive")  # a ';' in the echo once overrode the method
    def test_any_label_reruns_from_its_preamble_and_compares(self, tmp_path_factory, label):
        """Stripping '# ' from predictions.csv gives a config that re-runs to the
        same bytes, and compare reads the report back, whatever the label."""
        work = tmp_path_factory.mktemp("label")
        for method in ("ar", "naive"):
            code, _, err = quiet_main(run_args(method, label, work / method))
            assert (code, err) == (0, "")
        first = (work / "ar" / "predictions.csv").read_bytes()
        (work / "redo.conf").write_bytes(
            b"".join(ln[2:] + b"\n" for ln in first.split(b"\n") if ln.startswith(b"# ")))
        code, _, err = quiet_main(["run", "--config", str(work / "redo.conf"),
                                   "--out-dir", str(work / "redo")])
        assert (code, err) == (0, "")
        assert (work / "redo" / "predictions.csv").read_bytes() == first

        code, stdout, err = quiet_main(["compare", str(work / "ar" / "metrics.txt"),
                                        str(work / "naive" / "metrics.txt"),
                                        "--out", str(work / "ir.csv")])
        assert (code, err) == (0, "")
        shown = label.strip()
        pair = (f"{shown} vs {shown}" if shown else "ar:H vs naive:H")
        assert stdout.split("\n")[1].startswith(f"{pair},")

    def test_panel_path_holding_a_semicolon_compares(self, tmp_path, capsys):
        folder = tmp_path / "x;method=naive\\"
        folder.mkdir()
        run_cli(["synth", "--seed", "0", "--out", str(folder / "p")], capsys)
        for method in ("ar", "naive"):
            code, _, err = run_cli(["run", "--set", f"panel={folder / 'p.csv'}", "--set",
                                    "split=2017-12", "--set", f"method={method}", "--out-dir",
                                    str(tmp_path / method)], capsys)
            assert (code, err) == (0, "")
        code, stdout, err = run_cli(["compare", str(tmp_path / "ar" / "metrics.txt"),
                                     str(tmp_path / "naive" / "metrics.txt"),
                                     "--out", str(tmp_path / "ir.csv")], capsys)
        assert (code, err) == (0, "")
        assert stdout.split("\n")[1].startswith("ar:H vs naive:H,")
        report = parse_report((tmp_path / "ar" / "metrics.txt").read_text(encoding="utf-8"))
        assert cli._echo_fields(report)["panel"] == str(folder / "p.csv")


def write_report(path, label, mape, rmse, da, n=12, echo="src=test"):
    path.write_text(
        f"label = {label}\nn = {n}\nmape_pct = {mape!r}\nrmse = {rmse!r}\n"
        f"mae = 1.0\nda_pct = {da!r}\nconfig_echo = {echo}\n"
    )
    return str(path)


class TestCompare:
    def test_identical_reports_zero_row(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", "m1", 5.0, 2.0, 75.0)
        b = write_report(tmp_path / "b.txt", "m2", 5.0, 2.0, 75.0)
        out = tmp_path / "ir.csv"
        code, stdout, _ = run_cli(["compare", a, b, "--out", str(out)], capsys)
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "pair,ir_mape_pct,ir_rmse_pct,ir_da_pct"
        pair, *values = rows[1].split(",")
        assert pair == "m1 vs m2"
        assert all(float(v) == 0.0 for v in values)
        assert stdout.strip().splitlines() == rows

    def test_known_improvement_rate(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", "better", 5.44, 2.0, 80.0)
        b = write_report(tmp_path / "b.txt", "worse", 8.09, 4.0, 60.0)
        out = tmp_path / "ir.csv"
        code, _, _ = run_cli(["compare", a, b, "--out", str(out)], capsys)
        assert code == 0
        values = out.read_text().splitlines()[1].split(",")
        assert abs(float(values[1]) - 32.76) < 0.01
        assert abs(float(values[2]) - 50.0) < 1e-9
        assert abs(float(values[3]) - 33.3333) < 0.001

    def test_order_flips_sign(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", "better", 5.44, 2.0, 80.0)
        b = write_report(tmp_path / "b.txt", "worse", 8.09, 4.0, 60.0)
        out = tmp_path / "ir.csv"
        run_cli(["compare", b, a, "--out", str(out)], capsys)
        values = out.read_text().splitlines()[1].split(",")
        assert float(values[1]) < 0 and float(values[2]) < 0 and float(values[3]) < 0

    def test_single_report_rejected(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", "m", 5.0, 2.0, 75.0)
        code, _, err = run_cli(["compare", a, "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 1
        assert "two report" in err

    def test_odd_count_rejected(self, tmp_path, capsys):
        paths = [
            write_report(tmp_path / f"{i}.txt", f"m{i}", 5.0, 2.0, 75.0) for i in range(3)
        ]
        code, _, err = run_cli(["compare", *paths, "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 1
        assert "even" in err

    def test_mismatched_windows_rejected(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", "m1", 5.0, 2.0, 75.0, n=12)
        b = write_report(tmp_path / "b.txt", "m2", 5.0, 2.0, 75.0, n=24)
        code, _, err = run_cli(["compare", a, b, "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 1
        assert "incompatible test windows" in err

    def test_window_dates_compared_when_present(self, tmp_path, capsys):
        a = write_report(
            tmp_path / "a.txt", "m1", 5.0, 2.0, 75.0,
            echo="test_start=2018-01;test_end=2018-12",
        )
        b = write_report(
            tmp_path / "b.txt", "m2", 5.0, 2.0, 75.0,
            echo="test_start=2017-01;test_end=2017-12",
        )
        code, _, err = run_cli(["compare", a, b, "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 1
        assert "incompatible test windows" in err

    def test_dataset_pairs_validates_modes(self, tmp_path, capsys):
        a = write_report(
            tmp_path / "a.txt", "kelm:E", 5.0, 2.0, 75.0, echo="method=kelm;mode=E"
        )
        b = write_report(
            tmp_path / "b.txt", "kelm:G", 6.0, 3.0, 70.0, echo="method=kelm;mode=G"
        )
        code, _, _ = run_cli(
            ["compare", a, b, "--pairing", "dataset-pairs", "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 0
        code, _, err = run_cli(
            ["compare", a, b, "--pairing", "method-pairs", "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 1
        assert "method-pairs expects" in err

    def test_method_pairs_validates_methods(self, tmp_path, capsys):
        a = write_report(
            tmp_path / "a.txt", "h:H", 5.0, 2.0, 75.0, echo="method=kmeans+kpca+kelm;mode=H"
        )
        b = write_report(
            tmp_path / "b.txt", "n:H", 9.0, 4.0, 50.0, echo="method=naive;mode=H"
        )
        code, _, _ = run_cli(
            ["compare", a, b, "--pairing", "method-pairs", "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 0
        code, _, err = run_cli(
            ["compare", a, b, "--pairing", "dataset-pairs", "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 1
        assert "dataset-pairs expects" in err

    def test_zero_reference_metric_rejected(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", "m1", 5.0, 2.0, 75.0)
        b = write_report(tmp_path / "b.txt", "m2", 0.0, 2.0, 75.0)
        code, _, err = run_cli(["compare", a, b, "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 1
        assert "improvement rate undefined" in err

    def test_malformed_report_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("label = x\nn = 12\n")
        good = write_report(tmp_path / "g.txt", "m", 5.0, 2.0, 75.0)
        code, _, err = run_cli(
            ["compare", str(bad), good, "--out", str(tmp_path / "o.csv")], capsys
        )
        assert code == 1
        assert "missing fields" in err

    @pytest.mark.parametrize("key, lineno, raw", [("n", 2, "x"), ("mape_pct", 3, "oops"),
                                                  ("rmse", 4, "1,5"), ("mae", 5, ""),
                                                  ("da_pct", 6, "75%")])
    def test_bad_header_value_names_its_line(self, tmp_path, capsys, key, lineno, raw):
        bad = tmp_path / "b.txt"
        write_report(bad, "m2", 5.0, 2.0, 75.0)
        lines = bad.read_text().splitlines()
        assert lines[lineno - 1].startswith(f"{key} = ")
        lines[lineno - 1] = f"{key} = {raw}"
        bad.write_text("\n".join(lines) + "\n")
        good = write_report(tmp_path / "a.txt", "m1", 5.0, 2.0, 75.0)
        code, _, err = run_cli(["compare", good, str(bad), "--out", str(tmp_path / "o.csv")],
                               capsys)
        assert code == 1
        assert err.splitlines() == [f"error: {bad}: line {lineno}: bad value for {key!r}: {raw!r}"]

    @pytest.mark.parametrize("row", ["3,oops", "x,1.0,2.0,1", "3,1.0,2.0,1,0", "3,1.0,2.0,z"])
    def test_malformed_point_row_names_its_line(self, tmp_path, capsys, row):
        bad = tmp_path / "b" / "metrics.txt"
        bad.parent.mkdir()
        write_report(bad, "m2", 5.0, 2.0, 75.0)
        with open(bad, "a", encoding="utf-8") as fh:
            fh.write(f"\nt,y,yhat,d\n1,1.0,1.5,1\n\n{row}\n2,2.0,2.5,\n")
        good = write_report(tmp_path / "a.txt", "m1", 5.0, 2.0, 75.0)
        code, _, err = run_cli(["compare", good, str(bad), "--out", str(tmp_path / "o.csv")],
                               capsys)
        assert code == 1
        assert err.splitlines() == [f"error: {bad}: line 12: expected t,y,yhat,d, got {row!r}"]


def _caused_by(err, cause):
    err.__cause__ = cause
    return err


class TestExitCodes:
    @pytest.mark.parametrize(
        "err, expected",
        [
            (cli.CliError("bad input"), 1),
            (ValueError("bad input"), 1),
            (OSError("bad input"), 1),
            (NumericalError("bad input"), 2),
            (_caused_by(ValueError("bad input"), NumericalError("singular")), 2),
            (RuntimeError("bad input"), 1),
            (_caused_by(PipelineStageError("kpca[0]", NumericalError("bad input")),
                        NumericalError("bad input")), 2),
        ],
        ids=["cli", "value", "os", "numerical", "value-from-numerical", "runtime",
             "stage-numerical"],
    )
    def test_handled_exception_exit_code(self, err, expected, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise err

        monkeypatch.setattr(cli, "pipeline_fit", boom)
        conf = write_config(tmp_path / "c.conf", method="kpca+kelm")
        code, _, stderr = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == expected
        assert stderr.startswith("error: ") and "bad input" in stderr

    @pytest.mark.parametrize("command", ["run", "ingest", "compare"])
    def test_missing_input_file_named(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        if command == "run":
            conf = write_config(tmp_path / "c.conf", synth_seed="", panel=str(missing))
            argv = ["run", "--config", conf, "--out-dir", str(tmp_path / "out")]
        elif command == "ingest":
            argv = ["ingest", "--economic", str(missing), "--target", str(missing),
                    "--out", str(tmp_path / "fused")]
        else:
            argv = ["compare", str(missing), str(missing), "--out", str(tmp_path / "ir.csv")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"

    @pytest.mark.parametrize("name, line", [("c.conf", 3), ("p.csv", 5), ("p.tags.csv", 3)])
    def test_non_utf8_byte_named_by_file_and_line(self, name, line, tmp_path, capsys):
        run_cli(["synth", "--seed", "0", "--out", str(tmp_path / "p")], capsys)
        (tmp_path / "c.conf").write_text(f"panel = {tmp_path / 'p.csv'}\nsplit = 2017-12\n"
                                         f"method = naive\n")
        bad = tmp_path / name
        lines = bad.read_bytes().split(b"\n")
        lines[line - 1] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        argv = ["run", "--config", str(tmp_path / "c.conf"), "--out-dir", str(tmp_path / "out")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: line {line}: not valid UTF-8\n"

    def test_no_arguments(self, capsys):
        assert run_cli([], capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    def test_numerical_error_is_exit_two(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("matrix went sideways")

        monkeypatch.setattr(cli, "pipeline_fit", boom)
        conf = write_config(tmp_path / "c.conf", method="kpca+kelm")
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "sideways" in err

    def test_wrapped_numerical_error_is_exit_two(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise PipelineStageError("cluster", NumericalError("no donors")) from NumericalError(
                "no donors"
            )

        monkeypatch.setattr(cli, "pipeline_fit", boom)
        conf = write_config(tmp_path / "c.conf", method="kmeans+kpca+kelm", k=3)
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "cluster" in err

    def test_validation_stage_error_is_exit_one(self, tmp_path, capsys):
        conf = write_config(tmp_path / "c.conf", method="kmeans+kpca+kelm", k=40)
        code, _, err = run_cli(["run", "--config", conf, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "cluster" in err
