"""FeaturePanel: fuse, split, normalization, CSV round-trips."""

import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oilcast import panel as panel_module
from oilcast.panel import (
    FeaturePanel,
    atomic_write_text,
    fuse,
    month_index,
    month_range,
    month_string,
    normalize_fit,
    read_panel_csv,
    read_tags_csv,
    train_test_split,
    write_panel_csv,
    write_tags_csv,
)
from oilcast.synth import SynthSpec, synth_generate


def make_panel(start="2010-01", months=24, names=("a", "b"), tags=None, seed=0):
    rng = np.random.default_rng(seed)
    return FeaturePanel(
        dates=month_range(start, months),
        columns={n: rng.standard_normal(months) for n in names},
        tags=tags or {},
    )


class TestMonthHelpers:
    def test_range_and_index_roundtrip(self):
        dates = month_range("2017-11", 4)
        assert dates == ["2017-11", "2017-12", "2018-01", "2018-02"]
        assert month_index("2018-01") - month_index("2017-12") == 1

    def test_malformed_months_rejected(self):
        for bad in ("2018-13", "2018-0", "18-01", "2018/01", "2018-01-01",
                    "2004-01\n", "\u0662\u0660\u0660\u0664-\u0660\u0661"):
            with pytest.raises(ValueError, match="^month must be YYYY-MM with MM in 01..12, got "):
                month_index(bad)

    @settings(max_examples=200, deadline=None)
    @given(date=st.one_of(st.text(max_size=9), st.from_regex(r"\d{4}-\d{2}\s?", fullmatch=True)))
    def test_every_accepted_month_roundtrips(self, date):
        try:
            index = month_index(date)
        except ValueError:
            return
        assert month_string(index) == date


class TestFeaturePanel:
    def test_rejects_non_increasing_dates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FeaturePanel(dates=["2010-02", "2010-01"], columns={"a": np.zeros(2)})

    def test_rejects_length_mismatch_and_unknown_tags(self):
        with pytest.raises(ValueError, match="values"):
            FeaturePanel(dates=month_range("2010-01", 3), columns={"a": np.zeros(2)})
        with pytest.raises(ValueError, match="unknown tag"):
            make_panel(tags={"a": "weird", "b": "economic"})
        with pytest.raises(ValueError, match="multiple target"):
            make_panel(tags={"a": "target", "b": "target"})

    def test_mode_selection(self):
        panel = make_panel(
            names=("e1", "g1", "e2", "px"),
            tags={"e1": "economic", "g1": "gsvi", "e2": "economic", "px": "target"},
        )
        assert panel.indicator_names("E") == ["e1", "e2"]
        assert panel.indicator_names("G") == ["g1"]
        assert panel.indicator_names("H") == ["e1", "g1", "e2"]
        assert panel.target_name == "px"
        with pytest.raises(ValueError, match="mode"):
            panel.indicator_names("X")


class TestSlicing:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_slices_and_selections_match_the_columns(self, seed, data):
        panel, _, _ = synth_generate(SynthSpec(seed=seed, months=40, factors=2,
                                               series_per_factor=3))
        names = list(panel.columns)
        before = panel.matrix(names).tobytes()
        start = data.draw(st.integers(0, panel.n_rows))
        stop = data.draw(st.integers(start, panel.n_rows))
        picked = sorted(data.draw(st.sets(st.integers(0, panel.n_rows - 1), max_size=12)))
        chosen = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        for rows, idx in ((range(start, stop), list(range(start, stop))),
                          (slice(start, stop), list(range(start, stop))),
                          (picked, picked)):
            part = panel.row_slice(rows)
            narrow = FeaturePanel(dates=part.dates, columns={n: part.columns[n] for n in chosen},
                                  tags={n: part.tags[n] for n in chosen})
            got = narrow.matrix(chosen)
            expected = np.column_stack([panel.columns[n][idx] for n in chosen])
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert got.flags.c_contiguous  # as np.column_stack gives; BLAS results follow layout
            assert part.dates == narrow.dates == [panel.dates[i] for i in idx]
            assert part.tags == panel.tags
            assert narrow.tags == {n: panel.tags[n] for n in chosen}

            months = [month_index(d) for d in part.dates]
            gaps = [(part.dates[i], part.dates[i + 1]) for i in range(len(months) - 1)
                    if months[i + 1] - months[i] != 1]
            assert part.calendar_gap() == (gaps[0] if gaps else None)

            for view in (part.columns[chosen[0]], narrow.columns[chosen[0]]):
                with pytest.raises(ValueError, match="read-only"):
                    view[:] = 0.0
            got[:] = 0.0  # a gathered matrix is the caller's own copy
            assert panel.matrix(names).tobytes() == before


class TestFuse:
    def test_union_of_columns_on_identical_dates(self):
        a = make_panel(names=("a1", "a2"), seed=1)
        b = make_panel(names=("b1",), seed=2)
        fused = fuse([a, b])
        assert list(fused.columns) == ["a1", "a2", "b1"]
        assert fused.n_rows == 24

    def test_inner_join_keeps_overlap_only(self):
        a = make_panel(start="2010-01", months=180, names=("a",))
        b = make_panel(start="2016-09", months=180, names=("b",))
        fused = fuse([a, b])
        assert fused.n_rows == 100
        assert fused.dates[0] == "2016-09"

    def test_duplicate_columns_rejected_by_name(self):
        a = make_panel(names=("x", "y"))
        b = make_panel(names=("y", "z"))
        with pytest.raises(ValueError, match=r"duplicate column names.*'y'"):
            fuse([a, b])

    def test_empty_intersection_rejected(self):
        a = make_panel(start="2010-01", months=12, names=("a",))
        b = make_panel(start="2012-01", months=12, names=("b",))
        with pytest.raises(ValueError, match="empty intersection"):
            fuse([a, b])

    def test_rows_with_missing_values_dropped_with_gap_warning(self):
        a = make_panel(months=6, names=("a",))
        holed = a.columns["a"].copy()
        holed[2] = np.nan
        a = FeaturePanel(dates=a.dates, columns={"a": holed})
        b = make_panel(months=6, names=("b",), seed=3)
        with pytest.warns(UserWarning, match="calendar gaps"):
            fused = fuse([a, b])
        assert fused.n_rows == 5
        assert not np.isnan(fused.matrix(["a", "b"])).any()

    def test_tags_carried_through(self):
        a = make_panel(names=("e1",), tags={"e1": "economic"})
        b = make_panel(names=("px",), tags={"px": "target"}, seed=4)
        fused = fuse([a, b])
        assert fused.tags == {"e1": "economic", "px": "target"}


class TestSplit:
    def test_december_split_of_fifteen_years(self):
        panel = make_panel(start="2004-01", months=180)
        train, test = train_test_split(panel, "2017-12")
        assert train.n_rows == 168
        assert test.n_rows == 12
        assert train.dates[-1] == "2017-12"
        assert test.dates[0] == "2018-01"

    def test_degenerate_splits_rejected(self):
        panel = make_panel(start="2004-01", months=24)
        with pytest.raises(ValueError, match="no test rows"):
            train_test_split(panel, "2005-12")
        with pytest.raises(ValueError, match="no training rows"):
            train_test_split(panel, "2003-12")


def fit_columns(panel, names=None):
    """Normalization params of the named columns (all by default), in that order."""
    names = list(panel.columns) if names is None else names
    return normalize_fit(panel.matrix(names), names, panel.dates)


class TestNormalization:
    def test_hand_values(self):
        panel = FeaturePanel(
            dates=month_range("2010-01", 3), columns={"a": np.array([10.0, 20.0, 30.0])}
        )
        params = fit_columns(panel)
        out = params.apply(panel.matrix(["a"]))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_roundtrip_identity(self):
        panel = make_panel(seed=5)
        params = fit_columns(panel)
        names = list(panel.columns)
        out = params.apply(panel.matrix(names))
        np.testing.assert_allclose(params.invert(out), panel.matrix(names), atol=1e-12)
        one = fit_columns(panel, ["b"])  # one column also inverts as a vector
        back = one.invert(one.apply(panel.matrix(["b"]))[:, 0])
        assert back.shape == (panel.n_rows,)
        np.testing.assert_allclose(back, panel.columns["b"], atol=1e-12)

    def test_no_clipping_outside_training_range(self):
        train = FeaturePanel(
            dates=month_range("2010-01", 3), columns={"a": np.array([0.0, 1.0, 2.0])}
        )
        params = fit_columns(train)
        later = FeaturePanel(
            dates=month_range("2010-04", 2), columns={"a": np.array([4.0, -2.0])}
        )
        np.testing.assert_allclose(params.apply(later.matrix(["a"]))[:, 0], [2.0, -1.0])

    def test_constant_column_rejected(self):
        panel = FeaturePanel(
            dates=month_range("2010-01", 3),
            columns={"a": np.ones(3), "b": np.array([1.0, 2.0, 3.0])},
        )
        with pytest.raises(ValueError, match=r"constant columns.*'a'"):
            fit_columns(panel)

    def test_column_whose_range_overflows_rejected(self):
        # max - min is inf, which would make every normalized value of 'b' NaN
        panel = FeaturePanel(
            dates=month_range("2010-01", 3),
            columns={"a": np.array([1.0, 2.0, 3.0]), "b": np.array([-1e308, 0.0, 1e308])},
        )
        with pytest.raises(ValueError, match=(r"^columns whose range max - min overflows "
                                              r"cannot be normalized: \['b'\]$")):
            fit_columns(panel)

    def test_wrong_column_count_rejected(self):
        params = fit_columns(make_panel(names=("a", "b", "c")))
        with pytest.raises(ValueError, match="expected 3 columns to normalize, got 2"):
            params.apply(np.ones((4, 2)))

    def test_non_finite_cell_named(self):
        panel = make_panel(names=("a", "b", "c"))
        columns = {name: values.copy() for name, values in panel.columns.items()}
        columns["c"][2] = np.inf
        columns["b"][2] = np.nan
        columns["a"][5] = np.nan
        panel = FeaturePanel(dates=panel.dates, columns=columns)
        with pytest.raises(ValueError, match=r"^column 'b' is not finite at 2010-03$"):
            fit_columns(panel)

    def test_check_finite_names_the_cell_and_gathers_only_then(self, monkeypatch):
        panel = make_panel(names=("a", "b", "c", "d"))
        columns = {name: values.copy() for name, values in panel.columns.items()}
        columns["c"][2] = np.inf
        columns["b"][2] = np.nan
        columns["a"][5] = np.nan
        columns["d"][0] = -np.inf
        panel = FeaturePanel(dates=panel.dates, columns=columns)
        gathered = []
        matrix = FeaturePanel.matrix
        monkeypatch.setattr(FeaturePanel, "matrix",
                            lambda self, names: gathered.append(names) or matrix(self, names))
        with pytest.raises(ValueError, match=r"^column 'c' is not finite at 2010-03$"):
            panel.check_finite(["c", "a", "b"])  # the earliest row, then the first name
        with pytest.raises(ValueError, match=r"^panel is missing columns: \['x'\]$"):
            panel.check_finite(["x"])
        assert gathered == [["c", "a", "b"], ["x"]]
        finite = make_panel(names=("a", "b"))
        mixed = FeaturePanel(dates=finite.dates, columns={**finite.columns, "c": columns["c"]})
        mixed.check_finite(["b", "a"])  # a bad cell outside the named columns passes
        assert gathered == [["c", "a", "b"], ["x"]]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_matrix_map_equals_the_per_column_formula(self, seed, data):
        panel, _, _ = synth_generate(SynthSpec(seed=seed, months=40, factors=2,
                                               series_per_factor=4))
        fitted = data.draw(st.permutations(list(panel.columns)))
        fitted = fitted[:data.draw(st.integers(1, len(fitted)))]
        params = fit_columns(panel, fitted)
        scaled = params.apply(panel.matrix(fitted))
        for j, name in enumerate(fitted):
            lo, hi = params.mins[j], params.maxs[j]
            assert (lo, hi) == (panel.columns[name].min(), panel.columns[name].max())
            expected = (panel.columns[name] - lo) / (hi - lo)
            assert scaled[:, j].tobytes() == expected.tobytes()


class TestCsv:
    def test_panel_roundtrip(self, tmp_path):
        panel = make_panel(names=("alpha", "beta"), seed=6)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, str(path))
        path.write_text("# comment lines are skipped\n" + path.read_text())
        back = read_panel_csv(str(path))
        assert back.dates == panel.dates
        for name in panel.columns:
            np.testing.assert_array_equal(back.columns[name], panel.columns[name])

    def test_missing_cells_roundtrip_as_nan(self, tmp_path):
        panel = make_panel(names=("a",), months=4)
        holed = panel.columns["a"].copy()
        holed[1] = np.nan
        panel = FeaturePanel(dates=panel.dates, columns={"a": holed})
        path = str(tmp_path / "panel.csv")
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert np.isnan(back.columns["a"][1])
        assert not np.isnan(back.columns["a"][[0, 2, 3]]).any()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("month,a\n2010-01,1.0\n")
        with pytest.raises(ValueError, match="line 1.*'date'"):
            read_panel_csv(str(path))

    def test_malformed_date_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,a\n2010-01,1.0\n2010-1,2.0\n")
        with pytest.raises(ValueError, match="line 3: month must be YYYY-MM"):
            read_panel_csv(str(path))

    def test_non_numeric_cell_cites_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,a,b\n2010-01,1.0,2.0\n2010-02,oops,3.0\n")
        with pytest.raises(ValueError, match=r"line 3.*'oops'.*'a'"):
            read_panel_csv(str(path))

    def test_duplicate_header_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,a,a\n2010-01,1.0,2.0\n")
        with pytest.raises(ValueError, match="duplicate column names"):
            read_panel_csv(str(path))

    def test_wide_header_reports_every_duplicate_sorted(self, tmp_path):
        names = [f"c{j}" for j in range(3000)]
        names[2999], names[1500] = "c7", "c12"
        path = tmp_path / "wide.csv"
        path.write_text(",".join(["date", *names]) + "\n2010-01," + ",".join(["1.0"] * 3000) + "\n")
        with pytest.raises(ValueError, match=r": line 1: duplicate column names \['c12', 'c7'\]$"):
            read_panel_csv(str(path))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308]),
    ), min_size=3, max_size=3), min_size=1, max_size=6))
    def test_written_rows_follow_the_per_cell_rule(self, tmp_path_factory, rows):
        # the reference: every cell is repr(v), or empty for NaN
        panel = FeaturePanel(dates=month_range("2010-01", len(rows)),
                             columns={n: [row[j] for row in rows] for j, n in enumerate("abc")})
        path = tmp_path_factory.mktemp("write") / "panel.csv"
        write_panel_csv(panel, str(path))
        expected = ["date,a,b,c"] + [
            ",".join([date] + ["" if np.isnan(v) else repr(float(v)) for v in row])
            for date, row in zip(panel.dates, rows)
        ]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_tags_roundtrip_and_validation(self, tmp_path):
        tags = {"e1": "economic", "g1": "gsvi", "px": "target"}
        path = str(tmp_path / "tags.csv")
        write_tags_csv(tags, path)
        assert read_tags_csv(path) == tags
        bad = tmp_path / "bad.csv"
        bad.write_text("name,tag\ne1,mystery\n")
        with pytest.raises(ValueError, match="line 2.*'mystery'"):
            read_tags_csv(str(bad))

    def test_tags_errors_count_comment_and_blank_lines(self, tmp_path):
        bad = tmp_path / "bad.tags.csv"
        bad.write_text("# note\n\nname,tag\nprice,target\nx,bogus\n")
        with pytest.raises(ValueError, match=r": line 5: unknown tag 'bogus'"):
            read_tags_csv(str(bad))
        bad.write_text("# note\nname,kind\nprice,target\n")
        with pytest.raises(ValueError, match=r": line 2: header must be 'name,tag'$"):
            read_tags_csv(str(bad))
        bad.write_text("# only a comment\n\n")
        with pytest.raises(ValueError, match=r": line 1: header must be 'name,tag'$"):
            read_tags_csv(str(bad))
        bad.write_text("name,tag\nprice,target\n# note\nx,gsvi\nbrent,target\n")
        with pytest.raises(ValueError, match=r": line 5: second target column 'brent'; "
                                             r"'price' is already the target$"):
            read_tags_csv(str(bad))

    def test_out_of_order_date_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,a\n2010-01,1.0\n# gap\n2010-03,2.0\n2010-02,oops\n")
        with pytest.raises(ValueError, match=r": line 5: dates must be strictly increasing; "
                                             r"'2010-02' follows '2010-03'$"):
            read_panel_csv(str(path))


class TestNamesThatCannotBeReadBack:
    """A writer rejects, before it opens any file, a column name that a read
    of its file would not give back as itself."""

    @pytest.mark.parametrize("name, why", [
        (" a", "leading or trailing whitespace, which the reader strips"),
        ("a\t", "leading or trailing whitespace, which the reader strips"),
        ("a,b", "',', which separates cells"),
        ("a\nb", "a line break, which ends a line"),
        ("a\rb", "a line break, which ends a line"),
    ])
    def test_panel_csv(self, tmp_path, name, why):
        panel = make_panel(names=("ok", name))
        with pytest.raises(ValueError) as raised:
            write_panel_csv(panel, str(tmp_path / "p.csv"))
        assert str(raised.value) == f"column {name!r} cannot be written to a panel CSV: it has {why}"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name, why", [
        (" a", "leading or trailing whitespace, which the reader strips"),
        ("a,b", "',', which separates cells"),
        ("a\nb", "a line break, which ends a line"),
        ("#x", "a leading '#', which makes its line a comment"),
    ])
    def test_tags_csv(self, tmp_path, name, why):
        with pytest.raises(ValueError) as raised:
            write_tags_csv({"ok": "gsvi", name: "economic"}, str(tmp_path / "p.tags.csv"))
        assert str(raised.value) == f"column {name!r} cannot be written to a tags CSV: it has {why}"
        assert os.listdir(tmp_path) == []

    def test_names_that_read_back_are_written(self, tmp_path):
        # '#' starts a comment only at the start of a line, and a panel line starts with its date
        names = ("#x", "a b", "", "x#")
        panel = make_panel(names=names)
        write_panel_csv(panel, str(tmp_path / "p.csv"))
        assert list(read_panel_csv(str(tmp_path / "p.csv")).columns) == list(names)
        tags = {"a b": "gsvi", "": "economic", "x#": "target"}
        write_tags_csv(tags, str(tmp_path / "p.tags.csv"))
        assert read_tags_csv(str(tmp_path / "p.tags.csv")) == tags


class TestFailedWriteLeavesNoTempFile:
    """A write that fails once its temp file is open removes the temp file and
    leaves the file it would have replaced as it was. A lone surrogate passes
    the name check but cannot be encoded as UTF-8."""

    @pytest.fixture()
    def old(self, tmp_path):
        (tmp_path / "f.csv").write_bytes(b"old\n")
        return str(tmp_path / "f.csv")

    def check_failed_write(self, path, write):
        with pytest.raises(UnicodeEncodeError):
            write()
        assert os.listdir(os.path.dirname(path)) == ["f.csv"]
        with open(path, "rb") as fh:
            assert fh.read() == b"old\n"

    def test_write_panel_csv(self, old):
        panel = make_panel(names=("ok", "\ud800"))
        self.check_failed_write(old, lambda: write_panel_csv(panel, old))

    def test_write_tags_csv(self, old):
        self.check_failed_write(old, lambda: write_tags_csv({"ok": "gsvi", "\ud800": "economic"},
                                                            old))

    def test_atomic_write_text(self, old):
        self.check_failed_write(old, lambda: atomic_write_text(old, "a\ud800b\n"))


class TestPeakMemory:
    """Panel CSV I/O holds about one row of Python objects besides the panel:
    on a 180 x 1500 panel the write's traced peak stays below the matrix's
    bytes, and the read's, which streams the file in ``READ_PIECE`` pieces,
    below the matrix's bytes plus two pieces and 512 KiB."""

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def wide(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0, months=180, factors=6,
                                               series_per_factor=250))
        return panel

    def test_write(self, tmp_path, wide):
        path = str(tmp_path / "p.csv")
        write_panel_csv(wide.row_slice(range(3)), path)  # let lazy set-up settle first
        peak = self.traced_peak(lambda: write_panel_csv(wide, path))
        assert peak < wide.matrix(list(wide.columns)).nbytes

    def test_read(self, tmp_path, wide):
        small, path = str(tmp_path / "small.csv"), str(tmp_path / "p.csv")
        write_panel_csv(wide.row_slice(range(3)), small)
        write_panel_csv(wide, path)
        read_panel_csv(small)  # settles lazy set-up and replaces any kept parse of the file
        peak = self.traced_peak(lambda: read_panel_csv(path))
        matrix = read_panel_csv(path).matrix(list(wide.columns))
        assert matrix.tobytes() == wide.matrix(list(wide.columns)).tobytes()
        # a piece's bytes and their text, a row of Python objects and the
        # dates: 0.85 MiB beside the matrix for a 5.3 MB file
        assert peak < matrix.nbytes + 2 * panel_module.READ_PIECE + 2**19


class TestReaderMemo:
    """Each reader keeps its last parse, keyed by the length and hash of the file's bytes."""

    def test_same_size_rewrite_with_restored_mtime_is_read_again(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a\n2010-01,1.0\n2010-02,2.0\n")
        stat = os.stat(path)
        assert read_panel_csv(str(path)).columns["a"].tolist() == [1.0, 2.0]
        path.write_text("date,a\n2010-01,3.0\n2010-02,4.0\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        assert read_panel_csv(str(path)).columns["a"].tolist() == [3.0, 4.0]

        tags = tmp_path / "p.tags.csv"
        tags.write_text("name,tag\na,gsvi\n")
        stat = os.stat(tags)
        assert read_tags_csv(str(tags)) == {"a": "gsvi"}
        tags.write_text("name,tag\nb,gsvi\n")
        os.utime(tags, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert read_tags_csv(str(tags)) == {"b": "gsvi"}

    def test_malformed_file_fails_on_every_read(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a\n2010-01,1.0\n2010-02,oops\n")
        for _ in range(2):
            with pytest.raises(ValueError, match=r": line 3: non-numeric value 'oops'"):
                read_panel_csv(str(path))
        path.write_text("date,a\n2010-01,1.0\n2010-02,2.0\n")
        read_panel_csv(str(path))
        path.write_text("date,a\n2010-01,1.0\n2010-02,oops\n")
        with pytest.raises(ValueError, match=r": line 3: non-numeric value 'oops'"):
            read_panel_csv(str(path))

        tags = tmp_path / "p.tags.csv"
        tags.write_text("name,tag\na,gsvi\n")
        read_tags_csv(str(tags))
        tags.write_text("name,tag\na,bogus\n")
        for _ in range(2):
            with pytest.raises(ValueError, match=r": line 2: unknown tag 'bogus'"):
                read_tags_csv(str(tags))

    def test_callers_cannot_change_a_later_read(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2010-01,1.0,2.0\n2010-02,3.0,4.0\n")
        first = read_panel_csv(str(path))
        with pytest.raises(ValueError, match="read-only"):
            first.columns["a"][0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            first._months[0] = 0
        first.dates.append("2010-03")
        first._positions["c"] = 2
        again = read_panel_csv(str(path))
        assert again.dates == ["2010-01", "2010-02"]
        assert list(again.columns) == ["a", "b"]
        assert again.matrix(["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]

        tags = tmp_path / "p.tags.csv"
        tags.write_text("name,tag\na,gsvi\nb,target\n")
        read_tags_csv(str(tags))["a"] = "economic"
        read_tags_csv(str(tags)).clear()
        assert read_tags_csv(str(tags)) == {"a": "gsvi", "b": "target"}

    def test_same_content_at_another_path_reports_that_path(self, tmp_path):
        text = "date,a\n2010-01,1.0\n2010-01,2.0\n"
        for name in ("one.csv", "two.csv"):
            (tmp_path / name).write_text(text)
            with pytest.raises(ValueError, match=f"{name}: line 3: dates must be strictly"):
                read_panel_csv(str(tmp_path / name))

    def test_decode_error_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "p.csv"
        # the bad byte sits past the first 8 KiB chunk of the decoder
        path.write_bytes(b"date,a\n" + b"# pad\n" * 2000 + b"2010-01,\xff\n")
        with pytest.raises(ValueError) as raised:
            read_panel_csv(str(path))
        assert str(raised.value) == f"{path}: line 2002: not valid UTF-8"

    @pytest.mark.parametrize("piece", [5, 4096])
    def test_same_content_is_parsed_once(self, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(panel_module, "READ_PIECE", piece)
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2010-01,1.0,2.0\n2010-02,3.0,4.0\n")
        first, again = read_panel_csv(str(path)), read_panel_csv(str(path))
        assert again._values is first._values  # the kept parse, not a second one
        tags = tmp_path / "p.tags.csv"
        tags.write_text("name,tag\na,gsvi\nb,target\n")
        parse = panel_module._parse_tags
        calls = []
        monkeypatch.setattr(panel_module, "_parse_tags",
                            lambda *args: calls.append(1) or parse(*args))
        assert read_tags_csv(str(tags)) == read_tags_csv(str(tags)) == {"a": "gsvi", "b": "target"}
        assert calls == [1]

    @pytest.mark.parametrize("counted, first", [
        ("_file_key", "date,a\n2010-01,1.0\n2010-02,2.0\n"),  # more rows than were counted
        ("_file_sizes", ""),  # counted while truncated, parsed once written
        ("_file_sizes", "date,a\n2010-01,1.0\n"),  # the header moved down past the count
    ])
    def test_rewrite_between_the_passes_is_kept_under_what_was_parsed(self, tmp_path, monkeypatch,
                                                                      counted, first):
        path = tmp_path / "p.csv"
        later = "# one\n# two\ndate,a\n2010-01,5.0\n2010-02,6.0\n2010-03,7.0\n2010-04,8.0\n"
        path.write_text(first)
        count = getattr(panel_module, counted)

        def rewrite_after_the_pass(fh):
            result = count(fh)
            path.write_text(later)  # in place
            return result

        monkeypatch.setattr(panel_module, counted, rewrite_after_the_pass)
        assert read_panel_csv(str(path)).columns["a"].tolist() == [5.0, 6.0, 7.0, 8.0]
        monkeypatch.setattr(panel_module, counted, count)
        # the first content was never parsed, so it is not served from the kept parse
        if first:
            path.write_text(first)
            assert read_panel_csv(str(path)).columns["a"].tolist() == [1.0, 2.0][:first.count("\n") - 1]
        path.write_text(later)
        assert read_panel_csv(str(path)).columns["a"].tolist() == [5.0, 6.0, 7.0, 8.0]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_decode_error_counts_lines_as_text_mode_does(self, tmp_path, end):
        # "\n", "\r\n" and a lone "\r" each end one line
        data = end.join(["date,a", "", "# note", "2010-01,1", "2010-02,\xff"]).encode("latin-1")
        path = tmp_path / "p.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=r"p\.csv: line 5: not valid UTF-8$"):
            read_panel_csv(str(path))


# A cell token the reader may meet: a number in any spelling float() takes,
# an empty cell, or junk; the reference rule below decides what each means.
CELL_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "+1.5", "1_0", "1e5", ".5", "5.", "-0"]),
    st.just(""),
    st.sampled_from(["oops", "1.2.3", "--1", "1e", "0x10", "1__0", "_1", "1 2", "n a n"]),
    st.text(alphabet="1e.+-_xn", max_size=4),
)
# a bare '\r' ends a line in text mode, so it occurs only in CRLF line ends;
# float() keeps '\x1f', which str.strip() removes, so it forces the cell-wise path
PADDING = st.text(alphabet=" \t\x0b\x0c\xa0\x1f", max_size=2)
# a line the reader skips: blank, whitespace only, or a comment after optional whitespace
SKIPPED_LINES = st.builds(lambda pad, comment: pad + comment,
                          st.text(alphabet=" \t\x0b\x0c\xa0", max_size=2),
                          st.sampled_from(["", "#", "# note, 2010-01,1.0", "#date,c0"]))


def reference_cell(cell: str, where: str, name: str) -> float:
    cell = cell.strip()
    if cell == "":
        return np.nan
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{where}non-numeric value {cell!r} in column {name!r}") from None


class TestReaderProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cells_parse_like_the_per_cell_rule(self, tmp_path_factory, data):
        n_rows = data.draw(st.integers(1, 5))
        n_cols = data.draw(st.integers(1, 4))
        names = [f"c{j}" for j in range(n_cols)]
        cells = [[data.draw(PADDING) + data.draw(CELL_TOKENS) + data.draw(PADDING)
                  for _ in names] for _ in range(n_rows)]
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        dates = month_range("2010-01", n_rows)
        # blank, whitespace-only and comment lines may sit before, between and after rows
        lines, row_line_numbers = [], []
        for line in [",".join(["date", *names])] + [",".join([f" {d}\t", *row])
                                                    for d, row in zip(dates, cells)]:
            lines += data.draw(st.lists(SKIPPED_LINES, max_size=2))
            lines.append(line)
            row_line_numbers.append(len(lines))
        lines += data.draw(st.lists(SKIPPED_LINES, max_size=2))
        final_end = data.draw(st.sampled_from(["", end]))
        path = str(tmp_path_factory.mktemp("csv") / "p.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(end.join(lines) + final_end)
        try:
            expected = np.array([[reference_cell(c, f"{path}: line {no}: ", name)
                                  for c, name in zip(row, names)]
                                 for no, row in zip(row_line_numbers[1:], cells)])
        except ValueError as err:
            for _ in range(2):  # the second read parses again and fails the same way
                with pytest.raises(ValueError) as raised:
                    read_panel_csv(path)
                assert str(raised.value) == str(err)
            return
        for _ in range(2):  # the second read returns the kept parse: same bits, same NaNs
            panel = read_panel_csv(path)
            assert panel.dates == dates
            got = panel.matrix(names)
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


def whole_text_lines(path: str, data: bytes):
    """The reference decoder: (content lines, None) of the whole text decoded at
    once, or (the content lines before the bad line, the error message) when
    the bytes are not UTF-8."""
    def content(text):
        text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
        return text, [(no, line) for no, line in enumerate(text.split("\n"), 1)
                      if line.strip() and line.strip()[0] != "#"]

    try:
        return content(data.decode("utf-8")) + (None,)
    except UnicodeDecodeError as err:
        head = data[:err.start]
        bad = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        _, lines = content(data.decode("utf-8", "replace"))
        return None, [item for item in lines if item[0] < bad], f"{path}: line {bad}: not valid UTF-8"


# a line's text: multibyte names, cells, comments, blanks and whitespace-only lines
LINE_TEXT = st.text(alphabet=" \tab,1.#\u00e9\u20ac\U0001d11e", max_size=6)
LINE_END = st.sampled_from(["\n", "\r", "\r\n"])
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


class TestStreamedDecoder:
    """``_text_pieces`` and ``_content_lines`` over pieces of a few bytes give the
    lines, line numbers and errors of the whole text decoded at once."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lines=st.lists(st.tuples(LINE_TEXT, LINE_END), max_size=8), bom=st.booleans(),
           last_end=st.booleans(), bad=st.one_of(st.none(), st.tuples(st.integers(0), BAD_BYTES)),
           piece=st.integers(1, 7))
    def test_pieces_decode_as_the_whole_text(self, lines, bom, last_end, bad, piece):
        text = "".join(line + end for line, end in lines)
        if lines and not last_end:
            text = text.removesuffix(lines[-1][1])
        data = ("\ufeff" if bom else "").encode() + text.encode()
        if bad is not None:
            at = bad[0] % (len(data) + 1)
            data = data[:at] + bad[1] + data[at:]
        path = "p.csv"
        whole, expected, error = whole_text_lines(path, data)
        ends = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        with mock.patch.object(panel_module, "READ_PIECE", piece):
            assert panel_module._file_sizes(io.BytesIO(data)) == (
                ends.count(b"\n") + (ends != b"" and not ends.endswith(b"\n")), len(data))
            got, message = [], None
            try:  # a bad byte fails its piece: the lines before it in that piece are not given
                for item in panel_module._content_lines(
                        panel_module._text_pieces(path, io.BytesIO(data))):
                    got.append(item)
            except ValueError as err:
                message = str(err)
            assert message == error
            assert got == (expected[:len(got)] if error else expected)
            if error:
                return
            pieces = list(panel_module._text_pieces(path, io.BytesIO(data)))
        assert "".join(pieces) == whole
        assert all(text.endswith("\n") for text in pieces[:-1])

    @pytest.mark.parametrize("piece", [1, 2, 3, 4])
    def test_crlf_across_a_piece_boundary_ends_one_line(self, piece):
        data = b"a\r\nb\r\n\r\nc"
        with mock.patch.object(panel_module, "READ_PIECE", piece):
            lines = list(panel_module._content_lines(
                panel_module._text_pieces("p", io.BytesIO(data))))
        assert lines == [(1, "a"), (2, "b"), (4, "c")]
