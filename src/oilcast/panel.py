"""Monthly feature panels: the data structure every stage consumes.

A panel is an ordered set of named monthly series with a provenance tag
per column (economic | gsvi | target). Fragments read from CSV may carry
missing cells (as NaN); ``fuse`` inner-joins fragments on date and drops
incomplete rows, so downstream stages always see complete data. Row
order is the time axis: lag alignment counts rows, so a fused panel with
calendar gaps is flagged with a warning rather than silently shifted.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

TAGS = ("economic", "gsvi", "target")
# dataset mode -> the indicator tags it reads: E(conomic), G(svi), H(ybrid)
MODES = {"E": ("economic",), "G": ("gsvi",), "H": ("economic", "gsvi")}

_MONTH_RE = re.compile(r"(\d{4})-(\d{2})", re.ASCII)


def month_index(date: str) -> int:
    """Months since year 0 for a 'YYYY-MM' string; rejects malformed input."""
    m = _MONTH_RE.fullmatch(date)
    if not m:
        raise ValueError(f"malformed month {date!r}; expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"malformed month {date!r}; month must be 01..12")
    return year * 12 + (month - 1)


def month_string(index: int) -> str:
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def month_range(start: str, count: int) -> list[str]:
    """``count`` consecutive months beginning at ``start``."""
    first = month_index(start)
    return [month_string(first + i) for i in range(count)]


def _check_increasing(dates: list[str], months: np.ndarray) -> None:
    bad = np.flatnonzero(np.diff(months) <= 0)
    if bad.size:
        later, earlier = dates[bad[0] + 1], dates[bad[0]]
        raise ValueError(f"dates must be strictly increasing; {later!r} follows {earlier!r}")


def _check_tags(positions: dict[str, int], tags: dict[str, str]) -> None:
    for name, tag in tags.items():
        if name not in positions:
            raise ValueError(f"tag given for unknown column {name!r}")
        if tag not in TAGS:
            raise ValueError(f"unknown tag {tag!r} for column {name!r}; expected one of {TAGS}")
    targets = [name for name, tag in tags.items() if tag == "target"]
    if len(targets) > 1:
        raise ValueError(f"multiple target columns: {targets}")


class FeaturePanel:
    """Named monthly series sharing one date axis, held as one read-only matrix.

    The matrix has shape (n_rows, n_columns); ``columns`` maps each name to a
    read-only view of its column, in column order, and ``tags`` maps columns
    to their provenance. Dates are parsed into month indices once; slices
    carry them along. A row slice over a contiguous range is a view of the
    parent's matrix; other row lists and ``matrix`` gather once. A panel is
    narrowed to some of its columns by ``with_tags``: the stages read tagged
    columns only.
    NaN entries are allowed only in pre-fuse fragments.
    """

    def __init__(self, dates, columns, tags=None):
        dates = list(dates)
        months = np.array([month_index(d) for d in dates], dtype=np.int64)
        _check_increasing(dates, months)
        values = np.empty((len(dates), len(columns)))
        for j, (name, column) in enumerate(columns.items()):
            column = np.asarray(column, dtype=float)
            if column.shape != (len(dates),):
                raise ValueError(
                    f"column {name!r} has {column.shape[0] if column.ndim == 1 else '?'} "
                    f"values for {len(dates)} dates"
                )
            values[:, j] = column
        positions = {name: j for j, name in enumerate(columns)}
        tags = dict(tags or {})
        _check_tags(positions, tags)
        self._adopt(values, positions, dates, months, tags)

    def _adopt(self, values, positions, dates, months, tags) -> FeaturePanel:
        values.flags.writeable = False
        self._values, self._positions, self.dates, self._months, self.tags = (
            values, positions, dates, months, tags)
        return self

    @classmethod
    def _share(cls, values, positions, dates, months, tags) -> FeaturePanel:
        """A panel over parts that are already valid; ``values`` is made read-only."""
        return cls.__new__(cls)._adopt(values, positions, dates, months, tags)

    @property
    def columns(self) -> Mapping[str, np.ndarray]:
        """Read-only views of the columns by name, in column order; a new dict per call."""
        return {name: self._values[:, j] for name, j in self._positions.items()}

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def target_name(self) -> str | None:
        for name, tag in self.tags.items():
            if tag == "target":
                return name
        return None

    def indicator_names(self, mode: str = "H") -> list[str]:
        """Indicator columns for a dataset mode (a key of ``MODES``)."""
        wanted = MODES.get(mode)
        if wanted is None:
            raise ValueError(f"unknown dataset mode {mode!r}; expected E, G or H")
        return [name for name in self._positions if self.tags.get(name) in wanted]

    def matrix(self, names) -> np.ndarray:
        """The named columns as a new (n_rows, len(names)) matrix."""
        try:
            return np.take(self._values, [self._positions[n] for n in names], axis=1)
        except KeyError:  # one pass finds the columns; a second names every missing one
            missing = [n for n in names if n not in self._positions]
            raise ValueError(f"panel is missing columns: {missing}") from None

    def row_slice(self, rows) -> FeaturePanel:
        """Panel restricted to the given rows: a view for a slice or contiguous range."""
        n = self.n_rows
        if isinstance(rows, range) and rows.step == 1 and 0 <= rows.start <= rows.stop <= n:
            rows = slice(rows.start, rows.stop)
        if isinstance(rows, slice):
            dates = self.dates[rows]
        else:
            rows = np.arange(n)[rows]
            dates = [self.dates[i] for i in rows]
            _check_increasing(dates, self._months[rows])
        return FeaturePanel._share(self._values[rows], self._positions, dates,
                                   self._months[rows], dict(self.tags))

    def with_tags(self, tags: dict[str, str]) -> FeaturePanel:
        """The same rows and columns under new tags; the matrix is shared."""
        _check_tags(self._positions, tags)
        return FeaturePanel._share(self._values, self._positions, list(self.dates),
                                   self._months, tags)

    def calendar_gap(self) -> tuple[str, str] | None:
        """The first pair of adjacent rows that are not consecutive months, if any."""
        gaps = np.flatnonzero(np.diff(self._months) != 1)
        if not gaps.size:
            return None
        return self.dates[gaps[0]], self.dates[gaps[0] + 1]


def fuse(fragments) -> FeaturePanel:
    """Inner-join fragments on date and drop rows with missing values.

    Column names must be globally unique across fragments. Warns when the
    surviving rows are not calendar-contiguous, because lag alignment
    downstream counts rows, not months.
    """
    fragments = list(fragments)
    if not fragments:
        raise ValueError("fuse needs at least one fragment")
    names = [name for frag in fragments for name in frag.columns]
    duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
    if duplicates:
        raise ValueError(f"duplicate column names across fragments: {duplicates}")
    positions = {name: j for j, name in enumerate(names)}
    tags = {name: frag.tags[name] for frag in fragments for name in frag.columns
            if name in frag.tags}
    _check_tags(positions, tags)

    common = set(fragments[0].dates)
    for frag in fragments[1:]:
        common &= set(frag.dates)
    if not common:
        raise ValueError("empty intersection of dates across fragments")
    month_of = dict(zip(fragments[0].dates, fragments[0]._months.tolist()))
    dates = sorted(common, key=month_of.__getitem__)

    blocks = []
    for frag in fragments:
        pos = {d: i for i, d in enumerate(frag.dates)}
        blocks.append(frag._values[[pos[d] for d in dates]])
    values = np.hstack(blocks)
    keep = ~np.isnan(values).any(axis=1)
    if not keep.any():
        raise ValueError("all joined rows contain missing values")
    months = np.array([month_of[d] for d in dates], dtype=np.int64)
    fused = FeaturePanel._share(values[keep], positions, [d for d, k in zip(dates, keep) if k],
                                months[keep], tags)
    if fused.calendar_gap() is not None:
        warnings.warn(
            "fused panel has calendar gaps; lag alignment will treat rows as consecutive",
            stacklevel=2,
        )
    return fused


def train_test_split(panel: FeaturePanel, split_date: str) -> tuple[FeaturePanel, FeaturePanel]:
    """Rows dated on or before ``split_date`` go to train, the rest to test."""
    # dates strictly increase, so the training rows are a prefix
    n_train = int(np.searchsorted(panel._months, month_index(split_date), side="right"))
    if n_train == 0:
        raise ValueError(f"split {split_date} leaves no training rows")
    if n_train == panel.n_rows:
        raise ValueError(f"split {split_date} leaves no test rows")
    return panel.row_slice(range(n_train)), panel.row_slice(range(n_train, panel.n_rows))


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column min/max learned from training rows, in the column order of
    the matrix they were fitted on."""

    mins: np.ndarray
    maxs: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map a (rows, columns) matrix of the fitted columns, in fitted order, to [0, 1].

        Values outside the training range map outside [0, 1]; there is no clipping.
        """
        if x.shape[1] != self.mins.size:
            raise ValueError(f"expected {self.mins.size} columns to normalize, got {x.shape[1]}")
        return (x - self.mins) / (self.maxs - self.mins)

    def invert(self, z) -> np.ndarray:
        """Undo ``apply``; params fitted on one column also take that column as a vector."""
        return np.asarray(z, dtype=float) * (self.maxs - self.mins) + self.mins


def require_finite(values: np.ndarray, names, dates, where: str = "") -> None:
    """Reject a (rows, len(names)) matrix holding NaN or inf, naming the first bad cell.

    The earliest row wins, then the first column in ``names`` order.
    """
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"column {names[col]!r} is not finite at {where}{dates[row]}")


def normalize_fit(values: np.ndarray, names, dates) -> NormalizationParams:
    """Min/max per column of a (rows, len(names)) matrix; rejects non-finite columns,
    columns whose range overflows and constant columns, naming them by ``names``
    and ``dates``."""
    require_finite(values, names, dates)
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    with np.errstate(over="ignore"):
        spans = maxs - mins
    wide = [names[i] for i in np.flatnonzero(np.isinf(spans))]
    if wide:
        raise ValueError(f"columns whose range max - min overflows cannot be normalized: {wide}")
    flat = [names[i] for i in np.flatnonzero(spans <= 0.0)]
    if flat:
        raise ValueError(f"constant columns cannot be normalized: {flat}")
    return NormalizationParams(mins=mins, maxs=maxs)


# --- CSV external interfaces -------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename so readers never see partial output."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


# The last parse of each reader: parser -> (SHA-256 of the file's bytes, parts).
# A kept entry is replaced whole, by one assignment of an immutable tuple.
_last_parse: dict = {}


def _decode_text(path: str, data: bytes) -> str:
    r"""The text of a file's bytes: UTF-8 without a leading byte-order mark,
    with every line end (``\r\n``, a lone ``\r``) read as ``\n``, as text mode reads it.

    A byte sequence that is not UTF-8 is rejected as ``<path>: line N: not
    valid UTF-8``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start]  # a newline byte is never part of a longer sequence
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line}: not valid UTF-8") from None
    text = text.removeprefix("\ufeff")
    if "\r" in text:  # the scan is far cheaper than a replace of "\r\n" that finds none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _content_lines(path: str, data: bytes) -> list:
    """(line number, line) for every line of ``_decode_text(path, data)`` that
    is neither blank nor a ``#`` comment."""
    return [
        (no, line)
        for no, line in enumerate(_decode_text(path, data).split("\n"), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def _parse_once(path: str, parse) -> tuple:
    """``parse(path, numbered)`` of the file's ``_content_lines``, once per distinct content.

    The file is opened once, in binary mode; the digest of those bytes is the
    key, so a same-size rewrite within the mtime granularity is never served
    stale. A parse that raises keeps nothing.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).digest()
    kept = _last_parse.get(parse)
    if kept is not None and kept[0] == digest:
        return kept[1]
    numbered = _content_lines(path, data)
    del data  # released before the cells are converted
    parts = parse(path, numbered)
    _last_parse[parse] = (digest, parts)
    return parts


def read_panel_csv(path: str) -> FeaturePanel:
    """Read a panel CSV: header ``date,<name>...``, dates as YYYY-MM.

    Empty cells become NaN (missing, to be dropped at fuse time); any
    other unparsable cell is rejected with its line number and column.
    Content read before in this process is not parsed again: the panel
    shares the kept read-only matrix and month array, and gets its own
    name map and dates list.
    """
    values, names, dates, months = _parse_once(path, _parse_panel)
    return FeaturePanel._share(values, {n: j for j, n in enumerate(names.split(","))},
                               dates.split(","), months, {})


def _parse_panel(path: str, numbered: list) -> tuple:
    """(matrix, names, dates, month array); names and dates are each one
    ``,``-joined string, exact because neither can hold ``,`` or a newline."""
    if not numbered:
        raise ValueError(f"{path}: empty file")
    header_line_no, header_line = numbered[0]
    header = [h.strip() for h in header_line.split(",")]
    if not header or header[0] != "date":
        raise ValueError(
            f"{path}: line {header_line_no}: first header column must be 'date', got {header[:1]}"
        )
    names = header[1:]
    if not names:
        raise ValueError(f"{path}: line {header_line_no}: no data columns")
    dupes = sorted(name for name, count in Counter(names).items() if count > 1)
    if dupes:
        raise ValueError(f"{path}: line {header_line_no}: duplicate column names {dupes}")

    dates: list[str] = []
    months: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in numbered[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        date = cells[0].strip()
        try:
            month = month_index(date)
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None
        if months and month <= months[-1]:
            raise ValueError(f"{path}: line {lineno}: dates must be strictly increasing; "
                             f"{date!r} follows {dates[-1]!r}")
        try:  # float() ignores surrounding whitespace itself
            row = list(map(float, cells[1:]))
        except ValueError:  # a missing or bad cell: convert cell by cell
            row = []
            for name, cell in zip(names, cells[1:]):
                cell = cell.strip()
                if cell == "":
                    row.append(np.nan)
                    continue
                try:
                    row.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: non-numeric value {cell!r} in column {name!r}"
                    ) from None
        dates.append(date)
        months.append(month)
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)
    values.flags.writeable = False
    months = np.array(months, dtype=np.int64)
    months.flags.writeable = False
    return values, ",".join(names), ",".join(dates), months


def write_panel_csv(panel: FeaturePanel, path: str) -> None:
    """Write the canonical panel CSV."""
    lines = [",".join(["date", *panel.columns])]
    gaps = np.isnan(panel._values).any(axis=1).tolist()
    for date, row, gap in zip(panel.dates, panel._values.tolist(), gaps):
        if gap:  # a missing value is an empty cell
            lines.append(",".join([date] + ["" if math.isnan(v) else repr(v) for v in row]))
        else:
            lines.append(",".join([date, *map(repr, row)]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_tags_csv(path: str) -> dict[str, str]:
    """Read the provenance sidecar: header ``name,tag`` then one row per column.

    Content read before in this process is not parsed again; every call
    returns a new dict.
    """
    return dict(_parse_once(path, _parse_tags))


def _parse_tags(path: str, numbered: list) -> tuple:
    """The (name, tag) pairs in file order."""
    header_line_no, header_line = numbered[0] if numbered else (1, "")
    if [c.strip() for c in header_line.split(",")] != ["name", "tag"]:
        raise ValueError(f"{path}: line {header_line_no}: header must be 'name,tag'")
    tags: dict[str, str] = {}
    target = None
    for lineno, line in numbered[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'name,tag'")
        name, tag = cells
        if tag not in TAGS:
            raise ValueError(f"{path}: line {lineno}: unknown tag {tag!r}; expected one of {TAGS}")
        if name in tags:
            raise ValueError(f"{path}: line {lineno}: duplicate tag for column {name!r}")
        if tag == "target":
            if target is not None:
                raise ValueError(f"{path}: line {lineno}: second target column {name!r}; "
                                 f"{target!r} is already the target")
            target = name
        tags[name] = tag
    return tuple(tags.items())


def write_tags_csv(tags: dict[str, str], path: str) -> None:
    lines = ["name,tag"] + [f"{name},{tag}" for name, tag in tags.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")
