"""Monthly feature panels: the data structure every stage consumes.

A panel is an ordered set of named monthly series with a provenance tag
per column (economic | gsvi | target). Fragments read from CSV may carry
missing cells (as NaN); ``fuse`` inner-joins fragments on date and drops
incomplete rows, so downstream stages always see complete data. Row
order is the time axis: lag alignment counts rows, so a fused panel with
calendar gaps is flagged with a warning rather than silently shifted.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .numerics import check_rules, one_of

TAGS = ("economic", "gsvi", "target")
# dataset mode -> the indicator tags it reads: E(conomic), G(svi), H(ybrid)
MODES = {"E": ("economic",), "G": ("gsvi",), "H": ("economic", "gsvi")}

_MONTH_RE = re.compile(r"\d{4}-(0[1-9]|1[0-2])", re.ASCII)

RULES = {  # parameter -> (test of a valid value, stated rule)
    "month": ((lambda text: _MONTH_RE.fullmatch(text) is not None), "YYYY-MM with MM in 01..12"),
    "mode": one_of(tuple(MODES)),
}


def month_index(date: str) -> int:
    """Months since year 0 for a 'YYYY-MM' string; rejects malformed input."""
    check_rules(RULES, month=date)
    return int(date[:4]) * 12 + int(date[5:]) - 1


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
                count = column.shape[0] if column.ndim == 1 else "?"
                raise ValueError(f"column {name!r} has {count} values for {len(dates)} dates")
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
        check_rules(RULES, mode=mode)
        wanted = MODES[mode]
        return [name for name in self._positions if self.tags.get(name) in wanted]

    def matrix(self, names) -> np.ndarray:
        """The named columns as a new (n_rows, len(names)) matrix."""
        try:
            where = np.fromiter(map(self._positions.__getitem__, names), np.intp, len(names))
            return np.take(self._values, where, axis=1)
        except KeyError:  # one pass finds the columns; a second names every missing one
            missing = [n for n in names if n not in self._positions]
            raise ValueError(f"panel is missing columns: {missing}") from None

    def check_finite(self, names) -> None:
        """``require_finite(self.matrix(names), names, self.dates)``, gathering the
        named columns only when one of them holds NaN or inf: a column is
        finite when its least and greatest values are, and those are two
        reductions over the matrix with no temporary of its size."""
        values = self._values
        finite = np.isfinite(values.min(axis=0)) & np.isfinite(values.max(axis=0))
        where = [self._positions.get(name, -1) for name in names]
        if -1 in where or not finite[where].all():
            require_finite(self.matrix(names), names, self.dates)

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

    def apply(self, x: np.ndarray, out=None) -> np.ndarray:
        """Map a (rows, columns) matrix of the fitted columns, in fitted order, to [0, 1].

        Values outside the training range map outside [0, 1]; there is no
        clipping. One far enough outside a tiny range maps to +-inf, without a
        warning: the caller checks the result. The result is one new matrix,
        or ``out`` (``x`` itself, say) when given.
        """
        if x.shape[1] != self.mins.size:
            raise ValueError(f"expected {self.mins.size} columns to normalize, got {x.shape[1]}")
        with np.errstate(over="ignore"):
            normed = np.subtract(x, self.mins, out=out)
            normed /= self.maxs - self.mins
        return normed

    def invert(self, z) -> np.ndarray:
        """Undo ``apply``; params fitted on one column also take that column as a vector."""
        return np.asarray(z, dtype=float) * (self.maxs - self.mins) + self.mins


def require_finite(values: np.ndarray, names, dates, where: str = "") -> None:
    """Reject a (rows, len(names)) matrix holding NaN or inf, naming the first bad cell.

    A matrix that passes costs one scan in memory order; the first bad cell
    is looked for only when there is one. The earliest row wins, then the
    first column in ``names`` order.
    """
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
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


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` in order via a temp file and a rename,
    so readers never see partial output. A write that fails once the temp
    file is open removes it and re-raises."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename so readers never see partial output."""
    _atomic_write(path, (text,))


def _check_names(names, file: str, comment_first: bool = False) -> None:
    """Reject a column name that a read of ``file`` would not give back as itself:
    the reader strips each cell, splits cells at ``,`` and lines at a line end,
    and, with ``comment_first``, takes a line whose first cell is the name for a
    ``#`` comment."""
    for name in names:
        if name != name.strip():
            why = "leading or trailing whitespace, which the reader strips"
        elif "," in name:
            why = "',', which separates cells"
        elif "\n" in name or "\r" in name:
            why = "a line break, which ends a line"
        elif comment_first and name.startswith("#"):
            why = "a leading '#', which makes its line a comment"
        else:
            continue
        raise ValueError(f"column {name!r} cannot be written to a {file}: it has {why}")


# Bytes per read of a text file. A read holds about two pieces at once (a
# piece's bytes and their text) besides what it builds, whatever the file's
# size. 1 MiB pieces were slower (each piece's bytes and text were fresh
# mappings: a 5.3 MB panel parsed in about 1.6 times the time) and left more
# resident (freeing a mapping raises glibc's mmap threshold to its size, so
# later arrays below it stay on the heap): 0.5 MB more peak RSS in a
# paper_grid set-up, against none at 256 KiB.
READ_PIECE = 1 << 18

# The last parse of each reader: parser -> (key of the bytes it parsed, parts),
# the key as ``_fold`` builds it. A kept entry is replaced whole, by one
# assignment of an immutable tuple.
_last_parse: dict = {}


def _line_ends(data: bytes) -> int:
    r"""The line ends in ``data``: each ``\n``, ``\r\n`` and lone ``\r`` is one.
    numpy counts the ``\n`` bytes three times as fast as ``bytes.count``;
    ``\r`` is rare, so a scan for it comes first."""
    ends = int(np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n")))
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    return ends


def _fold(key: list, piece: bytes) -> None:
    """Fold the next piece of a file into ``key``, [length, hash] of the pieces
    so far, the hash chained from each piece's ``hash`` (SipHash under a key
    drawn per process). Both passes of ``_parse_once`` read the same pieces,
    so equal bytes give equal keys; different bytes give equal keys only on a
    64-bit collision."""
    key[0] += len(piece)
    key[1] = hash((key[1], piece))


def _file_key(fh) -> tuple:
    """The key of an open binary file's bytes (``_fold``), read ``READ_PIECE``
    bytes at a time from the start."""
    key = [0, 0]
    while piece := fh.read(READ_PIECE):
        _fold(key, piece)
    return tuple(key)


def _file_sizes(fh) -> tuple[int, int]:
    """(line count, byte count) of an open binary file, read ``READ_PIECE``
    bytes at a time from the start. A last line without a line end counts; an
    empty file has no lines."""
    ends, length, last = 0, 0, b""
    while piece := fh.read(READ_PIECE):
        length += len(piece)
        ends += _line_ends(piece) - (last == b"\r" and piece[:1] == b"\n")
        last = piece[-1:]
    return ends + (last not in (b"", b"\n", b"\r")), length


def _text_pieces(path: str, fh, key: list | None = None):
    r"""Yield the text of an open binary file, read ``READ_PIECE`` bytes at a
    time: UTF-8 without a leading byte-order mark, with every line end
    (``\r\n``, a lone ``\r``) read as ``\n``, as text mode reads it. Each
    piece of text but the last ends with ``\n``: a piece's bytes are decoded up
    to their last line end and the rest waits for the next piece, so neither a
    character nor a ``\r\n`` is ever cut. Each piece read is folded into
    ``key`` (``_fold``) when given.

    A byte sequence that is not UTF-8 is rejected as ``<path>: line N: not
    valid UTF-8``.
    """
    carry, line, more = b"", 1, True
    while more:
        piece = fh.read(READ_PIECE)
        more = bool(piece)
        if key is not None and more:
            _fold(key, piece)
        data = carry + piece
        del piece
        # before the end of the file, up to the last line end, except that a
        # final "\r" waits: a "\n" may follow it
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1 if more else len(data)
        if not cut:
            carry = data
            continue
        try:
            text = str(memoryview(data)[:cut], "utf-8")
        except UnicodeDecodeError as err:  # a line end is never part of a longer sequence
            raise ValueError(f"{path}: line {line + _line_ends(data[:err.start])}: "
                             f"not valid UTF-8") from None
        carry = data[cut:]
        del data
        if line == 1:  # the first piece: every later one follows a line end
            text = text.removeprefix("\ufeff")
        if "\r" in text:  # the scan is far cheaper than a replace of "\r\n" that finds none
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        line += text.count("\n")
        yield text
        del text  # before the next piece is read


def _content_lines(pieces):
    r"""Yield (line number, line) for every ``\n``-separated line of the text
    pieces that is neither blank nor a ``#`` comment, one line at a time. Each
    piece but the last ends with ``\n``, as ``_text_pieces`` yields them."""
    no = 1
    for text in pieces:
        start = 0
        while start < len(text):
            end = text.find("\n", start)
            if end < 0:
                end = len(text)
            line = text[start:end]
            stripped = line.strip()
            if stripped and stripped[0] != "#":
                yield no, line
            start, no = end + 1, no + 1
        del text  # before the next piece is decoded


def _file_lines(path: str):
    """The numbered content lines of the file at ``path`` (``_content_lines``)."""
    with open(path, "rb") as fh:
        yield from _content_lines(_text_pieces(path, fh))


def _read_text(path: str) -> str:
    """The whole text of the file at ``path``, decoded as every reader decodes it."""
    with open(path, "rb") as fh:
        return "".join(_text_pieces(path, fh))


def _parse_once(path: str, parse, sized: bool = False) -> tuple:
    """``parse(path, numbered)`` of the file's ``_content_lines``, once per
    distinct content; when ``sized``, ``parse(path, numbered, lines, length)``
    with the file's line and byte counts (``_file_sizes``).

    The file is opened once, in binary mode. A first pass over its pieces
    computes the key: the length of its bytes and a hash built from the
    pieces (``_fold``). A kept parse with that key is returned as it is.
    Otherwise, after the counting pass when ``sized``, a last pass decodes
    the pieces one at a time into the parse, which reads every line, and
    the key kept with the result is computed again from the bytes that pass
    read: a file rewritten between the passes is kept under the key of what
    was parsed, not of what was first seen. No pass holds more than about
    two pieces of the file, and nothing of it is kept but the key. A parse
    that raises keeps nothing.
    """
    with open(path, "rb") as fh:
        key = _file_key(fh)
        kept = _last_parse.get(parse)
        if kept is not None and kept[0] == key:
            return kept[1]
        fh.seek(0)
        sizes = _file_sizes(fh) if sized else ()
        fh.seek(0)
        parsed = [0, 0]
        parts = parse(path, _content_lines(_text_pieces(path, fh, parsed)), *sizes)
    key = tuple(parsed)
    _last_parse[parse] = (key, parts)
    return parts


def read_panel_csv(path: str) -> FeaturePanel:
    """Read a panel CSV: header ``date,<name>...``, dates as YYYY-MM.

    Empty cells become NaN (missing, to be dropped at fuse time); any
    other unparsable cell is rejected with its line number and column.
    Content read before in this process is not parsed again: the panel
    shares the kept read-only matrix and month array, and gets its own
    name map and dates list.

    The file is read in ``READ_PIECE`` pieces (``_parse_once``) and its
    rows are parsed straight into one float64 matrix, allocated once for
    the file's line count: a read holds about two pieces of the file, the
    matrix and one row of Python objects. A file larger than a piece
    reports the first of its errors in file order; a smaller one reports a
    byte that is not UTF-8 before any other error.
    """
    values, names, dates, months = _parse_once(path, _parse_panel, sized=True)
    return FeaturePanel._share(values, {n: j for j, n in enumerate(names.split(","))},
                               dates.split(","), months, {})


def _parse_panel(path: str, numbered, lines: int, length: int) -> tuple:
    """(matrix, names, dates, month array) from an iterator of numbered lines
    of a file counted at ``lines`` lines and ``length`` bytes; names and dates
    are each one ``,``-joined string, exact because neither can hold ``,`` or
    a newline. One string
    each, not a tuple of the parsed strings: those are scattered among the
    parse's temporary objects, and keeping them alive would keep their
    allocator arenas too (3.5 MB more peak RSS at 1200 x 200). Each row is
    converted as it is read into the next row of the matrix, which has a row
    for every line after the header that could hold one."""
    header_line_no, header_line = next(numbered, (None, None))
    if header_line is None:
        raise ValueError(f"{path}: empty file")
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

    # a row for every later line, but no more than the bytes could hold: a
    # data line has a 7-character date, a ',' per name and, but for the
    # last, a line end; none when the counts are of a file since rewritten
    values = np.empty((max(0, min(lines - header_line_no, (length + 1) // (len(names) + 8))),
                       len(names)))
    dates: list[str] = []
    months: list[int] = []
    for lineno, line in numbered:
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
        del cells[0]
        i = len(dates)
        if i == values.shape[0]:  # the file grew after its lines were counted
            values.resize((2 * i + 1, len(names)), refcheck=False)
        try:  # float() ignores surrounding whitespace itself
            values[i] = np.fromiter(map(float, cells), dtype=float, count=len(names))
        except ValueError:  # a missing or bad cell: convert cell by cell
            for j, (name, cell) in enumerate(zip(names, cells)):
                cell = cell.strip()
                if cell == "":
                    values[i, j] = np.nan
                    continue
                try:
                    values[i, j] = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: non-numeric value {cell!r} in column {name!r}"
                    ) from None
        dates.append(date)
        months.append(month)
    if not dates:
        raise ValueError(f"{path}: no data rows")
    if len(dates) < values.shape[0]:  # blank or comment lines: give their rows back
        values.resize((len(dates), len(names)), refcheck=False)
    values.flags.writeable = False
    months = np.array(months, dtype=np.int64)
    months.flags.writeable = False
    return values, ",".join(names), ",".join(dates), months


def _panel_lines(panel: FeaturePanel):
    """The lines of the panel CSV, each with its line end, formatted one row at a time."""
    yield ",".join(["date", *panel._positions]) + "\n"
    for date, row in zip(panel.dates, panel._values):
        cells = row.tolist()
        if np.isnan(row).any():  # a missing value is an empty cell
            yield ",".join([date] + ["" if math.isnan(v) else repr(v) for v in cells]) + "\n"
        else:
            yield ",".join([date, *map(repr, cells)]) + "\n"


def write_panel_csv(panel: FeaturePanel, path: str) -> None:
    """Write the canonical panel CSV, one row at a time: beyond the panel, the
    write holds about one row of Python objects.

    A column name that would not read back as itself is rejected before the
    file is opened.
    """
    _check_names(panel._positions, "panel CSV")
    _atomic_write(path, _panel_lines(panel))


def read_tags_csv(path: str) -> dict[str, str]:
    """Read the provenance sidecar: header ``name,tag`` then one row per column.

    Content read before in this process is not parsed again; every call
    returns a new dict.
    """
    return dict(_parse_once(path, _parse_tags))


def _parse_tags(path: str, numbered) -> tuple:
    """The (name, tag) pairs in file order, from an iterator of numbered lines."""
    header_line_no, header_line = next(numbered, (1, ""))
    if [c.strip() for c in header_line.split(",")] != ["name", "tag"]:
        raise ValueError(f"{path}: line {header_line_no}: header must be 'name,tag'")
    tags: dict[str, str] = {}
    target = None
    for lineno, line in numbered:
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
    """Write the provenance sidecar; a column name that would not read back as
    itself is rejected before the file is opened."""
    _check_names(tags, "tags CSV", comment_first=True)
    lines = ["name,tag"] + [f"{name},{tag}" for name, tag in tags.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")
