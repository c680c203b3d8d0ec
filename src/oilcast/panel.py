"""Monthly feature panels: the data structure every stage consumes.

A panel is an ordered set of named monthly series with a provenance tag
per column (economic | gsvi | target). Fragments read from CSV may carry
missing cells (as NaN); ``fuse`` inner-joins fragments on date and drops
incomplete rows, so downstream stages always see complete data. Row
order is the time axis: lag alignment counts rows, so a fused panel with
calendar gaps is flagged with a warning rather than silently shifted.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

TAGS = ("economic", "gsvi", "target")

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


def month_index(date: str) -> int:
    """Months since year 0 for a 'YYYY-MM' string; rejects malformed input."""
    m = _MONTH_RE.match(date)
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


@dataclass
class FeaturePanel:
    """Named monthly series sharing one date axis.

    ``columns`` preserves insertion order; ``tags`` maps every column to
    its provenance. NaN entries are allowed only in pre-fuse fragments.
    """

    dates: list[str]
    columns: dict[str, np.ndarray] = field(repr=False)
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        indices = [month_index(d) for d in self.dates]
        for i in range(1, len(indices)):
            if indices[i] <= indices[i - 1]:
                raise ValueError(
                    f"dates must be strictly increasing; {self.dates[i]!r} follows "
                    f"{self.dates[i - 1]!r}"
                )
        n = len(self.dates)
        clean = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != (n,):
                raise ValueError(
                    f"column {name!r} has {arr.shape[0] if arr.ndim == 1 else '?'} values "
                    f"for {n} dates"
                )
            clean[name] = arr
        self.columns = clean
        for name, tag in self.tags.items():
            if name not in self.columns:
                raise ValueError(f"tag given for unknown column {name!r}")
            if tag not in TAGS:
                raise ValueError(f"unknown tag {tag!r} for column {name!r}; expected one of {TAGS}")
        targets = [name for name, tag in self.tags.items() if tag == "target"]
        if len(targets) > 1:
            raise ValueError(f"multiple target columns: {targets}")

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
        """Indicator columns for a dataset mode: E(conomic), G(svi), H(ybrid)."""
        wanted = {"E": ("economic",), "G": ("gsvi",), "H": ("economic", "gsvi")}.get(mode)
        if wanted is None:
            raise ValueError(f"unknown dataset mode {mode!r}; expected E, G or H")
        return [name for name in self.columns if self.tags.get(name) in wanted]

    def matrix(self, names) -> np.ndarray:
        """Columns stacked as a (n_rows, len(names)) matrix."""
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise ValueError(f"panel is missing columns: {missing}")
        return np.column_stack([self.columns[n] for n in names])

    def row_slice(self, rows) -> FeaturePanel:
        """New panel restricted to the given row indices/slice."""
        idx = np.arange(self.n_rows)[rows]
        return FeaturePanel(
            dates=[self.dates[i] for i in idx],
            columns={name: values[idx] for name, values in self.columns.items()},
            tags=dict(self.tags),
        )

    def select(self, names) -> FeaturePanel:
        """New panel keeping only the named columns, in the given order."""
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise ValueError(f"panel is missing columns: {missing}")
        return FeaturePanel(
            dates=list(self.dates),
            columns={n: self.columns[n] for n in names},
            tags={n: self.tags[n] for n in names if n in self.tags},
        )

    def calendar_gap(self) -> tuple[str, str] | None:
        """The first pair of adjacent rows that are not consecutive months, if any."""
        idx = [month_index(d) for d in self.dates]
        for i in range(len(idx) - 1):
            if idx[i + 1] - idx[i] != 1:
                return self.dates[i], self.dates[i + 1]
        return None


def fuse(fragments) -> FeaturePanel:
    """Inner-join fragments on date and drop rows with missing values.

    Column names must be globally unique across fragments. Warns when the
    surviving rows are not calendar-contiguous, because lag alignment
    downstream counts rows, not months.
    """
    fragments = list(fragments)
    if not fragments:
        raise ValueError("fuse needs at least one fragment")
    seen: dict[str, int] = {}
    duplicates = []
    for i, frag in enumerate(fragments):
        for name in frag.columns:
            if name in seen:
                duplicates.append(name)
            seen[name] = i
    if duplicates:
        raise ValueError(f"duplicate column names across fragments: {sorted(set(duplicates))}")

    common = set(fragments[0].dates)
    for frag in fragments[1:]:
        common &= set(frag.dates)
    if not common:
        raise ValueError("empty intersection of dates across fragments")
    dates = sorted(common, key=month_index)

    columns: dict[str, np.ndarray] = {}
    tags: dict[str, str] = {}
    for frag in fragments:
        pos = {d: i for i, d in enumerate(frag.dates)}
        rows = [pos[d] for d in dates]
        for name, values in frag.columns.items():
            columns[name] = values[rows]
            if name in frag.tags:
                tags[name] = frag.tags[name]

    stacked = np.column_stack(list(columns.values()))
    keep = ~np.isnan(stacked).any(axis=1)
    if not keep.any():
        raise ValueError("all joined rows contain missing values")
    dates = [d for d, k in zip(dates, keep) if k]
    columns = {name: values[keep] for name, values in columns.items()}
    fused = FeaturePanel(dates=dates, columns=columns, tags=tags)
    if fused.calendar_gap() is not None:
        warnings.warn(
            "fused panel has calendar gaps; lag alignment will treat rows as consecutive",
            stacklevel=2,
        )
    return fused


def train_test_split(panel: FeaturePanel, split_date: str) -> tuple[FeaturePanel, FeaturePanel]:
    """Rows dated on or before ``split_date`` go to train, the rest to test."""
    cut = month_index(split_date)
    train_rows = [i for i, d in enumerate(panel.dates) if month_index(d) <= cut]
    # dates strictly increase, so the training rows are a prefix
    test_rows = range(len(train_rows), panel.n_rows)
    if not train_rows:
        raise ValueError(f"split {split_date} leaves no training rows")
    if not test_rows:
        raise ValueError(f"split {split_date} leaves no test rows")
    return panel.row_slice(train_rows), panel.row_slice(test_rows)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column min/max learned from training rows.

    ``positions`` maps each name to its index in ``names``, ``mins`` and
    ``maxs``; it is built once, so finding a column costs O(1).
    """

    names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "positions", {name: i for i, name in enumerate(self.names)})

    def position(self, name: str) -> int:
        try:
            return self.positions[name]
        except KeyError:
            raise ValueError(f"no normalization parameters for column {name!r}") from None

    def column(self, name: str) -> tuple[float, float]:
        i = self.position(name)
        return float(self.mins[i]), float(self.maxs[i])

    def apply(self, x: np.ndarray, names) -> np.ndarray:
        """Map a (rows, len(names)) matrix to [0, 1] on the training range, by column.

        Values outside the training range map outside [0, 1]; there is no clipping.
        """
        idx = [self.position(name) for name in names]
        lo = self.mins[idx]
        return (x - lo) / (self.maxs[idx] - lo)


def require_finite(values: np.ndarray, names, dates, where: str = "") -> None:
    """Reject a (rows, len(names)) matrix holding NaN or inf, naming the first bad cell.

    The earliest row wins, then the first column in ``names`` order.
    """
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"column {names[col]!r} is not finite at {where}{dates[row]}")


def normalize_fit(panel: FeaturePanel) -> NormalizationParams:
    """Min/max per column over the panel's rows; rejects non-finite and constant columns."""
    names = list(panel.columns)
    values = panel.matrix(names)
    require_finite(values, names, panel.dates)
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    flat = [names[i] for i in np.flatnonzero(maxs - mins <= 0.0)]
    if flat:
        raise ValueError(f"constant columns cannot be normalized: {flat}")
    return NormalizationParams(names=tuple(names), mins=mins, maxs=maxs)


def normalize_invert(params: NormalizationParams, name: str, values) -> np.ndarray:
    """Undo the min-max map for one column."""
    lo, hi = params.column(name)
    return np.asarray(values, dtype=float) * (hi - lo) + lo


# --- CSV external interfaces -------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename so readers never see partial output."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _format_value(v: float) -> str:
    return "" if np.isnan(v) else repr(float(v))


def read_panel_csv(path: str) -> FeaturePanel:
    """Read a panel CSV: header ``date,<name>...``, dates as YYYY-MM.

    Empty cells become NaN (missing, to be dropped at fuse time); any
    other unparsable cell is rejected with its line number and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        numbered = [
            (no, ln.rstrip("\n"))
            for no, ln in enumerate(fh, start=1)
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
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
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ValueError(f"{path}: line {header_line_no}: duplicate column names {dupes}")

    dates: list[str] = []
    rows: list[list[float]] = []
    for lineno, line in numbered[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        try:
            month_index(cells[0])
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None
        row = []
        for name, cell in zip(names, cells[1:]):
            if cell == "":
                row.append(np.nan)
                continue
            try:
                row.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric value {cell!r} in column {name!r}"
                ) from None
        dates.append(cells[0])
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)
    try:
        return FeaturePanel(
            dates=dates, columns={n: values[:, j] for j, n in enumerate(names)}
        )
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_panel_csv(panel: FeaturePanel, path: str) -> None:
    """Write the canonical panel CSV."""
    names = list(panel.columns)
    lines = [",".join(["date"] + names)]
    for i, date in enumerate(panel.dates):
        cells = [date] + [_format_value(panel.columns[n][i]) for n in names]
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_tags_csv(path: str) -> dict[str, str]:
    """Read the provenance sidecar: header ``name,tag`` then one row per column."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or [c.strip() for c in lines[0].split(",")] != ["name", "tag"]:
        raise ValueError(f"{path}: line 1: header must be 'name,tag'")
    tags: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'name,tag'")
        name, tag = cells
        if tag not in TAGS:
            raise ValueError(f"{path}: line {lineno}: unknown tag {tag!r}; expected one of {TAGS}")
        if name in tags:
            raise ValueError(f"{path}: line {lineno}: duplicate tag for column {name!r}")
        tags[name] = tag
    return tags


def write_tags_csv(tags: dict[str, str], path: str) -> None:
    lines = ["name,tag"] + [f"{name},{tag}" for name, tag in tags.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")
