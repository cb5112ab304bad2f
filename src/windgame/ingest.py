"""Load, clean, normalize and time-align historic wind and demand series.

Gaps are dropped and reported, never interpolated: the downstream sampler is
the mechanism that papers over missing history, so ingestion must not invent
values. Input resolution is fixed at one hour; sub-hourly files are rejected.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import IngestError


_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


def _parse_iso_timestamp(raw: str) -> int:
    """Parse an ISO-8601 timestamp to whole seconds since the UTC epoch,
    truncated to the second; a timestamp without an offset is UTC."""
    text = raw.strip()
    if text.endswith(("Z", "z")):  # 3.11's fromisoformat rejects a lowercase z
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return (dt - _EPOCH) // _SECOND


# The canonical stamp: "0" marks an ASCII digit, anything else a literal
# separator. Its 14 digits pair up as century, year of century, month, day,
# hour, minute and second.
_CANONICAL = "0000-00-00T00:00:00"
_DIGIT_AT = [i for i, c in enumerate(_CANONICAL) if c == "0"]
_SEPARATOR_AT = [i for i, c in enumerate(_CANONICAL) if c != "0"]
_SEPARATORS = np.array([[ord(_CANONICAL[i])] for i in _SEPARATOR_AT], dtype=np.uint32)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _parse_each(parse, cells: list[str], rows, out: np.ndarray) -> list[int]:
    """``out[i] = parse(cells[i])`` for each i in ``rows``; returns the rows
    whose cell ``parse`` rejected with ValueError or OverflowError (the
    latter: a stamp whose offset takes it out of range in UTC)."""
    rejected = []
    for i in rows:
        try:
            out[i] = parse(cells[i])
        except (ValueError, OverflowError):
            rejected.append(i)
    return rejected


def _epoch_seconds(cells: list[str]) -> tuple[np.ndarray, list[int]]:
    """``_parse_iso_timestamp`` over a column: seconds since the UTC epoch per
    cell, and the cells it rejected.

    A canonical cell (exactly ``YYYY-MM-DDTHH:MM:SS`` in ASCII digits, a valid
    date and time of day) is read with integer array arithmetic (days from the
    civil date); every other cell, a canonical shape out of range included,
    goes through ``_parse_iso_timestamp``, the one authority on the rest. The
    length comes from each ``str``: a numpy string array drops trailing NULs.
    """
    n, width = len(cells), len(_CANONICAL)
    # one row per character position, one column per cell
    code = np.array(cells, dtype=f"U{width}").view(np.uint32).reshape(n, width).T
    digits = code[_DIGIT_AT].astype(np.int64) - ord("0")
    canonical = ((np.fromiter(map(len, cells), np.intp, n) == width)
                 & (code[_SEPARATOR_AT] == _SEPARATORS).all(axis=0)
                 & ((digits >= 0) & (digits <= 9)).all(axis=0))
    century, year, month, day, hour, minute, second = digits[0::2] * 10 + digits[1::2]
    year += century * 100
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + ((month == 2) & leap)
    canonical &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
                  & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60))
    y = year - (month <= 2)  # years counted from March, so leap days come last
    era, year_of_era = np.divmod(y, 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100
            + day_of_year - 719468)  # 0 on 1970-01-01
    stamps = days * 86400 + hour * 3600 + minute * 60 + second
    return stamps, _parse_each(_parse_iso_timestamp, cells,
                               np.flatnonzero(~canonical).tolist(), stamps)


# Rows whose cells are held as strings at once: each block is parsed into
# arrays before the next is read, so a long file never holds all its cells
# as Python objects, whose memory the allocator keeps once they are freed
# (all 17.5k rows of one shipped wind file at once left ~3 MB more resident).
_BLOCK_ROWS = 2048


def _cell_blocks(reader, i_ts: int, i_val: int, dropped: dict):
    """The timestamp and value cells of each row long enough to hold both, in
    blocks of at most ``_BLOCK_ROWS`` rows; a shorter row counts as missing."""
    last = max(i_ts, i_val)
    ts_cells, val_cells = [], []
    for row in reader:
        if len(row) > last:
            ts_cells.append(row[i_ts])
            val_cells.append(row[i_val])
            if len(ts_cells) == _BLOCK_ROWS:
                yield ts_cells, val_cells
                ts_cells, val_cells = [], []
        elif row:  # a blank line is no row
            dropped["missing"] += 1
    yield ts_cells, val_cells


def _parse_block(ts_cells: list[str], val_cells: list[str],
                 dropped: dict) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds and values of the block's rows that parse to a finite,
    nonnegative value, in row order; the other rows are counted in ``dropped``."""
    stamps, rejected = _epoch_seconds(ts_cells)
    values = np.empty(len(val_cells))
    rejected += _parse_each(float, val_cells, range(len(val_cells)), values)
    parsed = np.ones(len(values), dtype=bool)
    parsed[rejected] = False
    rejected = np.flatnonzero(~parsed).tolist()
    # a whitespace-only cell fails both parsers, so only a rejected row can hold one
    missing = sum(1 for i in rejected if not ts_cells[i].strip() or not val_cells[i].strip())
    keep = parsed & np.isfinite(values) & (values >= 0.0)
    dropped["missing"] += missing
    dropped["unparseable"] += len(rejected) - missing
    dropped["invalid"] += len(values) - len(rejected) - int(np.count_nonzero(keep))
    return stamps[keep], values[keep]


@dataclass(frozen=True)
class GapReport:
    """Counts of rows removed while loading one CSV series."""

    label: str
    rows_read: int
    rows_kept: int
    dropped_missing: int = 0
    dropped_unparseable: int = 0
    dropped_invalid: int = 0
    dropped_duplicate: int = 0

    @property
    def dropped_total(self) -> int:
        return (self.dropped_missing + self.dropped_unparseable
                + self.dropped_invalid + self.dropped_duplicate)

    def summary(self) -> str:
        return (f"{self.label}: read {self.rows_read} rows, kept {self.rows_kept} "
                f"(dropped: {self.dropped_missing} missing, "
                f"{self.dropped_unparseable} unparseable, "
                f"{self.dropped_invalid} invalid, "
                f"{self.dropped_duplicate} duplicate timestamps)")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One hourly-resolution series, strictly increasing in time.

    Values must be finite and nonnegative (wind speed in m/s, demand in MW).
    """

    timestamps: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1 or vals.ndim != 1 or len(ts) != len(vals):
            raise IngestError(f"{self.label}: timestamps and values must be "
                              f"1-D arrays of equal length")
        if len(ts) == 0:
            raise IngestError(f"{self.label}: series is empty")
        if len(ts) > 1 and not np.all(np.diff(ts) > np.timedelta64(0, "s")):
            raise IngestError(f"{self.label}: timestamps must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise IngestError(f"{self.label}: values must be finite")
        if np.any(vals < 0.0):
            raise IngestError(f"{self.label}: values must be nonnegative")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return float(self.values.mean())

    def coverage(self) -> str:
        return f"{self.timestamps[0]} .. {self.timestamps[-1]} ({len(self)} rows)"


@dataclass(frozen=True, eq=False)
class JointSeries:
    """Time-aligned triples (w1, w2, demand) over a common set of instants."""

    timestamps: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    p_d: np.ndarray

    def __post_init__(self):
        n = len(self.timestamps)
        if n == 0:
            raise IngestError("joint series is empty")
        for name in ("w1", "w2", "p_d"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise IngestError(f"joint series field {name} has mismatched length")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise IngestError(f"joint series field {name} must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.timestamps)

    def means(self) -> tuple[float, float, float]:
        """Historic means (mu_w1, mu_w2, mu_pd) of the aligned record."""
        return (float(self.w1.mean()), float(self.w2.mean()), float(self.p_d.mean()))


def load_series_csv(path: str | Path,
                    column_map: Mapping[str, str],
                    label: str | None = None) -> tuple[TimeSeries, GapReport]:
    """Load one hourly series from a CSV file.

    ``column_map`` binds the roles ``timestamp`` and ``value`` to header
    names. Rows with missing cells, unparseable fields, or negative or
    non-finite values are dropped and counted in the returned report; among
    duplicated timestamps the first occurrence wins. Raises
    :class:`IngestError` for a missing file, a file that is not UTF-8 CSV,
    absent columns, no valid rows, or sub-hourly sampling.
    """
    path = Path(path)
    try:
        ts_col = column_map["timestamp"]
        val_col = column_map["value"]
    except KeyError as exc:
        raise IngestError(f"column_map must bind 'timestamp' and 'value'; missing {exc}") from None
    if label is None:
        label = val_col

    if not path.is_file():
        raise IngestError(f"{label}: file not found: {path}")

    dropped = dict.fromkeys(("missing", "unparseable", "invalid"), 0)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            columns = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
            for needed in (ts_col, val_col):
                if needed not in columns:
                    raise IngestError(f"{label}: column '{needed}' not in header "
                                      f"{header} of {path}")
            blocks = [_parse_block(ts_cells, val_cells, dropped) for ts_cells, val_cells
                      in _cell_blocks(reader, columns[ts_col], columns[val_col], dropped)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"{label}: cannot read {path}: {exc}") from None
    stamps, values = (np.concatenate(arrays) for arrays in zip(*blocks))
    rows_read = len(stamps) + sum(dropped.values())  # every nonblank row is kept or dropped

    if len(stamps) == 0:
        raise IngestError(f"{label}: no valid rows in {path} "
                          f"({rows_read} read, all dropped)")

    timestamps, first = np.unique(stamps.view("datetime64[s]"),
                                  return_index=True)  # the first row of each timestamp
    dropped["duplicate"] = len(stamps) - len(first)

    if len(timestamps) > 1 and np.diff(timestamps).min() < np.timedelta64(1, "h"):
        raise IngestError(f"{label}: sub-hourly sampling detected in {path}; "
                          f"this pipeline is hourly only")

    return (TimeSeries(timestamps=timestamps, values=values[first], label=label),
            GapReport(label=label, rows_read=rows_read, rows_kept=len(first),
                      **{f"dropped_{reason}": n for reason, n in dropped.items()}))


def normalize_demand(series: TimeSeries, target_mean: float) -> TimeSeries:
    """Scale a demand series so its mean equals ``target_mean``.

    A single global factor preserves the demand profile's shape.
    """
    if target_mean <= 0.0:
        raise IngestError(f"{series.label}: target mean must be positive, got {target_mean}")
    current = series.mean()
    if current <= 0.0:
        raise IngestError(f"{series.label}: cannot normalize a series with mean {current}")
    scale = target_mean / current
    return TimeSeries(timestamps=series.timestamps,
                      values=series.values * scale,
                      label=series.label)


def align_series(w1: TimeSeries, w2: TimeSeries, demand: TimeSeries) -> JointSeries:
    """Inner-join three series on timestamp, preserving time order.

    Only instants present in all three inputs survive. An empty intersection
    raises :class:`IngestError` with per-series coverage statistics.
    """
    # each series is strictly increasing, so no input needs de-duplicating
    common = np.intersect1d(w1.timestamps, w2.timestamps, assume_unique=True)
    common = np.intersect1d(common, demand.timestamps, assume_unique=True)
    if len(common) == 0:
        detail = "; ".join(s.coverage() for s in (w1, w2, demand))
        raise IngestError(f"no common timestamps across inputs ({detail})")

    def pick(series: TimeSeries) -> np.ndarray:
        idx = np.searchsorted(series.timestamps, common)
        return series.values[idx]

    return JointSeries(timestamps=common, w1=pick(w1), w2=pick(w2), p_d=pick(demand))
