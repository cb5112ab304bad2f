"""Load, clean, normalize and time-align historic wind and demand series.

Gaps are dropped and reported, never interpolated: the downstream sampler is
the mechanism that papers over missing history, so ingestion must not invent
values. Input resolution is fixed at one hour; sub-hourly files are rejected.
Two tokenizers only split a CSV file (numpy for plain ASCII, ``csv.reader`` for
the rest); one parser takes each block of cells as UTF-8 bytes and offsets,
reads both columns by one cast rule (``_read_column``), and counts every row it
drops.
"""
from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IngestError


_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


def _parse_iso_timestamp(raw: str) -> int:
    """Parse an ISO-8601 timestamp to whole seconds since the UTC epoch,
    truncated to the second; a timestamp without an offset is UTC. A NUL is
    refused anywhere, as in a value cell (3.11's fromisoformat accepts one
    trailing NUL)."""
    if "\0" in raw:
        raise ValueError(f"NUL in timestamp {raw!r}")
    text = raw.strip()
    if text.endswith(("Z", "z")):  # 3.11's fromisoformat rejects a lowercase z
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return (dt - _EPOCH) // _SECOND


# The canonical stamp: "0" marks an ASCII digit, anything else a literal
# separator.
_CANONICAL = "0000-00-00T00:00:00"
_DIGIT_AT = [i for i, c in enumerate(_CANONICAL) if c == "0"]
_SEPARATOR_AT = [i for i, c in enumerate(_CANONICAL) if c != "0"]
_SEPARATORS = np.array([ord(_CANONICAL[i]) for i in _SEPARATOR_AT], dtype=np.uint8)


def _canonical(cells: np.ndarray) -> np.ndarray:
    """Which rows of ``cells`` read exactly ``YYYY-MM-DDTHH:MM:SS`` in ASCII
    digits, year 0001 or later."""
    digits = cells[:, _DIGIT_AT]
    return ((cells[:, _SEPARATOR_AT] == _SEPARATORS).all(axis=1)
            & ((digits >= ord("0")) & (digits <= ord("9"))).all(axis=1)
            & (digits[:, :4] != ord("0")).any(axis=1))  # fromisoformat refuses year 0000


def _any_value(cells: np.ndarray) -> np.ndarray:
    return np.ones(len(cells), dtype=bool)


_VALUE_WIDTH = 32  # the widest value cell that one cast parses


def _read_column(data: bytes, start: np.ndarray, end: np.ndarray, width: int,
                 shape, dtype, authority) -> tuple[np.ndarray, list[int]]:
    """Each cell ``data[start[i]:end[i]]`` (UTF-8) as ``authority`` reads it,
    and the rows it refuses (ValueError, or OverflowError for a stamp whose
    offset takes it out of range in UTC).

    A nonempty cell of at most ``width`` bytes, NUL-padded to ``width``, that
    passes ``shape`` goes through one cast to ``dtype``; ``authority`` reads
    every other cell, a cell whose ``width`` bytes would pass the end of
    ``data`` among them, and every cell of a block where the cast refuses a
    cell or a cell holds a NUL (the cast would take it as the cell's end).
    """
    length = end - start
    out = np.empty(len(start), dtype)
    cast = (length > 0) & (length <= width) & (start <= len(data) - width)
    if cast.any():
        cells = sliding_window_view(np.frombuffer(data, np.uint8), width)[start[cast]]
        if (length[cast] < width).any():  # row n of the triangle keeps n bytes
            cells *= np.tri(width + 1, width, -1, dtype=np.uint8)[length[cast]]
        fits = shape(cells)
        if not fits.all():
            cast[cast] = fits
            cells = cells[fits]
        try:
            if np.count_nonzero(cells) != length[cast].sum():
                raise ValueError("NUL in a cell")
            out[cast] = cells.view(f"S{width}")[:, 0].astype(dtype)
        except ValueError:
            cast[:] = False
    rejected = []
    for i in np.flatnonzero(~cast).tolist():
        try:
            out[i] = authority(data[start[i]:end[i]].decode())
        except (ValueError, OverflowError):
            rejected.append(i)
    return out, rejected


def _parse_cells(data: bytes, ts_start: np.ndarray, ts_end: np.ndarray,
                 val_start: np.ndarray, val_end: np.ndarray,
                 dropped: dict) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and values of a block's rows that parse to a finite,
    nonnegative value, in row order; the other rows are counted in ``dropped``.
    Row i's timestamp cell is ``data[ts_start[i]:ts_end[i]]`` and its value
    cell ``data[val_start[i]:val_end[i]]``, both UTF-8."""
    stamps, rejected_stamps = _read_column(data, ts_start, ts_end, len(_CANONICAL),
                                           _canonical, "datetime64[s]", _parse_iso_timestamp)
    values, rejected = _read_column(data, val_start, val_end, _VALUE_WIDTH,
                                    _any_value, np.float64, float)
    parsed = np.ones(len(values), dtype=bool)
    parsed[rejected_stamps + rejected] = False
    rejected = np.flatnonzero(~parsed).tolist()
    # a whitespace-only cell fails both parsers, so only a rejected row can hold one
    missing = sum(1 for i in rejected if not (data[ts_start[i]:ts_end[i]].decode().strip()
                                              and data[val_start[i]:val_end[i]].decode().strip()))
    keep = parsed & np.isfinite(values) & (values >= 0.0)
    dropped["missing"] += missing
    dropped["unparseable"] += len(rejected) - missing
    dropped["invalid"] += len(values) - len(rejected) - int(np.count_nonzero(keep))
    return stamps[keep], values[keep]


# Rows parsed at once, by either tokenizer: a block's gathered bytes are freed
# before the next block is read (one shipped wind file parsed whole peaked at
# 7.3 MB under tracemalloc, against 2.0 MB in blocks), and a cast that refuses
# one cell sends at most this many to the per-cell parser.
_BLOCK_ROWS = 2048


def _csv_blocks(reader, i_ts: int, i_val: int):
    """``csv.reader``'s rows as ``_parse_cells`` takes them, per block of at
    most ``_BLOCK_ROWS`` rows: each row's timestamp and value cells in UTF-8,
    one after the other in one buffer, and their offsets in it. A cell that a
    short row lacks is empty."""
    pad = [""] * (max(i_ts, i_val) + 1)

    def block():  # cell j spans bounds[j]:bounds[j + 1]
        text = "".join(cells)  # one encode per block: cell by cell, loads took ~30% longer
        sizes = map(len, cells if text.isascii() else map(str.encode, cells))
        bounds = np.zeros(len(cells) + 1, np.int64)
        np.cumsum(np.fromiter(sizes, np.int64, len(cells)), out=bounds[1:])
        return text.encode(), bounds[:-1:2], bounds[1::2], bounds[1::2], bounds[2::2]

    cells = []
    for row in filter(None, reader):  # a blank line is no row
        if len(row) < len(pad):
            row += pad[len(row):]
        cells += row[i_ts], row[i_val]
        if len(cells) == 2 * _BLOCK_ROWS:
            yield block()
            cells = []
    yield block()


def _array_rows(data: bytes):
    """``csv.reader``'s rows of ``data`` as arrays: its header, then a function
    of the timestamp and value columns that yields ``_parse_cells``' arguments
    per block of rows, the cells' offsets into ``data`` itself. Each line ends
    at an LF, less a CR just before it; an empty line is no row; a line's cells
    lie between its commas, and a cell that a short row lacks is empty, at the
    line's end. None unless ``csv.reader`` would split ``data`` exactly so:
    ``data`` is ASCII, holds no quote and no NUL, has an LF just after every
    CR, and no line longer than csv's field limit (a field is never longer
    than its line)."""
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    feeds = np.flatnonzero(buf == ord("\n"))
    starts, ends = np.append(0, feeds + 1), np.append(feeds, len(data))
    crlf = (buf[feeds - 1] == ord("\r")) & (feeds > 0)
    if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(crlf) \
            or (ends - starts).max() > csv.field_size_limit():
        return None
    ends[:-1] -= crlf
    header = data[starts[0]:ends[0]].decode("ascii")
    nonblank = np.flatnonzero(ends[1:] > starts[1:]) + 1
    starts, ends = starts[nonblank], ends[nonblank]
    commas = np.append(np.flatnonzero(buf == ord(",")), len(data))
    last = len(commas) - 1  # the sentinel: a short last row's lacking cells index past it

    def blocks(i_ts: int, i_val: int):
        for lo in range(0, len(starts) or 1, _BLOCK_ROWS):  # no row: one empty block
            line_start, line_end = starts[lo:lo + _BLOCK_ROWS], ends[lo:lo + _BLOCK_ROWS]
            first = np.searchsorted(commas, line_start)
            count = np.searchsorted(commas, line_end) - first

            def span(c: int) -> tuple[np.ndarray, np.ndarray]:
                """The start and end offsets of each row's cell ``c``."""
                end = np.where(count > c, commas[np.minimum(first + c, last)], line_end)
                start = line_start if c == 0 else commas[np.minimum(first + c - 1, last)] + 1
                return np.minimum(start, end), end

            yield data, *span(i_ts), *span(i_val)

    return header.split(",") if header else [], blocks


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
    :class:`IngestError` for a missing or unreadable file, a file that is
    not UTF-8 CSV, absent columns, no valid rows, or sub-hourly sampling.

    The file is read once, and one leading UTF-8 BOM is skipped. ASCII
    without quotes, whose lines end in LF or CRLF, is split into rows and
    cells as arrays; every other file goes through ``csv.reader``. Both give
    the rows ``csv.reader`` gives, and both hand one parser the same block:
    the cells' bytes and their offsets.
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
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
        rows = _array_rows(data)
        if rows is None:  # the reference path, for quoted or non-ASCII input too
            reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                 newline=""))
            rows = next(reader, []), partial(_csv_blocks, reader)
        header, blocks = rows
        columns = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
        for needed in (ts_col, val_col):
            if needed not in columns:
                raise IngestError(f"{label}: column '{needed}' not in header "
                                  f"{header} of {path}")
        blocks = [_parse_cells(*block, dropped)
                  for block in blocks(columns[ts_col], columns[val_col])]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"{label}: cannot read {path}: {exc}") from None
    stamps, values = (np.concatenate(arrays) for arrays in zip(*blocks))
    rows_read = len(stamps) + sum(dropped.values())  # every nonblank row is kept or dropped

    if len(stamps) == 0:
        raise IngestError(f"{label}: no valid rows in {path} "
                          f"({rows_read} read, all dropped)")

    timestamps, first = np.unique(stamps, return_index=True)  # the first row of each timestamp
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
    # each series is strictly increasing and nonempty, so a stamp is common
    # when the next series holds it where np.searchsorted would insert it
    common = w1.timestamps
    for series in (w2, demand):
        at = np.minimum(np.searchsorted(series.timestamps, common), len(series) - 1)
        common = common[series.timestamps[at] == common]
    if len(common) == 0:
        detail = "; ".join(s.coverage() for s in (w1, w2, demand))
        raise IngestError(f"no common timestamps across inputs ({detail})")

    def pick(series: TimeSeries) -> np.ndarray:
        idx = np.searchsorted(series.timestamps, common)
        return series.values[idx]

    return JointSeries(timestamps=common, w1=pick(w1), w2=pick(w2), p_d=pick(demand))
