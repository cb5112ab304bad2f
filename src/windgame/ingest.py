"""Load, clean, normalize and time-align historic wind and demand series.

Gaps are dropped and reported, never interpolated: the downstream sampler is
the mechanism that papers over missing history, so ingestion must not invent
values. Input resolution is fixed at one hour; sub-hourly files are rejected.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
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


def _parse_each(parse, cells, rows, out: np.ndarray) -> list[int]:
    """``out[i] = parse(cell)`` for each row i of ``rows`` and its cell in
    ``cells``; returns the rows whose cell ``parse`` rejected with ValueError
    or OverflowError (the latter: a stamp whose offset takes it out of range
    in UTC)."""
    rejected = []
    for i, cell in zip(rows, cells):
        try:
            out[i] = parse(cell)
        except (ValueError, OverflowError):
            rejected.append(i)
    return rejected


def _str_codes(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The (19, n) character codes of ``str`` cells, one row per character
    position and one column per cell, and each cell's length, taken from the
    ``str`` itself: a numpy string array drops trailing NULs."""
    n, width = len(cells), len(_CANONICAL)
    code = np.array(cells, dtype=f"U{width}").view(np.uint32).reshape(n, width).T
    return code, np.fromiter(map(len, cells), np.intp, n)


def _epoch_seconds(code: np.ndarray, lengths: np.ndarray,
                   cell) -> tuple[np.ndarray, list[int]]:
    """``_parse_iso_timestamp`` over a column: seconds since the UTC epoch per
    cell, and the cells it rejected.

    ``code`` holds the first 19 character codes of each cell, one column per
    cell, and ``lengths`` each cell's length. A canonical cell (exactly
    ``YYYY-MM-DDTHH:MM:SS`` in ASCII digits, a valid date and time of day) is
    read with integer array arithmetic (days from the civil date); every other
    cell, a canonical shape out of range included, is fetched as ``cell(i)``
    and goes through ``_parse_iso_timestamp``, the one authority on the rest.
    """
    digits = code[_DIGIT_AT].astype(np.int64) - ord("0")
    canonical = ((lengths == len(_CANONICAL))
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
    rows = np.flatnonzero(~canonical).tolist()
    return stamps, _parse_each(_parse_iso_timestamp, map(cell, rows), rows, stamps)


# Rows whose cells are held as strings at once: each block is parsed into
# arrays before the next is read, so a long file never holds all its cells
# as Python objects, whose memory the allocator keeps once they are freed
# (all 17.5k rows of one shipped wind file at once left ~3 MB more resident).
# The array path reads in blocks of the same size, so its temporaries stay
# as small.
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


def _csv_blocks(reader, i_ts: int, i_val: int, dropped: dict):
    """``_parse_block`` over each of ``_cell_blocks``' blocks, every value
    cell parsed by ``float``."""
    for ts_cells, val_cells in _cell_blocks(reader, i_ts, i_val, dropped):
        values = np.empty(len(val_cells))
        rejected = _parse_each(float, val_cells, range(len(val_cells)), values)
        yield _parse_block(*_str_codes(ts_cells), values, rejected,
                           lambda i: (ts_cells[i], val_cells[i]), dropped)


def _parse_block(code: np.ndarray, lengths: np.ndarray, values: np.ndarray,
                 rejected: list[int], text, dropped: dict) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds and values of the block's rows that parse to a finite,
    nonnegative value, in row order; the other rows are counted in ``dropped``.

    ``code`` and ``lengths`` are the timestamp cells as ``_epoch_seconds``
    reads them; ``values`` are the parsed value cells, except at the rows in
    ``rejected``; ``text(i)`` is row i's timestamp and value cells as ``str``.
    """
    stamps, rejected_stamps = _epoch_seconds(code, lengths, lambda i: text(i)[0])
    parsed = np.ones(len(values), dtype=bool)
    parsed[rejected_stamps] = False
    parsed[rejected] = False
    rejected = np.flatnonzero(~parsed).tolist()
    # a whitespace-only cell fails both parsers, so only a rejected row can hold one
    missing = sum(1 for i in rejected if not all(cell.strip() for cell in text(i)))
    keep = parsed & np.isfinite(values) & (values >= 0.0)
    dropped["missing"] += missing
    dropped["unparseable"] += len(rejected) - missing
    dropped["invalid"] += len(values) - len(rejected) - int(np.count_nonzero(keep))
    return stamps[keep], values[keep]


# The widest value cell that the array path's one cast parses; a block with
# a longer one parses its values with ``float``.
_VALUE_WIDTH = 32


def _line_feeds(data: bytes) -> np.ndarray | None:
    """The offsets of the LFs in ``data`` when ``csv.reader`` would split it
    exactly at its LFs and commas, else None: ``data`` is ASCII, holds no
    quote and no NUL, has an LF just after every CR, and no line longer than
    csv's field limit (a field is never longer than its line)."""
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    if not np.all(buf[np.flatnonzero(buf[:-1] == ord("\r")) + 1] == ord("\n")) \
            or data.endswith(b"\r"):
        return None
    feeds = np.flatnonzero(buf == ord("\n"))
    lines = np.diff(feeds, prepend=-1, append=len(data)) - 1
    return feeds if lines.max() <= csv.field_size_limit() else None


def _array_rows(data: bytes, feeds: np.ndarray):
    """``csv.reader``'s rows of ``data``, which ``_line_feeds`` accepted, as
    arrays: its header, then a function of the timestamp and value columns
    that yields ``_parse_block``'s result per block of rows.

    Each line ends at an LF, less a CR just before it; an empty line is no
    row. The cells of a line lie between its commas. Timestamp cells are
    gathered by their first 19 bytes; the value cells of a block are parsed
    by one cast of a fixed-width bytes array, or by ``float`` one at a time
    when a cell is too long for it or the cast refuses one.
    """
    buf = np.frombuffer(data, np.uint8)
    starts = np.append(0, feeds + 1)
    ends = np.append(feeds, len(data))
    ends[:-1] -= (buf[feeds - 1] == ord("\r")) & (feeds > 0)
    header = data[starts[0]:ends[0]].decode("ascii")
    nonblank = np.flatnonzero(ends[1:] > starts[1:]) + 1
    starts, ends = starts[nonblank], ends[nonblank]
    commas = np.append(np.flatnonzero(buf == ord(",")), len(data))

    def gather(start: np.ndarray, width: int) -> np.ndarray:
        """The ``width`` bytes from each offset in ``start``, one row per
        offset; past the end of the file, its last byte repeats."""
        return buf[np.minimum(start[:, None] + np.arange(width), len(buf) - 1)]

    def blocks(i_ts: int, i_val: int, dropped: dict):
        last = max(i_ts, i_val)
        for lo in range(0, len(starts) or 1, _BLOCK_ROWS):  # no row: one empty block
            line_start, line_end = starts[lo:lo + _BLOCK_ROWS], ends[lo:lo + _BLOCK_ROWS]
            first = np.searchsorted(commas, line_start)
            count = np.searchsorted(commas, line_end) - first
            full = count >= last
            dropped["missing"] += len(full) - int(np.count_nonzero(full))
            line_start, line_end = line_start[full], line_end[full]
            first, count = first[full], count[full]

            def span(c: int) -> tuple[np.ndarray, np.ndarray]:
                """The start and end offsets of each row's cell ``c``."""
                start = line_start if c == 0 else commas[first + c - 1] + 1
                return start, np.where(count > c, commas[first + c], line_end)

            (ts_start, ts_end), (val_start, val_end) = span(i_ts), span(i_val)

            def text(i: int) -> tuple[str, str]:
                return (data[ts_start[i]:ts_end[i]].decode("ascii"),
                        data[val_start[i]:val_end[i]].decode("ascii"))

            yield _parse_block(gather(ts_start, len(_CANONICAL)).T, ts_end - ts_start,
                               *_cast_values(gather, val_start, val_end - val_start, text),
                               text, dropped)

    return header.split(",") if header else [], blocks


def _cast_values(gather, start: np.ndarray, length: np.ndarray,
                 text) -> tuple[np.ndarray, list[int]]:
    """The value cells that start at ``start`` and are ``length`` bytes long
    (``gather`` fetches their bytes), parsed as ``float`` parses them, and
    the rows it rejected: an empty cell, and any cell ``float`` refuses. One
    cast parses every nonempty cell; when a cell is too long for it, or it
    refuses one, ``float`` parses each."""
    values = np.empty(len(start))
    filled = length > 0
    width = int(length.max(initial=1))
    if width <= _VALUE_WIDTH:
        cells = gather(start[filled], width)
        cells[np.arange(width) >= length[filled, None]] = 0
        try:
            values[filled] = cells.view(f"S{width}")[:, 0].astype(np.float64)
            return values, np.flatnonzero(~filled).tolist()
        except ValueError:
            pass
    return values, _parse_each(float, (text(i)[1] for i in range(len(start))),
                               range(len(start)), values)


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

    The file is read once. ASCII without quotes, whose lines end in LF or
    CRLF, is split into rows and cells as arrays; every other file goes
    through ``csv.reader``. Both give the rows ``csv.reader`` gives.
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

    data = path.read_bytes()
    dropped = dict.fromkeys(("missing", "unparseable", "invalid"), 0)
    feeds = _line_feeds(data)
    try:
        if feeds is None:  # the reference path, for quoted or non-ASCII input too
            reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                 newline=""))
            header, blocks = next(reader, []), partial(_csv_blocks, reader)
        else:
            header, blocks = _array_rows(data, feeds)
        columns = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
        for needed in (ts_col, val_col):
            if needed not in columns:
                raise IngestError(f"{label}: column '{needed}' not in header "
                                  f"{header} of {path}")
        blocks = list(blocks(columns[ts_col], columns[val_col], dropped))
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
