"""Load, clean, normalize and time-align historic wind and demand series.

Gaps are dropped and reported, never interpolated: the downstream sampler is
the mechanism that papers over missing history, so ingestion must not invent
values. Input resolution is fixed at one hour; sub-hourly files are rejected.
"""
from __future__ import annotations

import csv
import math
from array import array
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
    stamps = array("q")  # epoch seconds and raw doubles: no object kept per row
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            columns = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
            for needed in (ts_col, val_col):
                if needed not in columns:
                    raise IngestError(f"{label}: column '{needed}' not in header "
                                      f"{header} of {path}")
            i_ts, i_val = columns[ts_col], columns[val_col]
            for row in filter(None, reader):  # a blank line is no row
                if len(row) <= max(i_ts, i_val) or not row[i_ts].strip() or not row[i_val].strip():
                    dropped["missing"] += 1
                    continue
                try:
                    stamp = _parse_iso_timestamp(row[i_ts])
                    value = float(row[i_val])
                except (ValueError, OverflowError):  # overflow: a stamp out of range in UTC
                    dropped["unparseable"] += 1
                    continue
                if not math.isfinite(value) or value < 0.0:
                    dropped["invalid"] += 1
                    continue
                stamps.append(stamp)
                values.append(value)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"{label}: cannot read {path}: {exc}") from None
    rows_read = len(stamps) + sum(dropped.values())  # every nonblank row is kept or dropped

    if not stamps:
        raise IngestError(f"{label}: no valid rows in {path} "
                          f"({rows_read} read, all dropped)")

    timestamps, first = np.unique(np.frombuffer(stamps, dtype=np.int64).view("datetime64[s]"),
                                  return_index=True)  # the first row of each timestamp
    dropped["duplicate"] = len(stamps) - len(first)

    if len(timestamps) > 1 and np.diff(timestamps).min() < np.timedelta64(1, "h"):
        raise IngestError(f"{label}: sub-hourly sampling detected in {path}; "
                          f"this pipeline is hourly only")

    return (TimeSeries(timestamps=timestamps, values=np.array(values)[first], label=label),
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
    common = np.intersect1d(w1.timestamps, w2.timestamps)
    common = np.intersect1d(common, demand.timestamps)
    if len(common) == 0:
        detail = "; ".join(s.coverage() for s in (w1, w2, demand))
        raise IngestError(f"no common timestamps across inputs ({detail})")

    def pick(series: TimeSeries) -> np.ndarray:
        idx = np.searchsorted(series.timestamps, common)
        return series.values[idx]

    return JointSeries(timestamps=common, w1=pick(w1), w2=pick(w2), p_d=pick(demand))
