"""CSV loading, demand normalization, and timestamp alignment."""
from __future__ import annotations

import csv
import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from windgame import (GapReport, IngestError, TimeSeries, align_series, load_series_csv,
                      normalize_demand)
from windgame import ingest
from windgame.ingest import _epoch_seconds, _parse_iso_timestamp

COLMAP = {"timestamp": "timestamp", "value": "wind_speed_ms"}


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def hourly(n, start="2015-01-01T00:00:00"):
    return (np.datetime64(start, "s") + np.arange(n) * np.timedelta64(3600, "s"))


def _oracle_timestamp(raw):
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(dt, "s")


def dict_reader_oracle(path, ts_col, val_col):
    """The row rules of ``load_series_csv`` as a csv.DictReader loop into a
    first-wins dict keyed by ``np.datetime64``: the reference the loader matches.

    Returns (timestamps, values, GapReport counts), or None for no valid row.
    """
    counts = dict.fromkeys(("rows_read", "dropped_missing", "dropped_unparseable",
                            "dropped_invalid", "dropped_duplicate"), 0)
    seen = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            counts["rows_read"] += 1
            raw_ts, raw_val = row.get(ts_col), row.get(val_col)
            if raw_ts is None or raw_val is None or not raw_ts.strip() or not raw_val.strip():
                counts["dropped_missing"] += 1
                continue
            try:
                ts, value = _oracle_timestamp(raw_ts), float(raw_val)
            except (ValueError, OverflowError):
                counts["dropped_unparseable"] += 1
                continue
            if not np.isfinite(value) or value < 0.0:
                counts["dropped_invalid"] += 1
            elif ts in seen:
                counts["dropped_duplicate"] += 1
            else:
                seen[ts] = value
    if not seen:
        return None
    stamps = np.array(sorted(seen), dtype="datetime64[s]")
    return stamps, np.array([seen[t] for t in stamps], dtype=np.float64), counts


HEADERS = [("timestamp", "wind_speed_ms"), ("wind_speed_ms", "timestamp"),
           ("timestamp", "wind_speed_ms", "wind_speed_ms"),
           ("other", "timestamp", "wind_speed_ms")]
# few distinct hours, so that duplicates are common; offsets, sub-second and
# separator variants name the same instants, and a cell may be missing or
# unparseable. Canonical-shaped cells (YYYY-MM-DDTHH:MM:SS) that fromisoformat
# rejects or reads differently probe the loader's vectorised path: dates and
# times out of range, leap days, non-ASCII digits and NULs past the 19th
# character, which a numpy string array drops.
TS_CELLS = st.one_of(
    st.builds("2015-01-01{}{:02d}:00:00{}".format, st.sampled_from(["T", "T", "t", " "]),
              st.integers(0, 4),
              st.sampled_from(["", "Z", "z", ".2", ".7", "+00:00", " ", "\x00", "\x00\x00"])),
    st.builds("2015-01-01T{:02d}:00:00+01:00".format, st.integers(1, 5)),
    st.builds("{}-{}-{}T{}:00:{}".format, st.sampled_from(["0000", "0001", "1900", "2000",
                                                          "2015", "9999", "２０１５"]),
              st.sampled_from(["00", "01", "02", "12", "13"]),
              st.sampled_from(["00", "01", "28", "29", "31", "32"]),
              st.sampled_from(["00", "23", "24", "0٣"]), st.sampled_from(["00", "60"])),
    st.sampled_from(["", "  ", "not-a-date", "2015-13-01T00:00:00", "2015-00-01T00:00:00",
                     "2015-01-00T00:00:00", "2015-02-29T00:00:00", "1900-02-29T00:00:00",
                     "2000-02-29T00:00:00", "2015-01-01T24:00:00", "2015-01-01T00:00:60",
                     "0000-01-01T00:00:00", "0001-01-01T00:30:00+01:00",
                     "9999-12-31T23:30:00-01:00"]))
# 19 characters laid out as YYYY-MM-DDTHH:MM:SS, with fields past their ranges
# and separators that fromisoformat may or may not accept
CANONICAL_SHAPED = st.tuples(
    st.integers(0, 9999).map("{:04d}".format), st.sampled_from("-/"),
    st.integers(0, 13).map("{:02d}".format), st.sampled_from("-."),
    st.integers(0, 32).map("{:02d}".format), st.sampled_from("T t"),
    st.integers(0, 25).map("{:02d}".format), st.sampled_from(":."),
    st.integers(0, 61).map("{:02d}".format), st.sampled_from(":-"),
    st.integers(0, 61).map("{:02d}".format)).map("".join)
VALUE_CELLS = st.one_of(
    st.floats(0.0, 40.0).map(repr),
    st.sampled_from(["", " ", "0", "-0.5", "-999.0", "nan", "inf", "1e400", "abc", " 7.5 "]))
ROW_SHAPES = st.sampled_from(["full", "full", "full", "short", "long", "blank"])


class TestLoadSeriesCsv:
    def test_well_formed_three_rows_sorted(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T02:00:00,7.5\n"
                               "2015-01-01T00:00:00,5.0\n"
                               "2015-01-01T01:00:00,6.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert len(series) == 3
        assert list(series.values) == [5.0, 6.0, 7.5]
        assert np.all(np.diff(series.timestamps) > np.timedelta64(0, "s"))
        assert report.rows_kept == 3 and report.dropped_total == 0

    def test_utc_offsets_converted_to_naive_utc(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T01:00:00Z,5.0\n"
                               "2015-01-01T03:00:00+01:00,6.0\n"
                               "2015-01-01T03:00:00,7.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert list(series.timestamps) == list(hourly(3, "2015-01-01T01:00:00"))
        assert list(series.values) == [5.0, 6.0, 7.0]
        assert report.dropped_total == 0

    def test_pre_epoch_timestamps(self, tmp_path):
        # before 1970 the epoch offset is negative; a fraction still truncates
        # to the start of its second, not toward the epoch
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "1969-12-31T22:00:00,4.0\n"
                               "1969-12-31T23:00:00.5,5.0\n"
                               "1970-01-01T00:00:00,6.0\n"
                               "1901-06-01T12:00:00Z,3.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert list(series.timestamps) == [np.datetime64("1901-06-01T12:00:00", "s"),
                                           *hourly(3, "1969-12-31T22:00:00")]
        assert series.timestamps[2] == np.datetime64(-3600, "s")
        assert list(series.values) == [3.0, 4.0, 5.0, 6.0]
        assert report.dropped_total == 0

    def test_offset_crossing_midnight(self, tmp_path):
        # local times past midnight east of UTC, and before midnight west of
        # it, fall on the other UTC day (and year)
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2016-01-01T00:30:00+02:00,5.0\n"
                               "2015-12-31T23:30:00Z,6.0\n"
                               "2015-12-31T21:30:00-03:00,7.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert list(series.timestamps) == list(hourly(3, "2015-12-31T22:30:00"))
        assert list(series.values) == [5.0, 6.0, 7.0]
        assert report.dropped_total == 0

    def test_blank_cell_dropped_and_reported(self, tmp_path):
        # a row shorter than the value column is missing; a blank line is no row
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T00:00:00,5.0\n"
                               "2015-01-01T01:00:00,\n"
                               "\n"
                               "2015-01-01T02:00:00,6.0\n"
                               "2015-01-01T03:00:00\n")
        series, report = load_series_csv(path, COLMAP)
        assert len(series) == 2
        assert report.rows_read == 4
        assert report.dropped_missing == 2
        assert "2 missing" in report.summary()

    def test_duplicate_timestamp_keeps_first(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T00:00:00,5.0\n"
                               "2015-01-01T01:00:00,6.0\n"
                               "2015-01-01T01:00:00,9.9\n"
                               "2015-01-01T02:00:00.2,7.0\n"
                               "2015-01-01T02:00:00.7,8.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert len(series) == 3
        assert series.values[1] == 6.0  # first occurrence wins
        # timestamps are kept to the second, so sub-second variants collide
        assert series.values[2] == 7.0
        assert report.dropped_duplicate == 2

    def test_unparseable_rows_dropped(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "not-a-date,5.0\n"
                               "2015-01-01T01:00:00,not-a-number\n"
                               "2015-01-01T02:00:00,6.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert len(series) == 1
        assert report.dropped_unparseable == 2

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00",
                                       "9999-12-31T23:30:00-01:00"])
    def test_stamp_out_of_range_in_utc_is_unparseable(self, tmp_path, stamp):
        # valid as written, but its UTC instant is outside datetime's range
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               f"{stamp},5.0\n"
                               "2015-01-01T02:00:00,6.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert list(series.values) == [6.0]
        assert (report.rows_read, report.dropped_unparseable) == (2, 1)

    def test_nul_past_a_canonical_stamp_is_unparseable(self, tmp_path):
        # numpy drops a string's trailing NULs, so this cell looks canonical to
        # an array; fromisoformat rejects it, and the loader follows it
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T00:00:00\x00\x00,5.0\n"
                               "2015-01-01T01:00:00,6.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert list(series.timestamps) == [np.datetime64("2015-01-01T01:00:00", "s")]
        assert (report.rows_read, report.dropped_unparseable) == (2, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CANONICAL_SHAPED, max_size=20))
    @example(["2015-01-01T00:00-05", "9999-12-31T23:59-01"])  # 19 characters with an offset
    def test_canonical_stamps_match_fromisoformat(self, cells):
        # the vectorised path against the per-cell parser, cell by cell: the same
        # seconds, or both reject
        stamps, rejected = _epoch_seconds(cells)
        for i, cell in enumerate(cells):
            try:
                expected = _parse_iso_timestamp(cell)
            except (ValueError, OverflowError):
                assert i in rejected, cell
            else:
                assert i not in rejected and stamps[i] == expected, cell

    def test_negative_sentinel_dropped_as_invalid(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T00:00:00,-999.0\n"
                               "2015-01-01T01:00:00,6.0\n"
                               "2015-01-01T02:00:00,nan\n"
                               "2015-01-01T03:00:00,inf\n"
                               "2015-01-01T04:00:00,1e400\n")
        series, report = load_series_csv(path, COLMAP)
        assert len(series) == 1
        assert report.dropped_invalid == 4

    def test_header_and_cell_edge_cases(self, tmp_path):
        # as with csv.DictReader: the last of a repeated header name wins, cells
        # past the header are ignored, and a whitespace-only cell is missing
        path = write(tmp_path, "timestamp,wind_speed_ms,wind_speed_ms\n"
                               "2015-01-01T00:00:00,1.0,5.0\n"
                               "2015-01-01T01:00:00,1.0,6.0,extra,cells\n"
                               "2015-01-01T02:00:00,1.0,   \n"
                               "2015-01-01T03:00:00z,1.0,7.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert list(series.values) == [5.0, 6.0, 7.0]
        assert series.timestamps[-1] == np.datetime64("2015-01-01T03:00:00", "s")
        assert (report.rows_read, report.dropped_missing, report.dropped_total) == (4, 1, 1)

    def test_invalid_row_does_not_claim_its_timestamp(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T00:00:00,-999.0\n"
                               "2015-01-01T00:00:00,5.0\n"
                               "2015-01-01T01:00:00,6.0\n")
        series, report = load_series_csv(path, COLMAP)
        assert list(series.values) == [5.0, 6.0]
        assert (report.dropped_invalid, report.dropped_duplicate) == (1, 0)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(HEADERS), st.lists(st.tuples(TS_CELLS, VALUE_CELLS, ROW_SHAPES),
                                             max_size=30),
           st.sampled_from([1, 2, 7, ingest._BLOCK_ROWS]))
    def test_matches_dict_reader_oracle(self, tmp_path, header, rows, block_rows):
        # small blocks carry duplicates and drop counts across block boundaries
        lines = [",".join(header)]
        for ts, value, shape in rows:
            if shape == "blank":
                lines.append("")
                continue
            cells = [ts if name == "timestamp" else value for name in header]
            if header.count("wind_speed_ms") > 1:  # the first of the pair is a decoy
                cells[header.index("wind_speed_ms")] = "-1"
            lines.append(",".join(cells[:-1] if shape == "short" else
                                  cells + ["x"] if shape == "long" else cells))
        path = write(tmp_path, "\n".join(lines) + "\n")
        expected = dict_reader_oracle(path, "timestamp", "wind_speed_ms")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_ROWS", block_rows)
            if expected is None:
                with pytest.raises(IngestError, match="no valid rows"):
                    load_series_csv(path, COLMAP, label="x")
                return
            series, report = load_series_csv(path, COLMAP, label="x")
        stamps, values, counts = expected
        assert np.array_equal(series.timestamps, stamps)
        assert np.array_equal(series.values, values)
        assert report == GapReport(label="x", rows_kept=len(values), **counts)

    @pytest.mark.parametrize("body, shown", [
        (b"2015-01-01T00:00:00,5.0 \xb0\n", "'utf-8' codec can't decode byte 0xb0"),
        (b"2015-01-01T00:00:00," + b"9" * 200_000 + b"\n", "field larger than field limit"),
    ], ids=["not-utf8", "oversized-field"])
    def test_unreadable_file(self, tmp_path, body, shown):
        path = tmp_path / "series.csv"
        path.write_bytes(b"timestamp,wind_speed_ms\n" + body)
        with pytest.raises(IngestError, match=f"^w1: cannot read {re.escape(str(path))}: {shown}"):
            load_series_csv(path, COLMAP, label="w1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="file not found"):
            load_series_csv(tmp_path / "absent.csv", COLMAP)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "timestamp,other\n2015-01-01T00:00:00,5.0\n")
        with pytest.raises(IngestError, match="wind_speed_ms"):
            load_series_csv(path, COLMAP)

    def test_zero_valid_rows(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\nbad,bad\n")
        with pytest.raises(IngestError, match="no valid rows"):
            load_series_csv(path, COLMAP)

    def test_sub_hourly_rejected(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T00:00:00,5.0\n"
                               "2015-01-01T00:30:00,5.5\n")
        with pytest.raises(IngestError, match="sub-hourly"):
            load_series_csv(path, COLMAP)

    def test_incomplete_column_map_rejected(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n2015-01-01T00:00:00,5.0\n")
        with pytest.raises(IngestError, match="column_map"):
            load_series_csv(path, {"timestamp": "timestamp"})

    def test_loading_deterministic(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed_ms\n"
                               "2015-01-01T00:00:00,5.0\n"
                               "2015-01-01T01:00:00,6.25\n")
        first, _ = load_series_csv(path, COLMAP)
        second, _ = load_series_csv(path, COLMAP)
        assert np.array_equal(first.timestamps, second.timestamps)
        assert np.array_equal(first.values, second.values)


class TestNormalizeDemand:
    def test_constant_series_to_published_mean(self):
        series = TimeSeries(hourly(3), np.array([50.0, 50.0, 50.0]), "demand")
        out = normalize_demand(series, 108.1830)
        assert np.allclose(out.values, 108.1830, rtol=0, atol=1e-12)

    def test_target_equal_to_current_mean_is_identity(self):
        series = TimeSeries(hourly(4), np.array([10.0, 20.0, 30.0, 40.0]), "demand")
        out = normalize_demand(series, series.mean())
        assert np.allclose(out.values, series.values, rtol=1e-15)

    def test_linear_scaling(self):
        series = TimeSeries(hourly(2), np.array([10.0, 30.0]), "demand")
        out = normalize_demand(series, 40.0)
        assert list(out.values) == [20.0, 60.0]

    def test_zero_mean_rejected(self):
        series = TimeSeries(hourly(2), np.array([0.0, 0.0]), "demand")
        with pytest.raises(IngestError, match="mean"):
            normalize_demand(series, 50.0)

    def test_bad_target_rejected(self):
        series = TimeSeries(hourly(2), np.array([1.0, 2.0]), "demand")
        with pytest.raises(IngestError, match="target"):
            normalize_demand(series, 0.0)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=1, max_size=30),
           st.floats(min_value=0.1, max_value=1e5))
    def test_idempotent_at_same_target(self, values, target):
        series = TimeSeries(hourly(len(values)), np.array(values), "demand")
        once = normalize_demand(series, target)
        twice = normalize_demand(once, target)
        assert once.mean() == pytest.approx(target, rel=1e-9)
        assert np.allclose(twice.values, once.values, rtol=1e-9)


class TestAlignSeries:
    def test_full_overlap(self):
        ts = hourly(5)
        w1 = TimeSeries(ts, np.arange(5) + 1.0, "w1")
        w2 = TimeSeries(ts, np.arange(5) + 2.0, "w2")
        demand = TimeSeries(ts, np.arange(5) + 100.0, "demand")
        joint = align_series(w1, w2, demand)
        assert len(joint) == 5

    def test_shorter_record_restricts_output(self):
        # wind archives start years before the demand record
        w1 = TimeSeries(hourly(48, "2006-01-01T00:00:00"), np.full(48, 8.0), "w1")
        w2 = TimeSeries(hourly(48, "2006-01-01T00:00:00"), np.full(48, 9.0), "w2")
        demand = TimeSeries(hourly(24, "2006-01-02T00:00:00"), np.full(24, 100.0), "demand")
        joint = align_series(w1, w2, demand)
        assert len(joint) == 24
        assert joint.timestamps[0] == np.datetime64("2006-01-02T00:00:00", "s")

    def test_disjoint_errors_with_coverage(self):
        w1 = TimeSeries(hourly(3, "2006-01-01T00:00:00"), np.full(3, 8.0), "w1")
        w2 = TimeSeries(hourly(3, "2006-01-01T00:00:00"), np.full(3, 9.0), "w2")
        demand = TimeSeries(hourly(3, "2010-01-01T00:00:00"), np.full(3, 100.0), "demand")
        with pytest.raises(IngestError, match="no common timestamps.*2006.*2010"):
            align_series(w1, w2, demand)

    def test_fields_equal_source_values_exactly(self):
        ts = hourly(10)
        rng = np.random.default_rng(3)
        w1 = TimeSeries(ts, rng.uniform(0, 20, 10), "w1")
        w2 = TimeSeries(ts[2:8], rng.uniform(0, 20, 6), "w2")
        demand = TimeSeries(ts[4:], rng.uniform(50, 150, 6), "demand")
        joint = align_series(w1, w2, demand)
        assert len(joint) == 4  # hours 4..7
        assert len(joint) <= min(len(w1), len(w2), len(demand))
        for k, stamp in enumerate(joint.timestamps):
            assert joint.w1[k] == w1.values[list(w1.timestamps).index(stamp)]
            assert joint.w2[k] == w2.values[list(w2.timestamps).index(stamp)]
            assert joint.p_d[k] == demand.values[list(demand.timestamps).index(stamp)]


class TestTimeSeriesInvariants:
    def test_rejects_unsorted(self):
        ts = hourly(3)[::-1].copy()
        with pytest.raises(IngestError, match="strictly increasing"):
            TimeSeries(ts, np.ones(3), "x")

    def test_rejects_negative_values(self):
        with pytest.raises(IngestError, match="nonnegative"):
            TimeSeries(hourly(2), np.array([1.0, -0.5]), "x")

    def test_rejects_nonfinite(self):
        with pytest.raises(IngestError, match="finite"):
            TimeSeries(hourly(2), np.array([1.0, np.nan]), "x")
