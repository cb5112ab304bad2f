"""Empirical tables: histograms, sparse-bin merging, slices, connectivity.

A conditional slice is the list of member records of one retained bin; the
sampler draws a member uniformly, so value frequencies within a slice are
the conditional weights. The slice helpers here group records from the raw
retained-bin keys, independently of the sampler's CSR grouping.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windgame import (BinSpec, DistributionError, ErgodicityError, JointTable,
                      assert_ergodic, build_demand_conditional, build_joint_wind_table,
                      count_cell_components, merge_sparse_bins)
from windgame.dist import _merge_groups

from conftest import joint_from_arrays


def weights(values):
    """Distinct values of a slice and their frequencies."""
    support, counts = np.unique(values, return_counts=True)
    return support.tolist(), (counts / counts.sum()).tolist()


def w1_given_col(table, col):
    return table.w1_values[np.flatnonzero(table.col_of == col)]


def demand_given_row(cond, row):
    return cond.demand_values[np.flatnonzero(cond.row_of == row)]


def row_for_mean(cond, mean_wind):
    return int(cond.merged_map[cond.mean_spec.indices(np.array([mean_wind]))[0]])


def table_from(w1, w2, spec1, spec2):
    series = joint_from_arrays(w1, w2, np.full(len(w1), 100.0))
    return build_joint_wind_table(series, spec1, spec2)


def greedy_merge(marginals, min_count):
    """Scalar oracle for ``_merge_groups``: the literal greedy merge over
    member lists. Each round folds the sparsest group (the lowest index on a
    tie) into its better-populated neighbour (the lower one on a tie); an edge
    group folds inward."""
    groups = [[i] for i in range(len(marginals))]
    sums = [int(c) for c in marginals]
    while len(groups) > 1:
        k = min(range(len(sums)), key=lambda i: (sums[i], i))
        if sums[k] >= min_count:
            break
        if k == 0:
            target = 1
        elif k == len(groups) - 1:
            target = k - 1
        else:
            target = k - 1 if sums[k - 1] >= sums[k + 1] else k + 1
        lo, hi = sorted((k, target))
        groups[lo] += groups.pop(hi)
        sums[lo] += sums.pop(hi)
    assignment = [0] * len(marginals)
    for g, members in enumerate(groups):
        for m in members:
            assignment[m] = g
    return assignment


def union_find_components(counts):
    """Scalar oracle for ``count_cell_components``: union-find over row nodes
    0..R-1 and column nodes R..R+C-1, one union per nonempty cell, counting
    the roots of the nonempty rows."""
    n_rows, n_cols = counts.shape
    parent = list(range(n_rows + n_cols))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n_rows):
        for j in range(n_cols):
            if counts[i, j] > 0:
                parent[find(i)] = find(n_rows + j)
    return len({find(i) for i in range(n_rows) if counts[i].any()})


WIDE = BinSpec(width=10.0, origin=0.0, max_edge=30.0)


def table_with_counts(counts):
    """A joint table holding only ``counts``: what the connectivity check reads."""
    none = np.zeros(0, dtype=np.int64)
    return JointTable(spec1=WIDE, spec2=WIDE, counts=counts, merged_map_1=none,
                      merged_map_2=none, w1_values=none.astype(np.float64),
                      w2_values=none.astype(np.float64), row_of=none, col_of=none)


class TestBinSpec:
    def test_bin_count(self):
        assert BinSpec(width=1.0, origin=0.0, max_edge=30.0).n_bins == 30
        assert BinSpec(width=4.0, origin=0.0, max_edge=30.0).n_bins == 8

    def test_max_edge_falls_in_last_bin(self):
        spec = BinSpec(width=1.0, origin=0.0, max_edge=10.0)
        assert spec.indices(np.array([10.0, 0.0])).tolist() == [9, 0]

    def test_out_of_range_names_value(self):
        spec = BinSpec(width=1.0, origin=0.0, max_edge=10.0)
        with pytest.raises(DistributionError, match="10.5"):
            spec.indices(np.array([10.5]))
        with pytest.raises(DistributionError, match="-0.1"):
            spec.indices(np.array([5.0, -0.1]))

    def test_nan_refused(self):
        spec = BinSpec(width=1.0, origin=0.0, max_edge=10.0)
        with pytest.raises(DistributionError, match="nan"):
            spec.indices(np.array([5.0, np.nan]))

    def test_covering_spans_inputs(self):
        spec = BinSpec.covering(3.2, 27.9, 1.0)
        assert spec.origin <= 3.2 and spec.max_edge >= 27.9
        first, last = spec.indices(np.array([3.2, 27.9]))
        assert first >= 0 and last <= spec.n_bins - 1

    def test_bad_parameters(self):
        with pytest.raises(DistributionError):
            BinSpec(width=0.0, origin=0.0, max_edge=1.0)
        with pytest.raises(DistributionError):
            BinSpec(width=1.0, origin=2.0, max_edge=1.0)

    def test_bins_refused_where_numpy_cannot_shape_the_joint_table(self):
        # 2**30 bins make an n x n int64 table of 2**63 bytes, one past np.intp
        assert BinSpec(width=1.0, origin=0.0, max_edge=2.0**30 - 1).n_bins == 2**30 - 1
        with pytest.raises(DistributionError, match=r"gives 1.074e\+09 bins"):
            BinSpec(width=1.0, origin=0.0, max_edge=2.0**30)
        with pytest.raises(ValueError):
            np.zeros((2**30, 2**30), dtype=np.int64)
        # lo / width overflows even where the range spans no bins
        for lo, hi in ((0.1, 28.0), (5.0, 5.0)):
            with pytest.raises(DistributionError, match="gives inf bins"):
                BinSpec.covering(lo, hi, 5e-324)


class TestBuildJointTable:
    def test_degenerate_single_cell(self):
        table = table_from([5.0, 5.2, 5.4, 5.6], [15.0, 15.1, 15.2, 15.3], WIDE, WIDE)
        assert table.counts[0, 1] == 4
        assert table.counts.sum() == 4

    def test_two_by_two_symmetry(self):
        table = table_from([5.0, 5.0, 15.0, 15.0], [5.0, 15.0, 5.0, 15.0], WIDE, WIDE)
        assert np.array_equal(table.counts[:2, :2], np.ones((2, 2), dtype=np.int64))

    def test_against_brute_force_histogram(self):
        rng = np.random.default_rng(7)
        z = rng.multivariate_normal([12.0, 12.0], [[9.0, 6.0], [6.0, 9.0]], size=1000)
        w1 = np.clip(z[:, 0], 0.0, 29.9)
        w2 = np.clip(z[:, 1], 0.0, 29.9)
        spec = BinSpec(width=1.0, origin=0.0, max_edge=30.0)
        table = table_from(w1, w2, spec, spec)

        expected = np.zeros((30, 30), dtype=np.int64)
        for a, b in zip(w1, w2):  # independent double-loop histogram oracle
            i = min(int(a // 1.0), 29)
            j = min(int(b // 1.0), 29)
            expected[i, j] += 1
        assert np.array_equal(table.counts, expected)

    def test_observation_outside_spec_fails(self):
        spec = BinSpec(width=1.0, origin=0.0, max_edge=10.0)
        with pytest.raises(DistributionError, match="12.0"):
            table_from([5.0, 12.0], [5.0, 5.0], spec, spec)


class TestMergeSparseBins:
    def test_dense_table_is_noop_with_identity_map(self):
        w1 = np.repeat([5.0, 15.0], 10)
        w2 = np.tile(np.repeat([5.0, 15.0], 5), 2)
        table = table_from(w1, w2, WIDE, WIDE)
        merged = merge_sparse_bins(table, 5)
        assert np.array_equal(merged.counts, table.counts[:2, :2])
        # original populated bins keep their identity; the empty tail folds in
        assert merged.merged_map_1[0] != merged.merged_map_1[1]

    def test_sparse_edge_folds_into_neighbour(self):
        # marginals [1, 9, 90] with min_count=5 -> [10, 90]
        w1 = np.concatenate([[5.0], np.full(9, 15.0), np.full(90, 25.0)])
        w2 = np.full(100, 5.0)
        spec = BinSpec(width=10.0, origin=0.0, max_edge=30.0)
        merged = merge_sparse_bins(table_from(w1, w2, spec, spec), 5)
        assert list(merged.counts.sum(axis=1)) == [10, 90]
        assert merged.merged_map_1[0] == merged.merged_map_1[1] == 0
        assert merged.merged_map_1[2] == 1

    def test_heavy_tail_postconditions(self):
        rng = np.random.default_rng(11)
        w1 = rng.weibull(1.2, 800) * 8.0
        w2 = rng.weibull(1.2, 800) * 8.0
        spec = BinSpec.covering(0.0, float(max(w1.max(), w2.max())), 1.0)
        table = table_from(w1, w2, spec, spec)
        merged = merge_sparse_bins(table, 10)
        assert merged.counts.sum() == table.counts.sum() == 800
        assert np.all(merged.counts.sum(axis=1) >= 10)
        assert np.all(merged.counts.sum(axis=0) >= 10)
        # every original bin resolves to a retained bin
        assert merged.merged_map_1.max() == merged.n_rows - 1
        assert merged.merged_map_2.max() == merged.n_cols - 1

    def test_min_count_above_total_fails(self):
        table = table_from([5.0, 15.0], [5.0, 15.0], WIDE, WIDE)
        with pytest.raises(DistributionError, match="exceeds total"):
            merge_sparse_bins(table, 3)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.floats(min_value=0.0, max_value=29.99), min_size=12, max_size=80),
           st.integers(min_value=1, max_value=12))
    def test_conservation_property(self, values, min_count):
        w1 = np.array(values)
        w2 = np.roll(w1, 1)
        spec = BinSpec(width=3.0, origin=0.0, max_edge=30.0)
        table = table_from(w1, w2, spec, spec)
        merged = merge_sparse_bins(table, min_count)
        assert merged.counts.sum() == len(values)
        assert np.all(merged.counts.sum(axis=1) >= min_count)
        assert np.all(merged.counts.sum(axis=0) >= min_count)
        assert merged.merged_map_1.tolist() == greedy_merge(table.counts.sum(axis=1), min_count)
        assert merged.merged_map_2.tolist() == greedy_merge(table.counts.sum(axis=0), min_count)

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=16)
           .filter(lambda counts: sum(counts) > 0))
    def test_merge_matches_greedy_oracle_at_every_min_count(self, counts):
        # small counts give zeros and ties among groups and among neighbours
        marginals = np.array(counts, dtype=np.int64)
        for min_count in range(1, sum(counts) + 1):
            assignment = _merge_groups(marginals, min_count)
            assert assignment.dtype == np.int64
            assert assignment.tolist() == greedy_merge(counts, min_count)
        with pytest.raises(DistributionError, match="exceeds total"):
            _merge_groups(marginals, sum(counts) + 1)

    def test_merge_of_3000_bins_matches_greedy_oracle(self):
        # the greedy order, with its ties and empty bins, pinned at 3,000 bins
        rng = np.random.default_rng(7)
        marginals = rng.poisson(2.0, 3000) * (rng.random(3000) < 0.6)
        assignment = _merge_groups(marginals, 25)
        assert assignment.tolist() == greedy_merge(marginals, 25)
        assert 1 < assignment.max() + 1 < 3000


class TestConditionalSlice:
    def test_point_mass(self):
        table = merge_sparse_bins(table_from([12.3], [4.0], WIDE, WIDE), 1)
        assert weights(w1_given_col(table, 0)) == ([12.3], [1.0])

    def test_weights_proportional_to_counts(self):
        # given w2's bin: three records with w1=5, one with w1=25
        table = merge_sparse_bins(
            table_from([5.0, 5.0, 5.0, 25.0], [4.0, 4.1, 4.2, 4.3], WIDE, WIDE), 1)
        assert weights(w1_given_col(table, 0)) == ([5.0, 25.0], [0.75, 0.25])

    def test_every_slice_of_merged_table_is_proper(self, synthetic_tables):
        # the sampler's CSR groups lie end to end, cover every record once,
        # and group j holds exactly the records keyed j, in record order
        joint, demand = synthetic_tables.joint, synthetic_tables.demand
        by_col, by_row, by_mean = synthetic_tables.flat
        for (start, length, *values), keys, raw in (
                (by_col, joint.col_of, (joint.w1_values, joint.row_of)),
                (by_row, joint.row_of, (joint.w2_values, joint.col_of)),
                (by_mean, demand.row_of, (demand.demand_values,))):
            assert np.all(length > 0)
            assert start[0] == 0 and np.array_equal(start[1:], start[:-1] + length[:-1])
            assert start[-1] + length[-1] == len(keys)
            for group in range(len(start)):
                members = np.flatnonzero(keys == group)
                lo, hi = int(start[group]), int(start[group] + length[group])
                for flat, column in zip(values, raw):
                    assert np.array_equal(flat[lo:hi], column[members])

    def test_support_is_subset_of_observed(self, synthetic_series, synthetic_tables):
        table = synthetic_tables.joint
        observed_w1 = set(synthetic_series.w1.tolist())
        assert set(w1_given_col(table, table.n_cols // 2).tolist()) <= observed_w1


class TestDemandConditional:
    def test_single_record_point_mass(self):
        series = joint_from_arrays([10.0], [14.0], [100.0])
        cond = build_demand_conditional(series, 1.0, min_count=1)
        assert cond.n_rows == 1
        assert weights(demand_given_row(cond, row_for_mean(cond, 12.0))) == ([100.0], [1.0])

    def test_identical_mean_wind_uniform_demand(self):
        series = joint_from_arrays([10.0, 14.0], [14.0, 10.0], [90.0, 110.0])
        cond = build_demand_conditional(series, 1.0, min_count=1)
        assert weights(demand_given_row(cond, row_for_mean(cond, 12.0))) == \
            ([90.0, 110.0], [0.5, 0.5])

    def test_row_counts_match_brute_force_grouping(self, synthetic_series):
        series = synthetic_series
        cond = build_demand_conditional(series, 1.0, min_count=10)
        spec = cond.mean_spec

        # independent grouping oracle over raw records
        expected = {}
        for a, b in zip(series.w1, series.w2):
            raw = min(int(((a + b) / 2.0 - spec.origin) / spec.width), spec.n_bins - 1)
            row = int(cond.merged_map[raw])
            expected[row] = expected.get(row, 0) + 1
        actual = np.bincount(cond.row_of, minlength=cond.n_rows)
        assert {k: int(v) for k, v in enumerate(actual)} == expected
        assert actual.sum() == len(series)
        assert np.all(actual >= 10)

    def test_every_reachable_mean_resolves(self, synthetic_series, synthetic_tables):
        cond = synthetic_tables.demand
        lo = (float(synthetic_series.w1.min()) + float(synthetic_series.w2.min())) / 2.0
        hi = (float(synthetic_series.w1.max()) + float(synthetic_series.w2.max())) / 2.0
        for mean in np.linspace(lo, hi, 200):
            row = row_for_mean(cond, float(mean))
            assert len(demand_given_row(cond, row)) > 0

    def test_min_count_checked(self):
        series = joint_from_arrays([10.0, 14.0], [14.0, 10.0], [90.0, 110.0])
        with pytest.raises(DistributionError, match="exceeds total"):
            build_demand_conditional(series, 1.0, min_count=3)
        with pytest.raises(DistributionError, match="must be >= 1"):
            build_demand_conditional(series, 1.0, min_count=0)


class TestConnectivity:
    def test_synthetic_table_is_connected(self, synthetic_tables):
        assert count_cell_components(synthetic_tables.joint) == 1
        assert_ergodic(synthetic_tables.joint)  # should not raise

    def test_disconnected_blocks_detected(self):
        counts = np.array([[4, 0], [0, 4]], dtype=np.int64)
        table = JointTable(
            spec1=WIDE, spec2=WIDE, counts=counts,
            merged_map_1=np.array([0, 1, 1]), merged_map_2=np.array([0, 1, 1]),
            w1_values=np.array([5.0] * 4 + [15.0] * 4),
            w2_values=np.array([5.0] * 4 + [15.0] * 4),
            row_of=np.array([0] * 4 + [1] * 4), col_of=np.array([0] * 4 + [1] * 4))
        assert count_cell_components(table) == 2
        with pytest.raises(ErgodicityError, match="disconnected"):
            assert_ergodic(table)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_sparse_tables_match_union_find(self, data):
        n_rows = data.draw(st.integers(min_value=1, max_value=12))
        n_cols = data.draw(st.integers(min_value=1, max_value=12))
        cells = data.draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                             st.integers(0, n_cols - 1)),
                                   min_size=1, max_size=n_rows + n_cols))
        counts = np.zeros((n_rows, n_cols), dtype=np.int64)
        for i, j in cells:
            counts[i, j] += 1
        assert count_cell_components(table_with_counts(counts)) == union_find_components(counts)

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_three_or_more_blocks_detected(self, data):
        # disjoint blocks on their own rows and columns, between empty rows and
        # columns, then shuffled: at least one component per block
        blocks = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                    min_size=3, max_size=4))
        n_rows = sum(r for r, _ in blocks) + data.draw(st.integers(0, 2))
        n_cols = sum(c for _, c in blocks) + data.draw(st.integers(0, 2))
        counts = np.zeros((n_rows, n_cols), dtype=np.int64)
        row = col = 0
        for rows, cols in blocks:
            cells = data.draw(st.lists(st.booleans(), min_size=rows * cols,
                                       max_size=rows * cols).filter(any))
            counts[row:row + rows, col:col + cols] = np.reshape(cells, (rows, cols))
            row, col = row + rows, col + cols
        counts = counts[data.draw(st.permutations(range(n_rows)))]
        counts = counts[:, data.draw(st.permutations(range(n_cols)))]
        expected = union_find_components(counts)
        assert expected >= 3
        table = table_with_counts(counts)
        assert count_cell_components(table) == expected
        with pytest.raises(ErgodicityError, match=f"splits into {expected} disconnected"):
            assert_ergodic(table)
