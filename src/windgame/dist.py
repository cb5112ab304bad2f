"""Binned empirical joint and conditional distributions with sparse-bin merging.

Tables keep every record's raw values and its retained bin, so sampling
reproduces observed values rather than bin midpoints. Sparse bins are folded
into their nearest better-populated neighbour until every retained bin holds
at least ``min_count`` observations, which is what makes the sampled chain
ergodic; connectivity of the nonempty cells is checked, not silently
repaired. ``gibbs.SamplerTables`` builds these tables from a series, runs
that check and groups the records by retained bin for the sampler. The
tables stay in memory: nothing here writes files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DistributionError, ErgodicityError
from .ingest import JointSeries


def _check_bin_count(count: float, width: float) -> None:
    """Refuse a bin count that is not finite, or whose n x n int64 joint table
    numpy cannot shape."""
    if not math.isfinite(count) or math.ceil(count) ** 2 * 8 > np.iinfo(np.intp).max:
        raise DistributionError(f"bin width {width} gives {count:.4g} bins, too many for "
                                f"an n x n joint table")


@dataclass(frozen=True)
class BinSpec:
    """Uniform binning of one variable: [origin, max_edge) in steps of width.

    The closing edge is inclusive: a value exactly at ``max_edge`` falls into
    the last bin. A width giving more bins than an n x n joint table can hold
    is refused.
    """

    width: float
    origin: float
    max_edge: float

    def __post_init__(self):
        if self.width <= 0.0:
            raise DistributionError(f"bin width must be positive, got {self.width}")
        if self.max_edge <= self.origin:
            raise DistributionError(f"max_edge {self.max_edge} must exceed origin {self.origin}")
        _check_bin_count((self.max_edge - self.origin) / self.width, self.width)

    @property
    def n_bins(self) -> int:
        return int(math.ceil((self.max_edge - self.origin) / self.width))

    @classmethod
    def covering(cls, lo: float, hi: float, width: float) -> "BinSpec":
        """Smallest spec with the given width whose bins cover [lo, hi]."""
        # floor() below needs lo / width finite as well as the count
        _check_bin_count((hi - lo) / width if math.isfinite(lo / width) else math.inf, width)
        origin = math.floor(lo / width) * width
        n = max(1, int(math.ceil((hi - origin) / width)))
        while origin + n * width < hi:
            n += 1
        return cls(width=width, origin=origin, max_edge=origin + n * width)

    def indices(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        bad = ~((values >= self.origin) & (values <= self.max_edge))
        if np.any(bad):
            offender = float(values[bad][0])
            raise DistributionError(
                f"value {offender} outside binned range [{self.origin}, {self.max_edge}]")
        return self.unchecked_indices(values)

    def unchecked_indices(self, values: np.ndarray) -> np.ndarray:
        """``indices`` without the range check, for values known to be in range."""
        return np.minimum(((values - self.origin) / self.width).astype(np.int64),
                          self.n_bins - 1)


def _merge_groups(marginals: np.ndarray, min_count: int) -> np.ndarray:
    """Fold sparse bins into neighbours until all groups hold >= min_count.

    Each round merges the single sparsest group (ties to the lowest index)
    into its better-populated adjacent group; edge groups fold inward, and a
    neighbour tie folds toward the lower index. Empty bins are absorbed the
    same way, so every original bin maps to a populated group. Only adjacent
    groups ever merge, so each group is a run of bins kept as its width.
    Returns the original-bin -> group assignment.
    """
    total = int(marginals.sum())
    if min_count < 1:
        raise DistributionError(f"min_count must be >= 1, got {min_count}")
    if min_count > total:
        raise DistributionError(
            f"min_count={min_count} exceeds total observation count {total}")
    sums = [int(c) for c in marginals]
    widths = [1] * len(sums)
    while len(sums) > 1:
        k = min(range(len(sums)), key=lambda i: (sums[i], i))
        if sums[k] >= min_count:
            break
        if k == 0:
            target = 1
        elif k == len(sums) - 1:
            target = k - 1
        else:
            target = k - 1 if sums[k - 1] >= sums[k + 1] else k + 1
        lo, hi = min(k, target), max(k, target)
        sums[lo] = sums[lo] + sums[hi]
        widths[lo] = widths[lo] + widths[hi]
        del sums[hi]
        del widths[hi]
    return np.repeat(np.arange(len(widths), dtype=np.int64), widths)


@dataclass(frozen=True, eq=False)
class JointTable:
    """Binned empirical joint distribution of the two wind-speed series.

    ``counts`` is indexed by retained (merged) bins; ``merged_map_*`` take an
    original bin index to its retained bin. Raw per-record values plus their
    retained bin indices are kept so conditional slices emit observed values.
    """

    spec1: BinSpec
    spec2: BinSpec
    counts: np.ndarray
    merged_map_1: np.ndarray
    merged_map_2: np.ndarray
    w1_values: np.ndarray = field(repr=False)
    w2_values: np.ndarray = field(repr=False)
    row_of: np.ndarray = field(repr=False)
    col_of: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_cols(self) -> int:
        return self.counts.shape[1]


def build_joint_wind_table(series: JointSeries, spec1: BinSpec, spec2: BinSpec) -> JointTable:
    """Histogram the (w1, w2) pairs of a joint series onto a 2-D grid.

    Every observation must fall inside the specs' ranges; the raw member
    values of each cell are retained for sampling.
    """
    rows = spec1.indices(series.w1)
    cols = spec2.indices(series.w2)
    counts = np.zeros((spec1.n_bins, spec2.n_bins), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return JointTable(
        spec1=spec1, spec2=spec2, counts=counts,
        merged_map_1=np.arange(spec1.n_bins, dtype=np.int64),
        merged_map_2=np.arange(spec2.n_bins, dtype=np.int64),
        w1_values=np.asarray(series.w1, dtype=np.float64),
        w2_values=np.asarray(series.w2, dtype=np.float64),
        row_of=rows, col_of=cols)


def merge_sparse_bins(table: JointTable, min_count: int) -> JointTable:
    """Fold sparse bins along both axes until marginals reach ``min_count``.

    Merging preserves the total count and records the original-bin to
    retained-bin assignment. Row merges cannot change column marginals, so
    the two axes are folded independently.
    """
    assign1 = _merge_groups(table.counts.sum(axis=1), min_count)
    assign2 = _merge_groups(table.counts.sum(axis=0), min_count)

    row_of = assign1[table.row_of]
    col_of = assign2[table.col_of]
    n_rows = int(assign1.max()) + 1
    n_cols = int(assign2.max()) + 1
    counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    np.add.at(counts, (row_of, col_of), 1)

    return JointTable(
        spec1=table.spec1, spec2=table.spec2, counts=counts,
        merged_map_1=assign1[table.merged_map_1],
        merged_map_2=assign2[table.merged_map_2],
        w1_values=table.w1_values, w2_values=table.w2_values,
        row_of=row_of, col_of=col_of)


@dataclass(frozen=True, eq=False)
class DemandConditional:
    """Demand distribution conditioned on the binned mean of the two winds.

    Rows are retained mean-wind bins after the same sparse-merge policy as
    the joint table, applied along the mean-wind axis; every original
    mean-wind bin maps to a populated retained row, so any mean value the
    sampler can produce resolves to a nonempty set of demand records.
    """

    mean_spec: BinSpec
    merged_map: np.ndarray
    demand_values: np.ndarray = field(repr=False)
    row_of: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return int(self.merged_map.max()) + 1


def build_demand_conditional(series: JointSeries, wind_width: float,
                             min_count: int) -> DemandConditional:
    """Group demand records by their binned mean wind, then fold sparse rows.

    The mean-wind bins of the given width cover every mean the sampler can
    produce, [(min w1 + min w2) / 2, (max w1 + max w2) / 2]: resampling the
    winds independently within bins can pair values never observed together.
    """
    mean_spec = BinSpec.covering((float(series.w1.min()) + float(series.w2.min())) / 2.0,
                                 (float(series.w1.max()) + float(series.w2.max())) / 2.0,
                                 wind_width)
    raw_rows = mean_spec.indices((series.w1 + series.w2) / 2.0)
    assign = _merge_groups(np.bincount(raw_rows, minlength=mean_spec.n_bins), min_count)
    return DemandConditional(
        mean_spec=mean_spec, merged_map=assign,
        demand_values=np.asarray(series.p_d, dtype=np.float64),
        row_of=assign[raw_rows])


def count_cell_components(table: JointTable) -> int:
    """Connected components of the bipartite graph of nonempty cells.

    Rows and columns are nodes; a nonempty cell is an edge. One component
    means the chain can reach every retained state from any start. Each
    component is flooded as a set of rows, grown through the columns it
    touches until no row is new.
    """
    adjacency = table.counts > 0
    unreached = adjacency.any(axis=1)
    components = 0
    while unreached.any():
        components += 1
        rows = np.arange(len(unreached)) == np.argmax(unreached)
        while not np.array_equal(grown := adjacency @ (rows @ adjacency), rows):
            rows = grown
        unreached &= ~rows
    return components


def assert_ergodic(table: JointTable) -> None:
    """Raise :class:`ErgodicityError` unless the nonempty cells are connected."""
    components = count_cell_components(table)
    if components != 1:
        raise ErgodicityError(
            f"joint table splits into {components} disconnected blocks; the chain "
            f"cannot visit all states. Increase min_count or the bin width.")

