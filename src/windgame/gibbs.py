"""Three-variable Gibbs sampler over the empirical tables, plus
ensemble convergence diagnostics.

``SamplerTables.from_series`` holds the table policy: it bins a series,
merges sparse bins, checks that the joint table is connected and groups
the records of each conditional into flat CSR arrays, once. Each sweep
resamples w1 given w2's bin, then w2 given the new w1's bin, then demand
given the binned mean of the new winds, in exactly that order. Every draw
consumes uniforms from a per-chain generator derived from the master seed
and the chain index, so a realisation is reproducible in isolation. The
start states of an ensemble are drawn together; then the ``gibbs_chain``
kernel of ``_kernels.c`` runs each chain's sweeps over the CSR arrays. When
the kernel cannot be built or loaded, a numpy loop advances all chains
together, one sweep per numpy step, with the same bits. Either way each
chain is bit-identical to the same chain run alone. Samples stay in memory:
nothing here writes files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtrit

from . import _native
from .dist import (BinSpec, DemandConditional, JointTable, assert_ergodic,
                   build_demand_conditional, build_joint_wind_table, merge_sparse_bins)
from .errors import DistributionError
from .ingest import JointSeries


@dataclass(frozen=True)
class ChainConfig:
    """Sampling-run dimensions: chain length, ensemble size, burn-in, seed."""

    n: int
    realisations: int
    burn_in_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DistributionError(f"chain length n must be >= 1, got {self.n}")
        if self.realisations < 1:
            raise DistributionError(f"realisations must be >= 1, got {self.realisations}")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise DistributionError(
                f"burn_in_fraction must be in [0, 1), got {self.burn_in_fraction}")
        if self.retained < 1:
            raise DistributionError("burn-in leaves no retained samples")
        if self.seed < 0:
            raise DistributionError(f"seed must be >= 0, got {self.seed}")

    @property
    def burn_in(self) -> int:
        return int(math.floor(self.burn_in_fraction * self.n))

    @property
    def retained(self) -> int:
        return self.n - self.burn_in


@dataclass(frozen=True)
class Realisation:
    """One chain's post-burn-in samples."""

    w1: np.ndarray
    w2: np.ndarray
    p_d: np.ndarray
    chain_index: int

    def __len__(self) -> int:
        return len(self.w1)

    def means(self) -> tuple[float, float, float]:
        return (float(self.w1.mean()), float(self.w2.mean()), float(self.p_d.mean()))


def _csr(keys: np.ndarray, n_groups: int, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Group records by key into compressed sparse rows.

    Returns each group's start and length, then every ``v`` in ``values``
    reordered so that groups lie end to end in key order, each in record
    order. Lengths are float64 so ``u * length`` rounds exactly as it does
    with a Python int.
    """
    order = np.argsort(keys, kind="stable")
    lengths = np.bincount(keys, minlength=n_groups)
    return (np.cumsum(lengths) - lengths, lengths.astype(np.float64),
            *(v[order] for v in values))


@dataclass(frozen=True)
class SamplerTables:
    """The joint wind table and the demand conditional, checked and grouped.

    ``flat`` holds the three conditionals the sampler draws from, as CSR
    arrays. Per retained column: the raw w1 values of its member records and
    their retained rows. Per retained row: the raw w2 values and retained
    columns. Per retained mean-wind row: the raw demand values. Drawing a
    member uniformly reproduces count-proportional conditional weights.
    Construction fails if the joint table is disconnected or a mean-wind
    row has no demand records.
    """

    joint: JointTable
    demand: DemandConditional
    flat: tuple[tuple[np.ndarray, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        joint, demand = self.joint, self.demand
        assert_ergodic(joint)
        flat = (_csr(joint.col_of, joint.n_cols, joint.w1_values, joint.row_of),
                _csr(joint.row_of, joint.n_rows, joint.w2_values, joint.col_of),
                _csr(demand.row_of, demand.n_rows, demand.demand_values))
        empty = np.flatnonzero(flat[2][1] == 0)
        if len(empty):
            raise DistributionError(f"mean-wind row {empty[0]} has no demand members")
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_series(cls, series: JointSeries, wind_width: float,
                    min_count: int) -> "SamplerTables":
        """Bin both winds and the mean wind at ``wind_width`` over the ranges
        the series spans, and fold bins holding fewer than ``min_count``
        records into their neighbours."""
        spec1 = BinSpec.covering(float(series.w1.min()), float(series.w1.max()), wind_width)
        spec2 = BinSpec.covering(float(series.w2.min()), float(series.w2.max()), wind_width)
        joint = merge_sparse_bins(build_joint_wind_table(series, spec1, spec2), min_count)
        return cls(joint=joint, demand=build_demand_conditional(series, wind_width, min_count))


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Independent per-chain generator, derived from (seed, chain_index).

    SeedSequence spawn keys give documented stream independence, so chains
    are reproducible individually and identical regardless of run order.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chain_index,))))


# Sweeps of uniforms the numpy fallback draws per chain at a time. Larger
# blocks only add memory: 2,048 gave no speed and raised the peak RSS of
# 170 chains of 50,000 states from 213 to 234 MB.
_BLOCK = 256


def _sample(config: ChainConfig, tables: SamplerTables,
            chain_indices: list[int]) -> list[Realisation]:
    """Run the given chains: every start state at once, then each chain's
    sweeps in the compiled kernel (or all chains in lockstep in numpy).

    A chain starts from a uniformly drawn historic record (its (w1, w2)
    pair, then demand given the pair's mean wind), and each sweep draws
    w1 | w2-bin, then w2 | new w1-bin, then demand | mean-wind bin. Chain k
    takes its uniforms from ``chain_rng(seed, k)``, two for the start and
    three per sweep in that order, so its samples do not depend on which
    chains run beside it. The first ``config.burn_in`` states are dropped.
    """
    flat = tables.flat
    dem_start, dem_len, dem_vals = flat[2]
    joint = tables.joint
    mean_spec = tables.demand.mean_spec
    mean_map = tables.demand.merged_map
    n, burn = config.n, config.burn_in
    rngs = [chain_rng(config.seed, k) for k in chain_indices]
    out = np.empty((3, len(rngs), n - burn))

    def draw_demand(w1, w2, u):
        # build_demand_conditional's mean_spec covers every mean of two
        # sampled winds, so the range check can be skipped
        row = mean_map[mean_spec.unchecked_indices((w1 + w2) * 0.5)]
        return dem_vals[dem_start[row] + (u * dem_len[row]).astype(np.int64)]

    u = np.array([rng.random(2) for rng in rngs]).T
    record = (u[0] * len(joint.w1_values)).astype(np.int64)
    w1 = joint.w1_values[record]
    w2 = joint.w2_values[record]
    p_d = draw_demand(w1, w2, u[1])
    j = joint.merged_map_2[joint.spec2.indices(w2)]
    if burn == 0:
        out[:, :, 0] = w1, w2, p_d

    kernels = _native.load_kernels()
    if kernels is None:
        _sweep_numpy(flat, draw_demand, rngs, j, n, burn, out)
    else:
        uniforms = np.empty(3 * (n - 1))
        for c, rng in enumerate(rngs):
            rng.random(out=uniforms)
            kernels.gibbs_chain(n, burn, uniforms, int(j[c]), *flat[0], *flat[1], *flat[2],
                                mean_map, mean_spec.origin, mean_spec.width,
                                mean_spec.n_bins, out[0, c], out[1, c], out[2, c])

    return [Realisation(w1=out[0, c], w2=out[1, c], p_d=out[2, c], chain_index=index)
            for c, index in enumerate(chain_indices)]


def _sweep_numpy(flat, draw_demand, rngs, j, n, burn, out) -> None:
    """The kernel's sweeps, for all chains in lockstep: one sweep per numpy
    step from the start columns ``j``."""
    (col_start, col_len, col_w1, col_row), (row_start, row_len, row_w2, row_col), _ = flat
    block = np.empty((len(rngs), 3 * _BLOCK))
    for first in range(1, n, _BLOCK):
        size = min(_BLOCK, n - first)
        for c, rng in enumerate(rngs):
            rng.random(out=block[c, :3 * size])
        uniforms = block[:, :3 * size].reshape(-1, size, 3).transpose(1, 2, 0).copy()
        for t, (u0, u1, u2) in enumerate(uniforms, first):
            k = col_start[j] + (u0 * col_len[j]).astype(np.int64)
            w1 = col_w1[k]
            i = col_row[k]
            k = row_start[i] + (u1 * row_len[i]).astype(np.int64)
            w2 = row_w2[k]
            j = row_col[k]
            p_d = draw_demand(w1, w2, u2)
            if t >= burn:
                out[0, :, t - burn] = w1
                out[1, :, t - burn] = w2
                out[2, :, t - burn] = p_d


def run_chain(config: ChainConfig, tables: SamplerTables, chain_index: int) -> Realisation:
    """Generate one realisation: n states, first floor(burn_in * n) discarded."""
    return _sample(config, tables, [chain_index])[0]


def run_ensemble(config: ChainConfig, tables: SamplerTables,
                 workers: int = 1) -> list[Realisation]:
    """Run the configured number of independent realisations.

    Chain k is seeded from (config.seed, k), so it is bit-identical to
    ``run_chain(config, tables, k)``; results are ordered by chain index.
    ``workers`` is accepted for older callers and has no effect: sampling
    runs in this process.
    """
    return _sample(config, tables, list(range(config.realisations)))


@dataclass(frozen=True)
class VariableStats:
    """Ensemble diagnostics for one sampled variable."""

    name: str
    mean: float
    sigma: float
    wci: float
    max_err_pct: float
    historic_mean: float


@dataclass(frozen=True)
class StatsReport:
    """Convergence diagnostics across an ensemble of realisations."""

    w1: VariableStats
    w2: VariableStats
    p_d: VariableStats
    n_realisations: int
    sample_size: int

    def rows(self) -> tuple[VariableStats, VariableStats, VariableStats]:
        return (self.w1, self.w2, self.p_d)

    def format_table(self) -> str:
        header = (f"{'variable':<10}{'mean':>12}{'sigma':>10}{'wci95':>10}"
                  f"{'max_err%':>10}{'historic':>12}")
        lines = [header, "-" * len(header)]
        for v in self.rows():
            lines.append(f"{v.name:<10}{v.mean:>12.4f}{v.sigma:>10.4f}"
                         f"{v.wci:>10.4f}{v.max_err_pct:>10.2f}{v.historic_mean:>12.4f}")
        lines.append(f"realisations={self.n_realisations} retained_samples={self.sample_size}")
        return "\n".join(lines)


def wci_95(sigma: float, n_realisations: int) -> float:
    """Width of the 95% confidence interval for the grand mean.

    ``sigma`` is the sample standard deviation of the per-realisation means;
    the width is 2 * t(0.975, N-1) * sigma / sqrt(N).
    """
    if n_realisations < 2:
        raise DistributionError("confidence width needs at least 2 realisations")
    quantile = float(stdtrit(n_realisations - 1, 0.975))
    return 2.0 * quantile * sigma / math.sqrt(n_realisations)


def convergence_stats(realisations: list[Realisation],
                      historic: JointSeries) -> StatsReport:
    """Per-variable ensemble mean, spread, confidence width and max error.

    sigma is the standard deviation (ddof=1) of per-realisation means; the
    max error is the worst per-realisation mean's relative deviation from
    the historic mean, in percent.
    """
    n = len(realisations)
    if n < 2:
        raise DistributionError(
            f"convergence statistics need >= 2 realisations, got {n}")
    chain_means = np.array([r.means() for r in realisations])
    stats = {}
    for name, per_chain, mu in zip(("w1", "w2", "p_d"), chain_means.T, historic.means()):
        sigma = float(per_chain.std(ddof=1))
        stats[name] = VariableStats(
            name=name,
            mean=float(per_chain.mean()),
            sigma=sigma,
            wci=wci_95(sigma, n),
            max_err_pct=float(np.abs(per_chain - mu).max() / mu * 100.0),
            historic_mean=mu)
    return StatsReport(w1=stats["w1"], w2=stats["w2"], p_d=stats["p_d"],
                       n_realisations=n, sample_size=len(realisations[0]))
