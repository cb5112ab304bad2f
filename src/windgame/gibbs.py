"""Three-variable Gibbs sampler over the empirical tables, plus
ensemble convergence diagnostics.

Each sweep resamples w1 given w2's bin, then w2 given the new w1's bin, then
demand given the binned mean of the new winds, in exactly that order. Every
draw consumes uniforms from a per-chain generator derived from the master
seed and the chain index, so a realisation is reproducible in isolation and
an ensemble is bit-identical whether run sequentially or in parallel.
"""
from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import stdtrit

from .dist import DemandConditional, JointTable, assert_ergodic
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

    @property
    def burn_in(self) -> int:
        return int(math.floor(self.burn_in_fraction * self.n))

    @property
    def retained(self) -> int:
        return self.n - self.burn_in


@dataclass(frozen=True)
class ChainState:
    """One sampled triple."""

    w1: float
    w2: float
    p_d: float


@dataclass(frozen=True)
class Realisation:
    """One chain's post-burn-in samples."""

    w1: np.ndarray
    w2: np.ndarray
    p_d: np.ndarray
    chain_index: int
    seed: int

    def __len__(self) -> int:
        return len(self.w1)

    def means(self) -> tuple[float, float, float]:
        return (float(self.w1.mean()), float(self.w2.mean()), float(self.p_d.mean()))


class _CompiledSampler:
    """Flat lookup structures for the inner sampling loop.

    Per retained column j: the raw w1 values of its member records and their
    retained rows. Per retained row i: the raw w2 values and retained
    columns. Per retained mean-wind row: the raw demand values. Sampling a
    member uniformly reproduces count-proportional conditional weights.
    """

    __slots__ = ("col_w1", "col_row", "row_w2", "row_col", "dem_vals",
                 "mean_map", "mean_origin", "mean_width", "mean_max_bin",
                 "all_w1", "all_w2", "n_records")

    def __init__(self, joint: JointTable, demand: DemandConditional):
        assert_ergodic(joint)
        w1 = joint.w1_values
        w2 = joint.w2_values
        self.col_w1 = [w1[idx].tolist() for idx in joint.col_records]
        self.col_row = [joint.row_of[idx].tolist() for idx in joint.col_records]
        self.row_w2 = [w2[idx].tolist() for idx in joint.row_records]
        self.row_col = [joint.col_of[idx].tolist() for idx in joint.row_records]
        self.dem_vals = [demand.demand_values[idx].tolist() for idx in demand.row_records]
        for row, vals in enumerate(self.dem_vals):
            if not vals:
                raise DistributionError(f"mean-wind row {row} has no demand members")
        self.mean_map = demand.merged_map.tolist()
        self.mean_origin = demand.mean_spec.origin
        self.mean_width = demand.mean_spec.width
        self.mean_max_bin = demand.mean_spec.n_bins - 1
        self.all_w1 = w1.tolist()
        self.all_w2 = w2.tolist()
        self.n_records = len(w1)

    def mean_row(self, w1: float, w2: float) -> int:
        raw = int(((w1 + w2) * 0.5 - self.mean_origin) / self.mean_width)
        if raw > self.mean_max_bin:
            raw = self.mean_max_bin
        return self.mean_map[raw]


@dataclass(frozen=True)
class SamplerTables:
    """Immutable bundle of the joint wind table and the demand conditional."""

    joint: JointTable
    demand: DemandConditional

    @cached_property
    def compiled(self) -> _CompiledSampler:
        return _CompiledSampler(self.joint, self.demand)


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Independent per-chain generator, derived from (seed, chain_index).

    SeedSequence spawn keys give documented stream independence, so chains
    are reproducible individually and identical regardless of run order.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chain_index,))))


def init_chain(tables: SamplerTables, rng: np.random.Generator) -> ChainState:
    """Start a chain from a uniformly drawn historic record.

    The record supplies the (w1, w2) pair; demand is drawn conditioned on
    the pair's mean wind. Consumes exactly two uniforms.
    """
    c = tables.compiled
    u = rng.random(2)
    k = int(u[0] * c.n_records)
    w1 = c.all_w1[k]
    w2 = c.all_w2[k]
    dem = c.dem_vals[c.mean_row(w1, w2)]
    return ChainState(w1=w1, w2=w2, p_d=dem[int(u[1] * len(dem))])


def gibbs_step(state: ChainState, tables: SamplerTables,
               rng: np.random.Generator) -> ChainState:
    """One full sweep: w1 | w2-bin, then w2 | new w1-bin, then demand | mean.

    Consumes exactly three uniforms, so a fixed generator state and input
    state always produce the same successor.
    """
    c = tables.compiled
    u = rng.random(3)
    j = tables.joint.col_index(state.w2)
    vals = c.col_w1[j]
    k = int(u[0] * len(vals))
    w1 = vals[k]
    i = c.col_row[j][k]
    vals = c.row_w2[i]
    k = int(u[1] * len(vals))
    w2 = vals[k]
    dem = c.dem_vals[c.mean_row(w1, w2)]
    return ChainState(w1=w1, w2=w2, p_d=dem[int(u[2] * len(dem))])


def run_chain(config: ChainConfig, tables: SamplerTables, chain_index: int) -> Realisation:
    """Generate one realisation: n states, first floor(burn_in * n) discarded.

    Equivalent to init_chain followed by n - 1 gibbs_step calls on the
    per-chain generator; the loop is inlined over a pregenerated uniform
    block for speed.
    """
    c = tables.compiled
    n = config.n
    rng = chain_rng(config.seed, chain_index)
    u = rng.random(2 + 3 * (n - 1)).tolist()

    out_w1 = [0.0] * n
    out_w2 = [0.0] * n
    out_pd = [0.0] * n

    col_w1 = c.col_w1
    col_row = c.col_row
    row_w2 = c.row_w2
    row_col = c.row_col
    dem_vals = c.dem_vals
    mean_map = c.mean_map
    origin = c.mean_origin
    width = c.mean_width
    max_bin = c.mean_max_bin

    k = int(u[0] * c.n_records)
    w1 = c.all_w1[k]
    w2 = c.all_w2[k]
    raw = int(((w1 + w2) * 0.5 - origin) / width)
    dem = dem_vals[mean_map[raw if raw <= max_bin else max_bin]]
    p_d = dem[int(u[1] * len(dem))]
    out_w1[0] = w1
    out_w2[0] = w2
    out_pd[0] = p_d
    j = tables.joint.col_index(w2)

    pos = 2
    for t in range(1, n):
        vals = col_w1[j]
        k = int(u[pos] * len(vals))
        w1 = vals[k]
        i = col_row[j][k]
        vals = row_w2[i]
        k = int(u[pos + 1] * len(vals))
        w2 = vals[k]
        j = row_col[i][k]
        raw = int(((w1 + w2) * 0.5 - origin) / width)
        dem = dem_vals[mean_map[raw if raw <= max_bin else max_bin]]
        p_d = dem[int(u[pos + 2] * len(dem))]
        out_w1[t] = w1
        out_w2[t] = w2
        out_pd[t] = p_d
        pos += 3

    burn = config.burn_in
    return Realisation(
        w1=np.array(out_w1[burn:], dtype=np.float64),
        w2=np.array(out_w2[burn:], dtype=np.float64),
        p_d=np.array(out_pd[burn:], dtype=np.float64),
        chain_index=chain_index, seed=config.seed)


_WORKER_STATE: dict = {}


def _worker_init(config: ChainConfig, tables: SamplerTables) -> None:
    _WORKER_STATE["config"] = config
    _WORKER_STATE["tables"] = tables


def _worker_run(chain_index: int) -> Realisation:
    return run_chain(_WORKER_STATE["config"], _WORKER_STATE["tables"], chain_index)


def run_ensemble(config: ChainConfig, tables: SamplerTables,
                 workers: int = 1) -> list[Realisation]:
    """Run the configured number of independent realisations.

    Chain k is seeded from (config.seed, k), so the ensemble is bit-identical
    whether chains execute sequentially or across a process pool; results are
    always ordered by chain index.
    """
    indices = range(config.realisations)
    if workers <= 1 or config.realisations == 1:
        return [run_chain(config, tables, k) for k in indices]
    tables.compiled  # build once; workers inherit or rebuild identically
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, config.realisations),
            initializer=_worker_init, initargs=(config, tables)) as pool:
        return list(pool.map(_worker_run, indices, chunksize=1))


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


def dump_realisations_csv(realisations: list[Realisation], path) -> None:
    """Write sampled states as (chain, t, w1, w2, p_d) rows."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("chain,t,w1,w2,p_d\n")
        for real in realisations:
            for t in range(len(real)):
                handle.write(f"{real.chain_index},{t},{float(real.w1[t])!r},"
                             f"{float(real.w2[t])!r},{float(real.p_d[t])!r}\n")


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
    historic_means = historic.means()
    names = ("w1", "w2", "p_d")
    stats = {}
    for pos, name in enumerate(names):
        per_chain = np.array([r.means()[pos] for r in realisations])
        mu = historic_means[pos]
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
