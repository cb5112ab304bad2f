"""Three-variable Gibbs sampler over the empirical tables, plus
ensemble convergence diagnostics.

``SamplerTables.from_series`` holds the table policy: it bins a series,
merges sparse bins, checks that the joint table is connected and groups
the records of each conditional into flat CSR arrays, checked and in the
kernel's types, once: no chain checks the tables again. Each sweep
resamples w1 given w2's bin, then w2 given the new w1's bin, then demand
given the binned mean of the new winds, in exactly that order. Every draw
consumes uniforms from a per-chain generator derived from the master seed
and the chain index, so a realisation is reproducible in isolation.
``run_chains`` is the one sampler (``run_chain`` is its one-chain case): it
draws each chain's start state, then the ``gibbs_chain`` kernel of
``_kernels.c`` runs the sweeps over the CSR arrays, two chains at a time,
drawing each chain's uniforms from its own numpy PCG64 stream, so no array
of uniforms is built. When the kernel cannot be built or loaded, a
plain-Python loop runs each chain from one numpy draw of its uniforms, with
the same bits. Samples stay in memory: nothing here writes files.

The confidence width's Student-t quantile is scipy's ``stdtrit``, read from
a table of its values up to N = 256 realisations and imported only for larger
ensembles, so the CLI never loads ``scipy.special``, its slowest import.
"""
from __future__ import annotations

import ctypes
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

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
        if 3 * self.n * 8 > np.iinfo(np.intp).max:  # its 3 x n float64 states (or uniforms)
            raise DistributionError(f"chain length n={self.n} is too long for numpy "
                                    f"to address its 3 x n samples")
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


@dataclass(frozen=True, eq=False)
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

    Returns each group's int64 start and float64 length, then every ``v`` in
    ``values`` reordered into a new C-contiguous array so that groups lie end
    to end in key order, each in record order. Lengths are float64 so
    ``u * length`` rounds exactly as it does with a Python int.
    """
    order = np.argsort(keys, kind="stable")
    lengths = np.bincount(keys, minlength=n_groups)
    return (np.cumsum(lengths, dtype=np.int64) - lengths, lengths.astype(np.float64),
            *(v[order] for v in values))


def _kernel_arguments(flat, mean_map: np.ndarray, spec: BinSpec) -> _native.GibbsTables:
    """``gibbs_chain``'s tables: the addresses of the CSR arrays and the
    mean-wind map, then the mean-wind bins. Taken once, where the tables are
    built; an array that is not C-contiguous in the kernel's dtype (int64
    starts and indices, float64 lengths and values) is refused, not passed.
    """
    arrays = (*flat[0], *flat[1], *flat[2], mean_map)
    if any(a.dtype != dtype or not a.flags.c_contiguous
           for a, dtype in zip(arrays, (np.int64, np.float64, np.float64, np.int64) * 3)):
        raise TypeError("gibbs_chain needs C-contiguous int64 indices and float64 values")
    return _native.GibbsTables(*(a.ctypes.data for a in arrays), spec.origin, spec.width,
                               spec.n_bins)


@dataclass(frozen=True, eq=False)
class SamplerTables:
    """The joint wind table and the demand conditional, checked and grouped.

    ``flat`` holds the three conditionals the sampler draws from, as CSR
    arrays. Per retained column: the raw w1 values of its member records and
    their retained rows. Per retained row: the raw w2 values and retained
    columns. Per retained mean-wind row: the raw demand values. Drawing a
    member uniformly reproduces count-proportional conditional weights.
    They and the mean-wind map are built in the kernel's types, and
    ``_kernel_tables`` holds ``gibbs_chain``'s struct of them.
    Construction fails if the joint table is disconnected, a member value is
    not finite, a mean-wind row has no demand records, or a mean wind the
    chain can form has no row >= 0.
    """

    joint: JointTable
    demand: DemandConditional
    flat: tuple[tuple[np.ndarray, ...], ...] = field(init=False, repr=False)
    _mean_map: np.ndarray = field(init=False, repr=False)
    _kernel_tables: _native.GibbsTables = field(init=False, repr=False)

    def __post_init__(self):
        joint, demand, spec = self.joint, self.demand, self.demand.mean_spec
        assert_ergodic(joint)
        w1, w2, p_d = (np.asarray(v, dtype=np.float64) for v in
                       (joint.w1_values, joint.w2_values, demand.demand_values))
        if not all(np.isfinite(v).all() for v in (w1, w2, p_d)):
            raise DistributionError("table member values must be finite")
        row_of, col_of = (np.asarray(v, dtype=np.int64) for v in (joint.row_of, joint.col_of))
        flat = (_csr(col_of, joint.n_cols, w1, row_of),
                _csr(row_of, joint.n_rows, w2, col_of),
                _csr(demand.row_of, demand.n_rows, p_d))
        empty = np.flatnonzero(flat[2][1] == 0)
        if len(empty):
            raise DistributionError(f"mean-wind row {empty[0]} has no demand members")
        mean_map = np.ascontiguousarray(demand.merged_map, dtype=np.int64)
        if len(mean_map) != spec.n_bins or (mean_map < 0).any():
            raise DistributionError(f"mean-wind map needs a row >= 0 per bin ({spec.n_bins})")
        lowest = (float(w1.min()) + float(w2.min())) * 0.5  # bins clamp only above
        if spec.unchecked_indices(np.float64(lowest)) < 0:
            raise DistributionError(f"mean wind {lowest} lies below the mean-wind bins")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "_mean_map", mean_map)
        object.__setattr__(self, "_kernel_tables", _kernel_arguments(flat, mean_map, spec))

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


def _start(config: ChainConfig, tables: SamplerTables, chain_index: int
           ) -> tuple[np.random.Generator, int, np.ndarray]:
    """Chain ``chain_index``'s generator after its two start draws, its start
    column and its (3, retained) output, holding the start state if kept."""
    joint = tables.joint
    rng = chain_rng(config.seed, chain_index)
    out = np.empty((3, config.retained))
    u0, u1 = rng.random(2)
    record = int(u0 * len(joint.w1_values))
    w1, w2 = joint.w1_values[record], joint.w2_values[record]
    if config.burn_in == 0:
        out[:, 0] = w1, w2, _draw_demand(tables, w1, w2, u1)
    return rng, int(joint.col_of[record]), out


def _start_words(rng: np.random.Generator, j: int) -> tuple[int, ...]:
    """``gibbs_chain``'s five start words for a chain: its PCG64 state and
    increment as (high, low) 64-bit halves, then its start column."""
    pcg = rng.bit_generator.state["state"]
    return (*divmod(pcg["state"], 1 << 64), *divmod(pcg["inc"], 1 << 64), j)


def run_chains(config: ChainConfig, tables: SamplerTables,
               indices: Sequence[int]) -> list[Realisation]:
    """Realisations ``indices``, in that order: n states each, the first
    floor(burn_in * n) discarded.

    A chain starts from a uniformly drawn historic record (its (w1, w2) pair
    and column, then demand given the pair's mean wind); each sweep draws
    w1 | w2-bin, then w2 | new w1-bin, then demand | mean-wind bin. Chain k
    takes its uniforms from ``chain_rng(seed, k)``, two for the start and
    three per sweep in that order, so it does not depend on which other
    chains run. The compiled kernel draws the sweeps' uniforms from that
    stream itself and advances consecutive chains two at a time; when it
    cannot load, Python runs each chain's sweeps from one draw of them all.
    """
    kernels = _native.load_kernels()
    realisations = []
    for at in range(0, len(indices), 2):
        pair = indices[at:at + 2]
        chains = [_start(config, tables, k) for k in pair]
        if kernels is None:
            for rng, j, out in chains:
                _sweep_python(tables, rng.random(3 * (config.n - 1)), j, config.burn_in, out)
        else:
            words = np.array([w for rng, j, _ in chains for w in _start_words(rng, j)],
                             dtype=np.uint64)
            outs = [out.ctypes.data for _, _, out in chains] + [None]  # None: no second chain
            kernels.gibbs_chain(config.n, config.burn_in, words.ctypes.data,
                                ctypes.addressof(tables._kernel_tables), *outs[:2])
        realisations += [Realisation(w1=out[0], w2=out[1], p_d=out[2], chain_index=k)
                         for k, (_, _, out) in zip(pair, chains)]
    return realisations


def run_chain(config: ChainConfig, tables: SamplerTables, chain_index: int) -> Realisation:
    """Realisation ``chain_index`` alone: ``run_chains`` of that one index."""
    return run_chains(config, tables, (chain_index,))[0]


def _draw_demand(tables: SamplerTables, w1, w2, u):
    """Demand for winds ``w1``, ``w2`` (arrays or scalars): member ``u * size``
    of their mean-wind row, whose bins cover every mean of two sampled winds."""
    start, length, values = tables.flat[2]
    row = tables._mean_map[tables.demand.mean_spec.unchecked_indices((w1 + w2) * 0.5)]
    return values[start[row] + (u * length[row]).astype(np.int64)]


def _sweep_python(tables: SamplerTables, uniforms: np.ndarray, j: int, burn: int,
                  out: np.ndarray) -> None:
    """The kernel's sweeps from start column ``j``: the winds one sweep at a
    time over list copies of the tables, then the kept states' demand in one
    numpy step. Writes the states kept after burn-in to the end of ``out``."""
    (col_start, col_len, col_w1, col_row), (row_start, row_len, row_w2, row_col) = \
        [[a.tolist() for a in group] for group in tables.flat[:2]]
    u = uniforms.reshape(-1, 3)
    w1, w2 = [], []
    for u0, u1 in u[:, :2].tolist():
        k = col_start[j] + int(u0 * col_len[j])
        w1.append(col_w1[k])
        i = col_row[k]
        k = row_start[i] + int(u1 * row_len[i])
        w2.append(row_w2[k])
        j = row_col[k]
    kept = max(burn, 1) - 1  # sweep t fills list entry t - 1
    w1, w2 = np.array(w1[kept:]), np.array(w2[kept:])
    out[:, out.shape[1] - len(w1):] = w1, w2, _draw_demand(tables, w1, w2, u[kept:, 2])


def run_ensemble(config: ChainConfig, tables: SamplerTables,
                 workers: int = 1) -> list[Realisation]:
    """Run the configured number of independent realisations, ordered by
    chain index and sampled two at a time: chain k is
    ``run_chain(config, tables, k)``. ``workers`` is accepted for older
    callers and has no effect."""
    return run_chains(config, tables, range(config.realisations))


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


# float(scipy.special.stdtrit(df, 0.975)) for df = 1..255, i.e. N = 2..256
# realisations, as exact repr literals. Regenerate with
#   python -c "from scipy.special import stdtrit; print([float(stdtrit(df, 0.975)) for df in range(1, 256)])"
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
    1.983731002955606, 1.9834952585628793, 1.9832641447734565, 1.9830375264837259,
    1.9828152737950475, 1.9825972617655006, 1.9823833701756908, 1.982173483307727,
    1.9819674897364825, 1.981765282132372, 1.9815667570749007, 1.9813718148763053,
    1.981180359414661, 1.9809922979758567, 1.9808075411039094, 1.9806260024590894,
    1.9804475986834025, 1.980272249272974, 1.9800998764569397, 1.9799304050824402,
    1.9797637625053868, 1.9795998784866382, 1.9794386850933035, 1.9792801166048548,
    1.9791241094237977, 1.9789706019906281, 1.9788195347028539, 1.978670849837835,
    1.9785244914792577, 1.9783804054470222, 1.9782385392303798, 1.9780988419241303,
    1.9779612641677262, 1.9778257580871244, 1.9776922772392527, 1.977560776558935,
    1.9774312123081748, 1.9773035420276506, 1.977177724490333, 1.9770537196570985,
    1.9769314886342528, 1.9768109936328597, 1.976692197929798, 1.9765750658304433,
    1.9764595626329178, 1.9763456545938125, 1.976233308895327, 1.9761224936137445,
    1.976013177689192, 1.9759053308966201, 1.9757989238179392, 1.97569392781527,
    1.9755903150052492, 1.9754880582343404, 1.9753871310551152, 1.9752875077034489,
    1.9751891630765912, 1.9750920727120844, 1.9749962127674756, 1.9749015600007986,
    1.974808091751787, 1.974715785923791, 1.974624620966361, 1.9745345758584756,
    1.9744456300923825, 1.9743577636580294, 1.9742709570280557, 1.9741851911433248,
    1.9741004473989765, 1.9740167076309703, 1.973933954103107, 1.9738521694945061,
    1.973771336887522, 1.9736914397560734, 1.9736124619543842, 1.9735343877061042,
    1.9734572015938032, 1.9733808885488238, 1.9733054338414737, 1.9732308230715456,
    1.9731570421591593, 1.973084077335903, 1.973011915136267, 1.9729405423893598,
    1.9728699462108963, 1.9728001139954416, 1.9727310334089099, 1.9726626923813002,
    1.9725950790996682, 1.972528182001318, 1.972461989767211, 1.9723964913155805,
    1.9723316757957499, 1.9722675325821355, 1.9722040512684433, 1.9721412216620415,
    1.9720790337785026, 1.9720174778363146, 1.9719565442517533, 1.9718962236339088,
    1.971836506779859, 1.9717773846699893, 1.9717188484634527, 1.971660889493761,
    1.971603499264511, 1.9715466694452266, 1.971490391867333, 1.971434658520241,
    1.9713794615475437, 1.9713247932433307, 1.9712706460485947, 1.9712170125477517,
    1.971163885465255, 1.971111257662303, 1.971059122133646, 1.9710074720044717,
    1.9709563005273885, 1.970905601079485, 1.9708553671594717, 1.9708055923849026,
    1.970756270489474, 1.9707073953203922, 1.9706589608358154, 1.9706109611023637,
    1.970563390292698, 1.97051624268316, 1.9704695126514764, 1.9704231946745232,
    1.9703772833261541, 1.9703317732750762, 1.9702866592827877, 1.9702419362015695,
    1.9701975989725262, 1.9701536426236785, 1.9701100622681034, 1.970066853102126,
    1.9700240104035507, 1.9699815295299445, 1.9699394059169584, 1.9698976350766917,
    1.969856212596099, 1.969815134135437, 1.9697743954267473, 1.9697339922723787,
    1.9696939205435462, 1.9696541761789226, 1.9696147551832692, 1.969575653626095,
    1.9695368676403504, 1.9694983934211532, 1.9694602272245434, 1.9694223653662697,
    1.9693848042206037, 1.9693475402191811, 1.9693105698498752,
)


def wci_95(sigma: float, n_realisations: int) -> float:
    """Width of the 95% confidence interval for the grand mean.

    ``sigma`` is the sample standard deviation of the per-realisation means;
    the width is 2 * t(0.975, N-1) * sigma / sqrt(N). The quantile is
    ``scipy.special.stdtrit(N - 1, 0.975)``: read from ``_T975`` up to
    N = 256, and from scipy, imported here, beyond it.
    """
    if n_realisations < 2:
        raise DistributionError("confidence width needs at least 2 realisations")
    if n_realisations - 1 <= len(_T975):
        quantile = _T975[n_realisations - 2]
    else:
        from scipy.special import stdtrit
        quantile = float(stdtrit(n_realisations - 1, 0.975))
    return 2.0 * quantile * sigma / math.sqrt(n_realisations)


def convergence_stats(realisations: list[Realisation],
                      historic: JointSeries) -> StatsReport:
    """``stats_from_means`` of the realisations' means and length."""
    return stats_from_means([r.means() for r in realisations], historic,
                            len(realisations[0]) if realisations else 0)


def stats_from_means(chain_means: Sequence[tuple[float, float, float]],
                     historic: JointSeries, sample_size: int) -> StatsReport:
    """Per-variable ensemble mean, spread, confidence width and max error
    from each chain's (w1, w2, p_d) means, of ``sample_size`` states each.

    sigma is the standard deviation (ddof=1) of per-realisation means; the
    max error is the worst per-realisation mean's relative deviation from
    the historic mean, in percent.
    """
    n = len(chain_means)
    if n < 2:
        raise DistributionError(
            f"convergence statistics need >= 2 realisations, got {n}")
    chain_means = np.array(chain_means)
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
                       n_realisations=n, sample_size=sample_size)
