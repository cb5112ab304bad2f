"""End-to-end scenario execution and report emission.

Pipeline: ingest -> distribution tables -> one job per chain -> ensemble
aggregation. A job samples chain k, builds its energy tables once (cost
parameters cannot affect the physics), solves the equilibrium at every sweep
point and returns the chain's means and its (sweep, 4) block, so no
realisation outlives its job; ``stats``' jobs return only the means. Jobs run
on ``workers`` threads (the compiled kernels and numpy's k x k loops release
the GIL) and each result depends on the chain index alone, so reports are
byte-identical for every pool size. Failures, in a thread too, running out of
memory and Ctrl-C are re-raised tagged with their stage; after one, no job
starts and those in flight finish. Reports are renamed into place once written.
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ScenarioConfig
from .errors import StageError, WindGameError
from .game import CostParams, equilibrium
from .gibbs import Realisation, SamplerTables, StatsReport, run_chain, stats_from_means
from .ingest import JointSeries, align_series, load_series_csv, normalize_demand
from .sim import PowerCurve, StrategyGrid, build_energy_tables, default_power_curve, \
    fit_sigmoid, load_curve_points

log = logging.getLogger("windgame")

STAT_ORDER = ("mean", "min", "max")


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Aggregated equilibria per sweep point plus diagnostics and metadata."""

    sweep_parameter: str
    sweep_fracs: list[float]
    per_realisation: np.ndarray  # (sweep, realisation, 4): p_n1, p_n2, pi1, pi2
    aggregates: np.ndarray       # (sweep, 3, 4): mean, min, max
    stats: StatsReport | None  # None for a single realisation
    metadata: dict


@contextlib.contextmanager
def _stage(name: str, timing: dict):
    log.info("stage %s: start", name)
    start = time.perf_counter()
    try:
        yield
    except WindGameError as exc:
        raise StageError(name, exc) from exc
    except KeyboardInterrupt as exc:
        raise StageError(name, WindGameError("interrupted")) from exc
    except MemoryError as exc:
        raise StageError(name, WindGameError(f"out of memory: {exc}")) from exc
    elapsed = time.perf_counter() - start
    timing[name] = round(elapsed, 3)
    log.info("stage %s: done in %.2fs", name, elapsed)


def ingest_joint_series(config: ScenarioConfig) -> JointSeries:
    """Load, clean, normalize and align the three configured series."""
    (w1, rep1), (w2, rep2), (demand, rep3) = [
        load_series_csv(source.path, {"timestamp": source.time_col,
                                      "value": source.value_col}, label=label)
        for label, source in (("wind1", config.wind1), ("wind2", config.wind2),
                              ("demand", config.demand))]
    for report in (rep1, rep2, rep3):
        log.info("%s", report.summary())
    demand = normalize_demand(demand, config.demand_target_mean)
    series = align_series(w1, w2, demand)
    log.info("aligned joint series: %d records", len(series))
    return series


def build_tables(series: JointSeries, config: ScenarioConfig) -> SamplerTables:
    """Bin, merge and connectivity-check the empirical distributions."""
    tables = SamplerTables.from_series(series, config.wind_bin_width, config.min_count)
    log.info("joint table %dx%d, demand conditional %d rows",
             tables.joint.n_rows, tables.joint.n_cols, tables.demand.n_rows)
    return tables


def resolve_power_curve(config: ScenarioConfig) -> PowerCurve:
    if config.curve_alpha is not None:
        return PowerCurve(alpha=config.curve_alpha, beta=config.curve_beta)
    if config.curve_points is not None:
        return fit_sigmoid(load_curve_points(config.curve_points))
    return default_power_curve()


def _swept_costs(base: CostParams, parameter: str, frac: float) -> CostParams:
    return replace(base, **{parameter: frac * base.p_g})


def _sampling_stages(config: ScenarioConfig, timing: dict
                     ) -> tuple[JointSeries, SamplerTables]:
    """The staged pipeline prefix: ingest -> tables. Returns the aligned
    series and the sampler tables; ``timing`` receives each stage's seconds."""
    with _stage("ingest", timing):
        series = ingest_joint_series(config)
    with _stage("tables", timing):
        tables = build_tables(series, config)
    return series, tables


def _map_chains(job, config: ScenarioConfig, workers: int) -> list:
    """``job(k)`` for every chain index k, run on ``workers`` threads, in chain
    order. After a job fails, no further job starts."""
    n, results = config.chain.realisations, []
    with ThreadPoolExecutor(max_workers=min(workers, n)) as pool:
        for result in pool.map(job, range(n)):
            results.append(result)
            log.info("realisation %d/%d done", len(results), n)
    return results


def _solve_realisation(realisation: Realisation, curve: PowerCurve, grid: StrategyGrid,
                       costs: list[CostParams]) -> np.ndarray:
    """Equilibria of one realisation at every sweep point: a (sweep, 4) block
    of p_n1, p_n2, pi1, pi2, from energy tables built once for all points."""
    energies = build_energy_tables(realisation, curve, grid)
    block = np.empty((len(costs), 4))
    for s_idx, point in enumerate(costs):
        eq = equilibrium(energies, point)
        block[s_idx] = (eq.p_n1_star, eq.p_n2_star, eq.pi1_star, eq.pi2_star)
    return block


def run_stats(config: ScenarioConfig, workers: int = 1) -> StatsReport:
    """Convergence diagnostics of the configured ensemble (two or more
    chains), sampled one chain per job on ``workers`` threads."""
    series, tables = _sampling_stages(config, {})
    with _stage("sample", {}):
        means = _map_chains(lambda k: run_chain(config.chain, tables, k).means(),
                            config, workers)
        return stats_from_means(means, series, config.chain.retained)


def run_scenario(config: ScenarioConfig, workers: int = 1) -> ScenarioResult:
    """Execute the full pipeline for one scenario sweep."""
    timing: dict = {}
    series, tables = _sampling_stages(config, timing)
    with _stage("curve", timing):
        curve = resolve_power_curve(config)
    with _stage("game", timing):
        grid = StrategyGrid(step=config.grid_step, p_n_max=config.grid_max)
        sweep_fracs = config.sweep.values()
        costs = [_swept_costs(config.costs, config.sweep.parameter, frac)
                 for frac in sweep_fracs]

        def job(k: int) -> tuple[tuple[float, float, float], np.ndarray]:
            realisation = run_chain(config.chain, tables, k)
            return realisation.means(), _solve_realisation(realisation, curve, grid, costs)

        means, blocks = zip(*_map_chains(job, config, workers))
        stats = stats_from_means(means, series, config.chain.retained) if len(means) > 1 else None
        per_real = np.stack(blocks, axis=1)
        aggregates = np.stack([per_real.mean(axis=1),
                               per_real.min(axis=1),
                               per_real.max(axis=1)], axis=1)

    metadata = {
        "seed": config.chain.seed,
        "n": config.chain.n,
        "realisations": config.chain.realisations,
        "burn_in_fraction": config.chain.burn_in_fraction,
        "grid_step_mw": config.grid_step,
        "grid_max_mw": config.grid_max,
        "min_count": config.min_count,
        "wind_bin_width_ms": config.wind_bin_width,
        "demand_bin_width_mw": config.demand_bin_width,
        "sweep_parameter": config.sweep.parameter,
        "costs": {"p_g": config.costs.p_g, "p_t": config.costs.p_t,
                  "c_g1": config.costs.c_g1, "c_g2": config.costs.c_g2,
                  "c_t": config.costs.c_t},
        "power_curve": {"alpha": curve.alpha, "beta": curve.beta},
        "records": len(series),
        "versions": {"windgame": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
        "timing_s": timing,
    }
    return ScenarioResult(sweep_parameter=config.sweep.parameter,
                          sweep_fracs=sweep_fracs,
                          per_realisation=per_real,
                          aggregates=aggregates,
                          stats=stats,
                          metadata=metadata)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_atomic(path: Path, lines: list[str]) -> None:
    """Write ``lines`` to a temporary file beside ``path``, then rename it over
    ``path``, so an interrupted write never leaves a partial report."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise StageError("report", WindGameError(f"cannot write {path}: {exc}")) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def emit_report(result: ScenarioResult, out_dir: str | Path) -> list[Path]:
    """Write equilibria.csv, per_realisation.csv, convergence.csv and run.json.

    Float cells use shortest round-trip formatting, so identical results
    serialize to identical bytes.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StageError("report", WindGameError(f"cannot create {out_dir}: {exc}"))

    equilibria = ["sweep_value,stat,p_n1,p_n2,pi1,pi2"]
    per_realisation = ["sweep_value,realisation,p_n1,p_n2,pi1,pi2"]
    for s_idx, frac in enumerate(result.sweep_fracs):
        for stat_idx, stat in enumerate(STAT_ORDER):
            row = result.aggregates[s_idx, stat_idx]
            equilibria.append(",".join([_fmt(frac), stat] + [_fmt(v) for v in row]))
        for r_idx, row in enumerate(result.per_realisation[s_idx]):
            per_realisation.append(",".join([_fmt(frac), str(r_idx)]
                                            + [_fmt(v) for v in row]))

    convergence = ["variable,mean,sigma,wci95,max_err_pct,historic_mean"]
    if result.stats is not None:
        for v in result.stats.rows():
            convergence.append(",".join([v.name, _fmt(v.mean), _fmt(v.sigma), _fmt(v.wci),
                                         _fmt(v.max_err_pct), _fmt(v.historic_mean)]))

    reports = {"equilibria.csv": equilibria,
               "per_realisation.csv": per_realisation,
               "convergence.csv": convergence,
               "run.json": [json.dumps(result.metadata, indent=2, sort_keys=True)]}
    paths = []
    for name, lines in reports.items():
        paths.append(out_dir / name)
        _write_atomic(paths[-1], lines)
    return paths
