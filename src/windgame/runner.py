"""End-to-end scenario execution and report emission.

Pipeline: ingest -> distribution tables -> chain jobs on a thread pool ->
ensemble aggregation. There is one job: it samples its chains and returns
each chain's means; in ``run`` it also solves the equilibria at every sweep
point in one ``game.solve_realisation`` call, which computes the chain's
energy tables once (cost parameters cannot affect the physics), a block of
rows at a time, and returns the (sweep, 4) block, so no realisation outlives
its job and no job holds a k x k table. A solving job takes one chain, a
``stats`` job two consecutive chains together. Jobs run on ``workers``
threads (the compiled kernels release the GIL) and each result depends on
the chain index alone, so reports are byte-identical for every pool size. Failures, in a thread too, running out of memory and Ctrl-C are
re-raised tagged with their stage; after one, no job starts and those in
flight finish. Reports are renamed into place once written.
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

from . import __version__
from .config import ScenarioConfig
from .errors import ConfigError, StageError, WindGameError
from .game import solve_realisation
from .gibbs import SamplerTables, StatsReport, run_chains, stats_from_means
from .ingest import JointSeries, align_series, load_series_csv, normalize_demand
from .sim import PowerCurve, StrategyGrid, default_power_curve, fit_sigmoid, \
    load_curve_points

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


def _sampling_stages(config: ScenarioConfig, timing: dict
                     ) -> tuple[JointSeries, SamplerTables]:
    """The staged pipeline prefix: ingest -> tables. Returns the aligned
    series and the sampler tables; ``timing`` receives each stage's seconds."""
    with _stage("ingest", timing):
        series = ingest_joint_series(config)
    with _stage("tables", timing):
        tables = build_tables(series, config)
    return series, tables


def _chain_results(config: ScenarioConfig, tables: SamplerTables, workers: int,
                   solve=None) -> list[tuple[tuple[float, float, float], np.ndarray | None]]:
    """Each chain's means and ``solve(realisation)`` (None without ``solve``),
    in chain order, from jobs on ``workers`` threads. A solving job samples one
    chain, so each thread holds one realisation and one block of its tables'
    rows; otherwise a job samples two consecutive chains in the lockstep
    kernel. After a job fails, no further job starts."""
    n, per_job, results = config.chain.realisations, 2 if solve is None else 1, []

    def job(indices: range) -> list:
        return [(r.means(), None if solve is None else solve(r))
                for r in run_chains(config.chain, tables, indices)]

    batches = [range(k, min(k + per_job, n)) for k in range(0, n, per_job)]
    with ThreadPoolExecutor(max_workers=min(workers, len(batches))) as pool:
        for batch in pool.map(job, batches):
            results += batch
            log.info("realisation %d/%d done", len(results), n)
    return results


def run_stats(config: ScenarioConfig, workers: int = 1) -> StatsReport:
    """Convergence diagnostics of the configured ensemble (two or more
    chains), sampled two consecutive chains per job on ``workers`` threads."""
    if config.chain.realisations < 2:
        raise ConfigError("stats needs at least 2 realisations")
    series, tables = _sampling_stages(config, {})
    with _stage("sample", {}):
        means = [m for m, _ in _chain_results(config, tables, workers)]
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
        costs = [replace(config.costs, **{config.sweep.parameter: frac * config.costs.p_g})
                 for frac in sweep_fracs]
        means, blocks = zip(*_chain_results(
            config, tables, workers,
            lambda r: solve_realisation(r, curve, grid, costs)))
        stats = stats_from_means(means, series, config.chain.retained) if len(means) > 1 else None
        per_real = np.stack(blocks, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            aggregates = np.stack([per_real.mean(axis=1),
                                   per_real.min(axis=1),
                                   per_real.max(axis=1)], axis=1)
        if not np.all(np.isfinite(aggregates)):
            raise WindGameError("the ensemble mean of the equilibria overflows")

    import scipy  # here, for its version alone: stats and fit-curve never load it

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


def _write_atomic(reports: dict[Path, list[str]]) -> None:
    """Write each path's lines to a temporary file beside it, then rename
    every one over its path, so an interrupted write never leaves a partial
    report. A path that is a directory or a temporary file that cannot be
    written fails before the first rename and leaves the previous reports
    as they were; a rename that fails after another succeeded (its target
    changed while the reports were written) leaves a mixed set."""
    tmp = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in reports}
    try:
        for path in reports:
            if path.is_dir() and not path.is_symlink():  # a rename replaces a link itself
                raise IsADirectoryError("is a directory")
        for path, lines in reports.items():
            with open(tmp[path], "w", newline="", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        for path in reports:
            os.replace(tmp[path], path)
    except OSError as exc:
        raise StageError("report", WindGameError(f"cannot write {path}: {exc}")) from exc
    finally:
        for name in tmp.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(name)


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

    reports = {out_dir / "equilibria.csv": equilibria,
               out_dir / "per_realisation.csv": per_realisation,
               out_dir / "convergence.csv": convergence,
               out_dir / "run.json": [json.dumps(result.metadata, indent=2, sort_keys=True)]}
    _write_atomic(reports)
    return list(reports)
