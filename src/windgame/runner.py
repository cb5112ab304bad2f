"""End-to-end scenario execution and report emission.

Pipeline: ingest -> distribution tables -> chain ensemble -> per-realisation
energy tables -> equilibrium at every sweep point -> ensemble aggregation.
Energy tables are built once per realisation and reused across sweep points,
since cost parameters cannot affect the physics. Realisations are solved
independently, on a process pool when ``workers`` > 1; each result is a
function of the realisation alone, so reports are byte-identical for every
pool size. Failures, including a worker process that dies, are re-raised
tagged with the stage they occurred in, and report files are renamed into
place only once fully written.
"""
from __future__ import annotations

import contextlib
import functools
import json
import logging
import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ScenarioConfig
from .dist import (BinSpec, assert_ergodic, build_demand_conditional,
                   build_joint_wind_table, merge_sparse_bins)
from .errors import StageError, WindGameError
from .game import CostParams, profit_surfaces, stackelberg
from .gibbs import Realisation, SamplerTables, StatsReport, convergence_stats, run_ensemble
from .ingest import JointSeries, align_series, load_series_csv, normalize_demand
from .sim import PowerCurve, StrategyGrid, build_energy_tables, default_power_curve, \
    fit_sigmoid, load_curve_points

log = logging.getLogger("windgame")

STAT_ORDER = ("mean", "min", "max")


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregated equilibria per sweep point plus diagnostics and metadata."""

    sweep_parameter: str
    sweep_fracs: list[float]
    per_realisation: np.ndarray  # (sweep, realisation, 4): p_n1, p_n2, pi1, pi2
    aggregates: np.ndarray       # (sweep, 3, 4): mean, min, max
    stats: StatsReport
    metadata: dict


@contextlib.contextmanager
def _stage(name: str, timing: dict):
    log.info("stage %s: start", name)
    start = time.perf_counter()
    try:
        yield
    except WindGameError as exc:
        raise StageError(name, exc) from exc
    elapsed = time.perf_counter() - start
    timing[name] = round(elapsed, 3)
    log.info("stage %s: done in %.2fs", name, elapsed)


def ingest_joint_series(config: ScenarioConfig) -> JointSeries:
    """Load, clean, normalize and align the three configured series."""
    w1, rep1 = load_series_csv(config.wind1.path,
                               {"timestamp": config.wind1.time_col,
                                "value": config.wind1.value_col}, label="wind1")
    w2, rep2 = load_series_csv(config.wind2.path,
                               {"timestamp": config.wind2.time_col,
                                "value": config.wind2.value_col}, label="wind2")
    demand, rep3 = load_series_csv(config.demand.path,
                                   {"timestamp": config.demand.time_col,
                                    "value": config.demand.value_col}, label="demand")
    for report in (rep1, rep2, rep3):
        log.info("%s", report.summary())
    demand = normalize_demand(demand, config.demand_target_mean)
    series = align_series(w1, w2, demand)
    log.info("aligned joint series: %d records", len(series))
    return series


def build_tables(series: JointSeries, config: ScenarioConfig) -> SamplerTables:
    """Bin, merge and connectivity-check the empirical distributions."""
    wind_width = config.wind_bin_width
    spec1 = BinSpec.covering(float(series.w1.min()), float(series.w1.max()), wind_width)
    spec2 = BinSpec.covering(float(series.w2.min()), float(series.w2.max()), wind_width)
    joint = merge_sparse_bins(build_joint_wind_table(series, spec1, spec2),
                              config.min_count)
    assert_ergodic(joint)

    mean_lo = (float(series.w1.min()) + float(series.w2.min())) / 2.0
    mean_hi = (float(series.w1.max()) + float(series.w2.max())) / 2.0
    mean_spec = BinSpec.covering(mean_lo, mean_hi, wind_width)
    demand_spec = BinSpec.covering(float(series.p_d.min()), float(series.p_d.max()),
                                   config.demand_bin_width)
    demand = build_demand_conditional(series, mean_spec, demand_spec, config.min_count)
    log.info("joint table %dx%d, demand conditional %d rows",
             joint.n_rows, joint.n_cols, demand.n_rows)
    return SamplerTables(joint=joint, demand=demand)


def resolve_power_curve(config: ScenarioConfig) -> PowerCurve:
    if config.curve_alpha is not None:
        return PowerCurve(alpha=config.curve_alpha, beta=config.curve_beta)
    if config.curve_points is not None:
        return fit_sigmoid(load_curve_points(config.curve_points))
    return default_power_curve()


def _swept_costs(base: CostParams, parameter: str, frac: float) -> CostParams:
    return replace(base, **{parameter: frac * base.p_g})


def _sampling_stages(config: ScenarioConfig, timing: dict
                     ) -> tuple[JointSeries, list[Realisation], StatsReport | None]:
    """The staged pipeline prefix: ingest -> tables -> sample.

    Returns the aligned series, the realisations and, for two or more, their
    convergence diagnostics; ``timing`` receives each stage's seconds.
    """
    with _stage("ingest", timing):
        series = ingest_joint_series(config)
    with _stage("tables", timing):
        tables = build_tables(series, config)
    with _stage("sample", timing):
        realisations = run_ensemble(config.chain, tables)
        stats = convergence_stats(realisations, series) if len(realisations) >= 2 else None
    return series, realisations, stats


def _solve_realisation(realisation: Realisation, curve: PowerCurve, grid: StrategyGrid,
                       costs: list[CostParams]) -> np.ndarray:
    """Equilibria of one realisation at every sweep point: a (sweep, 4) block
    of p_n1, p_n2, pi1, pi2. Module-level so a process pool can run it."""
    energies = build_energy_tables(realisation, curve, grid)
    block = np.empty((len(costs), 4))
    for s_idx, point in enumerate(costs):
        eq = stackelberg(profit_surfaces(energies, point), grid)
        block[s_idx] = (eq.p_n1_star, eq.p_n2_star, eq.pi1_star, eq.pi2_star)
    return block


def _solve_all(realisations: list[Realisation], solve, workers: int) -> list[np.ndarray]:
    """``solve`` mapped over the realisations, in order: a plain loop for one
    worker, else a pool of ``min(workers, N)`` fresh interpreters."""
    blocks = []
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            results = map(solve, realisations)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(workers, len(realisations)),
                mp_context=multiprocessing.get_context("spawn")))
            results = pool.map(solve, realisations)
        try:
            for block in results:
                blocks.append(block)
                log.info("realisation %d/%d solved across %d sweep points",
                         len(blocks), len(realisations), len(block))
        except BrokenProcessPool as exc:
            raise WindGameError(f"a worker process died: {exc}") from exc
    return blocks


def run_scenario(config: ScenarioConfig, workers: int = 1) -> ScenarioResult:
    """Execute the full pipeline for one scenario sweep."""
    timing: dict = {}
    series, realisations, stats = _sampling_stages(config, timing)
    with _stage("curve", timing):
        curve = resolve_power_curve(config)
    with _stage("game", timing):
        grid = StrategyGrid(step=config.grid_step, p_n_max=config.grid_max)
        sweep_fracs = config.sweep.values()
        costs = [_swept_costs(config.costs, config.sweep.parameter, frac)
                 for frac in sweep_fracs]
        solve = functools.partial(_solve_realisation, curve=curve, grid=grid, costs=costs)
        per_real = np.stack(_solve_all(realisations, solve, workers), axis=1)
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
