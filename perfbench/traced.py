"""Traced recomposition of one ``windgame run`` or ``windgame stats`` call.

Calls the public functions of ingest, dist, gibbs, sim, game and runner in the
order ``runner.run_scenario`` (or the ``stats`` subcommand) calls them, and
times each call from here, so the program itself carries no tracing code.
Spans (name, start, end, parent) stay in memory and are written once, as
JSON, when the run ends, together with exact work counters. The reports it
writes must equal the CLI's byte for byte; ``run.py`` checks that.

    PYTHONPATH=src python3 perfbench/traced.py --config INI --workers K \
        (--out DIR | --stats-out FILE [--profile paper]) --trace-out FILE
"""
import argparse
import contextlib
import json
import time


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


def _ingest(config, counters):
    from windgame.ingest import align_series, load_series_csv, normalize_demand

    loaded = {}
    for label, source in (("wind1", config.wind1), ("wind2", config.wind2),
                          ("demand", config.demand)):
        loaded[label] = load_series_csv(
            source.path, {"timestamp": source.time_col, "value": source.value_col},
            label=label)
    reports = [report for _, report in loaded.values()]
    counters["ingest.rows_read"] = sum(r.rows_read for r in reports)
    counters["ingest.rows_dropped"] = sum(r.dropped_total for r in reports)
    demand = normalize_demand(loaded["demand"][0], config.demand_target_mean)
    series = align_series(loaded["wind1"][0], loaded["wind2"][0], demand)
    counters["ingest.records"] = len(series)
    return series


def _count_surplus_cells(x1, x2, p_d, values):
    """Cell-steps whose total output exceeds demand, computed with the same
    products and sums as ``sim.build_energy_tables``; the other cells add an
    exact +0.0 there."""
    import numpy as np

    k = len(values)
    chunk = max(1, 4_000_000 // (k * k))
    surplus = 0
    for lo in range(0, len(p_d), chunk):
        g1 = x1[lo:lo + chunk, None] * values[None, :]
        g2 = x2[lo:lo + chunk, None] * values[None, :]
        total = g1[:, :, None] + g2[:, None, :]
        surplus += int(np.count_nonzero(total > p_d[lo:lo + chunk, None, None]))
    return surplus


def _sample(tracer, config, series, workers, counters):
    from windgame import runner
    from windgame.gibbs import run_ensemble

    with tracer.span("dist.tables"):
        tables = runner.build_tables(series, config)
    counters["dist.joint_rows"] = tables.joint.n_rows
    counters["dist.joint_cols"] = tables.joint.n_cols
    counters["dist.demand_rows"] = tables.demand.n_rows
    with tracer.span("gibbs.sample"):
        realisations = run_ensemble(config.chain, tables, workers=workers)
    counters["gibbs.steps"] = config.chain.n * len(realisations)
    counters["gibbs.result_bytes"] = sum(r.w1.nbytes + r.w2.nbytes + r.p_d.nbytes
                                         for r in realisations)
    return realisations


def traced_run(tracer, config, workers, out_dir, counters):
    """Mirror of ``runner.run_scenario`` followed by ``runner.emit_report``."""
    import platform
    from dataclasses import replace

    import numpy as np
    import scipy

    from windgame import __version__, runner
    from windgame.game import profit_surfaces, stackelberg
    from windgame.gibbs import convergence_stats
    from windgame.sim import StrategyGrid, build_energy_tables, per_unit_series

    with tracer.span("runner"):
        with tracer.span("ingest"):
            series = _ingest(config, counters)
        realisations = _sample(tracer, config, series, workers, counters)
        stats = None
        if config.chain.realisations >= 2:
            with tracer.span("gibbs.stats"):
                stats = convergence_stats(realisations, series)
        with tracer.span("sim.curve"):
            curve = runner.resolve_power_curve(config)
        grid = StrategyGrid(step=config.grid_step, p_n_max=config.grid_max)
        sweep_fracs = config.sweep.values()
        per_real = np.empty((len(sweep_fracs), len(realisations), 4))
        counters.update({"sim.timesteps": 0, "sim.cell_steps": 0, "sim.surplus_cells": 0,
                         "game.points": 0})
        for r_idx, realisation in enumerate(realisations):
            with tracer.span("sim.energy"):
                energies = build_energy_tables(realisation, curve, grid)
            with tracer.span("trace.counters"):
                units = per_unit_series(realisation, curve)
                counters["sim.timesteps"] += len(units)
                counters["sim.cell_steps"] += len(units) * len(grid) ** 2
                counters["sim.surplus_cells"] += _count_surplus_cells(
                    units.x1, units.x2, units.p_d, grid.values)
            for s_idx, frac in enumerate(sweep_fracs):
                costs = replace(config.costs,
                                **{config.sweep.parameter: frac * config.costs.p_g})
                with tracer.span("game.surfaces"):
                    surfaces = profit_surfaces(energies, costs)
                with tracer.span("game.solve"):
                    eq = stackelberg(surfaces, grid)
                counters["game.points"] += 1
                per_real[s_idx, r_idx] = (eq.p_n1_star, eq.p_n2_star,
                                          eq.pi1_star, eq.pi2_star)
        aggregates = np.stack([per_real.mean(axis=1), per_real.min(axis=1),
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
            "timing_s": {},
        }
        result = runner.ScenarioResult(
            sweep_parameter=config.sweep.parameter, sweep_fracs=sweep_fracs,
            per_realisation=per_real, aggregates=aggregates, stats=stats,
            metadata=metadata)
        with tracer.span("runner.report"):
            paths = runner.emit_report(result, out_dir)
        counters["runner.report_bytes"] = sum(p.stat().st_size for p in paths)


def traced_stats(tracer, config, workers, stats_out, counters):
    """Mirror of the ``stats`` subcommand; the table goes to ``stats_out``."""
    from windgame.gibbs import convergence_stats

    with tracer.span("runner"):
        with tracer.span("ingest"):
            series = _ingest(config, counters)
        realisations = _sample(tracer, config, series, workers, counters)
        with tracer.span("gibbs.stats"):
            table = convergence_stats(realisations, series).format_table()
        with tracer.span("runner.report"):
            with open(stats_out, "w", encoding="utf-8") as handle:
                handle.write(table + "\n")
        counters["runner.report_bytes"] = len(table) + 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--profile")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", help="report directory (run)")
    target.add_argument("--stats-out", help="convergence table file (stats)")
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    with tracer.span("cli.import"):
        from windgame import cli  # noqa: F401  the CLI's own import cost
        from windgame.config import apply_profile, load_config
    config = load_config(args.config)
    if args.profile:
        config = apply_profile(config, args.profile)

    counters = {}
    if args.out:
        traced_run(tracer, config, args.workers, args.out, counters)
    else:
        traced_stats(tracer, config, args.workers, args.stats_out, counters)
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": counters}, handle)


if __name__ == "__main__":
    main()
