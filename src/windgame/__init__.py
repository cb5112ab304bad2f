"""Correlated wind/demand scenario synthesis and capacity-investment equilibria.

The pipeline turns historic wind and demand records into an empirical
sampler (binned joint and conditional tables driving a three-variable
Gibbs chain), converts sampled scenarios to energy and curtailment tensors
over a capacity grid, and solves the resulting leader-follower investment
game by backward induction.
"""

__version__ = "0.1.0"

from .dist import (BinSpec, DemandConditional, JointTable, assert_ergodic,
                   build_demand_conditional, build_joint_wind_table,
                   count_cell_components, merge_sparse_bins)
from .errors import (ConfigError, DistributionError, ErgodicityError, FitError,
                     IngestError, StageError, WindGameError)
from .game import (BestResponse, CostParams, Equilibrium, ProfitSurfaces,
                   equilibria, profit_surfaces, stackelberg)
from .gibbs import (ChainConfig, Realisation, SamplerTables, StatsReport, VariableStats,
                    chain_rng, convergence_stats, run_chain, run_chains, run_ensemble,
                    wci_95)
from .ingest import (GapReport, JointSeries, TimeSeries, align_series,
                     load_series_csv, normalize_demand)
from .sim import (EnergyTables, PerUnitSeries, PowerCurve, StrategyGrid,
                  build_energy_tables, curtailment_timestep, default_power_curve,
                  fit_sigmoid, load_curve_points, per_unit_output, per_unit_series)

__all__ = [name for name in dir() if not name.startswith("_")]
