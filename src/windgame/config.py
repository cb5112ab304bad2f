"""Scenario configuration: INI parsing, validation, and run profiles.

Per-MWh costs are written as fractions of the generation tariff, mirroring
how sweep ranges are quoted; absolute overrides are accepted. Relative data
paths resolve against the config file's directory.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, WindGameError
from .game import CostParams
from .gibbs import ChainConfig
from .sim import PowerCurve, StrategyGrid

SWEEPABLE = ("c_g1", "c_g2", "p_t")

PROFILES = {
    # n, realisations, grid step (MW), grid max (MW)
    "desk": (5000, 10, 5.0, 100.0),
    "paper": (50000, 170, 0.5, 500.5),
}


@dataclass(frozen=True)
class SeriesSource:
    path: Path
    time_col: str
    value_col: str


@dataclass(frozen=True)
class SweepSpec:
    """One cost parameter swept over a range of tariff fractions."""

    parameter: str
    start_frac: float
    stop_frac: float
    step_frac: float

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, "
                              f"got '{self.parameter}'")
        if self.step_frac <= 0.0:
            raise ConfigError(f"sweep step must be positive, got {self.step_frac}")
        if self.stop_frac < self.start_frac:
            raise ConfigError(f"sweep stop {self.stop_frac} below start {self.start_frac}")

    def values(self) -> list[float]:
        """Sweep points, inclusive of the stop within half a step."""
        out = []
        k = 0
        while True:
            v = self.start_frac + k * self.step_frac
            if v > self.stop_frac + 1e-9 * max(1.0, abs(self.stop_frac)):
                break
            out.append(v)
            k += 1
        return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one scenario run needs, resolved and validated."""

    wind1: SeriesSource
    wind2: SeriesSource
    demand: SeriesSource
    demand_target_mean: float
    wind_bin_width: float
    demand_bin_width: float
    min_count: int
    chain: ChainConfig
    grid_step: float
    grid_max: float
    costs: CostParams
    sweep: SweepSpec
    curve_points: Path | None = None
    curve_alpha: float | None = None
    curve_beta: float | None = None

    def __post_init__(self):
        if self.demand_target_mean <= 0.0:
            raise ConfigError("demand target mean must be positive")
        if self.wind_bin_width <= 0.0 or self.demand_bin_width <= 0.0:
            raise ConfigError("bin widths must be positive")
        if self.min_count < 1:
            raise ConfigError("min_count must be >= 1")
        if not self.sweep.values():
            raise ConfigError("sweep range is empty")
        if (self.curve_alpha is None) != (self.curve_beta is None):
            raise ConfigError("power curve needs both alpha and beta, or neither")
        if self.curve_alpha is not None and self.curve_points is not None:
            raise ConfigError("[power_curve] give either points or alpha and beta, not both")
        _section("grid", StrategyGrid, step=self.grid_step, p_n_max=self.grid_max)
        if self.curve_alpha is not None:
            _section("power_curve", PowerCurve, alpha=self.curve_alpha, beta=self.curve_beta)


def _section(name: str, build, **values):
    """``build(**values)``, with a validation error, or an allocation that
    fails, prefixed by its INI section."""
    try:
        return build(**values)
    except WindGameError as exc:
        raise ConfigError(f"[{name}] {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"[{name}] out of memory: {exc}") from None


def _get(parser: configparser.ConfigParser, section: str, key: str,
         cast=str, default=None, required: bool = False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        value = cast(raw)
        if cast is float and not math.isfinite(value):
            raise ValueError("not a finite number")
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from None
    return value


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario INI file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    base = path.parent

    def series(prefix: str, default_value_col: str) -> SeriesSource:
        rel = _get(parser, "data", prefix, required=True)
        return SeriesSource(
            path=(base / rel).resolve(),
            time_col=_get(parser, "data", f"{prefix}_time_col", default="timestamp"),
            value_col=_get(parser, "data", f"{prefix}_value_col", default=default_value_col))

    for section in ("data", "chain", "costs", "sweep"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}] in {path}")

    chain = _section(
        "chain", ChainConfig,
        n=_get(parser, "chain", "n", int, required=True),
        realisations=_get(parser, "chain", "realisations", int, required=True),
        burn_in_fraction=_get(parser, "chain", "burn_in_fraction", float, default=0.20),
        seed=_get(parser, "chain", "seed", int, required=True))

    p_g = _get(parser, "costs", "p_g", float, default=74.3)

    def cost_rate(name: str) -> float:
        absolute = _get(parser, "costs", f"{name}_mwh", float)
        fraction = _get(parser, "costs", f"{name}_frac", float)
        if absolute is not None and fraction is not None:
            raise ConfigError(f"[costs] {name}: give either {name}_frac or {name}_mwh, not both")
        if absolute is not None:
            return absolute
        if fraction is not None:
            return fraction * p_g
        raise ConfigError(f"[costs] missing {name}_frac or {name}_mwh")

    costs = _section(
        "costs", CostParams,
        p_g=p_g,
        p_t=cost_rate("p_t"),
        c_g1=cost_rate("c_g1"),
        c_g2=cost_rate("c_g2"),
        c_t=_get(parser, "costs", "c_t", float, required=True))

    sweep = SweepSpec(
        parameter=_get(parser, "sweep", "parameter", required=True),
        start_frac=_get(parser, "sweep", "start_frac", float, required=True),
        stop_frac=_get(parser, "sweep", "stop_frac", float, required=True),
        step_frac=_get(parser, "sweep", "step_frac", float, required=True))

    curve_points = _get(parser, "power_curve", "points")

    return ScenarioConfig(
        wind1=series("wind1", "wind_speed_ms"),
        wind2=series("wind2", "wind_speed_ms"),
        demand=series("demand", "demand_mw"),
        demand_target_mean=_get(parser, "data", "demand_target_mean_mw", float,
                                default=108.1830),
        wind_bin_width=_get(parser, "bins", "wind_width_ms", float, default=1.0),
        demand_bin_width=_get(parser, "bins", "demand_width_mw", float, default=5.0),
        min_count=_get(parser, "bins", "min_count", int, default=10),
        chain=chain,
        grid_step=_get(parser, "grid", "step_mw", float, default=5.0),
        grid_max=_get(parser, "grid", "max_mw", float, default=100.0),
        costs=costs,
        sweep=sweep,
        curve_points=(base / curve_points).resolve() if curve_points else None,
        curve_alpha=_get(parser, "power_curve", "alpha", float),
        curve_beta=_get(parser, "power_curve", "beta", float))


def apply_profile(config: ScenarioConfig, profile: str) -> ScenarioConfig:
    """Override run dimensions with a named profile (desk or paper scale)."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile '{profile}'; choose from {sorted(PROFILES)}")
    n, realisations, step, grid_max = PROFILES[profile]
    return replace(config,
                   chain=replace(config.chain, n=n, realisations=realisations),
                   grid_step=step, grid_max=grid_max)


def override_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(config, chain=replace(config.chain, seed=seed))
