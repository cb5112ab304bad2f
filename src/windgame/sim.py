"""Wind-to-power conversion and generation/curtailment aggregation.

Wind speed maps to per-unit output through a sigmoid power curve; a
realisation then yields, for every capacity pair on the strategy grid, the
total energy each player generates and the share each loses to curtailment
under proportional ("common access") sharing.

Ingest accepts hourly series only, so a sum of MW over timesteps is in MWh.
All tensor entries are accumulated in timestep order with plain double
adds, so they are bit-for-bit reproducible by a literal per-timestep loop:
e_g[k]   += x[t] * grid[k]
e_c[i,j] += pc_i(x1[t] * grid[i], x2[t] * grid[j], p_d[t])

The tables are built by the ``energy_tables`` kernel of ``_kernels.c``,
which performs exactly those operations per cell. ``_native`` compiles it
on the first call, not at import, and caches it per user. When it cannot
be built or loaded, a numpy loop with the same arithmetic runs instead;
both give the same bits.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import _native
from .errors import FitError, WindGameError
from .gibbs import Realisation

_E82_FIXTURE = "enercon_e82_power_curve.csv"


@dataclass(frozen=True)
class PowerCurve:
    """Sigmoid power curve: per-unit output = 1 / (1 + exp(-alpha (w - beta)))."""

    alpha: float
    beta: float
    fit_residual: float | None = None

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise WindGameError(
                f"power curve parameters must be positive, got "
                f"alpha={self.alpha}, beta={self.beta}")


@dataclass(frozen=True)
class StrategyGrid:
    """Discrete capacity choices 0, step, 2*step, ..., p_n_max (MW)."""

    step: float
    p_n_max: float
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.step <= 0.0:
            raise WindGameError(f"grid step must be positive, got {self.step}")
        if self.p_n_max < 0.0:
            raise WindGameError(f"p_n_max must be nonnegative, got {self.p_n_max}")
        n = round(self.p_n_max / self.step)
        if abs(n * self.step - self.p_n_max) > 1e-9 * max(1.0, self.p_n_max):
            raise WindGameError(
                f"p_n_max {self.p_n_max} is not an integer multiple of step {self.step}")
        object.__setattr__(self, "values", np.arange(n + 1, dtype=np.float64) * self.step)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class PerUnitSeries:
    """Per-unit outputs of both players plus demand, per retained sample."""

    x1: np.ndarray
    x2: np.ndarray
    p_d: np.ndarray

    def __post_init__(self):
        if not (len(self.x1) == len(self.x2) == len(self.p_d)):
            raise WindGameError("per-unit series must have equal lengths")
        for name in ("x1", "x2"):
            arr = getattr(self, name)
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise WindGameError(f"{name} must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.p_d)


@dataclass(frozen=True, eq=False)
class EnergyTables:
    """Aggregate generation (1-D) and curtailment (2-D) over the grid, MWh.

    e_g1[i] is player 1's total generation at capacity grid[i]; e_c1[i, j]
    the energy player 1 loses to curtailment when the capacity pair is
    (grid[i], grid[j]). Generation is linear in own capacity; curtailment
    couples both players.
    """

    e_g1: np.ndarray
    e_g2: np.ndarray
    e_c1: np.ndarray
    e_c2: np.ndarray
    grid: StrategyGrid


def per_unit_output(w, curve: PowerCurve):
    """Per-unit power at wind speed ``w`` (scalar or array), in (0, 1)."""
    return 1.0 / (1.0 + np.exp(-curve.alpha * (np.asarray(w, dtype=np.float64) - curve.beta)))


# fit_sigmoid's search: initial alpha window, refinement rounds, points per axis
_FIT_ALPHA, _FIT_ROUNDS, _FIT_RESOLUTION = (0.02, 5.0), 10, 25


def fit_sigmoid(points: list[tuple[float, float]]) -> PowerCurve:
    """Least-squares sigmoid fit by iteratively refined grid search.

    ``points`` are (wind m/s, per-unit output) pairs with outputs in [0, 1].
    Each round evaluates the residual on a square grid of alpha and beta and
    shrinks the search window around the best cell. The summed squared
    residual of the winning parameters is stored on the returned curve.
    """
    if len(points) < 3:
        raise FitError(f"need at least 3 points to fit, got {len(points)}")
    winds = np.array([p[0] for p in points], dtype=np.float64)
    outputs = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(outputs < 0.0) or np.any(outputs > 1.0):
        raise FitError("per-unit outputs must lie in [0, 1]")
    if np.ptp(outputs) == 0.0:
        raise FitError("outputs are constant; sigmoid parameters are unidentifiable")

    span = max(float(np.ptp(winds)), 1.0)
    a_lo, a_hi = _FIT_ALPHA
    b_lo, b_hi = max(1e-6, float(winds.min()) - 0.5 * span), float(winds.max()) + 0.5 * span
    best_a = best_b = best_sse = None
    for _ in range(_FIT_ROUNDS):
        alphas = np.linspace(a_lo, a_hi, _FIT_RESOLUTION)
        betas = np.linspace(b_lo, b_hi, _FIT_RESOLUTION)
        pred = 1.0 / (1.0 + np.exp(-alphas[:, None, None]
                                   * (winds[None, None, :] - betas[None, :, None])))
        sse = ((pred - outputs[None, None, :]) ** 2).sum(axis=2)
        ia, ib = np.unravel_index(int(np.argmin(sse)), sse.shape)
        best_a, best_b, best_sse = float(alphas[ia]), float(betas[ib]), float(sse[ia, ib])
        a_step = (a_hi - a_lo) / (_FIT_RESOLUTION - 1)
        b_step = (b_hi - b_lo) / (_FIT_RESOLUTION - 1)
        a_lo, a_hi = max(_FIT_ALPHA[0], best_a - a_step), best_a + a_step
        b_lo, b_hi = max(1e-6, best_b - b_step), best_b + b_step
    return PowerCurve(alpha=best_a, beta=best_b, fit_residual=best_sse)


def load_curve_points(path: str | Path) -> list[tuple[float, float]]:
    """Read (wind_ms, output_pu) pairs from a headed CSV."""
    path = Path(path)
    if not path.is_file():
        raise FitError(f"power-curve file not found: {path}")
    points = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not {"wind_ms", "output_pu"} <= set(reader.fieldnames):
                raise FitError(f"{path} must have columns wind_ms, output_pu; "
                               f"found {reader.fieldnames}")
            for row in reader:
                try:
                    points.append((float(row["wind_ms"]), float(row["output_pu"])))
                except (TypeError, ValueError):
                    raise FitError(f"{path} line {reader.line_num}: wind_ms and output_pu "
                                   f"must be numbers, got {row}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FitError(f"cannot read {path}: {exc}") from None
    if not points:
        raise FitError(f"{path} contains no data rows")
    return points


@functools.cache
def default_power_curve() -> PowerCurve:
    """Curve fitted to the bundled 2.05 MW turbine manufacturer data."""
    ref = resources.files("windgame").joinpath("data").joinpath(_E82_FIXTURE)
    with resources.as_file(ref) as path:
        return fit_sigmoid(load_curve_points(path))


def curtailment_timestep(p_g1: float, p_g2: float, p_d: float) -> tuple[float, float]:
    """Curtailed power of each player at one instant, shared in proportion
    to output.

    Total curtailment is the generation surplus over demand, floored at
    zero; the two shares sum to that total exactly and each is bounded by
    the player's own output.
    """
    total_gen = p_g1 + p_g2
    surplus = total_gen - p_d
    if surplus < 0.0 or total_gen <= 0.0:
        return (0.0, 0.0)
    p_c1 = surplus * (p_g1 / total_gen)
    return (p_c1, surplus - p_c1)


def per_unit_series(realisation: Realisation, curve: PowerCurve) -> PerUnitSeries:
    """Map a realisation's winds through the power curve."""
    return PerUnitSeries(x1=per_unit_output(realisation.w1, curve),
                         x2=per_unit_output(realisation.w2, curve),
                         p_d=np.asarray(realisation.p_d, dtype=np.float64))


def _accumulate_numpy(x1, x2, p_d, values, e_g1, e_g2, e_c1, e_c2) -> None:
    """The kernel's arithmetic, one timestep at a time over the whole grid."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(len(p_d)):
            g1 = x1[t] * values
            g2 = x2[t] * values
            e_g1 += g1
            e_g2 += g2
            total = g1[:, None] + g2[None, :]
            surplus = total - p_d[t]
            np.maximum(surplus, 0.0, out=surplus)
            share1 = np.where(total > 0.0, g1[:, None] / total, 0.0)
            pc1 = surplus * share1
            e_c1 += pc1
            e_c2 += surplus - pc1


def build_energy_tables(realisation: Realisation | PerUnitSeries, curve: PowerCurve,
                        grid: StrategyGrid) -> EnergyTables:
    """Accumulate generation and curtailment over all timesteps and capacity
    pairs.

    Matches the literal loop documented in the module header: every cell
    is accumulated in timestep order with plain double-precision adds, so
    results are bit-identical to the scalar triple loop on either path.
    """
    series = realisation if isinstance(realisation, PerUnitSeries) \
        else per_unit_series(realisation, curve)
    if len(series) == 0:
        raise WindGameError("realisation is empty")
    values = grid.values
    x1, x2, p_d = (np.ascontiguousarray(a, dtype=np.float64)
                   for a in (series.x1, series.x2, series.p_d))
    k = len(values)

    e_g1 = np.zeros(k)
    e_g2 = np.zeros(k)
    e_c1 = np.zeros((k, k))
    e_c2 = np.zeros((k, k))
    kernels = _native.load_kernels()
    if kernels is None:
        _accumulate_numpy(x1, x2, p_d, values, e_g1, e_g2, e_c1, e_c2)
    else:
        kernels.energy_tables(len(p_d), k, x1, x2, p_d, values, e_g1, e_g2, e_c1, e_c2)
    return EnergyTables(e_g1=e_g1, e_g2=e_g2, e_c1=e_c1, e_c2=e_c2, grid=grid)
