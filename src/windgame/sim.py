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

The tables are built by the ``energy_generation`` and ``energy_tables``
kernels of ``_kernels.c``, which perform exactly those operations per cell.
``_native`` compiles them on the first call, not at import, and caches them
per user. When they cannot be built or loaded, numpy loops with the same
arithmetic run instead; both give the same bits. ``energy_blocks`` yields
the k x k curtailment tables a block of rows at a time, into one reused
pair of arrays, so the game's solve of a realisation never holds them
whole; ``build_energy_tables`` is its one-block case.
"""
from __future__ import annotations

import csv
import functools
import math
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
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise WindGameError(
                f"power curve parameters must be positive and finite, got "
                f"alpha={self.alpha}, beta={self.beta}")


@dataclass(frozen=True)
class StrategyGrid:
    """Discrete capacity choices 0, step, 2*step, ..., p_n_max (MW), built on read as
    ``values``; a grid whose k x k float64 tables numpy cannot shape is refused."""

    step: float
    p_n_max: float

    def __post_init__(self):
        if self.step <= 0.0:
            raise WindGameError(f"grid step must be positive, got {self.step}")
        if self.p_n_max < 0.0:
            raise WindGameError(f"p_n_max must be nonnegative, got {self.p_n_max}")
        ratio = self.p_n_max / self.step  # may overflow to inf, which round() refuses
        if not np.isfinite(ratio) or (round(ratio) + 1) ** 2 * 8 > np.iinfo(np.intp).max:
            raise WindGameError(f"{ratio + 1:.4g} grid points are too many for k x k tables")
        if abs(round(ratio) * self.step - self.p_n_max) > 1e-9 * max(1.0, self.p_n_max):
            raise WindGameError(
                f"p_n_max {self.p_n_max} is not an integer multiple of step {self.step}")

    def __len__(self) -> int:
        return round(self.p_n_max / self.step) + 1

    @property
    def values(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.float64) * self.step


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
            if not np.all((arr >= 0.0) & (arr <= 1.0)):  # negated, so NaN fails too
                raise WindGameError(f"{name} must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.p_d)


@dataclass(frozen=True, eq=False)
class EnergyTables:
    """Aggregate generation (1-D) and curtailment (2-D) over the grid, MWh.

    e_g1[i] is player 1's total generation at capacity grid[i]; e_c1[i, j]
    the energy player 1 loses to curtailment when the capacity pair is
    (grid[i], grid[j]). Generation is linear in own capacity; curtailment
    couples both players. Each table is a finite float64 array of its grid's
    shape, checked here, so the game's kernel may read it by address.
    ``peaks`` holds ``player_peaks`` of the tables, found by the same pass.
    """

    e_g1: np.ndarray
    e_g2: np.ndarray
    e_c1: np.ndarray
    e_c2: np.ndarray
    grid: StrategyGrid
    peaks: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.grid)
        for name, shape in (("e_g1", (k,)), ("e_g2", (k,)), ("e_c1", (k, k)), ("e_c2", (k, k))):
            table = getattr(self, name)
            if not isinstance(table, np.ndarray) or table.dtype != np.float64 \
                    or table.shape != shape:
                raise WindGameError(f"{name} must be a float64 array of shape {shape}")
        object.__setattr__(self, "peaks", player_peaks(
            {name: cell_peak(getattr(self, name)) for name in ENERGY_TABLES}))


ENERGY_TABLES = ("e_g1", "e_g2", "e_c1", "e_c2")


def cell_peak(table: np.ndarray) -> float:
    """The largest magnitude of any cell of ``table``: inf or NaN when a cell
    is not finite."""
    return max(-float(table.min()), float(table.max()))  # NaN if any cell is


def player_peaks(peak: dict[str, float]) -> tuple[float, float]:
    """The largest magnitude of any cell of player 1's tables (e_g1, e_c1) and
    of player 2's (e_g2, e_c2), from each table's ``cell_peak``; the first
    table of ``ENERGY_TABLES`` with a cell that is not finite is refused."""
    for name in ENERGY_TABLES:
        if not math.isfinite(peak[name]):
            raise WindGameError(f"energy table {name} must be finite")
    return max(peak["e_g1"], peak["e_c1"]), max(peak["e_g2"], peak["e_c2"])


def _sigmoid(alpha, beta, w):
    """1 / (1 + exp(-alpha (w - beta))), broadcast. Where exp overflows to inf
    the output is exactly 0.0, its limit, so the overflow raises no warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-alpha * (w - beta)))


def per_unit_output(w, curve: PowerCurve):
    """Per-unit power at wind speed ``w`` (scalar or array), in [0, 1]: exactly
    0.0 or 1.0 far enough below or above ``beta``."""
    return _sigmoid(curve.alpha, curve.beta, np.asarray(w, dtype=np.float64))


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
    if not (np.all(np.isfinite(winds)) and np.all(np.isfinite(outputs))):
        raise FitError("power-curve points must be finite")
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
        pred = _sigmoid(alphas[:, None, None], betas[None, :, None], winds[None, None, :])
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
        with open(path, newline="", encoding="utf-8-sig") as handle:
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
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
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


# Cells of the e_c1 and e_c2 blocks that one energy_tables call fills for the
# game's solve: 65 rows per block at k=1,002 (~0.5 MB per table, so a worker
# holds ~1 MB of rows in place of the 16 MB k x k pair), and a desk grid
# (k=21) in one block.
_BLOCK_CELLS = 65536


def block_rows(k: int) -> int:
    """Rows per block of a k x k energy table in the game's solve."""
    return max(1, _BLOCK_CELLS // k)


def _generation_numpy(x1, x2, values, e_g1, e_g2) -> None:
    """energy_generation's arithmetic, one timestep at a time over the grid."""
    e_g1.fill(0.0)
    e_g2.fill(0.0)
    with np.errstate(over="ignore"):  # EnergyTables and the solve refuse it
        for t in range(len(x1)):
            e_g1 += x1[t] * values
            e_g2 += x2[t] * values


def _curtailment_numpy(x1, x2, p_d, values, row0, e_c1, e_c2) -> None:
    """energy_tables' arithmetic for rows row0.. of the grid, one timestep at a
    time over the whole block."""
    own = values[row0:row0 + len(e_c1), None]
    e_c1.fill(0.0)
    e_c2.fill(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(p_d)):
            g1 = x1[t] * own
            total = g1 + x2[t] * values
            surplus = total - p_d[t]
            np.maximum(surplus, 0.0, out=surplus)
            # in place where the kernel names a new value: pc1 = surplus * share
            pc1 = np.divide(g1, total, out=np.zeros_like(total), where=total > 0.0)
            pc1 *= surplus
            e_c1 += pc1
            surplus -= pc1
            e_c2 += surplus


def energy_blocks(realisation: Realisation | PerUnitSeries, curve: PowerCurve,
                  grid: StrategyGrid, rows: int | None = None):
    """A realisation's energy tables as ``(e_g1, e_g2, blocks)``: e_g1 and e_g2
    over the whole grid, and an iterator over the e_c1 and e_c2 tables
    ``rows`` rows at a time (default ``block_rows(k)``), in row order, as
    ``(row0, e_c1 rows, e_c2 rows)``. Every block is computed into the arrays
    of the one before it, so only one block of each table exists at a time:
    read a block before taking the next. Every cell has the operations and
    the timestep order of the literal loop in the module header, whatever
    the block size, on either kernel path.
    """
    series = realisation if isinstance(realisation, PerUnitSeries) \
        else per_unit_series(realisation, curve)
    if len(series) == 0:
        raise WindGameError("realisation is empty")
    values = grid.values
    x1, x2, p_d = (np.ascontiguousarray(a, dtype=np.float64)
                   for a in (series.x1, series.x2, series.p_d))
    n, k = len(p_d), len(values)
    rows = min(k, block_rows(k) if rows is None else rows)
    kernels = _native.load_kernels()
    e_g1, e_g2 = np.empty(k), np.empty(k)
    if kernels is None:
        _generation_numpy(x1, x2, values, e_g1, e_g2)
    else:
        kernels.energy_generation(n, k, *(a.ctypes.data for a in (x1, x2, values, e_g1, e_g2)))

    def blocks():
        e_c1, e_c2 = np.empty((rows, k)), np.empty((rows, k))
        for row0 in range(0, k, rows):
            c1, c2 = e_c1[:k - row0], e_c2[:k - row0]  # the last block may be short
            if kernels is None:
                _curtailment_numpy(x1, x2, p_d, values, row0, c1, c2)
            else:
                kernels.energy_tables(n, k, row0, len(c1), *(a.ctypes.data for a in (
                    x1, x2, p_d, values, c1, c2)))
            yield row0, c1, c2

    return e_g1, e_g2, blocks()


def build_energy_tables(realisation: Realisation | PerUnitSeries, curve: PowerCurve,
                        grid: StrategyGrid) -> EnergyTables:
    """Accumulate generation and curtailment over all timesteps and capacity
    pairs: ``energy_blocks`` with all k rows in one block.

    Matches the literal loop documented in the module header: every cell
    is accumulated in timestep order with plain double-precision adds, so
    results are bit-identical to the scalar triple loop on either path.
    """
    e_g1, e_g2, blocks = energy_blocks(realisation, curve, grid, rows=len(grid))
    ((_, e_c1, e_c2),) = blocks
    return EnergyTables(e_g1=e_g1, e_g2=e_g2, e_c1=e_c1, e_c2=e_c2, grid=grid)
