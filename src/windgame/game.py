"""Profit surfaces and the leader-follower capacity equilibrium.

The line investor (player 1) earns the tariff on its own delivered energy
and a transmission fee on the local player's delivered energy, and pays its
generation cost plus the full line cost. The local player (player 2) earns
the tariff net of the transmission fee on its delivered energy and pays its
generation cost. The equilibrium is found by backward induction on the
capacity grid: the follower's best response per leader capacity, then the
leader's best choice against that response curve. Ties break toward the
smaller capacity. ``stackelberg`` over ``profit_surfaces`` is the
full-surface reference. ``equilibria`` gives its bits for every sweep point
of one realisation on one of two paths: one call of the ``follower_best``
kernel of ``_kernels.c`` finds each row's best response at every point
without a k x k surface, and the leader's profit is evaluated along those
curves alone; when no kernel loads, or a point's costs are large enough
that a profit off the curve could overflow, that point returns the
reference itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .errors import WindGameError
from .sim import EnergyTables, StrategyGrid


@dataclass(frozen=True)
class CostParams:
    """Tariffs and costs, all in one currency.

    p_g and p_t are per MWh; c_g1 and c_g2 are per MWh of energy generated;
    c_t is the total line cost (build plus operation) as a lump sum.
    """

    p_g: float
    p_t: float
    c_g1: float
    c_g2: float
    c_t: float

    def __post_init__(self):
        if self.p_g <= 0.0:
            raise WindGameError(f"generation tariff must be positive, got {self.p_g}")
        for name in ("p_g", "p_t", "c_g1", "c_g2", "c_t"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise WindGameError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise WindGameError(f"{name} must be nonnegative, got {value}")

    @classmethod
    def from_fractions(cls, p_g: float, p_t_frac: float, c_g1_frac: float,
                       c_g2_frac: float, c_t: float) -> "CostParams":
        """Build from per-MWh rates expressed as fractions of the tariff."""
        return cls(p_g=p_g, p_t=p_t_frac * p_g, c_g1=c_g1_frac * p_g,
                   c_g2=c_g2_frac * p_g, c_t=c_t)


@dataclass(frozen=True, eq=False)
class ProfitSurfaces:
    """Both players' profits over every capacity pair on the grid."""

    pi1: np.ndarray
    pi2: np.ndarray

    def __post_init__(self):
        if self.pi1.shape != self.pi2.shape or self.pi1.ndim != 2:
            raise WindGameError("profit surfaces must be 2-D grids of equal shape")
        if not (np.all(np.isfinite(self.pi1)) and np.all(np.isfinite(self.pi2))):
            raise WindGameError("profit surfaces must be finite")


@dataclass(frozen=True, eq=False)
class BestResponse:
    """Follower's profit-maximizing column per leader row."""

    indices: np.ndarray


@dataclass(frozen=True)
class Equilibrium:
    """Backward-induction solution on the grid."""

    p_n1_star: float
    p_n2_star: float
    pi1_star: float
    pi2_star: float
    leader_index: int
    follower_index: int
    best_response: BestResponse = field(repr=False, compare=False)


def _leader_profit(e_g1, e_c1, e_g2, e_c2, p_g, c_g1, p_t, c_t) -> np.ndarray:
    """pi1 = delivered_1 * p_g - e_g1 * c_g1 + delivered_2 * p_t - c_t, where
    delivered_i = e_gi - e_ci, cell by cell over broadcastable energies and
    costs."""
    return (e_g1 - e_c1) * p_g - e_g1 * c_g1 + (e_g2 - e_c2) * p_t - c_t


def _follower_profit(e_g2, e_c2, costs: CostParams) -> np.ndarray:
    """pi2 = delivered_2 * (p_g - p_t) - e_g2 * c_g2, in place in one new array:
    a new array per operation made the k=1,002 reference solve ~1.3x slower."""
    pi2 = e_g2 - e_c2
    pi2 *= costs.p_g - costs.p_t
    pi2 -= e_g2 * costs.c_g2
    return pi2


def profit_surfaces(tables: EnergyTables, costs: CostParams) -> ProfitSurfaces:
    """Evaluate both profit functions at every grid cell (i, j). A cell that
    overflows raises no numpy warning: ``ProfitSurfaces`` refuses it."""
    e_g1, e_g2 = tables.e_g1[:, None], tables.e_g2[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        pi1 = _leader_profit(e_g1, tables.e_c1, e_g2, tables.e_c2,
                             costs.p_g, costs.c_g1, costs.p_t, costs.c_t)
        pi2 = _follower_profit(e_g2, tables.e_c2, costs)
    return ProfitSurfaces(pi1=pi1, pi2=pi2)


def _best_response(pi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``pi2``: np.argmax's first maximum, and that cell's value."""
    cols = np.argmax(pi2, axis=1)
    return cols, pi2[np.arange(len(cols)), cols]


def _follower_best(kernels, tables: EnergyTables,
                   costs: list[CostParams]) -> tuple[np.ndarray, np.ndarray]:
    """``_best_response`` of ``_follower_profit`` over the tables at each of
    ``costs``, as (points, k) arrays, row by row in the ``follower_best``
    kernel: O(k) memory per point, no k x k surface."""
    k, points = len(tables.grid), len(costs)
    cols = np.empty((points, k), dtype=np.int64)
    best = np.empty((points, k))
    work = np.empty(2 * k)  # a row's delivered energy, then its profits at one point
    margin = np.array([c.p_g - c.p_t for c in costs])
    c_g2 = np.array([c.c_g2 for c in costs])
    e_g2, e_c2 = np.ascontiguousarray(tables.e_g2), np.ascontiguousarray(tables.e_c2)
    if kernels.follower_best(k, points, e_g2.ctypes.data, e_c2.ctypes.data,
                             margin.ctypes.data, c_g2.ctypes.data, cols.ctypes.data,
                             best.ctypes.data, work.ctypes.data):
        raise WindGameError("profit surfaces must be finite")
    return cols, best


def _leader_choices(cols: np.ndarray, pi2_best: np.ndarray, pi1: np.ndarray,
                    grid: StrategyGrid) -> list[Equilibrium]:
    """Per row of ``pi1``, the leader's argmax of its profit along the
    follower's response in that row of ``cols`` (whose cells' pi2 are in
    ``pi2_best``); ties break low."""
    if not np.all(np.isfinite(pi1)):
        raise WindGameError("profit surfaces must be finite")
    leaders = np.argmax(pi1, axis=1).tolist()
    values = grid.values
    return [Equilibrium(p_n1_star=float(values[i]), p_n2_star=float(values[row[i]]),
                        pi1_star=float(profit[i]), pi2_star=float(pi2[i]), leader_index=i,
                        follower_index=int(row[i]), best_response=BestResponse(indices=row))
            for i, row, profit, pi2 in zip(leaders, cols, pi1, pi2_best)]


def stackelberg(surfaces: ProfitSurfaces, grid: StrategyGrid) -> Equilibrium:
    """Solve the two-level game by backward induction on the grid.

    The leader maximizes its profit along the follower's best-response
    curve; the returned pair satisfies both argmax conditions, with ties
    broken toward the smaller capacity at each level.
    """
    if surfaces.pi2.shape != (len(grid), len(grid)):
        raise WindGameError(f"surface shape {surfaces.pi2.shape} does not match grid "
                            f"of {len(grid)}")
    cols, pi2_best = _best_response(surfaces.pi2)
    pi1 = surfaces.pi1[np.arange(len(grid)), cols]
    return _leader_choices(cols[None], pi2_best[None], pi1[None], grid)[0]


# Cells of the (points, k) arrays that one follower_best call and its leader
# step work on: a desk sweep (41 points at k=21) is one call, and at k=1,002
# four points share each pass over e_c2 while each array stays at 32 KB
# (8,192 cells solved a fine-grid sweep no faster, and raised the peak RSS of
# a two-worker run by ~0.5 MB more).
_CHUNK_CELLS = 4096


def equilibria(tables: EnergyTables, costs: list[CostParams]) -> list[Equilibrium]:
    """``stackelberg(profit_surfaces(tables, c), tables.grid)`` for each ``c``
    of ``costs``, bit for bit. With the kernels loaded, the points under the
    overflow bound are solved a chunk at a time, each chunk in one
    ``follower_best`` call, with the same profits, pi1 only along the
    follower's best responses, and no surface is built; every other point
    returns that reference itself."""
    # |e_g1 - e_c1| <= 2 * peak1, so no intermediate of pi1 exceeds twice this
    # bound, and rounding cannot double it again: while four times the bound is
    # finite, no cell of pi1 overflows. Past it, the reference's whole-surface
    # check decides, so both paths refuse the same costs.
    kernels = _native.load_kernels()
    peak1, peak2 = tables.peaks
    fast = [] if kernels is None else [
        p for p, c in enumerate(costs)
        if math.isfinite(4 * (peak1 * (c.p_g + c.c_g1) + peak2 * c.p_t + c.c_t))]
    k = len(tables.grid)
    rows, step, solved = np.arange(k), max(1, _CHUNK_CELLS // k), {}
    for lo in range(0, len(fast), step):
        chunk = fast[lo:lo + step]
        points = [costs[p] for p in chunk]
        cols, pi2_best = _follower_best(kernels, tables, points)
        # each cost as a (points, 1) column against the (points, k) curves
        p_g, c_g1, p_t, c_t = np.array([(c.p_g, c.c_g1, c.p_t, c.c_t)
                                        for c in points]).T[..., None]
        pi1 = _leader_profit(tables.e_g1, tables.e_c1[rows, cols], tables.e_g2[cols],
                             tables.e_c2[rows, cols], p_g, c_g1, p_t, c_t)
        solved.update(zip(chunk, _leader_choices(cols, pi2_best, pi1, tables.grid)))
    return [solved[p] if p in solved else stackelberg(profit_surfaces(tables, c), tables.grid)
            for p, c in enumerate(costs)]


def equilibrium(tables: EnergyTables, costs: CostParams) -> Equilibrium:
    """``equilibria`` at one point: ``stackelberg(profit_surfaces(tables,
    costs), tables.grid)`` bit for bit."""
    return equilibria(tables, [costs])[0]
